#include "probe.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/clock.h"

namespace perfbench {

using txrep::Result;
using txrep::Status;
namespace kv = txrep::kv;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kRelExecute: return "rel.execute";
    case Layer::kQtTranslate: return "qt.translate";
    case Layer::kQtSelect: return "qt.select";
    case Layer::kKvGet: return "kv.get";
    case Layer::kKvMultiGet: return "kv.multiget";
    case Layer::kKvMultiWrite: return "kv.multiwrite";
    case Layer::kKvOther: return "kv.other";
    case Layer::kCodecEncode: return "codec.encode";
    case Layer::kCodecDecode: return "codec.decode";
    case Layer::kCount: break;
  }
  return "?";
}

LayerSnapshot Diff(const LayerSnapshot& after, const LayerSnapshot& before) {
  LayerSnapshot out{};
  for (size_t i = 0; i < kNumLayers; ++i) {
    out[i].count = after[i].count - before[i].count;
    out[i].total_ns = after[i].total_ns - before[i].total_ns;
    out[i].self_ns = after[i].self_ns - before[i].self_ns;
  }
  return out;
}

// --- SpanRecorder ------------------------------------------------------------

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder* recorder = new SpanRecorder();  // Never destroyed:
  return *recorder;  // pool threads may end spans during static teardown.
}

void SpanRecorder::Enable(int64_t raw_capacity) {
  raw_budget_.store(raw_capacity, std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
}

SpanRecorder::ThreadBuffer* SpanRecorder::Local() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->stack.reserve(16);
    txrep::check::MutexLock lock(&mu_);
    buffer->tid = static_cast<uint32_t>(buffers_.size() + 1);
    local = buffer.get();
    buffers_.push_back(std::move(buffer));
  }
  return local;
}

LayerSnapshot SpanRecorder::Totals() const {
  LayerSnapshot sum{};
  txrep::check::MutexLock lock(&mu_);
  for (const auto& buffer : buffers_) {
    txrep::check::MutexLock buffer_lock(&buffer->mu);
    for (size_t i = 0; i < kNumLayers; ++i) {
      sum[i].count += buffer->totals[i].count;
      sum[i].total_ns += buffer->totals[i].total_ns;
      sum[i].self_ns += buffer->totals[i].self_ns;
    }
  }
  return sum;
}

Status SpanRecorder::DumpChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot write " + path);
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  txrep::check::MutexLock lock(&mu_);
  for (const auto& buffer : buffers_) {
    txrep::check::MutexLock buffer_lock(&buffer->mu);
    for (const RawSpan& span : buffer->raw) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent_id\":%llu,\"depth\":%u}}",
                   first ? "" : ",\n", LayerName(span.layer), buffer->tid,
                   static_cast<double>(span.start_ns) / 1e3,
                   static_cast<double>(span.dur_ns) / 1e3,
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent_id),
                   span.depth);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::Internal("cannot close " + path);
}

ScopedSpan::ScopedSpan(Layer layer, uint64_t id) {
  SpanRecorder& recorder = SpanRecorder::Get();
  if (!recorder.enabled()) return;
  buffer_ = recorder.Local();
  buffer_->stack.push_back({layer, NowNanos(), 0, id});
}

ScopedSpan::~ScopedSpan() {
  if (buffer_ == nullptr) return;
  const int64_t end = NowNanos();
  const SpanRecorder::Frame frame = buffer_->stack.back();
  buffer_->stack.pop_back();
  const int64_t dur = end - frame.start_ns;
  uint64_t parent_id = 0;
  if (!buffer_->stack.empty()) {
    buffer_->stack.back().child_ns += dur;
    parent_id = buffer_->stack.back().id;
  }
  txrep::check::MutexLock lock(&buffer_->mu);
  LayerTotals& totals = buffer_->totals[static_cast<size_t>(frame.layer)];
  ++totals.count;
  totals.total_ns += dur;
  totals.self_ns += dur - frame.child_ns;
  if (SpanRecorder::Get().ClaimRawSlot()) {
    buffer_->raw.push_back({frame.layer,
                            static_cast<uint32_t>(buffer_->stack.size()),
                            frame.id, parent_id, frame.start_ns, dur});
  }
}

// --- TimedStore ----------------------------------------------------------------

namespace {
thread_local int64_t t_blink_gets = 0;

bool IsBlinkKey(const kv::Key& key) { return key.rfind("!b", 0) == 0; }
}  // namespace

int64_t BlinkGetCount() { return t_blink_gets; }

Status TimedStore::Put(const kv::Key& key, const kv::Value& value) {
  ScopedSpan span(Layer::kKvOther);
  return base_->Put(key, value);
}

Result<kv::Value> TimedStore::Get(const kv::Key& key) {
  if (IsBlinkKey(key)) ++t_blink_gets;
  ScopedSpan span(Layer::kKvGet);
  return base_->Get(key);
}

Status TimedStore::Delete(const kv::Key& key) {
  ScopedSpan span(Layer::kKvOther);
  return base_->Delete(key);
}

Status TimedStore::MultiWrite(std::span<const kv::KvWrite> batch,
                              size_t* applied) {
  multiwrite_entries_.fetch_add(static_cast<int64_t>(batch.size()),
                                std::memory_order_relaxed);
  ScopedSpan span(Layer::kKvMultiWrite);
  return base_->MultiWrite(batch, applied);
}

std::vector<Result<kv::Value>> TimedStore::MultiGet(
    std::span<const kv::Key> keys) {
  for (const kv::Key& key : keys) {
    if (IsBlinkKey(key)) ++t_blink_gets;
  }
  ScopedSpan span(Layer::kKvMultiGet);
  return base_->MultiGet(keys);
}

bool TimedStore::Contains(const kv::Key& key) {
  ScopedSpan span(Layer::kKvOther);
  return base_->Contains(key);
}

size_t TimedStore::Size() {
  ScopedSpan span(Layer::kKvOther);
  return base_->Size();
}

kv::StoreDump TimedStore::Dump() {
  ScopedSpan span(Layer::kKvOther);
  return base_->Dump();
}

Status TimedStore::Clear() {
  ScopedSpan span(Layer::kKvOther);
  return base_->Clear();
}

// --- ApplyTracker -------------------------------------------------------------

ApplyTracker::ApplyTracker() : observer_([this] { Observe(); }) {}

ApplyTracker::~ApplyTracker() { Close(); }

void ApplyTracker::Add(uint64_t lsn,
                       std::shared_ptr<txrep::core::Transaction> handle) {
  queue_.Push(Item{lsn, std::move(handle)});
}

void ApplyTracker::Close() {
  queue_.Close();
  if (observer_.joinable()) observer_.join();
}

void ApplyTracker::Observe() {
  for (;;) {
    std::optional<Item> item = queue_.Pop();
    if (!item.has_value()) return;
    const Status status = item->handle->Wait();
    const int64_t now = txrep::NowMicros();
    if (!status.ok()) ++failures_;
    applied_.emplace_back(item->lsn, now);
    applied_lsn_.store(item->lsn, std::memory_order_release);
  }
}

// --- statistics ------------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace perfbench
