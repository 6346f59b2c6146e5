// Measurement probes the benchmark places *outside* the system under test:
// bench-side spans around calls into each module's public functions, a
// timing kv::KvStore decorator, and the apply tracker that turns TM
// completion handles into "applied" instants. Nothing here reaches into
// src/; every number is taken at a public call boundary.
#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/mutex.h"
#include "common/blocking_queue.h"
#include "common/status.h"
#include "core/transaction.h"
#include "kv/kv_store.h"

namespace perfbench {

/// Steady-clock nanoseconds (the same clock txrep::NowMicros reads).
int64_t NowNanos();

// --- spans -----------------------------------------------------------------

/// The public calls the traced run wraps, one per layer boundary.
enum class Layer : uint8_t {
  kRelExecute,    // rel::Database::ExecuteTransaction
  kQtTranslate,   // qt::QueryTranslator::ApplyTransaction
  kQtSelect,      // qt::ReplicaReader::Select
  kKvGet,         // kv::KvStore::Get on the replica cluster
  kKvMultiGet,    // kv::KvStore::MultiGet
  kKvMultiWrite,  // kv::KvStore::MultiWrite
  kKvOther,       // Put / Delete / Contains / Size / Dump / Clear
  kCodecEncode,   // codec::EncodeLogBatch
  kCodecDecode,   // codec::DecodeLogBatch
  kCount,
};
inline constexpr size_t kNumLayers = static_cast<size_t>(Layer::kCount);

const char* LayerName(Layer layer);

/// Per-layer sums. Self time is a span's duration minus the part of it its
/// child spans (on the same thread) cover.
struct LayerTotals {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
};
using LayerSnapshot = std::array<LayerTotals, kNumLayers>;

/// Element-wise `after - before`.
LayerSnapshot Diff(const LayerSnapshot& after, const LayerSnapshot& before);

/// Process-wide in-memory span store. Disabled (every span a no-op) unless
/// Enable() was called, which only the traced run does. Each thread appends
/// to its own buffer; raw spans are kept up to a cap for the dump, totals
/// always.
class SpanRecorder {
 public:
  static SpanRecorder& Get();

  /// Turns recording on; at most `raw_capacity` raw spans are kept for the
  /// dump (the first ones recorded, across all threads).
  void Enable(int64_t raw_capacity);
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Sum of every thread's totals so far.
  LayerSnapshot Totals() const;

  /// Writes the raw spans as Chrome trace-event JSON.
  txrep::Status DumpChromeJson(const std::string& path) const;

 private:
  friend class ScopedSpan;

  struct Frame {
    Layer layer;
    int64_t start_ns;
    int64_t child_ns;
    uint64_t id;
  };
  struct RawSpan {
    Layer layer;
    uint32_t depth;
    uint64_t id;
    uint64_t parent_id;
    int64_t start_ns;
    int64_t dur_ns;
  };
  struct ThreadBuffer {
    uint32_t tid = 0;
    std::vector<Frame> stack;  // Touched by the owning thread only.
    mutable txrep::check::Mutex mu;
    LayerSnapshot totals TXREP_GUARDED_BY(mu){};
    std::vector<RawSpan> raw TXREP_GUARDED_BY(mu);
  };

  /// The calling thread's buffer (registered on first use).
  ThreadBuffer* Local();

  /// Reserves room for one more raw span; false once the cap is reached.
  bool ClaimRawSlot() {
    return raw_budget_.fetch_sub(1, std::memory_order_relaxed) > 0;
  }

  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> raw_budget_{0};
  mutable txrep::check::Mutex mu_{"perfbench.spans"};
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_ TXREP_GUARDED_BY(mu_);
};

/// RAII span around one call into a layer. `id` ties spans of one request
/// together (the LSN, or a read's sequence number).
class ScopedSpan {
 public:
  explicit ScopedSpan(Layer layer, uint64_t id = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder::ThreadBuffer* buffer_ = nullptr;  // Null when disabled.
};

// --- kv decorator ------------------------------------------------------------

/// kv::KvStore decorator placed between the applier (TM, SerialApplier,
/// bench-side replays) and the KvCluster in traced runs. Forwards every call
/// unchanged and wraps it in a span; also counts B-link object reads made
/// on the calling thread (see BlinkGetCount).
class TimedStore : public txrep::kv::KvStore {
 public:
  explicit TimedStore(txrep::kv::KvStore* base) : base_(base) {}

  txrep::Status Put(const txrep::kv::Key& key,
                    const txrep::kv::Value& value) override;
  txrep::Result<txrep::kv::Value> Get(const txrep::kv::Key& key) override;
  txrep::Status Delete(const txrep::kv::Key& key) override;
  txrep::Status MultiWrite(std::span<const txrep::kv::KvWrite> batch,
                           size_t* applied = nullptr) override;
  std::vector<txrep::Result<txrep::kv::Value>> MultiGet(
      std::span<const txrep::kv::Key> keys) override;
  bool Contains(const txrep::kv::Key& key) override;
  size_t Size() override;
  txrep::kv::StoreDump Dump() override;
  txrep::Status Clear() override;

  /// Entries shipped through MultiWrite (for the mean batch size).
  int64_t multiwrite_entries() const {
    return multiwrite_entries_.load(std::memory_order_relaxed);
  }

 private:
  txrep::kv::KvStore* base_;  // Not owned.
  std::atomic<int64_t> multiwrite_entries_{0};
};

/// Gets of B-link node/meta objects issued through a TimedStore by the
/// calling thread since it started (a thread-local counter: a read-only
/// transaction body reads it before and after ReplicaReader::Select).
int64_t BlinkGetCount();

// --- apply completion ----------------------------------------------------------

/// Observes apply completion of update transactions through their TM
/// handles, in LSN order, on one observer thread. A transaction counts as
/// applied only once its own handle *and every earlier one* completed: the
/// observer waits the handles in submission order, so the instant it records
/// for LSN i is never before any handle <= i finished.
class ApplyTracker {
 public:
  ApplyTracker();
  ~ApplyTracker();

  ApplyTracker(const ApplyTracker&) = delete;
  ApplyTracker& operator=(const ApplyTracker&) = delete;

  /// Hands over one submitted transaction. Call in LSN order.
  void Add(uint64_t lsn, std::shared_ptr<txrep::core::Transaction> handle);

  /// Stops accepting, waits until every added handle was observed, joins
  /// the observer. Idempotent.
  void Close();

  /// Highest LSN of the applied prefix.
  uint64_t applied_lsn() const {
    return applied_lsn_.load(std::memory_order_acquire);
  }

  /// (lsn, applied instant in µs) in LSN order; valid after Close().
  const std::vector<std::pair<uint64_t, int64_t>>& applied() const {
    return applied_;
  }

  /// Handles whose final status was not OK; valid after Close().
  int64_t failures() const { return failures_; }

 private:
  struct Item {
    uint64_t lsn = 0;
    std::shared_ptr<txrep::core::Transaction> handle;
  };
  void Observe();

  txrep::BlockingQueue<Item> queue_;
  std::atomic<uint64_t> applied_lsn_{0};
  std::vector<std::pair<uint64_t, int64_t>> applied_;  // Observer-owned.
  int64_t failures_ = 0;                               // Observer-owned.
  std::thread observer_;
};

// --- small statistics helpers ----------------------------------------------

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
