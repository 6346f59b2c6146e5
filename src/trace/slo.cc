#include "trace/slo.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/clock.h"
#include "common/logging.h"
#include "obs/names.h"
#include "trace/export.h"

namespace txrep::trace {

std::string SloStatus::ToString() const {
  char buf[256];
  snprintf(buf, sizeof(buf),
           "slo: burn=%.2f window=%" PRId64 "/%" PRId64 " lifetime=%" PRId64
           "/%" PRId64 " stalls=%" PRId64 " dumps=%" PRId64,
           burn_rate, window_violations, window_observations, violations,
           observations, stalls, dumps);
  return buf;
}

SloWatchdog::SloWatchdog(SloOptions options, obs::MetricsRegistry* metrics,
                         Tracer* tracer)
    : options_(options), tracer_(tracer) {
  options_.window_buckets = std::max(1, options_.window_buckets);
  options_.window_micros =
      std::max<int64_t>(options_.window_buckets, options_.window_micros);
  buckets_ = std::vector<Bucket>(options_.window_buckets);
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  c_observations_ = metrics->GetCounter(obs::kSloObservations);
  c_violations_ = metrics->GetCounter(obs::kSloViolations);
  c_stalls_ = metrics->GetCounter(obs::kSloStalls);
  c_dumps_ = metrics->GetCounter(obs::kSloDumps);
  g_burn_permille_ = metrics->GetGauge(obs::kSloBurnRatePermille);
  last_progress_micros_ = NowMicros();
}

SloWatchdog::~SloWatchdog() { Stop(); }

void SloWatchdog::SetProgressProbe(std::function<SloProbe()> probe) {
  check::MutexLock lock(&mu_);
  probe_ = std::move(probe);
}

void SloWatchdog::SetDumpSink(DumpSink sink) {
  check::MutexLock lock(&mu_);
  dump_sink_ = std::move(sink);
}

void SloWatchdog::Start() {
  if (!options_.start_thread || thread_.joinable()) return;
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      Poll();
      // Sleep in small steps so Stop() is prompt even with slow polls.
      int64_t remaining = options_.poll_interval_micros;
      while (remaining > 0 && !stop_.load(std::memory_order_relaxed)) {
        const int64_t step = std::min<int64_t>(remaining, 20'000);
        SleepForMicros(step);
        remaining -= step;
      }
    }
  });
}

void SloWatchdog::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
}

void SloWatchdog::ObserveLag(int64_t lag_micros) {
  const int64_t now = NowMicros();
  const int64_t epoch = now / bucket_width_micros();
  Bucket& bucket = buckets_[epoch % buckets_.size()];
  if (bucket.epoch.load(std::memory_order_acquire) != epoch) {
    // The bucket still holds a past window rotation; reset it once. The
    // mutex only serializes the reset, not the hot-path increments.
    check::MutexLock lock(&rotate_mu_);
    if (bucket.epoch.load(std::memory_order_relaxed) != epoch) {
      bucket.total.store(0, std::memory_order_relaxed);
      bucket.violations.store(0, std::memory_order_relaxed);
      bucket.epoch.store(epoch, std::memory_order_release);
    }
  }
  bucket.total.fetch_add(1, std::memory_order_relaxed);
  c_observations_->Increment();
  if (lag_micros > options_.lag_objective_micros) {
    bucket.violations.fetch_add(1, std::memory_order_relaxed);
    c_violations_->Increment();
  }
}

void SloWatchdog::WindowCounts(int64_t* total, int64_t* violations) const {
  *total = 0;
  *violations = 0;
  const int64_t now_epoch = NowMicros() / bucket_width_micros();
  const int64_t oldest =
      now_epoch - static_cast<int64_t>(buckets_.size()) + 1;
  for (const Bucket& bucket : buckets_) {
    const int64_t epoch = bucket.epoch.load(std::memory_order_acquire);
    if (epoch < oldest || epoch > now_epoch) continue;
    *total += bucket.total.load(std::memory_order_relaxed);
    *violations += bucket.violations.load(std::memory_order_relaxed);
  }
}

double SloWatchdog::BurnRate(int64_t total, int64_t violations) const {
  if (total <= 0) return 0.0;
  const double budget = std::max(1e-9, 1.0 - options_.target_fraction);
  return (static_cast<double>(violations) / total) / budget;
}

void SloWatchdog::TriggerDump(const std::string& reason) {
  c_dumps_->Increment();
  std::vector<SpanEvent> events;
  if (tracer_ != nullptr) events = tracer_->Dump();
  DumpSink sink;
  {
    check::MutexLock lock(&mu_);
    sink = dump_sink_;
  }
  if (sink) {
    sink(reason, events);
    return;
  }
  TXREP_LOG(kWarn) << "slo watchdog: " << reason << "\n"
                   << ToTextTimeline(events);
}

void SloWatchdog::Poll() {
  int64_t total = 0;
  int64_t violations = 0;
  WindowCounts(&total, &violations);
  const double burn = BurnRate(total, violations);
  g_burn_permille_->Set(static_cast<int64_t>(burn * 1000.0));

  bool warn_burn = false;
  std::string stall_reason;
  {
    check::MutexLock lock(&mu_);
    if (burn >= options_.warn_burn_rate && total > 0) {
      if (!burn_warned_) {
        burn_warned_ = true;
        warn_burn = true;
      }
    } else {
      burn_warned_ = false;
    }

    if (probe_) {
      const SloProbe probe = probe_();
      const int64_t now = NowMicros();
      if (probe.backlog <= 0 || probe.applied_lsn != last_applied_lsn_) {
        last_applied_lsn_ = probe.applied_lsn;
        last_progress_micros_ = now;
        stall_active_ = false;
      } else if (!stall_active_ &&
                 now - last_progress_micros_ >= options_.stall_timeout_micros) {
        stall_active_ = true;
        c_stalls_->Increment();
        char buf[160];
        snprintf(buf, sizeof(buf),
                 "apply stalled: no progress past lsn %" PRIu64 " for %" PRId64
                 "us with backlog %" PRId64,
                 probe.applied_lsn, now - last_progress_micros_, probe.backlog);
        stall_reason = buf;
      }
    }
  }

  if (warn_burn) {
    TXREP_LOG(kWarn) << "slo watchdog: burn rate " << burn
                     << " >= " << options_.warn_burn_rate << " ("
                     << violations << "/" << total << " over window)";
  }
  if (!stall_reason.empty()) TriggerDump(stall_reason);
}

SloStatus SloWatchdog::Snapshot() const {
  SloStatus status;
  status.observations = c_observations_->Value();
  status.violations = c_violations_->Value();
  WindowCounts(&status.window_observations, &status.window_violations);
  status.burn_rate =
      BurnRate(status.window_observations, status.window_violations);
  status.stalls = c_stalls_->Value();
  status.dumps = c_dumps_->Value();
  return status;
}

std::string SloWatchdog::Report() const {
  SloStatus status = Snapshot();
  std::string out = status.ToString();
  char buf[160];
  snprintf(buf, sizeof(buf),
           "\nobjective: lag <= %" PRId64 "us for %.2f%% over %" PRId64
           "s windows",
           options_.lag_objective_micros, 100.0 * options_.target_fraction,
           options_.window_micros / 1'000'000);
  out += buf;
  return out;
}

}  // namespace txrep::trace
