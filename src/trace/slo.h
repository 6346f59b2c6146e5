#ifndef TXREP_TRACE_SLO_H_
#define TXREP_TRACE_SLO_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "check/mutex.h"
#include "obs/metrics.h"
#include "trace/recorder.h"
#include "trace/tracer.h"

namespace txrep::trace {

/// Replica-apply progress sample for stall detection (see
/// SloWatchdog::SetProgressProbe).
struct SloProbe {
  /// Highest LSN fully applied on the replica.
  uint64_t applied_lsn = 0;
  /// Committed-but-not-yet-applied transactions (0 = replica caught up).
  int64_t backlog = 0;
};

struct SloOptions {
  /// Master switch (TxRepOptions embeds this struct; off by default).
  bool enabled = false;

  /// The objective: replica lag (DB commit -> replica-visible) at or below
  /// this is a good event; above it is an SLO violation.
  int64_t lag_objective_micros = 50'000;

  /// Target good fraction (0.99 = "99% of transactions within objective").
  double target_fraction = 0.99;

  /// Sliding window the burn rate is computed over, split into
  /// `window_buckets` rotating buckets.
  int64_t window_micros = 60'000'000;
  int window_buckets = 12;

  /// Burn rate >= this logs a warning (1.0 = exactly eating the error
  /// budget; >1 = on track to exhaust it early).
  double warn_burn_rate = 2.0;

  /// No applied-LSN progress for this long while a backlog exists =>
  /// a stall: counted, logged, and the flight recorder is auto-dumped.
  int64_t stall_timeout_micros = 2'000'000;

  /// Watchdog evaluation period.
  int64_t poll_interval_micros = 200'000;

  /// false: no background thread; tests drive Poll() manually.
  bool start_thread = true;
};

/// Point-in-time SLO state (Snapshot()).
struct SloStatus {
  int64_t observations = 0;         // Lifetime lag observations.
  int64_t violations = 0;           // Lifetime objective violations.
  int64_t window_observations = 0;  // Within the sliding window.
  int64_t window_violations = 0;
  double burn_rate = 0.0;  // Error-budget burn over the window.
  int64_t stalls = 0;      // Stall episodes detected.
  int64_t dumps = 0;       // Flight-recorder auto-dumps triggered.

  std::string ToString() const;
};

/// Replica-lag SLO watchdog (DESIGN.md §11): every applied transaction's lag
/// feeds ObserveLag(); a background poller computes the error-budget burn
/// rate over a bucketed sliding window and watches apply progress. When the
/// backlog is non-empty but the applied LSN stops advancing for
/// stall_timeout_micros, the watchdog declares a stall and auto-dumps the
/// flight recorder through the dump sink (default: the warning log), so the
/// post-mortem captures the spans leading INTO the stall.
///
/// Burn rate semantics (SRE convention): violation_fraction / error_budget,
/// where error_budget = 1 - target_fraction. Burn 1.0 = violations arriving
/// exactly at the sustainable rate; 2.0 = budget exhausted twice as fast.
class SloWatchdog {
 public:
  /// `reason` is a human-readable trigger description; `events` the flight-
  /// recorder dump at trigger time (empty when no tracer is attached).
  using DumpSink =
      std::function<void(const std::string& reason,
                         const std::vector<SpanEvent>& events)>;

  SloWatchdog(SloOptions options, obs::MetricsRegistry* metrics = nullptr,
              Tracer* tracer = nullptr);
  ~SloWatchdog();

  SloWatchdog(const SloWatchdog&) = delete;
  SloWatchdog& operator=(const SloWatchdog&) = delete;

  /// Progress source (TxRepSystem wires the applied LSN + backlog here).
  /// Must be set before Start(); called from the watchdog thread only.
  void SetProgressProbe(std::function<SloProbe()> probe);

  /// Replaces the default warning-log dump sink.
  void SetDumpSink(DumpSink sink);

  /// Starts the poller thread (no-op when options.start_thread is false or
  /// already started). Stop() is idempotent and runs in the destructor.
  void Start();
  void Stop();

  /// Feed one applied transaction's replica lag (µs). Thread-safe, cheap.
  void ObserveLag(int64_t lag_micros);

  /// One watchdog evaluation: burn rate + stall check. Public so tests (and
  /// the shell) can run the watchdog without the background thread.
  void Poll();

  SloStatus Snapshot() const;

  /// Human-readable one-call report (status + burn + stall state).
  std::string Report() const;

  const SloOptions& options() const { return options_; }

 private:
  struct Bucket {
    std::atomic<int64_t> epoch{-1};
    std::atomic<int64_t> total{0};
    std::atomic<int64_t> violations{0};
  };

  int64_t bucket_width_micros() const {
    return options_.window_micros / options_.window_buckets;
  }
  void WindowCounts(int64_t* total, int64_t* violations) const;
  double BurnRate(int64_t total, int64_t violations) const;
  void TriggerDump(const std::string& reason);

  // analyze: lock-free(set in ctor, immutable afterwards)
  SloOptions options_;
  // analyze: lock-free(set in ctor, never reseated; pointee has its own synchronization)
  Tracer* tracer_ = nullptr;

  // analyze: lock-free(sized in ctor; per-bucket fields are atomics)
  std::vector<Bucket> buckets_;
  check::Mutex rotate_mu_{"trace.slo_rotate"};

  check::Mutex mu_{"trace.slo"};
  std::function<SloProbe()> probe_ TXREP_GUARDED_BY(mu_);
  DumpSink dump_sink_ TXREP_GUARDED_BY(mu_);
  uint64_t last_applied_lsn_ TXREP_GUARDED_BY(mu_) = 0;
  int64_t last_progress_micros_ TXREP_GUARDED_BY(mu_) = 0;
  bool stall_active_ TXREP_GUARDED_BY(mu_) = false;
  bool burn_warned_ TXREP_GUARDED_BY(mu_) = false;

  /// Private fallback registry when the caller injects none, so the
  /// counters below (what Snapshot() reads) always exist.
  // analyze: lock-free(set in ctor, never reseated; registry is internally synchronized)
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;

  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_violations_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_observations_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_stalls_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_dumps_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Gauge* g_burn_permille_ = nullptr;

  std::atomic<bool> stop_{false};
  // analyze: lock-free(thread handle; started once, joined in Stop/dtor only)
  std::thread thread_;
};

}  // namespace txrep::trace

#endif  // TXREP_TRACE_SLO_H_
