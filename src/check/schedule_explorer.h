#ifndef TXREP_CHECK_SCHEDULE_EXPLORER_H_
#define TXREP_CHECK_SCHEDULE_EXPLORER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "kv/kv_types.h"

namespace txrep::rel {
class Database;
}
namespace txrep::qt {
class QueryTranslator;
}

namespace txrep::check {

/// Run shape of the schedule-exploration harness. Everything a schedule
/// replays — workload, apply target, tracing, crash point, wire and
/// opt-latch phases, TM and store knobs — is drawn from its seed alone, so a
/// failure reproduces from the seed (DESIGN.md §8).
struct ScheduleExplorerOptions {
  /// Schedule i explores seed base_seed + i.
  uint64_t base_seed = 1;

  /// How many seeds to explore.
  int schedules = 200;

  /// Run the full replica-equivalence audit (rows + hash postings + B-link
  /// structure) on seeds divisible by `audit_every`, in addition to the
  /// byte-equality check. 0 disables the audit. The audit is an order of
  /// magnitude slower than the dump comparison, hence the sampling. Keep it
  /// coprime to the axis stripes (3, 7, 8, 11, 17, 19) so audited seeds span
  /// every axis combination.
  int audit_every = 5;

  /// Directory for the crash-restart phase's checkpoint files; each seed
  /// uses a private subdirectory that is wiped before and after the
  /// schedule. A seed that draws crash-restart fails with InvalidArgument
  /// while this is empty.
  std::string scratch_dir;
};

/// The axes every seed draws, as bits of a mask: each is on for a
/// seed-derived subset of schedules and, when on, brings its own
/// seed-derived knobs.
enum ScheduleAxis : uint32_t {
  /// The workload is a TPC-C-lite deployment (warehouse count, scale, Zipf
  /// skew, NewOrder/Payment mix, remote-line fraction) instead of the
  /// single-table synthetic one.
  kAxisTpcc = 1u << 0,
  /// The concurrent replica is a KvCluster (node count, dispatch threads)
  /// and the TM's write-set dispatcher chunks (batch size, adaptive flag);
  /// the crash phase's TM and tail applier use the same chunking.
  kAxisBatchedApply = 1u << 1,
  /// After the replay, a TM applies a prefix up to the crash point and
  /// checkpoints — optionally after a torn-manifest or mid-snapshot fault
  /// whose debris recovery must ignore — then a fresh replica recovers from
  /// disk plus the log tail and must byte-equal serial replay.
  kAxisCrashRestart = 1u << 2,
  /// The concurrent TM replays with a live Tracer (sampling period drawn);
  /// a schedule whose period guarantees sampled transactions must leave
  /// spans in the flight recorder.
  kAxisTraced = 1u << 3,
  /// Part of the interleaved read-only slots become B-link range scans over
  /// the buffered view (they must come back sorted), and a scratch-store
  /// hammer races readers against tree writers plus a BatchDispatcher,
  /// ending with the structural + latch audits and an exact entry count.
  kAxisOptLatch = 1u << 4,
  /// The log also replays over the wire boundary (publisher → broker →
  /// NetEndpoint → socketpair → RemoteReplica) with drawn queue, credit and
  /// batch bounds; the connection is killed mid-stream from a drawn side,
  /// and the reconnected replica must byte-equal serial replay.
  kAxisWire = 1u << 5,
};
inline constexpr int kNumScheduleAxes = 6;

/// One schedule that diverged from serial replay (or tripped an invariant).
struct ScheduleFailure {
  uint64_t seed = 0;
  std::string detail;
};

/// Aggregate outcome of an exploration run.
struct ScheduleReport {
  int schedules_run = 0;
  int64_t transactions_replayed = 0;
  /// Conflict/restart totals across all schedules — a health signal for the
  /// exploration itself: if these are ~0 the schedules are not adversarial
  /// enough to mean anything.
  int64_t conflicts = 0;
  int64_t restarts = 0;
  /// Optimistic B-link read events (validation retries + lock-bit spins +
  /// move-rights + root restarts) accumulated by opt-latch hammers — the
  /// health signal that the version-latch protocol actually engaged (~0
  /// means readers never raced a writer).
  int64_t blink_read_events = 0;
  /// Schedules that ran the sampled deep audit.
  int deep_audits = 0;
  /// Schedules per drawn axis mask (index = mask of ScheduleAxis bits): the
  /// run's coverage.
  std::array<int, 1u << kNumScheduleAxes> schedules_by_axes{};
  std::vector<ScheduleFailure> failures;

  bool ok() const { return failures.empty(); }

  /// Schedules whose drawn axes include every axis in `axes`.
  int SchedulesWith(uint32_t axes) const;

  /// One-line summary, e.g. "schedules=250 txns=6000 conflicts=1234
  /// restarts=1301 tpcc=167 batched=214 crash=156 traced=68 opt_latch=58
  /// wire=59 audits=50 blink_reads=4000 failures=0".
  std::string Summary() const;
};

/// Randomized schedule exploration for the Transaction Manager (DESIGN.md
/// §8): for each seed, generate a workload (synthetic insert/update/delete
/// with hash- and range-index maintenance, or TPC-C-lite), replay it twice —
/// once serially, once through a TM whose every knob is drawn from the seed
/// — and require the two replicas to be byte-identical. Adversarial pressure
/// comes from hot-row contention, store service-time jitter,
/// transient-failure injection (exercising the restart path) and
/// interleaved read-only transactions; TM bookkeeping is audited via
/// CheckInvariants() after every schedule, and the full replica-equivalence
/// audit runs on a sample of schedules. The seed's ScheduleAxis draws add
/// the crash-restart, wire and opt-latch phases and vary the workload,
/// apply target and tracing.
///
/// A divergence means Algorithm 1 committed a non-serializable order — the
/// exact bug class the paper's design must exclude.
class ScheduleExplorer {
 public:
  explicit ScheduleExplorer(ScheduleExplorerOptions options = {});

  /// Explores all schedules. Infrastructure failures (a schedule that cannot
  /// even run) are reported as failures too, never thrown.
  ScheduleReport Run();

  /// Runs the single schedule derived from `seed`. OK when concurrent replay
  /// matches serial replay and all invariants hold; otherwise the message
  /// names the seed and its drawn axes.
  Status RunOne(uint64_t seed);

 private:
  const ScheduleExplorerOptions options_;
};

}  // namespace txrep::check

#endif  // TXREP_CHECK_SCHEDULE_EXPLORER_H_
