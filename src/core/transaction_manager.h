#ifndef TXREP_CORE_TRANSACTION_MANAGER_H_
#define TXREP_CORE_TRANSACTION_MANAGER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "check/mutex.h"
#include "common/logical_clock.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/batch_dispatcher.h"
#include "core/transaction.h"
#include "kv/kv_store.h"
#include "obs/metrics.h"
#include "qt/query_translator.h"
#include "rel/txlog.h"

namespace txrep::trace {
class Tracer;
class SloWatchdog;
}  // namespace txrep::trace

namespace txrep::core {

/// Tuning knobs of the Transaction Manager.
struct TmOptions {
  /// Threads converting transactions into buffered KV operations (the "top
  /// threadpool" of paper Fig. 8). Paper default: 20; at least 1. Also the
  /// width of the execution window: one thread per slot, so only this many
  /// sequence numbers from the commit head on execute at a time.
  int top_threads = 20;

  /// Threads applying committed buffers to the key-value store (the "bottom
  /// threadpool"). Paper default: 20.
  int bottom_threads = 20;

  /// CompletedTransactionList size that triggers the removal pass
  /// (Algorithm 2's threshold).
  size_t completed_gc_threshold = 256;

  /// Transient store failures during apply are retried this many times.
  int max_apply_retries = 16;

  /// Backoff between apply retries, microseconds.
  int64_t apply_retry_backoff_micros = 200;

  /// Transient store failures during *execution* restart the transaction at
  /// most this many times before the TM declares failure.
  int max_execution_retries = 64;

  /// Enables the buffer's read-through cache (ablation knob).
  bool buffer_read_cache = true;

  /// Write-set coalescing on the bottom pool (see BatchDispatchOptions). The
  /// default is adaptive: the e2e lag of every completed transaction is fed
  /// back into the chunk size.
  BatchDispatchOptions apply_batch{.adaptive = true};
};

/// Counters exposed by the TM (snapshot via TransactionManager::stats()).
/// Backed by the metrics registry: stats() reads the registry counters, so
/// this struct and the exported txrep_tm_* metrics always agree.
struct TmStats {
  int64_t submitted = 0;
  int64_t read_only_submitted = 0;
  int64_t committed = 0;
  int64_t completed = 0;
  /// Conflict events detected by Algorithm 1 == transaction restarts
  /// scheduled because of a conflict (the paper reports these as one number).
  int64_t conflicts = 0;
  /// All restarts (conflicts + transient execution errors).
  int64_t restarts = 0;
  int64_t apply_retries = 0;
  int64_t gc_runs = 0;
  int64_t gc_removed = 0;
  /// Pairwise conflict evaluations performed by Algorithm 1.
  int64_t conflict_checks = 0;
};

/// The Transaction Manager (paper §5, Fig. 8/9): applies the shipped update
/// transactions to the key-value store **concurrently** while guaranteeing a
/// result identical to serial execution in the execution-defined order, and
/// lets read-only transactions interleave at chosen sequence positions.
///
/// Pipeline:
///   Submit*() assigns the next sequence number. The *execution window* is
///   the `top_threads` sequence numbers from the commit head on; sequence
///   number s lives in window slot s % top_threads from its submission (or,
///   if later, from the commit of s - top_threads, the slot's previous
///   occupant) until it commits. One dedicated worker thread per slot
///   executes the slot's transaction against a fresh TxnBuffer (reads hit the
///   store and are recorded; writes stay buffered), so nothing past the
///   window ever runs (work executed further ahead would only read state its
///   predecessors are about to overwrite and restart). The result waits in
///   its slot for commit evaluation: the window is the paper's CommitReqPQ,
///   whose minimum is always the slot of the commit head. Only a finished
///   (re-)execution can ready the head, so the worker that posted it then
///   evaluates, under the TM mutex, every ready transaction from the head on
///   strictly in sequence order (Algorithm 1):
///     - conflict with a COMMITTED predecessor  -> park on its restart list
///       (evaluation stalls: the expected sequence does not advance);
///     - conflict with a COMPLETED predecessor that completed after this
///       transaction started -> restart: wake the slot's worker;
///     - otherwise commit: advance the expected sequence, hand the slot to
///       the sequence number `top_threads` further on, and hand the buffer
///       to the *bottom pool*, which applies it to the store, marks the
///       transaction COMPLETED and wakes the workers of everything parked on
///       it.
///   Once the completed list exceeds `completed_gc_threshold`, the completing
///   bottom-pool thread trims it (Algorithm 2): it drops every entry that
///   completed no later than the oldest start stamp among the active
///   transactions.
///
/// A TM runs exactly `top_threads + bottom_threads` threads.
///
/// Conflict predicate (paper §5): two transactions conflict iff their
/// read/write key sets intersect as R/W, W/R or W/W — key sets include every
/// row object, hash-index object and B-link node the Query Translator
/// touched, so index maintenance conflicts are detected exactly like row
/// conflicts.
///
/// Thread-safe. Destruction waits for in-flight transactions.
class TransactionManager {
 public:
  /// `store` is the replica; `translator` turns logged ops into KV programs.
  /// Both must outlive the TM. `metrics` (optional, same lifetime rule)
  /// receives the txrep_tm_* counters, stage latency histograms and queue
  /// gauges; when absent the TM keeps a private registry so stats() still
  /// works. `tracer` (optional, same lifetime rule) receives the
  /// commit_eval / apply / e2e spans of sampled transactions; `slo`
  /// (optional, same lifetime rule) is fed every completed transaction's
  /// replica lag.
  TransactionManager(kv::KvStore* store, const qt::QueryTranslator* translator,
                     TmOptions options = {},
                     obs::MetricsRegistry* metrics = nullptr,
                     trace::Tracer* tracer = nullptr,
                     trace::SloWatchdog* slo = nullptr);

  ~TransactionManager();

  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  /// Enqueues one logged update transaction at the next sequence position.
  /// Call in transaction-log order (the subscriber agent does).
  std::shared_ptr<Transaction> SubmitUpdate(rel::LogTransaction log_txn);

  /// Enqueues a read-only transaction at the next sequence position. `body`
  /// runs against a buffered view whose reads are conflict-checked, so the
  /// reads observe exactly the replica state at this sequence point.
  std::shared_ptr<Transaction> SubmitReadOnly(Transaction::Body body);

  /// Blocks until every submitted transaction completed. Returns the sticky
  /// failure status if the TM failed.
  Status WaitIdle();

  /// Quiescent barrier (checkpoint support): blocks *new* submissions, waits
  /// for every in-flight transaction to apply, runs `fn` at the quiescent
  /// point — the replica store then holds exactly the transaction prefix up
  /// to last_applied_lsn(), nothing more — and reopens submissions. `fn`
  /// runs outside the TM mutex (it may do heavy I/O); submissions
  /// stay parked in Submit* until the barrier releases them. Barriers
  /// serialize against each other. Returns `fn`'s status, or the TM's
  /// failure status if it failed before the barrier was reached.
  Status QuiesceBarrier(const std::function<Status()>& fn);

  /// End of the applied prefix: every update LSN up to it has been applied
  /// to the store. That is the LSN of the lowest-sequence update still in
  /// flight minus 1, or the last submitted LSN when none is (assumes dense
  /// LSNs in submission order, as the subscriber delivers them). Updates the
  /// bottom pool completed above an in-flight one do not count.
  uint64_t last_applied_lsn() const;

  /// Sticky failure status (OK while healthy).
  Status health() const;

  TmStats stats() const;
  const TmOptions& options() const { return options_; }

  /// The bottom pool's write-set dispatcher (e.g. to inspect the adaptive
  /// batch size in tests).
  const BatchDispatcher& dispatcher() const { return *dispatcher_; }

  /// Current size of the completed list (for GC tests/benches).
  size_t CompletedListSize() const;

  /// Audits the Algorithm 1 bookkeeping invariants (DESIGN.md §8): state/set
  /// agreement (committed ⊆ active, completed ∩ active = ∅), sequence bounds
  /// against expected_seq_, commit-stamp monotonicity in sequence order —
  /// the in-flight face of the execution-defined-order guarantee — and the
  /// execution window (each submitted sequence number inside it sits, ACTIVE
  /// and tracked, in its own slot; none past it has started). Returns the
  /// first violation found. TXREP_DEBUG_CHECKS builds run this automatically
  /// at every commit evaluation / completion and abort on violation.
  Status CheckInvariants() const;

 private:
  using TxnPtr = std::shared_ptr<Transaction>;

  /// One slot of the execution window. Fields are guarded by mu_.
  struct Slot {
    explicit Slot(check::Mutex* mu) : cv(mu) {}
    /// The window's transaction for this slot; null while the slot's next
    /// sequence number has not been submitted.
    TxnPtr txn;
    /// The slot's worker is to (re-)execute `txn`.
    bool run = false;
    /// `txn`'s execution result awaits commit evaluation (it is in the
    /// CommitReqPQ).
    bool executed = false;
    /// Wakes the slot's worker; bound to mu_.
    check::CondVar cv;
  };

  TxnPtr SubmitInternal(bool read_only, Transaction::Body body,
                        int64_t db_commit_micros = 0, uint64_t lsn = 0,
                        trace::TraceContext trace = {});

  /// The dedicated worker of `slot`: (re-)executes the slot's transaction
  /// into a fresh buffer whenever woken, posts the result, then evaluates
  /// the window from the head while the head is ready (Algorithm 1's main
  /// loop). Returns once the TM is destroyed.
  void WorkerLoop(Slot* slot);

  /// The window slot of sequence number `seq`.
  Slot& SlotLocked(uint64_t seq) TXREP_REQUIRES(mu_) {
    return window_[seq % window_.size()];
  }

  /// Wakes the worker of `txn`'s slot to (re-)execute it.
  void RunLocked(const Transaction& txn) TXREP_REQUIRES(mu_);

  /// `txn`, the head, committed or finished as a failed read-only slot:
  /// advances the head and hands the slot to the sequence number
  /// `top_threads` further on, starting it if it was submitted.
  void AdvanceHeadLocked(const Transaction& txn) TXREP_REQUIRES(mu_);

  /// Evaluates the head transaction.
  void EvaluateLocked(const TxnPtr& txn) TXREP_REQUIRES(mu_);

  /// True iff the two transactions' key sets conflict (R/W, W/R or W/W).
  static bool Conflicts(const Transaction& a, const Transaction& b);

  /// Schedules a fresh execution of `txn`.
  void RestartLocked(const TxnPtr& txn) TXREP_REQUIRES(mu_);

  /// CheckInvariants() body.
  Status CheckInvariantsLocked() const TXREP_REQUIRES(mu_);

  /// No-op unless TXREP_DEBUG_CHECKS: runs CheckInvariantsLocked and aborts
  /// on violation (fail fast — a broken invariant means replay equivalence
  /// is already lost).
  void DebugCheckInvariantsLocked() const TXREP_REQUIRES(mu_);

  /// Bottom-pool task: applies the buffer, completes the transaction,
  /// restarts its parked dependents.
  void ApplyTask(const TxnPtr& txn);

  /// Algorithm 2: removal from the completed list.
  void PruneCompletedLocked() TXREP_REQUIRES(mu_);

  /// Marks the TM failed and wakes everyone.
  void FailLocked(const Status& status) TXREP_REQUIRES(mu_);

  /// last_applied_lsn() under mu_.
  uint64_t AppliedPrefixLocked() const TXREP_REQUIRES(mu_);

  /// Resolves all instruments from `metrics`. Called once from the ctor,
  /// before any thread starts.
  void WireMetrics(obs::MetricsRegistry* metrics);

  // analyze: lock-free(set in ctor, never reseated; pointee has its own synchronization)
  kv::KvStore* store_;                      // Not owned.
  // analyze: lock-free(set in ctor, never reseated; pointee has its own synchronization)
  const qt::QueryTranslator* translator_;   // Not owned.
  const TmOptions options_;
  // analyze: lock-free(set in ctor, never reseated; pointee has its own synchronization)
  trace::Tracer* tracer_;      // Not owned; may be null.
  // analyze: lock-free(set in ctor, never reseated; pointee has its own synchronization)
  trace::SloWatchdog* slo_;    // Not owned; may be null.
  // analyze: lock-free(LogicalClock is internally synchronized (atomic))
  LogicalClock clock_;

  /// Private fallback registry when the caller injects none (declared before
  /// the pools/threads so instruments outlive every user).
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;

  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_submitted_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_read_only_submitted_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_committed_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_completed_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_conflicts_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_restarts_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_apply_retries_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_gc_runs_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_gc_removed_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Counter* c_conflict_checks_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  Histogram* h_stage_execute_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  Histogram* h_stage_commit_eval_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  Histogram* h_stage_apply_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  Histogram* h_stage_e2e_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  Histogram* h_txn_restarts_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Gauge* g_pq_depth_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Gauge* g_bottom_backlog_ = nullptr;
  // analyze: lock-free(registry-owned metric; set once in ctor, internally synchronized)
  obs::Gauge* g_admission_backlog_ = nullptr;

  /// Bottom-pool write-set dispatcher (created after WireMetrics so it can
  /// resolve its instruments from the same registry).
  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<BatchDispatcher> dispatcher_;

  // analyze: lock-free(wired before worker threads start; teardown joins first)
  std::unique_ptr<ThreadPool> bottom_pool_;

  mutable check::Mutex mu_{"tm.mu"};
  check::CondVar cv_{&mu_};
  /// The execution window, `top_threads` slots (a deque: slots hold a
  /// CondVar, which cannot move).
  std::deque<Slot> window_ TXREP_GUARDED_BY(mu_);
  /// Next sequence number to hand out.
  uint64_t next_seq_ TXREP_GUARDED_BY(mu_) = 1;
  /// Next sequence Algorithm 1 will evaluate (the commit head).
  uint64_t expected_seq_ TXREP_GUARDED_BY(mu_) = 1;
  /// COMMITTED, not yet applied.
  std::map<uint64_t, TxnPtr> committed_ TXREP_GUARDED_BY(mu_);
  /// COMPLETED (until GC).
  std::map<uint64_t, TxnPtr> completed_ TXREP_GUARDED_BY(mu_);
  /// Submitted, not yet completed.
  std::map<uint64_t, TxnPtr> active_ TXREP_GUARDED_BY(mu_);
  /// A quiescent barrier is draining: Submit* parks until it clears.
  bool quiescing_ TXREP_GUARDED_BY(mu_) = false;
  /// LSN of the last update transaction submitted; frozen at the applied
  /// prefix when the TM fails (nothing in flight will apply any more).
  uint64_t last_submitted_lsn_ TXREP_GUARDED_BY(mu_) = 0;
  Status health_ TXREP_GUARDED_BY(mu_) = Status::OK();
  /// Set by the destructor: the workers return.
  bool stopping_ TXREP_GUARDED_BY(mu_) = false;

  /// One worker per window slot (declared last: they use every member above).
  // analyze: lock-free(started in the ctor, joined in the dtor; workers never touch it)
  std::vector<std::thread> workers_;
};

}  // namespace txrep::core

#endif  // TXREP_CORE_TRANSACTION_MANAGER_H_
