#ifndef TXREP_COMMON_THREAD_POOL_H_
#define TXREP_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "check/mutex.h"
#include "common/blocking_queue.h"

namespace txrep {

/// Fixed-size worker pool.
///
/// The transaction manager owns two of these — the paper's "top" pool
/// (transaction execution / translation) and "bottom" pool (applying committed
/// buffers to the key-value store, Fig. 8). Degree of parallelism is the main
/// tuning knob of the paper's Fig. 15/16 experiments.
class ThreadPool {
 public:
  /// Starts `num_threads` workers immediately. `name` is used in thread
  /// naming for debugging.
  ThreadPool(size_t num_threads, std::string name);

  /// Joins all workers; pending tasks are still executed (drain-then-stop).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Returns false after Shutdown().
  bool Submit(std::function<void()> task);

  /// Enqueues a task ahead of everything already queued (LIFO at the front).
  /// Use for work the rest of the system is blocked on — e.g. the TM's
  /// restarted transactions, which carry the expected sequence number commit
  /// evaluation is stalled at.
  bool SubmitUrgent(std::function<void()> task);

  /// Blocks until every submitted task (including tasks submitted by running
  /// tasks) has finished and the queue is empty.
  void Wait();

  /// Stops accepting tasks, drains the queue, joins workers. Idempotent.
  void Shutdown();

  size_t num_threads() const { return threads_.size(); }

  /// Tasks currently queued (not yet picked up by a worker).
  size_t QueueDepth() const { return queue_.size(); }

 private:
  bool SubmitInternal(std::function<void()> task, bool urgent);
  void WorkerLoop();

  // analyze: lock-free(BlockingQueue is internally synchronized)
  BlockingQueue<std::function<void()>> queue_;
  // analyze: lock-free(populated in ctor, joined in Shutdown; workers never touch it)
  std::vector<std::thread> threads_;
  // analyze: lock-free(set in ctor, immutable afterwards)
  std::string name_;

  check::Mutex idle_mu_{"thread_pool.idle"};
  check::CondVar idle_cv_{&idle_mu_};
  /// Queued + running tasks.
  size_t outstanding_ TXREP_GUARDED_BY(idle_mu_) = 0;
  std::atomic<bool> shutdown_{false};
};

}  // namespace txrep

#endif  // TXREP_COMMON_THREAD_POOL_H_
