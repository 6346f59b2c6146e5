#ifndef TXREP_COMMON_THREAD_POOL_H_
#define TXREP_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/blocking_queue.h"

namespace txrep {

/// Fixed-size worker pool draining one FIFO task queue.
///
/// Runs the transaction manager's "bottom" pool (applying committed buffers
/// to the key-value store, paper Fig. 8), the ticket applier's workers and
/// the KV cluster's per-node fan-out.
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

  /// Stops accepting tasks, drains the queue, joins workers. Idempotent.
  void Shutdown();

  size_t num_threads() const { return threads_.size(); }

  /// Tasks currently queued (not yet picked up by a worker).
  size_t QueueDepth() const { return queue_.size(); }

 private:
  void WorkerLoop();

  // analyze: lock-free(BlockingQueue is internally synchronized)
  BlockingQueue<std::function<void()>> queue_;
  // analyze: lock-free(populated in ctor, joined in Shutdown; workers never touch it)
  std::vector<std::thread> threads_;
  // analyze: lock-free(set in ctor, immutable afterwards)
  std::string name_;

  std::atomic<bool> shutdown_{false};
};

}  // namespace txrep

#endif  // TXREP_COMMON_THREAD_POOL_H_
