#include "common/thread_pool.h"

#include <utility>

namespace txrep {

ThreadPool::ThreadPool(size_t num_threads, std::string name)
    : name_(std::move(name)) {
  if (num_threads == 0) num_threads = 1;
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(std::function<void()> task) {
  if (shutdown_.load(std::memory_order_acquire)) return false;
  return queue_.Push(std::move(task));
}

void ThreadPool::Shutdown() {
  bool expected = false;
  if (!shutdown_.compare_exchange_strong(expected, true)) {
    // Another caller already shut us down; still join if needed.
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    return;
  }
  queue_.Close();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::optional<std::function<void()>> task = queue_.Pop();
    if (!task.has_value()) return;  // Closed and drained.
    (*task)();
  }
}

}  // namespace txrep
