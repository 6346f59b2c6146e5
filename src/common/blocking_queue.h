#ifndef TXREP_COMMON_BLOCKING_QUEUE_H_
#define TXREP_COMMON_BLOCKING_QUEUE_H_

#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "check/mutex.h"

namespace txrep {

/// Multi-producer multi-consumer FIFO with optional capacity bound and close
/// semantics. Building block for the thread pool and the message broker.
///
/// Close protocol: after Close(), Push returns false; Pop drains remaining
/// items and then returns nullopt. Close() wakes *every* blocked producer and
/// consumer, so no waiter can hang across a shutdown.
template <typename T>
class BlockingQueue {
 public:
  /// `capacity` == 0 means unbounded.
  explicit BlockingQueue(size_t capacity = 0)
      : capacity_(capacity), closed_(false) {}

  BlockingQueue(const BlockingQueue&) = delete;
  BlockingQueue& operator=(const BlockingQueue&) = delete;

  /// Blocks while full (bounded queues). Returns false iff the queue is
  /// closed, in which case the item is dropped.
  bool Push(T item) {
    check::MutexLock lock(&mu_);
    while (!closed_ && capacity_ != 0 && items_.size() >= capacity_) {
      not_full_.Wait();
    }
    if (closed_) return false;
    items_.push_back(std::move(item));
    not_empty_.NotifyOne();
    return true;
  }

  /// Non-blocking push. Returns false if full or closed.
  bool TryPush(T item) {
    check::MutexLock lock(&mu_);
    if (closed_ || (capacity_ != 0 && items_.size() >= capacity_)) return false;
    items_.push_back(std::move(item));
    not_empty_.NotifyOne();
    return true;
  }

  /// Blocks until an item is available or the queue is closed and drained.
  std::optional<T> Pop() {
    check::MutexLock lock(&mu_);
    while (!closed_ && items_.empty()) {
      not_empty_.Wait();
    }
    if (items_.empty()) return std::nullopt;  // Closed and drained.
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.NotifyOne();
    return item;
  }

  /// Non-blocking pop.
  std::optional<T> TryPop() {
    check::MutexLock lock(&mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    not_full_.NotifyOne();
    return item;
  }

  /// Wakes all waiters; subsequent Push calls fail, Pop drains then ends.
  /// Idempotent.
  void Close() {
    check::MutexLock lock(&mu_);
    closed_ = true;
    not_empty_.NotifyAll();
    not_full_.NotifyAll();
  }

  bool closed() const {
    check::MutexLock lock(&mu_);
    return closed_;
  }

  size_t size() const {
    check::MutexLock lock(&mu_);
    return items_.size();
  }

  bool empty() const { return size() == 0; }

 private:
  mutable check::Mutex mu_{"bq.mu"};
  check::CondVar not_empty_{&mu_};
  check::CondVar not_full_{&mu_};
  std::deque<T> items_ TXREP_GUARDED_BY(mu_);
  const size_t capacity_;
  bool closed_ TXREP_GUARDED_BY(mu_);
};

}  // namespace txrep

#endif  // TXREP_COMMON_BLOCKING_QUEUE_H_
