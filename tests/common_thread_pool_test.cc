#include "common/thread_pool.h"

#include <atomic>
#include <chrono>

#include "gtest/gtest.h"

namespace txrep {
namespace {

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4, "test");
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&] { counter++; }));
  }
  pool.Shutdown();  // Drains the queue before it joins.
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0, "test");
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<bool> ran{false};
  pool.Submit([&] { ran = true; });
  pool.Shutdown();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, ShutdownDrainsPendingTasks) {
  ThreadPool pool(1, "test");
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      counter++;
    });
  }
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, SubmitAfterShutdownFails) {
  ThreadPool pool(1, "test");
  pool.Shutdown();
  EXPECT_FALSE(pool.Submit([] {}));
}

TEST(ThreadPoolTest, ParallelismOverlapsSleeps) {
  // With 8 workers, 8 sleeping tasks of 30ms should finish far faster than
  // the serial 240ms (they only hold a sleeping thread, not the CPU).
  ThreadPool pool(8, "test");
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 8; ++i) {
    pool.Submit(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(30)); });
  }
  pool.Shutdown();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_LT(elapsed, 160);
}

TEST(ThreadPoolTest, DoubleShutdownIsSafe) {
  ThreadPool pool(2, "test");
  pool.Submit([] {});
  pool.Shutdown();
  pool.Shutdown();
  SUCCEED();
}

TEST(ThreadPoolTest, ShutdownWithIdleWorkersDoesNotHang) {
  // Workers blocked in Pop() on an empty queue must be woken by shutdown's
  // queue close — the classic wakeup-after-close hang.
  ThreadPool pool(4, "test");
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  pool.Shutdown();  // Must return; a hang here fails via test timeout.
  SUCCEED();
}

TEST(ThreadPoolTest, ShutdownDrainsDeepQueueAcrossWorkers) {
  ThreadPool pool(3, "test");
  std::atomic<int> counter{0};
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(pool.Submit([&] { counter++; }));
  }
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 200);
  EXPECT_EQ(pool.QueueDepth(), 0u);
}

TEST(ThreadPoolTest, DestructionDrainsQueuedWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2, "test");
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        counter++;
      });
    }
  }  // ~ThreadPool: drain-then-stop.
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace txrep
