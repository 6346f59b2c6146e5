#include "common/blocking_queue.h"

#include <atomic>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace txrep {
namespace {

TEST(BlockingQueueTest, FifoOrder) {
  BlockingQueue<int> q;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.Push(i));
  for (int i = 0; i < 10; ++i) {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

TEST(BlockingQueueTest, TryPopEmptyReturnsNothing) {
  BlockingQueue<int> q;
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(BlockingQueueTest, CloseDrainsThenEnds) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Close();
  EXPECT_FALSE(q.Push(3));
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_EQ(*q.Pop(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BlockingQueueTest, BoundedTryPushRespectsCapacity) {
  BlockingQueue<int> q(2);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_FALSE(q.TryPush(3));
  q.Pop();
  EXPECT_TRUE(q.TryPush(3));
}

TEST(BlockingQueueTest, BoundedPushBlocksUntilSpace) {
  BlockingQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    q.Push(2);  // Blocks until consumer pops.
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(*q.Pop(), 1);
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(*q.Pop(), 2);
}

TEST(BlockingQueueTest, PopBlocksUntilPush) {
  BlockingQueue<int> q;
  std::thread consumer([&] {
    auto v = q.Pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, 99);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Push(99);
  consumer.join();
}

TEST(BlockingQueueTest, CloseWakesBlockedPop) {
  BlockingQueue<int> q;
  std::thread consumer([&] { EXPECT_FALSE(q.Pop().has_value()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.Close();
  consumer.join();
}

TEST(BlockingQueueTest, CloseWakesBlockedBoundedPush) {
  // A producer blocked on a full bounded queue must not hang across
  // shutdown: Close() has to wake it and make the push fail.
  BlockingQueue<int> q(1);
  ASSERT_TRUE(q.Push(1));
  std::atomic<bool> push_returned{false};
  std::atomic<bool> push_result{true};
  std::thread producer([&] {
    push_result = q.Push(2);  // Blocks: queue is full.
    push_returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(push_returned.load());
  q.Close();
  producer.join();
  EXPECT_TRUE(push_returned.load());
  EXPECT_FALSE(push_result.load());  // The blocked push failed, item dropped.
  EXPECT_EQ(*q.Pop(), 1);            // Pre-close item still drains.
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BlockingQueueTest, CloseWakesAllBlockedConsumers) {
  BlockingQueue<int> q;
  std::atomic<int> ended{0};
  std::vector<std::thread> consumers;
  for (int i = 0; i < 4; ++i) {
    consumers.emplace_back([&] {
      EXPECT_FALSE(q.Pop().has_value());
      ended++;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(ended.load(), 4);
}

TEST(BlockingQueueTest, CloseIsIdempotent) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Close();
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(*q.Pop(), 1);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BlockingQueueTest, PushVariantsAllFailAfterClose) {
  BlockingQueue<int> q;
  q.Close();
  EXPECT_FALSE(q.Push(1));
  EXPECT_FALSE(q.TryPush(2));
  EXPECT_EQ(q.size(), 0u);  // Nothing leaked into a closed queue.
}

TEST(BlockingQueueTest, MpmcNoLossNoDuplication) {
  BlockingQueue<int> q(64);
  constexpr int kProducers = 4, kPerProducer = 500;
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) q.Push(p * kPerProducer + i);
    });
  }
  std::atomic<int> total{0};
  std::vector<std::atomic<int>> seen(kProducers * kPerProducer);
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        auto v = q.Pop();
        if (!v.has_value()) return;
        seen[*v]++;
        total++;
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.Close();
  for (size_t i = kProducers; i < threads.size(); ++i) threads[i].join();
  EXPECT_EQ(total.load(), kProducers * kPerProducer);
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

}  // namespace
}  // namespace txrep
