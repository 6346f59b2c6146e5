// The tracker must never count a transaction as applied before its own
// handle and every earlier handle completed.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "core/transaction.h"
#include "probe.h"

namespace perfbench {
namespace {

using txrep::Status;
using txrep::core::Transaction;

std::shared_ptr<Transaction> Handle(uint64_t seq) {
  return std::make_shared<Transaction>(
      seq, /*read_only=*/false,
      [](txrep::kv::KvStore*) { return Status::OK(); });
}

// Gives the observer thread time to (wrongly) advance.
void Settle() { std::this_thread::sleep_for(std::chrono::milliseconds(20)); }

TEST(ApplyTrackerTest, AppliedOnlyOnceThePrefixCompleted) {
  std::vector<std::shared_ptr<Transaction>> handles = {Handle(1), Handle(2),
                                                       Handle(3)};
  ApplyTracker tracker;
  for (uint64_t i = 0; i < handles.size(); ++i) tracker.Add(101 + i, handles[i]);
  Settle();
  EXPECT_EQ(tracker.applied_lsn(), 0u) << "nothing completed yet";

  // A later transaction completing first does not make anything applied.
  handles[1]->Finish(Status::OK());
  Settle();
  EXPECT_EQ(tracker.applied_lsn(), 0u);

  const int64_t first_done = txrep::NowMicros();
  handles[0]->Finish(Status::OK());
  Settle();
  EXPECT_EQ(tracker.applied_lsn(), 102u) << "LSNs 101 and 102 completed";

  const int64_t third_done = txrep::NowMicros();
  handles[2]->Finish(Status::OK());
  tracker.Close();
  EXPECT_EQ(tracker.applied_lsn(), 103u);

  const auto& applied = tracker.applied();
  ASSERT_EQ(applied.size(), 3u);
  EXPECT_EQ(applied[0].first, 101u);
  EXPECT_GE(applied[0].second, first_done);
  EXPECT_GE(applied[1].second, first_done) << "102 waited for 101";
  EXPECT_GE(applied[2].second, third_done);
  EXPECT_EQ(tracker.failures(), 0);
}

TEST(ApplyTrackerTest, FailedHandlesAreCounted) {
  auto handle = Handle(1);
  ApplyTracker tracker;
  tracker.Add(7, handle);
  handle->Finish(Status::Unavailable("injected"));
  tracker.Close();
  EXPECT_EQ(tracker.failures(), 1);
  EXPECT_EQ(tracker.applied_lsn(), 7u);
}

}  // namespace
}  // namespace perfbench
