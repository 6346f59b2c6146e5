// Schedule exploration: for every seed, concurrent replay through the TM
// must byte-equal serial replay, across every axis the seed draws (TPC-C
// workload, batched apply, crash-restart, tracing, opt-latch, wire). The
// sweep covers seeds 1..1000 in kSweepShards disjoint ranges, each its own
// ctest entry (tests/CMakeLists.txt) so `ctest -j` runs them in parallel;
// TXREP_SCHEDULE_SEEDS overrides the total seed count for quick local runs
// or deeper soaks.

#include "check/schedule_explorer.h"

#include <cstdlib>

#include "gtest/gtest.h"
#include "test_util.h"

namespace txrep::check {
namespace {

constexpr int kSweepSeeds = 1000;
constexpr int kSweepShards = 4;  // Keep in sync with tests/CMakeLists.txt.

constexpr ScheduleAxis kAxes[] = {kAxisTpcc,     kAxisBatchedApply,
                                  kAxisCrashRestart, kAxisTraced,
                                  kAxisOptLatch, kAxisWire};

int SeedsFromEnv(int fallback) {
  const char* env = std::getenv("TXREP_SCHEDULE_SEEDS");
  if (env == nullptr) return fallback;
  const int value = std::atoi(env);
  return value > 0 ? value : fallback;
}

std::string FailureDetails(const ScheduleReport& report) {
  std::string details;
  for (const ScheduleFailure& failure : report.failures) {
    details += "\n  " + failure.detail;
  }
  return details;
}

class ScheduleExplorerSweep : public ::testing::TestWithParam<int> {};

TEST_P(ScheduleExplorerSweep, FindsNoDivergence) {
  const int total = SeedsFromEnv(kSweepSeeds);
  const int shard = GetParam();
  const int begin = total * shard / kSweepShards;
  const int end = total * (shard + 1) / kSweepShards;
  ScheduleExplorerOptions options;
  options.base_seed = 1 + static_cast<uint64_t>(begin);
  options.schedules = end - begin;
  options.scratch_dir =
      ::testing::TempDir() + "txrep_sweep_" + std::to_string(shard);

  ScheduleExplorer explorer(options);
  ScheduleReport report = explorer.Run();
  SCOPED_TRACE(report.Summary());

  EXPECT_EQ(report.schedules_run, options.schedules);
  EXPECT_TRUE(report.ok()) << "diverging schedules:" << FailureDetails(report);

  // Coverage floors of the whole 1000-seed sweep, scaled to this shard's
  // share, for every axis, the deep audit and every pair of axes. A quick
  // run below the full sweep is too short for the axis stripes to even out
  // (a pair of them repeats only every 323 seeds), so it skips them.
  if (total >= kSweepSeeds) {
    auto floor = [&](int whole_sweep) {
      return whole_sweep * options.schedules / kSweepSeeds;
    };
    EXPECT_GE(report.SchedulesWith(kAxisTpcc), floor(600));
    EXPECT_GE(report.SchedulesWith(kAxisBatchedApply), floor(800));
    EXPECT_GE(report.SchedulesWith(kAxisCrashRestart), floor(600));
    EXPECT_GE(report.SchedulesWith(kAxisTraced), floor(200));
    EXPECT_GE(report.SchedulesWith(kAxisOptLatch), floor(200));
    EXPECT_GE(report.SchedulesWith(kAxisWire), floor(200));
    EXPECT_GE(report.deep_audits, floor(150));
    for (ScheduleAxis a : kAxes) {
      for (ScheduleAxis b : kAxes) {
        if (a < b) {
          EXPECT_GE(report.SchedulesWith(a | b), floor(20))
              << "axes " << a << " and " << b;
        }
      }
    }
  }

  // Health floors: a conflict-free sweep would pass vacuously no matter how
  // broken Algorithm 1 were, and the opt-latch hammers must actually race
  // readers against writers.
  EXPECT_GT(report.conflicts + report.restarts, 0);
  if (report.SchedulesWith(kAxisOptLatch) > 0) {
    EXPECT_GT(report.blink_read_events, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleExplorerSweep,
                         ::testing::Range(0, kSweepShards));

TEST(ScheduleExplorerTest, SeedsReproduceAcrossEveryAxis) {
  // RunOne(seed) is the debugging entry point for a sweep failure: it must
  // reproduce, with no state leaking between runs, for seeds that together
  // draw every axis — and every axis off. Seed 1 draws all six axes; seed 2
  // all but TPC-C; seed 62 none.
  ScheduleExplorerOptions options;
  options.scratch_dir = ::testing::TempDir() + "txrep_reproduce";
  ScheduleExplorer explorer(options);
  ScheduleReport coverage;
  for (uint64_t seed : {1, 2, 62}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TXREP_EXPECT_OK(explorer.RunOne(seed));
    TXREP_EXPECT_OK(explorer.RunOne(seed));
    options.base_seed = seed;
    options.schedules = 1;
    const ScheduleReport one = ScheduleExplorer(options).Run();
    EXPECT_TRUE(one.ok()) << FailureDetails(one);
    for (size_t mask = 0; mask < one.schedules_by_axes.size(); ++mask) {
      coverage.schedules_by_axes[mask] += one.schedules_by_axes[mask];
    }
  }
  for (ScheduleAxis axis : kAxes) {
    EXPECT_GE(coverage.SchedulesWith(axis), 1) << "axis " << axis;
  }
  EXPECT_EQ(coverage.schedules_by_axes[0], 1);  // Seed 62: no axis.
}

TEST(ScheduleExplorerTest, CrashRestartRequiresScratchDir) {
  ScheduleExplorer explorer;                 // No scratch_dir.
  const Status status = explorer.RunOne(1);     // Seed 1 draws crash-restart.
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  // The failure names the seed and its drawn axes.
  EXPECT_NE(status.message().find("seed 1 ("), std::string::npos);
  EXPECT_NE(status.message().find("crash"), std::string::npos);
}

TEST(ScheduleExplorerTest, SummaryMentionsAllCounters) {
  ScheduleReport report;
  report.schedules_run = 3;
  report.transactions_replayed = 90;
  report.schedules_by_axes[kAxisTpcc | kAxisWire] = 2;
  report.schedules_by_axes[kAxisWire] = 1;
  report.failures.push_back({7, "boom"});
  const std::string summary = report.Summary();
  EXPECT_NE(summary.find("schedules=3"), std::string::npos);
  EXPECT_NE(summary.find("txns=90"), std::string::npos);
  EXPECT_NE(summary.find("tpcc=2"), std::string::npos);
  EXPECT_NE(summary.find("wire=3"), std::string::npos);
  EXPECT_NE(summary.find("failures=1"), std::string::npos);
  EXPECT_FALSE(report.ok());
}

}  // namespace
}  // namespace txrep::check
