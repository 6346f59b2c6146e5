// End-to-end check of the lag metric: lag taken from TM completion handles
// (prefix-applied, on the benchmark's clock) must agree with the TM's own
// commit -> completion histogram, txrep_stage_latency_us{stage="e2e"}, and
// the run must pass its correctness gate.
#include <gtest/gtest.h>

#include <cmath>

#include "phases.h"
#include "workloads.h"

namespace perfbench {
namespace {

TEST(LagAgreementTest, HandleLagMatchesTmE2eHistogram) {
  RunOptions options;
  options.spec = FindWorkload("tpcc-open-sim");
  ASSERT_NE(options.spec, nullptr);
  options.seed = 1;
  options.seconds = 4;
  const RunResult result = RunWorkload(options);
  ASSERT_TRUE(result.correct) << (result.problems.empty()
                                      ? std::string("?")
                                      : result.problems.front());
  EXPECT_EQ(result.failed, 0);
  ASSERT_GE(result.info.at("lag_samples"), 500);

  const double handle_p50 = result.e2e.at("lag_p50_ms");
  const double tm_p50 = result.info.at("tm_e2e_p50_ms");
  ASSERT_GT(tm_p50, 0);
  // The TM histogram is bucketed and measures each transaction alone (not
  // the applied prefix), so allow a band: 30 % or 1 ms, whichever is wider.
  EXPECT_LE(std::abs(handle_p50 - tm_p50), std::max(0.3 * tm_p50, 1.0))
      << "handle p50 " << handle_p50 << " ms vs TM e2e p50 " << tm_p50
      << " ms";
  // Prefix lag can only be later than per-transaction completion.
  EXPECT_GE(result.e2e.at("lag_p99_ms"), handle_p50);
}

}  // namespace
}  // namespace perfbench
