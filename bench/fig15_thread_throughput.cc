// Paper Fig. 15: effect of the thread-pool size (2, 5, 10, 15 threads per
// pool) on throughput, with the serial baseline for reference.
//
// Expected shape: throughput rises with threads but saturates around 10–15 —
// conflict evaluation, serialised in sequence order under the TM mutex (and
// the cluster's aggregate service slots) caps the gain, exactly the paper's
// observation.

#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace txrep::bench {
namespace {

constexpr int kItems = 2000;
constexpr uint64_t kSeed = 107;

// args: {num_transactions, threads (0 = serial)}.
void BM_Fig15_ThreadThroughput(benchmark::State& state) {
  const int txns = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  BenchInput input = BuildSyntheticLog(kItems, kItems, txns, kSeed);
  ReplayResult last;
  for (auto _ : state) {
    ReplayResult result =
        threads == 0 ? RunSerialReplay(input, DefaultCluster())
                     : RunConcurrentReplay(input, DefaultCluster(), threads);
    state.SetIterationTime(result.seconds);
    state.counters["tx_per_s"] = result.tx_per_sec;
    last = std::move(result);
  }
  WriteMetricsJson("fig15_txns" + std::to_string(txns) + "_threads" +
                       std::to_string(threads),
                   last);
  state.SetItemsProcessed(txns);
}

BENCHMARK(BM_Fig15_ThreadThroughput)
    ->ArgsProduct({{1000, 2000}, {0, 2, 5, 10, 15}})
    ->ArgNames({"txns", "threads"})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace txrep::bench
