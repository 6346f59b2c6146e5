// Ablation C: publisher batch size vs. end-to-end replication lag, measured
// through the full pipeline (database -> broker -> subscriber -> TM ->
// replica). Larger batches amortize messages but delay the first
// transaction of each batch.
//
// Expected: mean lag grows with the batch size under a steady commit stream;
// throughput is mostly unaffected (the TM is the bottleneck, not the wire).

#include <benchmark/benchmark.h>

#include "common/clock.h"
#include "obs/names.h"
#include "txrep/system.h"
#include "workload/synthetic.h"

namespace txrep::bench {
namespace {

constexpr int kUpdates = 800;
constexpr uint64_t kSeed = 112;

// arg: publisher batch size.
void BM_AblationBatchLag(benchmark::State& state) {
  const auto batch = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    TxRepOptions options;
    options.cluster.node.service_time_micros = 40;
    options.cluster.node.service_slots = 4;
    options.publisher.batch_size = batch;
    options.publisher.poll_interval_micros = 300;
    TxRepSystem sys(options);
    workload::SyntheticWorkload workload(
        {.num_items = 2000, .hot_range = 2000, .seed = kSeed});
    if (!workload.CreateSchema(sys.database()).ok() ||
        !workload.Populate(sys.database()).ok() || !sys.Start().ok()) {
      state.SkipWithError("setup failed");
      break;
    }
    Stopwatch sw;
    if (!workload.Run(sys.database(), kUpdates).ok() ||
        !sys.SyncToLatest().ok()) {
      state.SkipWithError("run failed");
      break;
    }
    const double secs = sw.ElapsedSeconds();
    // Commit -> replica-apply lag, recorded before each transaction
    // completes, so SyncToLatest covered every sample.
    const Histogram* lag = sys.metrics().GetHistogram(
        obs::kStageLatency, {{"stage", obs::kStageE2e}});
    state.SetIterationTime(secs);
    state.counters["mean_lag_ms"] = lag->Mean() / 1e3;
    state.counters["p95_lag_ms"] = lag->Percentile(0.95) / 1e3;
    state.counters["tx_per_s"] = kUpdates / secs;
  }
  state.SetItemsProcessed(kUpdates);
}

BENCHMARK(BM_AblationBatchLag)
    ->Arg(1)
    ->Arg(10)
    ->Arg(100)
    ->ArgNames({"batch"})
    ->UseManualTime()
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace txrep::bench
