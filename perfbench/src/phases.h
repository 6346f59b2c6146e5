// One benchmark run of one workload: an open-loop phase on the full
// publisher -> broker -> subscriber -> TM pipeline with closed-loop replica
// readers beside it, then three closed-loop catch-up replays of a pre-built
// backlog (TM, SerialApplier, wire replica), and the correctness gate after
// each. A traced run adds the bench-side spans and two layer passes (query
// translation, log codec).
#ifndef PERFBENCH_PHASES_H_
#define PERFBENCH_PHASES_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct RunOptions {
  const WorkloadSpec* spec = nullptr;
  uint64_t seed = 1;
  /// Length of the open-loop arrival window.
  double seconds = 10;
  /// Enables bench-side spans, the tracer stage spans and the layer passes.
  bool trace = false;
  /// Path prefix of a traced run's span dumps ("" = none).
  std::string dump_prefix;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// One line per failed gate check or failed operation class.
  std::vector<std::string> problems;
  /// End-to-end metrics (BENCHMARK.json end_to_end), by name.
  std::map<std::string, double> e2e;
  /// Per-layer metrics (BENCHMARK.json per_layer); counts the program keeps
  /// anyway (TM stats) are filled on untraced runs too.
  std::map<std::string, double> layer;
  /// Sample counts and phase sizes behind the metrics.
  std::map<std::string, double> info;
  /// Per-chunk records of the catch-up replays, every chunk kept.
  std::map<std::string, std::vector<double>> series;
};

RunResult RunWorkload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_PHASES_H_
