// The benchmark's workloads (WORKLOADS.md says why each was chosen). A
// workload fixes the data, the write stream, the reader queries and the load
// shape; the system runs with its shipped defaults and the cluster shape of
// bench::DefaultCluster() (the sim regime: 40 µs simulated KV service time).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "rel/database.h"
#include "rel/statement.h"

namespace perfbench {

enum class WorkloadKind { kTpcc, kTpcw };

struct WorkloadSpec {
  const char* name;
  WorkloadKind kind;
  /// Fixed Poisson arrival rate of the open-loop writer, tx/s. Absolute,
  /// never derived from a capacity measured in the run.
  double write_rate;
  /// Closed-loop replica readers beside the open-loop writer.
  int readers;
  /// Transactions in the catch-up backlog replayed to completion by the TM,
  /// the SerialApplier and the wire replica.
  int backlog_txns;
  /// The catch-up is timed in this many equal chunks; every chunk's rate
  /// goes to the run record. The TM replays the whole backlog without a
  /// pause; the serial and wire appliers take turns chunk by chunk. Each
  /// *_tps metric is the backlog's transactions over the replay's whole time
  /// (for serial and wire, the summed time of every chunk).
  int catchup_chunks;
};

/// The workloads, in the order WORKLOADS.md lists them.
const std::vector<WorkloadSpec>& Workloads();

/// Null when `name` is unknown.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Schema, population and write stream of one database. The write stream is
/// a pure function of the seed; generators of the same seed drive identical
/// databases in lockstep.
class Generator {
 public:
  virtual ~Generator() = default;
  virtual txrep::Status CreateAndPopulate(txrep::rel::Database& db) = 0;
  virtual std::vector<txrep::rel::Statement> NextWrite() = 0;
};

std::unique_ptr<Generator> MakeGenerator(const WorkloadSpec& spec,
                                         uint64_t seed);

/// The SELECTs of one replica read-only transaction.
using ReadTxn = std::vector<txrep::rel::SelectStatement>;

/// `count` read-only transactions for the closed-loop readers, drawn from a
/// generator stream of their own (derived from `seed`).
std::vector<ReadTxn> MakeReadTxns(const WorkloadSpec& spec, uint64_t seed,
                                  size_t count);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
