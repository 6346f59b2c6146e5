#include "workloads.h"

#include "workload/tpcc.h"
#include "workload/tpcw.h"

namespace perfbench {

using txrep::Status;
namespace rel = txrep::rel;
namespace workload = txrep::workload;

namespace {

// Reader streams are seeded apart from the write stream so adding or
// removing readers never perturbs the writes.
uint64_t ReaderSeed(uint64_t seed) { return seed * 0x9e3779b97f4a7c15ULL + 17; }

workload::TpccOptions TpccFor(uint64_t seed) {
  workload::TpccOptions options;
  options.scale.warehouses = 4;  // Uniform pick (warehouse_zipf_theta = 0).
  options.seed = seed;
  return options;
}

// bench::BuildTpcwLog's scale: small enough that loading a snapshot into a
// sim-regime cluster stays well under a second.
workload::TpcwScale TpcwScaleForBench() {
  workload::TpcwScale scale;
  scale.items = 500;
  scale.customers = 300;
  scale.addresses = 600;
  scale.initial_orders = 100;
  return scale;
}

class TpccGenerator : public Generator {
 public:
  explicit TpccGenerator(uint64_t seed) : workload_(TpccFor(seed)) {}

  Status CreateAndPopulate(rel::Database& db) override {
    TXREP_RETURN_IF_ERROR(workload_.CreateSchema(db));
    return workload_.Populate(db);
  }
  std::vector<rel::Statement> NextWrite() override {
    return workload_.NextWriteTransaction().statements;
  }

 private:
  workload::TpccWorkload workload_;
};

class TpcwGenerator : public Generator {
 public:
  explicit TpcwGenerator(uint64_t seed)
      : workload_(TpcwScaleForBench(), seed) {}

  Status CreateAndPopulate(rel::Database& db) override {
    TXREP_RETURN_IF_ERROR(workload_.CreateSchema(db));
    return workload_.Populate(db);
  }
  // The write side of the shopping mix: TpcwWorkload draws every mix's
  // write interactions from the same write generator.
  std::vector<rel::Statement> NextWrite() override {
    return workload_.NextWriteTransaction().statements;
  }

 private:
  workload::TpcwWorkload workload_;
};

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"tpcc-open-sim", WorkloadKind::kTpcc, /*write_rate=*/200,
       /*readers=*/1, /*backlog_txns=*/2400, /*catchup_chunks=*/8},
      {"tpcw-reads-sim", WorkloadKind::kTpcw, /*write_rate=*/200,
       /*readers=*/2, /*backlog_txns=*/4800, /*catchup_chunks=*/12},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::unique_ptr<Generator> MakeGenerator(const WorkloadSpec& spec,
                                         uint64_t seed) {
  switch (spec.kind) {
    case WorkloadKind::kTpcc:
      return std::make_unique<TpccGenerator>(seed);
    case WorkloadKind::kTpcw:
      return std::make_unique<TpcwGenerator>(seed);
  }
  return nullptr;
}

std::vector<ReadTxn> MakeReadTxns(const WorkloadSpec& spec, uint64_t seed,
                                  size_t count) {
  std::vector<ReadTxn> reads;
  reads.reserve(count);
  const uint64_t reader_seed = ReaderSeed(seed);
  switch (spec.kind) {
    case WorkloadKind::kTpcc: {
      // OrderStatus only. The mix's other read, StockLevel, costs several
      // times more; at the mix's 50/50 split the median would sit in the
      // gap between the two modes and swing from run to run.
      workload::TpccWorkload tpcc(TpccFor(reader_seed));
      while (reads.size() < count) {
        workload::TpccWorkload::TxnSpec txn = tpcc.NextTransaction();
        if (txn.type == workload::TpccTxnType::kOrderStatus) {
          reads.push_back({std::move(txn.read_query)});
        }
      }
      break;
    }
    case WorkloadKind::kTpcw: {
      // The browsing mix's read interactions.
      workload::TpcwWorkload tpcw(TpcwScaleForBench(), reader_seed);
      while (reads.size() < count) {
        workload::TpcwWorkload::TxnSpec txn =
            tpcw.NextTransaction(workload::TpcwMix::kBrowsing);
        if (!txn.is_write) reads.push_back({std::move(txn.read_query)});
      }
      break;
    }
  }
  return reads;
}

}  // namespace perfbench
