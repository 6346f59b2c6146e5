#include "phases.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <utility>

#include "bench_util.h"
#include "codec/log_codec.h"
#include "codec/schema_codec.h"
#include "common/clock.h"
#include "core/serial_applier.h"
#include "core/transaction_manager.h"
#include "core/txn_buffer.h"
#include "kv/inmemory_node.h"
#include "mw/broker.h"
#include "mw/publisher.h"
#include "mw/subscriber.h"
#include "net/endpoint.h"
#include "net/socket.h"
#include "obs/names.h"
#include "probe.h"
#include "qt/consistency_checker.h"
#include "qt/query_translator.h"
#include "qt/replica_reader.h"
#include "trace/export.h"
#include "trace/tracer.h"
#include "txrep/remote_replica.h"
#include "workload/loadgen.h"

namespace perfbench {
namespace {

using txrep::NowMicros;
using txrep::Result;
using txrep::Status;
namespace core = txrep::core;
namespace kv = txrep::kv;
namespace mw = txrep::mw;
namespace net = txrep::net;
namespace obs = txrep::obs;
namespace qt = txrep::qt;
namespace rel = txrep::rel;
namespace trace = txrep::trace;

constexpr char kTopic[] = "txrep.log";
// Read-only transactions generated per run; readers cycle through them.
constexpr size_t kReadPool = 4096;
// The traced run's query-translation pass replays at most this many backlog
// transactions (bounded so a sim-regime pass stays around a second).
constexpr size_t kQtPassTxns = 1000;
// Tracer stage spans kept in memory (ring) and dumped per traced phase.
constexpr size_t kTracerCapacity = 1 << 18;
constexpr size_t kTracerDumpSpans = 20000;
// Raw bench-side spans kept for the dump (the totals count every span).
constexpr int64_t kRawSpans = 100000;
// Give up on a replica that has not caught up this long after the last
// arrival; the run then fails its gate instead of hanging.
constexpr int64_t kDrainTimeoutMicros = 60'000'000;
// Replica bring-ups timed per run (setup_s is their median). They come in
// three rounds spread over the run (before the open loop, after it and after
// the catch-up), each of at least kMinSetupsPerRound bring-ups and
// kMinSetupSecondsPerRound: single-thread speed on a shared host drifts over
// seconds, and one burst of bring-ups would sample only one stretch of it.
constexpr int kMinSetupsPerRound = 2;
constexpr double kMinSetupSecondsPerRound = 0.4;
// The open loop runs this long before its measured window starts. Its writes
// and reads are gated like all others but left out of the lag and read
// metrics, so that pools, caches and the first arrivals settle first.
constexpr int64_t kWarmupMicros = 2'000'000;
// The open-loop metrics are taken per slice of the window this long, and each
// is the median over the slices: a host hiccup or a burst of CPU steal spoils
// the slices it covers, not the metric. At 200 tx/s a slice holds about 200
// lag samples, so one slice's p99 is noisy, but the median over the window's
// slices is not.
constexpr int64_t kSliceMicros = 1'000'000;

[[noreturn]] void Fatal(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(),
               status.ToString().c_str());
  std::fflush(stderr);
  std::_Exit(3);
}

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Fatal(what, status);
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// Host-wide CPU time from /proc/stat, in clock ticks. On a virtual machine
// `steal` is time the vCPUs wanted to run but the hypervisor ran someone
// else: the share of a run it covers says how much neighbours disturbed it.
struct CpuTimes {
  int64_t total = 0;
  int64_t steal = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes times;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return times;
  long long v[8] = {};
  if (std::fscanf(f, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (long long x : v) times.total += x;
    times.steal = v[7];
  }
  std::fclose(f);
  return times;
}

int64_t SumCounters(const obs::MetricsSnapshot& snap, const std::string& name) {
  int64_t sum = 0;
  for (const obs::MetricPoint& point : snap.counters) {
    if (point.name == name) sum += point.value;
  }
  return sum;
}

// (sum, count) over every histogram instrument called `name`.
std::pair<int64_t, int64_t> SumHistograms(const obs::MetricsSnapshot& snap,
                                          const std::string& name) {
  std::pair<int64_t, int64_t> out{0, 0};
  for (const obs::HistogramPoint& point : snap.histograms) {
    if (point.name == name) {
      out.first += point.snapshot.sum;
      out.second += point.snapshot.count;
    }
  }
  return out;
}

// The reference the gate compares replicas to: the same log replayed by the
// SerialApplier, op at a time, into a fresh cluster with free, inline KV ops.
kv::KvClusterOptions ReferenceCluster() {
  kv::KvClusterOptions options = txrep::bench::DefaultCluster();
  options.node.service_time_micros = 0;
  options.dispatch_threads = 0;
  return options;
}

// Steady-clock µs spent in one idle 40 µs simulated KV op beyond the 40 µs
// configured (median of 200 single Gets on an otherwise idle node).
double IdleServiceOvershootMicros() {
  const kv::KvNodeOptions node_options = txrep::bench::DefaultCluster().node;
  kv::InMemoryKvNode node(node_options);
  Check(node.Put("k", "v"), "overshoot probe put");
  std::vector<double> samples;
  for (int i = 0; i < 200; ++i) {
    const int64_t t0 = NowNanos();
    Result<kv::Value> value = node.Get("k");
    samples.push_back(static_cast<double>(NowNanos() - t0) / 1e3);
    Check(value.status(), "overshoot probe get");
  }
  return Quantile(samples, 0.5) -
         static_cast<double>(node_options.service_time_micros);
}

void DumpTracer(const trace::Tracer* tracer, const std::string& path) {
  if (tracer == nullptr || path.empty()) return;
  std::vector<trace::SpanEvent> events = tracer->Dump();
  if (events.size() > kTracerDumpSpans) {
    events.erase(events.begin(),
                 events.end() - static_cast<std::ptrdiff_t>(kTracerDumpSpans));
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fputs(trace::ToChromeTraceJson(events).c_str(), f);
  std::fclose(f);
}

std::unique_ptr<trace::Tracer> MakeTracer(bool enabled,
                                          obs::MetricsRegistry* registry) {
  if (!enabled) return nullptr;
  trace::TracerOptions options;
  options.sample_every = 1;
  options.recorder.capacity = kTracerCapacity;
  return std::make_unique<trace::Tracer>(options, registry);
}

// Median over the tracer's commit_eval spans of their queue share: the time
// from a transaction's entry into the CommitReqPQ to its commit decision.
// (The span's other share is execution, which includes the top-pool wait.)
double MedianCommitEvalMicros(const trace::Tracer& tracer) {
  std::vector<double> waits;
  for (const trace::SpanEvent& event : tracer.Dump()) {
    if (event.stage == trace::SpanStage::kCommitEval) {
      waits.push_back(static_cast<double>(event.queue_micros));
    }
  }
  return Quantile(waits, 0.5);
}

// The samples in each consecutive `width_micros` slice of time after
// `start`, by the sample's time stamp `at` (µs). Samples past the last whole
// slice count in the last one; `slices` >= 1.
std::vector<std::vector<double>> Slices(const std::vector<int64_t>& at,
                                        const std::vector<double>& values,
                                        int64_t start, int64_t width_micros,
                                        size_t slices) {
  std::vector<std::vector<double>> by_slice(slices);
  for (size_t i = 0; i < at.size(); ++i) {
    const int64_t slice = std::max<int64_t>(0, at[i] - start) / width_micros;
    by_slice[std::min(static_cast<size_t>(slice), slices - 1)].push_back(
        values[i]);
  }
  return by_slice;
}

// The q-quantile of each non-empty slice.
std::vector<double> SliceQuantiles(const std::vector<std::vector<double>>& slices,
                                   double q) {
  std::vector<double> out;
  for (const std::vector<double>& samples : slices) {
    if (!samples.empty()) out.push_back(Quantile(samples, q));
  }
  return out;
}

class Run {
 public:
  explicit Run(const RunOptions& options)
      : options_(options), spec_(*options.spec) {}

  RunResult Go();

 private:
  /// A primary database (schema + population) and a replica cluster loaded
  /// from its snapshot: what bringing up a replica costs. setup_s counts
  /// every bring-up.
  struct Replica {
    std::unique_ptr<rel::Database> db;
    std::unique_ptr<Generator> generator;
    uint64_t population_lsn = 0;
    std::unique_ptr<obs::MetricsRegistry> registry;
    std::unique_ptr<kv::KvCluster> cluster;
    std::unique_ptr<qt::QueryTranslator> translator;
  };

  Replica Setup();
  void BuildBacklog();
  /// Replays the backlog through the TM (on `tm_replica`), the
  /// SerialApplier (on `serial_replica`) and a wire replica.
  void Catchup(Replica& tm_replica, Replica& serial_replica);
  void OpenLoop(Replica& replica);
  void QtPass();
  void CodecPass();

  /// The gate: `replica` must byte-equal `reference`, and a copy of it must
  /// pass the consistency audit against `db`.
  void Gate(const std::string& phase, kv::KvStore& replica,
            const kv::StoreDump& reference, rel::Database& db);
  kv::StoreDump SerialReference(const rel::Database* snapshot,
                                const rel::Catalog& catalog,
                                const std::vector<rel::LogTransaction>& txns);
  void Problem(const std::string& what, int64_t failed_ops = 1);
  /// [begin, end) index ranges splitting `n` backlog transactions into the
  /// workload's catch-up chunks.
  std::vector<std::pair<size_t, size_t>> ChunkRanges(size_t n) const {
    std::vector<std::pair<size_t, size_t>> ranges;
    const size_t chunks = static_cast<size_t>(spec_.catchup_chunks);
    for (size_t c = 0; c < chunks; ++c) {
      const size_t begin = n * c / chunks;
      const size_t end = n * (c + 1) / chunks;
      if (end > begin) ranges.emplace_back(begin, end);
    }
    return ranges;
  }
  std::string DumpPath(const std::string& suffix) const {
    return options_.dump_prefix.empty() ? std::string()
                                        : options_.dump_prefix + suffix;
  }

  const RunOptions options_;
  const WorkloadSpec& spec_;
  RunResult result_;
  std::vector<double> setup_samples_;

  /// Population + backlog; its log is what the catch-up phases replay.
  std::unique_ptr<rel::Database> log_db_;
  std::unique_ptr<Generator> log_generator_;
  uint64_t population_lsn_ = 0;
  uint64_t last_lsn_ = 0;
  std::vector<rel::LogTransaction> backlog_;
  /// Population-only database: snapshot source of the references.
  std::unique_ptr<rel::Database> snapshot_db_;
  kv::StoreDump catchup_reference_;
};

void Run::Problem(const std::string& what, int64_t failed_ops) {
  result_.correct = false;
  result_.failed += failed_ops;
  result_.problems.push_back(what);
}

Run::Replica Run::Setup() {
  const int64_t t0 = NowMicros();
  Replica replica;
  replica.db = std::make_unique<rel::Database>();
  replica.generator = MakeGenerator(spec_, options_.seed);
  Check(replica.generator->CreateAndPopulate(*replica.db), "populate");
  replica.population_lsn = replica.db->log().LastLsn();
  replica.registry = std::make_unique<obs::MetricsRegistry>();
  replica.cluster = std::make_unique<kv::KvCluster>(
      txrep::bench::DefaultCluster(), replica.registry.get());
  replica.translator =
      std::make_unique<qt::QueryTranslator>(&replica.db->catalog());
  Check(replica.translator->LoadSnapshot(replica.cluster.get(), *replica.db),
        "load snapshot");
  setup_samples_.push_back(static_cast<double>(NowMicros() - t0) / 1e6);
  return replica;
}

void Run::BuildBacklog() {
  log_db_ = std::make_unique<rel::Database>();
  log_generator_ = MakeGenerator(spec_, options_.seed);
  Check(log_generator_->CreateAndPopulate(*log_db_), "populate log db");
  population_lsn_ = log_db_->log().LastLsn();
  for (int i = 0; i < spec_.backlog_txns; ++i) {
    Check(log_db_->ExecuteTransaction(log_generator_->NextWrite()).status(),
          "backlog write");
  }
  last_lsn_ = log_db_->log().LastLsn();
  backlog_ = log_db_->log().ReadSince(population_lsn_);
  result_.info["backlog_txns"] = static_cast<double>(backlog_.size());
  snapshot_db_ = std::make_unique<rel::Database>();
  Check(MakeGenerator(spec_, options_.seed)->CreateAndPopulate(*snapshot_db_),
        "populate snapshot db");
}

kv::StoreDump Run::SerialReference(
    const rel::Database* snapshot, const rel::Catalog& catalog,
    const std::vector<rel::LogTransaction>& txns) {
  kv::KvCluster cluster(ReferenceCluster());
  qt::QueryTranslator translator(&catalog);
  Check(snapshot != nullptr ? translator.LoadSnapshot(&cluster, *snapshot)
                            : translator.InitializeIndexes(&cluster),
        "reference init");
  core::SerialApplier applier(&cluster, &translator, nullptr,
                              core::BatchDispatchOptions{.batch_size = 1});
  Check(applier.ApplyBatch(txns), "reference replay");
  return cluster.Dump();
}

void Run::Gate(const std::string& phase, kv::KvStore& replica,
               const kv::StoreDump& reference, rel::Database& db) {
  const kv::StoreDump dump = replica.Dump();
  if (dump != reference) {
    size_t differing = 0;
    size_t i = 0;
    size_t j = 0;
    while (i < dump.size() || j < reference.size()) {
      if (j == reference.size() ||
          (i < dump.size() && dump[i].first < reference[j].first)) {
        ++differing, ++i;
      } else if (i == dump.size() || reference[j].first < dump[i].first) {
        ++differing, ++j;
      } else {
        if (dump[i].second != reference[j].second) ++differing;
        ++i, ++j;
      }
    }
    Problem(phase + ": replica differs from serial replay in " +
            std::to_string(differing) + " keys");
  }
  // Audit a copy with free KV ops: the audit reads every object, which on a
  // sim-regime cluster would cost a simulated round trip each.
  kv::InMemoryKvNode copy;
  kv::KvWriteBatch batch;
  batch.reserve(dump.size());
  for (const auto& [key, value] : dump) batch.push_back(kv::KvWrite::Put(key, value));
  Check(copy.MultiWrite(batch), "audit copy");
  qt::QueryTranslator translator(&db.catalog());
  Result<qt::ConsistencyReport> report =
      qt::CheckReplicaConsistency(copy, db, translator);
  if (!report.ok()) {
    Problem(phase + ": audit failed: " + report.status().ToString());
  } else if (!report->consistent()) {
    Problem(phase + ": audit: " + report->Summary());
  }
}

void Run::Catchup(Replica& tm_replica, Replica& serial_replica) {
  // TM side. Traced runs put the TimedStore under the TM and the tracer's
  // stage spans on its transactions.
  kv::KvStore* tm_store = tm_replica.cluster.get();
  kv::KvStore* serial_store = serial_replica.cluster.get();
  std::unique_ptr<TimedStore> tm_timed;
  std::unique_ptr<TimedStore> serial_timed;
  if (options_.trace) {
    tm_timed = std::make_unique<TimedStore>(tm_store);
    tm_store = tm_timed.get();
    serial_timed = std::make_unique<TimedStore>(serial_store);
    serial_store = serial_timed.get();
  }
  std::unique_ptr<trace::Tracer> tracer =
      MakeTracer(options_.trace, tm_replica.registry.get());
  std::vector<rel::LogTransaction> tm_txns = backlog_;
  if (tracer != nullptr) {
    for (rel::LogTransaction& txn : tm_txns) txn.trace = tracer->Mint(txn.lsn);
  }
  const std::vector<std::pair<size_t, size_t>> chunks =
      ChunkRanges(backlog_.size());
  const double n = static_cast<double>(backlog_.size());

  // The TM replays the whole backlog in one go: every transaction is
  // submitted at once, as a subscriber catching up hands them over, and one
  // TM applies them to completion. The tracker notes when each LSN and every
  // earlier one were applied, which splits the replay into per-chunk times
  // without pausing it.
  std::vector<double> tm_tps;
  std::vector<double> tm_seconds;
  {
    core::TransactionManager tm(tm_store, tm_replica.translator.get(),
                                core::TmOptions{}, tm_replica.registry.get(),
                                tracer.get());
    ApplyTracker tracker;
    const double cpu0 = ProcessCpuSeconds();
    const int64_t t0 = NowMicros();
    for (rel::LogTransaction& txn : tm_txns) {
      const uint64_t lsn = txn.lsn;
      tracker.Add(lsn, tm.SubmitUpdate(std::move(txn)));
    }
    const Status status = tm.WaitIdle();
    const double seconds = static_cast<double>(NowMicros() - t0) / 1e6;
    const double cpu_seconds = ProcessCpuSeconds() - cpu0;
    tracker.Close();
    if (status.ok() && tracker.failures() == 0 &&
        tracker.applied().size() == backlog_.size()) {
      result_.e2e["apply_tps"] = Ratio(n, seconds);
      int64_t chunk_start = t0;
      for (const auto& [begin, end] : chunks) {
        const int64_t chunk_end = tracker.applied()[end - 1].second;
        const double chunk_seconds =
            static_cast<double>(chunk_end - chunk_start) / 1e6;
        tm_seconds.push_back(chunk_seconds);
        tm_tps.push_back(Ratio(static_cast<double>(end - begin), chunk_seconds));
        chunk_start = chunk_end;
      }
    } else {
      result_.e2e["apply_tps"] = 0;
      Problem("tm catch-up: " + (status.ok() ? std::to_string(tracker.failures()) +
                                                   " transactions failed"
                                             : status.ToString()),
              std::max<int64_t>(1, tracker.failures()));
    }
    const core::TmStats stats = tm.stats();
    result_.layer["core.checks_per_txn"] =
        Ratio(static_cast<double>(stats.conflict_checks), n);
    result_.layer["core.restarts_per_txn"] =
        Ratio(static_cast<double>(stats.restarts), n);
    result_.layer["core.useful_ratio"] =
        Ratio(static_cast<double>(stats.committed),
              static_cast<double>(stats.committed + stats.restarts));
    result_.layer["core.tm_us_per_txn"] = Ratio(cpu_seconds * 1e6, n);
    result_.info["tm_conflicts"] = static_cast<double>(stats.conflicts);
  }
  result_.series["tm_chunk_tps"] = tm_tps;
  const double median_chunk = Quantile(tm_seconds, 0.5);
  result_.layer["core.tm_chunk_max_over_median"] =
      Ratio(Quantile(tm_seconds, 1.0), median_chunk);
  result_.layer["core.tm_slow_chunk_frac"] = Ratio(
      static_cast<double>(std::count_if(
          tm_seconds.begin(), tm_seconds.end(),
          [&](double s) { return s > 2 * median_chunk; })),
      static_cast<double>(tm_seconds.size()));
  if (tracer != nullptr) {
    DumpTracer(tracer.get(), DumpPath(".tm-catchup.trace.json"));
  }

  // Serial side.
  core::SerialApplier serial(serial_store, serial_replica.translator.get(),
                             serial_replica.registry.get());

  // Wire side: publisher -> broker -> NetEndpoint -> socketpair ->
  // RemoteReplica (SerialApplier over its own cluster).
  obs::MetricsRegistry wire_registry;
  mw::Broker broker(mw::BrokerOptions{}, &wire_registry);
  net::EndpointOptions endpoint_options;
  endpoint_options.topic = kTopic;
  net::NetEndpoint endpoint(&broker, endpoint_options, &wire_registry);
  endpoint.SetCatalog(txrep::codec::EncodeCatalog(log_db_->catalog()));
  struct Teardown {
    net::NetEndpoint* endpoint;
    mw::Broker* broker;
    ~Teardown() {
      endpoint->Stop();
      broker->Shutdown();
    }
  } teardown{&endpoint, &broker};
  txrep::RemoteReplicaOptions remote_options;
  remote_options.socket_factory = [&endpoint]() -> Result<net::Socket> {
    TXREP_ASSIGN_OR_RETURN(auto pair, net::Socket::CreatePair());
    TXREP_RETURN_IF_ERROR(endpoint.ServeSocket(std::move(pair.first)));
    return std::move(pair.second);
  };
  remote_options.subscription.topic = kTopic;
  remote_options.cluster = txrep::bench::DefaultCluster();
  txrep::RemoteReplica remote(remote_options);
  Check(remote.Start(), "remote replica start");
  mw::PublisherOptions publisher_options;
  publisher_options.topic = kTopic;
  mw::PublisherAgent publisher(&log_db_->log(), &broker, publisher_options,
                               &wire_registry);
  // Ships until `lsn` is published and waits until the replica applied
  // everything shipped; false when the replica stopped first.
  auto ship_to = [&](uint64_t lsn) {
    while (publisher.shipped_lsn() < lsn) {
      Check(publisher.PumpOnce().status(), "publish");
    }
    return remote.WaitForLsn(publisher.shipped_lsn());
  };
  // A fresh wire replica has no snapshot path: the population ships over
  // the wire first, untimed.
  if (!ship_to(population_lsn_)) Fatal("wire population", remote.health());
  const uint64_t wire_start_lsn = publisher.shipped_lsn();
  const obs::MetricsSnapshot wire_before = wire_registry.Snapshot();

  // The serial and wire appliers replay the same chunk in turn, so both
  // sample the same stretch of machine conditions.
  std::vector<double> serial_tps;
  std::vector<double> wire_tps;
  // Totals over every chunk: each rate is transactions over seconds, so a
  // slow chunk weighs in with all the time it took.
  double serial_total_seconds = 0;
  double serial_total_txns = 0;
  double wire_total_seconds = 0;
  double wire_total_txns = 0;
  bool serial_ok = true;
  bool wire_ok = true;
  for (const auto& [begin, end] : chunks) {
    const double size = static_cast<double>(end - begin);
    if (serial_ok) {
      Status status;
      const int64_t t0 = NowMicros();
      for (size_t i = begin; i < end && status.ok(); ++i) {
        status = serial.Apply(backlog_[i]);
      }
      const double seconds = static_cast<double>(NowMicros() - t0) / 1e6;
      if (status.ok()) {
        serial_tps.push_back(Ratio(size, seconds));
        serial_total_seconds += seconds;
        serial_total_txns += size;
      } else {
        serial_ok = false;
        Problem("serial catch-up: " + status.ToString(),
                static_cast<int64_t>(backlog_.size() - begin));
      }
    }
    const uint64_t from = publisher.shipped_lsn();
    const uint64_t target = backlog_[end - 1].lsn;
    if (wire_ok && from < target) {  // A straddling batch may have shipped it.
      const int64_t t0 = NowMicros();
      wire_ok = ship_to(target);
      const double seconds = static_cast<double>(NowMicros() - t0) / 1e6;
      if (wire_ok) {
        const double shipped = static_cast<double>(publisher.shipped_lsn() - from);
        wire_tps.push_back(Ratio(shipped, seconds));
        wire_total_seconds += seconds;
        wire_total_txns += shipped;
      } else {
        Problem("wire catch-up: " + remote.health().ToString(),
                static_cast<int64_t>(last_lsn_ - from));
      }
    }
  }
  const obs::MetricsSnapshot wire_after = wire_registry.Snapshot();
  const double wire_n = static_cast<double>(last_lsn_ - wire_start_lsn);
  result_.attempted += static_cast<int64_t>(2 * n + wire_n);

  result_.e2e["serial_apply_tps"] = Ratio(serial_total_txns, serial_total_seconds);
  result_.e2e["wire_apply_tps"] = Ratio(wire_total_txns, wire_total_seconds);
  result_.series["serial_chunk_tps"] = serial_tps;
  result_.series["wire_chunk_tps"] = wire_tps;
  result_.layer["core.serial_us_per_txn"] = Ratio(serial_total_seconds * 1e6, n);
  auto delta = [&](const char* name) {
    return static_cast<double>(SumCounters(wire_after, name) -
                               SumCounters(wire_before, name));
  };
  result_.layer["net.bytes_per_txn"] = Ratio(delta(obs::kNetBytesSent), wire_n);
  result_.layer["net.frames_per_txn"] = Ratio(delta(obs::kNetFramesSent), wire_n);
  result_.layer["net.credit_stalls"] = delta(obs::kNetBackpressureStalls);

  Gate("tm catch-up", *tm_replica.cluster, catchup_reference_, *log_db_);
  Gate("serial catch-up", *serial_replica.cluster, catchup_reference_,
       *log_db_);
  const kv::StoreDump wire_reference = SerialReference(
      nullptr, log_db_->catalog(), log_db_->log().ReadSince(0));
  remote.Stop();
  Gate("wire catch-up", remote.cluster(), wire_reference, *log_db_);
}

void Run::OpenLoop(Replica& replica) {
  rel::Database& db = *replica.db;
  obs::MetricsRegistry& registry = *replica.registry;

  // Inputs first: the arrival schedule, the write stream and the reader
  // queries are generated before anything is timed.
  txrep::workload::LoadGenOptions load;
  load.base_rate_per_sec = spec_.write_rate;
  load.duration_micros =
      kWarmupMicros + static_cast<int64_t>(options_.seconds * 1e6);
  load.seed = options_.seed * 7919 + 1;
  const std::vector<int64_t> offsets =
      txrep::workload::ArrivalSchedule(load).offsets();
  std::vector<std::vector<rel::Statement>> writes;
  writes.reserve(offsets.size());
  for (size_t i = 0; i < offsets.size(); ++i) {
    writes.push_back(replica.generator->NextWrite());
  }
  const std::vector<ReadTxn> reads =
      MakeReadTxns(spec_, options_.seed, kReadPool);

  kv::KvStore* store = replica.cluster.get();
  std::unique_ptr<TimedStore> timed;
  if (options_.trace) {
    timed = std::make_unique<TimedStore>(store);
    store = timed.get();
  }
  std::unique_ptr<trace::Tracer> tracer = MakeTracer(options_.trace, &registry);
  if (tracer != nullptr) db.log().EnableTracing(tracer.get());
  txrep::blink::BlinkTreeOptions reader_blink;
  if (options_.trace) reader_blink.metrics = &registry;
  qt::ReplicaReader reader(&db.catalog(), reader_blink, &registry);

  // Per-reader results, merged after the readers joined.
  struct ReaderStats {
    std::vector<int64_t> start_us;
    std::vector<double> latency_us;
    std::vector<double> select_us;
    int64_t failed = 0;
    int64_t blink_gets = 0;
    int64_t blink_lookups = 0;
    std::string first_error;
  };
  std::vector<ReaderStats> reader_stats(static_cast<size_t>(spec_.readers));
  std::vector<int64_t> deliver_us;
  std::map<uint64_t, int64_t> commit_at;
  std::vector<double> late_us;
  std::vector<double> commit_us;
  int64_t write_failures = 0;
  std::string first_write_error;

  const obs::MetricsSnapshot metrics_before = registry.Snapshot();
  const LayerSnapshot spans_before = SpanRecorder::Get().Totals();
  double window_seconds = 0;
  int64_t window_start = 0;
  bool drained = false;
  uint64_t messages = 0;
  uint64_t last_written = replica.population_lsn;
  ApplyTracker tracker;
  {
    core::TransactionManager tm(store, replica.translator.get(),
                                core::TmOptions{}, &registry, tracer.get());
    mw::Broker broker(mw::BrokerOptions{}, &registry);
    mw::PublisherOptions publisher_options;
    publisher_options.topic = kTopic;
    publisher_options.start_after_lsn = replica.population_lsn;
    mw::PublisherAgent publisher(&db.log(), &broker, publisher_options,
                                 &registry, tracer.get());
    mw::SubscriberAgent subscriber(
        &broker, kTopic,
        [&](rel::LogTransaction txn) {
          deliver_us.push_back(NowMicros() - txn.commit_micros);
          const uint64_t lsn = txn.lsn;
          tracker.Add(lsn, tm.SubmitUpdate(std::move(txn)));
          return tm.health();
        },
        &registry, mw::SubscriberOptions{}, tracer.get());
    publisher.Start();

    std::atomic<bool> stop_readers{false};
    std::vector<std::thread> readers;
    for (int r = 0; r < spec_.readers; ++r) {
      readers.emplace_back([&, r] {
        ReaderStats& stats = reader_stats[static_cast<size_t>(r)];
        // Written by the read-only body on a TM thread, read here after
        // Wait(): the handle's completion orders the two.
        struct Probe {
          int64_t select_ns = 0;
          int64_t blink_gets = 0;
        };
        for (size_t i = static_cast<size_t>(r);
             !stop_readers.load(std::memory_order_relaxed);
             i += static_cast<size_t>(spec_.readers)) {
          const ReadTxn& read = reads[i % reads.size()];
          auto probe = std::make_shared<Probe>();
          const int64_t t0 = NowNanos();
          auto handle = tm.SubmitReadOnly(
              [&reader, &read, probe, i](kv::KvStore* view) -> Status {
                ScopedSpan span(Layer::kQtSelect, i);
                const int64_t blink0 = BlinkGetCount();
                const int64_t s0 = NowNanos();
                Status status;
                for (const rel::SelectStatement& query : read) {
                  status = reader.Select(view, query).status();
                  if (!status.ok()) break;
                }
                probe->select_ns = NowNanos() - s0;
                probe->blink_gets = BlinkGetCount() - blink0;
                return status;
              });
          const Status status = handle->Wait();
          const int64_t t1 = NowNanos();
          if (!status.ok()) {
            if (stats.failed++ == 0) stats.first_error = status.ToString();
            continue;
          }
          stats.start_us.push_back(t0 / 1000);
          stats.latency_us.push_back(static_cast<double>(t1 - t0) / 1e3);
          stats.select_us.push_back(static_cast<double>(probe->select_ns) /
                                    1e3);
          if (probe->blink_gets > 0) {
            stats.blink_gets += probe->blink_gets;
            ++stats.blink_lookups;
          }
        }
      });
    }

    // The open-loop writer: one thread, Poisson arrivals at a fixed rate.
    const int64_t start = NowMicros();
    window_start = start + kWarmupMicros;
    for (size_t i = 0; i < offsets.size(); ++i) {
      const int64_t due = start + offsets[i];
      txrep::SleepForMicros(due - NowMicros());
      const int64_t t0 = NowMicros();
      late_us.push_back(static_cast<double>(t0 - due));
      Result<rel::CommitInfo> info = [&] {
        ScopedSpan span(Layer::kRelExecute);
        return db.ExecuteTransaction(writes[i]);
      }();
      const int64_t t1 = NowMicros();
      commit_us.push_back(static_cast<double>(t1 - t0));
      if (!info.ok()) {
        if (write_failures++ == 0) first_write_error = info.status().ToString();
        continue;
      }
      commit_at[info->lsn] = t1;
      last_written = info->lsn;
    }
    const int64_t window_end = std::max(NowMicros(), start + load.duration_micros);
    stop_readers.store(true);
    for (std::thread& t : readers) t.join();
    window_seconds = static_cast<double>(window_end - window_start) / 1e6;

    const int64_t deadline = NowMicros() + kDrainTimeoutMicros;
    while (tracker.applied_lsn() < last_written && NowMicros() < deadline &&
           tm.health().ok() && subscriber.health().ok()) {
      txrep::SleepForMicros(1000);
    }
    drained = tracker.applied_lsn() >= last_written;
    publisher.Stop();
    broker.Shutdown();
    subscriber.Stop();
    tracker.Close();
    Status idle = tm.WaitIdle();
    if (!idle.ok()) Problem("open loop: " + idle.ToString());
    messages = static_cast<uint64_t>(publisher.messages_published());
    if (tracer != nullptr) {
      result_.layer["core.commit_eval_self_us"] = MedianCommitEvalMicros(*tracer);
      DumpTracer(tracer.get(), DumpPath(".open.trace.json"));
      db.log().EnableTracing(nullptr);
    }
  }
  const obs::MetricsSnapshot metrics_after = registry.Snapshot();
  const LayerSnapshot spans = Diff(SpanRecorder::Get().Totals(), spans_before);

  // Writes and lag. The lag of LSN i runs from its commit returning on the
  // primary to the instant the tracker saw i and every earlier LSN applied.
  const int64_t writes_ok = static_cast<int64_t>(commit_at.size());
  result_.attempted += writes_ok + write_failures;
  if (write_failures > 0) {
    Problem("open loop: " + std::to_string(write_failures) +
                " primary writes failed: " + first_write_error,
            write_failures);
  }
  if (!drained) {
    Problem("open loop: replica did not apply LSN " +
            std::to_string(last_written) + " within the drain timeout");
  }
  if (tracker.failures() > 0) {
    Problem("open loop: " + std::to_string(tracker.failures()) +
                " replicated transactions failed",
            tracker.failures());
  }
  // Samples of the warm-up (writes committed, reads started, before
  // window_start) show only in the per-slice series, which cover warm-up and
  // window.
  std::vector<double> lag_ms;
  std::vector<int64_t> lag_at;
  std::vector<double> all_lag_ms;
  std::vector<int64_t> all_lag_at;
  for (const auto& [lsn, applied] : tracker.applied()) {
    auto it = commit_at.find(lsn);
    if (it == commit_at.end()) continue;
    all_lag_ms.push_back(static_cast<double>(std::max<int64_t>(0, applied - it->second)) / 1e3);
    all_lag_at.push_back(it->second);
    if (it->second < window_start) continue;
    lag_ms.push_back(all_lag_ms.back());
    lag_at.push_back(it->second);
  }
  // Each metric is the median over the window's kSliceMicros slices
  // (WORKLOADS.md, "Slices"). The whole-window percentiles and the p99 of
  // every slice of warm-up and window are kept in the run record.
  const size_t slices = static_cast<size_t>(std::max<int64_t>(
      1, static_cast<int64_t>(options_.seconds * 1e6) / kSliceMicros));
  const int64_t loop_start = window_start - kWarmupMicros;
  const size_t all_slices =
      slices + static_cast<size_t>(kWarmupMicros / kSliceMicros);
  result_.series["lag_p99_ms_per_slice"] = SliceQuantiles(
      Slices(all_lag_at, all_lag_ms, loop_start, kSliceMicros, all_slices), 0.99);
  const std::vector<std::vector<double>> lag_slices =
      Slices(lag_at, lag_ms, window_start, kSliceMicros, slices);
  result_.e2e["lag_p50_ms"] = Quantile(SliceQuantiles(lag_slices, 0.50), 0.5);
  result_.e2e["lag_p99_ms"] = Quantile(SliceQuantiles(lag_slices, 0.99), 0.5);
  result_.info["lag_p50_ms_whole_window"] = Quantile(lag_ms, 0.50);
  result_.info["lag_p99_ms_whole_window"] = Quantile(lag_ms, 0.99);
  result_.info["lag_samples"] = static_cast<double>(lag_ms.size());
  result_.info["open_window_s"] = window_seconds;
  result_.info["open_writes"] = static_cast<double>(writes_ok);
  // The TM's own commit -> completion histogram, for the lag agreement test.
  for (const obs::HistogramPoint& point : metrics_after.histograms) {
    if (point.name == obs::kStageLatency && !point.labels.empty() &&
        point.labels[0].second == obs::kStageE2e) {
      result_.info["tm_e2e_p50_ms"] = point.snapshot.p50 / 1e3;
      result_.info["tm_e2e_p99_ms"] = point.snapshot.p99 / 1e3;
    }
  }

  // Reads.
  std::vector<int64_t> read_at;
  std::vector<double> read_us;
  std::vector<double> select_us;
  int64_t read_failures = 0;
  int64_t blink_gets = 0;
  int64_t blink_lookups = 0;
  std::string first_read_error;
  std::vector<int64_t> all_read_at;
  std::vector<double> all_read_us;
  for (ReaderStats& stats : reader_stats) {
    all_read_at.insert(all_read_at.end(), stats.start_us.begin(), stats.start_us.end());
    all_read_us.insert(all_read_us.end(), stats.latency_us.begin(), stats.latency_us.end());
    for (size_t i = 0; i < stats.start_us.size(); ++i) {
      if (stats.start_us[i] < window_start) continue;
      read_at.push_back(stats.start_us[i]);
      read_us.push_back(stats.latency_us[i]);
      select_us.push_back(stats.select_us[i]);
    }
    read_failures += stats.failed;
    blink_gets += stats.blink_gets;
    blink_lookups += stats.blink_lookups;
    if (first_read_error.empty()) first_read_error = stats.first_error;
  }
  const double reads_ok = static_cast<double>(read_us.size());
  result_.attempted += static_cast<int64_t>(all_read_us.size()) + read_failures;
  if (read_failures > 0) {
    Problem("open loop: " + std::to_string(read_failures) +
                " replica reads failed: " + first_read_error,
            read_failures);
  }
  result_.series["read_p99_us_per_slice"] = SliceQuantiles(
      Slices(all_read_at, all_read_us, loop_start, kSliceMicros, all_slices), 0.99);
  const std::vector<std::vector<double>> read_slices =
      Slices(read_at, read_us, window_start, kSliceMicros, slices);
  const double read_p50 = Quantile(SliceQuantiles(read_slices, 0.50), 0.5);
  result_.e2e["read_p50_us"] = read_p50;
  result_.e2e["read_p99_us"] = Quantile(SliceQuantiles(read_slices, 0.99), 0.5);
  std::vector<double> read_rates;
  for (const std::vector<double>& samples : read_slices) {
    read_rates.push_back(static_cast<double>(samples.size()) * 1e6 /
                         static_cast<double>(kSliceMicros));
  }
  result_.e2e["read_tps"] = Quantile(read_rates, 0.5);
  result_.info["read_p50_us_whole_window"] = Quantile(read_us, 0.50);
  result_.info["read_p99_us_whole_window"] = Quantile(read_us, 0.99);
  result_.info["read_tps_whole_window"] = Ratio(reads_ok, window_seconds);
  result_.info["read_samples"] = reads_ok;

  // Layers seen from the open-loop phase.
  const double select_p50 = Quantile(select_us, 0.50);
  result_.layer["qt.select_direct_us"] = select_p50;
  result_.layer["core.readonly_wait_us"] = read_p50 - select_p50;
  result_.layer["rel.commit_us"] = Quantile(commit_us, 0.50);
  result_.layer["gen.late_p99_us"] = Quantile(late_us, 0.99);
  std::vector<double> deliver(deliver_us.begin(), deliver_us.end());
  result_.layer["mw.deliver_us"] = Quantile(deliver, 0.50);
  result_.layer["mw.txns_per_msg"] =
      Ratio(static_cast<double>(deliver_us.size()), static_cast<double>(messages));
  if (options_.trace) {
    const LayerTotals& get = spans[static_cast<size_t>(Layer::kKvGet)];
    const LayerTotals& mwrite = spans[static_cast<size_t>(Layer::kKvMultiWrite)];
    const LayerTotals& select = spans[static_cast<size_t>(Layer::kQtSelect)];
    result_.layer["kv.get_us"] =
        Ratio(static_cast<double>(get.total_ns) / 1e3, static_cast<double>(get.count));
    result_.layer["kv.multiwrite_us"] = Ratio(
        static_cast<double>(mwrite.total_ns) / 1e3, static_cast<double>(mwrite.count));
    result_.layer["kv.batch_size"] = Ratio(
        static_cast<double>(timed->multiwrite_entries()), static_cast<double>(mwrite.count));
    result_.layer["qt.select_self_us"] = Ratio(
        static_cast<double>(select.self_ns) / 1e3, static_cast<double>(select.count));
    const auto [wait_sum_after, wait_n_after] =
        SumHistograms(metrics_after, obs::kKvQueueWait);
    const auto [wait_sum_before, wait_n_before] =
        SumHistograms(metrics_before, obs::kKvQueueWait);
    result_.layer["kv.queue_wait_us"] =
        Ratio(static_cast<double>(wait_sum_after - wait_sum_before),
              static_cast<double>(wait_n_after - wait_n_before));
    result_.layer["blink.gets_per_lookup"] =
        Ratio(static_cast<double>(blink_gets), static_cast<double>(blink_lookups));
    result_.layer["blink.read_retries_per_read"] =
        Ratio(static_cast<double>(SumCounters(metrics_after, obs::kBlinkReadRetries) -
                                  SumCounters(metrics_before, obs::kBlinkReadRetries)),
              reads_ok);
  }

  const kv::StoreDump reference = SerialReference(
      snapshot_db_.get(), db.catalog(),
      db.log().ReadSince(replica.population_lsn));
  Gate("open loop", *replica.cluster, reference, db);
}

void Run::QtPass() {
  kv::KvCluster cluster(txrep::bench::DefaultCluster());
  qt::QueryTranslator translator(&snapshot_db_->catalog());
  Check(translator.LoadSnapshot(&cluster, *snapshot_db_), "qt pass snapshot");
  TimedStore timed(&cluster);
  const size_t n = std::min(backlog_.size(), kQtPassTxns);
  const LayerSnapshot before = SpanRecorder::Get().Totals();
  int64_t kv_ops = 0;
  for (size_t i = 0; i < n; ++i) {
    core::TxnBuffer buffer(&timed);
    {
      ScopedSpan span(Layer::kQtTranslate, backlog_[i].lsn);
      Check(translator.ApplyTransaction(&buffer, backlog_[i]), "qt pass translate");
    }
    kv_ops += static_cast<int64_t>(buffer.read_set().size() + buffer.WriteCount());
    Check(buffer.ApplyTo(&timed), "qt pass apply");
  }
  const LayerSnapshot spans = Diff(SpanRecorder::Get().Totals(), before);
  const LayerTotals& translate = spans[static_cast<size_t>(Layer::kQtTranslate)];
  result_.layer["qt.translate_us_per_txn"] =
      Ratio(static_cast<double>(translate.self_ns) / 1e3, static_cast<double>(n));
  result_.layer["qt.kv_ops_per_txn"] =
      Ratio(static_cast<double>(kv_ops), static_cast<double>(n));
}

void Run::CodecPass() {
  const size_t batch = mw::PublisherOptions{}.batch_size;
  const LayerSnapshot before = SpanRecorder::Get().Totals();
  int64_t txns = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (size_t i = 0; i < backlog_.size(); i += batch) {
      const std::vector<rel::LogTransaction> chunk(
          backlog_.begin() + static_cast<std::ptrdiff_t>(i),
          backlog_.begin() + static_cast<std::ptrdiff_t>(std::min(i + batch, backlog_.size())));
      std::string bytes;
      {
        ScopedSpan span(Layer::kCodecEncode, chunk.front().lsn);
        bytes = txrep::codec::EncodeLogBatch(chunk);
      }
      ScopedSpan span(Layer::kCodecDecode, chunk.front().lsn);
      Result<std::vector<rel::LogTransaction>> decoded =
          txrep::codec::DecodeLogBatch(bytes);
      if (!decoded.ok() || decoded->size() != chunk.size()) {
        Problem("codec round trip: " + decoded.status().ToString());
      }
      txns += static_cast<int64_t>(chunk.size());
    }
  }
  const LayerSnapshot spans = Diff(SpanRecorder::Get().Totals(), before);
  result_.layer["codec.encode_ns_per_txn"] = Ratio(
      static_cast<double>(spans[static_cast<size_t>(Layer::kCodecEncode)].total_ns),
      static_cast<double>(txns));
  result_.layer["codec.decode_ns_per_txn"] = Ratio(
      static_cast<double>(spans[static_cast<size_t>(Layer::kCodecDecode)].total_ns),
      static_cast<double>(txns));
}

RunResult Run::Go() {
  const CpuTimes cpu_at_start = ReadCpuTimes();
  if (options_.trace) SpanRecorder::Get().Enable(kRawSpans);
  result_.layer["kv.service_overshoot_us"] = IdleServiceOvershootMicros();

  int64_t phase_start = NowMicros();
  auto phase_done = [&](const char* name) {
    const int64_t now = NowMicros();
    result_.info[std::string("phase_s.") + name] =
        static_cast<double>(now - phase_start) / 1e6;
    phase_start = now;
  };
  BuildBacklog();
  phase_done("backlog");

  // Replica bring-ups. setup_s is the median over every bring-up, including
  // the ones that serve the phases below.
  auto setup_round = [&] {
    double spent = 0;
    for (int i = 0; i < kMinSetupsPerRound || spent < kMinSetupSecondsPerRound;
         ++i) {
      Setup();
      spent += setup_samples_.back();
    }
  };
  setup_round();
  phase_done("setup");
  // The open loop runs before the catch-up: after the catch-up's 40 busy TM
  // threads, the loop's first seconds had the slowest tails of the window.
  {
    Replica replica = Setup();
    OpenLoop(replica);
  }
  phase_done("open_loop");
  setup_round();
  {
    Replica tm_replica = Setup();
    Replica serial_replica = Setup();
    catchup_reference_ =
        SerialReference(snapshot_db_.get(), snapshot_db_->catalog(), backlog_);
    phase_done("catchup_setup");
    Catchup(tm_replica, serial_replica);
  }
  phase_done("catchup");
  setup_round();
  phase_done("setup_late");
  if (options_.trace) {
    QtPass();
    CodecPass();
    const LayerSnapshot totals = SpanRecorder::Get().Totals();
    for (size_t i = 0; i < kNumLayers; ++i) {
      result_.layer[std::string("self.") + LayerName(static_cast<Layer>(i)) +
                    "_ms"] = static_cast<double>(totals[i].self_ns) / 1e6;
    }
    if (!options_.dump_prefix.empty()) {
      Check(SpanRecorder::Get().DumpChromeJson(options_.dump_prefix +
                                               ".spans.json"),
            "span dump");
    }
  }

  result_.e2e["setup_s"] = Quantile(setup_samples_, 0.5);
  result_.series["setup_s"] = setup_samples_;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  result_.e2e["peak_rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
  result_.info["failed_frac"] = Ratio(static_cast<double>(result_.failed),
                                      static_cast<double>(result_.attempted));
  const CpuTimes cpu_at_end = ReadCpuTimes();
  result_.info["cpu_steal_pct"] =
      100 * Ratio(static_cast<double>(cpu_at_end.steal - cpu_at_start.steal),
                  static_cast<double>(cpu_at_end.total - cpu_at_start.total));
  return result_;
}

}  // namespace

RunResult RunWorkload(const RunOptions& options) { return Run(options).Go(); }

}  // namespace perfbench
