#include "check/schedule_explorer.h"

#include <atomic>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "blink/blink_tree.h"
#include "check/invariants.h"
#include "codec/kv_keys.h"
#include "codec/schema_codec.h"
#include "common/clock.h"
#include "common/random.h"
#include "core/batch_dispatcher.h"
#include "core/serial_applier.h"
#include "core/transaction_manager.h"
#include "kv/inmemory_node.h"
#include "kv/kv_cluster.h"
#include "mw/broker.h"
#include "mw/publisher.h"
#include "net/endpoint.h"
#include "net/socket.h"
#include "qt/query_translator.h"
#include "recov/checkpoint.h"
#include "recov/io.h"
#include "rel/database.h"
#include "rel/statement.h"
#include "trace/tracer.h"
#include "txrep/remote_replica.h"
#include "workload/tpcc.h"

namespace txrep::check {

namespace {

using rel::Value;

/// Apply-target knobs of the batched-apply axis.
struct BatchConfig {
  int batch_size;
  bool adaptive;
  int num_nodes;
  int dispatch_threads;  // 0 = inline sequential fan-out.
};

/// Crash-restart axis: the crash LSN is 1 + point % last_lsn; fault_kind 0
/// checkpoints cleanly, 1 tears a manifest first, 2 crashes between
/// snapshot files first.
struct CrashConfig {
  uint64_t point;
  uint64_t fault_kind;
};

/// Wire axis: queue/credit/batch bounds and the kill point
/// (1 + kill_point % last_lsn) and side.
struct WireConfig {
  size_t session_queue_capacity;
  size_t send_queue_capacity;
  size_t initial_credits;
  size_t subscription_queue_capacity;
  int replica_nodes;
  size_t publish_batch;
  uint64_t kill_point;
  bool server_side_kill;
};

/// Opt-latch axis: the share of read-only slots that become B-link probes,
/// and the hammer's store jitter, seed population and thread counts.
struct OptLatchConfig {
  double probe_rate;
  int64_t hammer_service_micros;
  int initial_entries;
  int writers;
  int readers;
};

/// Everything one seed determines. Deriving the whole configuration from the
/// seed keeps a failure reproducible from its seed alone.
struct ScheduleConfig {
  // Workload: TPC-C-lite when `tpcc` is set, else the synthetic table.
  int txns;
  int hot_rows;
  std::optional<workload::TpccOptions> tpcc;
  // TM and store knobs.
  int threads;
  int64_t service_micros;
  double failure_rate;
  uint64_t failure_seed;
  size_t gc_threshold;
  bool buffer_read_cache;
  size_t max_node_keys;
  double read_only_rate;
  // Phases and variants (the ScheduleAxis draws).
  std::optional<BatchConfig> batch;  // Unset: one InMemoryKvNode.
  uint64_t trace_every = 0;          // 0: untraced.
  std::optional<CrashConfig> crash;
  std::optional<WireConfig> wire;
  std::optional<OptLatchConfig> opt_latch;

  uint32_t axes() const {
    return (tpcc ? kAxisTpcc : 0u) | (batch ? kAxisBatchedApply : 0u) |
           (crash ? kAxisCrashRestart : 0u) |
           (trace_every > 0 ? kAxisTraced : 0u) |
           (opt_latch ? kAxisOptLatch : 0u) | (wire ? kAxisWire : 0u);
  }
};

/// Axis membership is striped over the seed: an axis is on iff
/// seed % period < on. The periods (3, 7, 8, 11, 17, 19) are pairwise
/// coprime, so every combination of axes recurs, every pair of axes meets
/// within 17·19 = 323 consecutive seeds, and any run of consecutive seeds
/// hits each axis at its rate to within one period — the sweep's coverage
/// floors hold on every shard of it. The knobs inside an axis are drawn at
/// random.
bool Striped(uint64_t seed, uint64_t period, uint64_t on) {
  return seed % period < on;
}

workload::TpccOptions DeriveTpccOptions(Random& rng) {
  workload::TpccOptions options;
  options.seed = rng.NextUint64();
  options.scale.warehouses = 1 + static_cast<int>(rng.Uniform(3));
  options.scale.districts_per_warehouse = 2 + static_cast<int>(rng.Uniform(3));
  options.scale.customers_per_district = 4 + static_cast<int>(rng.Uniform(8));
  options.scale.items = 8 + static_cast<int>(rng.Uniform(16));
  options.scale.initial_orders_per_district =
      1 + static_cast<int>(rng.Uniform(3));
  options.scale.max_order_lines = 2 + static_cast<int>(rng.Uniform(4));
  options.warehouse_zipf_theta =
      rng.Bernoulli(0.5) ? 0.0 : 0.5 + 0.4 * rng.NextDouble();
  options.remote_line_fraction = 0.3 * rng.NextDouble();
  // Randomized NewOrder/Payment split; the explorer replays the update log,
  // so the read transactions stay out of the stream.
  options.mix.new_order = 30 + static_cast<int>(rng.Uniform(40));
  options.mix.payment = 30 + static_cast<int>(rng.Uniform(40));
  options.mix.order_status = 0;
  options.mix.stock_level = 0;
  return options;
}

/// The one derivation: every knob and every axis of the schedule comes from
/// `seed` (axis membership) and `rng`, which is seeded with it (knobs).
ScheduleConfig DeriveConfig(uint64_t seed, Random& rng) {
  ScheduleConfig config;
  config.txns = 15 + static_cast<int>(rng.Uniform(16));
  config.hot_rows = 1 + static_cast<int>(rng.Uniform(8));
  config.threads = 1 + static_cast<int>(rng.Uniform(8));
  // Most schedules run at memory speed (tight interleavings); some add
  // service-time jitter so apply-stage overlap gets explored too.
  config.service_micros =
      rng.Bernoulli(0.3) ? static_cast<int64_t>(rng.Uniform(40)) : 0;
  // Occasional transient failures exercise the execution-restart path.
  config.failure_rate = rng.Bernoulli(0.25) ? 0.02 : 0.0;
  config.failure_seed = rng.NextUint64();
  config.gc_threshold = 1 + rng.Uniform(32);  // Small: GC races with commits.
  config.buffer_read_cache = rng.Bernoulli(0.8);
  config.max_node_keys = 4 + rng.Uniform(8);
  config.read_only_rate = rng.Bernoulli(0.5) ? 0.2 : 0.0;

  if (Striped(seed, 3, 2)) config.tpcc = DeriveTpccOptions(rng);
  if (Striped(seed, 7, 6)) {
    config.batch = BatchConfig{
        .batch_size = 1 + static_cast<int>(rng.Uniform(64)),
        .adaptive = rng.Bernoulli(0.3),
        .num_nodes = 1 + static_cast<int>(rng.Uniform(5)),
        .dispatch_threads = static_cast<int>(rng.Uniform(5))};
  }
  if (Striped(seed, 8, 5)) {
    config.crash = CrashConfig{.point = rng.NextUint64(),
                               .fault_kind = rng.Uniform(3)};
  }
  if (Striped(seed, 11, 3)) config.trace_every = 1 + rng.Uniform(4);
  if (Striped(seed, 19, 4)) {
    config.opt_latch = OptLatchConfig{
        .probe_rate = 0.1 + 0.3 * rng.NextDouble(),
        // Service-time jitter is what creates reader/writer overlap on small
        // machines: a GET that sleeps mid-traversal gives writers time to
        // split the node under the reader's version snapshot.
        .hammer_service_micros = static_cast<int64_t>(rng.Uniform(16)),
        .initial_entries = 32 + static_cast<int>(rng.Uniform(33)),
        .writers = 1 + static_cast<int>(rng.Uniform(2)),
        .readers = 2 + static_cast<int>(rng.Uniform(3))};
  }
  if (Striped(seed, 17, 4)) {
    // Small bounds so the credit/queue backpressure machinery actually
    // engages inside the schedule.
    config.wire = WireConfig{
        .session_queue_capacity = 1 + rng.Uniform(8),
        .send_queue_capacity = 1 + rng.Uniform(8),
        .initial_credits = 1 + rng.Uniform(8),
        .subscription_queue_capacity = rng.Uniform(4),
        .replica_nodes = 1 + static_cast<int>(rng.Uniform(4)),
        .publish_batch = 1 + rng.Uniform(8),
        .kill_point = rng.NextUint64(),
        .server_side_kill = rng.Bernoulli(0.5)};
  }
  return config;
}

constexpr std::pair<ScheduleAxis, const char*> kAxisNames[] = {
    {kAxisTpcc, "tpcc"},          {kAxisBatchedApply, "batched"},
    {kAxisCrashRestart, "crash"}, {kAxisTraced, "traced"},
    {kAxisOptLatch, "opt_latch"}, {kAxisWire, "wire"}};

/// Names of the axes in `axes`, e.g. "tpcc crash wire".
std::string DescribeAxes(uint32_t axes) {
  std::string out;
  for (const auto& [axis, name] : kAxisNames) {
    if ((axes & axis) == 0) continue;
    if (!out.empty()) out += ' ';
    out += name;
  }
  return out.empty() ? "no axes" : out;
}

core::BatchDispatchOptions ToDispatchOptions(const BatchConfig& config) {
  core::BatchDispatchOptions options;
  options.batch_size = config.batch_size;
  options.adaptive = config.adaptive;
  return options;
}

/// Generates the seed's workload into `db`: a table with one hash and one
/// range index (so index maintenance joins every conflict set), a seed
/// population, then randomized multi-statement transactions concentrated on
/// the hot rows.
Status GenerateWorkload(rel::Database& db, Random& rng,
                        const ScheduleConfig& config) {
  TXREP_ASSIGN_OR_RETURN(
      rel::TableSchema schema,
      rel::TableSchema::Create("S",
                               {{"ID", rel::ValueType::kInt64},
                                {"VAL", rel::ValueType::kInt64},
                                {"COST", rel::ValueType::kDouble}},
                               "ID"));
  TXREP_RETURN_IF_ERROR(db.CreateTable(std::move(schema)));
  TXREP_RETURN_IF_ERROR(db.CreateHashIndex("S", "COST"));
  TXREP_RETURN_IF_ERROR(db.CreateRangeIndex("S", "COST"));

  std::set<int64_t> live;
  int64_t next_id = 1;
  for (int i = 0; i < config.hot_rows; ++i) {
    const int64_t id = next_id++;
    TXREP_RETURN_IF_ERROR(
        db.ExecuteTransaction(
              {rel::InsertStatement{
                  "S",
                  {},
                  {Value::Int(id), Value::Int(0),
                   Value::Real(static_cast<double>(rng.Uniform(10)))}}})
            .status());
    live.insert(id);
  }

  auto random_live = [&]() -> int64_t {
    auto it = live.lower_bound(
        static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(next_id))));
    if (it == live.end()) it = live.begin();
    return *it;
  };

  for (int t = 0; t < config.txns; ++t) {
    std::vector<rel::Statement> statements;
    const int ops = 1 + static_cast<int>(rng.Uniform(3));
    for (int o = 0; o < ops; ++o) {
      const uint64_t pick = rng.Uniform(10);
      if (pick < 3 || live.empty()) {
        const int64_t id = next_id++;
        statements.push_back(rel::InsertStatement{
            "S",
            {},
            {Value::Int(id), Value::Int(static_cast<int64_t>(t)),
             Value::Real(static_cast<double>(rng.Uniform(10)))}});
        live.insert(id);
      } else if (pick < 8) {
        statements.push_back(rel::UpdateStatement{
            "S",
            {{"VAL", Value::Int(static_cast<int64_t>(rng.Uniform(1000)))},
             {"COST", Value::Real(static_cast<double>(rng.Uniform(10)))}},
            {rel::Predicate{"ID", rel::PredicateOp::kEq,
                            Value::Int(random_live()),
                            {}}}});
      } else {
        const int64_t id = random_live();
        statements.push_back(rel::DeleteStatement{
            "S",
            {rel::Predicate{"ID", rel::PredicateOp::kEq, Value::Int(id), {}}}});
        live.erase(id);
      }
    }
    TXREP_RETURN_IF_ERROR(db.ExecuteTransaction(statements).status());
  }
  return Status::OK();
}

/// Read-only transaction body: probes a row object through the buffered
/// view. NotFound is a legal answer (the row may not exist at this sequence
/// point); the probe exists to push read/write conflict edges into the
/// schedule, not to assert content.
core::Transaction::Body MakeReadOnlyProbe(std::string key) {
  return [key = std::move(key)](kv::KvStore* view) -> Status {
    Result<kv::Value> value = view->Get(key);
    if (!value.ok() && value.status().IsNotFound()) return Status::OK();
    return value.status();
  };
}

/// Read-only transaction body for opt_latch mode: builds an ephemeral
/// BlinkTree over the buffered view and runs a full range scan of the "S"
/// range index, so the optimistic read path faces the torn cross-key
/// snapshots a transaction buffer can serve. The scan must come back
/// strictly sorted (a duplicate means a split was double-emitted); Aborted
/// is legal — a wedged snapshot is exactly what the bounded retries are for,
/// and the TM's restart machinery re-executes against fresher state.
core::Transaction::Body MakeBlinkProbe(size_t max_node_keys,
                                       std::string table, std::string column) {
  return [max_node_keys, table = std::move(table),
          column = std::move(column)](kv::KvStore* view) -> Status {
    blink::BlinkTreeOptions tree_options;
    tree_options.max_node_keys = max_node_keys;
    // Keep the bounded waits short: against a stale buffered snapshot the
    // retries can never succeed, and the TM is waiting on this body.
    tree_options.max_parent_retries = 4;
    tree_options.max_read_restarts = 8;
    blink::BlinkTree tree(view, table, column, tree_options);
    TXREP_ASSIGN_OR_RETURN(std::vector<blink::EntryKey> entries,
                           tree.RangeScanBounds(std::nullopt, std::nullopt));
    for (size_t i = 0; i + 1 < entries.size(); ++i) {
      if (!(entries[i] < entries[i + 1])) {
        return Status::FailedPrecondition(
            "blink probe: unsorted or duplicated scan at index " +
            std::to_string(i));
      }
    }
    return Status::OK();
  };
}

std::string DiffDumps(const kv::StoreDump& serial,
                      const kv::StoreDump& concurrent) {
  if (serial.size() != concurrent.size()) {
    return "replica size diverged: serial=" + std::to_string(serial.size()) +
           " concurrent=" + std::to_string(concurrent.size());
  }
  for (size_t i = 0; i < serial.size(); ++i) {
    if (serial[i].first != concurrent[i].first) {
      return "key set diverged at index " + std::to_string(i) + ": serial \"" +
             serial[i].first + "\" vs concurrent \"" + concurrent[i].first +
             "\"";
    }
    if (serial[i].second != concurrent[i].second) {
      return "value diverged for key \"" + serial[i].first + "\"";
    }
  }
  return {};
}

/// Opt-latch hammer: reader threads run scans / lookups / counts through one
/// shared BlinkTree on a scratch store while writer threads insert through
/// the tree and a BatchDispatcher applies row noise beside it; ends with the
/// structural + latch audits and an exact entry count. Adds the tree's read
/// events to `blink_read_events`.
Status RunOptLatchHammer(const ScheduleConfig& config,
                         int64_t* blink_read_events) {
  const OptLatchConfig& hammer = *config.opt_latch;
  kv::KvNodeOptions node_options;
  node_options.service_time_micros = hammer.hammer_service_micros;
  kv::InMemoryKvNode store(node_options);

  blink::BlinkTreeOptions tree_options;
  tree_options.max_node_keys = config.max_node_keys;
  blink::BlinkTree tree(&store, "S", "COST", tree_options);
  TXREP_RETURN_IF_ERROR(tree.Init());

  // Seed population at even values; writers insert odd values, so readers
  // can assert every seed entry stays visible throughout.
  const int initial = hammer.initial_entries;
  for (int i = 0; i < initial; ++i) {
    TXREP_RETURN_IF_ERROR(
        tree.Insert(Value::Int(2 * i), "seed-" + std::to_string(i)));
  }

  const int writers = hammer.writers;
  const int readers = hammer.readers;
  constexpr int kInsertsPerWriter = 24;
  std::atomic<int> writers_live{writers};
  // Per-thread result slots: no shared mutable state between hammer threads
  // beyond the tree and the store themselves.
  std::vector<Status> writer_status(writers);
  std::vector<Status> reader_status(readers);
  std::vector<std::thread> threads;
  threads.reserve(writers + readers);

  core::BatchDispatcher dispatcher;
  for (int w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      const std::string tag = std::string("w") + std::to_string(w);
      Status status;
      for (int k = 0; k < kInsertsPerWriter && status.ok(); ++k) {
        const int64_t value =
            2 * static_cast<int64_t>(initial + k * writers + w) + 1;
        status = tree.Insert(Value::Int(value), tag);
        if (status.ok() && k % 4 == 0) {
          // Row noise beside the tree: the batched apply path writing the
          // same store the readers traverse, like the TM's bottom pool
          // would during sustained apply.
          std::vector<kv::KvWrite> noise;
          for (int n = 0; n < 8; ++n) {
            noise.push_back(kv::KvWrite::Put(
                "noise/w" + std::to_string(w) + "/" +
                    std::to_string(k * 8 + n),
                "x"));
          }
          status = dispatcher.Dispatch(&store, noise);
        }
      }
      writer_status[w] = status;
      writers_live.fetch_sub(1, std::memory_order_release);
    });
  }
  for (int r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      Status status;  // First failure ends the loop.
      do {
        Result<std::vector<blink::EntryKey>> scan =
            tree.RangeScanBounds(std::nullopt, std::nullopt);
        if (!scan.ok()) {
          status = scan.status();
          break;
        }
        if (scan->size() < static_cast<size_t>(initial)) {
          status = Status::FailedPrecondition(
              "hammer scan lost seed entries: " +
              std::to_string(scan->size()) + " < " + std::to_string(initial));
          break;
        }
        for (size_t i = 0; i + 1 < scan->size() && status.ok(); ++i) {
          if (!((*scan)[i] < (*scan)[i + 1])) {
            status = Status::FailedPrecondition(
                "hammer scan unsorted or duplicated at index " +
                std::to_string(i));
          }
        }
        if (!status.ok()) break;
        Result<bool> present =
            tree.Contains(Value::Int(2 * r), "seed-" + std::to_string(r));
        if (!present.ok()) {
          status = present.status();
          break;
        }
        if (!*present) {
          status = Status::FailedPrecondition(
              "hammer lookup lost seed entry " + std::to_string(2 * r));
          break;
        }
        Result<size_t> count = tree.EntryCount();
        if (!count.ok()) {
          status = count.status();
          break;
        }
        if (*count < static_cast<size_t>(initial)) {
          status = Status::FailedPrecondition(
              "hammer count below seed population: " +
              std::to_string(*count) + " < " + std::to_string(initial));
          break;
        }
      } while (writers_live.load(std::memory_order_acquire) > 0);
      reader_status[r] = status;
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& status : writer_status) TXREP_RETURN_IF_ERROR(status);
  for (const Status& status : reader_status) TXREP_RETURN_IF_ERROR(status);

  // Quiesced audits: structure, latch words, and exact accounting (every
  // insert landed exactly once — the split-safe count must agree).
  TXREP_RETURN_IF_ERROR(tree.Validate());
  TXREP_RETURN_IF_ERROR(tree.AuditLatches());
  TXREP_ASSIGN_OR_RETURN(size_t count, tree.EntryCount());
  const size_t expected =
      static_cast<size_t>(initial) +
      static_cast<size_t>(writers) * static_cast<size_t>(kInsertsPerWriter);
  if (count != expected) {
    return Status::FailedPrecondition(
        "hammer entry count " + std::to_string(count) + " != expected " +
        std::to_string(expected));
  }
  for (int i = 0; i < initial; ++i) {
    TXREP_ASSIGN_OR_RETURN(
        bool present,
        tree.Contains(Value::Int(2 * i), "seed-" + std::to_string(i)));
    if (!present) {
      return Status::FailedPrecondition("hammer lost seed entry " +
                                        std::to_string(2 * i));
    }
  }

  const blink::BlinkTreeStats tree_stats = tree.stats();
  *blink_read_events += tree_stats.read_retries + tree_stats.read_spins +
                        tree_stats.move_rights + tree_stats.read_restarts;
  return Status::OK();
}

/// Crash-restart phase: a TM applies LSNs [1, crash_lsn] and checkpoints
/// (after the drawn protocol fault, if any), the live replica vanishes, and
/// a fresh one recovers from `dir` plus the log tail; it must byte-equal
/// `serial_dump`.
Status RunCrashRestart(const ScheduleConfig& config, const std::string& dir,
                       rel::Database& db, const qt::QueryTranslator& translator,
                       const kv::StoreDump& serial_dump) {
  const uint64_t last_lsn = db.log().LastLsn();
  if (last_lsn == 0) return Status::OK();
  TXREP_RETURN_IF_ERROR(recov::RemoveDirRecursive(dir));
  TXREP_RETURN_IF_ERROR(recov::EnsureDir(dir));
  const uint64_t crash_lsn = 1 + config.crash->point % last_lsn;
  core::BatchDispatchOptions dispatch;
  if (config.batch) dispatch = ToDispatchOptions(*config.batch);

  {
    kv::InMemoryKvNode store;
    TXREP_RETURN_IF_ERROR(translator.InitializeIndexes(&store));
    core::TmOptions tm_options;
    tm_options.top_threads = 2;
    tm_options.bottom_threads = 2;
    if (config.batch) tm_options.apply_batch = dispatch;
    core::TransactionManager tm(&store, &translator, tm_options);
    for (rel::LogTransaction& txn : db.log().ReadSince(0, crash_lsn)) {
      tm.SubmitUpdate(std::move(txn));
    }
    TXREP_RETURN_IF_ERROR(tm.WaitIdle());
    if (tm.last_applied_lsn() != crash_lsn) {
      return Status::Internal(
          "TM applied prefix ends at " +
          std::to_string(tm.last_applied_lsn()) + ", expected " +
          std::to_string(crash_lsn));
    }

    recov::CheckpointWriter writer(dir);
    // Some schedules first suffer a checkpoint attempt that dies mid-write
    // (torn manifest, or a crash between snapshot files). Recovery below
    // must ignore its debris.
    if (config.crash->fault_kind != 0 && crash_lsn > 1) {
      recov::CheckpointFaults faults;
      if (config.crash->fault_kind == 1) {
        faults.tear_manifest = true;
      } else {
        faults.fail_after_files = 0;
      }
      writer.set_faults(faults);
      Result<recov::CheckpointStats> faulted =
          writer.Write(crash_lsn - 1, std::vector<kv::KvStore*>{&store});
      if (faulted.ok()) {
        return Status::Internal("injected checkpoint fault did not fail");
      }
      writer.set_faults(recov::CheckpointFaults{});
    }
    TXREP_RETURN_IF_ERROR(
        writer.Write(crash_lsn, std::vector<kv::KvStore*>{&store}).status());
  }  // <- crash: the live store and TM are gone; only `dir` survives.

  // Restart: a process-equivalent recovers from the newest usable
  // checkpoint and replays the log tail serially.
  TXREP_ASSIGN_OR_RETURN(recov::LoadedCheckpoint checkpoint,
                         recov::LoadLatestCheckpoint(dir, nullptr));
  if (checkpoint.manifest.snapshot_epoch != crash_lsn) {
    return Status::Internal(
        "recovery picked epoch " +
        std::to_string(checkpoint.manifest.snapshot_epoch) + ", expected " +
        std::to_string(crash_lsn));
  }
  kv::InMemoryKvNode recovered;
  TXREP_RETURN_IF_ERROR(recov::InstallCheckpoint(
      checkpoint, std::vector<kv::KvStore*>{&recovered}));
  std::vector<rel::LogTransaction> tail =
      db.log().ReadSince(checkpoint.manifest.snapshot_epoch);
  if (!tail.empty() &&
      tail.front().lsn != checkpoint.manifest.snapshot_epoch + 1) {
    return Status::Corruption(
        "log tail gap after epoch " +
        std::to_string(checkpoint.manifest.snapshot_epoch));
  }
  core::SerialApplier tail_applier(&recovered, &translator, /*metrics=*/nullptr,
                                   dispatch);
  TXREP_RETURN_IF_ERROR(tail_applier.ApplyBatch(tail));

  const std::string diff = DiffDumps(serial_dump, recovered.Dump());
  if (!diff.empty()) {
    return Status::FailedPrecondition(
        "crash-restart replica diverged from serial replay: " + diff);
  }
  return recov::RemoveDirRecursive(dir);
}

/// Wire phase: replay the log over a socketpair into a RemoteReplica
/// (catalog over the wire), kill the connection mid-stream, and compare the
/// reconnected replica against `serial_dump`.
Status RunWire(const ScheduleConfig& config, rel::Database& db,
               const kv::StoreDump& serial_dump) {
  const uint64_t last_lsn = db.log().LastLsn();
  if (last_lsn == 0) return Status::OK();
  const WireConfig& wire = *config.wire;

  mw::Broker broker;
  net::EndpointOptions endpoint_options;
  // Retention must span the whole log: the remote replica bootstraps from
  // LSN 0 and the post-kill resume replays retained batches.
  endpoint_options.retention_capacity = 4096;
  endpoint_options.session_queue_capacity = wire.session_queue_capacity;
  endpoint_options.transport.send_queue_capacity = wire.send_queue_capacity;
  net::NetEndpoint endpoint(&broker, endpoint_options);
  endpoint.SetCatalog(codec::EncodeCatalog(db.catalog()));
  // Unwind order: the broker's delivery thread calls into the endpoint
  // (fanout) and can block on a session queue — end the sessions, then the
  // broker, before either object dies.
  struct Teardown {
    net::NetEndpoint* endpoint;
    mw::Broker* broker;
    ~Teardown() {
      endpoint->Stop();
      broker->Shutdown();
    }
  } teardown{&endpoint, &broker};

  RemoteReplicaOptions replica_options;
  replica_options.socket_factory = [&endpoint]() -> Result<net::Socket> {
    TXREP_ASSIGN_OR_RETURN(auto pair, net::Socket::CreatePair());
    TXREP_RETURN_IF_ERROR(endpoint.ServeSocket(std::move(pair.first)));
    return std::move(pair.second);
  };
  replica_options.subscription.initial_credits = wire.initial_credits;
  replica_options.subscription.queue_capacity =
      wire.subscription_queue_capacity;
  replica_options.subscription.reconnect_backoff_micros = 1000;
  // Pin the remote B-link layout to the serial one.
  replica_options.blink.max_node_keys = config.max_node_keys;
  replica_options.cluster.num_nodes = wire.replica_nodes;
  RemoteReplica replica(std::move(replica_options));
  TXREP_RETURN_IF_ERROR(replica.Start());

  mw::PublisherOptions publisher_options;
  publisher_options.batch_size = wire.publish_batch;
  mw::PublisherAgent publisher(&db.log(), &broker, publisher_options);

  // First act: ship until the kill point crossed the wire and the replica
  // applied it, then hard-kill the connection from the drawn side.
  const uint64_t drop_lsn = 1 + wire.kill_point % last_lsn;
  while (publisher.shipped_lsn() < drop_lsn) {
    TXREP_RETURN_IF_ERROR(publisher.PumpOnce().status());
  }
  if (!replica.WaitForLsn(drop_lsn)) {
    return Status::Internal("wire replica stopped before the kill point: " +
                            replica.health().ToString());
  }
  if (wire.server_side_kill) {
    endpoint.DropSessions();
  } else {
    replica.subscription()->InjectDisconnect();
  }

  // Second act: ship the rest; the subscriber must reconnect, resume from
  // its high-water LSN, dedup the replayed retention and catch up.
  TXREP_RETURN_IF_ERROR(publisher.PumpAll());
  if (!replica.WaitForLsn(last_lsn)) {
    return Status::Internal("wire replica stopped before catching up: " +
                            replica.health().ToString());
  }
  for (int i = 0; replica.subscription()->connects() < 2 && i < 5000; ++i) {
    SleepForMicros(1000);
  }
  if (replica.subscription()->connects() < 2) {
    return Status::Internal("subscriber never reconnected after the kill");
  }
  TXREP_RETURN_IF_ERROR(replica.health());

  const std::string diff = DiffDumps(serial_dump, replica.cluster().Dump());
  if (!diff.empty()) {
    return Status::FailedPrecondition(
        "wire replay diverged from serial replay: " + diff);
  }
  replica.Stop();
  return Status::OK();
}

/// One schedule: generate the workload, replay it serially and through the
/// TM, compare, audit, then run the drawn phases. Stats go to `report`
/// (null ok).
Status RunSchedule(const ScheduleExplorerOptions& options, uint64_t seed,
                   const ScheduleConfig& config, Random& rng,
                   ScheduleReport* report) {
  if (config.crash && options.scratch_dir.empty()) {
    return Status::InvalidArgument("crash-restart requires scratch_dir");
  }

  rel::Database db;
  std::optional<workload::TpccWorkload> tpcc;
  uint64_t population_lsn = 0;
  if (config.tpcc) {
    tpcc.emplace(*config.tpcc);
    TXREP_RETURN_IF_ERROR(tpcc->CreateSchema(db));
    TXREP_RETURN_IF_ERROR(tpcc->Populate(db));
    population_lsn = db.log().LastLsn();
    TXREP_RETURN_IF_ERROR(tpcc->RunWrites(db, config.txns));
  } else {
    TXREP_RETURN_IF_ERROR(GenerateWorkload(db, rng, config));
  }

  qt::QueryTranslator translator(
      &db.catalog(), {.max_node_keys = config.max_node_keys});

  // Reference: serial replay on a pristine, failure-free store, dispatcher
  // pinned to batch size 1 — op-at-a-time ground truth through the batch API.
  kv::InMemoryKvNode serial_store;
  TXREP_RETURN_IF_ERROR(translator.InitializeIndexes(&serial_store));
  core::SerialApplier serial_applier(&serial_store, &translator,
                                     /*metrics=*/nullptr,
                                     core::BatchDispatchOptions{.batch_size = 1});
  TXREP_RETURN_IF_ERROR(serial_applier.ApplyBatch(db.log().ReadSince(0)));

  // Candidate: concurrent replay with every knob drawn from the seed, into
  // one node or, on the batched axis, a cluster (MultiWrite routing and
  // parallel fan-out join the explored state space).
  kv::KvNodeOptions node_options;
  node_options.service_time_micros = config.service_micros;
  node_options.failure_seed = config.failure_seed;
  std::unique_ptr<kv::InMemoryKvNode> concurrent_node;
  std::unique_ptr<kv::KvCluster> concurrent_cluster;
  kv::KvStore* concurrent_store = nullptr;
  if (config.batch) {
    kv::KvClusterOptions cluster_options;
    cluster_options.num_nodes = config.batch->num_nodes;
    cluster_options.node = node_options;
    cluster_options.dispatch_threads = config.batch->dispatch_threads;
    concurrent_cluster = std::make_unique<kv::KvCluster>(cluster_options);
    concurrent_store = concurrent_cluster.get();
  } else {
    concurrent_node = std::make_unique<kv::InMemoryKvNode>(node_options);
    concurrent_store = concurrent_node.get();
  }
  auto set_failure_rate = [&](double rate) {
    if (concurrent_cluster != nullptr) {
      concurrent_cluster->SetFailureRate(rate);
    } else {
      concurrent_node->set_failure_rate(rate);
    }
  };
  TXREP_RETURN_IF_ERROR(translator.InitializeIndexes(concurrent_store));
  // Inject transient failures only while the TM replays (the restart path
  // under test); index setup above and the audits below must stay clean.
  // The TPC-C bulk-population prefix must also replay clean: its 200-row
  // batches carry hundreds of KV ops per transaction, so any per-op failure
  // rate exhausts every retry budget. The failure window is armed in the
  // submission loop once the population prefix has applied.
  if (population_lsn == 0) set_failure_rate(config.failure_rate);

  core::TmOptions tm_options;
  tm_options.top_threads = config.threads;
  tm_options.bottom_threads = config.threads;
  tm_options.completed_gc_threshold = config.gc_threshold;
  tm_options.buffer_read_cache = config.buffer_read_cache;
  if (config.tpcc) {
    // TPC-C write sets span ~15+ keys across tables and nodes, so the same
    // 2% per-op injected failure rate needs far more retry budget than the
    // single-table workload before a transaction gives up for good.
    tm_options.max_apply_retries = 64;
    tm_options.max_execution_retries = 256;
  }
  if (config.batch) tm_options.apply_batch = ToDispatchOptions(*config.batch);

  // Traced axis: contexts are minted per LSN below, exactly as the log
  // would have carried them.
  std::unique_ptr<trace::Tracer> tracer;
  if (config.trace_every > 0) {
    trace::TracerOptions trace_options;
    trace_options.sample_every = config.trace_every;
    tracer = std::make_unique<trace::Tracer>(trace_options);
  }

  std::vector<std::shared_ptr<core::Transaction>> blink_probes;
  core::TmStats stats;
  {
    core::TransactionManager tm(concurrent_store, &translator, tm_options,
                                /*metrics=*/nullptr, tracer.get());
    const int64_t max_row_id =
        static_cast<int64_t>(config.hot_rows) + config.txns * 3 + 1;
    // Probe targets follow the workload: CUSTOMER rows (and the churning
    // STOCK.S_QUANTITY index) under TPC-C, the synthetic "S" table otherwise.
    auto probe_key = [&]() -> std::string {
      if (tpcc.has_value()) {
        const workload::TpccScale& scale = tpcc->scale();
        const int64_t w =
            1 + static_cast<int64_t>(
                    rng.Uniform(static_cast<uint64_t>(scale.warehouses)));
        const int64_t d = 1 + static_cast<int64_t>(rng.Uniform(
                                  static_cast<uint64_t>(
                                      scale.districts_per_warehouse)));
        const int64_t c =
            1 + static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(
                    scale.customers_per_district)));
        return codec::RowKey(
            "CUSTOMER",
            Value::Int(workload::TpccWorkload::CustomerKey(w, d, c)));
      }
      return codec::RowKey(
          "S", Value::Int(1 + static_cast<int64_t>(rng.Uniform(
                                  static_cast<uint64_t>(max_row_id)))));
    };
    const char* blink_table = tpcc.has_value() ? "STOCK" : "S";
    const char* blink_column = tpcc.has_value() ? "S_QUANTITY" : "COST";
    bool failures_armed = population_lsn == 0;
    for (rel::LogTransaction& txn : db.log().ReadSince(0)) {
      if (!failures_armed && txn.lsn > population_lsn) {
        TXREP_RETURN_IF_ERROR(tm.WaitIdle());
        set_failure_rate(config.failure_rate);
        failures_armed = true;
      }
      if (tracer != nullptr) txn.trace = tracer->Mint(txn.lsn);
      tm.SubmitUpdate(std::move(txn));
      if (config.read_only_rate > 0.0 &&
          rng.Bernoulli(config.read_only_rate)) {
        tm.SubmitReadOnly(MakeReadOnlyProbe(probe_key()));
      }
      if (config.opt_latch && rng.Bernoulli(config.opt_latch->probe_rate)) {
        blink_probes.push_back(tm.SubmitReadOnly(MakeBlinkProbe(
            config.max_node_keys, blink_table, blink_column)));
      }
    }
    TXREP_RETURN_IF_ERROR(tm.WaitIdle());
    TXREP_RETURN_IF_ERROR(tm.CheckInvariants());
    stats = tm.stats();
  }
  set_failure_rate(0.0);

  for (const std::shared_ptr<core::Transaction>& probe : blink_probes) {
    const Status probe_status = probe->Wait();
    // Unavailable (failure injection) and Aborted (wedged optimistic
    // traversal on a stale buffer) are expected terminal states; anything
    // else means the optimistic read path returned wrong data.
    if (!probe_status.ok() && !probe_status.IsUnavailable() &&
        !probe_status.IsAborted()) {
      return Status::FailedPrecondition("blink probe failed: " +
                                        probe_status.ToString());
    }
  }

  const kv::StoreDump serial_dump = serial_store.Dump();
  const std::string diff = DiffDumps(serial_dump, concurrent_store->Dump());
  if (!diff.empty()) {
    return Status::FailedPrecondition(
        "concurrent replay diverged from serial replay: " + diff);
  }

  if (tracer != nullptr) {
    // The workload commits LSNs 1..LastLsn densely, so the period guarantees
    // sampled transactions — an empty recorder means the tracing path was
    // silently bypassed, not that nothing qualified.
    const uint64_t last_lsn = db.log().LastLsn();
    if (last_lsn >= tracer->sample_every() && tracer->Dump().empty()) {
      return Status::Internal(
          "traced schedule recorded no spans (sample_every=" +
          std::to_string(tracer->sample_every()) + ", last_lsn=" +
          std::to_string(last_lsn) + ")");
    }
  }

  // Sampled deep audit (structure + logical content, not just bytes).
  if (options.audit_every > 0 &&
      seed % static_cast<uint64_t>(options.audit_every) == 0) {
    TXREP_RETURN_IF_ERROR(
        CheckReplicaEquivalence(*concurrent_store, db, translator));
    if (report != nullptr) ++report->deep_audits;
  }
  if (report != nullptr) {
    report->transactions_replayed += stats.completed;
    report->conflicts += stats.conflicts;
    report->restarts += stats.restarts;
  }

  if (config.crash) {
    TXREP_RETURN_IF_ERROR(RunCrashRestart(
        config, options.scratch_dir + "/seed-" + std::to_string(seed), db,
        translator, serial_dump));
  }
  if (config.wire) TXREP_RETURN_IF_ERROR(RunWire(config, db, serial_dump));
  if (config.opt_latch) {
    int64_t blink_read_events = 0;
    TXREP_RETURN_IF_ERROR(RunOptLatchHammer(config, &blink_read_events));
    if (report != nullptr) report->blink_read_events += blink_read_events;
  }
  return Status::OK();
}

/// Derives and runs the schedule of `seed`; a failure names the seed and its
/// drawn axes. Stats go to `report` (null ok).
Status ExploreSeed(const ScheduleExplorerOptions& options, uint64_t seed,
                   ScheduleReport* report) {
  Random rng(seed);
  const ScheduleConfig config = DeriveConfig(seed, rng);
  if (report != nullptr) ++report->schedules_by_axes[config.axes()];
  Status status = RunSchedule(options, seed, config, rng, report);
  if (status.ok()) return status;
  return Status(status.code(), "seed " + std::to_string(seed) + " (" +
                                   DescribeAxes(config.axes()) +
                                   "): " + status.message());
}

}  // namespace

ScheduleExplorer::ScheduleExplorer(ScheduleExplorerOptions options)
    : options_(std::move(options)) {}

Status ScheduleExplorer::RunOne(uint64_t seed) {
  return ExploreSeed(options_, seed, nullptr);
}

ScheduleReport ScheduleExplorer::Run() {
  ScheduleReport report;
  for (int i = 0; i < options_.schedules; ++i) {
    const uint64_t seed = options_.base_seed + static_cast<uint64_t>(i);
    Status status = ExploreSeed(options_, seed, &report);
    ++report.schedules_run;
    if (!status.ok()) {
      report.failures.push_back(ScheduleFailure{seed, status.ToString()});
    }
  }
  return report;
}

int ScheduleReport::SchedulesWith(uint32_t axes) const {
  int count = 0;
  for (uint32_t mask = 0; mask < schedules_by_axes.size(); ++mask) {
    if ((mask & axes) == axes) count += schedules_by_axes[mask];
  }
  return count;
}

std::string ScheduleReport::Summary() const {
  std::string summary = "schedules=" + std::to_string(schedules_run) +
                        " txns=" + std::to_string(transactions_replayed) +
                        " conflicts=" + std::to_string(conflicts) +
                        " restarts=" + std::to_string(restarts);
  for (const auto& [axis, name] : kAxisNames) {
    summary += std::string(" ") + name + "=" +
               std::to_string(SchedulesWith(axis));
  }
  summary += " audits=" + std::to_string(deep_audits) +
             " blink_reads=" + std::to_string(blink_read_events) +
             " failures=" + std::to_string(failures.size());
  return summary;
}

}  // namespace txrep::check
