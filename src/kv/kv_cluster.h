#ifndef TXREP_KV_KV_CLUSTER_H_
#define TXREP_KV_KV_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "kv/disk_node.h"
#include "kv/inmemory_node.h"
#include "kv/kv_store.h"

namespace txrep::kv {

/// Which concrete store backs each cluster node.
enum class KvBackend {
  kInMemory,  // InMemoryKvNode — the paper's memcached/Voldemort-in-RAM mode.
  kDisk,      // DiskKvNode — persistent log-structured nodes (paper §1's
              // "data persistence and recovery" flavour).
};

/// Configuration of a partitioned key-value cluster (the replica side's
/// Voldemort stand-in).
struct KvClusterOptions {
  /// Number of nodes; keys are hash-partitioned across them.
  int num_nodes = 5;

  /// Per-node simulation knobs (see KvNodeOptions). In-memory backend only.
  KvNodeOptions node;

  /// Node backend. The disk backend requires `disk_dir` and reports open
  /// failures through KvCluster::init_status().
  KvBackend backend = KvBackend::kInMemory;

  /// Directory holding the per-node logs ("node-<i>.log"), created if
  /// absent. Reopening the same directory recovers the persisted state.
  std::string disk_dir = {};

  /// Per-node knobs for the disk backend.
  DiskKvNodeOptions disk = {};

  /// Threads fanning Multi* sub-batches out to their nodes in parallel; also
  /// the bound on sub-batches in flight per call. 0 dispatches inline
  /// (sequential per-node loop) — deterministic, for the serial reference
  /// replay in equivalence tests.
  int dispatch_threads = 4;
};

/// Hash-partitioned cluster of KV nodes implementing the same KvStore
/// interface. Each key lives on exactly one node; the cluster adds no
/// replication of its own (the paper's store is the replica).
///
/// Per-node service slots (in-memory backend) mean aggregate capacity grows
/// with the node count, reproducing the paper's Fig. 17 behaviour.
class KvCluster : public KvStore {
 public:
  /// `metrics` (optional, must outlive the cluster) receives per-node op
  /// counters, latency histograms and slot gauges, labeled {node="i"}, for
  /// both backends (disk nodes report the same per-op instruments as
  /// in-memory ones), plus per-node Multi* dispatch latency.
  ///
  /// Construction cannot fail, but opening disk-backed nodes can: check
  /// init_status() before using a kDisk cluster. Nodes that failed to open
  /// are replaced with empty in-memory nodes so the object stays safe to
  /// call either way.
  explicit KvCluster(KvClusterOptions options = {},
                     obs::MetricsRegistry* metrics = nullptr);

  KvCluster(const KvCluster&) = delete;
  KvCluster& operator=(const KvCluster&) = delete;

  Status Put(const Key& key, const Value& value) override;
  Result<Value> Get(const Key& key) override;
  Status Delete(const Key& key) override;

  /// Routes each entry to its owning node (stable hash partitioning, so
  /// per-key order within the batch is preserved) and fans the per-node
  /// sub-batches out in parallel on the dispatch pool. Each node applies its
  /// sub-batch per its own partial-failure contract; `applied` is the sum of
  /// per-node applied counts and the returned status is the first failing
  /// node's (by node index).
  Status MultiWrite(std::span<const KvWrite> batch,
                    size_t* applied = nullptr) override;

  /// Same routing/fan-out for reads. Results are positional (results[i] is
  /// keys[i]) regardless of which node served each key.
  std::vector<Result<Value>> MultiGet(std::span<const Key> keys) override;

  bool Contains(const Key& key) override;
  size_t Size() override;
  StoreDump Dump() override;
  Status Clear() override;

  /// OK for the in-memory backend; for kDisk, the first node-open error if
  /// any log failed to open/replay.
  const Status& init_status() const { return init_status_; }

  KvBackend backend() const { return options_.backend; }

  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  /// Index of the node owning `key` (stable hash partitioning).
  int NodeIndexFor(const Key& key) const;

  /// Direct access to a node, e.g. for per-node stats in benchmarks or
  /// per-shard checkpointing.
  KvStore& node(int index) { return *nodes_[index]; }

  /// Backend-typed access; nullptr when the node is of the other backend.
  InMemoryKvNode* memory_node(int index);
  DiskKvNode* disk_node(int index);

  /// Flushes and fsyncs every disk node's log (no-op for in-memory nodes).
  Status SyncAll();

  /// Compacts every disk node's log to live records only (no-op for
  /// in-memory nodes). Called after a checkpoint install drops history.
  Status CompactAll();

  /// Sum of per-node counters across both backends.
  KvStoreStats TotalStats() const;

  /// Adjusts the injected-failure probability on every in-memory node (disk
  /// nodes have no failure injection). Test fencing helper, like
  /// InMemoryKvNode::set_failure_rate.
  void SetFailureRate(double rate);

 private:
  KvStore& NodeFor(const Key& key);

  /// Runs `fn(node_index)` for every index in `node_indices`, in parallel on
  /// the dispatch pool when it exists (blocking until all complete), inline
  /// otherwise.
  void FanOut(const std::vector<int>& node_indices,
              const std::function<void(int)>& fn);

  KvClusterOptions options_;
  Status init_status_;
  std::vector<std::unique_ptr<KvStore>> nodes_;
  /// Parallel to nodes_: true when nodes_[i] is a DiskKvNode (a disk node
  /// that failed to open falls back to in-memory, so this is per-node).
  std::vector<bool> is_disk_;
  /// Parallel to nodes_: per-node Multi* sub-batch dispatch latency (null
  /// when the cluster runs unobserved).
  std::vector<Histogram*> h_dispatch_;
  /// Fan-out workers; null when dispatch_threads == 0 (inline dispatch).
  std::unique_ptr<ThreadPool> dispatch_pool_;
};

}  // namespace txrep::kv

#endif  // TXREP_KV_KV_CLUSTER_H_
