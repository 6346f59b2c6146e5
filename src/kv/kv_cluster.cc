#include "kv/kv_cluster.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <functional>
#include <utility>

#include "check/mutex.h"
#include "common/clock.h"
#include "obs/names.h"

namespace txrep::kv {

namespace {

/// mkdir -p for the disk backend's log directory.
Status EnsureDirExists(const std::string& path) {
  std::string prefix;
  size_t pos = 0;
  while (pos <= path.size()) {
    const size_t slash = path.find('/', pos);
    prefix = slash == std::string::npos ? path : path.substr(0, slash);
    pos = slash == std::string::npos ? path.size() + 1 : slash + 1;
    if (prefix.empty()) continue;  // Leading '/'.
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::Unavailable("mkdir failed for \"" + prefix +
                                 "\": " + std::strerror(errno));
    }
  }
  return Status::OK();
}

}  // namespace

KvCluster::KvCluster(KvClusterOptions options, obs::MetricsRegistry* metrics)
    : options_(std::move(options)) {
  const int n = std::max(1, options_.num_nodes);
  nodes_.reserve(n);
  is_disk_.reserve(n);

  if (options_.backend == KvBackend::kDisk) {
    if (options_.disk_dir.empty()) {
      init_status_ =
          Status::InvalidArgument("KvBackend::kDisk requires disk_dir");
    } else {
      init_status_ = EnsureDirExists(options_.disk_dir);
    }
  }

  for (int i = 0; i < n; ++i) {
    if (options_.backend == KvBackend::kDisk && init_status_.ok()) {
      Result<std::unique_ptr<DiskKvNode>> node = DiskKvNode::Open(
          options_.disk_dir + "/node-" + std::to_string(i) + ".log",
          options_.disk, metrics, i);
      if (node.ok()) {
        nodes_.push_back(std::move(*node));
        is_disk_.push_back(true);
        continue;
      }
      init_status_ = node.status();
    }
    // In-memory node — the default backend, and the safe fallback keeping
    // the cluster non-null when a disk node failed to open.
    KvNodeOptions node_options = options_.node;
    // Give each node an independent failure stream.
    node_options.failure_seed = options_.node.failure_seed + i * 0x9e3779b9ULL;
    nodes_.push_back(std::make_unique<InMemoryKvNode>(node_options, metrics, i));
    is_disk_.push_back(false);
  }

  h_dispatch_.assign(nodes_.size(), nullptr);
  if (metrics != nullptr) {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      h_dispatch_[i] = metrics->GetHistogram(
          obs::kKvDispatchLatency, {{"node", std::to_string(i)}});
    }
  }
  if (options_.dispatch_threads > 0 && nodes_.size() > 1) {
    dispatch_pool_ = std::make_unique<ThreadPool>(
        static_cast<size_t>(options_.dispatch_threads), "kv-dispatch");
  }
}

int KvCluster::NodeIndexFor(const Key& key) const {
  return static_cast<int>(std::hash<std::string>{}(key) % nodes_.size());
}

KvStore& KvCluster::NodeFor(const Key& key) {
  return *nodes_[NodeIndexFor(key)];
}

Status KvCluster::Put(const Key& key, const Value& value) {
  return NodeFor(key).Put(key, value);
}

Result<Value> KvCluster::Get(const Key& key) { return NodeFor(key).Get(key); }

Status KvCluster::Delete(const Key& key) { return NodeFor(key).Delete(key); }

void KvCluster::FanOut(const std::vector<int>& node_indices,
                       const std::function<void(int)>& fn) {
  if (dispatch_pool_ == nullptr || node_indices.size() <= 1) {
    for (int index : node_indices) fn(index);
    return;
  }
  // Per-call completion latch: the pool is shared by concurrent Multi*
  // callers, so each call waits for its own tasks only.
  check::Mutex mu("kv.dispatch_latch");
  check::CondVar cv(&mu);
  size_t pending = node_indices.size();
  for (int index : node_indices) {
    dispatch_pool_->Submit([&, index] {
      fn(index);
      check::MutexLock lock(&mu);
      if (--pending == 0) cv.NotifyOne();
    });
  }
  check::MutexLock lock(&mu);
  while (pending > 0) cv.Wait();
}

Status KvCluster::MultiWrite(std::span<const KvWrite> batch, size_t* applied) {
  if (applied != nullptr) *applied = 0;
  if (batch.empty()) return Status::OK();

  // Stable routing: each node's sub-batch holds its entries in batch order,
  // so per-key order (keys never split across nodes) is preserved.
  std::vector<KvWriteBatch> sub_batches(nodes_.size());
  for (const KvWrite& w : batch) {
    sub_batches[static_cast<size_t>(NodeIndexFor(w.key))].push_back(w);
  }
  std::vector<int> busy_nodes;
  for (size_t i = 0; i < sub_batches.size(); ++i) {
    if (!sub_batches[i].empty()) busy_nodes.push_back(static_cast<int>(i));
  }

  std::vector<Status> statuses(nodes_.size());
  std::vector<size_t> applied_per_node(nodes_.size(), 0);
  FanOut(busy_nodes, [&](int index) {
    const size_t i = static_cast<size_t>(index);
    const int64_t start = NowMicros();
    statuses[i] = nodes_[i]->MultiWrite(sub_batches[i], &applied_per_node[i]);
    if (h_dispatch_[i] != nullptr) {
      h_dispatch_[i]->Record(NowMicros() - start);
    }
  });

  Status first_error = Status::OK();
  for (int index : busy_nodes) {
    const size_t i = static_cast<size_t>(index);
    if (applied != nullptr) *applied += applied_per_node[i];
    if (first_error.ok() && !statuses[i].ok()) first_error = statuses[i];
  }
  return first_error;
}

std::vector<Result<Value>> KvCluster::MultiGet(std::span<const Key> keys) {
  std::vector<Result<Value>> results(
      keys.size(), Result<Value>(Status::Unavailable("not dispatched")));
  if (keys.empty()) return results;

  // Route positionally so results can be scattered back to batch order.
  std::vector<std::vector<Key>> sub_keys(nodes_.size());
  std::vector<std::vector<size_t>> sub_positions(nodes_.size());
  for (size_t pos = 0; pos < keys.size(); ++pos) {
    const size_t i = static_cast<size_t>(NodeIndexFor(keys[pos]));
    sub_keys[i].push_back(keys[pos]);
    sub_positions[i].push_back(pos);
  }
  std::vector<int> busy_nodes;
  for (size_t i = 0; i < sub_keys.size(); ++i) {
    if (!sub_keys[i].empty()) busy_nodes.push_back(static_cast<int>(i));
  }

  FanOut(busy_nodes, [&](int index) {
    const size_t i = static_cast<size_t>(index);
    const int64_t start = NowMicros();
    std::vector<Result<Value>> sub_results = nodes_[i]->MultiGet(sub_keys[i]);
    if (h_dispatch_[i] != nullptr) {
      h_dispatch_[i]->Record(NowMicros() - start);
    }
    for (size_t j = 0; j < sub_results.size(); ++j) {
      results[sub_positions[i][j]] = std::move(sub_results[j]);
    }
  });
  return results;
}

bool KvCluster::Contains(const Key& key) { return NodeFor(key).Contains(key); }

size_t KvCluster::Size() {
  size_t total = 0;
  for (auto& node : nodes_) total += node->Size();
  return total;
}

StoreDump KvCluster::Dump() {
  StoreDump dump;
  for (auto& node : nodes_) {
    StoreDump part = node->Dump();
    dump.insert(dump.end(), std::make_move_iterator(part.begin()),
                std::make_move_iterator(part.end()));
  }
  std::sort(dump.begin(), dump.end());
  return dump;
}

Status KvCluster::Clear() {
  for (auto& node : nodes_) {
    TXREP_RETURN_IF_ERROR(node->Clear());
  }
  return Status::OK();
}

InMemoryKvNode* KvCluster::memory_node(int index) {
  if (is_disk_[index]) return nullptr;
  return static_cast<InMemoryKvNode*>(nodes_[index].get());
}

DiskKvNode* KvCluster::disk_node(int index) {
  if (!is_disk_[index]) return nullptr;
  return static_cast<DiskKvNode*>(nodes_[index].get());
}

Status KvCluster::SyncAll() {
  for (int i = 0; i < num_nodes(); ++i) {
    if (DiskKvNode* node = disk_node(i)) {
      TXREP_RETURN_IF_ERROR(node->Sync());
    }
  }
  return Status::OK();
}

Status KvCluster::CompactAll() {
  for (int i = 0; i < num_nodes(); ++i) {
    if (DiskKvNode* node = disk_node(i)) {
      TXREP_RETURN_IF_ERROR(node->Compact());
    }
  }
  return Status::OK();
}

KvStoreStats KvCluster::TotalStats() const {
  KvStoreStats total;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (is_disk_[i]) {
      total += static_cast<const DiskKvNode*>(nodes_[i].get())->stats();
    } else {
      total += static_cast<const InMemoryKvNode*>(nodes_[i].get())->stats();
    }
  }
  return total;
}

void KvCluster::SetFailureRate(double rate) {
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (is_disk_[i]) continue;
    static_cast<InMemoryKvNode*>(nodes_[i].get())->set_failure_rate(rate);
  }
}

}  // namespace txrep::kv
