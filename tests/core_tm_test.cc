#include "core/transaction_manager.h"

#include <atomic>
#include <filesystem>
#include <iterator>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "codec/kv_keys.h"
#include "codec/row_codec.h"
#include "common/clock.h"
#include "gtest/gtest.h"
#include "kv/inmemory_node.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "test_util.h"

namespace txrep::core {
namespace {

using rel::Value;

class TmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<rel::TableSchema> schema =
        rel::TableSchema::Create("T",
                                 {{"ID", rel::ValueType::kInt64},
                                  {"V", rel::ValueType::kInt64}},
                                 "ID");
    ASSERT_TRUE(schema.ok());
    TXREP_ASSERT_OK(catalog_.AddTable(*schema));
    translator_ = std::make_unique<qt::QueryTranslator>(&catalog_);
  }

  rel::LogTransaction InsertTxn(int64_t id, int64_t v) {
    rel::LogTransaction txn;
    txn.ops.push_back(rel::LogOp{rel::LogOpType::kInsert, "T", Value::Int(id),
                                 {Value::Int(id), Value::Int(v)}});
    return txn;
  }
  rel::LogTransaction UpdateTxn(int64_t id, int64_t v) {
    rel::LogTransaction txn;
    txn.ops.push_back(rel::LogOp{rel::LogOpType::kUpdate, "T", Value::Int(id),
                                 {Value::Int(id), Value::Int(v)}});
    return txn;
  }

  int64_t ReadV(kv::KvStore& store, int64_t id) {
    Result<kv::Value> bytes = store.Get(codec::RowKey("T", Value::Int(id)));
    if (!bytes.ok()) return -1;
    return (*codec::DecodeRow(*bytes))[1].AsInt();
  }

  rel::Catalog catalog_;
  std::unique_ptr<qt::QueryTranslator> translator_;
};

TEST_F(TmTest, SingleTransactionApplies) {
  kv::InMemoryKvNode store;
  TransactionManager tm(&store, translator_.get(), {});
  auto handle = tm.SubmitUpdate(InsertTxn(1, 10));
  TXREP_ASSERT_OK(handle->Wait());
  EXPECT_EQ(ReadV(store, 1), 10);
  EXPECT_EQ(handle->state, TxnState::kCompleted);
}

TEST_F(TmTest, ManyIndependentTransactions) {
  kv::InMemoryKvNode store;
  TmOptions options;
  options.top_threads = 8;
  options.bottom_threads = 8;
  TransactionManager tm(&store, translator_.get(), options);
  for (int i = 1; i <= 200; ++i) {
    tm.SubmitUpdate(InsertTxn(i, i * 2));
  }
  TXREP_ASSERT_OK(tm.WaitIdle());
  for (int i = 1; i <= 200; ++i) {
    ASSERT_EQ(ReadV(store, i), i * 2);
  }
  TmStats stats = tm.stats();
  EXPECT_EQ(stats.submitted, 200);
  EXPECT_EQ(stats.completed, 200);
}

TEST_F(TmTest, WriteWriteChainKeepsOrder) {
  kv::InMemoryKvNode store;
  TransactionManager tm(&store, translator_.get(), {});
  tm.SubmitUpdate(InsertTxn(1, 0));
  for (int v = 1; v <= 50; ++v) {
    tm.SubmitUpdate(UpdateTxn(1, v));  // All conflict on row T_1.
  }
  TXREP_ASSERT_OK(tm.WaitIdle());
  EXPECT_EQ(ReadV(store, 1), 50);  // Last sequence wins — order respected.
}

TEST_F(TmTest, ConflictsAreCountedOnHotKeys) {
  kv::KvNodeOptions node_options;
  node_options.service_time_micros = 500;  // Widen the race window.
  kv::InMemoryKvNode store(node_options);
  TmOptions options;
  options.top_threads = 8;
  options.bottom_threads = 8;
  TransactionManager tm(&store, translator_.get(), options);
  tm.SubmitUpdate(InsertTxn(1, 0));
  for (int v = 1; v <= 30; ++v) {
    tm.SubmitUpdate(UpdateTxn(1, v));
  }
  TXREP_ASSERT_OK(tm.WaitIdle());
  TmStats stats = tm.stats();
  EXPECT_GT(stats.conflicts, 0);
  EXPECT_EQ(stats.restarts, stats.conflicts);  // No transient errors here.
  EXPECT_EQ(ReadV(store, 1), 30);
}

TEST_F(TmTest, ReadOnlyTransactionSeesSequencePointState) {
  kv::InMemoryKvNode store;
  TransactionManager tm(&store, translator_.get(), {});
  tm.SubmitUpdate(InsertTxn(1, 111));
  auto read_value = std::make_shared<int64_t>(-1);
  auto ro = tm.SubmitReadOnly([read_value](kv::KvStore* view) {
    Result<kv::Value> bytes = view->Get("T_1");
    if (!bytes.ok()) return bytes.status();
    TXREP_ASSIGN_OR_RETURN(rel::Row row, codec::DecodeRow(*bytes));
    *read_value = row[1].AsInt();
    return Status::OK();
  });
  TXREP_ASSERT_OK(ro->Wait());
  EXPECT_EQ(*read_value, 111);  // The seq-1 insert is visible at seq 2.
  EXPECT_EQ(tm.stats().read_only_submitted, 1);
}

TEST_F(TmTest, ReadOnlyNeverBlocksPipeline) {
  kv::InMemoryKvNode store;
  TransactionManager tm(&store, translator_.get(), {});
  tm.SubmitUpdate(InsertTxn(1, 1));
  for (int i = 0; i < 20; ++i) {
    tm.SubmitReadOnly([](kv::KvStore* view) {
      (void)view->Get("T_1");
      return Status::OK();
    });
    tm.SubmitUpdate(UpdateTxn(1, i));
  }
  TXREP_ASSERT_OK(tm.WaitIdle());
  EXPECT_EQ(tm.stats().completed, 41);
}

TEST_F(TmTest, CorruptReplayFailsTheManager) {
  kv::InMemoryKvNode store;
  TransactionManager tm(&store, translator_.get(), {});
  // Update of a row that never existed: unexplained by any conflict.
  auto handle = tm.SubmitUpdate(UpdateTxn(42, 1));
  Status s = handle->Wait();
  EXPECT_FALSE(s.ok());
  EXPECT_FALSE(tm.health().ok());
  // Subsequent submissions fail fast.
  auto next = tm.SubmitUpdate(InsertTxn(1, 1));
  EXPECT_FALSE(next->Wait().ok());
}

TEST_F(TmTest, WaitIdleOnEmptyManagerReturns) {
  kv::InMemoryKvNode store;
  TransactionManager tm(&store, translator_.get(), {});
  TXREP_ASSERT_OK(tm.WaitIdle());
}

TEST_F(TmTest, StatsTrackCommitAndCompleteCounts) {
  kv::InMemoryKvNode store;
  TransactionManager tm(&store, translator_.get(), {});
  for (int i = 1; i <= 10; ++i) tm.SubmitUpdate(InsertTxn(i, i));
  TXREP_ASSERT_OK(tm.WaitIdle());
  TmStats stats = tm.stats();
  EXPECT_EQ(stats.committed, 10);
  EXPECT_EQ(stats.completed, 10);
  EXPECT_EQ(stats.submitted, 10);
}

TEST_F(TmTest, RestartCountVisibleOnHandle) {
  kv::KvNodeOptions node_options;
  node_options.service_time_micros = 1000;
  kv::InMemoryKvNode store(node_options);
  TmOptions options;
  options.top_threads = 4;
  options.bottom_threads = 4;
  TransactionManager tm(&store, translator_.get(), options);
  tm.SubmitUpdate(InsertTxn(1, 0));
  auto h1 = tm.SubmitUpdate(UpdateTxn(1, 1));
  auto h2 = tm.SubmitUpdate(UpdateTxn(1, 2));
  TXREP_ASSERT_OK(tm.WaitIdle());
  // At least one of the chained updates must have restarted (they all race
  // on T_1 while the predecessor's buffer is unapplied).
  EXPECT_GE(h1->restarts() + h2->restarts(), 1);
}

TEST_F(TmTest, LastAppliedLsnIsTheAppliedPrefix) {
  // LSN 1's apply is held back while LSNs 2-3 complete: the applied prefix
  // still ends at 0, not at the highest completed LSN.
  testing::BlockingStore store({codec::RowKey("T", Value::Int(1))});
  TmOptions options;
  options.top_threads = 4;
  options.bottom_threads = 4;
  TransactionManager tm(&store, translator_.get(), options);
  std::vector<std::shared_ptr<Transaction>> handles;
  for (int64_t lsn = 1; lsn <= 3; ++lsn) {
    rel::LogTransaction txn = InsertTxn(lsn, lsn);
    txn.lsn = static_cast<uint64_t>(lsn);
    handles.push_back(tm.SubmitUpdate(std::move(txn)));
  }
  TXREP_EXPECT_OK(handles[1]->Wait());
  TXREP_EXPECT_OK(handles[2]->Wait());
  tm.SubmitReadOnly([](kv::KvStore*) { return Status::OK(); });
  EXPECT_EQ(tm.last_applied_lsn(), 0u);
  store.Release();
  TXREP_ASSERT_OK(tm.WaitIdle());
  EXPECT_EQ(tm.last_applied_lsn(), 3u);
}

TEST_F(TmTest, ParksOnLowestConflictingCommittedPredecessorInTurn) {
  // Algorithm 1 on a scripted schedule. T1 updates row A and T2 row B; both
  // commit, but their applies are held, so both stay COMMITTED. Read-only
  // T3 reads A and B: it parks on T1, the lowest-seq conflicting committed
  // predecessor, re-runs when T1 completes, parks on T2, and commits once
  // T2 completed too.
  const kv::Key row_a = codec::RowKey("T", Value::Int(1));
  const kv::Key row_b = codec::RowKey("T", Value::Int(2));
  testing::BlockingStore store({row_a, row_b});
  for (int64_t id = 1; id <= 2; ++id) {
    TXREP_ASSERT_OK(translator_->ApplyTransaction(&store, InsertTxn(id, 0)));
  }
  TmOptions options;
  options.top_threads = 3;
  options.bottom_threads = 2;
  TransactionManager tm(&store, translator_.get(), options);
  rel::LogTransaction t1 = UpdateTxn(1, 10);
  t1.lsn = 1;
  rel::LogTransaction t2 = UpdateTxn(2, 20);
  t2.lsn = 2;
  tm.SubmitUpdate(std::move(t1));
  tm.SubmitUpdate(std::move(t2));
  auto seen = std::make_shared<std::vector<int64_t>>();
  auto t3 = tm.SubmitReadOnly([seen, row_a, row_b](kv::KvStore* view) {
    seen->clear();
    for (const kv::Key& key : {row_a, row_b}) {
      Result<kv::Value> bytes = view->Get(key);
      if (!bytes.ok()) return bytes.status();
      TXREP_ASSIGN_OR_RETURN(rel::Row row, codec::DecodeRow(*bytes));
      seen->push_back(row[1].AsInt());
    }
    return Status::OK();
  });

  auto await_conflicts = [&tm](int64_t n) {
    const int64_t deadline = NowMicros() + 10'000'000;
    while (tm.stats().conflicts < n && NowMicros() < deadline) {
      SleepForMicros(100);
    }
    return tm.stats().conflicts;
  };
  // Parked on T1: nothing re-runs T3 until T1 completes.
  ASSERT_EQ(await_conflicts(1), 1);
  SleepForMicros(20'000);
  EXPECT_EQ(tm.stats().conflicts, 1);
  EXPECT_EQ(tm.last_applied_lsn(), 0u);

  // T1 completes and restarts T3, which now parks on T2.
  store.Release(row_a);
  ASSERT_EQ(await_conflicts(2), 2);
  EXPECT_EQ(tm.last_applied_lsn(), 1u);

  store.Release(row_b);
  TXREP_ASSERT_OK(t3->Wait());
  TXREP_ASSERT_OK(tm.WaitIdle());
  EXPECT_EQ(t3->restarts(), 2);
  EXPECT_EQ(tm.stats().conflicts, 2);
  EXPECT_EQ(*seen, (std::vector<int64_t>{10, 20}));
}

TEST_F(TmTest, StartsExactlyTopPlusBottomThreads) {
  auto thread_count = [] {
    const std::filesystem::directory_iterator tasks("/proc/self/task");
    return std::distance(begin(tasks), end(tasks));
  };
  kv::InMemoryKvNode store;
  TmOptions options;
  options.top_threads = 3;
  options.bottom_threads = 2;
  // Threads joined by earlier tests may linger in /proc for a moment; start
  // from a count that held steady for 1 ms.
  ptrdiff_t before = thread_count();
  for (ptrdiff_t prev = -1; before != prev;) {
    SleepForMicros(1000);
    prev = std::exchange(before, thread_count());
  }
  TransactionManager tm(&store, translator_.get(), options);
  EXPECT_EQ(thread_count() - before, 5);
}

/// While closed, holds back every read of `gated_key` until Open(), and
/// records the ids of the table-T rows read (one per update body started).
class GatedReadStore : public kv::InMemoryKvNode {
 public:
  explicit GatedReadStore(kv::Key gated_key) : gated_key_(std::move(gated_key)) {}

  Result<kv::Value> Get(const kv::Key& key) override {
    if (closed_.load()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        read_keys_.insert(key);
      }
      while (key == gated_key_ && closed_.load()) SleepForMicros(100);
    }
    return kv::InMemoryKvNode::Get(key);
  }

  void Close() { closed_.store(true); }
  void Open() { closed_.store(false); }

  /// Ids in [1, max_id] whose row key was read while the gate was closed.
  std::set<int64_t> RowsRead(int64_t max_id) {
    std::lock_guard<std::mutex> lock(mu_);
    std::set<int64_t> ids;
    for (int64_t id = 1; id <= max_id; ++id) {
      if (read_keys_.contains(codec::RowKey("T", Value::Int(id)))) {
        ids.insert(id);
      }
    }
    return ids;
  }

 private:
  const kv::Key gated_key_;
  std::atomic<bool> closed_{false};
  std::mutex mu_;
  std::set<kv::Key> read_keys_;
};

class TmWindowTest : public TmTest {
 protected:
  /// Inserts rows 1..n (value 0) into `store` directly.
  void Populate(kv::KvStore* store, int64_t n) {
    for (int64_t id = 1; id <= n; ++id) {
      TXREP_ASSERT_OK(translator_->ApplyTransaction(store, InsertTxn(id, 0)));
    }
  }

  int64_t AdmissionBacklog() {
    return metrics_
        .GetGauge(obs::kQueueDepth, {{"queue", obs::kQueueTmAdmission}})
        ->Value();
  }

  obs::MetricsRegistry metrics_;
};

TEST_F(TmWindowTest, TopPoolRunsAtMostTopThreadsPastTheHead) {
  // The head's body blocks on its row read. Only sequence numbers inside
  // [head, head + top_threads) may execute meanwhile; everything after
  // waits unstarted. Every update also touches one of three hot rows, so
  // the replay after the gate opens restarts on conflicts.
  constexpr int kTopThreads = 4;
  constexpr int64_t kTxns = 10 * kTopThreads;
  constexpr int64_t kHotBase = 100;
  GatedReadStore store(codec::RowKey("T", Value::Int(1)));
  kv::InMemoryKvNode serial;
  Populate(&store, kHotBase + 3);
  Populate(&serial, kHotBase + 3);
  std::vector<rel::LogTransaction> log;
  for (int64_t id = 1; id <= kTxns; ++id) {
    rel::LogTransaction txn = UpdateTxn(id, id);
    txn.ops.push_back(UpdateTxn(kHotBase + id % 3, id).ops[0]);
    log.push_back(std::move(txn));
  }
  TmOptions options;
  options.top_threads = kTopThreads;
  options.bottom_threads = 4;
  TransactionManager tm(&store, translator_.get(), options, &metrics_);
  store.Close();
  for (const rel::LogTransaction& txn : log) tm.SubmitUpdate(txn);

  const int64_t deadline = NowMicros() + 10'000'000;
  while (store.RowsRead(kTxns).size() < static_cast<size_t>(kTopThreads) &&
         NowMicros() < deadline) {
    SleepForMicros(200);
  }
  SleepForMicros(50'000);  // Room for any run-ahead to show.
  EXPECT_EQ(store.RowsRead(kTxns), (std::set<int64_t>{1, 2, 3, 4}));
  EXPECT_EQ(AdmissionBacklog(), kTxns - kTopThreads);
  TXREP_EXPECT_OK(tm.CheckInvariants());

  store.Open();
  TXREP_ASSERT_OK(tm.WaitIdle());
  EXPECT_EQ(AdmissionBacklog(), 0);
  for (const rel::LogTransaction& txn : log) {
    TXREP_ASSERT_OK(translator_->ApplyTransaction(&serial, txn));
  }
  testing::ExpectDumpsEqual(serial, store);
}

TEST_F(TmWindowTest, QueueGaugesCountTheWindow) {
  // The head's read is held: the other top_threads - 1 window transactions
  // execute and wait for commit evaluation; the rest wait to enter.
  constexpr int kTopThreads = 4;
  constexpr int64_t kTxns = 3 * kTopThreads;
  GatedReadStore store(codec::RowKey("T", Value::Int(1)));
  Populate(&store, kTxns);
  TmOptions options;
  options.top_threads = kTopThreads;
  options.bottom_threads = 2;
  TransactionManager tm(&store, translator_.get(), options, &metrics_);
  auto awaiting_evaluation = [this] {
    return metrics_
        .GetGauge(obs::kQueueDepth, {{"queue", obs::kQueueCommitReqPq}})
        ->Value();
  };
  store.Close();
  for (int64_t id = 1; id <= kTxns; ++id) tm.SubmitUpdate(UpdateTxn(id, id));

  const int64_t deadline = NowMicros() + 10'000'000;
  while (awaiting_evaluation() < kTopThreads - 1 && NowMicros() < deadline) {
    SleepForMicros(200);
  }
  EXPECT_EQ(awaiting_evaluation(), kTopThreads - 1);
  EXPECT_EQ(AdmissionBacklog(), kTxns - kTopThreads);

  store.Open();
  TXREP_ASSERT_OK(tm.WaitIdle());
  EXPECT_EQ(awaiting_evaluation(), 0);
  EXPECT_EQ(AdmissionBacklog(), 0);
}

TEST_F(TmWindowTest, FailureFinishesUnadmittedTransactions) {
  // LSN 2 updates a row that does not exist — a fatal replay error — and
  // its read is held until LSNs 3..20 are submitted, most of them still
  // waiting for admission when the TM fails.
  GatedReadStore store(codec::RowKey("T", Value::Int(42)));
  TmOptions options;
  options.top_threads = 2;
  options.bottom_threads = 2;
  TransactionManager tm(&store, translator_.get(), options, &metrics_);
  rel::LogTransaction first = InsertTxn(1, 1);
  first.lsn = 1;
  TXREP_ASSERT_OK(tm.SubmitUpdate(std::move(first))->Wait());

  store.Close();
  std::vector<std::shared_ptr<Transaction>> handles;
  rel::LogTransaction bad = UpdateTxn(42, 1);
  bad.lsn = 2;
  handles.push_back(tm.SubmitUpdate(std::move(bad)));
  for (int64_t lsn = 3; lsn <= 20; ++lsn) {
    rel::LogTransaction txn = InsertTxn(lsn, lsn);
    txn.lsn = static_cast<uint64_t>(lsn);
    handles.push_back(tm.SubmitUpdate(std::move(txn)));
  }
  EXPECT_EQ(AdmissionBacklog(), 17);  // LSNs 4..20; 2 and 3 are admitted.
  store.Open();

  const Status failure = tm.WaitIdle();
  ASSERT_FALSE(failure.ok());
  EXPECT_EQ(failure.ToString(), tm.health().ToString());
  for (const auto& handle : handles) {
    EXPECT_EQ(handle->Wait().ToString(), failure.ToString())
        << "seq " << handle->seq();
  }
  EXPECT_EQ(tm.last_applied_lsn(), 1u);
  EXPECT_EQ(AdmissionBacklog(), 0);
}

TEST_F(TmWindowTest, QuiesceBarrierDrainsUnadmittedTransactions) {
  GatedReadStore store(codec::RowKey("T", Value::Int(1)));
  Populate(&store, 10);
  TmOptions options;
  options.top_threads = 1;
  options.bottom_threads = 2;
  TransactionManager tm(&store, translator_.get(), options, &metrics_);
  store.Close();
  for (int64_t id = 1; id <= 10; ++id) tm.SubmitUpdate(UpdateTxn(id, id));
  EXPECT_EQ(AdmissionBacklog(), 9);

  std::thread opener([&store] {
    SleepForMicros(50'000);
    store.Open();
  });
  bool all_applied = false;
  TXREP_EXPECT_OK(tm.QuiesceBarrier([&] {
    all_applied = true;
    for (int64_t id = 1; id <= 10; ++id) {
      all_applied = all_applied && ReadV(store, id) == id;
    }
    return Status::OK();
  }));
  opener.join();
  EXPECT_TRUE(all_applied);
  EXPECT_EQ(AdmissionBacklog(), 0);
  TXREP_EXPECT_OK(tm.SubmitUpdate(UpdateTxn(1, 11))->Wait());
  EXPECT_EQ(ReadV(store, 1), 11);
}

}  // namespace
}  // namespace txrep::core
