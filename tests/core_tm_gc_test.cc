// Algorithm 2: asynchronous trimming of the CompletedTransactionList.

#include "core/transaction_manager.h"

#include <atomic>

#include "codec/kv_keys.h"
#include "common/clock.h"
#include "gtest/gtest.h"
#include "kv/inmemory_node.h"
#include "qt/query_translator.h"
#include "rel/database.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace txrep::core {
namespace {

using rel::Value;

class GcTest : public ::testing::Test {
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

  rel::LogTransaction Insert(int64_t id) {
    rel::LogTransaction txn;
    txn.ops.push_back(rel::LogOp{rel::LogOpType::kInsert, "T", Value::Int(id),
                                 {Value::Int(id), Value::Int(0)}});
    return txn;
  }

  rel::Catalog catalog_;
  std::unique_ptr<qt::QueryTranslator> translator_;
};

TEST_F(GcTest, CompletedListBoundedByGc) {
  kv::InMemoryKvNode store;
  TmOptions options;
  options.completed_gc_threshold = 16;
  TransactionManager tm(&store, translator_.get(), options);
  // Waves with idle points between them: every wave-N transaction starts
  // strictly after all wave-(N-1) completions, so Algorithm 2's condition
  // makes the earlier waves' entries removable by any pass triggered during
  // the next wave — a deterministic GC opportunity regardless of scheduling.
  int next_id = 1;
  for (int wave = 0; wave < 3; ++wave) {
    for (int i = 0; i < 200; ++i) {
      tm.SubmitUpdate(Insert(next_id++));
    }
    TXREP_ASSERT_OK(tm.WaitIdle());
  }
  TmStats stats = tm.stats();
  EXPECT_GT(stats.gc_runs, 0);
  EXPECT_GT(stats.gc_removed, 0);
  EXPECT_LT(tm.CompletedListSize(), 600u);
}

TEST_F(GcTest, NoGcBelowThreshold) {
  kv::InMemoryKvNode store;
  TmOptions options;
  options.completed_gc_threshold = 10000;
  TransactionManager tm(&store, translator_.get(), options);
  for (int i = 1; i <= 100; ++i) tm.SubmitUpdate(Insert(i));
  TXREP_ASSERT_OK(tm.WaitIdle());
  EXPECT_EQ(tm.stats().gc_runs, 0);
  EXPECT_EQ(tm.CompletedListSize(), 100u);
}

TEST_F(GcTest, AggressiveGcPreservesCorrectness) {
  // Threshold 1: the completed list is trimmed constantly while conflicting
  // transactions race — Algorithm 2's "no active transaction started before
  // completion" condition is what keeps the conflict checks sound.
  rel::Database db;
  workload::SyntheticWorkload workload(
      {.num_items = 50, .hot_range = 4, .seed = 21});
  TXREP_ASSERT_OK(workload.CreateSchema(db));
  TXREP_ASSERT_OK(workload.Populate(db));
  TXREP_ASSERT_OK(workload.Run(db, 300));

  qt::QueryTranslator translator(&db.catalog(), {});
  kv::InMemoryKvNode serial_store;
  TXREP_ASSERT_OK(testing::ReplaySerial(db, translator, &serial_store));

  kv::InMemoryKvNode concurrent_store;
  TmOptions options;
  options.top_threads = 8;
  options.bottom_threads = 8;
  options.completed_gc_threshold = 1;
  TmStats stats;
  TXREP_ASSERT_OK(testing::ReplayConcurrent(db, translator, &concurrent_store,
                                            options, &stats));
  EXPECT_GT(stats.gc_runs, 0);
  testing::ExpectDumpsEqual(serial_store, concurrent_store);
}

TEST_F(GcTest, OnlyStartedTransactionsPinLaterCompletions) {
  // Completed: seqs 1 and 2 before R started, seq 3 after. Active during
  // the pass: R (seq 4, started, its body held) and U (seq 5, never
  // started: it waits outside the one-thread admission window). The pass
  // must keep exactly seq 3 — pinned by R's start stamp — and drop 1 and
  // 2, which U, not yet started, cannot need.
  testing::BlockingStore store({codec::RowKey("T", Value::Int(3))});
  TmOptions options;
  options.top_threads = 1;
  options.bottom_threads = 2;
  options.completed_gc_threshold = 2;
  TransactionManager tm(&store, translator_.get(), options);
  TXREP_ASSERT_OK(tm.SubmitUpdate(Insert(1))->Wait());
  TXREP_ASSERT_OK(tm.SubmitUpdate(Insert(2))->Wait());
  auto third = tm.SubmitUpdate(Insert(3));  // Commits; its apply is held.

  std::atomic<bool> reader_started{false};
  std::atomic<bool> reader_release{false};
  auto reader = tm.SubmitReadOnly([&](kv::KvStore*) {
    reader_started.store(true);
    while (!reader_release.load()) SleepForMicros(100);
    return Status::OK();
  });
  const int64_t deadline = NowMicros() + 10'000'000;
  while (!reader_started.load() && NowMicros() < deadline) {
    SleepForMicros(100);
  }
  ASSERT_TRUE(reader_started.load());
  auto unstarted = tm.SubmitUpdate(Insert(5));
  EXPECT_EQ(tm.stats().gc_runs, 0);

  store.Release();  // Seq 3 completes after R's start: 3 > threshold 2.
  TXREP_ASSERT_OK(third->Wait());
  while (tm.stats().gc_runs < 1 && NowMicros() < deadline) {
    SleepForMicros(100);
  }
  ASSERT_EQ(tm.stats().gc_runs, 1);
  EXPECT_EQ(tm.CompletedListSize(), 1u);
  EXPECT_EQ(tm.stats().gc_removed, 2);

  reader_release.store(true);
  TXREP_ASSERT_OK(reader->Wait());
  TXREP_ASSERT_OK(unstarted->Wait());
  TXREP_ASSERT_OK(tm.WaitIdle());
}

}  // namespace
}  // namespace txrep::core
