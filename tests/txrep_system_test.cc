// End-to-end facade tests: database -> middleware -> TM/serial -> replica.

#include "txrep/system.h"

#include "gtest/gtest.h"
#include "obs/names.h"
#include "sql/interpreter.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace txrep {
namespace {

using rel::Predicate;
using rel::PredicateOp;
using rel::SelectStatement;
using rel::Value;

constexpr const char* kSchemaSql = R"sql(
  CREATE TABLE ITEM (I_ID INT PRIMARY KEY, I_TITLE VARCHAR(40),
                     I_COST DOUBLE);
  CREATE INDEX ON ITEM (I_TITLE);
  CREATE RANGE INDEX ON ITEM (I_COST);
)sql";

void PopulateItems(rel::Database& db, int n) {
  for (int i = 1; i <= n; ++i) {
    TXREP_ASSERT_OK(
        db.ExecuteTransaction(
              {rel::InsertStatement{
                  "ITEM",
                  {},
                  {Value::Int(i), Value::Str("t" + std::to_string(i % 3)),
                   Value::Real(i * 2.0)}}})
            .status());
  }
}

TEST(TxRepSystemTest, SnapshotThenIncrementalReplication) {
  TxRepOptions options;
  options.cluster.num_nodes = 3;
  TxRepSystem sys(options);
  TXREP_ASSERT_OK(sql::ExecuteSql(sys.database(), kSchemaSql).status());
  PopulateItems(sys.database(), 20);
  TXREP_ASSERT_OK(sys.Start());
  // Snapshot is there already.
  testing::VerifyReplicaMatchesDatabase(sys.replica(), sys.database(),
                                        sys.translator());
  // New commits flow through the pipeline.
  PopulateItems(sys.database(), 0);
  TXREP_ASSERT_OK(
      sql::ExecuteSql(sys.database(),
                      "UPDATE ITEM SET I_COST = 999.0 WHERE I_ID = 5;"
                      "INSERT INTO ITEM VALUES (21, 'fresh', 3.5);"
                      "DELETE FROM ITEM WHERE I_ID = 7;")
          .status());
  TXREP_ASSERT_OK(sys.SyncToLatest());
  testing::VerifyReplicaMatchesDatabase(sys.replica(), sys.database(),
                                        sys.translator());
  EXPECT_EQ(sys.replica_lsn(), sys.database().log().LastLsn());
}

TEST(TxRepSystemTest, TransactionalReplicaQueries) {
  TxRepSystem sys((TxRepOptions()));
  TXREP_ASSERT_OK(sql::ExecuteSql(sys.database(), kSchemaSql).status());
  PopulateItems(sys.database(), 30);
  TXREP_ASSERT_OK(sys.Start());
  TXREP_ASSERT_OK(sys.SyncToLatest());

  // Point query.
  Result<std::vector<rel::Row>> by_pk = sys.QueryReplica(SelectStatement{
      "ITEM", {}, {Predicate{"I_ID", PredicateOp::kEq, Value::Int(3), {}}}});
  ASSERT_TRUE(by_pk.ok()) << by_pk.status().ToString();
  ASSERT_EQ(by_pk->size(), 1u);

  // Hash-index query.
  Result<std::vector<rel::Row>> by_title = sys.QueryReplica(SelectStatement{
      "ITEM",
      {},
      {Predicate{"I_TITLE", PredicateOp::kEq, Value::Str("t1"), {}}}});
  ASSERT_TRUE(by_title.ok());
  EXPECT_EQ(by_title->size(), 10u);

  // Range query via the B-link tree.
  Result<std::vector<rel::Row>> by_cost = sys.QueryReplica(SelectStatement{
      "ITEM",
      {},
      {Predicate{"I_COST", PredicateOp::kBetween, Value::Real(10.0),
                 Value::Real(20.0)}}});
  ASSERT_TRUE(by_cost.ok());
  EXPECT_EQ(by_cost->size(), 6u);  // 10,12,14,16,18,20.

  // Non-transactional access works too.
  Result<std::vector<rel::Row>> direct =
      sys.QueryReplicaNonTransactional(SelectStatement{
          "ITEM",
          {},
          {Predicate{"I_ID", PredicateOp::kEq, Value::Int(3), {}}}});
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(direct->size(), 1u);
}

TEST(TxRepSystemTest, SerialBaselineProducesSameReplica) {
  auto build = [](bool concurrent) {
    TxRepOptions options;
    options.concurrent_replication = concurrent;
    auto sys = std::make_unique<TxRepSystem>(options);
    TXREP_EXPECT_OK(sql::ExecuteSql(sys->database(), kSchemaSql).status());
    PopulateItems(sys->database(), 10);
    TXREP_EXPECT_OK(sys->Start());
    TXREP_EXPECT_OK(
        sql::ExecuteSql(sys->database(),
                        "UPDATE ITEM SET I_COST = 1.0 WHERE I_TITLE = 't1';"
                        "DELETE FROM ITEM WHERE I_ID = 4;")
            .status());
    TXREP_EXPECT_OK(sys->SyncToLatest());
    return sys;
  };
  auto concurrent = build(true);
  auto serial = build(false);
  testing::ExpectDumpsEqual(concurrent->replica(), serial->replica());
  EXPECT_EQ(serial->tm_stats().submitted, 0);  // Serial path has no TM.
}

TEST(TxRepSystemTest, LagMeasurement) {
  TxRepOptions options;
  options.broker.delivery_delay_micros = 1000;
  TxRepSystem sys(options);
  TXREP_ASSERT_OK(sql::ExecuteSql(sys.database(), kSchemaSql).status());
  TXREP_ASSERT_OK(sys.Start());
  PopulateItems(sys.database(), 10);
  TXREP_ASSERT_OK(sys.SyncToLatest());
  // Commit -> replica-apply lag of every replicated transaction, recorded
  // before the transaction completes (so SyncToLatest covers it).
  const Histogram* lag = sys.metrics().GetHistogram(
      obs::kStageLatency, {{"stage", obs::kStageE2e}});
  EXPECT_EQ(lag->count(), 10);
  EXPECT_GE(lag->min(), 1000);  // At least the broker delay.
}

TEST(TxRepSystemTest, StartTwiceFails) {
  TxRepSystem sys((TxRepOptions()));
  TXREP_ASSERT_OK(sql::ExecuteSql(sys.database(), kSchemaSql).status());
  TXREP_ASSERT_OK(sys.Start());
  EXPECT_EQ(sys.Start().code(), StatusCode::kFailedPrecondition);
}

TEST(TxRepSystemTest, QueryBeforeStartFails) {
  TxRepSystem sys((TxRepOptions()));
  EXPECT_EQ(sys.QueryReplica(SelectStatement{"ITEM", {}, {}}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(TxRepSystemTest, TruncateReplicatedLogKeepsPipelineWorking) {
  TxRepSystem sys((TxRepOptions()));
  TXREP_ASSERT_OK(sql::ExecuteSql(sys.database(), kSchemaSql).status());
  PopulateItems(sys.database(), 5);
  TXREP_ASSERT_OK(sys.Start());
  TXREP_ASSERT_OK(
      sql::ExecuteSql(sys.database(),
                      "UPDATE ITEM SET I_COST = 1.0 WHERE I_ID = 1;")
          .status());
  TXREP_ASSERT_OK(sys.SyncToLatest());

  const uint64_t watermark = sys.TruncateReplicatedLog();
  EXPECT_EQ(watermark, sys.database().log().LastLsn());
  EXPECT_EQ(sys.database().log().size(), 0u);

  // Pipeline keeps working after truncation.
  TXREP_ASSERT_OK(
      sql::ExecuteSql(sys.database(), "INSERT INTO ITEM VALUES (6, 'x', 2.0);")
          .status());
  TXREP_ASSERT_OK(sys.SyncToLatest());
  testing::VerifyReplicaMatchesDatabase(sys.replica(), sys.database(),
                                        sys.translator());
}

TEST(TxRepSystemTest, AggregateQueriesOnReplica) {
  TxRepSystem sys((TxRepOptions()));
  TXREP_ASSERT_OK(sql::ExecuteSql(sys.database(), kSchemaSql).status());
  PopulateItems(sys.database(), 12);
  TXREP_ASSERT_OK(sys.Start());
  TXREP_ASSERT_OK(sys.SyncToLatest());
  SelectStatement stmt;
  stmt.table = "ITEM";
  stmt.aggregates = {
      rel::AggregateItem{rel::AggregateFn::kCount, ""},
      rel::AggregateItem{rel::AggregateFn::kMax, "I_COST"}};
  stmt.where = {Predicate{"I_TITLE", PredicateOp::kEq, Value::Str("t1"), {}}};
  Result<std::vector<rel::Row>> rows = sys.QueryReplica(stmt);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0][0], Value::Int(4));           // Items 1,4,7,10.
  EXPECT_EQ((*rows)[0][1], Value::Real(20.0));       // Max cost = 10*2.0.
}

TEST(TxRepSystemTest, SyntheticWorkloadEndToEnd) {
  TxRepOptions options;
  options.cluster.num_nodes = 5;
  options.tm.top_threads = 10;
  options.tm.bottom_threads = 10;
  TxRepSystem sys(options);
  workload::SyntheticWorkload workload(
      {.num_items = 100, .hot_range = 10, .seed = 3});
  TXREP_ASSERT_OK(workload.CreateSchema(sys.database()));
  TXREP_ASSERT_OK(workload.Populate(sys.database()));
  TXREP_ASSERT_OK(sys.Start());
  TXREP_ASSERT_OK(workload.Run(sys.database(), 300));
  TXREP_ASSERT_OK(sys.SyncToLatest());
  testing::VerifyReplicaMatchesDatabase(sys.replica(), sys.database(),
                                        sys.translator());
  EXPECT_EQ(sys.tm_stats().completed, 300);
}

}  // namespace
}  // namespace txrep
