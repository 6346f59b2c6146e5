// Integration test for the observability tentpole: drive a full TxRep
// deployment, then assert that every pipeline stage of Fig. 3 left latency
// samples in the registry, that the queue gauges and per-node KV counters
// exist, and that TransactionManager::stats() agrees exactly with the
// registry-backed counters it is derived from.

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/names.h"
#include "sql/interpreter.h"
#include "test_util.h"
#include "txrep/system.h"

namespace txrep {
namespace {

using obs::HistogramPoint;
using obs::Labels;
using obs::MetricPoint;
using obs::MetricsSnapshot;

constexpr const char* kSchemaSql = R"sql(
  CREATE TABLE ITEM (I_ID INT PRIMARY KEY, I_TITLE VARCHAR(40),
                     I_COST DOUBLE);
  CREATE INDEX ON ITEM (I_TITLE);
  CREATE RANGE INDEX ON ITEM (I_COST);
)sql";

const HistogramPoint* FindHistogram(const MetricsSnapshot& snapshot,
                                    const std::string& name,
                                    const Labels& labels) {
  for (const HistogramPoint& h : snapshot.histograms) {
    if (h.name == name && h.labels == labels) return &h;
  }
  return nullptr;
}

const MetricPoint* FindCounter(const MetricsSnapshot& snapshot,
                               const std::string& name,
                               const Labels& labels = {}) {
  for (const MetricPoint& c : snapshot.counters) {
    if (c.name == name && c.labels == labels) return &c;
  }
  return nullptr;
}

const MetricPoint* FindGauge(const MetricsSnapshot& snapshot,
                             const std::string& name, const Labels& labels) {
  for (const MetricPoint& g : snapshot.gauges) {
    if (g.name == name && g.labels == labels) return &g;
  }
  return nullptr;
}

int64_t StageCount(const MetricsSnapshot& snapshot, const char* stage) {
  const HistogramPoint* h =
      FindHistogram(snapshot, obs::kStageLatency, {{"stage", stage}});
  return h == nullptr ? -1 : h->snapshot.count;
}

void RunWriteWorkload(TxRepSystem& sys, int inserts) {
  for (int i = 1; i <= inserts; ++i) {
    TXREP_ASSERT_OK(
        sql::ExecuteSql(sys.database(),
                        "INSERT INTO ITEM VALUES (" + std::to_string(i) +
                            ", 't" + std::to_string(i % 3) + "', " +
                            std::to_string(i * 2.0) + ");")
            .status());
  }
  TXREP_ASSERT_OK(
      sql::ExecuteSql(sys.database(),
                      "UPDATE ITEM SET I_COST = 999.0 WHERE I_ID = 1;"
                      "DELETE FROM ITEM WHERE I_ID = 2;")
          .status());
}

TEST(ObsPipelineTest, ConcurrentPipelineRecordsEveryStage) {
  TxRepOptions options;
  options.cluster.num_nodes = 3;
  TxRepSystem sys(options);
  TXREP_ASSERT_OK(sql::ExecuteSql(sys.database(), kSchemaSql).status());
  TXREP_ASSERT_OK(sys.Start());
  RunWriteWorkload(sys, 15);
  TXREP_ASSERT_OK(sys.SyncToLatest());

  // One replica read so the read path instruments have samples too.
  auto rows = sys.QueryReplica(rel::SelectStatement{
      "ITEM",
      {},
      {rel::Predicate{"I_ID", rel::PredicateOp::kEq, rel::Value::Int(1)}}});
  TXREP_ASSERT_OK(rows.status());

  const MetricsSnapshot snapshot = sys.metrics().Snapshot();

  // All seven Fig. 3 stages left latency samples (issue floor: >= 5).
  for (const char* stage :
       {obs::kStagePublish, obs::kStageBroker, obs::kStageReceive,
        obs::kStageExecute, obs::kStageCommitEval, obs::kStageApply,
        obs::kStageE2e}) {
    EXPECT_GT(StageCount(snapshot, stage), 0) << "stage " << stage;
  }

  // Queue-depth gauges exist for every backlog in the pipeline; after a full
  // drain they must read as empty or better-than-empty never negative.
  for (const char* queue :
       {obs::kQueueCommitReqPq, obs::kQueueBroker, obs::kQueueTmBottom,
        obs::kQueueTmAdmission}) {
    const MetricPoint* g =
        FindGauge(snapshot, obs::kQueueDepth, {{"queue", queue}});
    ASSERT_NE(g, nullptr) << "queue " << queue;
    EXPECT_GE(g->value, 0) << "queue " << queue;
  }

  // Per-node KV op counters: every node served at least one put (snapshot
  // load + replication both write through the cluster).
  int64_t total_puts = 0;
  for (int node = 0; node < options.cluster.num_nodes; ++node) {
    const MetricPoint* c = FindCounter(
        snapshot, obs::kKvOps,
        {{"node", std::to_string(node)}, {"op", "put"}});
    ASSERT_NE(c, nullptr) << "node " << node;
    total_puts += c->value;
  }
  EXPECT_GT(total_puts, 0);

  // Database-side instruments saw the write workload.
  const MetricPoint* commits = FindCounter(snapshot, obs::kDbCommits);
  ASSERT_NE(commits, nullptr);
  EXPECT_EQ(commits->value, 17);  // Schema DDL does not commit via the log.
  const MetricPoint* published =
      FindCounter(snapshot, obs::kMwMessagesPublished);
  const MetricPoint* delivered =
      FindCounter(snapshot, obs::kMwMessagesDelivered);
  ASSERT_NE(published, nullptr);
  ASSERT_NE(delivered, nullptr);
  EXPECT_GT(published->value, 0);
  EXPECT_EQ(published->value, delivered->value);

  // Replica read path.
  const HistogramPoint* readonly =
      FindHistogram(snapshot, obs::kReadOnlyLatency, {});
  ASSERT_NE(readonly, nullptr);
  EXPECT_GE(readonly->snapshot.count, 1);
  const MetricPoint* pk_selects =
      FindCounter(snapshot, obs::kQtSelects, {{"plan", "pk"}});
  ASSERT_NE(pk_selects, nullptr);
  EXPECT_GE(pk_selects->value, 1);
}

TEST(ObsPipelineTest, TmStatsMatchesRegistryCounters) {
  TxRepOptions options;
  TxRepSystem sys(options);
  TXREP_ASSERT_OK(sql::ExecuteSql(sys.database(), kSchemaSql).status());
  TXREP_ASSERT_OK(sys.Start());
  RunWriteWorkload(sys, 10);
  TXREP_ASSERT_OK(sys.SyncToLatest());

  const core::TmStats stats = sys.tm_stats();
  const MetricsSnapshot snapshot = sys.metrics().Snapshot();
  const auto counter = [&snapshot](const char* name) {
    const MetricPoint* c = FindCounter(snapshot, name);
    return c == nullptr ? int64_t{-1} : c->value;
  };
  EXPECT_EQ(stats.submitted, counter(obs::kTmSubmitted));
  EXPECT_EQ(stats.committed, counter(obs::kTmCommitted));
  EXPECT_EQ(stats.completed, counter(obs::kTmCompleted));
  EXPECT_EQ(stats.conflicts, counter(obs::kTmConflicts));
  EXPECT_EQ(stats.restarts, counter(obs::kTmRestarts));
  EXPECT_GT(stats.submitted, 0);
  EXPECT_EQ(stats.submitted, stats.completed);
}

TEST(ObsPipelineTest, SerialBaselineRecordsApplyAndLagStages) {
  TxRepOptions options;
  options.concurrent_replication = false;
  TxRepSystem sys(options);
  TXREP_ASSERT_OK(sql::ExecuteSql(sys.database(), kSchemaSql).status());
  TXREP_ASSERT_OK(sys.Start());
  RunWriteWorkload(sys, 10);
  TXREP_ASSERT_OK(sys.SyncToLatest());

  const MetricsSnapshot snapshot = sys.metrics().Snapshot();
  // The serial applier still reports the replica-side stages...
  EXPECT_GT(StageCount(snapshot, obs::kStageApply), 0);
  EXPECT_GT(StageCount(snapshot, obs::kStageE2e), 0);
  // ...and the middleware stages are applier-independent.
  EXPECT_GT(StageCount(snapshot, obs::kStagePublish), 0);
  EXPECT_GT(StageCount(snapshot, obs::kStageBroker), 0);
  // No TM in this configuration, so no execute/commit-eval samples.
  EXPECT_LE(StageCount(snapshot, obs::kStageExecute), 0);
}

TEST(ObsPipelineTest, PeriodicReporterWiredThroughOptions) {
  std::atomic<int> reports{0};
  TxRepOptions options;
  options.metrics_report_interval_micros = 1000;
  options.metrics_report_sink = [&reports](const obs::MetricsSnapshot&) {
    reports.fetch_add(1);
  };
  TxRepSystem sys(options);
  TXREP_ASSERT_OK(sql::ExecuteSql(sys.database(), kSchemaSql).status());
  TXREP_ASSERT_OK(sys.Start());
  RunWriteWorkload(sys, 5);
  TXREP_ASSERT_OK(sys.SyncToLatest());
  while (reports.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  SUCCEED();
}

}  // namespace
}  // namespace txrep
