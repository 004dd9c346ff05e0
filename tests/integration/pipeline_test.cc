// End-to-end integration tests of the Figure 4 pipeline: tsdb -> SQL
// (Appendix C queries, including the Listing 5 hypothesis join) ->
// feature families -> scoring -> Score Table -> SQL over the Score Table.
#include <gtest/gtest.h>

#include <string>

#include "core/engine.h"
#include "simulator/case_studies.h"
#include "sql/executor.h"

namespace explainit {
namespace {

/// A sub-select over `tsdb` giving one family per metric and one feature
/// per series (§3.2), restricted by `where`.
std::string ByMetric(const std::string& where) {
  return "SELECT timestamp AS ts, metric_name AS name, "
         "MAP(CONCAT(metric_name, tag), value) AS v FROM tsdb WHERE " +
         where;
}

/// The §5 global search as one statement: overall_runtime against every
/// other metric family.
std::string NameGroupedExplain(const std::string& scorer) {
  return "EXPLAIN (" + ByMetric("metric_name = 'overall_runtime'") +
         ") USING (" + ByMetric("metric_name <> 'overall_runtime'") +
         ") SCORE BY '" + scorer + "' TOP 20";
}

class PipelineIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world_ = sim::MakeHypervisorDropCase(240, 777);
    engine_ = std::make_unique<core::Engine>(world_.store);
    engine_->RegisterStoreTable("tsdb", world_.range);
  }

  sim::CaseStudyWorld world_;
  std::unique_ptr<core::Engine> engine_;
};

TEST_F(PipelineIntegrationTest, Listing5HypothesisJoin) {
  // Stage 1-3 results registered as tables, then the paper's hypothesis
  // join: (FF_1 UNION FF_2) FF FULL OUTER JOIN Target FULL OUTER JOIN
  // Condition, all ON timestamp.
  auto ff1 = engine_->Query(R"(
      SELECT timestamp, AVG(value) AS retransmits
      FROM tsdb WHERE metric_name = 'tcp_retransmits'
      GROUP BY timestamp)");
  auto target = engine_->Query(R"(
      SELECT timestamp, AVG(value) AS runtime_sec
      FROM tsdb WHERE metric_name = 'overall_runtime'
      GROUP BY timestamp)");
  auto condition = engine_->Query(R"(
      SELECT timestamp, AVG(value) AS input_events
      FROM tsdb WHERE metric_name LIKE 'input_rate%'
      GROUP BY timestamp)");
  ASSERT_TRUE(ff1.ok() && target.ok() && condition.ok());
  engine_->catalog().RegisterTable("FF_1", ff1->table);
  engine_->catalog().RegisterTable("FF_2", ff1->table);  // stand-in source
  engine_->catalog().RegisterTable("Target", target->table);
  engine_->catalog().RegisterTable("Cond", condition->table);

  auto hypothesis = engine_->Query(R"(
      SELECT FF.timestamp, FF.retransmits, Target.runtime_sec,
             Cond.input_events
      FROM (SELECT * FROM FF_1 UNION ALL SELECT * FROM FF_2) FF
      FULL OUTER JOIN Target ON (FF.timestamp = Target.timestamp)
      FULL OUTER JOIN Cond ON Target.timestamp = Cond.timestamp
      ORDER BY FF.timestamp ASC)");
  ASSERT_TRUE(hypothesis.ok()) << hypothesis.status().ToString();
  // Two FF copies x 240 timestamps, all matching the 240 target rows.
  EXPECT_EQ(hypothesis->table.num_rows(), 480u);
  EXPECT_EQ(hypothesis->table.num_columns(), 4u);
  // Every row carries a joined runtime and condition value.
  for (size_t r = 0; r < 10; ++r) {
    EXPECT_FALSE(hypothesis->table.At(r, 2).is_null());
    EXPECT_FALSE(hypothesis->table.At(r, 3).is_null());
  }
}

TEST_F(PipelineIntegrationTest, ScoreTableIsQueryable) {
  // The Score Table of Figure 4 feeds back into SQL, closing the loop.
  auto result = engine_->Query(NameGroupedExplain("CorrMax"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->score_table.has_value());
  const core::ScoreTable& table = *result->score_table;
  engine_->catalog().RegisterTable("scores", result->table);
  auto strong = engine_->Query(
      "SELECT family, score FROM scores WHERE score > 0.5 "
      "ORDER BY score DESC");
  ASSERT_TRUE(strong.ok()) << strong.status().ToString();
  EXPECT_GT(strong->table.num_rows(), 0u);
  EXPECT_LE(strong->table.num_rows(), table.rows.size());
  auto count = engine_->Query("SELECT COUNT(*) AS n FROM scores");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(static_cast<size_t>(count->table.At(0, 0).AsInt()),
            table.rows.size());
}

TEST_F(PipelineIntegrationTest, LaggedFeaturesViaSqlLag) {
  // §3.5 footnote: "the user could specify lagged features from the past
  // ... by using LAG function in SQL".
  // LAG windows over row order, so aggregate first in a subquery and lag
  // over the aggregated rows.
  auto lagged = engine_->Query(R"(
      SELECT timestamp, v, LAG(v) AS v_lag1
      FROM (SELECT timestamp, AVG(value) AS v
            FROM tsdb WHERE metric_name = 'overall_runtime'
            GROUP BY timestamp ORDER BY timestamp ASC) agg)");
  ASSERT_TRUE(lagged.ok()) << lagged.status().ToString();
  ASSERT_GT(lagged->table.num_rows(), 2u);
  EXPECT_TRUE(lagged->table.At(0, 2).is_null());  // no previous row
  EXPECT_EQ(lagged->table.At(1, 2).AsDouble(),
            lagged->table.At(0, 1).AsDouble());
}

TEST_F(PipelineIntegrationTest, FamiliesFromTableFeedEngineRank) {
  auto rows = engine_->Query(R"(
      SELECT timestamp, metric_name, AVG(value) AS v
      FROM tsdb
      WHERE metric_name IN ('tcp_retransmits', 'disk_utilization',
                            'jvm_gc_ms')
      GROUP BY timestamp, metric_name)");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  auto families = core::FamiliesFromTable(rows->table);
  ASSERT_TRUE(families.ok()) << families.status().ToString();
  EXPECT_EQ(families->size(), 3u);
  core::RankRequest req;
  auto target_rows =
      engine_->Query(ByMetric("metric_name = 'overall_runtime'"));
  ASSERT_TRUE(target_rows.ok()) << target_rows.status().ToString();
  auto target =
      core::FamilyFromRows(std::move(target_rows->table), "target", "target");
  ASSERT_TRUE(target.ok()) << target.status().ToString();
  req.target = std::move(target).value();
  req.candidates = std::move(families).value();
  // Both queries observe the same minutes, so ranking works without
  // explicit alignment.
  req.scorer_name = "CorrMax";
  auto table = engine_->Rank(req);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table->rows.size(), 3u);
  EXPECT_EQ(table->rows[0].family_name, "tcp_retransmits");
}

TEST_F(PipelineIntegrationTest, SnapshotPreservesAnalysis) {
  // Persist the store, reload, and verify the ranking is identical.
  const std::string path = ::testing::TempDir() + "/world.snap";
  ASSERT_TRUE(world_.store->SaveSnapshot(path).ok());
  auto reloaded = std::make_shared<tsdb::SeriesStore>();
  ASSERT_TRUE(reloaded->LoadSnapshot(path).ok());
  core::Engine engine2(reloaded);
  engine2.RegisterStoreTable("tsdb", world_.range);
  auto a = engine_->Query(NameGroupedExplain("CorrMax"));
  auto b = engine2.Query(NameGroupedExplain("CorrMax"));
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  const table::Table& ta = a->table;
  const table::Table& tb = b->table;
  ASSERT_GT(ta.num_rows(), 0u);
  ASSERT_EQ(ta.schema().ToString(), tb.schema().ToString());
  ASSERT_EQ(ta.num_rows(), tb.num_rows());
  for (size_t c = 0; c < ta.num_columns(); ++c) {
    const std::string& column = ta.schema().field(c).name;
    if (column == "score_seconds") continue;  // wall time, not analysis
    for (size_t r = 0; r < ta.num_rows(); ++r) {
      EXPECT_EQ(ta.At(r, c).ToString(), tb.At(r, c).ToString())
          << column << " row " << r;
      if (ta.At(r, c).type() == table::DataType::kDouble) {
        EXPECT_EQ(ta.At(r, c).AsDouble(), tb.At(r, c).AsDouble())
            << column << " row " << r;
      }
    }
  }
}

}  // namespace
}  // namespace explainit
