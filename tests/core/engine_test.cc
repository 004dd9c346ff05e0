#include "core/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "common/random.h"

namespace explainit::core {
namespace {

// Populates a store with a small causal world on a minute grid:
//   input_rate -> runtime (target) -> latency (effect); disk_noise is
//   independent.
std::shared_ptr<tsdb::SeriesStore> MakeStore(size_t t, uint64_t seed) {
  auto store = std::make_shared<tsdb::SeriesStore>();
  Rng rng(seed);
  std::vector<double> rate(t), runtime(t), latency(t), noise(t);
  for (size_t i = 0; i < t; ++i) {
    rate[i] = rng.Normal(1000.0, 150.0);
    runtime[i] = 0.01 * rate[i] + rng.Normal() * 0.4;
    latency[i] = 1.5 * runtime[i] + rng.Normal() * 0.4;
    noise[i] = rng.Normal(5.0, 1.0);
  }
  for (size_t i = 0; i < t; ++i) {
    const EpochSeconds ts = static_cast<int64_t>(i) * 60;
    EXPECT_TRUE(store
                    ->Write("pipeline_input_rate",
                            tsdb::TagSet{{"pipeline_name", "p1"}}, ts, rate[i])
                    .ok());
    EXPECT_TRUE(store
                    ->Write("pipeline_runtime",
                            tsdb::TagSet{{"pipeline_name", "p1"}}, ts,
                            runtime[i])
                    .ok());
    EXPECT_TRUE(store
                    ->Write("pipeline_latency",
                            tsdb::TagSet{{"pipeline_name", "p1"}}, ts,
                            latency[i])
                    .ok());
    EXPECT_TRUE(store
                    ->Write("disk_noise", tsdb::TagSet{{"host", "dn-1"}}, ts,
                            noise[i])
                    .ok());
  }
  return store;
}

const TimeRange kRange{0, 500 * 60};

/// A sub-select over `tsdb` giving one family per metric and one feature
/// per series (§3.2), restricted by `where`.
std::string ByMetric(const std::string& where) {
  return "SELECT timestamp AS ts, metric_name AS name, "
         "MAP(CONCAT(metric_name, tag), value) AS v FROM tsdb WHERE " +
         where;
}

/// An engine over MakeStore(t, seed) with the store registered as `tsdb`.
std::unique_ptr<Engine> MakeEngine(size_t t, uint64_t seed) {
  auto engine = std::make_unique<Engine>(MakeStore(t, seed));
  engine->RegisterStoreTable("tsdb", kRange);
  return engine;
}

TEST(EngineTest, TargetFamilyFromQuery) {
  auto engine = MakeEngine(500, 1);
  auto rows = engine->Query(ByMetric("metric_name = 'pipeline_runtime'"));
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  auto fam = FamilyFromRows(std::move(rows->table), "target", "Y");
  ASSERT_TRUE(fam.ok()) << fam.status().ToString();
  EXPECT_EQ(fam->name, "Y");
  ASSERT_EQ(fam->num_features(), 1u);
  EXPECT_EQ(fam->feature_names[0],
            "pipeline_runtime/pipeline_runtime{pipeline_name=p1}");
  EXPECT_EQ(fam->num_timestamps(), 500u);
  auto none = engine->Query(ByMetric("metric_name = 'nope'"));
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_TRUE(FamilyFromRows(std::move(none->table), "target", "Y")
                  .status()
                  .IsInvalidArgument());
}

TEST(EngineTest, SqlOverRegisteredStore) {
  Engine engine(MakeStore(100, 3));
  engine.RegisterStoreTable("tsdb", kRange);
  auto t = engine.Query(
      "SELECT COUNT(*) AS n FROM tsdb WHERE metric_name = 'disk_noise'");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->table.At(0, 0).AsInt(), 100);
}

TEST(EngineTest, FamiliesFromTableListing1Shape) {
  Engine engine(MakeStore(120, 4));
  engine.RegisterStoreTable("tsdb", kRange);
  // Appendix C Listing 1: the target family query.
  auto rows = engine.Query(R"(
      SELECT timestamp, tag['pipeline_name'], AVG(value) AS runtime_sec
      FROM tsdb
      WHERE metric_name = 'pipeline_runtime'
      GROUP BY timestamp, tag['pipeline_name']
      ORDER BY timestamp ASC)");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  auto fams = FamiliesFromTable(rows->table);
  ASSERT_TRUE(fams.ok()) << fams.status().ToString();
  ASSERT_EQ(fams->size(), 1u);  // one pipeline
  EXPECT_EQ((*fams)[0].name, "p1");
  EXPECT_EQ((*fams)[0].num_features(), 1u);
  EXPECT_EQ((*fams)[0].feature_names[0], "runtime_sec");
  EXPECT_EQ((*fams)[0].num_timestamps(), 120u);
  // The rendered Figure 4 table builds the same families.
  auto ff = NormalizeToFeatureFamilyTable(rows->table);
  ASSERT_TRUE(ff.ok()) << ff.status().ToString();
  auto via_ff = FamiliesFromTable(*ff);
  ASSERT_TRUE(via_ff.ok()) << via_ff.status().ToString();
  EXPECT_EQ(*via_ff, *fams);
}

TEST(EngineTest, FamilyFromRowsRejectsRowsWithoutFamilies) {
  table::Table rows(table::Schema({{"timestamp", table::DataType::kTimestamp},
                                   {"v", table::DataType::kDouble}}));
  auto fam = FamilyFromRows(std::move(rows), "condition", "Z:query");
  ASSERT_FALSE(fam.ok());
  EXPECT_TRUE(fam.status().IsInvalidArgument());
  EXPECT_EQ(fam.status().message(), "condition query produced no families");
}

TEST(EngineTest, NormalizeHandlesMissingNameColumn) {
  table::Schema schema({{"timestamp", table::DataType::kTimestamp},
                        {"v1", table::DataType::kDouble}});
  table::Table t(schema);
  t.AppendRow({table::Value::Timestamp(0), table::Value::Double(1)});
  auto ff = NormalizeToFeatureFamilyTable(t, "deflt");
  ASSERT_TRUE(ff.ok());
  EXPECT_EQ(ff->At(0, 1).AsString(), "deflt");
  const table::ValueMap* v = ff->At(0, 2).AsMap();
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->at("v1").AsDouble(), 1.0);
}

TEST(EngineTest, NormalizeRejectsNoTimestamp) {
  table::Schema schema({{"a", table::DataType::kDouble}});
  table::Table t(schema);
  t.AppendRow({table::Value::Double(1)});
  EXPECT_FALSE(NormalizeToFeatureFamilyTable(t).ok());
  EXPECT_TRUE(FamiliesFromTable(t).status().IsInvalidArgument());
  EXPECT_TRUE(FamiliesFromTable(table::Table()).status().IsInvalidArgument());
}

TEST(EngineTest, RankExcludesTargetAndConditionNames) {
  auto engine = MakeEngine(300, 5);
  auto rows = engine->Query(ByMetric("TRUE"));
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  auto fams = FamiliesFromTable(rows->table);
  ASSERT_TRUE(fams.ok()) << fams.status().ToString();
  RankRequest req;
  for (const FeatureFamily& f : *fams) {
    if (f.name == "pipeline_runtime") req.target = f;
    req.candidates.push_back(f);
  }
  req.scorer_name = "L2";
  auto table = engine->Rank(req);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->RankOf("pipeline_runtime"), 0u);  // excluded (it is Y)
  EXPECT_GE(table->rows.size(), 3u);
}

TEST(EngineTest, EndToEndSessionWorkflow) {
  // Algorithm 1 end to end: target, search space, rank; the causal
  // families outrank noise.
  auto engine = MakeEngine(400, 6);
  Session session(engine.get(), kRange);
  ASSERT_TRUE(
      session.SetTargetByQuery(ByMetric("metric_name = 'pipeline_runtime'"))
          .ok());
  ASSERT_TRUE(session
                  .SetSearchSpaceByQuery(
                      ByMetric("metric_name <> 'pipeline_runtime'"))
                  .ok());
  ASSERT_TRUE(session.SetScorer("L2").ok());
  auto table = session.Run();
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  ASSERT_GE(table->rows.size(), 3u);
  // input_rate (cause) and latency (effect) outrank disk noise.
  EXPECT_GT(table->RankOf("pipeline_input_rate"), 0u);
  EXPECT_LE(table->RankOf("pipeline_input_rate"), 2u);
  EXPECT_LE(table->RankOf("pipeline_latency"), 2u);
  EXPECT_EQ(table->RankOf("disk_noise"), 3u);
  EXPECT_EQ(session.history().size(), 1u);
}

TEST(EngineTest, SessionConditioningChangesRanking) {
  // §5.2: conditioning on the input size demotes it and lifts residual
  // causes. Here conditioning on input_rate should drop its own rank and
  // the latency (pure effect of runtime) stays high.
  auto engine = MakeEngine(400, 7);
  Session session(engine.get(), kRange);
  ASSERT_TRUE(
      session.SetTargetByQuery(ByMetric("metric_name = 'pipeline_runtime'"))
          .ok());
  ASSERT_TRUE(session
                  .SetSearchSpaceByQuery(
                      ByMetric("metric_name <> 'pipeline_runtime'"))
                  .ok());
  ASSERT_TRUE(session.SetScorer("L2").ok());
  auto before = session.Run();
  ASSERT_TRUE(before.ok());
  const size_t rate_rank_before = before->RankOf("pipeline_input_rate");
  ASSERT_TRUE(session
                  .SetConditionByQuery(
                      ByMetric("metric_name = 'pipeline_input_rate'"))
                  .ok());
  auto after = session.Run();
  ASSERT_TRUE(after.ok());
  // After conditioning on Z = input rate, scoring is the conditional
  // procedure; the input-rate family is excluded by the overlap rule or
  // scores near zero.
  const size_t rate_rank_after = after->RankOf("pipeline_input_rate");
  if (rate_rank_after != 0) {
    const double score_after = after->rows[rate_rank_after - 1].score;
    const double score_before = before->rows[rate_rank_before - 1].score;
    EXPECT_LT(score_after, score_before * 0.5);
  }
  EXPECT_EQ(session.history().size(), 2u);
}

TEST(EngineTest, SessionDrillDown) {
  auto engine = MakeEngine(200, 8);
  Session session(engine.get(), kRange);
  ASSERT_TRUE(session.SetSearchSpaceByQuery(ByMetric("TRUE")).ok());
  EXPECT_EQ(session.num_candidates(), 4u);
  ASSERT_TRUE(session.DrillDown({"pipeline_*"}).ok());
  EXPECT_EQ(session.num_candidates(), 3u);
  EXPECT_FALSE(session.DrillDown({"zzz*"}).ok());
}

TEST(EngineTest, SessionDrillDownByHostFamilies) {
  auto engine = MakeEngine(200, 8);
  Session session(engine.get(), kRange);
  // One family per host; a by-host family name starts with a literal '*'.
  ASSERT_TRUE(session
                  .SetSearchSpaceByQuery(
                      "SELECT timestamp AS ts, CONCAT('*{host=', "
                      "COALESCE(tag['host'], 'NULL'), '}') AS name, "
                      "MAP(CONCAT(metric_name, tag), value) AS v FROM tsdb")
                  .ok());
  EXPECT_EQ(session.num_candidates(), 2u);
  ASSERT_TRUE(session.DrillDown({"*host*"}).ok());
  EXPECT_EQ(session.num_candidates(), 2u);
  ASSERT_TRUE(session.DrillDown({"*{host=dn-*}"}).ok());
  EXPECT_EQ(session.num_candidates(), 1u);
}

TEST(EngineTest, SessionValidation) {
  auto engine = MakeEngine(100, 9);
  Session session(engine.get(), kRange);
  EXPECT_FALSE(session.Run().ok());  // no target
  ASSERT_TRUE(
      session.SetTargetByQuery(ByMetric("metric_name = 'pipeline_runtime'"))
          .ok());
  EXPECT_FALSE(session.Run().ok());  // no search space
  EXPECT_FALSE(session.SetScorer("bogus").ok());
  EXPECT_FALSE(session.SetExplainRange(TimeRange{kRange.end + 100,
                                                 kRange.end + 200})
                   .ok());
  EXPECT_FALSE(session.ConditionOnPseudocause().ok() &&
               false);  // target set: pseudocause ok
}

TEST(EngineTest, PersistentExecutorAccumulatesStats) {
  // The engine holds one executor for its lifetime: counters survive
  // across Query() calls, and last_exec_stats() isolates the latest query.
  Engine engine(MakeStore(50, 11));
  engine.RegisterStoreTable("tsdb", kRange);
  ASSERT_TRUE(engine.Query("SELECT COUNT(*) AS n FROM tsdb").ok());
  ASSERT_TRUE(
      engine.Query("SELECT AVG(value) AS v FROM tsdb "
                   "WHERE metric_name = 'disk_noise'")
          .ok());
  EXPECT_EQ(engine.exec_stats().tables_scanned, 2u);
  EXPECT_EQ(engine.last_exec_stats().tables_scanned, 1u);
  // The second scan was narrowed by metric pushdown: 50 rows, not 200.
  EXPECT_EQ(engine.last_exec_stats().rows_scanned, 50u);
  EXPECT_EQ(engine.exec_stats().rows_scanned, 250u);
  EXPECT_FALSE(engine.last_exec_stats().operators.empty());
  engine.ResetExecStats();
  EXPECT_EQ(engine.exec_stats().tables_scanned, 0u);
}

TEST(EngineTest, StoreTablePushdownNarrowsScan) {
  // A WHERE over the registered store table narrows the ScanRequest the
  // store actually serves (time window and metric constraint).
  Engine engine(MakeStore(100, 12));
  engine.RegisterStoreTable("tsdb", kRange);
  auto t = engine.Query(
      "SELECT COUNT(*) AS n FROM tsdb WHERE metric_name = 'disk_noise' "
      "AND timestamp BETWEEN 600 AND 1200");
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ(t->table.At(0, 0).AsInt(), 11);  // minutes 10..20 inclusive
  const tsdb::ScanStats& st = engine.store().scan_stats();
  EXPECT_EQ(st.last_range.start, 600);
  EXPECT_EQ(st.last_range.end, 1201);
  EXPECT_EQ(st.series_matched, 1u);
  EXPECT_EQ(st.points_returned, 11u);
}

TEST(EngineTest, QueryReportsStatementKindAndStats) {
  Engine engine(MakeStore(50, 21));
  engine.RegisterStoreTable("tsdb", kRange);
  auto select = engine.Query("SELECT COUNT(*) AS n FROM tsdb");
  ASSERT_TRUE(select.ok()) << select.status().ToString();
  EXPECT_EQ(select->kind, sql::StatementKind::kSelect);
  EXPECT_FALSE(select->score_table.has_value());
  EXPECT_EQ(select->table.At(0, 0).AsInt(), 200);
  EXPECT_FALSE(select->stats.operators.empty());
}

TEST(EngineTest, ExplainStatementProducesScoreTable) {
  Engine engine(MakeStore(200, 22));
  engine.RegisterStoreTable("tsdb", kRange);
  auto result = engine.Query(
      "EXPLAIN (SELECT timestamp, AVG(value) AS y FROM tsdb "
      "         WHERE metric_name = 'pipeline_runtime' GROUP BY timestamp) "
      "USING (SELECT timestamp, metric_name, AVG(value) AS v FROM tsdb "
      "       WHERE metric_name != 'pipeline_runtime' "
      "       GROUP BY timestamp, metric_name) "
      "SCORE BY 'CorrMax' TOP 2");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->kind, sql::StatementKind::kExplain);
  ASSERT_TRUE(result->score_table.has_value());
  // TOP 2 of the three candidate metrics; the causal pair outranks noise.
  ASSERT_EQ(result->table.num_rows(), 2u);
  EXPECT_EQ(result->score_table->rows.size(), 2u);
  EXPECT_EQ(result->score_table->RankOf("disk_noise"), 0u);
  // The relational Score Table: rank, family, score, ...
  EXPECT_EQ(result->table.schema().field(0).name, "rank");
  EXPECT_EQ(result->table.schema().field(1).name, "family");
  EXPECT_EQ(result->table.At(0, 0).AsInt(), 1);
  // The Rank operator roots the plan and reports the fan-out detail.
  ASSERT_FALSE(result->stats.operators.empty());
  EXPECT_EQ(result->stats.operators[0].name, "Rank");
}

TEST(EngineTest, ExplainWithoutTopKeepsThePaperDefault) {
  // 25 candidate families: with no TOP clause the Score Table stops at
  // the paper's default of 20 rows; TOP 25 shows the cut was the
  // default's, not the search space's.
  auto store = std::make_shared<tsdb::SeriesStore>();
  Rng rng(25);
  for (int64_t i = 0; i < 60; ++i) {
    const tsdb::TagSet tags{{"host", "h0"}};
    ASSERT_TRUE(store->Write("target", tags, i * 60, rng.Normal()).ok());
    for (int m = 0; m < 25; ++m) {
      ASSERT_TRUE(store
                      ->Write("m" + std::to_string(m), tags, i * 60,
                              rng.Normal())
                      .ok());
    }
  }
  Engine engine(store);
  engine.RegisterStoreTable("tsdb", kRange);
  const std::string stmt = "EXPLAIN (" + ByMetric("metric_name = 'target'") +
                           ") USING (" +
                           ByMetric("metric_name <> 'target'") +
                           ") SCORE BY 'CorrMax'";
  auto by_default = engine.Query(stmt);
  ASSERT_TRUE(by_default.ok()) << by_default.status().ToString();
  EXPECT_EQ(by_default->table.num_rows(), 20u);
  auto top25 = engine.Query(stmt + " TOP 25");
  ASSERT_TRUE(top25.ok()) << top25.status().ToString();
  EXPECT_EQ(top25->table.num_rows(), 25u);
}

TEST(EngineTest, ExplainScoreTableComposesWithSql) {
  // The EXPLAIN result is an ordinary table: register it and re-query.
  Engine engine(MakeStore(150, 23));
  engine.RegisterStoreTable("tsdb", kRange);
  auto result = engine.Query(
      "EXPLAIN (SELECT timestamp, AVG(value) AS y FROM tsdb "
      "         WHERE metric_name = 'pipeline_runtime' GROUP BY timestamp) "
      "USING (SELECT timestamp, metric_name, AVG(value) AS v FROM tsdb "
      "       WHERE metric_name != 'pipeline_runtime' "
      "       GROUP BY timestamp, metric_name) "
      "SCORE BY 'CorrMax'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  engine.catalog().RegisterTable("scores", result->table);
  auto strong = engine.Query(
      "SELECT family, score FROM scores WHERE score > 0.5 AND rank <= 2 "
      "ORDER BY score DESC");
  ASSERT_TRUE(strong.ok()) << strong.status().ToString();
  EXPECT_LE(strong->table.num_rows(), 2u);
}

TEST(EngineTest, ExplainErrorsAreActionable) {
  Engine engine(MakeStore(60, 24));
  engine.RegisterStoreTable("tsdb", kRange);
  // Unknown scorer fails before any sub-select executes.
  auto bad_scorer = engine.Query(
      "EXPLAIN (SELECT timestamp, AVG(value) AS y FROM tsdb "
      "GROUP BY timestamp) USING (SELECT timestamp, metric_name, "
      "AVG(value) AS v FROM tsdb GROUP BY timestamp, metric_name) "
      "SCORE BY 'bogus'");
  EXPECT_FALSE(bad_scorer.ok());
  // A target query with no timestamp column cannot form families.
  auto bad_target = engine.Query(
      "EXPLAIN (SELECT COUNT(*) AS n FROM tsdb) "
      "USING (SELECT timestamp, metric_name, AVG(value) AS v FROM tsdb "
      "GROUP BY timestamp, metric_name)");
  EXPECT_FALSE(bad_target.ok());
}

TEST(EngineTest, SessionExplainRangeReported) {
  auto engine = MakeEngine(300, 10);
  Session session(engine.get(), kRange);
  ASSERT_TRUE(
      session.SetTargetByQuery(ByMetric("metric_name = 'pipeline_runtime'"))
          .ok());
  ASSERT_TRUE(session.SetExplainRange(TimeRange{100 * 60, 200 * 60}).ok());
  ASSERT_TRUE(session
                  .SetSearchSpaceByQuery(
                      ByMetric("metric_name <> 'pipeline_runtime'"))
                  .ok());
  ASSERT_TRUE(session.SetScorer("L2").ok());
  auto table = session.Run();
  ASSERT_TRUE(table.ok());
  const size_t r = table->RankOf("pipeline_input_rate");
  ASSERT_GT(r, 0u);
  EXPECT_GT(table->rows[r - 1].explain_window_score, 0.3);
}

}  // namespace
}  // namespace explainit::core
