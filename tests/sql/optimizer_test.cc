// Cost-based optimizer tests: golden plan shapes (ExecStats::plan_text),
// join reordering off statement order, partial-aggregate pushdown below
// joins (including the reduced-join-input acceptance check), COUNT rollup
// routing, live catalog estimates, and the fallbacks that must keep the
// statement-order plan byte-identical.
#include <gtest/gtest.h>

#include "sql/executor.h"
#include "sql/logical_plan.h"
#include "sql/planner.h"
#include "tsdb/store.h"

namespace explainit::sql {
namespace {

using table::DataType;
using table::Schema;
using table::Table;
using table::Value;

constexpr int64_t kPoints = 100;  // per series, one per minute
const TimeRange kFullRange{0, kPoints * 60};

// A star join in worst-case statement order: both dimensions first
// (cross-joined), the 600-row fact table last. The planner should start
// from a dimension and join the fact table second.
const char kStarQuery[] =
    "SELECT d1.a AS a, SUM(f.v) AS s "
    "FROM d1 CROSS JOIN d2 JOIN fact f ON f.fk = d1.k AND f.dj = d2.j "
    "GROUP BY d1.a ORDER BY a";

// A fact-dimension join whose aggregates all read the fact side: the
// partial aggregate collapses 600 fact rows to 5 before the join.
const char kPushQuery[] =
    "SELECT d1.a AS a, SUM(f.v) AS s, COUNT(f.v) AS n, MIN(f.v) AS lo, "
    "MAX(f.v) AS hi, AVG(f.v) AS av "
    "FROM fact f JOIN d1 ON f.fk = d1.k GROUP BY d1.a ORDER BY a";

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    functions_ = FunctionRegistry::Builtins();
    store_ = std::make_shared<tsdb::SeriesStore>();
    for (int host = 0; host < 4; ++host) {
      const tsdb::TagSet tags{{"host", "h" + std::to_string(host)}};
      for (int64_t i = 0; i < kPoints; ++i) {
        ASSERT_TRUE(
            store_->Write("cpu", tags, i * 60, host * 100.0 + i).ok());
        ASSERT_TRUE(
            store_->Write("mem", tags, i * 60, host * 200.0 + i).ok());
      }
    }
    // Engine-style registration: hints forwarded verbatim, live row
    // estimate, count tiers usable (Engine::RegisterStoreTable mirrors
    // this).
    auto store = store_;
    HintedProviderOptions provider_options;
    provider_options.estimated_rows = [store] { return store->num_points(); };
    provider_options.exact_rollups = true;
    catalog_.RegisterHintedProvider(
        "tsdb",
        [store](const tsdb::ScanHints& hints) -> Result<table::Table> {
          tsdb::ScanRequest req;
          req.range = kFullRange;
          req.hints = hints;
          return store->ScanToTable(req);
        },
        provider_options);

    Table fact(Schema({{"fk", DataType::kInt64},
                       {"dj", DataType::kInt64},
                       {"v", DataType::kDouble}}));
    for (int64_t i = 0; i < 600; ++i) {
      fact.AppendRow({Value::Int(i % 5), Value::Int(i % 4),
                      Value::Double(static_cast<double>(i))});
    }
    catalog_.RegisterTable("fact", std::move(fact));

    Table d1(Schema({{"k", DataType::kInt64}, {"a", DataType::kString}}));
    for (int64_t k = 0; k < 5; ++k) {
      d1.AppendRow({Value::Int(k), Value::String("a" + std::to_string(k))});
    }
    catalog_.RegisterTable("d1", std::move(d1));

    Table d2(Schema({{"j", DataType::kInt64}, {"b", DataType::kString}}));
    for (int64_t j = 0; j < 4; ++j) {
      d2.AppendRow({Value::Int(j), Value::String("b" + std::to_string(j))});
    }
    catalog_.RegisterTable("d2", std::move(d2));

    executor_ = std::make_unique<Executor>(&catalog_, &functions_);
  }

  Table MustQuery(const std::string& q) {
    auto res = executor_->Query(q);
    EXPECT_TRUE(res.ok()) << q << " -> " << res.status().ToString();
    return res.ok() ? std::move(res).value() : Table{};
  }

  /// Runs `q` under `options`; returns the result table and leaves the
  /// per-query stats in executor_->last_stats().
  Table QueryWith(const PlannerOptions& options, const std::string& q) {
    executor_->set_optimizer(options);
    return MustQuery(q);
  }

  const OperatorStats* FindOperator(const std::string& name) {
    for (const OperatorStats& op : executor_->last_stats().operators) {
      if (op.name == name) return &op;
    }
    return nullptr;
  }

  static void ExpectSameTable(const Table& got, const Table& want) {
    ASSERT_EQ(got.num_rows(), want.num_rows());
    ASSERT_EQ(got.num_columns(), want.num_columns());
    for (size_t r = 0; r < got.num_rows(); ++r) {
      for (size_t c = 0; c < got.num_columns(); ++c) {
        EXPECT_EQ(got.At(r, c).ToString(), want.At(r, c).ToString())
            << "row " << r << " col " << c;
      }
    }
  }

  static PlannerOptions Off() {
    PlannerOptions off;
    off.enabled = false;
    return off;
  }

  std::shared_ptr<tsdb::SeriesStore> store_;
  Catalog catalog_;
  FunctionRegistry functions_;
  std::unique_ptr<Executor> executor_;
};

TEST_F(OptimizerTest, OptimizerOffReproducesStatementOrderPlan) {
  Table t = QueryWith(Off(), kStarQuery);
  const ExecStats& st = executor_->last_stats();
  EXPECT_EQ(st.joins_reordered, 0u);
  EXPECT_EQ(st.agg_pushdowns, 0u);
  EXPECT_EQ(st.count_rollup_rewrites, 0u);
  ASSERT_FALSE(st.plan_text.empty());
  EXPECT_EQ(st.plan_text.find("[reordered]"), std::string::npos);
  EXPECT_EQ(st.plan_text.find("[partial below join]"), std::string::npos);
  // Leaves print in statement order: d1, d2, fact.
  const size_t p1 = st.plan_text.find("Scan d1");
  const size_t p2 = st.plan_text.find("Scan d2");
  const size_t pf = st.plan_text.find("Scan fact");
  ASSERT_NE(p1, std::string::npos);
  ASSERT_NE(p2, std::string::npos);
  ASSERT_NE(pf, std::string::npos);
  EXPECT_LT(p1, p2);
  EXPECT_LT(p2, pf);
  EXPECT_EQ(t.num_rows(), 5u);
}

TEST_F(OptimizerTest, ReordersStarJoinOffStatementOrder) {
  Table reordered = QueryWith(PlannerOptions{}, kStarQuery);
  const ExecStats st = executor_->last_stats();
  EXPECT_EQ(st.joins_reordered, 1u);
  EXPECT_NE(st.plan_text.find("[reordered]"), std::string::npos);
  // The planner starts from the small connected dimension and joins the
  // 600-row fact table into it, pushing d1 last: d2, fact, d1.
  const size_t p2 = st.plan_text.find("Scan d2");
  const size_t pf = st.plan_text.find("Scan fact");
  const size_t p1 = st.plan_text.find("Scan d1");
  ASSERT_NE(p2, std::string::npos);
  ASSERT_NE(pf, std::string::npos);
  ASSERT_NE(p1, std::string::npos);
  EXPECT_LT(p2, pf);
  EXPECT_LT(pf, p1);

  Table baseline = QueryWith(Off(), kStarQuery);
  ExpectSameTable(reordered, baseline);
}

TEST_F(OptimizerTest, PushesAggregateBelowJoinAndShrinksJoinInput) {
  Table pushed = QueryWith(PlannerOptions{}, kPushQuery);
  const ExecStats st = executor_->last_stats();
  EXPECT_EQ(st.agg_pushdowns, 1u);
  EXPECT_NE(st.plan_text.find("[partial below join]"), std::string::npos);
  EXPECT_NE(st.plan_text.find("Subquery q=f"), std::string::npos);
  // Acceptance criterion: the partial aggregate collapses the 600 fact
  // rows to the 5 distinct join keys before they reach the join.
  const OperatorStats* join = FindOperator("HashJoin");
  ASSERT_NE(join, nullptr);
  EXPECT_EQ(join->rows_output, 5u);

  Table baseline = QueryWith(Off(), kPushQuery);
  const OperatorStats* off_join = FindOperator("HashJoin");
  ASSERT_NE(off_join, nullptr);
  EXPECT_EQ(off_join->rows_output, 600u);
  ExpectSameTable(pushed, baseline);
}

TEST_F(OptimizerTest, ReorderAndPushdownCompose) {
  PlannerOptions all;  // defaults: everything on
  Table t = QueryWith(all, kStarQuery);
  const ExecStats st = executor_->last_stats();
  EXPECT_EQ(st.joins_reordered, 1u);
  EXPECT_EQ(st.agg_pushdowns, 1u);
  EXPECT_NE(st.plan_text.find("[reordered]"), std::string::npos);
  EXPECT_NE(st.plan_text.find("[partial below join]"), std::string::npos);
  ExpectSameTable(t, QueryWith(Off(), kStarQuery));
}

TEST_F(OptimizerTest, CountRollupServesCountTierOnSealedSegments) {
  ASSERT_TRUE(store_->Flush().ok());  // seal so the minute tier exists
  store_->ResetScanStats();
  const std::string q =
      "SELECT DATE_TRUNC('minute', timestamp) AS m, COUNT(*) AS n "
      "FROM tsdb WHERE metric_name = 'cpu' "
      "GROUP BY DATE_TRUNC('minute', timestamp) ORDER BY m";
  Table t = QueryWith(PlannerOptions{}, q);
  const ExecStats st = executor_->last_stats();
  EXPECT_EQ(st.count_rollup_rewrites, 1u);
  EXPECT_EQ(st.rollup_hinted_scans, 1u);
  EXPECT_NE(st.plan_text.find("rollup=count@60"), std::string::npos);
  // Sealed segments serve per-bucket point counts; nothing raw decodes.
  EXPECT_EQ(store_->scan_stats().points_decoded, 0u);
  ASSERT_EQ(t.num_rows(), static_cast<size_t>(kPoints));
  for (size_t i = 0; i < t.num_rows(); ++i) {
    EXPECT_EQ(t.At(i, 1).type(), DataType::kInt64);  // COUNT stays integral
    EXPECT_EQ(t.At(i, 1).AsInt(), 4);                // one point per host
  }

  // Identical to the unrewritten plan and to a materialised copy that
  // cannot take hints at all.
  Table unrewritten = QueryWith(Off(), q);
  EXPECT_EQ(executor_->last_stats().count_rollup_rewrites, 0u);
  ExpectSameTable(t, unrewritten);
  tsdb::ScanRequest all;
  all.range = kFullRange;
  auto full = store_->ScanToTable(all);
  ASSERT_TRUE(full.ok());
  catalog_.RegisterTable("tsdb_mat", std::move(full).value());
  const std::string mat_q =
      "SELECT DATE_TRUNC('minute', timestamp) AS m, COUNT(*) AS n "
      "FROM tsdb_mat WHERE metric_name = 'cpu' "
      "GROUP BY DATE_TRUNC('minute', timestamp) ORDER BY m";
  ExpectSameTable(t, QueryWith(PlannerOptions{}, mat_q));
}

TEST_F(OptimizerTest, CountRollupMutableHeadFallsBackToRawCorrectly) {
  // No Flush: every series still sits in its mutable head, so the count
  // hint is served by raw decodes with value = 1.0 substituted per point.
  store_->ResetScanStats();
  Table t = QueryWith(
      PlannerOptions{},
      "SELECT DATE_TRUNC('minute', timestamp) AS m, COUNT(value) AS n "
      "FROM tsdb WHERE metric_name = 'mem' "
      "GROUP BY DATE_TRUNC('minute', timestamp) ORDER BY m");
  EXPECT_EQ(executor_->last_stats().count_rollup_rewrites, 1u);
  EXPECT_GT(store_->scan_stats().points_decoded, 0u);
  ASSERT_EQ(t.num_rows(), static_cast<size_t>(kPoints));
  for (size_t i = 0; i < t.num_rows(); ++i) {
    EXPECT_EQ(t.At(i, 1).AsInt(), 4);
  }
}

TEST_F(OptimizerTest, EstimatedRowsAreLiveForStoreBackedTables) {
  // Materialised tables report exact counts; provider-backed tables go
  // through the live estimator on every call.
  EXPECT_EQ(catalog_.EstimatedRows("fact"), std::optional<size_t>(600));
  EXPECT_EQ(catalog_.EstimatedRows("tsdb"),
            std::optional<size_t>(store_->num_points()));
  const size_t before = *catalog_.EstimatedRows("tsdb");
  ASSERT_TRUE(store_->Write("cpu", tsdb::TagSet{{"host", "h9"}}, 0, 1.0).ok());
  EXPECT_EQ(*catalog_.EstimatedRows("tsdb"), before + 1);
  EXPECT_TRUE(catalog_.SupportsExactRollups("tsdb"));
  EXPECT_FALSE(catalog_.SupportsExactRollups("fact"));
}

TEST_F(OptimizerTest, OuterJoinsKeepStatementOrder) {
  Table t = QueryWith(
      PlannerOptions{},
      "SELECT d1.a AS a, SUM(f.v) AS s "
      "FROM d1 CROSS JOIN d2 LEFT JOIN fact f ON f.fk = d1.k AND f.dj = d2.j "
      "GROUP BY d1.a ORDER BY a");
  EXPECT_EQ(executor_->last_stats().joins_reordered, 0u);
  EXPECT_EQ(executor_->last_stats().agg_pushdowns, 0u);
  EXPECT_EQ(t.num_rows(), 5u);
}

TEST_F(OptimizerTest, LimitWithoutOrderByKeepsStatementOrder) {
  Table t = QueryWith(
      PlannerOptions{},
      "SELECT d1.a AS a, SUM(f.v) AS s "
      "FROM d1 CROSS JOIN d2 JOIN fact f ON f.fk = d1.k AND f.dj = d2.j "
      "GROUP BY d1.a LIMIT 3");
  EXPECT_EQ(executor_->last_stats().joins_reordered, 0u);
  EXPECT_EQ(executor_->last_stats().agg_pushdowns, 0u);
  EXPECT_EQ(t.num_rows(), 3u);
}

TEST_F(OptimizerTest, UnqualifiedReferencesKeepStatementOrder) {
  // `a` binds positionally in the evaluator; rewrites must not move it.
  Table t = QueryWith(
      PlannerOptions{},
      "SELECT a, SUM(f.v) AS s "
      "FROM d1 CROSS JOIN d2 JOIN fact f ON f.fk = d1.k AND f.dj = d2.j "
      "GROUP BY a");
  EXPECT_EQ(executor_->last_stats().joins_reordered, 0u);
  EXPECT_EQ(executor_->last_stats().agg_pushdowns, 0u);
  EXPECT_EQ(t.num_rows(), 5u);
}

TEST_F(OptimizerTest, RepresentativeRowItemsKeepStatementOrder) {
  // d2.b is not in GROUP BY: its value depends on which row represents
  // each group, so any plan rewrite could change the answer.
  Table t = QueryWith(
      PlannerOptions{},
      "SELECT d2.b AS b, SUM(f.v) AS s "
      "FROM d1 CROSS JOIN d2 JOIN fact f ON f.fk = d1.k AND f.dj = d2.j "
      "GROUP BY d1.a ORDER BY s");
  EXPECT_EQ(executor_->last_stats().joins_reordered, 0u);
  EXPECT_EQ(executor_->last_stats().agg_pushdowns, 0u);
  EXPECT_EQ(t.num_rows(), 5u);
}

}  // namespace
}  // namespace explainit::sql
