// Logical-plan IR tests: the plan printer (the golden strings the
// optimizer suite also leans on), statement cloning, normalised
// expression identity, and the shape of the cost model.
#include "sql/logical_plan.h"

#include <gtest/gtest.h>

#include "sql/cost.h"
#include "sql/parser.h"

namespace explainit::sql {
namespace {

using table::Value;

std::unique_ptr<SelectStatement> MustParse(const std::string& sql) {
  auto res = Parse(sql);
  EXPECT_TRUE(res.ok()) << sql << " -> " << res.status().ToString();
  return res.ok() ? std::move(*res) : nullptr;
}

TEST(LogicalPlanPrinter, ScanLineShowsHintsAndEstimate) {
  LogicalPlan plan;
  auto scan = std::make_unique<LogicalNode>(LogicalOp::kScan);
  scan->table_name = "tsdb";
  scan->qualifier = "f";
  scan->projection = std::vector<std::string>{"timestamp", "value"};
  scan->hints.range = TimeRange{0, 3600};
  scan->hints.metric_names = std::vector<std::string>{"cpu"};
  scan->hints.tag_filter.Set("host", "h0");
  scan->hints.min_step_seconds = 60;
  scan->hints.rollup = tsdb::RollupAggregate::kCount;
  scan->est_rows = 1234.4;
  plan.root = std::move(scan);
  EXPECT_EQ(plan.ToString(),
            "Scan tsdb q=f cols=2 range metric='cpu' tags=1 "
            "rollup=count@60 rows~1234\n");
}

TEST(LogicalPlanPrinter, ScanLineListsSeveralMetricNames) {
  LogicalPlan plan;
  auto scan = std::make_unique<LogicalNode>(LogicalOp::kScan);
  scan->table_name = "tsdb";
  scan->hints.metric_names = std::vector<std::string>{"cpu", "mem"};
  plan.root = std::move(scan);
  EXPECT_EQ(plan.ToString(), "Scan tsdb metric in ('cpu', 'mem')\n");
}

TEST(LogicalPlanPrinter, TreeIndentsChildrenAndMarksRewrites) {
  auto stmt = MustParse(
      "SELECT d.g AS g, SUM(f.v) AS s FROM fact f JOIN d ON f.k = d.k "
      "GROUP BY d.g ORDER BY g");
  ASSERT_NE(stmt, nullptr);

  LogicalPlan plan;
  auto left = std::make_unique<LogicalNode>(LogicalOp::kSubquery);
  left->qualifier = "f";
  left->partial = true;
  auto right = std::make_unique<LogicalNode>(LogicalOp::kScan);
  right->table_name = "d";
  right->qualifier = "d";
  right->est_rows = 10;
  auto join = std::make_unique<LogicalNode>(LogicalOp::kJoin);
  join->join = &stmt->joins[0];
  join->build_left = true;
  join->reordered = true;
  join->children.push_back(std::move(left));
  join->children.push_back(std::move(right));
  auto agg = std::make_unique<LogicalNode>(LogicalOp::kAggregate);
  agg->stmt = stmt.get();
  agg->children.push_back(std::move(join));
  auto sort = std::make_unique<LogicalNode>(LogicalOp::kSortLimit);
  sort->stmt = stmt.get();
  sort->aggregated = true;
  sort->children.push_back(std::move(agg));
  plan.root = std::move(sort);

  EXPECT_EQ(plan.ToString(),
            "SortLimit keys=1\n"
            "  Aggregate group_by=[d.g]\n"
            "    HashJoin inner on (f.k = d.k) build=left [reordered]\n"
            "      Subquery q=f [partial below join]\n"
            "      Scan d q=d rows~10\n");
}

TEST(LogicalPlanPrinter, UnionFilterAndSingleRowShapes) {
  LogicalPlan plan;
  auto row = std::make_unique<LogicalNode>(LogicalOp::kSingleRow);
  auto filter = std::make_unique<LogicalNode>(LogicalOp::kFilter);
  filter->predicate = plan.AddExpr(MakeBinary(
      BinaryOp::kGt, MakeColumnRef("", "v"), MakeLiteral(Value::Int(3))));
  filter->children.push_back(std::move(row));
  auto uni = std::make_unique<LogicalNode>(LogicalOp::kUnion);
  uni->children.push_back(std::move(filter));
  uni->children.push_back(std::make_unique<LogicalNode>(LogicalOp::kSingleRow));
  plan.root = std::move(uni);
  EXPECT_EQ(plan.ToString(),
            "UnionAll branches=2\n"
            "  Filter (v > 3)\n"
            "    SingleRow\n"
            "  SingleRow\n");
}

TEST(LogicalPlanClone, CloneSelectIsDeepAndComplete) {
  auto stmt = MustParse(
      "SELECT a.x AS x, COUNT(*) AS n FROM ta a "
      "JOIN tb b ON a.k = b.k LEFT JOIN tc c ON b.j = c.j "
      "WHERE a.x > 1 GROUP BY a.x HAVING COUNT(*) > 2 "
      "ORDER BY x DESC LIMIT 7");
  ASSERT_NE(stmt, nullptr);
  auto clone = CloneSelect(*stmt);

  ASSERT_EQ(clone->items.size(), 2u);
  EXPECT_EQ(clone->items[0].alias, "x");
  EXPECT_EQ(clone->items[0].expr->ToString(), stmt->items[0].expr->ToString());
  EXPECT_NE(clone->items[0].expr.get(), stmt->items[0].expr.get());
  ASSERT_TRUE(clone->from.has_value());
  EXPECT_EQ(clone->from->table_name, "ta");
  EXPECT_EQ(clone->from->alias, "a");
  ASSERT_EQ(clone->joins.size(), 2u);
  EXPECT_EQ(clone->joins[1].type, JoinType::kLeft);
  EXPECT_EQ(clone->joins[0].condition->ToString(),
            stmt->joins[0].condition->ToString());
  ASSERT_NE(clone->where, nullptr);
  EXPECT_EQ(clone->where->ToString(), stmt->where->ToString());
  ASSERT_EQ(clone->group_by.size(), 1u);
  ASSERT_NE(clone->having, nullptr);
  ASSERT_EQ(clone->order_by.size(), 1u);
  EXPECT_FALSE(clone->order_by[0].ascending);
  ASSERT_TRUE(clone->limit.has_value());
  EXPECT_EQ(*clone->limit, 7);
}

TEST(LogicalPlanClone, UnionContinuationsAreNotCloned) {
  auto stmt = MustParse("SELECT 1 AS a UNION ALL SELECT 2 AS a");
  ASSERT_NE(stmt, nullptr);
  ASSERT_EQ(stmt->union_all.size(), 1u);
  auto clone = CloneSelect(*stmt);
  EXPECT_TRUE(clone->union_all.empty());
}

TEST(NormalizedText, LowercasesReferencesButNotLiterals) {
  ExprPtr a = MakeBinary(BinaryOp::kEq, MakeColumnRef("F", "Host"),
                         MakeLiteral(Value::String("H0")));
  ExprPtr b = MakeBinary(BinaryOp::kEq, MakeColumnRef("f", "host"),
                         MakeLiteral(Value::String("H0")));
  ExprPtr c = MakeBinary(BinaryOp::kEq, MakeColumnRef("f", "host"),
                         MakeLiteral(Value::String("h0")));
  EXPECT_EQ(NormalizedExprText(*a), NormalizedExprText(*b));
  EXPECT_NE(NormalizedExprText(*a), NormalizedExprText(*c));
}

TEST(CostModel, ClampAndDefaults) {
  EXPECT_EQ(cost::ClampRows(0.0), 1.0);
  EXPECT_EQ(cost::ClampRows(50.0), 50.0);
  EXPECT_EQ(cost::KnownOrDefault(cost::kUnknownRows), cost::kDefaultRows);
  EXPECT_EQ(cost::KnownOrDefault(7.0), 7.0);
}

TEST(CostModel, ScanSelectivityShrinksWithHints) {
  tsdb::ScanHints none;
  tsdb::ScanHints narrowed;
  narrowed.range = TimeRange{0, 60};
  narrowed.metric_names = std::vector<std::string>{"cpu"};
  narrowed.tag_filter.Set("host", "h0");
  EXPECT_EQ(cost::ScanSelectivity(none), 1.0);
  EXPECT_LT(cost::ScanSelectivity(narrowed), cost::ScanSelectivity(none));
  tsdb::ScanHints rolled = narrowed;
  rolled.min_step_seconds = 60;
  rolled.rollup = tsdb::RollupAggregate::kSum;
  EXPECT_LT(cost::ScanSelectivity(rolled), cost::ScanSelectivity(narrowed));
}

TEST(CostModel, MetricNameSetSelectivityScalesWithItsSize) {
  // One name keeps 1/5 of the table, k names k/5, capped at the whole.
  tsdb::ScanHints hints;
  hints.metric_names = std::vector<std::string>{"cpu"};
  EXPECT_DOUBLE_EQ(cost::ScanSelectivity(hints), 0.2);
  hints.metric_names = std::vector<std::string>{"a", "b", "c"};
  EXPECT_DOUBLE_EQ(cost::ScanSelectivity(hints), 0.6);
  hints.metric_names =
      std::vector<std::string>{"a", "b", "c", "d", "e", "f", "g"};
  EXPECT_DOUBLE_EQ(cost::ScanSelectivity(hints), 1.0);
  hints.metric_names = std::vector<std::string>{};
  EXPECT_DOUBLE_EQ(cost::ScanSelectivity(hints), 0.0);
}

TEST(CostModel, JoinOutputFavoursEqualities) {
  const double cross = cost::JoinOutputRows(100.0, 1000.0, 0);
  const double one_eq = cost::JoinOutputRows(100.0, 1000.0, 1);
  EXPECT_EQ(cross, 100000.0);
  EXPECT_EQ(one_eq, 100.0);
  EXPECT_GE(cost::JoinOutputRows(100.0, 1000.0, 5), 1.0);  // clamped
  EXPECT_GT(cost::JoinStepCost(100.0, 1000.0, 100.0), 1000.0);
}

TEST(CostModel, UnknownPropagatesThroughUnaryStages) {
  EXPECT_EQ(cost::AggregateOutputRows(cost::kUnknownRows), cost::kUnknownRows);
  EXPECT_EQ(cost::FilterOutputRows(cost::kUnknownRows), cost::kUnknownRows);
  EXPECT_EQ(cost::AggregateOutputRows(100.0), 10.0);
  EXPECT_EQ(cost::FilterOutputRows(100.0), 50.0);
}

}  // namespace
}  // namespace explainit::sql
