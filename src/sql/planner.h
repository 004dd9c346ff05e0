// The cost-based query planner. Planning a parsed SelectStatement is now
// three stages:
//
//   1. *Build* — the AST becomes a logical plan IR (sql/logical_plan.h):
//      one LogicalNode per prospective physical operator, in statement
//      order, annotated with cardinality estimates from the live catalog
//      (Catalog::EstimatedRows) and the cost model (sql/cost.h). The
//      single-pass rewrites of the previous planner happen here and are
//      unchanged:
//        * predicate pushdown — WHERE conjuncts over the time column,
//          `metric_name = '...'` and `tag['k'] = '...'` become
//          tsdb::ScanHints on hint-aware scans (per join input, split by
//          qualifier); the full predicate always stays in the filter;
//        * rollup resolution hints — grid-aligned SUM/MIN/MAX(value)
//          aggregations set ScanHints::min_step_seconds/rollup;
//        * projection pruning — scans materialise only referenced columns;
//        * join strategy + build side — equality conjuncts choose hash
//          joins, built on the smaller side when row counts are known.
//   2. *Optimise* — rule passes rewrite the IR (PlannerOptions::enabled =
//      false skips the whole stage, reproducing statement-order plans
//      exactly):
//        * join reordering — left-deep DP over the equality-conjunct join
//          graph (<= kJoinReorderDpLimit relations; greedy beyond),
//          inner/cross joins only, every column reference qualified, and
//          unique aliases; conjuncts re-attach at the earliest join with
//          all sides available. Outer joins and ambiguous references keep
//          statement order.
//        * aggregate pushdown below joins — SUM/COUNT/MIN/MAX/AVG whose
//          arguments live on one relation partially aggregate *below* the
//          join (group keys: that relation's GROUP BY expressions plus its
//          join/filter attributes) and finalise above through rewritten
//          aggregates (COUNT/AVG recombine via the internal __SUM_COUNT).
//        * COUNT rollup routing — grid-aligned COUNT(*)/COUNT(value) over
//          a store-backed table (Catalog::SupportsExactRollups) rewrites
//          to __SUM_COUNT(value) and scans the count rollup tier.
//   3. *Lower* — each LogicalNode maps 1:1 onto the existing physical
//      operators; synthesised AST is owned by the LogicalPlan, which the
//      root operator retains.
//
// The planned tree references the statement's AST nodes: the statement
// must outlive execution. last_plan() exposes the logical plan (printable
// via LogicalPlan::ToString()) of the most recent Plan() call.
#pragma once

#include <memory>

#include "sql/ast.h"
#include "sql/catalog.h"
#include "sql/exec_context.h"
#include "sql/functions.h"
#include "sql/logical_plan.h"
#include "sql/operators/operator.h"

namespace explainit::sql {

class Planner {
 public:
  Planner(const Catalog* catalog, const FunctionRegistry* functions,
          const ExecContext* ctx = nullptr, PlannerOptions options = {})
      : catalog_(catalog),
        functions_(functions),
        ctx_(ctx),
        options_(options) {}

  /// Plans a full statement (UNION ALL chains become a UnionAll root).
  Result<std::unique_ptr<Operator>> Plan(const SelectStatement& stmt) const;

  /// The logical plan behind the most recent successful Plan() call (null
  /// before the first). The lowered operator tree keeps it alive too.
  std::shared_ptr<const LogicalPlan> last_plan() const { return last_plan_; }

  const PlannerOptions& options() const { return options_; }

 private:
  // Stage 1: AST -> logical IR (statement order).
  Result<std::unique_ptr<LogicalNode>> BuildStatement(
      const SelectStatement& stmt, LogicalPlan* plan) const;
  Result<std::unique_ptr<LogicalNode>> BuildSingle(
      const SelectStatement& stmt, LogicalPlan* plan) const;
  Result<std::unique_ptr<LogicalNode>> BuildFrom(const SelectStatement& stmt,
                                                 tsdb::ScanHints base_hints,
                                                 LogicalPlan* plan) const;
  Result<std::unique_ptr<LogicalNode>> BuildSource(
      const TableRef& ref, const std::string& qualifier,
      tsdb::ScanHints hints, LogicalPlan* plan) const;
  /// Hints for one join input: pushable WHERE conjuncts fully qualified
  /// to `qualifier` (stripped), plus the input's pruned projection.
  tsdb::ScanHints JoinInputHints(const SelectStatement& stmt,
                                 const TableRef& ref,
                                 const std::string& qualifier) const;

  // Stage 2: rule passes over one single-select subtree.
  void OptimizeSingle(LogicalNode* root, const SelectStatement& stmt,
                      LogicalPlan* plan) const;
  void ReorderJoins(LogicalNode* root, const SelectStatement& stmt,
                    LogicalPlan* plan) const;
  void PushdownAggregate(LogicalNode* root, const SelectStatement& stmt,
                         LogicalPlan* plan) const;

  // Stage 3: logical IR -> physical operators.
  Result<std::unique_ptr<Operator>> Lower(const LogicalNode& node) const;

  const Catalog* catalog_;
  const FunctionRegistry* functions_;
  const ExecContext* ctx_;
  PlannerOptions options_;
  mutable std::shared_ptr<const LogicalPlan> last_plan_;
};

}  // namespace explainit::sql
