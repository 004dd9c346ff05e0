// The planner's logical plan IR. Planning is now three stages
// (sql/planner.h): the AST is first *built* into this tree of logical
// nodes (statement order, one node per prospective physical operator),
// then *optimised* by rule passes that rewrite the tree (join reordering,
// aggregate pushdown below joins, COUNT rollup routing), and finally
// *lowered* node-by-node onto the existing physical operators.
//
// Nodes carry per-node cardinality (`est_rows`) and cumulative cost
// (`est_cost`) annotations from sql/cost.h, and the whole plan prints via
// LogicalPlan::ToString() — surfaced as ExecStats::plan_text so plan
// shapes are debuggable and golden-testable.
//
// Rewrites synthesise AST (statements for partial aggregates, join
// clauses and expressions for reordered joins); the LogicalPlan owns all
// of it in arenas, and the lowered operator tree retains the plan
// (Operator::RetainArtifact), so synthesised AST lives exactly as long
// as the operators that reference it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sql/ast.h"
#include "tsdb/store.h"

namespace explainit::sql {

/// Optimiser switch, threaded Engine -> Executor -> Planner. When
/// enabled (the default) every rule pass runs: cost-based join
/// reordering, partial-aggregate pushdown below joins and COUNT rollup
/// routing. `enabled = false` reproduces the pre-optimiser
/// statement-order plans exactly (the differential harness runs both).
struct PlannerOptions {
  bool enabled = true;
};

/// Relations up to which join reordering runs exhaustive left-deep DP;
/// larger join graphs fall back to a greedy order.
inline constexpr size_t kJoinReorderDpLimit = 6;

enum class LogicalOp : uint8_t {
  kScan,       // catalog table (hints + projection)
  kSubquery,   // derived table: child plan re-qualified under an alias
  kSingleRow,  // FROM-less SELECT
  kFilter,     // residual WHERE
  kJoin,       // one left-deep join step
  kAggregate,  // HashAggregate over the child
  kProject,    // non-aggregated SELECT list
  kSortLimit,  // ORDER BY / LIMIT
  kUnion,      // UNION ALL branches
};

struct LogicalNode {
  explicit LogicalNode(LogicalOp o) : op(o) {}

  LogicalOp op;
  std::vector<std::unique_ptr<LogicalNode>> children;

  /// Estimated output rows (cost::kUnknownRows when the catalog offers no
  /// estimate) and cumulative cost of producing them.
  double est_rows = -1.0;
  double est_cost = 0.0;

  // kScan
  std::string table_name;
  std::string qualifier;  // also kSubquery ("" = unqualified)
  tsdb::ScanHints hints;
  std::optional<std::vector<std::string>> projection;

  // kFilter: owned by the source statement or the plan arena; lowering
  // clones it into the FilterOperator.
  const Expr* predicate = nullptr;

  // kJoin: operators read only join->type and join->condition; synthesised
  // clauses (plan arena) leave join->right defaulted.
  const JoinClause* join = nullptr;
  bool equi = false;        // hash join vs nested loop
  bool build_left = false;  // hash join build side
  bool reordered = false;   // this join was moved off statement order

  // kAggregate / kProject / kSortLimit / kSubquery: the statement the
  // physical operator evaluates (original AST or plan arena).
  const SelectStatement* stmt = nullptr;
  bool partial = false;     // kAggregate pushed below a join
  bool retain = false;      // kAggregate/kProject keep pre-projection rows
  bool aggregated = false;  // kSortLimit input is an aggregate
};

/// One planned statement: the logical tree, the arena of AST the optimiser
/// synthesised, and counters for the rewrites that fired.
class LogicalPlan {
 public:
  std::unique_ptr<LogicalNode> root;

  // Arena: AST owned by the plan (referenced by nodes and, after
  // lowering, by physical operators).
  std::vector<std::unique_ptr<SelectStatement>> owned_statements;
  std::vector<std::unique_ptr<JoinClause>> owned_joins;
  std::vector<ExprPtr> owned_exprs;

  // Rewrite counters (statements whose join order changed / partial
  // aggregates placed below joins / COUNT->rollup-tier rewrites).
  size_t joins_reordered = 0;
  size_t agg_pushdowns = 0;
  size_t count_rollup_rewrites = 0;

  /// Indented plan tree, one node per line, root first. Example:
  ///   SortLimit keys=1
  ///     Aggregate group_by=[h.grp] rows~24
  ///       HashJoin inner on (f.tag['host'] = h.host) build=right
  ///                rows~240 [reordered]
  ///         ...
  std::string ToString() const;

  SelectStatement* AddStatement(std::unique_ptr<SelectStatement> stmt) {
    owned_statements.push_back(std::move(stmt));
    return owned_statements.back().get();
  }
  JoinClause* AddJoin(std::unique_ptr<JoinClause> join) {
    owned_joins.push_back(std::move(join));
    return owned_joins.back().get();
  }
  const Expr* AddExpr(ExprPtr expr) {
    owned_exprs.push_back(std::move(expr));
    return owned_exprs.back().get();
  }
};

/// Deep clone of one SELECT branch (items/from/joins/where/group
/// by/having/order by/limit). UNION ALL continuations are *not* cloned:
/// rewrites run per branch.
std::unique_ptr<SelectStatement> CloneSelect(const SelectStatement& stmt);

/// Structural expression identity for the optimiser: ToString of a clone
/// with every column reference's qualifier and column lowercased (SQL
/// identifiers are case-insensitive; literals are not touched).
std::string NormalizedExprText(const Expr& e);

}  // namespace explainit::sql
