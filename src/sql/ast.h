// Abstract syntax tree for the SQL dialect. Built by the parser, consumed
// by the planner/executor.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "table/value.h"

namespace explainit::sql {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

enum class ExprKind {
  kLiteral,
  kColumnRef,
  kStar,        // SELECT * (or COUNT(*) argument)
  kFunction,    // scalar or aggregate call
  kBinary,
  kUnary,
  kSubscript,   // expr['key'] or expr[0]
  kInList,      // expr IN (a, b, c) / NOT IN
  kBetween,     // expr BETWEEN lo AND hi
  kIsNull,      // expr IS [NOT] NULL
  kCase,        // CASE WHEN ... THEN ... ELSE ... END
};

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
  kLike,
};

enum class UnaryOp { kNot, kNegate };

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// One CASE branch.
struct CaseBranch;

/// A SQL expression node (tagged union; only the fields relevant to `kind`
/// are populated).
struct Expr {
  ExprKind kind = ExprKind::kLiteral;

  // kLiteral
  table::Value literal;

  // kColumnRef
  std::string qualifier;  // optional table alias ("FF" in FF.timestamp)
  std::string column;

  // kFunction
  std::string function_name;  // upper-cased
  std::vector<ExprPtr> args;

  // kBinary / kUnary / kInList / kBetween / kIsNull / kSubscript / kCase
  BinaryOp binary_op = BinaryOp::kAdd;
  UnaryOp unary_op = UnaryOp::kNot;
  ExprPtr left;    // also: subject of IN/BETWEEN/IS NULL/subscript
  ExprPtr right;   // also: subscript index
  std::vector<ExprPtr> list;  // IN list
  ExprPtr between_lo;
  ExprPtr between_hi;
  bool negated = false;  // NOT IN / IS NOT NULL / NOT LIKE
  std::vector<CaseBranch> case_branches;
  ExprPtr case_else;

  /// Reconstructs a SQL-ish textual form (used to derive output column
  /// names for unaliased select items).
  std::string ToString() const;

  /// True if this subtree contains an aggregate function call.
  bool ContainsAggregate() const;

  ExprPtr Clone() const;
};

struct CaseBranch {
  ExprPtr condition;
  ExprPtr result;
};

/// True for AVG/SUM/MIN/MAX/COUNT/STDDEV/PERCENTILE, plus the planner's
/// internal __SUM_COUNT (a COUNT partial: sums its argument, finalises
/// as an integer — never produced by the parser).
bool IsAggregateFunction(std::string_view upper_name);

/// True when `e` is itself an aggregate function call.
bool IsAggregateCall(const Expr& e);

// ---------------------------------------------------------------------------
// Traversal: the one list of an Expr's child slots every walker builds on
// ---------------------------------------------------------------------------

namespace internal {

/// The child slots of `e` (ExprPtrs, possibly null) in visit order: left,
/// right, between_lo, between_hi, case_else, args, list, then each CASE
/// branch's condition and result. `f` receives each slot of `e` together
/// with the same slot of every node in `twins`, which must share e's
/// shape. CollectAggregates numbers aggregate slots in this order, so
/// plan text and results depend on it.
template <typename F, typename E, typename... Twins>
void ForEachSlot(F&& f, E& e, Twins&... twins) {
  f(e.left, twins.left...);
  f(e.right, twins.right...);
  f(e.between_lo, twins.between_lo...);
  f(e.between_hi, twins.between_hi...);
  f(e.case_else, twins.case_else...);
  for (size_t i = 0; i < e.args.size(); ++i) f(e.args[i], twins.args[i]...);
  for (size_t i = 0; i < e.list.size(); ++i) f(e.list[i], twins.list[i]...);
  for (size_t i = 0; i < e.case_branches.size(); ++i) {
    f(e.case_branches[i].condition, twins.case_branches[i].condition...);
    f(e.case_branches[i].result, twins.case_branches[i].result...);
  }
}

}  // namespace internal

/// Calls f(child) on every non-null direct child of `e` (an Expr or a
/// const Expr; children come with the same constness), in slot order.
template <typename E, typename F>
void ForEachChild(E& e, F&& f) {
  internal::ForEachSlot(
      [&f](auto& c) {
        if (c != nullptr) f(static_cast<E&>(*c));
      },
      e);
}

/// A copy of `e`'s own fields whose every non-null child is f(child);
/// the first failing f fails the copy.
Result<ExprPtr> MapChildren(
    const Expr& e, const std::function<Result<ExprPtr>(const Expr&)>& f);

/// True when `pred` holds for `e` or any node below it (pre-order; stops
/// descending at the first hit).
template <typename Pred>
bool AnyNode(const Expr& e, const Pred& pred) {
  if (pred(e)) return true;
  bool found = false;
  ForEachChild(e, [&](const Expr& c) { found = found || AnyNode(c, pred); });
  return found;
}

/// True when the tree contains a LAG call (which must see the whole
/// input, so batching is disabled for that stage).
bool ContainsLag(const Expr& e);

/// Appends the topmost aggregate calls of the tree in slot order
/// (aggregates cannot nest; a nested one inside an argument is index
/// mode's runtime error to report).
void CollectAggregates(const Expr& e, std::vector<const Expr*>* out);

// Convenience constructors used by the parser and tests.
ExprPtr MakeLiteral(table::Value v);
ExprPtr MakeColumnRef(std::string qualifier, std::string column);
ExprPtr MakeStar();
ExprPtr MakeFunction(std::string name, std::vector<ExprPtr> args);
ExprPtr MakeBinary(BinaryOp op, ExprPtr l, ExprPtr r);
ExprPtr MakeUnary(UnaryOp op, ExprPtr operand);
ExprPtr MakeSubscript(ExprPtr base, ExprPtr index);

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StatementKind { kSelect, kExplain, kDropMonitor, kShowMonitors };

/// Base of the statement hierarchy. A parsed query is an ordinary SELECT
/// (with UNION ALL chain), the declarative RCA statement
/// EXPLAIN ... [GIVEN ...] USING ... (§3, Appendix C) — optionally a
/// *standing* one via EVERY / TRIGGERED / INTO — or one of the monitor
/// admin statements DROP MONITOR / SHOW MONITORS.
struct Statement {
  virtual ~Statement() = default;
  virtual StatementKind kind() const = 0;
};

/// One item in the SELECT list.
struct SelectItem {
  ExprPtr expr;        // null for bare `*`
  std::string alias;   // empty when not aliased
  bool is_star = false;
};

enum class JoinType { kInner, kLeft, kFullOuter, kCross };

struct SelectStatement;

/// FROM-clause term: a named table, or a parenthesised subquery; both may
/// carry an alias. Chained joins hang off the first table.
struct TableRef {
  std::string table_name;                      // empty for subqueries
  std::unique_ptr<SelectStatement> subquery;   // set for subqueries
  std::string alias;

  /// Name that qualifies this relation's columns: alias or table name.
  const std::string& EffectiveName() const {
    return alias.empty() ? table_name : alias;
  }
};

struct JoinClause {
  JoinType type = JoinType::kInner;
  TableRef right;
  ExprPtr condition;  // null for CROSS
};

struct OrderByItem {
  ExprPtr expr;
  bool ascending = true;
};

/// A parsed SELECT (with optional chained UNION ALL terms).
struct SelectStatement : Statement {
  std::vector<SelectItem> items;
  std::optional<TableRef> from;
  std::vector<JoinClause> joins;
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  ExprPtr having;
  std::vector<OrderByItem> order_by;
  std::optional<int64_t> limit;
  /// UNION [ALL] chains: additional SELECTs whose results are appended.
  std::vector<std::unique_ptr<SelectStatement>> union_all;

  StatementKind kind() const override { return StatementKind::kSelect; }
};

/// The declarative RCA statement — the paper's headline contribution,
/// reduced to one grammar production:
///
///   EXPLAIN <select>                      -- the target family query (Y)
///   [GIVEN <select> | GIVEN PSEUDOCAUSE]  -- conditioning set (Z), §3.4
///   USING <select>                        -- the search space (X families)
///   [SCORE BY '<scorer>']                 -- §3.5 scorer name
///   [TOP k]                               -- Score Table cutoff
///   [BETWEEN t0 AND t1]                   -- range-to-explain (Figure 2)
///   [EVERY <duration>] [TRIGGERED]        -- standing query (monitor)
///   [INTO <table>]                        -- score-history table
///
/// Each sub-select is an ordinary feature-family-table query compiled
/// through the regular planner; parentheses around a sub-select are
/// accepted and are the canonical printed form (they keep a trailing
/// ORDER BY expression from swallowing the statement-level BETWEEN).
struct ExplainStatement : Statement {
  std::unique_ptr<SelectStatement> target;        // EXPLAIN <select>
  std::unique_ptr<SelectStatement> given;         // GIVEN <select>, else null
  bool given_pseudocause = false;                 // GIVEN PSEUDOCAUSE
  std::unique_ptr<SelectStatement> search_space;  // USING <select>
  std::string scorer;                 // SCORE BY '<name>'; empty = default
  std::optional<int64_t> top_k;       // TOP k
  std::optional<int64_t> between_start;  // BETWEEN t0 AND t1 (inclusive)
  std::optional<int64_t> between_end;

  // Standing-query clauses (the continuous-monitoring subsystem). EVERY
  // makes the statement a periodic monitor whose BETWEEN window slides by
  // the interval each run; TRIGGERED arms it on the online anomaly
  // detector instead of (or, with EVERY, rate-limited by) the timer; INTO
  // names the catalog table each run's Score Table is appended to.
  std::optional<int64_t> every_seconds;  // EVERY <duration>
  bool triggered = false;                // TRIGGERED
  std::string into_table;                // INTO <table>; empty = none

  /// True when any standing-query clause is present — such statements are
  /// handled by a monitor::MonitorService, not one-shot execution.
  bool is_monitor() const {
    return every_seconds.has_value() || triggered || !into_table.empty();
  }

  StatementKind kind() const override { return StatementKind::kExplain; }
};

/// DROP MONITOR <name>: unregisters a standing query.
struct DropMonitorStatement : Statement {
  std::string name;

  StatementKind kind() const override { return StatementKind::kDropMonitor; }
};

/// SHOW MONITORS: one status row per registered standing query.
struct ShowMonitorsStatement : Statement {
  StatementKind kind() const override { return StatementKind::kShowMonitors; }
};

/// Reconstructs parseable SQL text for a statement. Printing is a
/// fixpoint through the parser: Parse(ToSql(s)) prints back to the same
/// text (the fuzz round-trip suite enforces this).
std::string ToSql(const SelectStatement& stmt);
std::string ToSql(const ExplainStatement& stmt);
std::string ToSql(const DropMonitorStatement& stmt);
std::string ToSql(const ShowMonitorsStatement& stmt);
/// Dispatches on the dynamic statement kind.
std::string ToSql(const Statement& stmt);

/// Canonical rendering of a duration in seconds: the largest unit among
/// d/h/m/s that divides it exactly (7200 -> "2h", 90 -> "90s"). The
/// parser+printer fixpoint for EVERY depends on this canonical form.
std::string FormatDuration(int64_t seconds);

}  // namespace explainit::sql
