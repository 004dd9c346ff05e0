#include "sql/planner.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <set>

#include "common/strings.h"
#include "sql/cost.h"
#include "sql/operators/filter.h"
#include "sql/operators/hash_aggregate.h"
#include "sql/operators/hash_join.h"
#include "sql/operators/project.h"
#include "sql/operators/scan.h"
#include "sql/operators/sort_limit.h"

namespace explainit::sql {

using table::DataType;

namespace {

// ---------------------------------------------------------------------------
// Pushdown extraction
// ---------------------------------------------------------------------------

/// Unqualified reference to the scan's time column.
bool IsTimeColumn(const Expr& e) {
  if (e.kind != ExprKind::kColumnRef || !e.qualifier.empty()) return false;
  const std::string lower = ToLower(e.column);
  return lower == "timestamp" || lower == "ts";
}

bool IsMetricNameColumn(const Expr& e) {
  return e.kind == ExprKind::kColumnRef && e.qualifier.empty() &&
         ToLower(e.column) == "metric_name";
}

/// Integer-valued literal (timestamps are integral epoch seconds).
bool IntLiteral(const Expr& e, int64_t* out) {
  if (e.kind != ExprKind::kLiteral) return false;
  const DataType t = e.literal.type();
  if (t != DataType::kInt64 && t != DataType::kTimestamp) return false;
  *out = e.literal.AsInt();
  return true;
}

bool StringLiteral(const Expr& e, std::string* out) {
  if (e.kind != ExprKind::kLiteral ||
      e.literal.type() != DataType::kString) {
    return false;
  }
  *out = e.literal.AsString();
  return true;
}

/// String literal free of glob metacharacters, so SQL equality and the
/// store's glob tag matching coincide exactly.
bool CleanStringLiteral(const Expr& e, std::string* out) {
  return StringLiteral(e, out) &&
         out->find_first_of("*?[") == std::string::npos;
}

/// Appends to `names` every metric name a conjunct admits when it is
/// metric_name = 'x' (either orientation), metric_name IN ('a', ...)
/// with string-literal items only, or an OR of such shapes. Returns
/// false, leaving `names` unspecified, for any other shape.
bool MetricNamesOf(const Expr& e, std::vector<std::string>* names) {
  std::string s;
  if (e.kind == ExprKind::kInList) {
    if (e.negated || e.left == nullptr || !IsMetricNameColumn(*e.left)) {
      return false;
    }
    for (const ExprPtr& item : e.list) {
      if (item == nullptr || !StringLiteral(*item, &s)) return false;
      names->push_back(s);
    }
    return true;
  }
  if (e.kind != ExprKind::kBinary || e.left == nullptr ||
      e.right == nullptr) {
    return false;
  }
  if (e.binary_op == BinaryOp::kOr) {
    return MetricNamesOf(*e.left, names) && MetricNamesOf(*e.right, names);
  }
  if (e.binary_op == BinaryOp::kEq &&
      ((IsMetricNameColumn(*e.left) && StringLiteral(*e.right, &s)) ||
       (IsMetricNameColumn(*e.right) && StringLiteral(*e.left, &s)))) {
    names->push_back(s);
    return true;
  }
  return false;
}

/// Matches tag['key'] over the scan's tag column.
bool IsTagSubscript(const Expr& e, std::string* key) {
  if (e.kind != ExprKind::kSubscript) return false;
  if (e.left == nullptr || e.left->kind != ExprKind::kColumnRef ||
      !e.left->qualifier.empty() || ToLower(e.left->column) != "tag") {
    return false;
  }
  if (e.right == nullptr || e.right->kind != ExprKind::kLiteral ||
      e.right->literal.type() != DataType::kString) {
    return false;
  }
  *key = e.right->literal.AsString();
  return true;
}

/// Derives ScanHints from WHERE conjuncts. The hints only *narrow* what a
/// hint-aware provider materialises; every conjunct stays in the residual
/// filter, so correctness (including "column not found" errors for
/// misnamed time columns) never depends on a provider applying them.
tsdb::ScanHints HintsFromConjuncts(const std::vector<const Expr*>& conjuncts) {
  tsdb::ScanHints hints;
  std::optional<int64_t> lo;  // inclusive
  std::optional<int64_t> hi;  // exclusive
  auto narrow_lo = [&](int64_t v) { lo = lo ? std::max(*lo, v) : v; };
  auto narrow_hi = [&](int64_t v) { hi = hi ? std::min(*hi, v) : v; };
  for (const Expr* c : conjuncts) {
    // Metric-name sets: each qualifying conjunct intersects the set.
    std::vector<std::string> names;
    if (MetricNamesOf(*c, &names)) {
      std::sort(names.begin(), names.end());
      names.erase(std::unique(names.begin(), names.end()), names.end());
      if (hints.metric_names.has_value()) {
        std::vector<std::string> both;
        std::set_intersection(hints.metric_names->begin(),
                              hints.metric_names->end(), names.begin(),
                              names.end(), std::back_inserter(both));
        names = std::move(both);
      }
      hints.metric_names = std::move(names);
      continue;
    }
    int64_t a = 0, b = 0;
    std::string s, key;
    // ts BETWEEN a AND b  ->  [a, b+1)
    if (c->kind == ExprKind::kBetween && !c->negated &&
        c->left != nullptr && IsTimeColumn(*c->left) &&
        IntLiteral(*c->between_lo, &a) && IntLiteral(*c->between_hi, &b) &&
        b < INT64_MAX) {
      narrow_lo(a);
      narrow_hi(b + 1);
      continue;
    }
    if (c->kind != ExprKind::kBinary || c->left == nullptr ||
        c->right == nullptr) {
      continue;
    }
    const Expr& l = *c->left;
    const Expr& r = *c->right;
    // Time-column comparisons, either orientation.
    const bool ts_lit = IsTimeColumn(l) && IntLiteral(r, &a);
    const bool lit_ts = IntLiteral(l, &a) && IsTimeColumn(r);
    if ((ts_lit || lit_ts) && a < INT64_MAX) {
      // Normalise to "ts OP a".
      BinaryOp op = c->binary_op;
      if (lit_ts) {
        op = op == BinaryOp::kLt   ? BinaryOp::kGt
             : op == BinaryOp::kLe ? BinaryOp::kGe
             : op == BinaryOp::kGt ? BinaryOp::kLt
             : op == BinaryOp::kGe ? BinaryOp::kLe
                                   : op;
      }
      switch (op) {
        case BinaryOp::kEq:
          narrow_lo(a);
          narrow_hi(a + 1);
          break;
        case BinaryOp::kGe:
          narrow_lo(a);
          break;
        case BinaryOp::kGt:
          narrow_lo(a + 1);
          break;
        case BinaryOp::kLe:
          narrow_hi(a + 1);
          break;
        case BinaryOp::kLt:
          narrow_hi(a);
          break;
        default:
          break;
      }
      continue;
    }
    // tag['k'] = 'literal' (either orientation).
    if (c->binary_op == BinaryOp::kEq &&
        ((IsTagSubscript(l, &key) && CleanStringLiteral(r, &s)) ||
         (IsTagSubscript(r, &key) && CleanStringLiteral(l, &s)))) {
      if (!hints.tag_filter.Has(key)) hints.tag_filter.Set(key, s);
    }
  }
  // Contradictory windows (ts >= 10 AND ts < 5) are left to the filter.
  if ((lo.has_value() || hi.has_value()) &&
      lo.value_or(INT64_MIN) < hi.value_or(INT64_MAX)) {
    hints.range = TimeRange{lo.value_or(INT64_MIN), hi.value_or(INT64_MAX)};
  }
  return hints;
}

tsdb::ScanHints ExtractHints(const Expr* where) {
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(where, &conjuncts);
  return HintsFromConjuncts(conjuncts);
}

// ---------------------------------------------------------------------------
// Rollup resolution hints
// ---------------------------------------------------------------------------
//
// A grid-aligned aggregating query — GROUP BY DATE_TRUNC('minute', ts)
// with SUM/MIN/MAX(value) — never looks below its bucket width, so the
// store may serve sealed segments from a rollup tier: one
// (bucket_start, bucket_aggregate) row per tier bucket in place of the
// raw points. That substitution is invisible exactly when every part of
// the statement that sees scanned rows is invariant under it:
//
//  - every GROUP BY time expression is a grid of step S with
//    tier_step | S (all raw points of a tier bucket then share every
//    group key with the substituted row);
//  - every aggregate is one same kind among SUM/MIN/MAX over the bare
//    `value` column (partial sums/mins/maxes recombine exactly; AVG
//    weights by point count and does not). With `allow_count`, COUNT(*),
//    COUNT(value) and __SUM_COUNT(value) qualify too: the count tier
//    carries per-bucket point counts, raw fallback rows substitute 1.0,
//    and the optimiser rewrites COUNT -> __SUM_COUNT so partial counts
//    recombine by summation;
//  - the residual WHERE evaluates identically on a bucket row and on
//    each of its raw points: time bounds are tier-aligned literals and
//    nothing else in the WHERE reads ts or value;
//  - no other expression reads ts or value at raw resolution.
//
// The derivation below checks those conditions per maintained tier,
// coarsest first, and on success sets hints.min_step_seconds/rollup.
// The hint is advisory for SUM/MIN/MAX: the store re-proves per segment
// (via per-bucket first/last raw timestamps) that the window cuts no
// bucket, falling back to the raw block otherwise, so a hint can only
// ever be cheaper, never wrong. A kCount hint additionally changes what
// `value` *means* (counts, or 1.0 per raw point), so the planner only
// derives it for providers that forward hints verbatim to a SeriesStore
// scan (Catalog::SupportsExactRollups) and rewrites the statement in the
// same breath.

/// Step of a recognised grid expression over the time column:
/// DATE_TRUNC('unit', ts) or ts - ts % k; 0 when not a grid.
int64_t GridStepSeconds(const Expr& e) {
  if (e.kind == ExprKind::kFunction && e.function_name == "DATE_TRUNC" &&
      e.args.size() == 2 && e.args[0] != nullptr && e.args[1] != nullptr &&
      e.args[0]->kind == ExprKind::kLiteral &&
      e.args[0]->literal.type() == DataType::kString &&
      IsTimeColumn(*e.args[1])) {
    return DateTruncStepSeconds(e.args[0]->literal.AsString());
  }
  // ts - ts % k (a bare ts % k folds phases together and is NOT a grid).
  if (e.kind == ExprKind::kBinary && e.binary_op == BinaryOp::kSub &&
      e.left != nullptr && IsTimeColumn(*e.left) && e.right != nullptr &&
      e.right->kind == ExprKind::kBinary &&
      e.right->binary_op == BinaryOp::kMod && e.right->left != nullptr &&
      IsTimeColumn(*e.right->left) && e.right->right != nullptr) {
    int64_t k = 0;
    if (IntLiteral(*e.right->right, &k) && k > 0) return k;
  }
  return 0;
}

/// A reference to the time or value column, which rollup tiers only
/// carry at bucket resolution.
bool ReadsRawColumn(const Expr& e) {
  if (e.kind != ExprKind::kColumnRef) return false;
  const std::string lower = ToLower(e.column);
  return lower == "ts" || lower == "timestamp" || lower == "value";
}

/// Detects the rollup shape of one statement: records the grid steps and
/// the (single) aggregate kind, and rejects any raw-resolution use of the
/// time or value column outside those shapes.
struct RollupShapeDetector {
  std::vector<int64_t> grid_steps;
  tsdb::RollupAggregate agg = tsdb::RollupAggregate::kNone;
  bool allow_count = false;
  bool valid = true;

  void Walk(const Expr& e) {
    if (!valid) return;
    const int64_t step = GridStepSeconds(e);
    if (step > 0) {
      grid_steps.push_back(step);
      return;  // the grid expression consumes its ts reference
    }
    if (IsAggregateCall(e)) {
      tsdb::RollupAggregate kind;
      if (e.function_name == "SUM") {
        kind = tsdb::RollupAggregate::kSum;
      } else if (e.function_name == "MIN") {
        kind = tsdb::RollupAggregate::kMin;
      } else if (e.function_name == "MAX") {
        kind = tsdb::RollupAggregate::kMax;
      } else if (allow_count && (e.function_name == "COUNT" ||
                                 e.function_name == "__SUM_COUNT")) {
        kind = tsdb::RollupAggregate::kCount;
      } else {
        valid = false;  // AVG/STDDEV/... weight by point count
        return;
      }
      // Only the bare value column recombines exactly (COUNT also takes
      // *), and all aggregates must agree (the scan returns one bucket
      // aggregate).
      const bool star_arg = kind == tsdb::RollupAggregate::kCount &&
                            e.args.size() == 1 && e.args[0] != nullptr &&
                            e.args[0]->kind == ExprKind::kStar;
      const bool value_arg =
          e.args.size() == 1 && e.args[0] != nullptr &&
          e.args[0]->kind == ExprKind::kColumnRef &&
          ToLower(e.args[0]->column) == "value";
      if ((!star_arg && !value_arg) ||
          (agg != tsdb::RollupAggregate::kNone && agg != kind)) {
        valid = false;
        return;
      }
      agg = kind;
      return;
    }
    if (ReadsRawColumn(e)) {
      valid = false;  // raw-resolution read outside a recognised shape
      return;
    }
    ForEachChild(e, [this](const Expr& c) { Walk(c); });
  }
};

/// True when the conjunct evaluates identically on a tier bucket row and
/// on every raw point of that bucket: a time bound whose half-open edge
/// is a multiple of `tier_step`, or a predicate reading neither ts nor
/// value (series-constant for the scanned rows).
bool ConjunctRollupInvariant(const Expr& c, int64_t tier_step) {
  auto aligned = [tier_step](int64_t v) { return v % tier_step == 0; };
  int64_t a = 0, b = 0;
  if (c.kind == ExprKind::kBetween && !c.negated && c.left != nullptr &&
      IsTimeColumn(*c.left) && IntLiteral(*c.between_lo, &a) &&
      IntLiteral(*c.between_hi, &b) && b < INT64_MAX) {
    return aligned(a) && aligned(b + 1);
  }
  if (c.kind == ExprKind::kBinary && c.left != nullptr &&
      c.right != nullptr) {
    const bool ts_lit = IsTimeColumn(*c.left) && IntLiteral(*c.right, &a);
    const bool lit_ts = IntLiteral(*c.left, &a) && IsTimeColumn(*c.right);
    if ((ts_lit || lit_ts) && a < INT64_MAX) {
      BinaryOp op = c.binary_op;
      if (lit_ts) {
        op = op == BinaryOp::kLt   ? BinaryOp::kGt
             : op == BinaryOp::kLe ? BinaryOp::kGe
             : op == BinaryOp::kGt ? BinaryOp::kLt
             : op == BinaryOp::kGe ? BinaryOp::kLe
                                   : op;
      }
      switch (op) {
        case BinaryOp::kGe:
        case BinaryOp::kLt:
          return aligned(a);
        case BinaryOp::kGt:
        case BinaryOp::kLe:
          return aligned(a + 1);
        default:
          return false;  // ts = a spans [a, a+1): never tier-aligned
      }
    }
  }
  return !AnyNode(c, ReadsRawColumn);
}

/// Sets hints->min_step_seconds / hints->rollup when the statement is a
/// grid-aligned aggregation the store may serve from a rollup tier.
/// `allow_count` additionally admits COUNT shapes (kCount tier).
void DeriveRollupHint(const SelectStatement& stmt, tsdb::ScanHints* hints,
                      bool allow_count) {
  RollupShapeDetector detector;
  detector.allow_count = allow_count;
  for (const SelectItem& item : stmt.items) {
    if (item.is_star) return;  // star reads ts/value at raw resolution
    detector.Walk(*item.expr);
  }
  for (const ExprPtr& g : stmt.group_by) detector.Walk(*g);
  if (stmt.having != nullptr) detector.Walk(*stmt.having);
  for (const OrderByItem& o : stmt.order_by) detector.Walk(*o.expr);
  if (!detector.valid || detector.agg == tsdb::RollupAggregate::kNone) {
    return;
  }
  std::vector<const Expr*> conjuncts;
  if (stmt.where != nullptr) CollectConjuncts(stmt.where.get(), &conjuncts);
  for (const int64_t tier_step : tsdb::kRollupTierSteps) {
    const bool grids_ok = std::all_of(
        detector.grid_steps.begin(), detector.grid_steps.end(),
        [&](int64_t s) { return s % tier_step == 0; });
    if (!grids_ok) continue;
    const bool where_ok = std::all_of(
        conjuncts.begin(), conjuncts.end(), [&](const Expr* c) {
          return ConjunctRollupInvariant(*c, tier_step);
        });
    if (!where_ok) continue;
    hints->min_step_seconds = tier_step;
    hints->rollup = detector.agg;
    return;  // coarsest qualifying tier wins
  }
}

/// Rewrites every COUNT aggregate of a count-rollup-eligible statement to
/// the internal __SUM_COUNT over the value column: scanned `value` then
/// carries per-bucket point counts (or 1.0 per raw-fallback point), and
/// summing them — finalised as an integer — reproduces COUNT exactly.
/// Unaliased select items keep their original display name.
void ReplaceCountNodes(Expr* e) {
  if (e->kind == ExprKind::kFunction && e->function_name == "COUNT") {
    ExprPtr arg;
    if (e->args.size() == 1 && e->args[0] != nullptr &&
        e->args[0]->kind == ExprKind::kColumnRef) {
      arg = std::move(e->args[0]);  // COUNT(value): keep the reference
    } else {
      arg = MakeColumnRef("", "value");  // COUNT(*)
    }
    e->function_name = "__SUM_COUNT";
    e->args.clear();
    e->args.push_back(std::move(arg));
    return;
  }
  ForEachChild(*e, [](Expr& c) { ReplaceCountNodes(&c); });
}

std::unique_ptr<SelectStatement> RewriteCountAggregates(
    const SelectStatement& stmt) {
  std::unique_ptr<SelectStatement> out = CloneSelect(stmt);
  for (SelectItem& item : out->items) {
    if (item.expr == nullptr) continue;
    if (item.alias.empty()) item.alias = item.expr->ToString();
    ReplaceCountNodes(item.expr.get());
  }
  for (ExprPtr& g : out->group_by) ReplaceCountNodes(g.get());
  if (out->having != nullptr) ReplaceCountNodes(out->having.get());
  for (OrderByItem& o : out->order_by) {
    if (o.expr != nullptr) ReplaceCountNodes(o.expr.get());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Statement reference analysis
// ---------------------------------------------------------------------------

bool StatementContainsLag(const SelectStatement& stmt) {
  for (const SelectItem& item : stmt.items) {
    if (item.expr != nullptr && ContainsLag(*item.expr)) return true;
  }
  if (stmt.where != nullptr && ContainsLag(*stmt.where)) return true;
  return false;
}

/// Calls f on every expression of the statement's own clauses: select
/// items, WHERE, join conditions, GROUP BY, HAVING and ORDER BY.
template <typename F>
void ForEachClauseExpr(const SelectStatement& stmt, F&& f) {
  for (const SelectItem& item : stmt.items) {
    if (item.expr != nullptr) f(*item.expr);
  }
  if (stmt.where != nullptr) f(*stmt.where);
  for (const JoinClause& join : stmt.joins) {
    if (join.condition != nullptr) f(*join.condition);
  }
  for (const ExprPtr& g : stmt.group_by) f(*g);
  if (stmt.having != nullptr) f(*stmt.having);
  for (const OrderByItem& o : stmt.order_by) f(*o.expr);
}

/// Collects (lowercased qualifier, lowercased column) pairs of every
/// column reference in the expression tree.
void CollectQualifiedRefs(
    const Expr& e, std::set<std::pair<std::string, std::string>>* out) {
  if (e.kind == ExprKind::kColumnRef) {
    out->insert({ToLower(e.qualifier), ToLower(e.column)});
  }
  ForEachChild(e, [out](const Expr& c) { CollectQualifiedRefs(c, out); });
}

/// Every column reference the whole statement makes, qualified-aware.
/// Sets `star` when a SELECT-list * makes pruning unsafe.
void CollectStatementRefs(
    const SelectStatement& stmt, bool* star,
    std::set<std::pair<std::string, std::string>>* refs) {
  for (const SelectItem& item : stmt.items) {
    if (item.is_star) *star = true;
  }
  ForEachClauseExpr(stmt,
                    [refs](const Expr& e) { CollectQualifiedRefs(e, refs); });
}

/// Columns the statement reads from the relation qualified `q`
/// (lowercased): references under `q` plus every unqualified one, which
/// may bind there. An empty `q` (a single-table statement) keeps every
/// reference. nullopt when a SELECT-list * makes pruning unsafe.
std::optional<std::vector<std::string>> ReferencedColumns(
    const SelectStatement& stmt, const std::string& q) {
  bool star = false;
  std::set<std::pair<std::string, std::string>> refs;
  CollectStatementRefs(stmt, &star, &refs);
  if (star) return std::nullopt;
  std::set<std::string> cols;
  for (const auto& [rq, col] : refs) {
    if (q.empty() || rq == q || rq.empty()) cols.insert(col);
  }
  return std::vector<std::string>(cols.begin(), cols.end());
}

/// Clears the qualifier of every column reference qualified with
/// `qualifier_lower` (used on cloned conjuncts before hint extraction,
/// which matches unqualified time/metric/tag shapes only).
void StripQualifier(Expr* e, const std::string& qualifier_lower) {
  if (e->kind == ExprKind::kColumnRef &&
      ToLower(e->qualifier) == qualifier_lower) {
    e->qualifier.clear();
  }
  ForEachChild(*e,
               [&](Expr& c) { StripQualifier(&c, qualifier_lower); });
}

// ---------------------------------------------------------------------------
// Optimiser: shared statement/shape analysis
// ---------------------------------------------------------------------------

/// Qualifier usage of one expression tree.
struct RefInfo {
  bool unqualified = false;           // some reference has no qualifier
  std::set<std::string> quals;        // lowercased qualifiers referenced
};

void CollectRefInfo(const Expr& e, RefInfo* out) {
  if (e.kind == ExprKind::kColumnRef) {
    if (e.qualifier.empty()) {
      out->unqualified = true;
    } else {
      out->quals.insert(ToLower(e.qualifier));
    }
  }
  ForEachChild(e, [out](const Expr& c) { CollectRefInfo(c, out); });
}

/// True when the expression is aggregate-free and reads columns of the
/// relation qualified `qual_lower` only.
bool ReadsOnly(const Expr& e, const std::string& qual_lower) {
  RefInfo info;
  CollectRefInfo(e, &info);
  return !info.unqualified && info.quals.size() == 1 &&
         *info.quals.begin() == qual_lower && !e.ContainsAggregate();
}

/// The left-deep join region of one single-select subtree.
struct JoinSpine {
  struct Leaf {
    std::unique_ptr<LogicalNode>* slot = nullptr;  // owning pointer slot
    LogicalNode* node = nullptr;
    std::string qual_lower;
  };
  std::vector<LogicalNode*> joins;  // top-down (last = bottom join)
  std::vector<Leaf> leaves;         // statement order
  bool valid = false;               // leaves well-formed, aliases unique
};

/// Descends from the subtree root through SortLimit/Aggregate/Project/
/// Filter to the FROM region and collects the join spine. The returned
/// slot (never null for well-formed plans) owns the FROM subtree root.
std::unique_ptr<LogicalNode>* FromSlot(LogicalNode* root) {
  LogicalNode* n = root;
  std::unique_ptr<LogicalNode>* slot = nullptr;
  while (n->op == LogicalOp::kSortLimit || n->op == LogicalOp::kAggregate ||
         n->op == LogicalOp::kProject || n->op == LogicalOp::kFilter) {
    if (n->children.empty()) return nullptr;
    slot = &n->children[0];
    n = slot->get();
  }
  return slot;
}

JoinSpine AnalyzeJoins(std::unique_ptr<LogicalNode>* from_slot) {
  JoinSpine spine;
  if (from_slot == nullptr || (*from_slot)->op != LogicalOp::kJoin) {
    return spine;
  }
  LogicalNode* n = from_slot->get();
  while (n->op == LogicalOp::kJoin) {
    spine.joins.push_back(n);
    n = n->children[0].get();
  }
  LogicalNode* bottom = spine.joins.back();
  spine.leaves.push_back({&bottom->children[0], bottom->children[0].get(),
                          ToLower(bottom->children[0]->qualifier)});
  for (auto it = spine.joins.rbegin(); it != spine.joins.rend(); ++it) {
    LogicalNode* right = (*it)->children[1].get();
    spine.leaves.push_back(
        {&(*it)->children[1], right, ToLower(right->qualifier)});
  }
  std::set<std::string> seen;
  spine.valid = true;
  for (const JoinSpine::Leaf& leaf : spine.leaves) {
    const bool scannable = leaf.node->op == LogicalOp::kScan ||
                           leaf.node->op == LogicalOp::kSubquery;
    if (!scannable || leaf.qual_lower.empty() ||
        !seen.insert(leaf.qual_lower).second) {
      spine.valid = false;
      break;
    }
  }
  return spine;
}

bool AllInnerOrCross(const JoinSpine& spine) {
  return std::all_of(spine.joins.begin(), spine.joins.end(),
                     [](const LogicalNode* j) {
                       return j->join != nullptr &&
                              (j->join->type == JoinType::kInner ||
                               j->join->type == JoinType::kCross);
                     });
}

/// True when an ORDER BY expression is a bare column reference naming a
/// select-item output column — those sort keys resolve against the final
/// output schema, which no plan rewrite changes.
bool OrderKeyNamesOutputColumn(const Expr& e,
                               const std::vector<SelectItem>& items) {
  if (e.kind != ExprKind::kColumnRef) return false;
  const std::string text = ToLower(NormalizedExprText(e));
  for (const SelectItem& item : items) {
    if (item.is_star) continue;
    if (ToLower(ItemName(item)) == text) return true;
  }
  return false;
}

/// True when the expression's value is determined by the group: every
/// non-aggregate path either matches a GROUP BY expression or reaches no
/// column reference. Plan rewrites change which input row represents a
/// group, so grouped statements are only optimised when no expression
/// depends on that representative.
bool GroupDetermined(const Expr& e, const std::set<std::string>& group_texts) {
  if (IsAggregateCall(e)) return true;
  if (group_texts.count(NormalizedExprText(e)) > 0) return true;
  if (e.kind == ExprKind::kColumnRef) return false;
  bool ok = true;
  ForEachChild(e, [&](const Expr& c) {
    ok = ok && GroupDetermined(c, group_texts);
  });
  return ok;
}

std::set<std::string> GroupTexts(const SelectStatement& stmt) {
  std::set<std::string> texts;
  for (const ExprPtr& g : stmt.group_by) {
    if (g != nullptr) texts.insert(NormalizedExprText(*g));
  }
  return texts;
}

/// The shared eligibility gate of the plan-rewriting passes. Both passes
/// change the order in which rows reach downstream operators, so they
/// must not fire when anything observable depends on that order:
///  - every column reference must bind by qualifier to a known relation
///    (the evaluator's unqualified fallback is position-sensitive);
///    ORDER BY references to select-item output names are exempt;
///  - SELECT * exposes position-dependent column order; LAG reads
///    neighbouring rows; LIMIT without ORDER BY keeps "the first k";
///  - grouped statements additionally need every select/HAVING
///    expression group-determined (no representative-row dependence),
///    and ORDER BY keys naming output columns.
bool StatementShapeOptimizable(const SelectStatement& stmt,
                               const std::set<std::string>& leaf_quals,
                               bool aggregated) {
  if (stmt.limit.has_value() && stmt.order_by.empty()) return false;
  bool star = false;
  std::set<std::pair<std::string, std::string>> refs;
  CollectStatementRefs(stmt, &star, &refs);
  if (star) return false;
  // CollectStatementRefs covers ORDER BY too; output-name references are
  // re-admitted below.
  bool lag = false;
  ForEachClauseExpr(stmt,
                    [&lag](const Expr& e) { lag = lag || ContainsLag(e); });
  if (lag) return false;
  for (const OrderByItem& o : stmt.order_by) {
    if (o.expr->ContainsAggregate()) return false;
    if (aggregated && !OrderKeyNamesOutputColumn(*o.expr, stmt.items)) {
      return false;
    }
  }
  // Output-name ORDER BY keys may be unqualified (aliases) without
  // binding to a relation; drop them before the qualifier check.
  std::set<std::pair<std::string, std::string>> order_exempt;
  for (const OrderByItem& o : stmt.order_by) {
    if (o.expr != nullptr && OrderKeyNamesOutputColumn(*o.expr, stmt.items)) {
      order_exempt.insert(
          {ToLower(o.expr->qualifier), ToLower(o.expr->column)});
    }
  }
  for (const auto& ref : refs) {
    if (order_exempt.count(ref) > 0) continue;
    if (ref.first.empty() || leaf_quals.count(ref.first) == 0) return false;
  }
  if (aggregated) {
    const std::set<std::string> group_texts = GroupTexts(stmt);
    for (const SelectItem& item : stmt.items) {
      if (item.expr != nullptr && !GroupDetermined(*item.expr, group_texts)) {
        return false;
      }
    }
    if (stmt.having != nullptr &&
        !GroupDetermined(*stmt.having, group_texts)) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Optimiser: join reordering machinery
// ---------------------------------------------------------------------------

/// One WHERE/ON conjunct of the join region, with the set of relations it
/// references as a bitmask over statement-order leaf indices.
struct JoinConjunct {
  const Expr* expr = nullptr;
  uint64_t mask = 0;
  bool equality = false;
};

size_t Popcount(uint64_t v) {
  size_t n = 0;
  while (v != 0) {
    v &= v - 1;
    ++n;
  }
  return n;
}

/// Independence-model estimate of the join of the relations in `mask`.
double MaskRows(uint64_t mask, const std::vector<double>& base,
                const std::vector<JoinConjunct>& conjuncts) {
  double rows = 1.0;
  for (size_t i = 0; i < base.size(); ++i) {
    if ((mask >> i) & 1) rows *= cost::KnownOrDefault(base[i]);
  }
  for (const JoinConjunct& c : conjuncts) {
    if (!c.equality || Popcount(c.mask) != 2) continue;
    if ((c.mask & mask) != c.mask) continue;
    double largest = 1.0;
    for (size_t i = 0; i < base.size(); ++i) {
      if ((c.mask >> i) & 1) {
        largest = std::max(largest, cost::KnownOrDefault(base[i]));
      }
    }
    rows /= largest;
  }
  return cost::ClampRows(rows);
}

/// Left-deep DP over all join orders (n <= kJoinReorderDpLimit). Ties are
/// broken deterministically towards statement order (ascending masks and
/// extension indices; strict improvement required to replace).
std::vector<size_t> DpJoinOrder(const std::vector<double>& base,
                                const std::vector<JoinConjunct>& conjuncts) {
  const size_t n = base.size();
  const uint64_t full = (uint64_t{1} << n) - 1;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> best_cost(full + 1, inf);
  std::vector<std::vector<size_t>> best_order(full + 1);
  for (size_t i = 0; i < n; ++i) {
    best_cost[uint64_t{1} << i] = 0.0;
    best_order[uint64_t{1} << i] = {i};
  }
  for (uint64_t mask = 1; mask <= full; ++mask) {
    if (best_cost[mask] == inf || mask == full) continue;
    const double acc_rows = MaskRows(mask, base, conjuncts);
    for (size_t j = 0; j < n; ++j) {
      const uint64_t bit = uint64_t{1} << j;
      if ((mask & bit) != 0) continue;
      const uint64_t next = mask | bit;
      const double out_rows = MaskRows(next, base, conjuncts);
      const double step = cost::JoinStepCost(
          acc_rows, cost::KnownOrDefault(base[j]), out_rows);
      const double cand = best_cost[mask] + step;
      if (cand < best_cost[next]) {
        best_cost[next] = cand;
        best_order[next] = best_order[mask];
        best_order[next].push_back(j);
      }
    }
  }
  return best_order[full];
}

/// Greedy order for join graphs beyond the DP limit: start from the
/// smallest relation, repeatedly add the connected relation minimising
/// the intermediate estimate (falling back to the smallest unconnected).
std::vector<size_t> GreedyJoinOrder(
    const std::vector<double>& base,
    const std::vector<JoinConjunct>& conjuncts) {
  const size_t n = base.size();
  size_t start = 0;
  for (size_t i = 1; i < n; ++i) {
    if (cost::KnownOrDefault(base[i]) <
        cost::KnownOrDefault(base[start])) {
      start = i;
    }
  }
  std::vector<size_t> order{start};
  uint64_t mask = uint64_t{1} << start;
  while (order.size() < n) {
    std::optional<size_t> best;
    double best_rows = 0.0;
    bool best_connected = false;
    for (size_t j = 0; j < n; ++j) {
      const uint64_t bit = uint64_t{1} << j;
      if ((mask & bit) != 0) continue;
      const bool connected = std::any_of(
          conjuncts.begin(), conjuncts.end(), [&](const JoinConjunct& c) {
            return c.equality && (c.mask & bit) != 0 &&
                   (c.mask & mask) != 0 && (c.mask & ~(mask | bit)) == 0;
          });
      const double rows = connected
                              ? MaskRows(mask | bit, base, conjuncts)
                              : cost::KnownOrDefault(base[j]);
      if (!best.has_value() || (connected && !best_connected) ||
          (connected == best_connected && rows < best_rows)) {
        best = j;
        best_rows = rows;
        best_connected = connected;
      }
    }
    order.push_back(*best);
    mask |= uint64_t{1} << *best;
  }
  return order;
}

// ---------------------------------------------------------------------------
// Optimiser: aggregate pushdown machinery
// ---------------------------------------------------------------------------

/// Rewrite state for one pushdown: the chosen relation R, the partial
/// group keys discovered so far, and the per-aggregate replacement
/// templates for the statement above the join.
struct PushdownCtx {
  std::string r_lower;              // R's qualifier, lowercased
  std::string r_qual;               // R's qualifier as written
  std::map<std::string, size_t> key_map;  // normalized text -> key index
  std::vector<ExprPtr> key_exprs;         // key expressions (R columns)
  std::map<std::string, ExprPtr> agg_repl;  // normalized agg -> template
  size_t pa_count = 0;                      // partial aggregate items
};

ExprPtr KeyRef(const PushdownCtx& ctx, size_t idx) {
  return MakeColumnRef(ctx.r_qual, "__pk" + std::to_string(idx));
}

size_t AddKey(PushdownCtx* ctx, const Expr& e) {
  const std::string norm = NormalizedExprText(e);
  auto it = ctx->key_map.find(norm);
  if (it != ctx->key_map.end()) return it->second;
  const size_t idx = ctx->key_exprs.size();
  ctx->key_exprs.push_back(e.Clone());
  ctx->key_map.emplace(norm, idx);
  return idx;
}

ExprPtr WrapAgg(const std::string& name, ExprPtr arg) {
  std::vector<ExprPtr> args;
  args.push_back(std::move(arg));
  return MakeFunction(name, std::move(args));
}

/// Builds the partial-aggregate select items and the finalising
/// replacement template for every distinct aggregate. Supported shapes:
/// SUM/MIN/MAX recombine through themselves, COUNT through __SUM_COUNT,
/// AVG through a guarded SUM/__SUM_COUNT ratio. Returns false for
/// anything else (STDDEV, PERCENTILE, multi-argument calls).
bool BuildAggRewrites(const std::vector<const Expr*>& aggs, PushdownCtx* ctx,
                      std::vector<SelectItem>* partial_items) {
  for (const Expr* a : aggs) {
    const std::string norm = NormalizedExprText(*a);
    if (ctx->agg_repl.count(norm) > 0) continue;
    if (a->args.size() != 1 || a->args[0] == nullptr) return false;
    const Expr& arg = *a->args[0];
    const bool star = arg.kind == ExprKind::kStar;
    const std::string& fn = a->function_name;
    auto add_partial = [&](const std::string& fname) {
      const size_t idx = ctx->pa_count++;
      SelectItem item;
      item.expr = WrapAgg(fname, star ? MakeStar() : arg.Clone());
      item.alias = "__pa" + std::to_string(idx);
      partial_items->push_back(std::move(item));
      return idx;
    };
    ExprPtr repl;
    if (fn == "SUM" || fn == "MIN" || fn == "MAX") {
      if (star) return false;
      repl = WrapAgg(fn, KeyRef(*ctx, 0));  // placeholder arg, fixed below
      repl->args[0] = MakeColumnRef(
          ctx->r_qual, "__pa" + std::to_string(add_partial(fn)));
    } else if (fn == "COUNT" || fn == "__SUM_COUNT") {
      if (star && fn != "COUNT") return false;
      repl = WrapAgg("__SUM_COUNT",
                     MakeColumnRef(ctx->r_qual,
                                   "__pa" + std::to_string(add_partial(fn))));
    } else if (fn == "AVG") {
      if (star) return false;
      const size_t sum_idx = add_partial("SUM");
      const size_t cnt_idx = add_partial("COUNT");
      auto pa = [&](size_t idx) {
        return MakeColumnRef(ctx->r_qual, "__pa" + std::to_string(idx));
      };
      // CASE WHEN __SUM_COUNT(cnt) > 0 THEN SUM(sum) / __SUM_COUNT(cnt)
      // END — NULL (no ELSE) reproduces AVG over an all-NULL group.
      ExprPtr cond =
          MakeBinary(BinaryOp::kGt, WrapAgg("__SUM_COUNT", pa(cnt_idx)),
                     MakeLiteral(table::Value::Int(0)));
      ExprPtr ratio =
          MakeBinary(BinaryOp::kDiv, WrapAgg("SUM", pa(sum_idx)),
                     WrapAgg("__SUM_COUNT", pa(cnt_idx)));
      repl = std::make_unique<Expr>();
      repl->kind = ExprKind::kCase;
      CaseBranch branch;
      branch.condition = std::move(cond);
      branch.result = std::move(ratio);
      repl->case_branches.push_back(std::move(branch));
    } else {
      return false;
    }
    ctx->agg_repl.emplace(norm, std::move(repl));
  }
  return true;
}

/// Rewrites one expression of the statement above the pushed aggregate:
/// aggregate calls become their replacement templates, maximal R-only
/// subexpressions become partial-key references (added as new keys where
/// the context allows), everything else is cloned unchanged. Sets *ok to
/// false when an R-only subexpression cannot legally become a key.
ExprPtr RewriteAbovePushdown(const Expr& e, PushdownCtx* ctx,
                             bool allow_new_keys, bool* ok) {
  if (!*ok) return nullptr;
  if (IsAggregateCall(e)) {
    auto it = ctx->agg_repl.find(NormalizedExprText(e));
    if (it == ctx->agg_repl.end()) {
      *ok = false;  // aggregate outside the rewritten set (e.g. in WHERE)
      return nullptr;
    }
    return it->second->Clone();
  }
  RefInfo info;
  CollectRefInfo(e, &info);
  if (info.quals.count(ctx->r_lower) == 0) return e.Clone();
  if (ReadsOnly(e, ctx->r_lower)) {
    const std::string norm = NormalizedExprText(e);
    auto it = ctx->key_map.find(norm);
    if (it != ctx->key_map.end()) return KeyRef(*ctx, it->second);
    if (!allow_new_keys) {
      *ok = false;
      return nullptr;
    }
    return KeyRef(*ctx, AddKey(ctx, e));
  }
  // Mixed: rebuild this node with rewritten children.
  return MapChildren(e, [&](const Expr& c) -> Result<ExprPtr> {
           return RewriteAbovePushdown(c, ctx, allow_new_keys, ok);
         }).value();
}

ExprPtr AndChain(std::vector<ExprPtr> conjuncts) {
  ExprPtr out;
  for (ExprPtr& c : conjuncts) {
    out = out == nullptr
              ? std::move(c)
              : MakeBinary(BinaryOp::kAnd, std::move(out), std::move(c));
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Planner: stage 1 — build (statement-order logical IR)
// ---------------------------------------------------------------------------

tsdb::ScanHints Planner::JoinInputHints(const SelectStatement& stmt,
                                        const TableRef& ref,
                                        const std::string& qualifier) const {
  // Only plain tables with hint-honouring providers benefit, and LAG
  // anywhere in the scan-visible stages disables pushdown (LAG reads
  // neighbouring rows, so the scanned row set must not shrink).
  if (ref.subquery != nullptr || !catalog_->SupportsHints(ref.table_name) ||
      StatementContainsLag(stmt)) {
    return tsdb::ScanHints{};
  }
  const std::string q = ToLower(qualifier);

  // Predicate pushdown: a top-level WHERE conjunct narrows this input
  // when every column it references is qualified with this input's name
  // (unqualified references could bind to either side of the join).
  // Qualifiers are stripped from a clone so the unqualified
  // time/metric/tag shapes of hint extraction match; the original
  // conjunct always stays in the residual filter, and the pushable
  // shapes are all NULL-rejecting, so narrowing either side of an outer
  // join never changes the filtered result.
  std::vector<ExprPtr> stripped;
  if (stmt.where != nullptr) {
    std::vector<const Expr*> conjuncts;
    CollectConjuncts(stmt.where.get(), &conjuncts);
    for (const Expr* c : conjuncts) {
      std::set<std::pair<std::string, std::string>> refs;
      CollectQualifiedRefs(*c, &refs);
      if (refs.empty()) continue;
      const bool all_this_side =
          std::all_of(refs.begin(), refs.end(),
                      [&](const auto& r) { return r.first == q; });
      if (!all_this_side) continue;
      ExprPtr clone = c->Clone();
      StripQualifier(clone.get(), q);
      stripped.push_back(std::move(clone));
    }
  }
  std::vector<const Expr*> ptrs;
  ptrs.reserve(stripped.size());
  for (const ExprPtr& e : stripped) ptrs.push_back(e.get());
  tsdb::ScanHints hints = HintsFromConjuncts(ptrs);

  // Projection pruning: this input needs the columns referenced under its
  // qualifier plus every unqualified reference (which may bind here).
  if (auto cols = ReferencedColumns(stmt, q)) hints.projection = *cols;
  return hints;
}

Result<std::unique_ptr<LogicalNode>> Planner::BuildSource(
    const TableRef& ref, const std::string& qualifier,
    tsdb::ScanHints hints, LogicalPlan* plan) const {
  if (ref.subquery != nullptr) {
    EXPLAINIT_ASSIGN_OR_RETURN(auto sub,
                               BuildStatement(*ref.subquery, plan));
    auto node = std::make_unique<LogicalNode>(LogicalOp::kSubquery);
    node->qualifier = qualifier;
    node->est_rows = sub->est_rows;
    node->stmt = ref.subquery.get();
    node->children.push_back(std::move(sub));
    return node;
  }
  auto node = std::make_unique<LogicalNode>(LogicalOp::kScan);
  node->table_name = ref.table_name;
  node->qualifier = qualifier;
  // Hinted projections also prune the materialised table (unknown
  // references keep flowing so the evaluator reports them properly).
  if (!hints.projection.empty()) node->projection = hints.projection;
  const std::optional<size_t> rows = catalog_->EstimatedRows(ref.table_name);
  node->est_rows = rows.has_value()
                       ? cost::ClampRows(static_cast<double>(*rows) *
                                         cost::ScanSelectivity(hints))
                       : cost::kUnknownRows;
  node->hints = std::move(hints);
  return node;
}

Result<std::unique_ptr<LogicalNode>> Planner::BuildFrom(
    const SelectStatement& stmt, tsdb::ScanHints base_hints,
    LogicalPlan* plan) const {
  if (!stmt.from.has_value()) {
    return std::make_unique<LogicalNode>(LogicalOp::kSingleRow);
  }
  const TableRef& ref = *stmt.from;
  const bool has_joins = !stmt.joins.empty();

  if (!has_joins) {
    if (ref.subquery != nullptr) {
      EXPLAINIT_ASSIGN_OR_RETURN(auto sub,
                                 BuildStatement(*ref.subquery, plan));
      auto node = std::make_unique<LogicalNode>(LogicalOp::kSubquery);
      node->est_rows = sub->est_rows;
      node->stmt = ref.subquery.get();
      node->children.push_back(std::move(sub));
      return node;
    }
    // Single-table scan: attach pushdown hints and projection pruning.
    auto node = std::make_unique<LogicalNode>(LogicalOp::kScan);
    node->table_name = ref.table_name;
    node->projection = ReferencedColumns(stmt, /*q=*/"");
    tsdb::ScanHints hints = std::move(base_hints);
    if (node->projection.has_value()) hints.projection = *node->projection;
    const std::optional<size_t> rows =
        catalog_->EstimatedRows(ref.table_name);
    node->est_rows = rows.has_value()
                         ? cost::ClampRows(static_cast<double>(*rows) *
                                           cost::ScanSelectivity(hints))
                         : cost::kUnknownRows;
    node->hints = std::move(hints);
    return node;
  }

  // Join tree: left-deep, every input qualified with its effective name.
  // Each plain-table input receives its own pushdown hints, derived from
  // the WHERE conjuncts that bind entirely to it. A duplicated qualifier
  // would make "binds to this input" ambiguous (a conjunct could narrow
  // a relation it does not constrain), so pushdown is disabled outright.
  std::string base_name = ref.EffectiveName();
  if (base_name.empty()) base_name = "_t0";
  bool unique_names = true;
  {
    std::set<std::string> names{ToLower(base_name)};
    for (const JoinClause& join : stmt.joins) {
      const std::string& n = join.right.EffectiveName();
      if (!n.empty() && !names.insert(ToLower(n)).second) {
        unique_names = false;
      }
    }
  }
  auto side_hints = [&](const TableRef& side_ref,
                        const std::string& qualifier) {
    return unique_names ? JoinInputHints(stmt, side_ref, qualifier)
                        : tsdb::ScanHints{};
  };
  EXPLAINIT_ASSIGN_OR_RETURN(
      std::unique_ptr<LogicalNode> acc,
      BuildSource(ref, base_name, side_hints(ref, base_name), plan));
  std::optional<size_t> acc_rows =
      ref.subquery == nullptr ? catalog_->EstimatedRows(ref.table_name)
                              : std::nullopt;
  for (const JoinClause& join : stmt.joins) {
    // LAG reads the previous row of the candidate stream, whose order
    // is the join's internal run layout, not a property of the inputs.
    if (join.condition != nullptr && ContainsLag(*join.condition)) {
      return Status::InvalidArgument(
          "LAG is not allowed in a JOIN condition");
    }
    std::string right_name = join.right.EffectiveName();
    if (right_name.empty()) {
      right_name =
          "_t" + std::to_string(&join - stmt.joins.data() + 1);
    }
    EXPLAINIT_ASSIGN_OR_RETURN(
        auto right,
        BuildSource(join.right, right_name,
                    side_hints(join.right, right_name), plan));
    auto node = std::make_unique<LogicalNode>(LogicalOp::kJoin);
    node->join = &join;
    // Broadcast heuristic: build on the smaller side when both row
    // counts are known. Every join type may swap — the join pads
    // unmatched rows by the actual build side, so orientation only
    // affects cost, never results.
    const std::optional<size_t> right_rows =
        join.right.subquery == nullptr
            ? catalog_->EstimatedRows(join.right.table_name)
            : std::nullopt;
    node->build_left = acc_rows.has_value() && right_rows.has_value() &&
                       *acc_rows < *right_rows;
    // Cardinality annotation (the cost model; never affects lowering).
    size_t equalities = 0;
    if (join.condition != nullptr) {
      std::vector<const Expr*> conjuncts;
      CollectConjuncts(join.condition.get(), &conjuncts);
      for (const Expr* c : conjuncts) {
        if (c->kind == ExprKind::kBinary && c->binary_op == BinaryOp::kEq) {
          ++equalities;
        }
      }
    }
    if (acc->est_rows >= 0.0 && right->est_rows >= 0.0) {
      node->est_rows =
          cost::JoinOutputRows(acc->est_rows, right->est_rows, equalities);
    }
    node->children.push_back(std::move(acc));
    node->children.push_back(std::move(right));
    acc = std::move(node);
    acc_rows.reset();  // join output size is unknown
  }
  return acc;
}

Result<std::unique_ptr<LogicalNode>> Planner::BuildSingle(
    const SelectStatement& stmt, LogicalPlan* plan) const {
  // Predicate pushdown: single plain table, hint-aware provider, no LAG
  // in the scan-visible stages (LAG reads neighbouring rows, so the
  // scanned row set must not shrink). The filter keeps the full WHERE
  // either way; hints only shrink what the provider materialises.
  const bool pushdown_eligible =
      stmt.from.has_value() && stmt.from->subquery == nullptr &&
      stmt.joins.empty() &&
      catalog_->SupportsHints(stmt.from->table_name) &&
      !StatementContainsLag(stmt);

  // COUNT rollup routing: a grid-aligned COUNT over a store-backed table
  // whose provider forwards hints verbatim rewrites to __SUM_COUNT(value)
  // and reads the count tier (raw fallback rows substitute value = 1.0).
  // The rewrite and the hint travel together: without the hint the value
  // column holds raw samples and the rewritten statement would be wrong,
  // so the probe below requires a qualifying tier first.
  const SelectStatement* eff = &stmt;
  const bool allow_count =
      pushdown_eligible && options_.enabled &&
      catalog_->SupportsExactRollups(stmt.from->table_name);
  if (allow_count) {
    tsdb::ScanHints probe;
    DeriveRollupHint(stmt, &probe, /*allow_count=*/true);
    if (probe.min_step_seconds > 0 &&
        probe.rollup == tsdb::RollupAggregate::kCount) {
      eff = plan->AddStatement(RewriteCountAggregates(stmt));
      ++plan->count_rollup_rewrites;
    }
  }

  tsdb::ScanHints hints;
  if (pushdown_eligible && eff->where != nullptr) {
    hints = ExtractHints(eff->where.get());
  }
  // Resolution hint: grid-aligned aggregations may be served from the
  // store's rollup tiers (see "Rollup resolution hints" above).
  if (pushdown_eligible) DeriveRollupHint(*eff, &hints, allow_count);

  EXPLAINIT_ASSIGN_OR_RETURN(auto node,
                             BuildFrom(*eff, std::move(hints), plan));
  if (eff->where != nullptr) {
    auto filter = std::make_unique<LogicalNode>(LogicalOp::kFilter);
    filter->predicate = eff->where.get();
    filter->est_rows = cost::FilterOutputRows(node->est_rows);
    filter->children.push_back(std::move(node));
    node = std::move(filter);
  }

  const bool aggregated =
      !eff->group_by.empty() ||
      std::any_of(eff->items.begin(), eff->items.end(),
                  [](const SelectItem& i) {
                    return i.expr != nullptr && i.expr->ContainsAggregate();
                  });
  const bool needs_sort_limit =
      !eff->order_by.empty() || eff->limit.has_value();
  // Pre-projection rows are only consulted by an ORDER BY whose keys
  // resolve against neither side; retaining them otherwise would force
  // the aggregate's partial path to re-materialise its input.
  const bool retain = !eff->order_by.empty();

  if (aggregated) {
    auto agg = std::make_unique<LogicalNode>(LogicalOp::kAggregate);
    agg->stmt = eff;
    agg->retain = retain;
    agg->est_rows = eff->group_by.empty()
                        ? 1.0
                        : cost::AggregateOutputRows(node->est_rows);
    agg->children.push_back(std::move(node));
    node = std::move(agg);
  } else {
    auto project = std::make_unique<LogicalNode>(LogicalOp::kProject);
    project->stmt = eff;
    project->retain = retain;
    project->est_rows = node->est_rows;
    project->children.push_back(std::move(node));
    node = std::move(project);
  }
  if (needs_sort_limit) {
    auto sort = std::make_unique<LogicalNode>(LogicalOp::kSortLimit);
    sort->stmt = eff;
    sort->aggregated = aggregated;
    sort->est_rows = node->est_rows;
    if (eff->limit.has_value() && *eff->limit >= 0 &&
        (sort->est_rows < 0.0 ||
         sort->est_rows > static_cast<double>(*eff->limit))) {
      sort->est_rows = static_cast<double>(*eff->limit);
    }
    sort->children.push_back(std::move(node));
    node = std::move(sort);
  }

  if (options_.enabled) OptimizeSingle(node.get(), *eff, plan);
  return node;
}

Result<std::unique_ptr<LogicalNode>> Planner::BuildStatement(
    const SelectStatement& stmt, LogicalPlan* plan) const {
  EXPLAINIT_ASSIGN_OR_RETURN(auto first, BuildSingle(stmt, plan));
  if (stmt.union_all.empty()) return first;
  auto node = std::make_unique<LogicalNode>(LogicalOp::kUnion);
  node->est_rows = first->est_rows;
  node->children.push_back(std::move(first));
  for (const auto& next : stmt.union_all) {
    EXPLAINIT_ASSIGN_OR_RETURN(auto branch, BuildSingle(*next, plan));
    if (node->est_rows >= 0.0) {
      node->est_rows = branch->est_rows >= 0.0
                           ? node->est_rows + branch->est_rows
                           : cost::kUnknownRows;
    }
    node->children.push_back(std::move(branch));
  }
  return node;
}

// ---------------------------------------------------------------------------
// Planner: stage 2 — rule passes
// ---------------------------------------------------------------------------

void Planner::OptimizeSingle(LogicalNode* root, const SelectStatement& stmt,
                             LogicalPlan* plan) const {
  ReorderJoins(root, stmt, plan);
  PushdownAggregate(root, stmt, plan);
}

void Planner::ReorderJoins(LogicalNode* root, const SelectStatement& stmt,
                           LogicalPlan* plan) const {
  std::unique_ptr<LogicalNode>* from_slot = FromSlot(root);
  JoinSpine spine = AnalyzeJoins(from_slot);
  if (!spine.valid || spine.joins.size() < 2) return;  // < 3 relations
  if (!AllInnerOrCross(spine)) return;
  std::set<std::string> leaf_quals;
  for (const JoinSpine::Leaf& leaf : spine.leaves) {
    leaf_quals.insert(leaf.qual_lower);
  }
  bool aggregated = false;
  for (LogicalNode* n = root; n != nullptr;
       n = n->children.empty() ? nullptr : n->children[0].get()) {
    if (n->op == LogicalOp::kAggregate) aggregated = true;
    if (n->op == LogicalOp::kFilter || n->op == LogicalOp::kJoin) break;
  }
  if (!StatementShapeOptimizable(stmt, leaf_quals, aggregated)) return;

  const size_t n = spine.leaves.size();
  if (n > 63) return;
  std::vector<double> base(n);
  for (size_t i = 0; i < n; ++i) base[i] = spine.leaves[i].node->est_rows;

  // Conjuncts of every ON condition, with relation masks by qualifier.
  std::vector<JoinConjunct> conjuncts;
  for (const LogicalNode* j : spine.joins) {
    if (j->join == nullptr || j->join->condition == nullptr) continue;
    std::vector<const Expr*> parts;
    CollectConjuncts(j->join->condition.get(), &parts);
    for (const Expr* c : parts) {
      JoinConjunct jc;
      jc.expr = c;
      RefInfo info;
      CollectRefInfo(*c, &info);
      if (info.unqualified) return;  // gate should have caught; be safe
      for (const std::string& q : info.quals) {
        for (size_t i = 0; i < n; ++i) {
          if (spine.leaves[i].qual_lower == q) jc.mask |= uint64_t{1} << i;
        }
      }
      jc.equality =
          c->kind == ExprKind::kBinary && c->binary_op == BinaryOp::kEq;
      conjuncts.push_back(std::move(jc));
    }
  }

  const std::vector<size_t> order =
      n <= kJoinReorderDpLimit ? DpJoinOrder(base, conjuncts)
                               : GreedyJoinOrder(base, conjuncts);
  bool identity = true;
  for (size_t i = 0; i < n; ++i) {
    if (order[i] != i) identity = false;
  }
  if (identity) return;  // statement order already optimal: keep the tree

  // Detach the leaves, then rebuild the spine left-deep in `order`.
  // Conjuncts re-attach at the earliest join where every referenced
  // relation is available (inner/cross only, so placement is free).
  std::vector<std::unique_ptr<LogicalNode>> leaves(n);
  for (size_t i = 0; i < n; ++i) {
    leaves[i] = std::move(*spine.leaves[i].slot);
  }
  std::vector<bool> placed(conjuncts.size(), false);
  uint64_t mask = uint64_t{1} << order[0];
  std::unique_ptr<LogicalNode> acc = std::move(leaves[order[0]]);
  for (size_t step = 1; step < n; ++step) {
    const size_t j = order[step];
    const uint64_t next_mask = mask | (uint64_t{1} << j);
    std::vector<ExprPtr> cond_parts;
    for (size_t k = 0; k < conjuncts.size(); ++k) {
      if (placed[k] || (conjuncts[k].mask & ~next_mask) != 0) continue;
      placed[k] = true;
      cond_parts.push_back(conjuncts[k].expr->Clone());
    }
    auto clause = std::make_unique<JoinClause>();
    clause->condition = AndChain(std::move(cond_parts));
    clause->type = clause->condition != nullptr ? JoinType::kInner
                                                : JoinType::kCross;
    JoinClause* owned = plan->AddJoin(std::move(clause));
    auto join = std::make_unique<LogicalNode>(LogicalOp::kJoin);
    join->join = owned;
    join->reordered = true;
    const double acc_rows = MaskRows(mask, base, conjuncts);
    const double right_rows = cost::KnownOrDefault(base[j]);
    join->build_left = acc_rows < right_rows;
    join->est_rows = MaskRows(next_mask, base, conjuncts);
    join->est_cost = cost::JoinStepCost(acc_rows, right_rows, join->est_rows);
    join->children.push_back(std::move(acc));
    join->children.push_back(std::move(leaves[j]));
    acc = std::move(join);
    mask = next_mask;
  }
  *from_slot = std::move(acc);
  ++plan->joins_reordered;
}

void Planner::PushdownAggregate(LogicalNode* root,
                                const SelectStatement& stmt,
                                LogicalPlan* plan) const {
  // Locate the Aggregate -> [Filter] -> join-spine chain.
  LogicalNode* agg_node = root;
  while (agg_node != nullptr && agg_node->op == LogicalOp::kSortLimit) {
    agg_node = agg_node->children[0].get();
  }
  if (agg_node == nullptr || agg_node->op != LogicalOp::kAggregate) return;
  LogicalNode* filter_node = nullptr;
  std::unique_ptr<LogicalNode>* from_slot = &agg_node->children[0];
  if ((*from_slot)->op == LogicalOp::kFilter) {
    filter_node = from_slot->get();
    from_slot = &filter_node->children[0];
  }
  JoinSpine spine = AnalyzeJoins(from_slot);
  if (!spine.valid || spine.joins.empty()) return;
  if (!AllInnerOrCross(spine)) return;  // pad rows break partial counts
  std::set<std::string> leaf_quals;
  for (const JoinSpine::Leaf& leaf : spine.leaves) {
    leaf_quals.insert(leaf.qual_lower);
  }
  if (!StatementShapeOptimizable(stmt, leaf_quals, /*aggregated=*/true)) {
    return;
  }

  // Collect the aggregates and choose R: the single relation every
  // aggregate argument reads (aggregates over constants alone fall to
  // the largest relation, where reduction helps most).
  std::vector<const Expr*> aggs;
  for (const SelectItem& item : stmt.items) {
    if (item.expr != nullptr) CollectAggregates(*item.expr, &aggs);
  }
  if (stmt.having != nullptr) CollectAggregates(*stmt.having, &aggs);
  RefInfo agg_refs;
  for (const Expr* a : aggs) CollectRefInfo(*a, &agg_refs);
  if (agg_refs.unqualified || agg_refs.quals.size() > 1) return;
  const JoinSpine::Leaf* r_leaf = nullptr;
  if (agg_refs.quals.size() == 1) {
    for (const JoinSpine::Leaf& leaf : spine.leaves) {
      if (leaf.qual_lower == *agg_refs.quals.begin()) r_leaf = &leaf;
    }
  } else {
    for (const JoinSpine::Leaf& leaf : spine.leaves) {
      if (r_leaf == nullptr || cost::KnownOrDefault(leaf.node->est_rows) >
                                   cost::KnownOrDefault(
                                       r_leaf->node->est_rows)) {
        r_leaf = &leaf;
      }
    }
  }
  if (r_leaf == nullptr) return;

  PushdownCtx ctx;
  ctx.r_lower = r_leaf->qual_lower;
  ctx.r_qual = r_leaf->node->qualifier;

  // Partial group keys, phase 1: R-only GROUP BY expressions. (Join and
  // residual conjuncts add theirs during rewriting below.)
  for (const ExprPtr& g : stmt.group_by) {
    if (g != nullptr && ReadsOnly(*g, ctx.r_lower)) AddKey(&ctx, *g);
  }
  std::vector<SelectItem> partial_aggs;
  if (!BuildAggRewrites(aggs, &ctx, &partial_aggs)) return;
  if (ctx.key_exprs.empty() && partial_aggs.empty()) return;

  // Dry-run every rewrite; mutate the tree only after all succeed.
  bool ok = true;
  // (a) GROUP BY (may add keys for R parts of mixed expressions).
  std::vector<ExprPtr> new_group_by;
  for (const ExprPtr& g : stmt.group_by) {
    new_group_by.push_back(
        RewriteAbovePushdown(*g, &ctx, /*allow_new_keys=*/true, &ok));
  }
  // (b) Join conditions referencing R.
  std::vector<std::pair<LogicalNode*, ExprPtr>> new_conditions;
  for (LogicalNode* j : spine.joins) {
    if (j->join == nullptr || j->join->condition == nullptr) continue;
    RefInfo info;
    CollectRefInfo(*j->join->condition, &info);
    if (info.quals.count(ctx.r_lower) == 0) continue;
    new_conditions.emplace_back(
        j, RewriteAbovePushdown(*j->join->condition, &ctx,
                                /*allow_new_keys=*/true, &ok));
  }
  // (c) WHERE conjuncts: R-only ones move below the partial aggregate
  // (they must, their raw columns no longer exist above); the rest stay,
  // rewritten.
  std::vector<ExprPtr> moved_parts;
  std::vector<ExprPtr> kept_parts;
  if (stmt.where != nullptr) {
    std::vector<const Expr*> parts;
    CollectConjuncts(stmt.where.get(), &parts);
    for (const Expr* c : parts) {
      if (ReadsOnly(*c, ctx.r_lower)) {
        moved_parts.push_back(c->Clone());
      } else {
        kept_parts.push_back(
            RewriteAbovePushdown(*c, &ctx, /*allow_new_keys=*/true, &ok));
      }
    }
  }
  // (d) Select items and HAVING: every R-only subexpression must already
  // be a key (group-determined — StatementShapeOptimizable guarantees
  // group_by membership, and (a) registered those keys).
  std::vector<SelectItem> new_items;
  for (const SelectItem& item : stmt.items) {
    SelectItem ni;
    ni.is_star = item.is_star;
    ni.alias = item.alias.empty() ? item.expr->ToString() : item.alias;
    ni.expr = RewriteAbovePushdown(*item.expr, &ctx,
                                   /*allow_new_keys=*/false, &ok);
    new_items.push_back(std::move(ni));
  }
  ExprPtr new_having;
  if (stmt.having != nullptr) {
    new_having = RewriteAbovePushdown(*stmt.having, &ctx,
                                      /*allow_new_keys=*/false, &ok);
  }
  if (!ok) return;

  // Assemble the statement above the join and the partial statement
  // below it.
  auto upper = CloneSelect(stmt);
  upper->items = std::move(new_items);
  upper->group_by = std::move(new_group_by);
  upper->having = std::move(new_having);
  upper->where = nullptr;  // the Filter node carries the residual now
  SelectStatement* upper_stmt = plan->AddStatement(std::move(upper));

  auto partial = std::make_unique<SelectStatement>();
  for (size_t i = 0; i < ctx.key_exprs.size(); ++i) {
    SelectItem key_item;
    key_item.expr = ctx.key_exprs[i]->Clone();
    key_item.alias = "__pk" + std::to_string(i);
    partial->items.push_back(std::move(key_item));
    partial->group_by.push_back(ctx.key_exprs[i]->Clone());
  }
  for (SelectItem& item : partial_aggs) partial->items.push_back(std::move(item));
  SelectStatement* partial_stmt = plan->AddStatement(std::move(partial));

  // Mutate the tree: swap the rewritten statements/conditions in, then
  // wrap R's leaf as Subquery(R) <- partial Aggregate <- [Filter] <- leaf.
  for (auto& [join_node, condition] : new_conditions) {
    auto clause = std::make_unique<JoinClause>();
    clause->type = join_node->join->type;
    clause->condition = std::move(condition);
    join_node->join = plan->AddJoin(std::move(clause));
  }
  LogicalNode* sort_node = root->op == LogicalOp::kSortLimit ? root : nullptr;
  for (LogicalNode* s = sort_node; s != nullptr;
       s = s->children[0]->op == LogicalOp::kSortLimit
               ? s->children[0].get()
               : nullptr) {
    s->stmt = upper_stmt;
  }
  agg_node->stmt = upper_stmt;

  const double r_est = r_leaf->node->est_rows;
  std::unique_ptr<LogicalNode> r_sub = std::move(*r_leaf->slot);
  if (!moved_parts.empty()) {
    auto below = std::make_unique<LogicalNode>(LogicalOp::kFilter);
    below->predicate = plan->AddExpr(AndChain(std::move(moved_parts)));
    below->est_rows = cost::FilterOutputRows(r_est);
    below->children.push_back(std::move(r_sub));
    r_sub = std::move(below);
  }
  auto partial_node = std::make_unique<LogicalNode>(LogicalOp::kAggregate);
  partial_node->stmt = partial_stmt;
  partial_node->partial = true;
  partial_node->est_rows = partial_stmt->group_by.empty()
                               ? 1.0
                               : cost::AggregateOutputRows(r_est);
  partial_node->children.push_back(std::move(r_sub));
  auto wrapper = std::make_unique<LogicalNode>(LogicalOp::kSubquery);
  wrapper->qualifier = ctx.r_qual;
  wrapper->stmt = partial_stmt;
  wrapper->est_rows = partial_node->est_rows;
  wrapper->children.push_back(std::move(partial_node));
  *r_leaf->slot = std::move(wrapper);

  if (filter_node != nullptr) {
    if (kept_parts.empty()) {
      // Every conjunct moved below: splice the upper filter out.
      agg_node->children[0] = std::move(filter_node->children[0]);
    } else {
      filter_node->predicate = plan->AddExpr(AndChain(std::move(kept_parts)));
    }
  }
  ++plan->agg_pushdowns;
}

// ---------------------------------------------------------------------------
// Planner: stage 3 — lowering onto physical operators
// ---------------------------------------------------------------------------

Result<std::unique_ptr<Operator>> Planner::Lower(
    const LogicalNode& node) const {
  switch (node.op) {
    case LogicalOp::kScan: {
      tsdb::ScanHints hints = node.hints;
      std::optional<std::vector<std::string>> projection = node.projection;
      return std::unique_ptr<Operator>(std::make_unique<CatalogScanOperator>(
          catalog_, node.table_name, std::move(hints), node.qualifier,
          std::move(projection)));
    }
    case LogicalOp::kSubquery: {
      EXPLAINIT_ASSIGN_OR_RETURN(auto sub, Lower(*node.children[0]));
      return std::unique_ptr<Operator>(std::make_unique<SubqueryScanOperator>(
          std::move(sub), node.qualifier));
    }
    case LogicalOp::kSingleRow:
      return std::unique_ptr<Operator>(std::make_unique<SingleRowOperator>());
    case LogicalOp::kFilter: {
      EXPLAINIT_ASSIGN_OR_RETURN(auto input, Lower(*node.children[0]));
      return std::unique_ptr<Operator>(std::make_unique<FilterOperator>(
          std::move(input), node.predicate->Clone(), functions_, ctx_));
    }
    case LogicalOp::kJoin: {
      EXPLAINIT_ASSIGN_OR_RETURN(auto left, Lower(*node.children[0]));
      EXPLAINIT_ASSIGN_OR_RETURN(auto right, Lower(*node.children[1]));
      return std::unique_ptr<Operator>(std::make_unique<HashJoinOperator>(
          std::move(left), std::move(right), node.join, functions_,
          node.build_left, ctx_));
    }
    case LogicalOp::kAggregate: {
      EXPLAINIT_ASSIGN_OR_RETURN(auto input, Lower(*node.children[0]));
      return std::unique_ptr<Operator>(
          std::make_unique<HashAggregateOperator>(
              std::move(input), node.stmt, functions_, ctx_, node.retain));
    }
    case LogicalOp::kProject: {
      EXPLAINIT_ASSIGN_OR_RETURN(auto input, Lower(*node.children[0]));
      return std::unique_ptr<Operator>(std::make_unique<ProjectOperator>(
          std::move(input), node.stmt, functions_, node.retain, ctx_));
    }
    case LogicalOp::kSortLimit: {
      EXPLAINIT_ASSIGN_OR_RETURN(auto input, Lower(*node.children[0]));
      return std::unique_ptr<Operator>(std::make_unique<SortLimitOperator>(
          std::move(input), node.stmt, functions_, node.aggregated, ctx_));
    }
    case LogicalOp::kUnion: {
      std::vector<std::unique_ptr<Operator>> branches;
      branches.reserve(node.children.size());
      for (const auto& child : node.children) {
        EXPLAINIT_ASSIGN_OR_RETURN(auto branch, Lower(*child));
        branches.push_back(std::move(branch));
      }
      return std::unique_ptr<Operator>(
          std::make_unique<UnionAllOperator>(std::move(branches)));
    }
  }
  return Status::Internal("unknown logical operator");
}

Result<std::unique_ptr<Operator>> Planner::Plan(
    const SelectStatement& stmt) const {
  auto plan = std::make_shared<LogicalPlan>();
  EXPLAINIT_ASSIGN_OR_RETURN(auto root, BuildStatement(stmt, plan.get()));
  plan->root = std::move(root);
  EXPLAINIT_ASSIGN_OR_RETURN(auto op, Lower(*plan->root));
  // The operator tree references AST the plan owns (rewritten statements,
  // synthesised join clauses): tie the plan's lifetime to the tree.
  op->RetainArtifact(std::shared_ptr<const void>(plan));
  last_plan_ = std::move(plan);
  return op;
}

}  // namespace explainit::sql
