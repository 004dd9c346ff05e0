#include "sql/logical_plan.h"

#include <cmath>
#include <sstream>

#include "common/strings.h"

namespace explainit::sql {

namespace {

void LowercaseRefs(Expr* e) {
  if (e->kind == ExprKind::kColumnRef) {
    e->qualifier = ToLower(e->qualifier);
    e->column = ToLower(e->column);
  }
  ForEachChild(*e, [](Expr& c) { LowercaseRefs(&c); });
}

TableRef CloneTableRef(const TableRef& ref) {
  TableRef out;
  out.table_name = ref.table_name;
  out.alias = ref.alias;
  if (ref.subquery != nullptr) out.subquery = CloneSelect(*ref.subquery);
  return out;
}

void AppendRows(std::ostringstream* out, double est_rows) {
  if (est_rows >= 0.0) {
    *out << " rows~" << static_cast<int64_t>(std::llround(est_rows));
  }
}

void PrintNode(const LogicalNode& node, int depth, std::ostringstream* out) {
  for (int i = 0; i < depth * 2; ++i) out->put(' ');
  switch (node.op) {
    case LogicalOp::kScan: {
      *out << "Scan " << node.table_name;
      if (!node.qualifier.empty()) *out << " q=" << node.qualifier;
      if (node.projection.has_value()) {
        *out << " cols=" << node.projection->size();
      }
      if (node.hints.range.has_value()) *out << " range";
      if (node.hints.metric_names.has_value()) {
        const std::vector<std::string>& names = *node.hints.metric_names;
        if (names.size() == 1) {
          *out << " metric='" << names.front() << "'";
        } else {
          *out << " metric in (";
          for (size_t i = 0; i < names.size(); ++i) {
            *out << (i > 0 ? ", '" : "'") << names[i] << "'";
          }
          *out << ")";
        }
      }
      if (!node.hints.tag_filter.empty()) {
        *out << " tags=" << node.hints.tag_filter.size();
      }
      if (node.hints.min_step_seconds > 0) {
        const char* agg = "?";
        switch (node.hints.rollup) {
          case tsdb::RollupAggregate::kNone: agg = "none"; break;
          case tsdb::RollupAggregate::kMin: agg = "min"; break;
          case tsdb::RollupAggregate::kMax: agg = "max"; break;
          case tsdb::RollupAggregate::kSum: agg = "sum"; break;
          case tsdb::RollupAggregate::kCount: agg = "count"; break;
        }
        *out << " rollup=" << agg << "@" << node.hints.min_step_seconds;
      }
      break;
    }
    case LogicalOp::kSubquery:
      *out << "Subquery";
      if (!node.qualifier.empty()) *out << " q=" << node.qualifier;
      break;
    case LogicalOp::kSingleRow:
      *out << "SingleRow";
      break;
    case LogicalOp::kFilter:
      *out << "Filter";
      if (node.predicate != nullptr) {
        *out << " " << node.predicate->ToString();
      }
      break;
    case LogicalOp::kJoin: {
      *out << "HashJoin";
      const char* type = "inner";
      if (node.join != nullptr) {
        switch (node.join->type) {
          case JoinType::kInner: type = "inner"; break;
          case JoinType::kLeft: type = "left"; break;
          case JoinType::kFullOuter: type = "fullouter"; break;
          case JoinType::kCross: type = "cross"; break;
        }
      }
      *out << " " << type;
      if (node.join != nullptr && node.join->condition != nullptr) {
        *out << " on " << node.join->condition->ToString();
      }
      *out << " build=" << (node.build_left ? "left" : "right");
      break;
    }
    case LogicalOp::kAggregate: {
      *out << "Aggregate";
      if (node.stmt != nullptr) {
        *out << " group_by=[";
        for (size_t i = 0; i < node.stmt->group_by.size(); ++i) {
          if (i > 0) *out << ", ";
          *out << node.stmt->group_by[i]->ToString();
        }
        *out << "]";
      }
      break;
    }
    case LogicalOp::kProject:
      *out << "Project";
      if (node.stmt != nullptr) *out << " items=" << node.stmt->items.size();
      break;
    case LogicalOp::kSortLimit:
      *out << "SortLimit";
      if (node.stmt != nullptr) {
        *out << " keys=" << node.stmt->order_by.size();
        if (node.stmt->limit.has_value()) {
          *out << " limit=" << *node.stmt->limit;
        }
      }
      break;
    case LogicalOp::kUnion:
      *out << "UnionAll branches=" << node.children.size();
      break;
  }
  AppendRows(out, node.est_rows);
  if (node.reordered) *out << " [reordered]";
  if (node.partial) *out << " [partial below join]";
  *out << "\n";
  for (const auto& child : node.children) {
    PrintNode(*child, depth + 1, out);
  }
}

}  // namespace

std::string LogicalPlan::ToString() const {
  std::ostringstream out;
  if (root != nullptr) PrintNode(*root, 0, &out);
  return out.str();
}

std::unique_ptr<SelectStatement> CloneSelect(const SelectStatement& stmt) {
  auto out = std::make_unique<SelectStatement>();
  out->items.reserve(stmt.items.size());
  for (const SelectItem& item : stmt.items) {
    SelectItem clone;
    clone.alias = item.alias;
    clone.is_star = item.is_star;
    if (item.expr != nullptr) clone.expr = item.expr->Clone();
    out->items.push_back(std::move(clone));
  }
  if (stmt.from.has_value()) out->from = CloneTableRef(*stmt.from);
  out->joins.reserve(stmt.joins.size());
  for (const JoinClause& join : stmt.joins) {
    JoinClause clone;
    clone.type = join.type;
    clone.right = CloneTableRef(join.right);
    if (join.condition != nullptr) clone.condition = join.condition->Clone();
    out->joins.push_back(std::move(clone));
  }
  if (stmt.where != nullptr) out->where = stmt.where->Clone();
  out->group_by.reserve(stmt.group_by.size());
  for (const ExprPtr& g : stmt.group_by) out->group_by.push_back(g->Clone());
  if (stmt.having != nullptr) out->having = stmt.having->Clone();
  out->order_by.reserve(stmt.order_by.size());
  for (const OrderByItem& o : stmt.order_by) {
    OrderByItem clone;
    clone.ascending = o.ascending;
    if (o.expr != nullptr) clone.expr = o.expr->Clone();
    out->order_by.push_back(std::move(clone));
  }
  out->limit = stmt.limit;
  return out;
}

std::string NormalizedExprText(const Expr& e) {
  ExprPtr clone = e.Clone();
  LowercaseRefs(clone.get());
  return clone->ToString();
}

}  // namespace explainit::sql
