#include "sql/ast.h"

#include "common/strings.h"

namespace explainit::sql {

bool IsAggregateFunction(std::string_view upper_name) {
  return upper_name == "AVG" || upper_name == "SUM" || upper_name == "MIN" ||
         upper_name == "MAX" || upper_name == "COUNT" ||
         upper_name == "STDDEV" || upper_name == "PERCENTILE" ||
         upper_name == "__SUM_COUNT";
}

bool IsAggregateCall(const Expr& e) {
  return e.kind == ExprKind::kFunction && IsAggregateFunction(e.function_name);
}

namespace {
const char* BinaryOpText(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd: return " + ";
    case BinaryOp::kSub: return " - ";
    case BinaryOp::kMul: return " * ";
    case BinaryOp::kDiv: return " / ";
    case BinaryOp::kMod: return " % ";
    case BinaryOp::kEq: return " = ";
    case BinaryOp::kNe: return " != ";
    case BinaryOp::kLt: return " < ";
    case BinaryOp::kLe: return " <= ";
    case BinaryOp::kGt: return " > ";
    case BinaryOp::kGe: return " >= ";
    case BinaryOp::kAnd: return " AND ";
    case BinaryOp::kOr: return " OR ";
    case BinaryOp::kLike: return " LIKE ";
  }
  return " ? ";
}
}  // namespace

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.type() == table::DataType::kString
                 ? "'" + literal.AsString() + "'"
                 : literal.ToString();
    case ExprKind::kColumnRef:
      return qualifier.empty() ? column : qualifier + "." + column;
    case ExprKind::kStar:
      return "*";
    case ExprKind::kFunction: {
      std::string out = function_name + "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        out += args[i]->ToString();
      }
      return out + ")";
    }
    case ExprKind::kBinary:
      return "(" + left->ToString() + BinaryOpText(binary_op) +
             right->ToString() + ")";
    case ExprKind::kUnary: {
      const std::string operand = left->ToString();
      if (unary_op == UnaryOp::kNot) return "NOT " + operand;
      // A space keeps "- -x" from printing as a "--" line comment.
      return (operand[0] == '-' ? "- " : "-") + operand;
    }
    case ExprKind::kSubscript:
      return left->ToString() + "[" + right->ToString() + "]";
    case ExprKind::kInList: {
      std::string out = left->ToString() + (negated ? " NOT IN (" : " IN (");
      for (size_t i = 0; i < list.size(); ++i) {
        if (i > 0) out += ", ";
        out += list[i]->ToString();
      }
      return out + ")";
    }
    case ExprKind::kBetween:
      return left->ToString() + (negated ? " NOT BETWEEN " : " BETWEEN ") +
             between_lo->ToString() + " AND " + between_hi->ToString();
    case ExprKind::kIsNull:
      return left->ToString() + (negated ? " IS NOT NULL" : " IS NULL");
    case ExprKind::kCase: {
      std::string out = "CASE";
      for (const CaseBranch& b : case_branches) {
        out += " WHEN " + b.condition->ToString() + " THEN " +
               b.result->ToString();
      }
      if (case_else) out += " ELSE " + case_else->ToString();
      return out + " END";
    }
  }
  return "?";
}

bool Expr::ContainsAggregate() const { return AnyNode(*this, IsAggregateCall); }

ExprPtr Expr::Clone() const {
  return MapChildren(*this, [](const Expr& c) -> Result<ExprPtr> {
           return c.Clone();
         }).value();
}

Result<ExprPtr> MapChildren(
    const Expr& e, const std::function<Result<ExprPtr>(const Expr&)>& f) {
  auto out = std::make_unique<Expr>();
  out->kind = e.kind;
  out->literal = e.literal;
  out->qualifier = e.qualifier;
  out->column = e.column;
  out->function_name = e.function_name;
  out->binary_op = e.binary_op;
  out->unary_op = e.unary_op;
  out->negated = e.negated;
  out->args.resize(e.args.size());
  out->list.resize(e.list.size());
  out->case_branches.resize(e.case_branches.size());
  Status status;
  internal::ForEachSlot(
      [&](const ExprPtr& from, ExprPtr& to) {
        if (from == nullptr || !status.ok()) return;
        Result<ExprPtr> mapped = f(*from);
        if (mapped.ok()) {
          to = std::move(mapped).value();
        } else {
          status = mapped.status();
        }
      },
      e, *out);
  if (!status.ok()) return status;
  return out;
}

bool ContainsLag(const Expr& e) {
  return AnyNode(e, [](const Expr& n) {
    return n.kind == ExprKind::kFunction && n.function_name == "LAG";
  });
}

void CollectAggregates(const Expr& e, std::vector<const Expr*>* out) {
  if (IsAggregateCall(e)) {
    out->push_back(&e);
    return;
  }
  ForEachChild(e, [out](const Expr& c) { CollectAggregates(c, out); });
}

namespace {

std::string TableRefToSql(const TableRef& ref) {
  std::string out = ref.subquery != nullptr
                        ? "(" + ToSql(*ref.subquery) + ")"
                        : ref.table_name;
  if (!ref.alias.empty()) out += " AS " + ref.alias;
  return out;
}

}  // namespace

std::string ToSql(const SelectStatement& stmt) {
  std::string out = "SELECT ";
  for (size_t i = 0; i < stmt.items.size(); ++i) {
    if (i > 0) out += ", ";
    const SelectItem& item = stmt.items[i];
    if (item.is_star) {
      out += "*";
      continue;
    }
    out += item.expr->ToString();
    if (!item.alias.empty()) out += " AS " + item.alias;
  }
  if (stmt.from.has_value()) {
    out += " FROM " + TableRefToSql(*stmt.from);
    for (const JoinClause& join : stmt.joins) {
      switch (join.type) {
        case JoinType::kInner: out += " JOIN "; break;
        case JoinType::kLeft: out += " LEFT JOIN "; break;
        case JoinType::kFullOuter: out += " FULL OUTER JOIN "; break;
        case JoinType::kCross: out += " CROSS JOIN "; break;
      }
      out += TableRefToSql(join.right);
      if (join.condition != nullptr) {
        out += " ON " + join.condition->ToString();
      }
    }
  }
  if (stmt.where != nullptr) out += " WHERE " + stmt.where->ToString();
  if (!stmt.group_by.empty()) {
    out += " GROUP BY ";
    for (size_t i = 0; i < stmt.group_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += stmt.group_by[i]->ToString();
    }
  }
  if (stmt.having != nullptr) out += " HAVING " + stmt.having->ToString();
  if (!stmt.order_by.empty()) {
    out += " ORDER BY ";
    for (size_t i = 0; i < stmt.order_by.size(); ++i) {
      if (i > 0) out += ", ";
      out += stmt.order_by[i].expr->ToString();
      if (!stmt.order_by[i].ascending) out += " DESC";
    }
  }
  if (stmt.limit.has_value()) {
    out += " LIMIT " + std::to_string(*stmt.limit);
  }
  for (const auto& next : stmt.union_all) {
    out += " UNION ALL " + ToSql(*next);
  }
  return out;
}

std::string ToSql(const ExplainStatement& stmt) {
  std::string out = "EXPLAIN (" + ToSql(*stmt.target) + ")";
  if (stmt.given_pseudocause) {
    out += " GIVEN PSEUDOCAUSE";
  } else if (stmt.given != nullptr) {
    out += " GIVEN (" + ToSql(*stmt.given) + ")";
  }
  out += " USING (" + ToSql(*stmt.search_space) + ")";
  if (!stmt.scorer.empty()) out += " SCORE BY '" + stmt.scorer + "'";
  if (stmt.top_k.has_value()) out += " TOP " + std::to_string(*stmt.top_k);
  if (stmt.between_start.has_value() && stmt.between_end.has_value()) {
    out += " BETWEEN " + std::to_string(*stmt.between_start) + " AND " +
           std::to_string(*stmt.between_end);
  }
  if (stmt.every_seconds.has_value()) {
    out += " EVERY " + FormatDuration(*stmt.every_seconds);
  }
  if (stmt.triggered) out += " TRIGGERED";
  if (!stmt.into_table.empty()) out += " INTO " + stmt.into_table;
  return out;
}

std::string ToSql(const DropMonitorStatement& stmt) {
  return "DROP MONITOR " + stmt.name;
}

std::string ToSql(const ShowMonitorsStatement&) { return "SHOW MONITORS"; }

std::string ToSql(const Statement& stmt) {
  switch (stmt.kind()) {
    case StatementKind::kExplain:
      return ToSql(static_cast<const ExplainStatement&>(stmt));
    case StatementKind::kDropMonitor:
      return ToSql(static_cast<const DropMonitorStatement&>(stmt));
    case StatementKind::kShowMonitors:
      return ToSql(static_cast<const ShowMonitorsStatement&>(stmt));
    case StatementKind::kSelect:
      break;
  }
  return ToSql(static_cast<const SelectStatement&>(stmt));
}

std::string FormatDuration(int64_t seconds) {
  constexpr int64_t kHour = kSecondsPerMinute * kMinutesPerHour;
  constexpr int64_t kDay = kSecondsPerMinute * kMinutesPerDay;
  if (seconds != 0 && seconds % kDay == 0) {
    return std::to_string(seconds / kDay) + "d";
  }
  if (seconds != 0 && seconds % kHour == 0) {
    return std::to_string(seconds / kHour) + "h";
  }
  if (seconds != 0 && seconds % kSecondsPerMinute == 0) {
    return std::to_string(seconds / kSecondsPerMinute) + "m";
  }
  return std::to_string(seconds) + "s";
}

ExprPtr MakeLiteral(table::Value v) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kLiteral;
  e->literal = std::move(v);
  return e;
}

ExprPtr MakeColumnRef(std::string qualifier, std::string column) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kColumnRef;
  e->qualifier = std::move(qualifier);
  e->column = std::move(column);
  return e;
}

ExprPtr MakeStar() {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kStar;
  return e;
}

ExprPtr MakeFunction(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kFunction;
  e->function_name = ToUpper(name);
  e->args = std::move(args);
  return e;
}

ExprPtr MakeBinary(BinaryOp op, ExprPtr l, ExprPtr r) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kBinary;
  e->binary_op = op;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

ExprPtr MakeUnary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kUnary;
  e->unary_op = op;
  e->left = std::move(operand);
  return e;
}

ExprPtr MakeSubscript(ExprPtr base, ExprPtr index) {
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kSubscript;
  e->left = std::move(base);
  e->right = std::move(index);
  return e;
}

}  // namespace explainit::sql
