// The seed's row-at-a-time SQL interpreter, preserved verbatim (modulo
// renames) for benchmarking. The production path is the planner +
// vectorised operator pipeline in src/sql/; THIS code is the "before" of
// bench/sql_pipeline.cc's old-vs-new comparison: it re-materialises a
// full table::Table after every stage, scans the store eagerly (no
// pushdown hints), and evaluates everything row by row.
//
// Do not extend this interpreter; it exists so the perf trajectory keeps
// an honest baseline.
#pragma once

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string_view>
#include <unordered_map>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/catalog.h"
#include "sql/evaluator.h"
#include "sql/functions.h"
#include "sql/parser.h"
#include "table/table.h"

namespace explainit::bench {

using sql::CaseBranch;
using sql::Evaluator;
using sql::Expr;
using sql::ExprKind;
using sql::ExprPtr;
using sql::JoinClause;
using sql::JoinType;
using sql::OrderByItem;
using sql::SelectItem;
using sql::SelectStatement;
using sql::TableRef;
using table::DataType;
using table::Field;
using table::Schema;
using table::Table;
using table::Value;

inline Table SeedQualifySchema(Table t, const std::string& qualifier) {
  if (qualifier.empty()) return t;
  Schema schema;
  for (const Field& f : t.schema().fields()) {
    if (f.name.find('.') != std::string::npos) {
      schema.AddField(f);
    } else {
      schema.AddField(Field{qualifier + "." + f.name, f.type});
    }
  }
  // Rebuild with the renamed schema but the same columns.
  Table out(schema);
  for (size_t r = 0; r < t.num_rows(); ++r) out.AppendRow(t.Row(r));
  return out;
}

namespace seed_detail {

// Keys encode losslessly, so two rows share a key exactly when `=` holds
// between their key values; *has_null reports a key that `=` never
// matches (NULL or NaN).
inline std::string EncodeKey(const std::vector<Value>& values,
                             bool* has_null) {
  std::string key;
  for (const Value& v : values) {
    if (!sql::AppendKey(v, &key) && has_null != nullptr) *has_null = true;
  }
  return key;
}

inline void CollectConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e->kind == ExprKind::kBinary &&
      e->binary_op == sql::BinaryOp::kAnd) {
    CollectConjuncts(e->left.get(), out);
    CollectConjuncts(e->right.get(), out);
    return;
  }
  out->push_back(e);
}

inline bool ResolvesAgainst(const Expr& e, const Evaluator& ev) {
  switch (e.kind) {
    case ExprKind::kColumnRef:
      return ev.ResolveColumn(e).ok();
    case ExprKind::kLiteral:
    case ExprKind::kStar:
      return true;
    default: {
      auto check = [&](const ExprPtr& c) {
        return c == nullptr || ResolvesAgainst(*c, ev);
      };
      if (!check(e.left) || !check(e.right) || !check(e.between_lo) ||
          !check(e.between_hi) || !check(e.case_else)) {
        return false;
      }
      for (const ExprPtr& a : e.args) {
        if (!check(a)) return false;
      }
      for (const ExprPtr& a : e.list) {
        if (!check(a)) return false;
      }
      for (const CaseBranch& b : e.case_branches) {
        if (!check(b.condition) || !check(b.result)) return false;
      }
      return true;
    }
  }
}

struct EquiKeys {
  std::vector<const Expr*> left_exprs;
  std::vector<const Expr*> right_exprs;
  std::vector<const Expr*> residual;
};

inline EquiKeys SplitJoinCondition(const Expr* condition,
                                   const Evaluator& left_ev,
                                   const Evaluator& right_ev) {
  EquiKeys keys;
  if (condition == nullptr) return keys;
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(condition, &conjuncts);
  for (const Expr* c : conjuncts) {
    if (c->kind == ExprKind::kBinary &&
        c->binary_op == sql::BinaryOp::kEq) {
      const Expr* l = c->left.get();
      const Expr* r = c->right.get();
      if (ResolvesAgainst(*l, left_ev) && ResolvesAgainst(*r, right_ev)) {
        keys.left_exprs.push_back(l);
        keys.right_exprs.push_back(r);
        continue;
      }
      if (ResolvesAgainst(*r, left_ev) && ResolvesAgainst(*l, right_ev)) {
        keys.left_exprs.push_back(r);
        keys.right_exprs.push_back(l);
        continue;
      }
    }
    keys.residual.push_back(c);
  }
  return keys;
}

inline std::vector<Value> NullRow(size_t n) {
  return std::vector<Value>(n, Value::Null());
}

inline Result<Value> ComputeAggregate(const Expr& agg, const Evaluator& ev,
                                      const std::vector<size_t>& rows) {
  const std::string& name = agg.function_name;
  if (name == "COUNT") {
    if (agg.args.size() != 1) {
      return Status::InvalidArgument("COUNT expects 1 argument");
    }
    if (agg.args[0]->kind == ExprKind::kStar) {
      return Value::Int(static_cast<int64_t>(rows.size()));
    }
    int64_t n = 0;
    for (size_t r : rows) {
      EXPLAINIT_ASSIGN_OR_RETURN(Value v, ev.Eval(*agg.args[0], r));
      if (!v.is_null()) ++n;
    }
    return Value::Int(n);
  }
  if (agg.args.empty()) {
    return Status::InvalidArgument(name + " expects an argument");
  }
  std::vector<double> values;
  values.reserve(rows.size());
  for (size_t r : rows) {
    EXPLAINIT_ASSIGN_OR_RETURN(Value v, ev.Eval(*agg.args[0], r));
    if (!v.is_null()) values.push_back(v.AsDouble());
  }
  if (values.empty()) return Value::Null();
  if (name == "SUM" || name == "AVG") {
    double acc = 0.0;
    for (double v : values) acc += v;
    if (name == "SUM") return Value::Double(acc);
    return Value::Double(acc / static_cast<double>(values.size()));
  }
  if (name == "MIN") {
    return Value::Double(*std::min_element(values.begin(), values.end()));
  }
  if (name == "MAX") {
    return Value::Double(*std::max_element(values.begin(), values.end()));
  }
  if (name == "STDDEV") {
    double mean = 0.0;
    for (double v : values) mean += v;
    mean /= static_cast<double>(values.size());
    double var = 0.0;
    for (double v : values) var += (v - mean) * (v - mean);
    var /= static_cast<double>(values.size());
    return Value::Double(std::sqrt(var));
  }
  if (name == "PERCENTILE") {
    if (agg.args.size() != 2) {
      return Status::InvalidArgument("PERCENTILE expects (expr, p)");
    }
    EXPLAINIT_ASSIGN_OR_RETURN(Value pv, ev.Eval(*agg.args[1], rows[0]));
    double p = pv.AsDouble();
    if (p > 1.0) p /= 100.0;
    p = std::clamp(p, 0.0, 1.0);
    std::sort(values.begin(), values.end());
    const double idx = p * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(idx);
    const size_t hi = std::min(values.size() - 1, lo + 1);
    const double frac = idx - static_cast<double>(lo);
    return Value::Double(values[lo] * (1.0 - frac) + values[hi] * frac);
  }
  return Status::Unimplemented("aggregate not implemented: " + name);
}

inline Result<Value> EvalInGroup(const Expr& e, const Evaluator& ev,
                                 const std::vector<size_t>& rows) {
  if (e.kind == ExprKind::kFunction &&
      sql::IsAggregateFunction(e.function_name)) {
    return ComputeAggregate(e, ev, rows);
  }
  if (!e.ContainsAggregate()) {
    return ev.Eval(e, rows[0]);
  }
  Expr copy;
  copy.kind = e.kind;
  copy.binary_op = e.binary_op;
  copy.unary_op = e.unary_op;
  copy.negated = e.negated;
  copy.function_name = e.function_name;
  copy.qualifier = e.qualifier;
  copy.column = e.column;
  copy.literal = e.literal;
  auto lift = [&](const ExprPtr& child) -> Result<ExprPtr> {
    if (child == nullptr) return ExprPtr{};
    EXPLAINIT_ASSIGN_OR_RETURN(Value v, EvalInGroup(*child, ev, rows));
    return sql::MakeLiteral(std::move(v));
  };
  EXPLAINIT_ASSIGN_OR_RETURN(copy.left, lift(e.left));
  EXPLAINIT_ASSIGN_OR_RETURN(copy.right, lift(e.right));
  EXPLAINIT_ASSIGN_OR_RETURN(copy.between_lo, lift(e.between_lo));
  EXPLAINIT_ASSIGN_OR_RETURN(copy.between_hi, lift(e.between_hi));
  EXPLAINIT_ASSIGN_OR_RETURN(copy.case_else, lift(e.case_else));
  for (const ExprPtr& a : e.args) {
    EXPLAINIT_ASSIGN_OR_RETURN(ExprPtr la, lift(a));
    copy.args.push_back(std::move(la));
  }
  for (const ExprPtr& a : e.list) {
    EXPLAINIT_ASSIGN_OR_RETURN(ExprPtr la, lift(a));
    copy.list.push_back(std::move(la));
  }
  for (const CaseBranch& b : e.case_branches) {
    CaseBranch nb;
    EXPLAINIT_ASSIGN_OR_RETURN(nb.condition, lift(b.condition));
    EXPLAINIT_ASSIGN_OR_RETURN(nb.result, lift(b.result));
    copy.case_branches.push_back(std::move(nb));
  }
  return ev.Eval(copy, rows[0]);
}

inline std::string ItemName(const SelectItem& item) {
  if (!item.alias.empty()) return item.alias;
  return item.expr->ToString();
}

}  // namespace seed_detail

/// The seed interpreter (old sql::Executor), for baseline timings only.
class SeedExecutor {
 public:
  SeedExecutor(const sql::Catalog* catalog,
               const sql::FunctionRegistry* functions)
      : catalog_(catalog), functions_(functions) {}

  Result<Table> Query(std::string_view q) {
    EXPLAINIT_ASSIGN_OR_RETURN(auto stmt, sql::Parse(q));
    return Execute(*stmt);
  }

  Result<Table> Execute(const SelectStatement& stmt) {
    EXPLAINIT_ASSIGN_OR_RETURN(Table out, ExecuteSingle(stmt));
    for (const auto& next : stmt.union_all) {
      EXPLAINIT_ASSIGN_OR_RETURN(Table more, ExecuteSingle(*next));
      EXPLAINIT_RETURN_IF_ERROR(out.UnionAll(more));
    }
    return out;
  }

 private:
  Result<Table> ResolveFrom(const SelectStatement& stmt) {
    if (!stmt.from.has_value()) {
      Table t{Schema{}};
      t.AppendRow({});
      return t;
    }
    const TableRef& ref = *stmt.from;
    Table base;
    if (ref.subquery != nullptr) {
      EXPLAINIT_ASSIGN_OR_RETURN(base, Execute(*ref.subquery));
    } else {
      EXPLAINIT_ASSIGN_OR_RETURN(base, catalog_->GetTable(ref.table_name));
    }
    if (stmt.joins.empty()) return base;
    std::string base_name = ref.EffectiveName();
    if (base_name.empty()) base_name = "_t0";
    Table acc = SeedQualifySchema(std::move(base), base_name);
    for (const JoinClause& join : stmt.joins) {
      std::string right_name = join.right.EffectiveName();
      if (right_name.empty()) {
        right_name =
            "_t" + std::to_string(&join - stmt.joins.data() + 1);
      }
      EXPLAINIT_ASSIGN_OR_RETURN(
          acc, ExecuteJoin(std::move(acc), join, right_name));
    }
    return acc;
  }

  Result<Table> ExecuteJoin(Table left, const JoinClause& join,
                            const std::string& right_name) {
    using seed_detail::EncodeKey;
    using seed_detail::NullRow;
    Table right;
    if (join.right.subquery != nullptr) {
      EXPLAINIT_ASSIGN_OR_RETURN(right, Execute(*join.right.subquery));
    } else {
      EXPLAINIT_ASSIGN_OR_RETURN(right,
                                 catalog_->GetTable(join.right.table_name));
    }
    right = SeedQualifySchema(std::move(right), right_name);

    Schema schema;
    for (const Field& f : left.schema().fields()) schema.AddField(f);
    for (const Field& f : right.schema().fields()) schema.AddField(f);
    Table out(schema);

    Evaluator left_ev(&left, functions_);
    Evaluator right_ev(&right, functions_);
    const size_t ln = left.num_rows(), rn = right.num_rows();

    if (join.type == JoinType::kCross) {
      for (size_t i = 0; i < ln; ++i) {
        std::vector<Value> lrow = left.Row(i);
        for (size_t j = 0; j < rn; ++j) {
          std::vector<Value> row = lrow;
          std::vector<Value> rrow = right.Row(j);
          row.insert(row.end(), rrow.begin(), rrow.end());
          out.AppendRow(std::move(row));
        }
      }
      return out;
    }

    seed_detail::EquiKeys keys =
        seed_detail::SplitJoinCondition(join.condition.get(), left_ev,
                                        right_ev);
    Evaluator out_ev(&out, functions_);

    auto residual_ok = [&](size_t out_row) -> Result<bool> {
      for (const Expr* r : keys.residual) {
        EXPLAINIT_ASSIGN_OR_RETURN(Value v, out_ev.Eval(*r, out_row));
        if (v.is_null() || !v.AsBool()) return false;
      }
      return true;
    };

    if (!keys.left_exprs.empty()) {
      std::unordered_multimap<std::string, size_t> build;
      build.reserve(rn * 2);
      std::vector<bool> right_matched(rn, false);
      for (size_t j = 0; j < rn; ++j) {
        std::vector<Value> kv;
        kv.reserve(keys.right_exprs.size());
        bool has_null = false;
        for (const Expr* e : keys.right_exprs) {
          EXPLAINIT_ASSIGN_OR_RETURN(Value v, right_ev.Eval(*e, j));
          kv.push_back(std::move(v));
        }
        const std::string key = EncodeKey(kv, &has_null);
        if (!has_null) build.emplace(key, j);
      }
      for (size_t i = 0; i < ln; ++i) {
        std::vector<Value> kv;
        kv.reserve(keys.left_exprs.size());
        bool has_null = false;
        for (const Expr* e : keys.left_exprs) {
          EXPLAINIT_ASSIGN_OR_RETURN(Value v, left_ev.Eval(*e, i));
          kv.push_back(std::move(v));
        }
        const std::string key = EncodeKey(kv, &has_null);
        bool matched = false;
        if (!has_null) {
          auto [lo, hi] = build.equal_range(key);
          for (auto it = lo; it != hi; ++it) {
            const size_t j = it->second;
            std::vector<Value> row = left.Row(i);
            std::vector<Value> rrow = right.Row(j);
            row.insert(row.end(), rrow.begin(), rrow.end());
            out.AppendRow(std::move(row));
            EXPLAINIT_ASSIGN_OR_RETURN(bool ok,
                                       residual_ok(out.num_rows() - 1));
            if (!ok) {
              out.Truncate(out.num_rows() - 1);
              continue;
            }
            matched = true;
            right_matched[j] = true;
          }
        }
        if (!matched && (join.type == JoinType::kLeft ||
                         join.type == JoinType::kFullOuter)) {
          std::vector<Value> row = left.Row(i);
          std::vector<Value> pad = NullRow(right.num_columns());
          row.insert(row.end(), pad.begin(), pad.end());
          out.AppendRow(std::move(row));
        }
      }
      if (join.type == JoinType::kFullOuter) {
        for (size_t j = 0; j < rn; ++j) {
          if (right_matched[j]) continue;
          std::vector<Value> row = NullRow(left.num_columns());
          std::vector<Value> rrow = right.Row(j);
          row.insert(row.end(), rrow.begin(), rrow.end());
          out.AppendRow(std::move(row));
        }
      }
      return out;
    }

    std::vector<bool> right_matched(rn, false);
    for (size_t i = 0; i < ln; ++i) {
      bool matched = false;
      for (size_t j = 0; j < rn; ++j) {
        std::vector<Value> row = left.Row(i);
        std::vector<Value> rrow = right.Row(j);
        row.insert(row.end(), rrow.begin(), rrow.end());
        out.AppendRow(std::move(row));
        bool keep = true;
        if (join.condition != nullptr) {
          EXPLAINIT_ASSIGN_OR_RETURN(
              Value v, out_ev.Eval(*join.condition, out.num_rows() - 1));
          keep = !v.is_null() && v.AsBool();
        }
        if (!keep) {
          out.Truncate(out.num_rows() - 1);
        } else {
          matched = true;
          right_matched[j] = true;
        }
      }
      if (!matched && (join.type == JoinType::kLeft ||
                       join.type == JoinType::kFullOuter)) {
        std::vector<Value> row = left.Row(i);
        std::vector<Value> pad = NullRow(right.num_columns());
        row.insert(row.end(), pad.begin(), pad.end());
        out.AppendRow(std::move(row));
      }
    }
    if (join.type == JoinType::kFullOuter) {
      for (size_t j = 0; j < rn; ++j) {
        if (right_matched[j]) continue;
        std::vector<Value> row = NullRow(left.num_columns());
        std::vector<Value> rrow = right.Row(j);
        row.insert(row.end(), rrow.begin(), rrow.end());
        out.AppendRow(std::move(row));
      }
    }
    return out;
  }

  Result<Table> Aggregate(const Table& input, const SelectStatement& stmt) {
    using seed_detail::EncodeKey;
    using seed_detail::EvalInGroup;
    using seed_detail::ItemName;
    Evaluator ev(&input, functions_);
    std::unordered_map<std::string, std::vector<size_t>> groups;
    std::vector<std::string> group_order;
    if (stmt.group_by.empty()) {
      std::vector<size_t> all(input.num_rows());
      std::iota(all.begin(), all.end(), size_t{0});
      groups[""] = std::move(all);
      group_order.push_back("");
    } else {
      for (size_t r = 0; r < input.num_rows(); ++r) {
        std::vector<Value> key;
        key.reserve(stmt.group_by.size());
        for (const ExprPtr& g : stmt.group_by) {
          EXPLAINIT_ASSIGN_OR_RETURN(Value v, ev.Eval(*g, r));
          key.push_back(std::move(v));
        }
        const std::string encoded = EncodeKey(key, nullptr);
        auto [it, inserted] = groups.try_emplace(encoded);
        if (inserted) group_order.push_back(encoded);
        it->second.push_back(r);
      }
    }
    Schema schema;
    for (const SelectItem& item : stmt.items) {
      if (item.is_star) {
        return Status::InvalidArgument(
            "SELECT * with GROUP BY is not allowed");
      }
      schema.AddField(Field{ItemName(item), DataType::kNull});
    }
    Table out(schema);
    for (const std::string& key : group_order) {
      const std::vector<size_t>& rows = groups[key];
      if (rows.empty() && !stmt.group_by.empty()) continue;
      if (stmt.having != nullptr && !rows.empty()) {
        EXPLAINIT_ASSIGN_OR_RETURN(Value keep,
                                   EvalInGroup(*stmt.having, ev, rows));
        if (keep.is_null() || !keep.AsBool()) continue;
      }
      std::vector<Value> row;
      row.reserve(stmt.items.size());
      if (rows.empty()) {
        for (const SelectItem& item : stmt.items) {
          if (item.expr->kind == ExprKind::kFunction &&
              item.expr->function_name == "COUNT") {
            row.push_back(Value::Int(0));
          } else {
            row.push_back(Value::Null());
          }
        }
      } else {
        for (const SelectItem& item : stmt.items) {
          EXPLAINIT_ASSIGN_OR_RETURN(Value v,
                                     EvalInGroup(*item.expr, ev, rows));
          row.push_back(std::move(v));
        }
      }
      out.AppendRow(std::move(row));
    }
    return out;
  }

  Result<Table> Project(const Table& input, const SelectStatement& stmt) {
    Evaluator ev(&input, functions_);
    Schema schema;
    std::vector<const Expr*> exprs;
    for (const SelectItem& item : stmt.items) {
      if (item.is_star) {
        for (const Field& f : input.schema().fields()) {
          schema.AddField(f);
          exprs.push_back(nullptr);
        }
        continue;
      }
      schema.AddField(Field{seed_detail::ItemName(item), DataType::kNull});
      exprs.push_back(item.expr.get());
    }
    Table out(schema);
    for (size_t r = 0; r < input.num_rows(); ++r) {
      std::vector<Value> row;
      row.reserve(exprs.size());
      size_t star_col = 0;
      for (const Expr* e : exprs) {
        if (e == nullptr) {
          row.push_back(input.At(r, star_col++));
          continue;
        }
        EXPLAINIT_ASSIGN_OR_RETURN(Value v, ev.Eval(*e, r));
        row.push_back(std::move(v));
      }
      out.AppendRow(std::move(row));
    }
    return out;
  }

  Result<Table> OrderAndLimit(Table output, const Table& preprojection,
                              const SelectStatement& stmt, bool aggregated) {
    if (!stmt.order_by.empty()) {
      const size_t n = output.num_rows();
      std::vector<std::vector<Value>> sort_keys(n);
      Evaluator out_ev(&output, functions_);
      Evaluator pre_ev(&preprojection, functions_);
      for (const OrderByItem& item : stmt.order_by) {
        bool resolved_on_output = false;
        if (item.expr->kind == ExprKind::kColumnRef) {
          if (out_ev.ResolveColumn(*item.expr).ok()) {
            resolved_on_output = true;
          }
        }
        // A global aggregate over an empty input emits one row that its
        // empty retained input has no row for: that row keeps a NULL key.
        auto eval_pre = [&](size_t r) -> Result<Value> {
          if (r >= preprojection.num_rows()) return Value();
          return pre_ev.Eval(*item.expr, r);
        };
        for (size_t r = 0; r < n; ++r) {
          Result<Value> v = resolved_on_output ? out_ev.Eval(*item.expr, r)
                            : aggregated       ? out_ev.Eval(*item.expr, r)
                                               : eval_pre(r);
          if (!v.ok()) {
            v = resolved_on_output || aggregated ? eval_pre(r)
                                                 : out_ev.Eval(*item.expr, r);
          }
          if (!v.ok()) return v.status();
          sort_keys[r].push_back(std::move(v).value());
        }
      }
      std::vector<size_t> order(n);
      std::iota(order.begin(), order.end(), size_t{0});
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        for (size_t k = 0; k < stmt.order_by.size(); ++k) {
          const int cmp = sort_keys[a][k].Compare(sort_keys[b][k]);
          if (cmp != 0) {
            return stmt.order_by[k].ascending ? cmp < 0 : cmp > 0;
          }
        }
        return false;
      });
      Table sorted(output.schema());
      for (size_t r : order) sorted.AppendRow(output.Row(r));
      output = std::move(sorted);
    }
    if (stmt.limit.has_value() && *stmt.limit >= 0) {
      output.Truncate(static_cast<size_t>(*stmt.limit));
    }
    return output;
  }

  Result<Table> ExecuteSingle(const SelectStatement& stmt) {
    EXPLAINIT_ASSIGN_OR_RETURN(Table source, ResolveFrom(stmt));
    Table filtered = std::move(source);
    if (stmt.where != nullptr) {
      Evaluator ev(&filtered, functions_);
      Table kept(filtered.schema());
      for (size_t r = 0; r < filtered.num_rows(); ++r) {
        EXPLAINIT_ASSIGN_OR_RETURN(Value v, ev.Eval(*stmt.where, r));
        if (!v.is_null() && v.AsBool()) kept.AppendRow(filtered.Row(r));
      }
      filtered = std::move(kept);
    }
    const bool aggregated =
        !stmt.group_by.empty() ||
        std::any_of(stmt.items.begin(), stmt.items.end(),
                    [](const SelectItem& i) {
                      return i.expr != nullptr &&
                             i.expr->ContainsAggregate();
                    });
    Table projected;
    if (aggregated) {
      EXPLAINIT_ASSIGN_OR_RETURN(projected, Aggregate(filtered, stmt));
    } else {
      EXPLAINIT_ASSIGN_OR_RETURN(projected, Project(filtered, stmt));
    }
    return OrderAndLimit(std::move(projected), filtered, stmt, aggregated);
  }

  const sql::Catalog* catalog_;
  const sql::FunctionRegistry* functions_;
};

}  // namespace explainit::bench
