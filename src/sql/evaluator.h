// Row-at-a-time expression evaluation against a Table or a ColumnBatch.
// LAG windows see the whole input (rows are time-ordered by convention,
// matching the paper's "user could specify lagged features ... by using
// LAG function in SQL"); operators evaluate stages whose expressions
// contain LAG over their whole materialised input.
#pragma once

#include "common/result.h"
#include "sql/ast.h"
#include "sql/functions.h"
#include "table/column_batch.h"
#include "table/table.h"

namespace explainit::sql {

/// Evaluates expressions against rows of one input relation.
class Evaluator {
 public:
  Evaluator(const table::Table* input, const FunctionRegistry* functions)
      : schema_(&input->schema()), table_(input), functions_(functions) {}

  Evaluator(const table::ColumnBatch* batch, const FunctionRegistry* functions)
      : schema_(&batch->schema()), batch_(batch), functions_(functions) {}

  /// Schema-only evaluator: ResolveColumn works, Eval of column refs does
  /// not (used by the planner/join operators to classify expressions).
  Evaluator(const table::Schema* schema, const FunctionRegistry* functions)
      : schema_(schema), functions_(functions) {}

  /// Evaluates `expr` at `row`. Aggregate calls are an error here; the
  /// HashAggregate operator handles them at the GROUP BY level.
  Result<table::Value> Eval(const Expr& expr, size_t row) const;

  /// Resolves a column reference against the input schema:
  ///   - qualified a.b: field "a.b", else field "b" (single-relation case);
  ///   - unqualified b: field "b", else a unique field ending in ".b".
  Result<size_t> ResolveColumn(const Expr& expr) const;

  const table::Schema& schema() const { return *schema_; }
  size_t num_rows() const {
    return table_ != nullptr ? table_->num_rows()
           : batch_ != nullptr ? batch_->num_rows()
                               : 0;
  }

 private:
  const table::Value& Cell(size_t row, size_t col) const {
    return table_ != nullptr ? table_->At(row, col) : batch_->At(row, col);
  }

  const table::Schema* schema_;
  const table::Table* table_ = nullptr;
  const table::ColumnBatch* batch_ = nullptr;
  const FunctionRegistry* functions_;
};

/// True when the value of a LIKE pattern matches the text (SQL '%'/'_'
/// wildcards).
bool SqlLikeMatch(const std::string& pattern, const std::string& text);

}  // namespace explainit::sql
