// Compiled accessors for the expression shapes the morsel-parallel
// kernels specialise on: a plain column reference, or a string-literal
// subscript of a map column (`tag['host']`). The generic Evaluator pays
// a name resolution, a dispatch and one or more Value copies per row per
// node; a bound SimpleExpr is one array index plus (for map keys) one
// map lookup, returning a borrowed cell pointer.
//
// Semantics exactly mirror Evaluator::Eval for the covered shapes —
// including "subscript on non-map value" errors and missing-key NULLs —
// so kernels built on these accessors cannot diverge from the generic
// Evaluator path. Anything that fails to compile or bind falls back to the
// generic path.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/evaluator.h"
#include "table/column_batch.h"

namespace explainit::sql {

/// A recognised simple expression (not yet bound to a relation).
struct SimpleExpr {
  enum class Kind { kColumn, kMapKey };
  Kind kind = Kind::kColumn;
  const Expr* column = nullptr;  // the column-reference node
  std::string map_key;           // Kind::kMapKey only
};

/// Recognises `col` and `col['key']`; nullopt for anything else.
std::optional<SimpleExpr> CompileSimpleExpr(const Expr& e);

/// A SimpleExpr bound to one relation's schema (column index resolved).
struct BoundSimpleExpr {
  SimpleExpr::Kind kind = SimpleExpr::Kind::kColumn;
  size_t col = 0;
  std::string map_key;

  /// Fetches the cell for `row` from a batch's raw column arrays.
  /// Missing map keys and NULL map cells yield the shared null cell.
  Status Get(const table::ColumnBatch& batch, size_t row,
             const table::Value** out) const {
    const table::Value& cell = batch.column(col)[row];
    if (kind == SimpleExpr::Kind::kColumn) {
      *out = &cell;
      return Status::OK();
    }
    const table::ValueMap* map = cell.AsMap();
    if (map == nullptr) {
      if (cell.is_null()) {
        *out = &NullCell();
        return Status::OK();
      }
      return Status::InvalidArgument("subscript on non-map value");
    }
    auto it = map->find(map_key);
    *out = it == map->end() ? &NullCell() : &it->second;
    return Status::OK();
  }

  static const table::Value& NullCell() {
    static const table::Value kNull;
    return kNull;
  }
};

/// Binds against `schema_ev` (a schema-only Evaluator); fails when the
/// column does not resolve — callers fall back to the generic path so
/// the Evaluator reports the error with its usual message.
Result<BoundSimpleExpr> BindSimpleExpr(const SimpleExpr& simple,
                                       const Evaluator& schema_ev);

}  // namespace explainit::sql
