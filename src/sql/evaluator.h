// Expression evaluation: one implementation of every expression kind's
// semantics, run as a program bound once to an input schema.
//
// Binding resolves column references to indices and function names to
// ScalarFn pointers. A name that does not resolve (unknown column or
// function, misplaced aggregate, bad LAG arity) binds to a leaf that
// returns its Status only when a row evaluates it, so errors stay lazy
// and row-dependent: an empty input, or a conjunct that is false first,
// never reports them. Column, literal and `col['key']` reads return
// borrowed cells, and comparisons return shared boolean constants, so a
// predicate or a group key costs no Value copies.
//
// LAG reads the row `offset` before the current one in the evaluated
// input (rows are time-ordered by convention, matching the paper's "user
// could specify lagged features ... by using LAG function in SQL"), so
// operators evaluate stages whose expressions contain LAG over their
// whole materialised input.
//
// Operators evaluate programs through a SeriesMemo, which runs a
// series-level program (every column it reads is a dictionary column and
// all share one code array, e.g. a scan's metric_name and tag) once per
// referenced code instead of once per row. Scalar functions are pure, so
// a row's value depends only on its code.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "sql/ast.h"
#include "sql/functions.h"
#include "table/column_batch.h"
#include "table/table.h"

namespace explainit::sql {

/// The current group's aggregate values, read by the slot leaves of a
/// program bound in group context: slot i's finalised value, or the
/// deferred error of its argument.
using SlotReader = std::function<Result<table::Value>(size_t slot)>;

namespace internal {
struct BoundNode;
struct Frame;
struct MemoTable;
}  // namespace internal

/// An expression bound to one input schema. Immutable after binding, so
/// one program is shared read-only by every shard that evaluates it.
class BoundExpr {
 public:
  BoundExpr();
  ~BoundExpr();
  BoundExpr(BoundExpr&&) noexcept;
  BoundExpr& operator=(BoundExpr&&) noexcept;

  /// Binds `expr` against `schema`. With `slots` (group context), each
  /// listed aggregate call becomes a slot leaf, and a node above one
  /// evaluates all its children first, in slot order, then applies its
  /// own operation to their values.
  BoundExpr(const Expr& expr, const table::Schema& schema,
            const FunctionRegistry* functions,
            const std::unordered_map<const Expr*, size_t>* slots = nullptr);

  /// The value at `row` of `in`; `slots` serves group-context programs.
  Result<table::Value> Eval(const table::ColumnBatch& in, size_t row,
                            const SlotReader* slots = nullptr) const;

  /// The input columns the program reads, ascending, each once.
  const std::vector<size_t>& columns() const { return columns_; }
  /// True when the program's value at a row depends only on that row's
  /// cells in columns(): it reads at least one column and contains no
  /// LAG and no aggregate slot.
  bool row_local() const { return row_local_; }

 private:
  friend class SeriesMemo;
  /// A sub-program that may run series-level: a row-local node that
  /// reads a column (a bare column read only as the whole program), and
  /// the columns it reads. The node's `memo` field indexes this list.
  struct Candidate {
    const internal::BoundNode* node;
    std::vector<size_t> columns;
  };

  std::unique_ptr<const internal::BoundNode> root_;
  std::vector<Candidate> candidates_;
  std::vector<size_t> columns_;
  bool row_local_ = false;
};

/// One shard's evaluation of one bound program over successive batches.
///
/// A sub-program is series-level over a batch when every column it reads
/// is a dictionary column and all of them share one code array (a
/// scan's metric_name and tag), so its value at a row is a function of
/// the row's code. Prepare finds the largest such sub-programs (the
/// whole program when it qualifies); evaluation then runs each of them
/// once per referenced code, at the code's first evaluation in row
/// order, and every later evaluation for that code reads the entry. The
/// rest of the program runs per row as BoundExpr does, so evaluation
/// order, short-circuits and LAG's row offsets are unchanged: an error
/// (or a lazy unbound-name leaf) is memoised like a value and surfaces
/// at exactly the row where the row path raises it, and a code that no
/// evaluation reaches is never evaluated. Entries survive across batches
/// while a sub-program's columns keep the same dictionary objects (the
/// memo holds them alive).
///
/// Not thread-safe: every shard keeps its own.
class SeriesMemo {
 public:
  SeriesMemo();
  explicit SeriesMemo(const BoundExpr* expr);
  SeriesMemo(const SeriesMemo&);
  SeriesMemo(SeriesMemo&&) noexcept;
  SeriesMemo& operator=(const SeriesMemo&);
  SeriesMemo& operator=(SeriesMemo&&) noexcept;
  ~SeriesMemo();

  /// Points the memo at `in`, which the evaluation calls below must
  /// pass until the next Prepare. True when the whole program is
  /// series-level over `in` (active()).
  bool Prepare(const table::ColumnBatch& in);
  bool active() const { return active_; }

  /// Borrowing evaluation: the value's address (a cell of `in`, a
  /// constant of the program, `*scratch`, or an entry of the memo or of
  /// a dictionary it holds — those stay valid across later calls), or
  /// null with `*error` set. `slots` serve group-context programs.
  const table::Value* Ref(const table::ColumnBatch& in, size_t row,
                          table::Value* scratch, Status* error,
                          const SlotReader* slots = nullptr);
  /// As BoundExpr::Eval.
  Result<table::Value> Eval(const table::ColumnBatch& in, size_t row,
                            const SlotReader* slots = nullptr);
  /// WHERE semantics: true when the value at `row` is non-null and true.
  Result<bool> Test(const table::ColumnBatch& in, size_t row);
  /// Appends the value's AppendKey encoding to `*key`. An active memo
  /// caches each code's bytes, so a key reads exactly as the row path's.
  Result<bool> AppendKey(const table::ColumnBatch& in, size_t row,
                         std::string* key);

  // The whole-program entries of an active memo.
  /// Code of `row` in the prepared batch.
  uint32_t code(size_t row) const;
  /// Number of codes the entries cover.
  size_t num_codes() const;
  /// Code `c`'s value, or null when no evaluation reached it (or it
  /// failed).
  const table::Value* entry(uint32_t c) const;

 private:
  friend struct internal::Frame;

  const BoundExpr* expr_ = nullptr;
  bool active_ = false;
  std::vector<internal::MemoTable> tables_;  // per candidate
};

/// True when `expr` is series-level over `in` (see SeriesMemo).
bool SeriesLevel(const BoundExpr& expr, const table::ColumnBatch& in);

/// One SeriesMemo per program of `exprs`.
std::vector<SeriesMemo> MakeMemos(const std::vector<BoundExpr>& exprs);

/// Resolves a column reference against a schema:
///   - qualified a.b: field "a.b", else field "b" (single-relation case);
///   - unqualified b: field "b", else a unique field ending in ".b".
Result<size_t> ResolveColumn(const Expr& expr, const table::Schema& schema);

/// Row-at-a-time evaluation of unbound expressions against a Table or a
/// ColumnBatch: binds on every call, then evaluates. The seed interpreter
/// (bench/seed_executor.h) is its caller; operators bind once instead.
class Evaluator {
 public:
  Evaluator(const table::Table* input, const FunctionRegistry* functions)
      : schema_(&input->schema()), table_(input), functions_(functions) {}

  Evaluator(const table::ColumnBatch* batch, const FunctionRegistry* functions)
      : schema_(&batch->schema()), batch_(batch), functions_(functions) {}

  /// Schema-only evaluator: ResolveColumn works; it has no rows to Eval.
  Evaluator(const table::Schema* schema, const FunctionRegistry* functions)
      : schema_(schema), functions_(functions) {}

  /// Evaluates `expr` at `row` of the input as it is now (a Table input
  /// may grow between calls); a row past the input is OutOfRange.
  /// Aggregate calls are an error here; the aggregate operators handle
  /// them at the GROUP BY level.
  Result<table::Value> Eval(const Expr& expr, size_t row) const;

  Result<size_t> ResolveColumn(const Expr& expr) const {
    return sql::ResolveColumn(expr, *schema_);
  }

  const table::Schema& schema() const { return *schema_; }
  size_t num_rows() const {
    return table_ != nullptr ? table_->num_rows()
           : batch_ != nullptr ? batch_->num_rows()
                               : 0;
  }

 private:
  const table::Schema* schema_;
  const table::Table* table_ = nullptr;
  const table::ColumnBatch* batch_ = nullptr;
  const FunctionRegistry* functions_;
};

/// Appends `v`'s group/join key encoding to `*key`. The encoding is
/// type-tagged and lossless: two values encode alike exactly when `=`
/// holds between them (numerics by value, so 1 = 1.0; strings and map
/// entries length-prefixed), except that NULLs (and NaNs) encode alike
/// so GROUP BY puts them in one group. Returns false when `v` holds a
/// NULL or NaN, which `=` never matches (join keys skip such rows).
bool AppendKey(const table::Value& v, std::string* key);

/// True when the value of a LIKE pattern matches the text (SQL '%'/'_'
/// wildcards).
bool SqlLikeMatch(std::string_view pattern, std::string_view text);

}  // namespace explainit::sql
