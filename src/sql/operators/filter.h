// Filter: vectorised predicate evaluation over batches, compacting the
// survivors.
//
// With a parallel ExecContext, or a predicate containing LAG, the filter
// takes its sharded path: the input is materialised once (borrowing the
// child's backing table when it is already materialised, e.g. a catalog
// scan), contiguous row shards are evaluated across the pool (inline at
// parallelism 1), and per-shard survivors are emitted in shard order —
// all-pass shards as zero-copy views, partial shards as owned
// compactions — so output order matches the streaming path. Each shard's
// Evaluator spans the whole source, so LAG reads its true neighbour.
// The streaming path stays for everything else at parallelism 1: it is
// the one that stops pulling early under a LIMIT.
// When every top-level WHERE conjunct is a simple comparison
// (`col OP literal`, `tag['k'] OP literal`, `col [NOT] BETWEEN lit AND
// lit`), the predicate compiles to a vector of flat matchers evaluated
// straight off the column arrays — no per-row Evaluator dispatch, name
// resolution or Value copies. Keep/drop decisions are identical to the
// Evaluator's three-valued AND (a row passes iff every conjunct is
// true); any other shape falls back to generic evaluation.
#pragma once

#include "sql/evaluator.h"
#include "sql/operators/operator.h"
#include "sql/operators/simple_expr.h"

namespace explainit::sql {

class FilterOperator : public Operator {
 public:
  /// `predicate` is owned (the planner hands a clone or a rebuilt
  /// residual after pushdown). `ctx` may be null (serial).
  FilterOperator(std::unique_ptr<Operator> input, ExprPtr predicate,
                 const FunctionRegistry* functions,
                 const ExecContext* ctx = nullptr);

  const table::Schema& output_schema() const override {
    return input_->output_schema();
  }
  std::string name() const override { return "Filter"; }
  bool StableBatches() const override {
    return sharded_ || input_->StableBatches();
  }

 protected:
  Status OpenImpl() override;
  Result<table::ColumnBatch> NextImpl(bool* eof) override;

 private:
  /// One compiled conjunct: a bound accessor compared against a literal.
  struct Matcher {
    enum class Op { kEq, kNe, kLt, kLe, kGt, kGe, kBetween };
    BoundSimpleExpr lhs;
    Op op = Op::kEq;
    bool negated = false;  // BETWEEN only
    table::Value rhs;      // comparison / BETWEEN lo
    table::Value hi;       // BETWEEN hi
  };

  Result<table::ColumnBatch> ShardedNext(bool* eof);
  /// Tries to compile+bind the whole predicate; fills matchers_ and
  /// returns true only when every conjunct compiled.
  bool CompileMatchers();
  /// Evaluates the compiled conjuncts at one row (all-true semantics).
  static Result<bool> MatchRow(const std::vector<Matcher>& matchers,
                               const table::ColumnBatch& batch, size_t row);

  Operator* input_;
  ExprPtr predicate_;
  const FunctionRegistry* functions_;
  const ExecContext* ctx_;
  bool sharded_ = false;  // sharded morsel path (parallel ctx or LAG)

  // Sharded path state: the morsel source (borrowed child table or the
  // drained copy), per-shard survivor batches, and the emit cursor.
  table::Table drained_;
  std::vector<table::ColumnBatch> shard_output_;
  size_t emit_pos_ = 0;
  bool sharded_done_ = false;

  std::vector<Matcher> matchers_;
  bool use_matchers_ = false;
};

}  // namespace explainit::sql
