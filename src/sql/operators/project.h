// Project: evaluates the select list over batches. `SELECT *` columns
// and items that name one input column pass through as borrowed
// (zero-copy) columns; computed items become owned columns. A computed
// item that is series-level over the batch (see SeriesMemo) runs once
// per referenced code and comes out as a dictionary column holding just
// the codes the batch references. When ORDER BY may reference
// unprojected columns, the operator also retains its input rows (1:1
// with the output) for the sort to consult.
//
// With a parallel ExecContext, or an item containing LAG, the projection
// takes its sharded path: the input is materialised once (borrowed from
// an already-materialised child when possible), row shards evaluate the
// computed columns across the pool (inline at parallelism 1), and
// per-shard batches are emitted in shard order with pass-through columns
// still borrowed from the source table. Each shard evaluates over the
// whole source, so LAG reads its true neighbour. The streaming path stays
// for everything else at parallelism 1: it is the one that stops pulling
// early under a LIMIT. Items are bound once at Open against the child's
// schema.
#pragma once

#include "sql/evaluator.h"
#include "sql/operators/operator.h"

namespace explainit::sql {

class ProjectOperator : public Operator {
 public:
  ProjectOperator(std::unique_ptr<Operator> input,
                  const SelectStatement* stmt,
                  const FunctionRegistry* functions, bool retain_input,
                  const ExecContext* ctx = nullptr);

  const table::Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "Project"; }
  bool StableBatches() const override { return sharded_; }

  /// The retained pre-projection rows (valid after execution, only when
  /// constructed with retain_input). Rows map 1:1 to output rows.
  const table::Table* retained_input() const override {
    return retain_input_ ? retained_ptr_ : nullptr;
  }

 protected:
  Status OpenImpl() override;
  Result<table::ColumnBatch> NextImpl(bool* eof) override;

 private:
  struct OutputColumn {
    std::optional<BoundExpr> item;  // unset = pass-through
    size_t pass_through = 0;        // input column index when unset
  };

  /// One shard's evaluation state: a memo per column (unused for
  /// pass-through columns), and the scratch that renumbers a series-level
  /// item's codes (input code -> output code, UINT32_MAX when unseen).
  struct ShardState {
    std::vector<SeriesMemo> memos;
    std::vector<uint32_t> remap;
  };

  /// Projects rows `range` of `in`: pass-through columns borrow `in`'s
  /// storage; items evaluate over all of `in`, so LAG may read a row
  /// before the range.
  Result<table::ColumnBatch> ProjectRows(const table::ColumnBatch& in,
                                         RowRange range,
                                         ShardState* state) const;
  ShardState MakeShardState() const;
  Result<table::ColumnBatch> ShardedNext(bool* eof);

  Operator* input_;
  const SelectStatement* stmt_;
  const FunctionRegistry* functions_;
  bool retain_input_;
  const ExecContext* ctx_;
  bool sharded_ = false;  // sharded morsel path (parallel ctx or LAG)

  table::Schema schema_;
  std::vector<OutputColumn> columns_;
  table::ColumnBatch current_input_;  // keeps pass-through storage alive
  ShardState stream_state_;  // the streaming path's state
  table::Table retained_;
  const table::Table* retained_ptr_ = &retained_;
  bool done_ = false;

  std::vector<table::ColumnBatch> shard_output_;
  size_t emit_pos_ = 0;
};

}  // namespace explainit::sql
