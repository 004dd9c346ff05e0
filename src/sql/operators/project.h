// Project: evaluates the select list over batches. `SELECT *` columns
// and items that name one input column pass through as borrowed
// (zero-copy) columns; computed items become owned columns. A computed
// item that is series-level over the batch (see SeriesMemo) runs once
// per referenced code and comes out as a dictionary column holding just
// the codes the batch references. When ORDER BY may reference
// unprojected columns, the operator also retains its input rows (1:1
// with the output) for the sort to consult.
//
// The projection runs as a morsel window (see MorselWindow) at every
// parallelism level: each slot projects its morsel, and the output batch
// shares the input batch's owned columns, so pass-through columns stay
// borrowed and the batch stays valid on its own. An item containing LAG
// takes the window's LAG form, whose morsels are ranges of the whole
// input, so LAG reads its true neighbour. Items are bound once at Open
// against the child's schema.
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

  /// The retained pre-projection rows (valid after execution, only when
  /// constructed with retain_input). Rows map 1:1 to output rows.
  const table::Table* retained_input() const override {
    return retain_input_ ? &window_.rows() : nullptr;
  }

 protected:
  Status OpenImpl() override;
  Result<table::ColumnBatch> NextImpl(bool* eof) override;

 private:
  struct OutputColumn {
    std::optional<BoundExpr> item;  // unset = pass-through
    size_t pass_through = 0;        // input column index when unset
  };

  /// One window slot's evaluation state: a memo per column (unused for
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

  Operator* input_;
  const SelectStatement* stmt_;
  const FunctionRegistry* functions_;
  bool retain_input_;
  const ExecContext* ctx_;

  table::Schema schema_;
  std::vector<OutputColumn> columns_;
  MorselWindow window_;  // keeps rows() when retain_input_
  std::vector<ShardState> states_;  // one per window slot
};

}  // namespace explainit::sql
