// Filter: vectorised predicate evaluation over batches, compacting the
// survivors.
//
// The filter runs as a morsel window (see MorselWindow) at every
// parallelism level: each slot selects the passing rows of its morsel,
// emitting an all-pass morsel as a zero-copy slice and a partial one as
// an owned compaction, so output order is input order. A predicate
// containing LAG takes the window's LAG form, whose morsels are ranges
// of the whole input, so LAG reads its true neighbour.
//
// The predicate is bound once at Open against the child's schema; every
// slot evaluates that one program through its own SeriesMemo, kept
// across windows, so a series-level predicate such as
// `metric_name = 'x'` runs once per series and slot.
#pragma once

#include "sql/evaluator.h"
#include "sql/operators/operator.h"

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

 protected:
  Status OpenImpl() override;
  Result<table::ColumnBatch> NextImpl(bool* eof) override;

 private:
  Operator* input_;
  ExprPtr predicate_;
  BoundExpr bound_;  // predicate_ bound at Open
  const FunctionRegistry* functions_;
  const ExecContext* ctx_;
  MorselWindow window_;
  std::vector<SeriesMemo> memos_;  // one per window slot
};

}  // namespace explainit::sql
