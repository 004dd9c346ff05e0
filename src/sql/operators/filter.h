// Filter: vectorised predicate evaluation over batches, compacting the
// survivors.
//
// With a parallel ExecContext, or a predicate containing LAG, the filter
// takes its sharded path: the input is materialised once (borrowing the
// child's backing table when it is already materialised, e.g. a catalog
// scan), contiguous row shards are evaluated across the pool (inline at
// parallelism 1), and per-shard survivors are emitted in shard order —
// all-pass shards as zero-copy views, partial shards as owned
// compactions — so output order matches the streaming path. Each shard
// evaluates over the whole source, so LAG reads its true neighbour.
// The streaming path stays for everything else at parallelism 1: it is
// the one that stops pulling early under a LIMIT.
//
// The predicate is bound once at Open against the child's schema; every
// shard and batch evaluates that one program through a SeriesMemo (one
// per shard, and one for the stream), so a series-level predicate such
// as `metric_name = 'x'` runs once per series.
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
  bool StableBatches() const override {
    return sharded_ || input_->StableBatches();
  }

 protected:
  Status OpenImpl() override;
  Result<table::ColumnBatch> NextImpl(bool* eof) override;

 private:
  Result<table::ColumnBatch> ShardedNext(bool* eof);
  /// Appends the rows of `range` that pass the predicate to `selected`.
  static Status Select(const table::ColumnBatch& in, RowRange range,
                       SeriesMemo* memo, std::vector<uint32_t>* selected);

  Operator* input_;
  ExprPtr predicate_;
  BoundExpr bound_;  // predicate_ bound at Open
  SeriesMemo stream_memo_;  // the streaming path's memo
  const FunctionRegistry* functions_;
  const ExecContext* ctx_;
  bool sharded_ = false;  // sharded morsel path (parallel ctx or LAG)

  // Sharded path state: the morsel source (borrowed child table or the
  // drained copy), per-shard survivor batches, and the emit cursor.
  table::Table drained_;
  std::vector<table::ColumnBatch> shard_output_;
  size_t emit_pos_ = 0;
  bool sharded_done_ = false;
};

}  // namespace explainit::sql
