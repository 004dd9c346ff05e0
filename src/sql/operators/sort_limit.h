// Sort/Limit: ORDER BY is a pipeline breaker (materialises its input and
// sorts); LIMIT without ORDER BY streams and stops pulling its child as
// soon as enough rows arrived.
//
// Each ORDER BY item resolves its evaluation side *once* — the output
// schema (aliases, expression names) or the retained pre-projection rows
// (ORDER BY on an unprojected column) — and every row's key then
// evaluates against that one side. (The old per-row fallback could mix
// values from the two schemas within a single item when evaluation
// errored on only some rows.)
//
// Parallelism (ExecContext with parallelism > 1): sort keys evaluate in
// row shards, each shard sorts its range (a bounded top-K heap when
// LIMIT is present), and a k-way merge assembles the order. The
// comparator totally orders rows (input index breaks ties), so the
// result is byte-identical to the serial stable sort at every level.
// The sorted table materialises column-wise in parallel (a gather, not
// row-at-a-time appends).
#pragma once

#include <algorithm>

#include "sql/evaluator.h"
#include "sql/operators/operator.h"

namespace explainit::sql {

class SortLimitOperator : public Operator {
 public:
  /// The input's retained_input() rows (when it retains any) resolve
  /// ORDER BY expressions that name unprojected columns; `aggregated`
  /// flips the resolution order exactly as the row interpreter did.
  SortLimitOperator(std::unique_ptr<Operator> input,
                    const SelectStatement* stmt,
                    const FunctionRegistry* functions, bool aggregated,
                    const ExecContext* ctx = nullptr);

  const table::Schema& output_schema() const override {
    return input_->output_schema();
  }
  std::string name() const override { return "SortLimit"; }
  void AccumulateExecStats(ExecStats* stats) const override {
    if (!stmt_->order_by.empty()) {
      stats->sort_shards = std::max(stats->sort_shards, sort_shards_);
    }
  }

 protected:
  Status OpenImpl() override;
  Result<table::ColumnBatch> NextImpl(bool* eof) override;

 private:
  /// Evaluates every ORDER BY item into column-major key vectors,
  /// resolving each item's evaluation side once.
  Status BuildSortKeys(const table::Table& output,
                       std::vector<std::vector<table::Value>>* keys) const;
  /// Materialises `output`'s rows in `order` into sorted_ (columnar
  /// gather, sharded).
  Status GatherSorted(const table::Table& output,
                      const std::vector<size_t>& order);

  Operator* input_;
  const SelectStatement* stmt_;
  const FunctionRegistry* functions_;
  const bool aggregated_;
  const ExecContext* ctx_;

  std::vector<BoundExpr> out_keys_;  // ORDER BY items on the output schema
  table::Table sorted_;
  size_t pos_ = 0;
  size_t emitted_ = 0;  // streaming LIMIT
  size_t sort_shards_ = 1;
  bool sorted_done_ = false;
};

}  // namespace explainit::sql
