// HashAggregate: hash grouping of the whole input, then per-group
// evaluation of the select list / HAVING. A pipeline breaker: groups can
// only close once the input is exhausted.
//
// The statement picks one of two modes; the ExecContext only sets how
// many shards each runs (one shard, inline, at parallelism 1 or with a
// null context):
//
//  * partial mode — every aggregate call decomposes (COUNT/SUM/MIN/MAX/
//    AVG) and no stage contains LAG: shards build hash tables of flat
//    partial states (sum, non-null count, min, max, row count), a merge
//    stage combines partials in shard order (so a given parallelism
//    level is deterministic), and finalisation substitutes merged values
//    for the aggregate nodes. Input morsels are the child's own batches,
//    held without copying (a batch stays valid until its producer is
//    destroyed), unless the input rows are retained for ORDER BY: then
//    they are row shards of a one-time drain.
//  * index mode — non-decomposable aggregates (STDDEV, PERCENTILE, or
//    malformed calls whose error messages this mode owns), or LAG in a
//    key, item or HAVING: the input is drained, shards group row indices,
//    the merge concatenates them in shard order (preserving ascending row
//    order), and per-group evaluation runs across groups. Keys, HAVING
//    and items evaluate over the whole drained input, so LAG reads its
//    true neighbour at any shard count.
//
// Both modes evaluate programs bound once at Open: group keys and
// aggregate arguments against the input schema, and the select list and
// HAVING in group context, where each aggregate call is a slot leaf that
// reads the group's aggregate value. Every program runs through a
// per-shard SeriesMemo: a series-level key (`CONCAT(metric_name, '@',
// tag['host'])`) encodes once per referenced code, and a series-level
// item is read from the memo per group and comes out as a dictionary
// column.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <unordered_map>

#include "sql/evaluator.h"
#include "sql/operators/operator.h"

namespace explainit::sql {

class HashAggregateOperator : public Operator {
 public:
  HashAggregateOperator(std::unique_ptr<Operator> input,
                        const SelectStatement* stmt,
                        const FunctionRegistry* functions,
                        const ExecContext* ctx = nullptr,
                        bool retain_input = true);

  const table::Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "HashAggregate"; }

  /// The accumulated input rows (the aggregate materialises its input
  /// on every path that retains); ORDER BY's last-resort resolution path
  /// reads them. Null when constructed with retain_input == false and
  /// partial mode skipped materialisation.
  const table::Table* retained_input() const override {
    return retained_ptr_;
  }

 protected:
  Status OpenImpl() override;
  Result<table::ColumnBatch> NextImpl(bool* eof) override;

 private:
  /// Flat partial state of one decomposable aggregate in one group.
  /// Argument-evaluation errors are captured per slot instead of failing
  /// the whole phase: index mode only surfaces them when the group
  /// survives HAVING, so eager partial evaluation must too.
  struct PartialState {
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    int64_t non_null = 0;
    Status error;

    /// Folds one non-null argument value in.
    void Accumulate(double d) {
      if (non_null == 0) {
        min = d;
        max = d;
      } else {
        min = std::min(min, d);
        max = std::max(max, d);
      }
      sum += d;
      ++non_null;
    }
  };
  struct GroupPartial {
    uint32_t first_batch = 0;  // representative row for non-aggregate parts
    uint32_t first_row = 0;
    size_t rows = 0;
  };
  /// One worker's group index (ids in first-seen key order). Groups and
  /// their flat slot states live in contiguous arrays (groups[i]'s slot
  /// j is slots[i * num_slots + j]) — no per-group heap allocation.
  struct ShardGroups {
    KeyIndex keys;
    std::vector<GroupPartial> groups;  // by group id
    std::vector<PartialState> slots;   // groups.size() * num_slots
  };

  /// One partial-mode shard's memos: the group keys' and each slot's
  /// first argument's (null program for argument-less calls).
  struct ShardMemos {
    std::vector<SeriesMemo> keys;
    std::vector<SeriesMemo> args;
  };
  /// A group's representative row; `in` is null for the one group of a
  /// global aggregate over an empty input.
  struct GroupRow {
    const table::ColumnBatch* in = nullptr;
    size_t row = 0;
  };
  /// Group `gi`'s aggregate slot value, computed by group shard `shard`.
  using SlotValue =
      std::function<Result<table::Value>(size_t gi, size_t slot,
                                         size_t shard)>;

  Result<table::ColumnBatch> PartialNext(bool* eof);
  Result<table::ColumnBatch> IndexNext(bool* eof);
  /// Folds one batch into a shard's partial states.
  Status PartialAccumulate(const table::ColumnBatch& batch,
                           uint32_t batch_index, ShardGroups* local,
                           ShardMemos* memos) const;
  /// Evaluates HAVING (false drops the group) and the select list for
  /// every group, fanned out over group shards, and emits the kept
  /// groups in order. `inputs` are every batch a representative row
  /// lies in.
  Result<table::ColumnBatch> FinishGroups(
      size_t num_groups, const std::vector<const table::ColumnBatch*>& inputs,
      const std::function<GroupRow(size_t)>& group_row,
      const SlotValue& slot_value);
  /// Drains the input into acc_ and exposes it as one view batch per row
  /// shard (the morsel source of index mode and of partial mode when the
  /// input rows are retained).
  Status MaterializeInputShards();
  /// Builds the final output batch from its columns.
  table::ColumnBatch EmitRows(std::vector<table::Column> cols, size_t rows);

  Operator* input_;
  const SelectStatement* stmt_;
  const FunctionRegistry* functions_;
  const ExecContext* ctx_;
  bool retain_input_;

  table::Schema schema_;
  table::Table acc_;  // the drained input (index mode, or retained rows)
  const table::Table* retained_ptr_ = nullptr;
  bool done_ = false;

  // Mode state and bound programs, resolved at Open().
  bool partial_ok_ = false;
  std::vector<const Expr*> agg_nodes_;  // topmost aggregate calls
  std::unordered_map<const Expr*, size_t> slot_of_;
  std::vector<BoundExpr> keys_;                   // GROUP BY
  std::vector<std::vector<BoundExpr>> agg_args_;  // per slot, per argument
  std::vector<BoundExpr> items_;                  // group context
  std::optional<BoundExpr> having_;               // group context
  std::vector<table::ColumnBatch> morsels_;  // buffered/viewed input
};

}  // namespace explainit::sql
