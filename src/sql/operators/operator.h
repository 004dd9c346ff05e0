// The physical operator interface of the vectorised SQL pipeline.
//
// Operators form a tree (children owned by parents) and exchange
// table::ColumnBatch chunks through a pull interface:
//
//   Open()  — recursively prepares the subtree: resolves catalog tables,
//             finalises output schemas, builds join hash tables. Schemas
//             are only known after Open (catalog tables materialise
//             lazily), so parents derive their schema from children here.
//   Next()  — produces the next batch; sets *eof instead when exhausted.
//
// A produced batch may borrow column storage from its operator or from
// the operator's inputs; it stays valid until that operator is
// destroyed, so a consumer may hold many batches at once (a morsel
// window, HashAggregate's partial-mode morsels) without copying them.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/time_util.h"
#include "sql/ast.h"
#include "sql/evaluator.h"
#include "sql/exec_context.h"
#include "table/column_batch.h"
#include "table/table.h"

namespace explainit::sql {

/// Per-operator execution counters (ISSUE: rows/batches/ns).
struct OperatorStats {
  std::string name;    // operator kind, e.g. "Scan", "HashJoin"
  std::string detail;  // instance detail, e.g. "tsdb cols=2/4", "build=left"
  size_t rows_output = 0;
  size_t batches_output = 0;
  /// Wall time spent inside Open()+Next(), *inclusive* of children (a
  /// pull-based operator's clock runs while its input produces).
  int64_t elapsed_ns = 0;
};

/// Execution statistics for observability and the scalability benches.
/// Scalar counters accumulate across queries (ResetStats clears); the
/// `operators` vector holds the per-operator breakdown of one query.
struct ExecStats {
  size_t tables_scanned = 0;
  size_t rows_scanned = 0;
  /// Scans that carried a rollup resolution hint (min_step_seconds set by
  /// the planner's grid-shape detection) to a hint-aware provider.
  size_t rollup_hinted_scans = 0;
  /// HashJoin instances by key count: keyed joins are hash joins;
  /// zero-key joins with a condition count as nested-loop joins (every
  /// pair is a candidate, O(n·m)); CROSS JOINs count as neither.
  size_t hash_joins = 0;
  size_t nested_loop_joins = 0;
  size_t rows_output = 0;
  /// Degree of parallelism the query executed with (the executor knob).
  size_t parallelism = 1;
  /// Shard/partition fan-out of the parallel operators in the last query
  /// (maximum across operator instances; 1 when the path ran serially,
  /// 0 when the operator did not appear in the plan).
  size_t join_build_partitions = 0;
  size_t sort_shards = 0;
  /// The logical plan (LogicalPlan::ToString) behind the last query, and
  /// the optimiser rewrites that fired: statements whose join order left
  /// statement order, partial aggregates placed below joins, and
  /// COUNT -> count-rollup-tier rewrites.
  std::string plan_text;
  size_t joins_reordered = 0;
  size_t agg_pushdowns = 0;
  size_t count_rollup_rewrites = 0;
  std::vector<OperatorStats> operators;
};

/// Base class of every physical operator.
class Operator {
 public:
  virtual ~Operator() = default;

  /// Prepares the subtree; after a successful Open, output_schema() is
  /// valid. Must be called exactly once, before the first Next().
  Status Open();

  /// Pulls the next batch. On end of stream sets *eof = true and returns
  /// an empty batch. Operators may emit empty (0-row) batches mid-stream;
  /// consumers must tolerate them.
  Result<table::ColumnBatch> Next(bool* eof);

  virtual const table::Schema& output_schema() const = 0;
  virtual std::string name() const = 0;

  /// Pre-projection input rows retained 1:1 with this operator's output
  /// (Project) or the accumulated aggregate input (HashAggregate); the
  /// ORDER BY resolution fallback reads them. Null when not retained.
  /// The pointed-to table fills during execution; callers dereference
  /// only after the operator has been drained.
  virtual const table::Table* retained_input() const { return nullptr; }

  /// Adds this operator's contribution to the scalar ExecStats counters
  /// (scans report tables/rows scanned, joins their strategy). Self only.
  virtual void AccumulateExecStats(ExecStats* stats) const { (void)stats; }

  /// Depth-first collection over the subtree.
  void CollectStats(std::vector<OperatorStats>* out) const;
  void AccumulateExecStatsTree(ExecStats* stats) const;

  /// Threads the executor's context through the subtree (called by
  /// ExecuteTree before Open). Every Next() then checks the context's
  /// cancellation token at its batch boundary, so a cancelled or
  /// deadline-expired query unwinds through the normal Status path
  /// within one batch of work per pipeline stage.
  void BindExecContext(const ExecContext* ctx);

  const OperatorStats& stats() const { return stats_; }

  /// Ties an external object's lifetime to this operator. The planner
  /// uses it to keep optimiser-synthesised AST (owned by the LogicalPlan)
  /// alive exactly as long as the operators that reference it.
  void RetainArtifact(std::shared_ptr<const void> artifact) {
    artifacts_.push_back(std::move(artifact));
  }

 protected:
  virtual Status OpenImpl() = 0;
  virtual Result<table::ColumnBatch> NextImpl(bool* eof) = 0;

  Operator* AddChild(std::unique_ptr<Operator> child) {
    children_.push_back(std::move(child));
    return children_.back().get();
  }
  Operator* child(size_t i) const { return children_[i].get(); }
  size_t num_children() const { return children_.size(); }

  mutable OperatorStats stats_;

 private:
  // Declared before children_ so children (which may reference retained
  // artifacts, e.g. synthesised AST) are destroyed first.
  std::vector<std::shared_ptr<const void>> artifacts_;
  std::vector<std::unique_ptr<Operator>> children_;
  const ExecContext* bound_ctx_ = nullptr;  // set by BindExecContext
};

/// Pulls everything `op` has into `out` (appending column-wise). The
/// materialisation step of pipeline breakers (sort, join build, index
/// mode aggregation) and of LAG stages' morsel windows.
Status Drain(Operator* op, table::Table* out);

/// Encodes the values of the programs of `memos` (prepared for `in`) at
/// `row` of `in` into `*key` (reused storage) with AppendKey; false when
/// one is NULL or NaN, which a join key never matches. A series-level
/// program appends its code's cached bytes.
Result<bool> EncodeKey(std::vector<SeriesMemo>* memos,
                       const table::ColumnBatch& in, size_t row,
                       std::string* key);

/// An insert-only map from encoded keys (EncodeKey bytes) to dense ids
/// 0, 1, 2, ... in first-insertion order: the group index of
/// HashAggregate. Keys live in one arena and the table is open-addressed
/// on each key's stored hash, so an insert hashes once and copies the
/// key bytes once, with no per-key allocation.
class KeyIndex {
 public:
  /// The id of `key`, inserted as size() when new (*inserted tells).
  size_t FindOrInsert(std::string_view key, bool* inserted);
  size_t size() const { return hashes_.size(); }
  std::string_view key(size_t id) const {
    return std::string_view(arena_).substr(
        offsets_[id], offsets_[id + 1] - offsets_[id]);
  }

 private:
  void Grow();

  std::string arena_;
  std::vector<size_t> offsets_{0};  // key id's bytes: [offsets_[id], +1)
  std::vector<size_t> hashes_;      // per id
  std::vector<uint32_t> slots_;     // id + 1, 0 = empty; power-of-2 size
};

/// Prepares every memo of `memos` for `in`.
void PrepareMemos(std::vector<SeriesMemo>* memos,
                  const table::ColumnBatch& in);

/// A contiguous run of input rows processed by one worker.
struct RowRange {
  size_t begin = 0;
  size_t end = 0;
  size_t size() const { return end - begin; }
};

/// Splits [0, num_rows) into at most `parallelism` contiguous shards of at
/// least `min_shard_rows` rows (one shard when the input is small).
/// Boundaries depend only on the arguments so a parallelism level is
/// deterministic regardless of scheduling. The default grain suits
/// morsel stages over materialised inputs; per-batch stages (join
/// probing) pass a smaller grain, since a batch is at most
/// table::kDefaultBatchRows rows to begin with.
std::vector<RowRange> ShardRows(size_t num_rows, size_t parallelism,
                                size_t min_shard_rows = 1024);

/// Runs fn(shard_index) for every shard over ctx->pool (inline when the
/// context is serial or there is a single shard). Statuses are collected
/// per shard and the first failure *in shard order* is returned, keeping
/// error reporting deterministic under concurrency.
Status RunSharded(const ExecContext* ctx, size_t num_shards,
                  const std::function<Status(size_t)>& fn);

/// Parallelism the context actually provides: ctx->parallelism when a
/// live pool backs it, 1 for null or serial contexts. The value every
/// parallel operator hands to ShardRows.
inline size_t EffectiveParallelism(const ExecContext* ctx) {
  return ctx != nullptr && ctx->parallel() ? ctx->parallelism : 1;
}

/// The execution shape of Filter and Project at every parallelism level.
/// Each step pulls a window of up to EffectiveParallelism(ctx) morsels
/// from the child, evaluates them with RunSharded (slot i evaluates
/// morsel i, so a stage keeps one evaluation state per slot across
/// windows), and returns the non-empty outputs in morsel order. A morsel
/// is a range of at most kDefaultBatchRows rows of one child batch:
/// normally the whole batch, while a larger batch (an aggregate's or a
/// join's output) splits into several. A stage containing LAG drains its
/// child into rows() first and splits one view over that whole input, so
/// LAG reads its true neighbour. A LIMIT above the stage stops it within
/// one window at every level.
class MorselWindow {
 public:
  /// Evaluates rows `range` of `batch` in `slot`, concurrently with the
  /// window's other slots. `batch` is only valid during the call: an
  /// output that borrows its columns must slice or share them.
  using EvalFn = std::function<Result<table::ColumnBatch>(
      size_t slot, const table::ColumnBatch& batch, RowRange range)>;

  MorselWindow() = default;
  /// `whole_input`: the LAG form. `keep_rows`: also append every pulled
  /// row to rows(), in order (the LAG form always does).
  MorselWindow(Operator* child, const ExecContext* ctx, bool whole_input,
               bool keep_rows);

  /// Number of slots: the most morsels one window holds.
  size_t width() const { return width_; }

  /// The next non-empty output, evaluating the next window with `eval`
  /// once the current one's outputs are used up.
  Result<table::ColumnBatch> Next(bool* eof, const EvalFn& eval);

  /// The pulled rows so far (see keep_rows); complete once Next has
  /// returned eof.
  const table::Table& rows() const { return rows_; }

 private:
  struct Morsel {
    size_t batch;  // index into batches_
    RowRange range;
  };

  /// Replaces the window with the child's next morsels (none at end).
  Status Pull();

  Operator* child_ = nullptr;
  const ExecContext* ctx_ = nullptr;
  size_t width_ = 1;
  bool whole_input_ = false;
  bool keep_rows_ = false;
  bool child_done_ = false;  // the child returned eof, or was drained
  table::Table rows_;
  /// The batches the window's morsels read; the last one's rows from
  /// next_row_ on go to the next window.
  std::vector<table::ColumnBatch> batches_;
  size_t next_row_ = 0;
  std::vector<Morsel> morsels_;
  std::vector<table::ColumnBatch> outputs_;
  size_t emit_ = 0;
};

/// Flattens an AND tree into its conjuncts (any other node is one
/// conjunct). Order is evaluation (left-to-right) order.
void CollectConjuncts(const Expr* e, std::vector<const Expr*>* out);

/// Output column name for a select item: alias, else the expression text.
std::string ItemName(const SelectItem& item);

}  // namespace explainit::sql
