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
// A produced batch may borrow column storage from its operator; it stays
// valid until that operator's next Next()/destruction (see ColumnBatch).
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
  /// Chunks the executor assembled the final result table from (1 = the
  /// classic serial drain-and-append path).
  size_t materialize_chunks = 0;
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

  /// The operator's complete output as one materialised table, when it
  /// has one (catalog scans outside joins), else null. Valid after Open().
  /// Sharded consumers read this storage in place instead of draining
  /// the batch stream. The borrowed rows count as this operator's output
  /// (one batch), so its counters read the same either way.
  const table::Table* BorrowMaterializedTable();

  /// True when every batch this operator emits stays valid until the
  /// operator is destroyed (owned storage or views into long-lived
  /// member tables), rather than only until the next Next() call.
  /// Valid after Open(). Parallel aggregation buffers such batches as
  /// morsels without copying.
  virtual bool StableBatches() const { return false; }

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

  /// The backing table behind this operator's batches, if any (valid
  /// after Open()). Its schema is the *unqualified* backing schema;
  /// BorrowMaterializedTable lends it only when that is output_schema().
  virtual const table::Table* MaterializedTable() const { return nullptr; }

  Operator* AddChild(std::unique_ptr<Operator> child) {
    children_.push_back(std::move(child));
    return children_.back().get();
  }
  Operator* child(size_t i) const { return children_[i].get(); }
  size_t num_children() const { return children_.size(); }

  /// Pulls everything a child has into `out` (appending column-wise).
  /// The materialisation step of pipeline breakers (sort, join build).
  static Status Drain(Operator* op, table::Table* out);

  mutable OperatorStats stats_;

 private:
  // Declared before children_ so children (which may reference retained
  // artifacts, e.g. synthesised AST) are destroyed first.
  std::vector<std::shared_ptr<const void>> artifacts_;
  std::vector<std::unique_ptr<Operator>> children_;
  const ExecContext* bound_ctx_ = nullptr;  // set by BindExecContext
};

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

/// Flattens an AND tree into its conjuncts (any other node is one
/// conjunct). Order is evaluation (left-to-right) order.
void CollectConjuncts(const Expr* e, std::vector<const Expr*>* out);

/// Output column name for a select item: alias, else the expression text.
std::string ItemName(const SelectItem& item);

}  // namespace explainit::sql
