// HashJoin: §4.2's "broadcast join", and the pipeline's only join
// operator. The build side (chosen by the planner: the smaller input
// when row counts are known) is fully materialised into a partitioned
// hash index; the probe side streams through batch-wise. Equality
// conjuncts between the inputs become hash keys; the remaining conjuncts
// evaluate as a residual over candidate rows. A join without such an
// equality (or a CROSS JOIN) is the zero-key case: every build row is a
// candidate of every probe row and the whole condition is the residual.
//
// Bounded candidate runs: each probe row's match list is looked up once
// per probe batch, then the batch is consumed in runs of probe rows
// whose candidates total at most kMaxRunCandidates (a run always holds
// at least one probe row). One Next() materialises one run, so neither
// a cross product nor a skewed key pairs a whole batch with all of its
// matches at once.
//
// Parallelism (ExecContext with parallelism > 1): the build side is
// partitioned by key hash, per-partition indexes are built across the
// pool, the probe batch's lookups run in contiguous row shards, and each
// run's (probe row, build row) pairs are sharded into contiguous ranges
// — so a single probe row with thousands of matches still fans out.
// Per-shard matches and build-side match sets are merged in shard order,
// and run boundaries depend only on the data, so output is identical at
// every parallelism level (matches enumerate in ascending probe row,
// then ascending build row).
//
// Outer joins pad by the *actual* build side, so the planner may build
// on either input for every join type: unmatched probe rows pad per run
// after the run's matches (nulls on the build side's columns), unmatched
// build rows pad once after the probe is exhausted (nulls on the probe
// side's columns).
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "sql/evaluator.h"
#include "sql/operators/operator.h"

namespace explainit::sql {

/// The most (probe row, build row) candidate pairs one output step of
/// HashJoin materialises, unless a single probe row alone has more.
/// Small enough that a run's candidate columns stay cache-resident: on a
/// 4,000 x 4,000 zero-key join at parallelism 1, 4,096 pairs ran as fast
/// as a nested loop joining one probe row per step, and 16,384 about 8%
/// slower.
inline constexpr size_t kMaxRunCandidates = 4 * table::kDefaultBatchRows;

/// A join condition split into equality key pairs and a residual.
/// (CollectConjuncts lives in operator.h.)
struct EquiKeys {
  std::vector<const Expr*> left_exprs;
  std::vector<const Expr*> right_exprs;
  std::vector<const Expr*> residual;
};

/// Splits `condition` by resolving each equality's sides against the two
/// input schemas.
EquiKeys SplitJoinCondition(const Expr* condition,
                            const table::Schema& left,
                            const table::Schema& right);

class HashJoinOperator : public Operator {
 public:
  /// `build_left` builds the hash index on the left input (planner picks
  /// the smaller side). Output columns are always left fields then right
  /// fields regardless of orientation.
  HashJoinOperator(std::unique_ptr<Operator> left,
                   std::unique_ptr<Operator> right, const JoinClause* join,
                   const FunctionRegistry* functions, bool build_left,
                   const ExecContext* ctx = nullptr);

  const table::Schema& output_schema() const override { return schema_; }
  std::string name() const override { return "HashJoin"; }
  /// Keyed joins count as hash joins; zero-key joins with a condition
  /// as nested-loop joins (their cost is O(n·m)); CROSS JOINs as neither.
  void AccumulateExecStats(ExecStats* stats) const override {
    if (!keys_.left_exprs.empty()) {
      ++stats->hash_joins;
    } else if (join_->type != JoinType::kCross) {
      ++stats->nested_loop_joins;
    }
    stats->join_build_partitions =
        std::max(stats->join_build_partitions, num_partitions_);
  }

 protected:
  Status OpenImpl() override;
  Result<table::ColumnBatch> NextImpl(bool* eof) override;

 private:
  /// Rows of one hash partition, keyed by encoded join key. Row vectors
  /// are ascending build-row order, so match enumeration is deterministic.
  struct BuildPartition {
    std::unordered_map<std::string, std::vector<size_t>> index;
  };

  /// True when unmatched build rows must be emitted after the probe
  /// (FULL OUTER, or LEFT when the left input is the build side).
  bool NeedsBuildPads() const;
  /// True when unmatched probe rows pad per run (FULL OUTER, or LEFT
  /// when the left input is the probe side).
  bool NeedsProbePads() const;
  /// Pulls the next probe batch and looks up every row's match list.
  Status PullProbeBatch();
  /// Joins the next run of the current probe batch: matches in pair
  /// order, then the run's probe pads.
  Result<table::ColumnBatch> JoinRun();
  Result<table::ColumnBatch> FinishBuildPads(bool* eof);
  /// The joined rows (build_rows[i], probe_rows[i] of `probe`), columns
  /// gathered with their representation kept (see GatherColumns).
  table::ColumnBatch JoinedRows(const std::vector<uint32_t>& build_rows,
                                const table::ColumnBatch& probe,
                                const std::vector<uint32_t>& probe_rows) const;

  Operator* left_;
  Operator* right_;
  const JoinClause* join_;
  const FunctionRegistry* functions_;
  const bool build_left_;
  const ExecContext* ctx_;

  table::Schema schema_;          // left fields + right fields
  table::Table build_table_;      // materialised build side
  EquiKeys keys_;
  // The condition bound at Open: each side's key expressions against its
  // input, the residual conjuncts against the joined row.
  std::vector<BoundExpr> build_keys_;
  std::vector<BoundExpr> probe_keys_;
  std::vector<BoundExpr> residual_;
  // Per-shard memos of the probe keys and the residual (probe batches
  // shard into at most parallelism_ shards); kept across batches.
  std::vector<std::vector<SeriesMemo>> probe_memos_;
  std::vector<std::vector<SeriesMemo>> residual_memos_;
  std::vector<BuildPartition> partitions_;
  size_t num_partitions_ = 1;
  std::vector<char> build_matched_;       // for outer pads
  size_t build_offset_ = 0;  // column offset of the build side's fields
  size_t probe_offset_ = 0;  // column offset of the probe side's fields
  size_t build_width_ = 0;
  size_t probe_width_ = 0;
  size_t parallelism_ = 1;   // set once in Open, as Filter/Project do

  table::ColumnBatch probe_batch_;  // the batch being joined, run by run
  /// Per probe row: its build match list, or null (no match, null key).
  std::vector<const std::vector<size_t>*> probe_matches_;
  size_t probe_pos_ = 0;  // first probe row of the next run
  bool probe_done_ = false;
  size_t pad_pos_ = 0;  // build-row cursor of the chunked pad emission
  bool pads_emitted_ = false;
};

}  // namespace explainit::sql
