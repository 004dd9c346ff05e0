// SQL executor: plans a parsed SelectStatement (sql/planner.h) into a
// physical operator tree (sql/operators/) and drives the pull-based,
// vectorised pipeline to a materialised result table.
//
// Join strategy mirrors §4.2's "broadcast join" optimisation: every join
// is a HashJoin whose build (broadcast) side is the smaller input.
// Equality conjuncts become hash keys; a join without one (or a CROSS
// JOIN) is the zero-key case, every build row a candidate, joined in
// bounded candidate runs.
// Time-range, metric and tag predicates push down into hint-aware
// catalog providers (tsdb::SeriesStore scans) — on both sides of joins.
//
// Parallelism: set_parallelism(n) evaluates Filter/Project morsel
// windows of n batches, and shards HashAggregate morsels, HashJoin's
// partitioned build/probe and SortLimit's sort n ways — all over a
// *borrowed* worker pool, by default the process-wide
// exec::WorkerPool::Global() shared with every other executor, store
// scan and ranking fan-out. n == 1 runs the same operator algorithms
// with one shard inline; n == 0 means hardware concurrency. The result
// table is the root's batches appended in order. Filter, Project, join
// and sort output is byte-identical across levels; aggregation is
// identical up to floating-point summation order. The differential
// suite pins both.
#pragma once

#include <memory>
#include <string_view>

#include "common/result.h"
#include "exec/cancel.h"
#include "exec/worker_pool.h"
#include "sql/ast.h"
#include "sql/catalog.h"
#include "sql/exec_context.h"
#include "sql/functions.h"
#include "sql/logical_plan.h"
#include "sql/operators/operator.h"
#include "table/table.h"

namespace explainit::sql {

/// Executes SELECT statements against a catalog. Engines hold one
/// executor for their lifetime: the scalar ExecStats counters accumulate
/// across queries, and last_stats() breaks down the most recent one.
class Executor {
 public:
  /// `pool` is the shared worker pool parallel queries borrow; null means
  /// exec::WorkerPool::Global() (bound on the first parallel query).
  /// Executors never own a pool — a box full of concurrent sessions
  /// shares one process-wide set of workers.
  Executor(const Catalog* catalog, const FunctionRegistry* functions,
           size_t parallelism = 1, exec::WorkerPool* pool = nullptr)
      : catalog_(catalog), functions_(functions), pool_(pool) {
    set_parallelism(parallelism);
  }

  /// Sets the degree of parallelism for subsequent queries. 1 = one
  /// shard per stage, inline; 0 = hardware concurrency.
  void set_parallelism(size_t parallelism);
  size_t parallelism() const { return parallelism_; }

  /// Optimiser setting for subsequent queries (cost-based join
  /// reordering, aggregate pushdown, COUNT rollup routing; on unless
  /// PlannerOptions::enabled is false — sql/logical_plan.h).
  void set_optimizer(PlannerOptions options) { optimizer_ = options; }
  const PlannerOptions& optimizer() const { return optimizer_; }

  /// Sets the cancellation token subsequent queries check at batch
  /// boundaries (null = none). The token must outlive every query run
  /// while it is installed; callers typically install per query and
  /// clear afterwards.
  void set_cancel_token(const exec::CancelToken* token) {
    ctx_.cancel = token;
  }

  /// Parses and executes `sql` (SELECT statements only; EXPLAIN goes
  /// through the engine's statement API, which plans its sub-selects
  /// here via PlanSelect/ExecuteTree).
  Result<table::Table> Query(std::string_view sql);

  /// Executes an already-parsed statement.
  Result<table::Table> Execute(const SelectStatement& stmt);

  /// Plans a parsed SELECT into a physical operator tree sharing this
  /// executor's catalog, function registry and execution context (so
  /// pushdown, pruning and the morsel-parallel paths apply unchanged).
  /// The statement must outlive the returned tree.
  Result<std::unique_ptr<Operator>> PlanSelect(const SelectStatement& stmt);

  /// Opens and drains an operator tree built against this executor —
  /// PlanSelect output, or an externally assembled root such as core's
  /// Rank operator — materialising the result and recording the same
  /// per-query + cumulative statistics as Execute().
  Result<table::Table> ExecuteTree(Operator* root);

  /// The execution context morsel-parallel operators (and the EXPLAIN
  /// Rank stage) fan out over. Address is stable for the executor's
  /// lifetime; its pool is live whenever parallelism() > 1 and a plan or
  /// tree execution has started.
  const ExecContext* exec_context() const { return &ctx_; }

  /// Cumulative counters since construction / ResetStats(). The
  /// `operators` breakdown always describes the most recent query.
  const ExecStats& stats() const { return stats_; }

  /// Counters and per-operator breakdown of the most recent query only.
  const ExecStats& last_stats() const { return last_stats_; }

  void ResetStats() {
    const size_t p = parallelism_;
    stats_ = ExecStats{};
    last_stats_ = ExecStats{};
    stats_.parallelism = p;
    last_stats_.parallelism = p;
  }

 private:
  /// Binds the shared pool into ctx_ when parallelism_ > 1 (defaulting
  /// pool_ to the process-wide pool on first use).
  void EnsurePool();

  const Catalog* catalog_;
  const FunctionRegistry* functions_;
  size_t parallelism_ = 1;
  exec::WorkerPool* pool_ = nullptr;  // borrowed, never owned
  ExecContext ctx_;
  PlannerOptions optimizer_;
  ExecStats stats_;       // cumulative
  ExecStats last_stats_;  // most recent query
  /// Logical plan of the most recent PlanSelect, consumed by the next
  /// ExecuteTree into last_stats_.plan_text (externally assembled trees
  /// have no logical plan and clear it).
  std::shared_ptr<const LogicalPlan> pending_plan_;
};

}  // namespace explainit::sql
