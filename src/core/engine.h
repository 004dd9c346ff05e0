// The ExplainIt! engine: ties the tsdb, the SQL layer, family grouping and
// the parallel ranking engine together behind the three-step workflow of
// §1/§3 — (1) pick a target and time range, (2) declare a search space,
// (3) rank candidate causes — and the interactive loop of Algorithm 1.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/feature_family.h"
#include "core/pseudocause.h"
#include "core/ranking.h"
#include "core/scorer.h"
#include "sql/catalog.h"
#include "sql/executor.h"
#include "sql/functions.h"
#include "tsdb/store.h"

namespace explainit::core {

/// Engine-wide options.
struct EngineOptions {
  /// Shard count of the SQL pipeline's operators and of EXPLAIN's ranking
  /// fan-out; 0 = hardware concurrency. Every level runs the same
  /// operator algorithms, 1 with one shard inline; only Filter and
  /// Project keep a streaming path there, for early-stopping LIMITs.
  size_t sql_parallelism = 0;
  /// Shared worker pool the engine's executor (and ranking fan-out)
  /// borrows; null = exec::WorkerPool::Global(). Injection point for
  /// tests — production engines all share the process-wide pool.
  exec::WorkerPool* worker_pool = nullptr;
  /// Cost-based SQL optimiser (join reordering, aggregate pushdown,
  /// COUNT rollup routing). On by default; `enabled = false` reproduces
  /// statement-order plans exactly.
  sql::PlannerOptions sql_optimizer;
};

/// One ranking request (Algorithm 1, one iteration).
struct RankRequest {
  FeatureFamily target;                      // Y
  std::optional<FeatureFamily> condition;    // Z (empty = marginal)
  std::vector<FeatureFamily> candidates;     // search space
  std::string scorer_name = "L2-P50";
  RankingOptions ranking;
};

/// Result of one statement through the unified Engine::Query facade.
struct QueryResult {
  /// SELECT rows, or the EXPLAIN Score Table
  /// (rank, family, score, num_features, best_lambda, score_seconds, viz).
  table::Table table;
  /// The statement's own execution breakdown (per-operator rows/ns; for
  /// EXPLAIN the root operator is "Rank").
  sql::ExecStats stats;
  sql::StatementKind kind = sql::StatementKind::kSelect;
  /// Populated for EXPLAIN statements: the typed Score Table behind
  /// `table` (sparkline viz, RankOf, the rank-stage wall time).
  std::optional<ScoreTable> score_table;
};

/// The engine facade. Holds one persistent sql::Executor for its
/// lifetime, so execution statistics accumulate across queries.
/// Not copyable/movable: the executor points into the engine's own
/// catalog and function registry.
class Engine {
 public:
  explicit Engine(std::shared_ptr<tsdb::SeriesStore> store,
                  EngineOptions options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  tsdb::SeriesStore& store() { return *store_; }
  sql::Catalog& catalog() { return catalog_; }
  sql::FunctionRegistry& functions() { return functions_; }
  const EngineOptions& options() const { return options_; }

  /// Store lifecycle hooks. FlushStore seals every mutable head and
  /// drains background maintenance (quiescing the tiered store so
  /// subsequent scans hit sealed segments and their rollup tiers);
  /// CompactStore additionally merges each series' segments into one.
  Status FlushStore() { return store_->Flush(); }
  Status CompactStore() { return store_->Compact(); }

  /// Exposes the store as a SQL table (schema: timestamp, metric_name,
  /// tag, value) restricted to `range` — the paper's `tsdb` table. The
  /// provider honours planner pushdown hints, so WHERE clauses on
  /// timestamp / metric_name / tag narrow the actual store scan.
  void RegisterStoreTable(const std::string& table_name,
                          const TimeRange& range);

  /// Runs one statement against the catalog: a SELECT through the
  /// vectorised pipeline, or an EXPLAIN statement planned into a
  /// Rank-rooted operator tree (core/explain.h) — one statement API from
  /// the parser down to the ranking engine.
  Result<QueryResult> Query(std::string_view statement);

  /// As Query(), but runs through a caller-supplied executor instead of
  /// the engine's own. The server gives each session a private executor
  /// (stats and cancellation are per-session state) while every session
  /// shares this engine's catalog, functions, store and worker pool; the
  /// executor must have been constructed over this engine's catalog()
  /// and functions(). Safe to call from concurrent sessions.
  Result<QueryResult> QueryWith(sql::Executor& executor,
                                std::string_view statement);

  /// As QueryWith, on an already-parsed statement (the monitor service
  /// parses once to dispatch and forwards the non-monitor statements
  /// here). Monitor statements (EVERY/TRIGGERED/INTO, DROP MONITOR,
  /// SHOW MONITORS) are InvalidArgument: they need a MonitorService.
  Result<QueryResult> ExecuteStatement(sql::Executor& executor,
                                       const sql::Statement& stmt);

  /// Cumulative execution statistics across every Query() call.
  const sql::ExecStats& exec_stats() const { return executor_.stats(); }
  /// Statistics (with the per-operator breakdown) of the last query.
  const sql::ExecStats& last_exec_stats() const {
    return executor_.last_stats();
  }
  void ResetExecStats() { executor_.ResetStats(); }

  /// Scores and ranks (Algorithm 1's loop body). Candidates sharing the
  /// target's or condition's name are excluded, honouring §3.3's "no
  /// overlap between X, Y and Z".
  Result<ScoreTable> Rank(const RankRequest& request);

  /// The SQL executor behind Query() (parallelism knob, stats).
  sql::Executor& executor() { return executor_; }

 private:
  std::shared_ptr<tsdb::SeriesStore> store_;
  EngineOptions options_;
  sql::Catalog catalog_;
  sql::FunctionRegistry functions_;
  sql::Executor executor_;  // must follow catalog_ / functions_
};

/// Reindexes the request's families onto a common grid (AlignFamilies)
/// and ranks through Engine::Rank — the shared tail of Session::Run and
/// the EXPLAIN Rank operator, so programmatic and declarative RCA produce
/// identical Score Tables.
Result<ScoreTable> AlignAndRank(Engine* engine, RankRequest request);

/// The interactive loop (Algorithm 1): a Session accumulates the target,
/// conditioning set, search space and scorer across iterations; each Run()
/// produces a Score Table, and the user narrows the search (drill-down)
/// until satisfied. Target, condition and search space are sub-selects
/// built exactly as EXPLAIN builds them; the target family is named
/// `target`, so the search space must leave out the target's own series.
class Session {
 public:
  Session(Engine* engine, TimeRange total_range);

  /// Step 1: target selection.
  Status SetTargetByQuery(std::string_view sql);

  /// Figure 2: optional range-to-explain inside the total range.
  Status SetExplainRange(const TimeRange& range);

  /// Conditioning (Z): a SQL query, or a pseudocause derived from the
  /// target (§3.4).
  Status SetConditionByQuery(std::string_view sql);
  Status ConditionOnPseudocause(const PseudocauseOptions& options = {});
  void ClearCondition();

  /// Step 2: search space.
  Status SetSearchSpaceByQuery(std::string_view sql);
  /// Restricts the current search space to families matching any glob —
  /// the "fork off further analyses and drill down" loop.
  Status DrillDown(const std::vector<std::string>& family_globs);

  Status SetScorer(const std::string& name);

  /// Step 3: rank. Appends to history().
  Result<ScoreTable> Run();

  const std::vector<ScoreTable>& history() const { return history_; }
  size_t num_candidates() const { return candidates_.size(); }

 private:
  Engine* engine_;
  TimeRange total_range_;
  std::optional<TimeRange> explain_range_;
  std::optional<FeatureFamily> target_;
  std::optional<FeatureFamily> condition_;
  std::vector<FeatureFamily> candidates_;
  std::string scorer_name_ = "L2-P50";
  std::vector<ScoreTable> history_;
};

}  // namespace explainit::core
