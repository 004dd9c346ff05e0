#include "core/engine.h"

#include <utility>

#include "common/strings.h"
#include "core/explain.h"
#include "sql/parser.h"

namespace explainit::core {

Engine::Engine(std::shared_ptr<tsdb::SeriesStore> store, EngineOptions options)
    : store_(std::move(store)),
      options_(options),
      functions_(sql::FunctionRegistry::Builtins()),
      executor_(&catalog_, &functions_, options.sql_parallelism,
                options.worker_pool) {
  executor_.set_optimizer(options.sql_optimizer);
}

void Engine::RegisterStoreTable(const std::string& table_name,
                                const TimeRange& range) {
  std::shared_ptr<tsdb::SeriesStore> store = store_;
  sql::HintedProviderOptions provider_options;
  // Live cardinality for the cost-based planner. The whole-store count
  // over-estimates range-restricted tables, but relative magnitudes (the
  // fact table dwarfs dimension tables) are what join ordering needs.
  provider_options.estimated_rows = [store] { return store->num_points(); };
  // Hints forward verbatim to SeriesStore::Scan, so count-rollup routing
  // (RollupAggregate::kCount + the COUNT -> __SUM_COUNT rewrite) is exact.
  provider_options.exact_rollups = true;
  catalog_.RegisterHintedProvider(
      table_name,
      [store, range](const tsdb::ScanHints& hints) -> Result<table::Table> {
        tsdb::ScanRequest req;
        req.range = range;
        req.hints = hints;
        return store->ScanToTable(req);
      },
      std::move(provider_options));
}

Result<QueryResult> Engine::Query(std::string_view statement) {
  return QueryWith(executor_, statement);
}

Result<QueryResult> Engine::QueryWith(sql::Executor& executor,
                                      std::string_view statement) {
  EXPLAINIT_ASSIGN_OR_RETURN(auto stmt, sql::ParseStatement(statement));
  return ExecuteStatement(executor, *stmt);
}

Result<QueryResult> Engine::ExecuteStatement(sql::Executor& executor,
                                             const sql::Statement& stmt) {
  QueryResult out;
  out.kind = stmt.kind();
  switch (out.kind) {
    case sql::StatementKind::kSelect: {
      EXPLAINIT_ASSIGN_OR_RETURN(
          out.table,
          executor.Execute(static_cast<const sql::SelectStatement&>(stmt)));
      break;
    }
    case sql::StatementKind::kExplain: {
      const auto& explain = static_cast<const sql::ExplainStatement&>(stmt);
      if (explain.is_monitor()) {
        return Status::InvalidArgument(
            "standing EXPLAIN (EVERY/TRIGGERED/INTO) requires a "
            "monitor::MonitorService — route the statement through it "
            "(the server does this when one is attached)");
      }
      EXPLAINIT_ASSIGN_OR_RETURN(auto root,
                                 PlanExplain(explain, this, &executor));
      EXPLAINIT_ASSIGN_OR_RETURN(out.table, executor.ExecuteTree(root.get()));
      out.score_table = root->score_table();
      break;
    }
    case sql::StatementKind::kDropMonitor:
    case sql::StatementKind::kShowMonitors:
      return Status::InvalidArgument(
          "monitor statements require a monitor::MonitorService — route "
          "the statement through it (the server does this when one is "
          "attached)");
  }
  out.stats = executor.last_stats();
  return out;
}

Result<ScoreTable> Engine::Rank(const RankRequest& request) {
  EXPLAINIT_ASSIGN_OR_RETURN(std::unique_ptr<Scorer> scorer,
                             MakeScorer(request.scorer_name));
  // §3.3: X must not overlap Y or Z — drop candidates sharing their names.
  std::vector<FeatureFamily> candidates;
  candidates.reserve(request.candidates.size());
  for (const FeatureFamily& f : request.candidates) {
    if (f.name == request.target.name) continue;
    if (request.condition.has_value() && f.name == request.condition->name) {
      continue;
    }
    candidates.push_back(f);
  }
  return RankFamilies(
      *scorer, request.target,
      request.condition.has_value() ? &*request.condition : nullptr,
      candidates, request.ranking);
}

Result<ScoreTable> AlignAndRank(Engine* engine, RankRequest req) {
  // Align everything onto a common grid before ranking.
  std::vector<FeatureFamily> all;
  all.push_back(std::move(req.target));
  if (req.condition.has_value()) all.push_back(std::move(*req.condition));
  for (FeatureFamily& f : req.candidates) all.push_back(std::move(f));
  EXPLAINIT_RETURN_IF_ERROR(AlignFamilies(&all));
  size_t idx = 0;
  req.target = std::move(all[idx++]);
  if (req.condition.has_value()) req.condition = std::move(all[idx++]);
  for (size_t i = 0; idx < all.size(); ++i, ++idx) {
    req.candidates[i] = std::move(all[idx]);
  }
  return engine->Rank(req);
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Session::Session(Engine* engine, TimeRange total_range)
    : engine_(engine), total_range_(total_range) {}

Status Session::SetTargetByQuery(std::string_view sql) {
  EXPLAINIT_ASSIGN_OR_RETURN(QueryResult result, engine_->Query(sql));
  EXPLAINIT_ASSIGN_OR_RETURN(
      target_, FamilyFromRows(std::move(result.table), "target", "target"));
  return Status::OK();
}

Status Session::SetExplainRange(const TimeRange& range) {
  if (!range.Overlaps(total_range_)) {
    return Status::InvalidArgument(
        "explain range must overlap the total range");
  }
  explain_range_ = range;
  return Status::OK();
}

Status Session::SetConditionByQuery(std::string_view sql) {
  EXPLAINIT_ASSIGN_OR_RETURN(QueryResult result, engine_->Query(sql));
  EXPLAINIT_ASSIGN_OR_RETURN(
      condition_,
      FamilyFromRows(std::move(result.table), "condition", "Z:query"));
  return Status::OK();
}

Status Session::ConditionOnPseudocause(const PseudocauseOptions& options) {
  if (!target_.has_value()) {
    return Status::FailedPrecondition("set a target before conditioning");
  }
  EXPLAINIT_ASSIGN_OR_RETURN(Pseudocause pc,
                             BuildPseudocause(*target_, options));
  condition_ = std::move(pc.systematic);
  return Status::OK();
}

void Session::ClearCondition() { condition_.reset(); }

Status Session::SetSearchSpaceByQuery(std::string_view sql) {
  EXPLAINIT_ASSIGN_OR_RETURN(QueryResult result, engine_->Query(sql));
  EXPLAINIT_ASSIGN_OR_RETURN(candidates_, FamiliesFromTable(result.table));
  return Status::OK();
}

Status Session::DrillDown(const std::vector<std::string>& family_globs) {
  std::vector<FeatureFamily> kept;
  for (FeatureFamily& f : candidates_) {
    for (const std::string& glob : family_globs) {
      if (GlobMatch(glob, f.name)) {
        kept.push_back(std::move(f));
        break;
      }
    }
  }
  if (kept.empty()) {
    return Status::InvalidArgument("drill-down matched no families");
  }
  candidates_ = std::move(kept);
  return Status::OK();
}

Status Session::SetScorer(const std::string& name) {
  EXPLAINIT_ASSIGN_OR_RETURN(auto scorer, MakeScorer(name));
  (void)scorer;
  scorer_name_ = name;
  return Status::OK();
}

Result<ScoreTable> Session::Run() {
  if (!target_.has_value()) {
    return Status::FailedPrecondition("no target selected (step 1)");
  }
  if (candidates_.empty()) {
    return Status::FailedPrecondition("no search space selected (step 2)");
  }
  RankRequest req;
  req.target = *target_;
  req.condition = condition_;
  req.candidates = candidates_;
  req.scorer_name = scorer_name_;
  req.ranking.render_viz = true;
  if (explain_range_.has_value()) req.ranking.explain_range = explain_range_;
  // Session::Run and the declarative EXPLAIN path share one engine tail:
  // align onto a common grid, then rank.
  EXPLAINIT_ASSIGN_OR_RETURN(ScoreTable table,
                             AlignAndRank(engine_, std::move(req)));
  history_.push_back(table);
  return table;
}

}  // namespace explainit::core
