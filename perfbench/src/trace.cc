#include "trace.h"

#include <algorithm>
#include <utility>

#include "core/feature_family.h"
#include "core/pseudocause.h"
#include "server/protocol.h"
#include "sql/parser.h"

namespace explainit::perfbench {

size_t Tracer::Begin(const char* name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const long parent = open_.empty() ? -1 : static_cast<long>(open_.back());
  spans_.push_back(Span{name, MonotonicSeconds(), 0.0, parent});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::End(size_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id].end = MonotonicSeconds();
  open_.erase(std::find(open_.begin(), open_.end(), id));
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) children[spans_[i].parent].push_back(i);
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the span.
    std::vector<std::pair<double, double>> kids;
    for (size_t c : children[i]) {
      kids.emplace_back(std::max(s.start, spans_[c].start),
                        std::min(s.end, spans_[c].end));
    }
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start;
    for (const auto& [a, b] : kids) {
      const double from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    out[s.name] += (s.end - s.start) - covered;
  }
  return out;
}

std::map<std::string, double> Tracer::TotalSeconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += s.end - s.start;
  return out;
}

namespace {

/// Plans and executes one SELECT tree on `executor`, recording its plan
/// text and row counters.
Result<table::Table> PlanAndExecute(Tracer* tracer, sql::Executor& executor,
                                    const sql::SelectStatement& stmt,
                                    StatementTrace* trace) {
  EXPLAINIT_ASSIGN_OR_RETURN(
      auto root, Timed(tracer, "sql.plan",
                       [&] { return executor.PlanSelect(stmt); }));
  // The operator tree (and the scan output it holds) is freed inside the
  // sql.exec span.
  EXPLAINIT_ASSIGN_OR_RETURN(
      table::Table out, Timed(tracer, "sql.exec", [&] {
        const std::unique_ptr<sql::Operator> tree = std::move(root);
        return executor.ExecuteTree(tree.get());
      }));
  const sql::ExecStats& s = executor.last_stats();
  trace->plan_texts.push_back(s.plan_text);
  trace->rows_scanned += s.rows_scanned;
  trace->rows_output += s.rows_output;
  trace->rewrites +=
      s.joins_reordered + s.agg_pushdowns + s.count_rollup_rewrites;
  return out;
}

// Each stage below takes its input by move and lets it die inside the
// stage's span, so freeing a stage's input is charged to that stage
// rather than to the op's unattributed time.

/// Sub-select rows -> Feature Family Table -> families.
Result<std::vector<core::FeatureFamily>> Families(Tracer* tracer,
                                                  table::Table rows,
                                                  const std::string& fallback) {
  EXPLAINIT_ASSIGN_OR_RETURN(
      table::Table ff, Timed(tracer, "core.normalize", [&] {
        const table::Table in = std::move(rows);
        return core::NormalizeToFeatureFamilyTable(in, fallback);
      }));
  return Timed(tracer, "core.families", [&] {
    const table::Table in = std::move(ff);
    return core::FamiliesFromTable(in);
  });
}

/// Sub-select rows -> one merged family, as RankOperator::OpenImpl builds
/// the target and GIVEN sides.
Result<core::FeatureFamily> MergedFamily(Tracer* tracer, table::Table rows,
                                         const std::string& fallback,
                                         const std::string& name) {
  EXPLAINIT_ASSIGN_OR_RETURN(auto fams,
                             Families(tracer, std::move(rows), fallback));
  if (fams.empty()) {
    return Status::InvalidArgument("EXPLAIN " + fallback +
                                   " query produced no families");
  }
  return Timed(tracer, "core.families", [&] {
    const auto in = std::move(fams);
    return core::MergeFamilies(in, name);
  });
}

void AddStage(const core::RankStageStats& s, core::RankStageStats* sum) {
  sum->gram_ns += s.gram_ns;
  sum->factor_ns += s.factor_ns;
  sum->solve_ns += s.solve_ns;
  sum->predict_ns += s.predict_ns;
  sum->design_hits += s.design_hits;
  sum->design_misses += s.design_misses;
  sum->factor_hits += s.factor_hits;
  sum->factor_misses += s.factor_misses;
  sum->fit_hits += s.fit_hits;
  sum->fit_misses += s.fit_misses;
}

}  // namespace

Result<table::Table> TracedSelect(Tracer* tracer, sql::Executor& executor,
                                  const std::string& sql,
                                  StatementTrace* trace) {
  EXPLAINIT_ASSIGN_OR_RETURN(
      auto stmt,
      Timed(tracer, "sql.parse", [&] { return sql::ParseStatement(sql); }));
  if (stmt->kind() != sql::StatementKind::kSelect) {
    return Status::InvalidArgument("not a SELECT: " + sql);
  }
  return PlanAndExecute(tracer, executor,
                        static_cast<const sql::SelectStatement&>(*stmt),
                        trace);
}

Result<table::Table> TracedExplain(Tracer* tracer, core::Engine& engine,
                                   sql::Executor& executor,
                                   const std::string& sql,
                                   StatementTrace* trace) {
  EXPLAINIT_ASSIGN_OR_RETURN(
      auto parsed,
      Timed(tracer, "sql.parse", [&] { return sql::ParseStatement(sql); }));
  if (parsed->kind() != sql::StatementKind::kExplain) {
    return Status::InvalidArgument("not an EXPLAIN: " + sql);
  }
  const auto& stmt = static_cast<const sql::ExplainStatement&>(*parsed);

  // Sub-selects in OpenImpl's order: target, GIVEN, USING. Each is
  // planned right before it runs (ExecuteTree records the plan text of
  // the latest PlanSelect only), so every tree reports its own plan.
  core::RankRequest req;
  EXPLAINIT_ASSIGN_OR_RETURN(
      table::Table target_rows,
      PlanAndExecute(tracer, executor, *stmt.target, trace));
  EXPLAINIT_ASSIGN_OR_RETURN(
      req.target,
      MergedFamily(tracer, std::move(target_rows), "target", "target"));
  if (stmt.given != nullptr) {
    EXPLAINIT_ASSIGN_OR_RETURN(
        table::Table given_rows,
        PlanAndExecute(tracer, executor, *stmt.given, trace));
    EXPLAINIT_ASSIGN_OR_RETURN(
        req.condition,
        MergedFamily(tracer, std::move(given_rows), "condition", "Z:query"));
  } else if (stmt.given_pseudocause) {
    EXPLAINIT_ASSIGN_OR_RETURN(
        core::Pseudocause pc, Timed(tracer, "core.pseudocause", [&] {
          return core::BuildPseudocause(req.target);
        }));
    req.condition = std::move(pc.systematic);
  }
  EXPLAINIT_ASSIGN_OR_RETURN(
      table::Table space_rows,
      PlanAndExecute(tracer, executor, *stmt.search_space, trace));
  EXPLAINIT_ASSIGN_OR_RETURN(
      req.candidates, Families(tracer, std::move(space_rows), "family"));
  trace->candidates += req.candidates.size();

  if (!stmt.scorer.empty()) req.scorer_name = stmt.scorer;
  if (stmt.top_k.has_value()) {
    req.ranking.top_k = static_cast<size_t>(*stmt.top_k);
  }
  if (stmt.between_start.has_value() && stmt.between_end.has_value()) {
    req.ranking.explain_range =
        TimeRange{*stmt.between_start, *stmt.between_end + 1};
  }
  req.ranking.render_viz = true;
  const sql::ExecContext* ctx = executor.exec_context();
  if (ctx->parallel()) {
    req.ranking.pool = ctx->pool;
    req.ranking.num_threads = ctx->parallelism;
  } else {
    req.ranking.num_threads = 1;
  }

  // AlignAndRank, split into its two public calls.
  std::vector<core::FeatureFamily> all;
  all.push_back(std::move(req.target));
  if (req.condition.has_value()) all.push_back(std::move(*req.condition));
  for (core::FeatureFamily& f : req.candidates) all.push_back(std::move(f));
  EXPLAINIT_RETURN_IF_ERROR(Timed(
      tracer, "core.align", [&] { return core::AlignFamilies(&all); }));
  size_t idx = 0;
  req.target = std::move(all[idx++]);
  if (req.condition.has_value()) req.condition = std::move(all[idx++]);
  for (size_t i = 0; idx < all.size(); ++i, ++idx) {
    req.candidates[i] = std::move(all[idx]);
  }
  for (const core::FeatureFamily& f : req.candidates) {
    const bool excluded =
        f.name == req.target.name ||
        (req.condition.has_value() && f.name == req.condition->name);
    if (!excluded) ++trace->hypotheses;
  }
  EXPLAINIT_ASSIGN_OR_RETURN(core::ScoreTable scores,
                             Timed(tracer, "rank", [&] {
                               const core::RankRequest in = std::move(req);
                               return engine.Rank(in);
                             }));
  AddStage(scores.stage, &trace->stage);
  return scores.ToTable();
}

Result<table::Table> TracedReply(Tracer* tracer, table::Table table) {
  server::QueryReply reply;
  reply.rows_output = table.num_rows();
  reply.table = std::move(table);
  const std::vector<uint8_t> payload = Timed(
      tracer, "server.encode", [&] { return server::EncodeResult(reply); });
  EXPLAINIT_ASSIGN_OR_RETURN(
      server::QueryReply decoded, Timed(tracer, "server.decode", [&] {
        return server::DecodeResult(payload.data(), payload.size());
      }));
  return std::move(decoded.table);
}

void RegisterTracedStoreTable(sql::Catalog* catalog,
                              tsdb::SeriesStore* store,
                              const std::string& table_name,
                              const TimeRange& range, Tracer* tracer,
                              size_t* scan_rows) {
  sql::HintedProviderOptions provider_options;
  provider_options.estimated_rows = [store] { return store->num_points(); };
  provider_options.exact_rollups = true;
  catalog->RegisterHintedProvider(
      table_name,
      [store, range, tracer,
       scan_rows](const tsdb::ScanHints& hints) -> Result<table::Table> {
        tsdb::ScanRequest req;
        req.range = range;
        req.hints = hints;
        auto out =
            Timed(tracer, "tsdb.scan", [&] { return store->ScanToTable(req); });
        if (out.ok()) *scan_rows += out->num_rows();
        return out;
      },
      std::move(provider_options));
}

void AddTraceMetrics(const Tracer& tracer, const StatementTrace& trace,
                     size_t ops, std::map<std::string, double>* out) {
  const std::map<std::string, double> total = tracer.TotalSeconds();
  const std::map<std::string, double> self = tracer.SelfSeconds();
  const double n = static_cast<double>(ops);
  auto ms = [n](const std::map<std::string, double>& m, const char* span) {
    const auto it = m.find(span);
    return it == m.end() ? 0.0 : it->second * 1e3 / n;
  };
  (*out)["server.encode_ms"] = ms(total, "server.encode");
  (*out)["server.decode_ms"] = ms(total, "server.decode");
  (*out)["sql.parse_ms"] = ms(total, "sql.parse");
  (*out)["sql.plan_ms"] = ms(total, "sql.plan");
  (*out)["sql.exec_self_ms"] = ms(self, "sql.exec");
  (*out)["tsdb.scan_ms"] = ms(total, "tsdb.scan");
  (*out)["core.normalize_ms"] = ms(total, "core.normalize");
  (*out)["core.families_ms"] = ms(total, "core.families");
  (*out)["core.pseudocause_ms"] = ms(total, "core.pseudocause");
  (*out)["core.align_ms"] = ms(total, "core.align");
  (*out)["rank.total_ms"] = ms(total, "rank");
  (*out)["monitor.slide_ms"] = ms(total, "monitor.slide");
  (*out)["trace.ops"] = n;
  (*out)["trace.op_ms"] = ms(total, "op");
  (*out)["trace.unattributed_ms"] = ms(self, "op");
  (*out)["trace.unattributed_share"] =
      ms(self, "op") / std::max(ms(total, "op"), 1e-12);

  (*out)["sql.rewrites"] = static_cast<double>(trace.rewrites) / n;
  (*out)["sql.rows_in_per_row_out"] =
      static_cast<double>(trace.rows_scanned) /
      static_cast<double>(std::max<size_t>(trace.rows_output, 1));
  (*out)["core.candidates"] = static_cast<double>(trace.candidates) / n;
  (*out)["rank.hypotheses"] = static_cast<double>(trace.hypotheses) / n;
  const core::RankStageStats& s = trace.stage;
  (*out)["rank.gram_ms"] = static_cast<double>(s.gram_ns) / 1e6 / n;
  (*out)["rank.factor_ms"] = static_cast<double>(s.factor_ns) / 1e6 / n;
  (*out)["rank.solve_ms"] = static_cast<double>(s.solve_ns) / 1e6 / n;
  (*out)["rank.predict_ms"] = static_cast<double>(s.predict_ns) / 1e6 / n;
  const size_t lookups = s.total_hits() + s.total_misses();
  (*out)["rank.cache_hit_ratio"] =
      lookups == 0 ? 0.0
                   : static_cast<double>(s.total_hits()) /
                         static_cast<double>(lookups);
}

void AddScanMetrics(const tsdb::ScanStats& before,
                    const tsdb::ScanStats& after, size_t ops,
                    std::map<std::string, double>* out) {
  const double n = static_cast<double>(ops);
  (*out)["tsdb.points_decoded"] =
      static_cast<double>(after.points_decoded - before.points_decoded) / n;
  (*out)["tsdb.rollup_points"] =
      static_cast<double>(after.rollup_points_returned -
                          before.rollup_points_returned) /
      n;
  const size_t served =
      after.segments_rollup_served - before.segments_rollup_served;
  const size_t raw =
      after.segments_raw_fallback - before.segments_raw_fallback;
  (*out)["tsdb.rollup_segment_share"] =
      served + raw == 0 ? 0.0
                        : static_cast<double>(served) /
                              static_cast<double>(served + raw);
}

void AddStorageMetrics(const tsdb::SeriesStore& store,
                       std::map<std::string, double>* out) {
  const tsdb::StorageStats s = store.storage_stats();
  (*out)["tsdb.seals"] = static_cast<double>(s.seals);
  (*out)["tsdb.compactions"] = static_cast<double>(s.compactions);
  (*out)["tsdb.evicted_points"] =
      static_cast<double>(s.retention_evicted_points);
}

}  // namespace explainit::perfbench
