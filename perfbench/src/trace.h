// The benchmark's per-layer trace. Spans are recorded from the
// benchmark's own code around calls into each module's public functions
// (no instrumentation inside the program): a traced statement is driven
// through parse -> PlanSelect -> ExecuteTree (SELECT), or decomposed the
// way RankOperator::OpenImpl composes it (EXPLAIN), and store scans are
// timed by a wrapper provider registered exactly like
// Engine::RegisterStoreTable.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/time_util.h"
#include "core/engine.h"
#include "core/ranking.h"
#include "sql/executor.h"
#include "table/table.h"

namespace explainit::perfbench {

/// In-memory span recorder. A span's parent is the innermost span open
/// when it began; self time is its duration minus the part of it its
/// children cover.
class Tracer {
 public:
  size_t Begin(const char* name);
  void End(size_t id);

  /// Self seconds summed per span name over every recorded span.
  std::map<std::string, double> SelfSeconds() const;
  /// Total (inclusive) seconds summed per span name.
  std::map<std::string, double> TotalSeconds() const;

 private:
  struct Span {
    const char* name;
    double start;
    double end;
    long parent;  // -1 = root
  };
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Runs f() inside a span named `name`; a null tracer runs it untimed.
template <typename F>
auto Timed(Tracer* tracer, const char* name, F&& f) {
  if (tracer == nullptr) return f();
  const size_t id = tracer->Begin(name);
  auto result = f();
  tracer->End(id);
  return result;
}

/// Counters statements report through their public results, summed
/// over every traced statement.
struct StatementTrace {
  std::vector<std::string> plan_texts;  // one per executed SELECT tree
  size_t rows_scanned = 0;
  size_t rows_output = 0;
  size_t rewrites = 0;    // reorders + agg pushdowns + count-rollup rewrites
  size_t candidates = 0;  // EXPLAIN: USING families
  size_t hypotheses = 0;  // EXPLAIN: families actually scored
  core::RankStageStats stage;
};

/// A SELECT through parse -> Executor::PlanSelect -> Executor::ExecuteTree.
Result<table::Table> TracedSelect(Tracer* tracer, sql::Executor& executor,
                                  const std::string& sql,
                                  StatementTrace* trace);

/// A one-shot EXPLAIN decomposed into the public calls
/// RankOperator::OpenImpl makes: per sub-select PlanSelect + ExecuteTree +
/// NormalizeToFeatureFamilyTable + FamiliesFromTable + MergeFamilies,
/// GIVEN PSEUDOCAUSE via BuildPseudocause, then AlignFamilies and
/// Engine::Rank. Returns the Score Table as the server sends it.
Result<table::Table> TracedExplain(Tracer* tracer, core::Engine& engine,
                                   sql::Executor& executor,
                                   const std::string& sql,
                                   StatementTrace* trace);

/// Round-trips a result through the server's reply codec (EncodeResult,
/// then DecodeResult as the client does) in spans server.encode and
/// server.decode.
Result<table::Table> TracedReply(Tracer* tracer, table::Table table);

/// Registers `table_name` over `store` with the same HintedProviderOptions
/// Engine::RegisterStoreTable uses (live estimated_rows, exact_rollups),
/// timing every ScanToTable call as a tsdb.scan span and adding the rows
/// it returns to *scan_rows.
void RegisterTracedStoreTable(sql::Catalog* catalog,
                              tsdb::SeriesStore* store,
                              const std::string& table_name,
                              const TimeRange& range, Tracer* tracer,
                              size_t* scan_rows);

/// Per-layer metrics derivable from the spans and statement counters,
/// as per-op averages over `ops` traced ops whose root spans are "op".
void AddTraceMetrics(const Tracer& tracer, const StatementTrace& trace,
                     size_t ops, std::map<std::string, double>* out);

/// Scan counters (tsdb.points_decoded, tsdb.rollup_points per op and
/// tsdb.rollup_segment_share) from two scan_stats() readings.
void AddScanMetrics(const tsdb::ScanStats& before,
                    const tsdb::ScanStats& after, size_t ops,
                    std::map<std::string, double>* out);

/// Lifetime maintenance counters of `store` (seals, compactions,
/// retention-evicted points).
void AddStorageMetrics(const tsdb::SeriesStore& store,
                       std::map<std::string, double>* out);

}  // namespace explainit::perfbench
