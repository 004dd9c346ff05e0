// Concurrent ingest throughput over the tiered storage engine: the
// datacentre simulator streams its trace time-major into a live store
// (background sealing on) while query threads run aggregations against
// the moving data — the write path never blocks on scans and vice versa.
//
// Differential parity gate: after the stream quiesces (Flush), a fixed
// query set runs against (a) the live tiered store through the
// vectorised pipeline, (b) a bulk-loaded reference store built from the
// identically-seeded trace, and (c) the seed row-at-a-time interpreter
// over the reference store. All three must agree on row counts and
// checksums — locking in that streamed sealing/compaction/rollup tiers
// never change query answers. The rollup-shaped queries additionally
// prove (via ScanStats) that they were served from rollup tiers, not raw
// decodes, and the windowed metric-set query reads only the stretch of
// each sealed segment its window needs; the query phase reports how many
// raw points it decoded in all. A bulk phase writes every streamed series
// back with one WriteSeries call into a fresh store, which must scan
// exactly as the streamed store does, and reports the bulk write rate.
// Emits BENCH_ingest.json.
//
// Usage: ingest [--smoke] [output.json]
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/seed_executor.h"
#include "common/time_util.h"
#include "simulator/datacentre.h"
#include "sql/executor.h"
#include "tsdb/store.h"

namespace explainit {
namespace {

constexpr unsigned kTraceSeed = 7;
constexpr size_t kQueryThreads = 2;

struct NamedQuery {
  const char* name;
  const char* sql;
};

// The parity set: raw aggregations, rollup-shaped grids (minute + hour,
// served from tiers on the live store), a top-K sort and a one-hour
// window over a metric-name set (seek + set pushdown on the live store).
const NamedQuery kQueries[] = {
    {"count_avg", "SELECT COUNT(*) AS n, AVG(value) AS a FROM tsdb"},
    {"per_metric",
     "SELECT metric_name AS m, AVG(value) AS a, MAX(value) AS mx "
     "FROM tsdb GROUP BY metric_name"},
    {"minute_sum",
     "SELECT DATE_TRUNC('minute', timestamp) AS m, SUM(value) AS s "
     "FROM tsdb GROUP BY DATE_TRUNC('minute', timestamp)"},
    {"hour_max",
     "SELECT DATE_TRUNC('hour', timestamp) AS h, MAX(value) AS mx "
     "FROM tsdb GROUP BY DATE_TRUNC('hour', timestamp)"},
    {"topk",
     "SELECT timestamp, value FROM tsdb "
     "ORDER BY value DESC, timestamp LIMIT 50"},
    {"window_set",
     "SELECT metric_name AS m, AVG(value) AS a FROM tsdb "
     "WHERE metric_name IN ('overall_runtime', 'tcp_retransmits') "
     "AND timestamp BETWEEN 3600 AND 7199 GROUP BY metric_name"},
};

// Queries the concurrent readers hammer while the stream is live.
const char* const kLiveQueries[] = {
    "SELECT COUNT(*) AS n, AVG(value) AS a FROM tsdb",
    "SELECT DATE_TRUNC('minute', timestamp) AS m, SUM(value) AS s "
    "FROM tsdb GROUP BY DATE_TRUNC('minute', timestamp)",
};

/// Catalog exposing `store` as the hinted `tsdb` provider over `range`.
void RegisterStore(sql::Catalog* catalog,
                   const std::shared_ptr<tsdb::SeriesStore>& store,
                   TimeRange range) {
  catalog->RegisterHintedProvider(
      "tsdb",
      [store, range](const tsdb::ScanHints& hints) -> Result<table::Table> {
        tsdb::ScanRequest req;
        req.range = range;
        req.hints = hints;
        return store->ScanToTable(req);
      });
}

struct QueryResult {
  double seconds = 0;
  size_t rows = 0;
  double checksum = 0;  // sum of the last column
};

template <typename Exec>
QueryResult Run(Exec& exec, const char* query) {
  const double t0 = MonotonicSeconds();
  auto res = exec.Query(query);
  if (!res.ok()) {
    std::fprintf(stderr, "query failed: %s\n  %s\n",
                 res.status().ToString().c_str(), query);
    std::abort();
  }
  QueryResult out;
  out.seconds = MonotonicSeconds() - t0;
  out.rows = res->num_rows();
  const size_t c = res->num_columns() - 1;
  for (size_t r = 0; r < res->num_rows(); ++r) {
    out.checksum += res->At(r, c).AsDouble();
  }
  return out;
}

bool Close(double a, double b) {
  return std::abs(a - b) <= 1e-6 * (1.0 + std::abs(a) + std::abs(b));
}

bool Matches(const QueryResult& a, const QueryResult& b) {
  return a.rows == b.rows && Close(a.checksum, b.checksum);
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_ingest.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  const size_t steps = smoke ? 180 : 2880;  // minutes of trace
  const TimeRange range{0, static_cast<int64_t>(steps) * 60};

  sim::DatacentreConfig config;
  sim::DatacentreModel model(config);
  std::printf("ingest bench: %zu-minute trace, %zu query threads%s\n",
              steps, kQueryThreads, smoke ? " [smoke]" : "");

  // The live store: tight seal threshold + background sealer, so the
  // stream crosses head -> segment -> rollup tiers while readers watch.
  tsdb::StoreOptions live_opts;
  live_opts.seal_max_points = 256;
  live_opts.background_seal = true;
  live_opts.compact_min_segments = 8;
  auto live = std::make_shared<tsdb::SeriesStore>(live_opts);

  std::atomic<bool> ingesting{true};
  std::atomic<size_t> live_queries{0};
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kQueryThreads; ++r) {
    readers.emplace_back([&live, &ingesting, &live_queries, range] {
      sql::Catalog catalog;
      sql::FunctionRegistry functions = sql::FunctionRegistry::Builtins();
      RegisterStore(&catalog, live, range);
      sql::Executor exec(&catalog, &functions, /*parallelism=*/1);
      do {
        for (const char* q : kLiveQueries) {
          Run(exec, q);
          live_queries.fetch_add(1, std::memory_order_relaxed);
        }
      } while (ingesting.load(std::memory_order_acquire));
    });
  }

  Rng stream_rng(kTraceSeed);
  const double t0 = MonotonicSeconds();
  if (auto s = model.StreamTo(live.get(), steps, 0, stream_rng); !s.ok()) {
    std::fprintf(stderr, "stream failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const double ingest_seconds = MonotonicSeconds() - t0;
  ingesting.store(false, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  if (auto s = live->Flush(); !s.ok()) {
    std::fprintf(stderr, "flush failed: %s\n", s.ToString().c_str());
    return 1;
  }

  const size_t points = live->num_points();
  const tsdb::StorageStats storage = live->storage_stats();
  std::printf(
      "  streamed %zu points / %zu series in %.3fs (%.0f points/s), "
      "%zu concurrent queries, %zu seals, %zu compactions\n",
      points, live->num_series(), ingest_seconds, points / ingest_seconds,
      live_queries.load(), storage.seals, storage.compactions);

  // Bulk phase: every streamed series written back with one WriteSeries
  // call into a fresh store tiered like the live one (best of 3 fresh
  // stores), which must then scan exactly as the streamed store does.
  auto streamed = live->Scan(tsdb::ScanRequest{});
  if (!streamed.ok()) {
    std::fprintf(stderr, "scan failed: %s\n",
                 streamed.status().ToString().c_str());
    return 1;
  }
  double bulk_seconds = 1e300;
  bool bulk_parity = true;
  for (int round = 0; round < 3; ++round) {
    tsdb::SeriesStore bulk(live_opts);
    const double b0 = MonotonicSeconds();
    for (const tsdb::SeriesData& s : *streamed) {
      if (auto st = bulk.WriteSeries(s.meta.metric_name, s.meta.tags,
                                     s.timestamps, s.values);
          !st.ok()) {
        std::fprintf(stderr, "bulk write failed: %s\n",
                     st.ToString().c_str());
        return 1;
      }
    }
    bulk_seconds = std::min(bulk_seconds, MonotonicSeconds() - b0);
    if (auto st = bulk.Flush(); !st.ok()) {
      std::fprintf(stderr, "flush failed: %s\n", st.ToString().c_str());
      return 1;
    }
    auto reread = bulk.Scan(tsdb::ScanRequest{});
    bool same = reread.ok() && reread->size() == streamed->size();
    for (size_t i = 0; same && i < streamed->size(); ++i) {
      const tsdb::SeriesData& a = (*streamed)[i];
      const tsdb::SeriesData& b = (*reread)[i];
      same = a.meta.metric_name == b.meta.metric_name &&
             a.meta.tags == b.meta.tags && a.timestamps == b.timestamps &&
             a.values == b.values;
    }
    if (!same) {
      std::fprintf(stderr, "bulk parity FAILED in round %d\n", round);
      bulk_parity = false;
    }
  }
  std::printf("  bulk-loaded %zu points / %zu series in %.3fs "
              "(%.0f points/s), parity %s\n",
              points, streamed->size(), bulk_seconds, points / bulk_seconds,
              bulk_parity ? "ok" : "FAILED");

  // Reference store: the identical trace (same seed) bulk-loaded into an
  // untiered store (huge thresholds — everything stays in the head).
  tsdb::StoreOptions ref_opts;
  ref_opts.seal_max_points = 1u << 30;
  ref_opts.seal_max_bytes = 1u << 30;
  ref_opts.background_seal = false;
  auto ref = std::make_shared<tsdb::SeriesStore>(ref_opts);
  Rng bulk_rng(kTraceSeed);
  if (auto s = model.WriteTo(ref.get(), steps, 0, bulk_rng); !s.ok()) {
    std::fprintf(stderr, "bulk load failed: %s\n", s.ToString().c_str());
    return 1;
  }

  sql::FunctionRegistry functions = sql::FunctionRegistry::Builtins();
  sql::Catalog live_catalog, ref_catalog;
  RegisterStore(&live_catalog, live, range);
  RegisterStore(&ref_catalog, ref, range);
  sql::Executor live_exec(&live_catalog, &functions);
  sql::Executor ref_exec(&ref_catalog, &functions);
  bench::SeedExecutor seed_exec(&ref_catalog, &functions);

  // Parity + timing: live tiered pipeline vs reference pipeline vs seed
  // interpreter, best-of-3 per configuration.
  bool parity = true;
  struct Row {
    const char* name;
    QueryResult live, ref, seed;
  };
  std::vector<Row> rows;
  live->ResetScanStats();
  for (const NamedQuery& q : kQueries) {
    Row row{q.name, {}, {}, {}};
    row.live.seconds = row.ref.seconds = row.seed.seconds = 1e300;
    for (int round = 0; round < 3; ++round) {
      const QueryResult l = Run(live_exec, q.sql);
      const QueryResult r = Run(ref_exec, q.sql);
      const QueryResult s = Run(seed_exec, q.sql);
      row.live.seconds = std::min(row.live.seconds, l.seconds);
      row.ref.seconds = std::min(row.ref.seconds, r.seconds);
      row.seed.seconds = std::min(row.seed.seconds, s.seconds);
      row.live.rows = l.rows;
      row.live.checksum = l.checksum;
      row.ref.rows = r.rows;
      row.ref.checksum = r.checksum;
      row.seed.rows = s.rows;
      row.seed.checksum = s.checksum;
      if (!Matches(s, l) || !Matches(s, r)) {
        std::fprintf(stderr, "parity FAILED on %s\n", q.name);
        parity = false;
      }
    }
    std::printf(
        "  %-10s | live %8.4fs | bulk-ref %8.4fs | seed %8.4fs | "
        "%6zu rows\n",
        row.name, row.live.seconds, row.ref.seconds, row.seed.seconds,
        row.live.rows);
    rows.push_back(row);
  }

  // The grid queries must actually have routed to rollup tiers on the
  // live (sealed) store.
  const tsdb::ScanStats scans = live->scan_stats();
  const bool rollup_served = scans.rollup_points_returned > 0 &&
                             scans.segments_rollup_served > 0;
  std::printf(
      "  rollup routing: %zu tier points served (%zu raw skipped), "
      "%zu segments from tiers, %zu raw fallbacks\n",
      scans.rollup_points_returned, scans.rollup_points_skipped,
      scans.segments_rollup_served, scans.segments_raw_fallback);
  std::printf("  query phase: %zu raw points decoded, %zu returned, "
              "%zu seek-index bytes\n",
              scans.points_decoded, scans.points_returned,
              storage.index_bytes);
  if (!rollup_served) {
    std::fprintf(stderr,
                 "rollup routing FAILED: grid queries decoded raw\n");
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n  \"bench\": \"ingest\",\n  \"hardware_threads\": %u,\n"
      "  \"smoke\": %s,\n"
      "  \"steps\": %zu,\n  \"series\": %zu,\n  \"points\": %zu,\n"
      "  \"ingest_seconds\": %.6f,\n  \"write_points_per_sec\": %.1f,\n"
      "  \"bulk_write_seconds\": %.6f,\n"
      "  \"bulk_write_points_per_sec\": %.1f,\n  \"bulk_parity\": %s,\n"
      "  \"concurrent_queries\": %zu,\n  \"seals\": %zu,\n"
      "  \"compactions\": %zu,\n  \"sealed_segments\": %zu,\n"
      "  \"rollup_points_served\": %zu,\n  \"raw_points_skipped\": %zu,\n"
      "  \"query_points_decoded\": %zu,\n  \"index_bytes\": %zu,\n"
      "  \"parity\": %s,\n  \"rollup_served\": %s,\n  \"queries\": [\n",
      std::thread::hardware_concurrency(), smoke ? "true" : "false", steps,
      live->num_series(), points, ingest_seconds, points / ingest_seconds,
      bulk_seconds, points / bulk_seconds, bulk_parity ? "true" : "false",
      live_queries.load(),
      storage.seals, storage.compactions, storage.sealed_segments,
      scans.rollup_points_returned, scans.rollup_points_skipped,
      scans.points_decoded, storage.index_bytes,
      parity ? "true" : "false", rollup_served ? "true" : "false");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"rows\": %zu, "
                 "\"live_sec\": %.6f, \"ref_sec\": %.6f, "
                 "\"seed_sec\": %.6f}%s\n",
                 r.name, r.live.rows, r.live.seconds, r.ref.seconds,
                 r.seed.seconds, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("  wrote %s\n", out_path.c_str());

  return (parity && bulk_parity && rollup_served) ? 0 : 1;
}

}  // namespace
}  // namespace explainit

int main(int argc, char** argv) { return explainit::Main(argc, argv); }
