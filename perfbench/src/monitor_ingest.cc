// monitor_ingest: always-on RCA, writes beside reads on one thread. The
// simulated datacentre is streamed time-major into a store that seals
// inline and keeps a few windows of data; one periodic standing EXPLAIN
// (EVERY 10m over a 1-hour window, the bench/monitor shape) slides once
// per op. The MonitorService is never started: the benchmark calls
// RunOnce itself, so no scheduler or sealer thread runs while ops are
// timed.
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "core/engine.h"
#include "monitor/monitor.h"
#include "perfbench.h"
#include "sql/executor.h"
#include "trace.h"

namespace explainit::perfbench {
namespace {

/// The simulated day, replayed as a periodic stream.
constexpr size_t kWorldMinutes = 1440;
constexpr size_t kWindowMinutes = 60;
constexpr size_t kStrideMinutes = 10;
/// One hour of minutes per sealed segment, and three windows retained.
constexpr size_t kSealPoints = 60;
constexpr int64_t kRetentionSeconds = 3 * 3600;
const TimeRange kTableRange{0, int64_t{1} << 40};
/// Slides of the traced run: untraced, then traced.
constexpr size_t kTracedSlides = 30;

const char* kHistory = "hist";

std::string StandingSql() {
  return "EXPLAIN (SELECT timestamp, AVG(value) AS y FROM tsdb "
         " WHERE metric_name = 'overall_runtime' GROUP BY timestamp) "
         "USING (SELECT timestamp, metric_name, AVG(value) AS v FROM tsdb "
         " WHERE metric_name != 'overall_runtime' "
         " GROUP BY timestamp, metric_name) "
         "SCORE BY 'L2' TOP 10 BETWEEN 0 AND 3599 EVERY 10m INTO hist";
}

/// The one-shot equivalent of a slide: explicit data bounds in every
/// WHERE plus the slid BETWEEN.
std::string OneShotSql(EpochSeconds w0, EpochSeconds w1) {
  const std::string lo = std::to_string(w0);
  const std::string hi = std::to_string(w1);
  return "EXPLAIN (SELECT timestamp, AVG(value) AS y FROM tsdb "
         " WHERE metric_name = 'overall_runtime' AND timestamp >= " +
         lo + " AND timestamp <= " + hi +
         " GROUP BY timestamp) "
         "USING (SELECT timestamp, metric_name, AVG(value) AS v FROM tsdb "
         " WHERE metric_name != 'overall_runtime' AND timestamp >= " +
         lo + " AND timestamp <= " + hi +
         " GROUP BY timestamp, metric_name) "
         "SCORE BY 'L2' TOP 10 BETWEEN " +
         lo + " AND " + hi;
}

/// True when run `run` of the history equals the one-shot Score Table:
/// rank, family, score, num_features and best_lambda (score_seconds is
/// wall time, run/run_ts are monitor bookkeeping), as CompareRun in
/// bench/monitor.cc.
bool SameRun(const table::Table& history, int64_t run,
             const table::Table& oneshot) {
  size_t row = 0;
  for (size_t r = 0; r < history.num_rows(); ++r) {
    if (history.At(r, 0).AsInt() != run) continue;
    if (row >= oneshot.num_rows()) return false;
    const bool equal =
        history.At(r, 2).AsInt() == oneshot.At(row, 0).AsInt() &&
        history.At(r, 3).AsString() == oneshot.At(row, 1).AsString() &&
        history.At(r, 4).AsDouble() == oneshot.At(row, 2).AsDouble() &&
        history.At(r, 5).AsInt() == oneshot.At(row, 3).AsInt() &&
        history.At(r, 6).AsDouble() == oneshot.At(row, 4).AsDouble();
    if (!equal) return false;
    ++row;
  }
  return row == oneshot.num_rows();
}

/// A store, an engine, the registered standing query, and the stream
/// position. Members are destroyed in reverse order: the service before
/// the engine, the engine before the store.
struct Setup {
  World world;
  std::shared_ptr<tsdb::SeriesStore> store;
  std::unique_ptr<core::Engine> engine;
  std::unique_ptr<sql::Executor> executor;
  std::unique_ptr<monitor::MonitorService> service;
  size_t next_minute = 0;  // first minute not yet written
  size_t runs = 0;         // slides run so far

  /// One slide: the next stride of data for every series, retention,
  /// then the standing query (spans tsdb.write and monitor.slide when
  /// traced). Returns the write seconds; *slide_s gets the RunOnce
  /// seconds.
  double Slide(Tracer* tracer, Status* status, double* slide_s) {
    const double write_s = Timed(tracer, "tsdb.write", [&] {
      return StreamMinutes(world, store.get(), next_minute,
                           next_minute + kStrideMinutes);
    });
    next_minute += kStrideMinutes;
    store->EvictExpired();
    const double t0 = MonotonicSeconds();
    *status = Timed(tracer, "monitor.slide",
                    [&] { return service->RunOnce(kHistory); });
    *slide_s = MonotonicSeconds() - t0;
    ++runs;
    return write_s;
  }
};

/// World, store, engine, monitor registration, the first window's data
/// and one warm-up slide (run 0).
std::unique_ptr<Setup> SetUp(uint64_t seed, Report* report) {
  auto s = std::make_unique<Setup>();
  s->world = MakeWorld(seed, kWorldMinutes);
  tsdb::StoreOptions store_options = InlineStoreOptions();
  store_options.seal_max_points = kSealPoints;
  store_options.retention_seconds = kRetentionSeconds;
  s->store = std::make_shared<tsdb::SeriesStore>(store_options);
  core::EngineOptions engine_options;
  engine_options.sql_parallelism = 1;
  s->engine = std::make_unique<core::Engine>(s->store, engine_options);
  s->engine->RegisterStoreTable("tsdb", kTableRange);
  s->executor = std::make_unique<sql::Executor>(&s->engine->catalog(),
                                                &s->engine->functions());
  s->service = std::make_unique<monitor::MonitorService>(s->engine.get());
  auto registered = s->service->Query(*s->executor, StandingSql());
  if (!registered.ok()) {
    report->Fail("register: " + registered.status().ToString());
    return nullptr;
  }
  StreamMinutes(s->world, s->store.get(), 0, kWindowMinutes);
  s->next_minute = kWindowMinutes;
  const Status warm = s->service->RunOnce(kHistory);
  ++s->runs;
  if (!warm.ok()) {
    report->Fail("warm-up slide: " + warm.ToString());
    return nullptr;
  }
  return s;
}

/// Replays every written minute into a fresh store without retention
/// and compares each slide's history rows with the explicitly bounded
/// one-shot EXPLAIN of its window. Returns per-run verdicts (1 = same).
std::vector<char> CheckRuns(const Setup& s, Report* report) {
  std::vector<char> ok(s.runs, 0);
  auto reference = std::make_shared<tsdb::SeriesStore>(InlineStoreOptions());
  StreamMinutes(s.world, reference.get(), 0, s.next_minute);
  core::Engine engine(reference);
  engine.RegisterStoreTable("tsdb", kTableRange);
  auto history = s.service->History(kHistory);
  if (!history.ok()) {
    report->Fail("history: " + history.status().ToString());
    return ok;
  }
  const table::Table snapshot = (*history)->Snapshot();
  // The one-shots are independent: a few sessions, each a serial
  // executor like the monitor's, split them.
  constexpr size_t kCheckSessions = 3;
  std::vector<std::thread> sessions;
  for (size_t t = 0; t < kCheckSessions; ++t) {
    sessions.emplace_back([&, t] {
      sql::Executor executor(&engine.catalog(), &engine.functions());
      for (size_t k = t; k < s.runs; k += kCheckSessions) {
        const EpochSeconds w0 =
            static_cast<EpochSeconds>(k * kStrideMinutes) * kSecondsPerMinute;
        auto oneshot = engine.QueryWith(
            executor, OneShotSql(w0, w0 + kWindowMinutes * 60 - 1));
        ok[k] = oneshot.ok() &&
                SameRun(snapshot, static_cast<int64_t>(k), oneshot->table);
      }
    });
  }
  for (std::thread& t : sessions) t.join();
  for (size_t k = 0; k < s.runs; ++k) {
    if (!ok[k]) {
      report->Fail("slide " + std::to_string(k) +
                   " differs from its one-shot EXPLAIN");
    }
  }
  return ok;
}

void RunUntraced(const Options& options, Report* report) {
  EndToEnd e2e;
  double t0 = MonotonicSeconds();
  std::unique_ptr<Setup> s = SetUp(options.seed, report);
  e2e.setup_seconds.push_back(MonotonicSeconds() - t0);
  if (s == nullptr) return;
  std::vector<bool> status_ok;
  e2e.writes.points_per_batch = s->world.series.size() * kStrideMinutes;
  e2e.phase = RunOps(options.seconds, [&] {
    Status st;
    double slide_s = 0.0;
    e2e.writes.batch_seconds.push_back(s->Slide(nullptr, &st, &slide_s));
    if (!st.ok()) std::fprintf(stderr, "slide: %s\n", st.ToString().c_str());
    status_ok.push_back(st.ok());
    // Taken at a slide every run reaches, so it is exact per seed.
    if (status_ok.size() == kMinOps) {
      e2e.bytes_per_point =
          static_cast<double>(s->store->compressed_bytes()) /
          static_cast<double>(s->store->num_points());
    }
    return slide_s;
  });
  e2e.peak_rss_mb = PeakRssMb();
  const std::vector<char> same = CheckRuns(*s, report);
  // Timed slides are runs 1.. (run 0 is the warm-up).
  for (size_t i = 0; i < status_ok.size(); ++i) {
    report->CountOp(status_ok[i] && same[i + 1]);
  }
  PrintConfig("sql_parallelism", "1");
  PrintConfig("retained_points", std::to_string(s->store->num_points()));

  while (MoreSetUps(e2e.setup_seconds)) {
    s.reset();  // tear the previous set-up down before timing the next
    t0 = MonotonicSeconds();
    s = SetUp(options.seed, report);
    e2e.setup_seconds.push_back(MonotonicSeconds() - t0);
    if (s == nullptr) return;
  }
  AddEndToEnd(e2e, report);
}

void RunTraced(const Options& options, Report* report) {
  std::unique_ptr<Setup> s = SetUp(options.seed, report);
  if (s == nullptr) return;
  std::vector<bool> status_ok;
  std::vector<double> untraced_s;
  for (size_t i = 0; i < kTracedSlides; ++i) {
    Status st;
    double slide_s = 0.0;
    s->Slide(nullptr, &st, &slide_s);
    status_ok.push_back(st.ok());
    untraced_s.push_back(slide_s);
  }

  Tracer tracer;
  std::vector<double> traced_s;
  double write_s = 0.0;
  const auto scans_before = s->service->ScanStats(kHistory);
  for (size_t i = 0; i < kTracedSlides; ++i) {
    Status st;
    double slide_s = 0.0;
    const size_t root = tracer.Begin("op");
    write_s += s->Slide(&tracer, &st, &slide_s);
    tracer.End(root);
    status_ok.push_back(st.ok());
    traced_s.push_back(slide_s);
  }
  const auto scans_after = s->service->ScanStats(kHistory);

  const std::vector<char> same = CheckRuns(*s, report);
  for (size_t i = 0; i < status_ok.size(); ++i) {
    report->CountOp(status_ok[i] && same[i + 1]);
  }

  std::map<std::string, double> m;
  AddTraceMetrics(tracer, StatementTrace{}, kTracedSlides, &m);
  AddStorageMetrics(*s->store, &m);
  const double points =
      static_cast<double>(s->world.series.size() * kStrideMinutes);
  m["tsdb.write_ns_per_point"] =
      write_s * 1e9 / (points * static_cast<double>(kTracedSlides));
  if (scans_before.ok() && scans_after.ok()) {
    const double reused = static_cast<double>(scans_after->rows_reused -
                                              scans_before->rows_reused);
    const double delta = static_cast<double>(scans_after->rows_delta -
                                             scans_before->rows_delta);
    m["monitor.rows_reused_ratio"] = reused / std::max(reused + delta, 1.0);
    m["monitor.delta_scans"] = static_cast<double>(
        scans_after->delta_scans - scans_before->delta_scans);
    m["monitor.full_scans"] = static_cast<double>(scans_after->full_scans -
                                                  scans_before->full_scans);
  }
  m["trace.overhead_ms"] =
      (Percentile(traced_s, 0.5) - Percentile(untraced_s, 0.5)) * 1e3;
  AddLayers(m, report);
}

}  // namespace

void RunMonitorIngest(const Options& options, Report* report) {
  if (options.trace) {
    RunTraced(options, report);
  } else {
    RunUntraced(options, report);
  }
}

}  // namespace explainit::perfbench
