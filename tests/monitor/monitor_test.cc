#include "monitor/monitor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "exec/worker_pool.h"
#include "sql/executor.h"
#include "tsdb/store.h"

namespace explainit::monitor {
namespace {

// Same causal world as the engine tests, on a minute grid:
//   input_rate -> runtime (target) -> latency (effect); disk_noise is
//   independent.
struct WorldMinute {
  double rate, runtime, latency, noise;
};

std::vector<WorldMinute> MakeWorld(size_t t, uint64_t seed) {
  Rng rng(seed);
  std::vector<WorldMinute> world(t);
  for (WorldMinute& m : world) {
    m.rate = rng.Normal(1000.0, 150.0);
    m.runtime = 0.01 * m.rate + rng.Normal() * 0.4;
    m.latency = 1.5 * m.runtime + rng.Normal() * 0.4;
    m.noise = rng.Normal(5.0, 1.0);
  }
  return world;
}

// Writes minutes [from, to) of the world's series; `latency` = false
// leaves pipeline_latency out (a lagging collector).
void WriteMinutes(tsdb::SeriesStore* store,
                  const std::vector<WorldMinute>& world, size_t from,
                  size_t to, bool latency = true) {
  const tsdb::TagSet pipeline{{"pipeline_name", "p1"}};
  for (size_t i = from; i < to; ++i) {
    const EpochSeconds ts = static_cast<int64_t>(i) * 60;
    const WorldMinute& m = world[i];
    EXPECT_TRUE(store->Write("pipeline_input_rate", pipeline, ts, m.rate).ok());
    EXPECT_TRUE(store->Write("pipeline_runtime", pipeline, ts, m.runtime).ok());
    if (latency) {
      EXPECT_TRUE(
          store->Write("pipeline_latency", pipeline, ts, m.latency).ok());
    }
    EXPECT_TRUE(store
                    ->Write("disk_noise", tsdb::TagSet{{"host", "dn-1"}}, ts,
                            m.noise)
                    .ok());
  }
}

// Writes only pipeline_latency for minutes [from, to).
void WriteLatency(tsdb::SeriesStore* store,
                  const std::vector<WorldMinute>& world, size_t from,
                  size_t to) {
  for (size_t i = from; i < to; ++i) {
    EXPECT_TRUE(store
                    ->Write("pipeline_latency",
                            tsdb::TagSet{{"pipeline_name", "p1"}},
                            static_cast<int64_t>(i) * 60, world[i].latency)
                    .ok());
  }
}

std::shared_ptr<tsdb::SeriesStore> MakeStore(
    size_t t, uint64_t seed, tsdb::StoreOptions options = {}) {
  auto store = std::make_shared<tsdb::SeriesStore>(options);
  WriteMinutes(store.get(), MakeWorld(t, seed), 0, t);
  return store;
}

// The standing query: 1h window sliding by 10 minutes, history into hist.
constexpr const char* kMonitorSql =
    "EXPLAIN (SELECT timestamp, AVG(value) AS y FROM tsdb "
    "         WHERE metric_name = 'pipeline_runtime' GROUP BY timestamp) "
    "USING (SELECT timestamp, metric_name, AVG(value) AS v FROM tsdb "
    "       WHERE metric_name != 'pipeline_runtime' "
    "       GROUP BY timestamp, metric_name) "
    "SCORE BY 'L2' TOP 5 BETWEEN 0 AND 3599 EVERY 10m INTO hist";

// The one-shot equivalent of run k of kMonitorSql. BETWEEN only sets the
// Rank operator's scoring window; the monitor's store tables additionally
// restrict the *data* each sub-select sees to the window, so the
// equivalent one-shot carries explicit timestamp bounds in every WHERE.
std::string OneShotForWindow(EpochSeconds w0, EpochSeconds w1) {
  const std::string lo = std::to_string(w0);
  const std::string hi = std::to_string(w1);
  return "EXPLAIN (SELECT timestamp, AVG(value) AS y FROM tsdb "
         "WHERE metric_name = 'pipeline_runtime' AND timestamp >= " +
         lo + " AND timestamp <= " + hi +
         " GROUP BY timestamp) "
         "USING (SELECT timestamp, metric_name, AVG(value) AS v FROM tsdb "
         "WHERE metric_name != 'pipeline_runtime' AND timestamp >= " +
         lo + " AND timestamp <= " + hi +
         " GROUP BY timestamp, metric_name) "
         "SCORE BY 'L2' TOP 5 BETWEEN " +
         lo + " AND " + hi;
}

// Run k of the history table `hist` must equal the bounded one-shot
// EXPLAIN of [w0, w1] row for row (same serial executor, same data ->
// bitwise-equal scores).
void ExpectRunMatchesOneShot(core::Engine& engine, int64_t k, EpochSeconds w0,
                             EpochSeconds w1) {
  auto runs = engine.Query(
      "SELECT rank, family, score, run_ts FROM hist WHERE run = " +
      std::to_string(k) + " ORDER BY rank");
  ASSERT_TRUE(runs.ok()) << runs.status().ToString();
  auto oneshot = engine.Query(OneShotForWindow(w0, w1));
  ASSERT_TRUE(oneshot.ok()) << oneshot.status().ToString();
  ASSERT_EQ(runs->table.num_rows(), oneshot->table.num_rows()) << "run " << k;
  for (size_t r = 0; r < runs->table.num_rows(); ++r) {
    SCOPED_TRACE("run " + std::to_string(k) + " row " + std::to_string(r));
    EXPECT_EQ(runs->table.At(r, 0).AsInt(), oneshot->table.At(r, 0).AsInt());
    EXPECT_EQ(runs->table.At(r, 1).AsString(),
              oneshot->table.At(r, 1).AsString());
    EXPECT_EQ(runs->table.At(r, 2).AsDouble(),
              oneshot->table.At(r, 2).AsDouble());
    EXPECT_EQ(runs->table.At(r, 3).AsTimestamp(), w1);
  }
}

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest() : engine_(MakeStore(120, 7)) {
    engine_.RegisterStoreTable("tsdb", TimeRange{0, 120 * 60});
  }

  sql::Executor MakeExecutor() {
    return sql::Executor(&engine_.catalog(), &engine_.functions(), 1,
                         &exec::WorkerPool::Global());
  }

  core::Engine engine_;
};

TEST_F(MonitorTest, RegisterShowDropRoundTrip) {
  MonitorService service(&engine_);
  sql::Executor executor = MakeExecutor();

  auto reg = service.Query(executor, kMonitorSql);
  ASSERT_TRUE(reg.ok()) << reg.status().ToString();
  EXPECT_EQ(reg->kind, sql::StatementKind::kExplain);
  ASSERT_EQ(reg->table.num_rows(), 1u);
  EXPECT_EQ(reg->table.At(0, 0).AsString(), "hist");
  EXPECT_EQ(service.active_monitors(), 1u);

  auto show = service.Query(executor, "SHOW MONITORS");
  ASSERT_TRUE(show.ok()) << show.status().ToString();
  ASSERT_EQ(show->table.num_rows(), 1u);
  EXPECT_EQ(show->table.At(0, 0).AsString(), "hist");
  EXPECT_EQ(show->table.At(0, 1).AsString(), "PERIODIC");
  EXPECT_EQ(show->table.At(0, 2).AsString(), "10m");

  auto dropped = service.Query(executor, "DROP MONITOR hist");
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  EXPECT_EQ(service.active_monitors(), 0u);
  auto again = service.Query(executor, "DROP MONITOR hist");
  EXPECT_TRUE(again.status().IsNotFound());
}

TEST_F(MonitorTest, RegistrationValidation) {
  MonitorService service(&engine_);
  sql::Executor executor = MakeExecutor();

  // A standing query needs an explicit BETWEEN window to slide.
  auto no_window = service.Query(
      executor,
      "EXPLAIN (SELECT timestamp, AVG(value) AS y FROM tsdb "
      " WHERE metric_name = 'pipeline_runtime' GROUP BY timestamp) "
      "USING (SELECT timestamp, metric_name, AVG(value) AS v FROM tsdb "
      " WHERE metric_name != 'pipeline_runtime' "
      " GROUP BY timestamp, metric_name) EVERY 10m");
  EXPECT_TRUE(no_window.status().IsInvalidArgument())
      << no_window.status().ToString();

  // INTO must not collide with an unrelated catalog table.
  ASSERT_TRUE(service.Query(executor, kMonitorSql).ok());
  std::string colliding(kMonitorSql);
  colliding.replace(colliding.rfind("INTO hist"), 9, "INTO tsdb");
  auto collide = service.Query(executor, colliding);
  EXPECT_TRUE(collide.status().IsAlreadyExists())
      << collide.status().ToString();
  // Nor with a live monitor of the same name.
  auto dup = service.Query(executor, kMonitorSql);
  EXPECT_TRUE(dup.status().IsAlreadyExists()) << dup.status().ToString();

  // Without a monitor service, monitor statements are engine errors.
  auto direct = engine_.Query(kMonitorSql);
  EXPECT_TRUE(direct.status().IsInvalidArgument())
      << direct.status().ToString();
}

TEST_F(MonitorTest, PeriodicRunsAppendHistoryAndMatchOneShot) {
  MonitorService service(&engine_);
  sql::Executor executor = MakeExecutor();
  ASSERT_TRUE(service.Query(executor, kMonitorSql).ok());

  for (int k = 0; k < 3; ++k) {
    ASSERT_TRUE(service.RunOnce("hist").ok()) << k;
  }
  auto history = service.History("hist");
  ASSERT_TRUE(history.ok());
  EXPECT_EQ((*history)->num_runs(), 3u);

  std::vector<MonitorStatus> statuses = service.Statuses();
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_EQ(statuses[0].runs_ok, 3u);
  EXPECT_EQ(statuses[0].runs_error, 0u);
  // Run 2's half-open window is run 0's slid by 2 * EVERY.
  EXPECT_EQ(statuses[0].last_window.start, 1200);
  EXPECT_EQ(statuses[0].last_window.end, 3600 + 1200);
  // Runs scan the store; no window cache is kept to report on.
  EXPECT_TRUE(service.ScanStats("hist").status().IsFailedPrecondition());

  // The history is an ordinary engine-queryable table, and every run's
  // rows match the equivalent bounded one-shot EXPLAIN exactly.
  for (int64_t k = 0; k < 3; ++k) {
    ExpectRunMatchesOneShot(engine_, k, k * 600, 3599 + k * 600);
  }
}

// A slide decodes its window of the sub-selects' series and nothing
// more: the monitor's store tables take the planner's metric-set and
// window pushdown as a one-shot EXPLAIN's do.
TEST(MonitorPushdownTest, SlideDecodesOneWindowPerSubSelectSeries) {
  tsdb::StoreOptions options;
  // Ten-minute segments, kept apart, that the window prunes.
  options.seal_max_points = 10;
  options.compact_min_segments = 0;
  options.background_seal = false;
  core::Engine engine(MakeStore(240, 7, options));
  engine.RegisterStoreTable("tsdb", TimeRange{0, 240 * 60});
  MonitorService service(&engine);
  sql::Executor executor(&engine.catalog(), &engine.functions(), 1,
                         &exec::WorkerPool::Global());
  ASSERT_TRUE(service
                  .Query(executor,
                         "EXPLAIN (SELECT timestamp, AVG(value) AS y FROM tsdb "
                         "WHERE metric_name = 'pipeline_runtime' "
                         "GROUP BY timestamp) "
                         "USING (SELECT timestamp, metric_name, AVG(value) AS v "
                         "FROM tsdb WHERE metric_name IN "
                         "('pipeline_input_rate', 'pipeline_latency') "
                         "GROUP BY timestamp, metric_name) "
                         "SCORE BY 'L2' TOP 5 BETWEEN 0 AND 3599 EVERY 10m "
                         "INTO hist")
                  .ok());
  ASSERT_TRUE(service.RunOnce("hist").ok());
  ASSERT_TRUE(service.RunOnce("hist").ok());

  engine.store().ResetScanStats();
  ASSERT_TRUE(service.RunOnce("hist").ok());  // window [1200, 4800)
  const tsdb::ScanStats st = engine.store().scan_stats();
  // 60 minutes of the target's one series plus 60 of the USING's two,
  // each series allowed one stop point past the window's end.
  constexpr size_t kWindowPoints = 60;
  constexpr size_t kSeries = 1 + 2;
  EXPECT_LE(st.points_decoded, kSeries * (kWindowPoints + 1));
  EXPECT_EQ(st.points_returned, kSeries * kWindowPoints);
}

// A collector that lags on one series and catches up between two slides:
// the next run sees the late points, as the one-shot EXPLAIN does.
TEST(MonitorLateArrivalTest, LaggingSeriesPointsReachTheNextSlide) {
  const std::vector<WorldMinute> world = MakeWorld(70, 7);
  core::Engine engine(std::make_shared<tsdb::SeriesStore>());
  engine.RegisterStoreTable("tsdb", TimeRange{0, 70 * 60});
  tsdb::SeriesStore* store = &engine.store();
  WriteMinutes(store, world, 0, 30);
  WriteMinutes(store, world, 30, 70, /*latency=*/false);

  MonitorService service(&engine);
  sql::Executor executor(&engine.catalog(), &engine.functions(), 1,
                         &exec::WorkerPool::Global());
  ASSERT_TRUE(service.Query(executor, kMonitorSql).ok());
  ASSERT_TRUE(service.RunOnce("hist").ok());  // latency only to minute 29
  WriteLatency(store, world, 30, 70);
  ASSERT_TRUE(service.RunOnce("hist").ok());
  ExpectRunMatchesOneShot(engine, 1, 600, 4199);
}

TEST_F(MonitorTest, DropKeepsHistoryQueryableAndAllowsRebind) {
  MonitorService service(&engine_);
  sql::Executor executor = MakeExecutor();
  ASSERT_TRUE(service.Query(executor, kMonitorSql).ok());
  ASSERT_TRUE(service.RunOnce("hist").ok());
  ASSERT_TRUE(service.Drop("hist").ok());
  EXPECT_EQ(service.active_monitors(), 0u);

  auto rows = engine_.Query("SELECT COUNT(*) AS n FROM hist");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_GT(rows->table.At(0, 0).AsInt(), 0);

  // Re-registering INTO the same history table rebinds it (fresh runs).
  ASSERT_TRUE(service.Query(executor, kMonitorSql).ok());
  EXPECT_EQ(service.active_monitors(), 1u);
}

TEST_F(MonitorTest, TriggeredMonitorFiresOnInjectedAnomaly) {
  MonitorOptions options;
  options.tick_seconds = 0.002;
  options.anomaly.warmup_points = 8;
  options.trigger_cooldown_seconds = 0.0;
  MonitorService service(&engine_, options);
  sql::Executor executor = MakeExecutor();

  std::string sql(kMonitorSql);
  sql.replace(sql.rfind("EVERY 10m"), 9, "TRIGGERED");
  ASSERT_TRUE(service.Query(executor, sql).ok());
  service.Start();

  // A flat baseline for the target metric past the seeded data, then a
  // level shift: the write tap's EWMA flags it and the scheduler runs an
  // RCA over the trailing window ending at the anomaly.
  tsdb::SeriesStore& store = engine_.store();
  EpochSeconds ts = 120 * 60;
  for (int i = 0; i < 12; ++i, ts += 60) {
    ASSERT_TRUE(store
                    .Write("pipeline_runtime",
                           tsdb::TagSet{{"pipeline_name", "p1"}}, ts, 10.0)
                    .ok());
  }
  ASSERT_TRUE(store
                  .Write("pipeline_runtime",
                         tsdb::TagSet{{"pipeline_name", "p1"}}, ts, 50.0)
                  .ok());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  MonitorStatus status;
  while (std::chrono::steady_clock::now() < deadline) {
    status = service.Statuses().at(0);
    if (status.runs_ok + status.runs_error >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(status.triggers, 1u);
  ASSERT_GE(status.runs_ok, 1u) << status.last_error;
  // The triggered window keeps the statement's width and ends at the
  // anomalous sample.
  EXPECT_EQ(status.last_window.end, ts + 1);
  EXPECT_EQ(status.last_window.start, ts - 3599);
  auto history = service.History("hist");
  ASSERT_TRUE(history.ok());
  EXPECT_GE((*history)->num_runs(), 1u);
  service.Stop();
}

TEST_F(MonitorTest, TriggeredRunOnceWithoutPendingAnomalyFails) {
  MonitorService service(&engine_);
  sql::Executor executor = MakeExecutor();
  std::string sql(kMonitorSql);
  sql.replace(sql.rfind("EVERY 10m"), 9, "TRIGGERED");
  ASSERT_TRUE(service.Query(executor, sql).ok());
  auto status = service.RunOnce("hist");
  EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
  EXPECT_TRUE(service.RunOnce("nope").IsNotFound());
}

}  // namespace
}  // namespace explainit::monitor
