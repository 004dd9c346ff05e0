// Concurrency stress for the monitoring subsystem, aimed at TSan (the CI
// matrix runs this suite under -fsanitize=thread): a periodic monitor on
// a compressed wall clock and a triggered monitor on the write tap, racing
// concurrent ingestion, SHOW MONITORS / history readers, register/drop
// churn and a mid-flight Stop().
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "core/engine.h"
#include "exec/worker_pool.h"
#include "monitor/monitor.h"
#include "sql/executor.h"
#include "tsdb/store.h"

namespace explainit::monitor {
namespace {

std::shared_ptr<tsdb::SeriesStore> MakeStore(size_t t, uint64_t seed) {
  auto store = std::make_shared<tsdb::SeriesStore>();
  Rng rng(seed);
  for (size_t i = 0; i < t; ++i) {
    const EpochSeconds ts = static_cast<int64_t>(i) * 60;
    const double rate = rng.Normal(1000.0, 150.0);
    const double runtime = 0.01 * rate + rng.Normal() * 0.4;
    EXPECT_TRUE(store
                    ->Write("pipeline_input_rate",
                            tsdb::TagSet{{"pipeline_name", "p1"}}, ts, rate)
                    .ok());
    EXPECT_TRUE(store
                    ->Write("pipeline_runtime",
                            tsdb::TagSet{{"pipeline_name", "p1"}}, ts,
                            runtime)
                    .ok());
    EXPECT_TRUE(store
                    ->Write("disk_noise", tsdb::TagSet{{"host", "dn-1"}}, ts,
                            rng.Normal(5.0, 1.0))
                    .ok());
  }
  return store;
}

std::string MonitorSql(const std::string& tail) {
  return "EXPLAIN (SELECT timestamp, AVG(value) AS y FROM tsdb "
         " WHERE metric_name = 'pipeline_runtime' GROUP BY timestamp) "
         "USING (SELECT timestamp, metric_name, AVG(value) AS v FROM tsdb "
         " WHERE metric_name != 'pipeline_runtime' "
         " GROUP BY timestamp, metric_name) "
         "SCORE BY 'L2' TOP 3 BETWEEN 0 AND 3599 " +
         tail;
}

TEST(MonitorStressTest, ConcurrentIngestQueriesChurnAndStop) {
  constexpr size_t kSeedMinutes = 200;
  core::Engine engine(MakeStore(kSeedMinutes, 11));
  engine.RegisterStoreTable("tsdb", TimeRange{0, kSeedMinutes * 60});

  MonitorOptions options;
  options.tick_seconds = 0.002;
  // EVERY 60 (data-time) fires every ~50ms of wall time.
  options.wall_scale = 50e-3 / 60.0;
  options.anomaly.warmup_points = 8;
  options.trigger_cooldown_seconds = 0.05;
  MonitorService service(&engine, options);
  sql::Executor executor(&engine.catalog(), &engine.functions(), 1,
                         &exec::WorkerPool::Global());

  ASSERT_TRUE(service.Query(executor, MonitorSql("EVERY 60 INTO hist")).ok());
  ASSERT_TRUE(
      service.Query(executor, MonitorSql("TRIGGERED INTO trig_hist")).ok());
  service.Start();

  std::atomic<bool> done{false};

  // Time-major monotone ingestion past the seeded range; every 64th
  // target sample is a large excursion so the write tap fires triggers
  // while periodic runs are in flight.
  std::thread writer([&engine] {
    tsdb::SeriesStore& store = engine.store();
    EpochSeconds ts = static_cast<int64_t>(kSeedMinutes) * 60;
    for (int i = 0; i < 600; ++i, ts += 60) {
      const double runtime = (i % 64 == 63) ? 500.0 : 10.0;
      ASSERT_TRUE(store
                      .Write("pipeline_runtime",
                             tsdb::TagSet{{"pipeline_name", "p1"}}, ts,
                             runtime)
                      .ok());
      ASSERT_TRUE(store
                      .Write("pipeline_input_rate",
                             tsdb::TagSet{{"pipeline_name", "p1"}}, ts,
                             1000.0)
                      .ok());
      ASSERT_TRUE(store
                      .Write("disk_noise", tsdb::TagSet{{"host", "dn-1"}},
                             ts, 5.0)
                      .ok());
    }
  });

  std::thread statuses([&service, &engine, &done] {
    sql::Executor ex(&engine.catalog(), &engine.functions(), 1,
                     &exec::WorkerPool::Global());
    while (!done.load(std::memory_order_acquire)) {
      auto show = service.Query(ex, "SHOW MONITORS");
      EXPECT_TRUE(show.ok()) << show.status().ToString();
      (void)service.Statuses();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::thread history_reader([&engine, &done] {
    while (!done.load(std::memory_order_acquire)) {
      auto rows = engine.Query("SELECT COUNT(*) AS n FROM hist");
      EXPECT_TRUE(rows.ok()) << rows.status().ToString();
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
  });

  std::thread churn([&service, &engine] {
    sql::Executor ex(&engine.catalog(), &engine.functions(), 1,
                     &exec::WorkerPool::Global());
    for (int i = 0; i < 20; ++i) {
      auto reg =
          service.Query(ex, MonitorSql("EVERY 120 INTO churn_hist"));
      EXPECT_TRUE(reg.ok()) << reg.status().ToString();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      EXPECT_TRUE(service.Drop("churn_hist").ok());
    }
  });

  writer.join();
  churn.join();
  // Let a few more periodic slides land, then stop mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  done.store(true, std::memory_order_release);
  statuses.join();
  history_reader.join();
  service.Stop();

  // Every successful periodic run appended exactly one score table; a run
  // cancelled by Stop() counts as an error and appends nothing.
  bool saw_periodic = false;
  for (const MonitorStatus& s : service.Statuses()) {
    if (s.name != "hist") continue;
    saw_periodic = true;
    auto history = service.History("hist");
    ASSERT_TRUE(history.ok());
    EXPECT_EQ((*history)->num_runs(), s.runs_ok)
        << "errors: " << s.runs_error << " last: " << s.last_error;
    EXPECT_GE(s.runs_ok, 1u) << s.last_error;
  }
  EXPECT_TRUE(saw_periodic);
}

TEST(MonitorStressTest, StartStopCyclesWithInFlightRuns) {
  core::Engine engine(MakeStore(120, 12));
  engine.RegisterStoreTable("tsdb", TimeRange{0, 120 * 60});

  MonitorOptions options;
  options.tick_seconds = 0.001;
  options.wall_scale = 5e-3 / 60.0;  // EVERY 60 -> ~5ms cadence
  MonitorService service(&engine, options);
  sql::Executor executor(&engine.catalog(), &engine.functions(), 1,
                         &exec::WorkerPool::Global());
  ASSERT_TRUE(service.Query(executor, MonitorSql("EVERY 60 INTO hist")).ok());

  for (int cycle = 0; cycle < 5; ++cycle) {
    service.Start();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    service.Stop();  // cancels whatever is mid-run
  }
  auto history = service.History("hist");
  ASSERT_TRUE(history.ok());
  const MonitorStatus s = service.Statuses().at(0);
  EXPECT_EQ((*history)->num_runs(), s.runs_ok) << s.last_error;
}

}  // namespace
}  // namespace explainit::monitor
