// The continuous-monitoring subsystem: standing EXPLAIN queries.
//
// `EXPLAIN ... EVERY 30s [TRIGGERED] INTO history` registers a monitor
// instead of running once. A MonitorService owns the registered
// monitors, schedules their runs on the shared worker pool with per-run
// CancelToken deadlines, slides each monitor's BETWEEN window, appends
// every run's Score Table into a catalog-registered ScoreHistory table,
// and — for TRIGGERED monitors — arms a per-series EWMA anomaly detector
// on the store's write tap so RCA fires when the target series goes
// anomalous rather than on a timer. This is the paper's always-on
// deployment story.
//
// Each run is a one-shot EXPLAIN over its window: the monitor's catalog
// copy registers every store-backed table through the same hinted store
// provider as Engine::RegisterStoreTable, with the scan range set to the
// run's window, so the target/GIVEN/USING sub-selects get the same
// metric-set pushdown, checkpoint seek and rollup routing, and see every
// point written into the window before the run, in any arrival order.
//
// Window semantics: the statement's BETWEEN [t0, t1] is run 0's window.
// A periodic monitor's k-th run explains [t0 + k*EVERY, t1 + k*EVERY] —
// the EVERY interval is both the wall-clock cadence and the data-time
// stride, matching a collector that ticks in real time. A triggered
// monitor keeps the window's *width*: an anomaly at data time T explains
// [T - (t1 - t0), T].
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/time_util.h"
#include "core/engine.h"
#include "exec/cancel.h"
#include "exec/worker_pool.h"
#include "monitor/anomaly.h"
#include "monitor/history.h"
#include "sql/ast.h"
#include "sql/executor.h"
#include "table/table.h"

namespace explainit::monitor {

struct MonitorOptions {
  /// Pool the runs are scheduled on (borrowed); null = the process-wide
  /// exec::WorkerPool::Global().
  exec::WorkerPool* worker_pool = nullptr;
  /// Parallelism of each monitor's private executor.
  size_t sql_parallelism = 1;
  /// Per-run deadline enforced via CancelToken (0 = none).
  double run_deadline_seconds = 30.0;
  /// Scheduler poll granularity in wall seconds.
  double tick_seconds = 0.02;
  /// Wall seconds per EVERY-second: the scheduler fires a monitor every
  /// every_seconds * wall_scale wall seconds. 1.0 = real time; tests and
  /// benches compress time with small values. The *data-time* stride is
  /// always every_seconds.
  double wall_scale = 1.0;
  /// Online detector tuning for TRIGGERED monitors.
  AnomalyOptions anomaly;
  /// Minimum wall seconds between triggered runs of one monitor when it
  /// has no EVERY interval of its own.
  double trigger_cooldown_seconds = 5.0;
};

enum class MonitorMode { kPeriodic, kTriggered };

/// Counters of a window cache that monitors no longer keep. Only
/// MonitorService::ScanStats, which always fails, returns it. Both stay
/// only because perfbench's monitor_ingest still reads them; delete them
/// together with its monitor.* cache metrics.
struct SharedScanStats {
  size_t full_scans = 0;
  size_t delta_scans = 0;
  size_t rows_reused = 0;
  size_t rows_delta = 0;
};

/// Point-in-time status of one monitor (one SHOW MONITORS row).
struct MonitorStatus {
  std::string name;
  MonitorMode mode = MonitorMode::kPeriodic;
  int64_t every_seconds = 0;  // 0 = none (triggered without cooldown)
  std::string into_table;
  uint64_t runs_ok = 0;
  uint64_t runs_error = 0;
  uint64_t triggers = 0;  // anomaly activations accepted
  std::string last_error;
  TimeRange last_window{0, 0};  // half-open window of the last run
  double last_run_seconds = 0.0;
};

/// Owns the standing queries of one engine. Thread-safe. The engine (and
/// its store/catalog) must outlive the service; call Stop() — or let the
/// destructor — before tearing the engine down.
class MonitorService {
 public:
  explicit MonitorService(core::Engine* engine, MonitorOptions options = {});
  ~MonitorService();

  MonitorService(const MonitorService&) = delete;
  MonitorService& operator=(const MonitorService&) = delete;

  /// Statement front door: handles the monitor statements (standing
  /// EXPLAIN, DROP MONITOR, SHOW MONITORS) and forwards everything else
  /// to Engine::ExecuteStatement on `executor`. The server routes every
  /// query through this when a monitor service is attached.
  Result<core::QueryResult> Query(sql::Executor& executor,
                                  std::string_view sql);

  /// Registers a standing query; returns the monitor name (the INTO
  /// table name, or a generated one). The statement must carry EVERY or
  /// TRIGGERED plus a BETWEEN window; its INTO history table registers
  /// in the engine catalog immediately.
  Result<std::string> Register(const sql::ExplainStatement& stmt);

  /// Unregisters a monitor, cancelling its in-flight run (if any). The
  /// history table stays registered so past runs remain queryable.
  Status Drop(const std::string& name);

  std::vector<MonitorStatus> Statuses() const;
  /// SHOW MONITORS as a relational table.
  table::Table StatusTable() const;
  size_t active_monitors() const;

  /// Runs one slide of `name` synchronously on the calling thread: a
  /// periodic monitor advances to its next window; a triggered monitor
  /// consumes its pending anomaly. FailedPrecondition when a run is
  /// already in flight (or nothing is pending). Benches and tests use
  /// this for deterministic sequencing; the scheduler thread does the
  /// same thing on its own cadence.
  Status RunOnce(const std::string& name);

  /// Starts the scheduler thread and installs the store write tap.
  /// Idempotent. Registration works before Start(); only scheduling and
  /// triggering need it.
  void Start();

  /// Cancels in-flight runs, drains them, stops the scheduler and
  /// removes the write tap. Idempotent; the destructor calls it.
  void Stop();

  /// FailedPrecondition: monitors keep no window cache (see
  /// SharedScanStats).
  Result<SharedScanStats> ScanStats(const std::string& name) const;

  /// The monitor's score history (alive as long as any reference is —
  /// DROP keeps it queryable).
  Result<std::shared_ptr<ScoreHistory>> History(const std::string& name) const;

 private:
  struct Monitor;
  /// One claimed run: its index and inclusive BETWEEN window.
  struct Run {
    int64_t index = 0;
    TimeRange window{0, 0};
  };

  Result<core::QueryResult> RegisterAsResult(const sql::ExplainStatement&);
  Result<std::shared_ptr<Monitor>> BuildMonitor(
      const sql::ExplainStatement& stmt, std::string name);
  /// The window rule, under mutex_: a periodic monitor's next stride
  /// (also re-arming its due time from `now`), or a triggered monitor's
  /// pending anomaly — nullopt when none is pending.
  std::optional<Run> TakeRunLocked(Monitor* m, double now);
  Status RunWindow(const std::shared_ptr<Monitor>& m, Run run);
  void SchedulerLoop();
  void OnWrite(const tsdb::SeriesMeta& meta, EpochSeconds ts, double value);
  Result<std::shared_ptr<Monitor>> FindLocked(const std::string& name) const;

  core::Engine* engine_;
  MonitorOptions options_;
  exec::WorkerPool* pool_;
  EwmaAnomalyDetector detector_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::unordered_map<std::string, std::shared_ptr<Monitor>> monitors_;
  /// History tables this service registered (a re-registered monitor may
  /// rebind these; anything else in the catalog is off limits).
  std::unordered_set<std::string> history_tables_;
  std::unordered_set<exec::CancelToken*> active_tokens_;
  uint64_t name_counter_ = 0;
  std::atomic<size_t> triggered_count_{0};
  bool started_ = false;
  bool stopping_ = false;

  std::thread scheduler_;
  std::unique_ptr<exec::TaskGroup> runs_group_;
};

}  // namespace explainit::monitor
