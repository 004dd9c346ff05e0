#include "monitor/monitor.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/strings.h"
#include "core/explain.h"
#include "sql/parser.h"

namespace explainit::monitor {

namespace {

const char* ModeName(MonitorMode mode) {
  return mode == MonitorMode::kPeriodic ? "PERIODIC" : "TRIGGERED";
}

/// Table names a sub-select (and its joins/subqueries/unions) reads.
void CollectTables(const sql::SelectStatement& stmt,
                   std::vector<std::string>* out) {
  if (stmt.from.has_value()) {
    if (!stmt.from->table_name.empty()) out->push_back(stmt.from->table_name);
    if (stmt.from->subquery) CollectTables(*stmt.from->subquery, out);
  }
  for (const sql::JoinClause& join : stmt.joins) {
    if (!join.right.table_name.empty()) out->push_back(join.right.table_name);
    if (join.right.subquery) CollectTables(*join.right.subquery, out);
  }
  for (const auto& term : stmt.union_all) CollectTables(*term, out);
}

/// The metric glob a triggered monitor watches: a top-level
/// `metric_name = '<literal>'` conjunct in the target sub-select's WHERE
/// (either operand order), else every metric.
std::string ExtractMetricGlob(const sql::SelectStatement& stmt) {
  if (!stmt.where) return "*";
  std::vector<const sql::Expr*> conjuncts;
  sql::CollectConjuncts(stmt.where.get(), &conjuncts);
  for (const sql::Expr* c : conjuncts) {
    if (c->kind != sql::ExprKind::kBinary ||
        c->binary_op != sql::BinaryOp::kEq) {
      continue;
    }
    const sql::Expr* col = c->left.get();
    const sql::Expr* lit = c->right.get();
    if (col->kind != sql::ExprKind::kColumnRef) std::swap(col, lit);
    if (col == nullptr || lit == nullptr ||
        col->kind != sql::ExprKind::kColumnRef ||
        lit->kind != sql::ExprKind::kLiteral) {
      continue;
    }
    if (!EqualsIgnoreCase(col->column, "metric_name")) continue;
    if (const std::string* s = lit->literal.TryString()) return *s;
  }
  return "*";
}

}  // namespace

/// One standing query. Shared-ptr-held so an in-flight run survives a
/// concurrent Drop. The private executor/statement/window are only ever
/// touched by the single in-flight run (guarded by `in_flight`); the
/// counters and scheduling state are guarded by the service mutex.
struct MonitorService::Monitor {
  std::string name;
  MonitorMode mode = MonitorMode::kPeriodic;
  int64_t every_seconds = 0;  // data-time stride; 0 = triggered-only
  std::string into_table;

  /// Service-owned deep copy (printer/parser round-trip); RunWindow
  /// mutates its BETWEEN bounds per slide.
  std::unique_ptr<sql::ExplainStatement> stmt;
  /// Engine-catalog snapshot whose store tables scan `window`.
  sql::Catalog catalog;
  std::unique_ptr<sql::Executor> executor;
  /// The current run's half-open window; RunWindow sets it before
  /// planning, the store providers read it during execution.
  std::shared_ptr<TimeRange> window;
  std::shared_ptr<ScoreHistory> history;
  std::string target_glob = "*";

  int64_t base_start = 0;  // run 0's inclusive BETWEEN window
  int64_t base_end = 0;
  int64_t window_width = 0;

  std::atomic<bool> in_flight{false};

  // --- guarded by MonitorService::mutex_ ---
  exec::CancelToken* active_token = nullptr;
  int64_t scheduled_runs = 0;
  std::optional<EpochSeconds> pending_trigger;
  double last_trigger_wall = -1e300;
  double next_due_wall = 0.0;
  uint64_t runs_ok = 0;
  uint64_t runs_error = 0;
  uint64_t triggers = 0;
  std::string last_error;
  TimeRange last_window{0, 0};
  double last_run_seconds = 0.0;
};

MonitorService::MonitorService(core::Engine* engine, MonitorOptions options)
    : engine_(engine),
      options_(options),
      pool_(options.worker_pool != nullptr ? options.worker_pool
                                           : &exec::WorkerPool::Global()),
      detector_(options.anomaly) {}

MonitorService::~MonitorService() { Stop(); }

Result<core::QueryResult> MonitorService::Query(sql::Executor& executor,
                                                std::string_view sql_text) {
  EXPLAINIT_ASSIGN_OR_RETURN(auto stmt, sql::ParseStatement(sql_text));
  switch (stmt->kind()) {
    case sql::StatementKind::kExplain: {
      const auto& explain = static_cast<const sql::ExplainStatement&>(*stmt);
      if (explain.is_monitor()) return RegisterAsResult(explain);
      break;
    }
    case sql::StatementKind::kDropMonitor: {
      const auto& drop = static_cast<const sql::DropMonitorStatement&>(*stmt);
      EXPLAINIT_RETURN_IF_ERROR(Drop(drop.name));
      core::QueryResult out;
      out.kind = sql::StatementKind::kDropMonitor;
      table::Table t(table::Schema({{"monitor", table::DataType::kString},
                                    {"status", table::DataType::kString}}));
      t.AppendRow({table::Value::String(drop.name),
                   table::Value::String("dropped")});
      out.table = std::move(t);
      return out;
    }
    case sql::StatementKind::kShowMonitors: {
      core::QueryResult out;
      out.kind = sql::StatementKind::kShowMonitors;
      out.table = StatusTable();
      return out;
    }
    default:
      break;
  }
  return engine_->ExecuteStatement(executor, *stmt);
}

Result<core::QueryResult> MonitorService::RegisterAsResult(
    const sql::ExplainStatement& stmt) {
  EXPLAINIT_ASSIGN_OR_RETURN(std::string name, Register(stmt));
  core::QueryResult out;
  out.kind = sql::StatementKind::kExplain;
  table::Table t(table::Schema({{"monitor", table::DataType::kString},
                                {"mode", table::DataType::kString},
                                {"status", table::DataType::kString}}));
  MonitorMode mode =
      stmt.triggered ? MonitorMode::kTriggered : MonitorMode::kPeriodic;
  t.AppendRow({table::Value::String(name),
               table::Value::String(ModeName(mode)),
               table::Value::String("registered")});
  out.table = std::move(t);
  return out;
}

Result<std::string> MonitorService::Register(
    const sql::ExplainStatement& stmt) {
  if (!stmt.every_seconds.has_value() && !stmt.triggered) {
    return Status::InvalidArgument(
        "a standing EXPLAIN needs EVERY and/or TRIGGERED");
  }
  if (!stmt.between_start.has_value() || !stmt.between_end.has_value()) {
    return Status::InvalidArgument(
        "a standing EXPLAIN needs a BETWEEN window (run 0's "
        "range-to-explain; its width is kept across slides)");
  }
  std::string name;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return Status::Cancelled("monitor service stopping");
    name = !stmt.into_table.empty()
               ? stmt.into_table
               : "monitor_" + std::to_string(++name_counter_);
    if (monitors_.count(name) != 0) {
      return Status::AlreadyExists("monitor '" + name + "' already exists");
    }
  }
  // The INTO name must be free (or a history table this service owns —
  // re-registering after DROP MONITOR rebinds it).
  if (!stmt.into_table.empty()) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (engine_->catalog().HasTable(stmt.into_table) &&
        history_tables_.count(stmt.into_table) == 0) {
      return Status::AlreadyExists("INTO table '" + stmt.into_table +
                                   "' already exists in the catalog");
    }
  }

  EXPLAINIT_ASSIGN_OR_RETURN(std::shared_ptr<Monitor> m,
                             BuildMonitor(stmt, name));
  // Dry-run plan: surfaces unknown scorers/tables/columns at
  // registration instead of on the first scheduled run.
  {
    EXPLAINIT_ASSIGN_OR_RETURN(
        auto plan, core::PlanExplain(*m->stmt, engine_, m->executor.get()));
    plan.reset();
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return Status::Cancelled("monitor service stopping");
    if (monitors_.count(name) != 0) {
      return Status::AlreadyExists("monitor '" + name + "' already exists");
    }
    if (!m->into_table.empty()) {
      std::shared_ptr<ScoreHistory> history = m->history;
      engine_->catalog().RegisterProvider(
          m->into_table,
          [history]() -> Result<table::Table> { return history->Snapshot(); });
      history_tables_.insert(m->into_table);
    }
    if (m->mode == MonitorMode::kPeriodic) {
      m->next_due_wall = MonotonicSeconds() +
                         static_cast<double>(m->every_seconds) *
                             options_.wall_scale;
    } else {
      triggered_count_.fetch_add(1, std::memory_order_relaxed);
    }
    monitors_.emplace(name, std::move(m));
    cv_.notify_all();
  }
  return name;
}

Result<std::shared_ptr<MonitorService::Monitor>> MonitorService::BuildMonitor(
    const sql::ExplainStatement& stmt, std::string name) {
  auto m = std::make_shared<Monitor>();
  m->name = std::move(name);
  m->mode = stmt.triggered ? MonitorMode::kTriggered : MonitorMode::kPeriodic;
  m->every_seconds = stmt.every_seconds.value_or(0);
  m->into_table = stmt.into_table;
  m->base_start = *stmt.between_start;
  m->base_end = *stmt.between_end;
  m->window_width = m->base_end - m->base_start;

  // The service's own deep copy of the statement, via the printer/parser
  // fixpoint (the AST has no deep-copy ctor; round-tripping is exact).
  EXPLAINIT_ASSIGN_OR_RETURN(auto parsed,
                             sql::ParseStatement(sql::ToSql(stmt)));
  if (parsed->kind() != sql::StatementKind::kExplain) {
    return Status::Internal("EXPLAIN round-trip changed the statement kind");
  }
  m->stmt.reset(static_cast<sql::ExplainStatement*>(parsed.release()));

  // Private catalog snapshot whose store-backed (hint-aware) tables
  // scan the run's window.
  m->catalog = engine_->catalog();
  m->window = std::make_shared<TimeRange>(
      TimeRange{m->base_start, m->base_end + 1});
  std::vector<std::string> tables;
  if (m->stmt->target) CollectTables(*m->stmt->target, &tables);
  if (m->stmt->given) CollectTables(*m->stmt->given, &tables);
  if (m->stmt->search_space) CollectTables(*m->stmt->search_space, &tables);
  std::sort(tables.begin(), tables.end());
  tables.erase(std::unique(tables.begin(), tables.end()), tables.end());
  for (const std::string& t : tables) {
    if (engine_->catalog().SupportsHints(t)) {
      engine_->RegisterStoreTable(&m->catalog, t, m->window);
    }
  }

  m->executor = std::make_unique<sql::Executor>(
      &m->catalog, &engine_->functions(), options_.sql_parallelism, pool_);
  m->history = std::make_shared<ScoreHistory>();
  if (m->stmt->target) m->target_glob = ExtractMetricGlob(*m->stmt->target);
  return m;
}

Status MonitorService::Drop(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = monitors_.find(name);
  if (it == monitors_.end()) {
    return Status::NotFound("no monitor named '" + name + "'");
  }
  Monitor& m = *it->second;
  if (m.active_token != nullptr) m.active_token->Cancel();
  if (m.mode == MonitorMode::kTriggered) {
    triggered_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  // The in-flight run (if any) holds its own shared_ptr and finishes on
  // its own; the history table stays registered in the engine catalog so
  // past runs remain queryable.
  monitors_.erase(it);
  return Status::OK();
}

Result<std::shared_ptr<MonitorService::Monitor>> MonitorService::FindLocked(
    const std::string& name) const {
  auto it = monitors_.find(name);
  if (it == monitors_.end()) {
    return Status::NotFound("no monitor named '" + name + "'");
  }
  return it->second;
}

std::vector<MonitorStatus> MonitorService::Statuses() const {
  std::vector<MonitorStatus> out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.reserve(monitors_.size());
    for (const auto& [name, m] : monitors_) {
      MonitorStatus s;
      s.name = name;
      s.mode = m->mode;
      s.every_seconds = m->every_seconds;
      s.into_table = m->into_table;
      s.runs_ok = m->runs_ok;
      s.runs_error = m->runs_error;
      s.triggers = m->triggers;
      s.last_error = m->last_error;
      s.last_window = m->last_window;
      s.last_run_seconds = m->last_run_seconds;
      out.push_back(std::move(s));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const MonitorStatus& a, const MonitorStatus& b) {
              return a.name < b.name;
            });
  return out;
}

table::Table MonitorService::StatusTable() const {
  table::Schema schema({{"monitor", table::DataType::kString},
                        {"mode", table::DataType::kString},
                        {"every", table::DataType::kString},
                        {"into", table::DataType::kString},
                        {"runs_ok", table::DataType::kInt64},
                        {"runs_error", table::DataType::kInt64},
                        {"triggers", table::DataType::kInt64},
                        {"window_start", table::DataType::kTimestamp},
                        {"window_end", table::DataType::kTimestamp},
                        {"last_run_seconds", table::DataType::kDouble},
                        {"last_error", table::DataType::kString}});
  table::Table out(schema);
  for (const MonitorStatus& s : Statuses()) {
    out.AppendRow({table::Value::String(s.name),
                   table::Value::String(ModeName(s.mode)),
                   table::Value::String(s.every_seconds > 0
                                            ? sql::FormatDuration(
                                                  s.every_seconds)
                                            : ""),
                   table::Value::String(s.into_table),
                   table::Value::Int(static_cast<int64_t>(s.runs_ok)),
                   table::Value::Int(static_cast<int64_t>(s.runs_error)),
                   table::Value::Int(static_cast<int64_t>(s.triggers)),
                   table::Value::Timestamp(s.last_window.start),
                   table::Value::Timestamp(s.last_window.end),
                   table::Value::Double(s.last_run_seconds),
                   table::Value::String(s.last_error)});
  }
  return out;
}

size_t MonitorService::active_monitors() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return monitors_.size();
}

Result<SharedScanStats> MonitorService::ScanStats(const std::string&) const {
  return Status::FailedPrecondition(
      "monitors keep no window cache: every run scans the store");
}

Result<std::shared_ptr<ScoreHistory>> MonitorService::History(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  EXPLAINIT_ASSIGN_OR_RETURN(std::shared_ptr<Monitor> m, FindLocked(name));
  return m->history;
}

Status MonitorService::RunOnce(const std::string& name) {
  std::shared_ptr<Monitor> m;
  std::optional<Run> run;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    EXPLAINIT_ASSIGN_OR_RETURN(m, FindLocked(name));
    bool expected = false;
    if (!m->in_flight.compare_exchange_strong(expected, true)) {
      return Status::FailedPrecondition("monitor '" + name +
                                        "' already has a run in flight");
    }
    run = TakeRunLocked(m.get(), MonotonicSeconds());
    if (!run.has_value()) {
      m->in_flight.store(false, std::memory_order_release);
      return Status::FailedPrecondition(
          "monitor '" + name + "' has no pending anomaly trigger");
    }
  }
  Status status = RunWindow(m, *run);
  m->in_flight.store(false, std::memory_order_release);
  return status;
}

std::optional<MonitorService::Run> MonitorService::TakeRunLocked(Monitor* m,
                                                                 double now) {
  if (m->mode == MonitorMode::kPeriodic) {
    const int64_t k = m->scheduled_runs++;
    m->next_due_wall =
        now + static_cast<double>(m->every_seconds) * options_.wall_scale;
    return Run{k, TimeRange{m->base_start + k * m->every_seconds,
                            m->base_end + k * m->every_seconds}};
  }
  if (!m->pending_trigger.has_value()) return std::nullopt;
  const EpochSeconds t = *m->pending_trigger;
  m->pending_trigger.reset();
  return Run{m->scheduled_runs++, TimeRange{t - m->window_width, t}};
}

Status MonitorService::RunWindow(const std::shared_ptr<Monitor>& m,
                                 Run run) {
  const TimeRange& inclusive_window = run.window;
  exec::CancelToken token;
  if (options_.run_deadline_seconds > 0) {
    token.SetDeadlineAfter(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::duration<double>(options_.run_deadline_seconds)));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Same re-check-under-the-mutex pattern as Server::Stop(): a run
    // racing a concurrent Stop() must not register a token Stop's cancel
    // loop already walked past.
    if (stopping_) return Status::Cancelled("monitor service stopping");
    active_tokens_.insert(&token);
    m->active_token = &token;
  }

  // BETWEEN is inclusive; scans/stores speak half-open.
  *m->window = TimeRange{inclusive_window.start, inclusive_window.end + 1};
  m->stmt->between_start = inclusive_window.start;
  m->stmt->between_end = inclusive_window.end;
  m->executor->set_cancel_token(&token);
  const double wall_start = MonotonicSeconds();
  Status status = [&]() -> Status {
    EXPLAINIT_ASSIGN_OR_RETURN(
        auto root, core::PlanExplain(*m->stmt, engine_, m->executor.get()));
    EXPLAINIT_ASSIGN_OR_RETURN(table::Table result,
                               m->executor->ExecuteTree(root.get()));
    (void)result;  // the history rows carry everything downstream reads
    m->history->Append(run.index, inclusive_window.end, root->score_table());
    return Status::OK();
  }();
  m->executor->set_cancel_token(nullptr);
  const double elapsed = MonotonicSeconds() - wall_start;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    active_tokens_.erase(&token);
    m->active_token = nullptr;
    m->last_window = *m->window;
    m->last_run_seconds = elapsed;
    if (status.ok()) {
      ++m->runs_ok;
      m->last_error.clear();
    } else {
      ++m->runs_error;
      m->last_error = status.ToString();
    }
  }
  return status;
}

void MonitorService::Start() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (started_) return;
    started_ = true;
    stopping_ = false;
    runs_group_ = std::make_unique<exec::TaskGroup>(pool_);
    scheduler_ = std::thread([this] { SchedulerLoop(); });
  }
  // Install the ingest tap outside the service mutex: SetWriteObserver
  // takes the store's observer lock, which writer threads hold while
  // calling OnWrite — and OnWrite takes the service mutex.
  engine_->store().SetWriteObserver(
      [this](const tsdb::SeriesMeta& meta, EpochSeconds ts, double value) {
        OnWrite(meta, ts, value);
      });
}

void MonitorService::Stop() {
  bool was_started = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    was_started = started_;
    stopping_ = true;
    for (exec::CancelToken* token : active_tokens_) token->Cancel();
    cv_.notify_all();
  }
  if (was_started) {
    scheduler_.join();
    runs_group_->Wait();
    runs_group_.reset();
    // Quiescence barrier: once this returns no writer thread is still
    // inside OnWrite, so the service may be destroyed.
    engine_->store().SetWriteObserver(nullptr);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  started_ = false;
  stopping_ = false;
}

void MonitorService::SchedulerLoop() {
  const auto tick = std::chrono::duration<double>(options_.tick_seconds);
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    cv_.wait_for(lock, tick);
    if (stopping_) break;
    const double now = MonotonicSeconds();
    std::vector<std::pair<std::shared_ptr<Monitor>, Run>> fires;
    for (auto& [name, m] : monitors_) {
      if (m->in_flight.load(std::memory_order_acquire)) continue;
      if (m->mode == MonitorMode::kPeriodic &&
          now + 1e-9 < m->next_due_wall) {
        continue;
      }
      std::optional<Run> run = TakeRunLocked(m.get(), now);
      if (!run.has_value()) continue;
      m->in_flight.store(true, std::memory_order_release);
      fires.emplace_back(m, *run);
    }
    if (fires.empty()) continue;
    lock.unlock();
    for (auto& [m, run] : fires) {
      runs_group_->Submit(
          [this, m = m, run = run] {
            (void)RunWindow(m, run);
            m->in_flight.store(false, std::memory_order_release);
          },
          "monitor");
    }
    lock.lock();
  }
}

void MonitorService::OnWrite(const tsdb::SeriesMeta& meta, EpochSeconds ts,
                             double value) {
  // Fast exit on the ingest path when nothing can trigger.
  if (triggered_count_.load(std::memory_order_relaxed) == 0) return;
  const double z = detector_.Observe(meta.ToString(), value);
  if (!detector_.IsAnomalous(z)) return;

  std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) return;
  const double now = MonotonicSeconds();
  for (auto& [name, m] : monitors_) {
    if (m->mode != MonitorMode::kTriggered) continue;
    if (!GlobMatch(m->target_glob, meta.metric_name)) continue;
    if (m->pending_trigger.has_value() ||
        m->in_flight.load(std::memory_order_acquire)) {
      continue;
    }
    // EVERY on a triggered monitor is its re-fire rate limit; without
    // one the service-wide cooldown applies.
    const double cooldown =
        m->every_seconds > 0
            ? static_cast<double>(m->every_seconds) * options_.wall_scale
            : options_.trigger_cooldown_seconds;
    if (now - m->last_trigger_wall < cooldown) continue;
    m->pending_trigger = ts;
    m->last_trigger_wall = now;
    ++m->triggers;
  }
  cv_.notify_all();
}

}  // namespace explainit::monitor
