#include "served.h"

#include <cstdio>
#include <numeric>
#include <utility>

#include "core/engine.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "trace.h"

namespace explainit::perfbench {
namespace {

/// One set-up of a served workload. Members are destroyed in reverse
/// order: the client disconnects before the server stops, and the server
/// stops before the engine and store go.
struct Served {
  std::shared_ptr<tsdb::SeriesStore> store;
  std::unique_ptr<core::Engine> engine;
  std::unique_ptr<server::Server> server;
  std::unique_ptr<server::Client> client;
  WriteTimes writes;
  /// Warm-up replies, one per statement, and their canonical bytes that
  /// every later reply is compared with.
  std::vector<table::Table> warm;
  std::vector<std::vector<uint8_t>> want;
};

core::EngineOptions EngineOptionsFor(const ServedWorkload& w) {
  core::EngineOptions options;
  options.sql_parallelism = w.parallelism;
  return options;
}

/// World, store, engine, server, client and one warm-up op.
std::unique_ptr<Served> SetUp(const Options& options,
                              const ServedWorkload& w, Report* report) {
  auto s = std::make_unique<Served>();
  s->store = std::make_shared<tsdb::SeriesStore>(InlineStoreOptions());
  w.load(options.seed, s->store.get(), &s->writes);
  s->engine = std::make_unique<core::Engine>(s->store, EngineOptionsFor(w));
  s->engine->RegisterStoreTable("tsdb", w.table_range);
  if (w.register_tables) w.register_tables(&s->engine->catalog());

  server::ServerOptions server_options;
  server_options.sql_parallelism = w.parallelism;
  s->server = std::make_unique<server::Server>(s->engine.get(), server_options);
  const Status started = s->server->Start();
  if (!started.ok()) {
    report->Fail("server start: " + started.ToString());
    return nullptr;
  }
  auto client = server::Client::Connect("127.0.0.1", s->server->port());
  if (!client.ok()) {
    report->Fail("connect: " + client.status().ToString());
    return nullptr;
  }
  s->client = std::make_unique<server::Client>(std::move(*client));

  for (const std::string& sql : w.statements) {
    auto reply = s->client->Query(sql);
    if (!reply.ok()) {
      report->Fail("warm-up statement failed: " + reply.status().ToString() +
                   "\n  " + sql);
      return nullptr;
    }
    s->want.push_back(CanonicalTableBytes(reply->table));
    s->warm.push_back(std::move(reply->table));
  }
  return s;
}

/// True when every reply of an op matches its warm-up reply.
bool MatchesWarmUp(const Served& s, const std::vector<table::Table>& got) {
  if (got.size() != s.want.size()) return false;
  for (size_t j = 0; j < got.size(); ++j) {
    if (CanonicalTableBytes(got[j]) != s.want[j]) return false;
  }
  return true;
}

void RunUntraced(const Options& options, const ServedWorkload& w,
                 Report* report) {
  EndToEnd e2e;
  double t0 = MonotonicSeconds();
  std::unique_ptr<Served> s = SetUp(options, w, report);
  e2e.setup_seconds.push_back(MonotonicSeconds() - t0);
  if (s == nullptr) return;
  // The write path is exercised only by the bulk loads here.
  e2e.writes = s->writes;

  std::vector<std::vector<double>> statement_s(w.statements.size());
  e2e.phase = RunOps(options.seconds, [&] {
    std::vector<table::Table> got;
    bool ok = true;
    const double t0 = MonotonicSeconds();
    for (size_t j = 0; j < w.statements.size(); ++j) {
      const double q0 = MonotonicSeconds();
      auto reply = s->client->Query(w.statements[j]);
      statement_s[j].push_back(MonotonicSeconds() - q0);
      if (!reply.ok()) {
        std::fprintf(stderr, "op failed: %s\n",
                     reply.status().ToString().c_str());
        ok = false;
        break;
      }
      got.push_back(std::move(reply->table));
    }
    const double latency = MonotonicSeconds() - t0;
    report->CountOp(ok && MatchesWarmUp(*s, got));
    return latency;
  });
  e2e.peak_rss_mb = PeakRssMb();
  e2e.bytes_per_point = static_cast<double>(s->store->compressed_bytes()) /
                        static_cast<double>(s->store->num_points());
  w.check(s->store, s->warm, report);
  PrintStatementMedians(statement_s);

  while (MoreSetUps(e2e.setup_seconds)) {
    s.reset();  // tear the previous set-up down before timing the next
    t0 = MonotonicSeconds();
    s = SetUp(options, w, report);
    e2e.setup_seconds.push_back(MonotonicSeconds() - t0);
    if (s == nullptr) return;
    e2e.writes.batch_seconds.insert(e2e.writes.batch_seconds.end(),
                                    s->writes.batch_seconds.begin(),
                                    s->writes.batch_seconds.end());
  }
  AddEndToEnd(e2e, report);
}

Result<table::Table> RunStatement(Tracer* tracer, core::Engine& engine,
                                  const std::string& sql,
                                  StatementTrace* trace) {
  if (sql.rfind("EXPLAIN", 0) == 0) {
    return TracedExplain(tracer, engine, engine.executor(), sql, trace);
  }
  return TracedSelect(tracer, engine.executor(), sql, trace);
}

void RunTraced(const Options& options, const ServedWorkload& w,
               Report* report) {
  std::unique_ptr<Served> s = SetUp(options, w, report);
  if (s == nullptr) return;
  const size_t ops = w.traced_ops;
  std::map<std::string, double> m;

  // Untraced pass over the wire: client round trips against the server's
  // own statement time, and reply sizes.
  std::vector<double> untraced_s;
  double wire_s = 0.0;
  size_t reply_bytes = 0;
  for (size_t i = 0; i < ops; ++i) {
    std::vector<table::Table> got;
    const double t0 = MonotonicSeconds();
    for (const std::string& sql : w.statements) {
      const double q0 = MonotonicSeconds();
      auto reply = s->client->Query(sql);
      if (!reply.ok()) break;
      wire_s += MonotonicSeconds() - q0 -
                static_cast<double>(reply->latency_us) * 1e-6;
      reply_bytes += server::EncodeResult(*reply).size();
      got.push_back(std::move(reply->table));
    }
    untraced_s.push_back(MonotonicSeconds() - t0);
    report->CountOp(MatchesWarmUp(*s, got));
  }

  // Reference plans through the engine's own store table, without spans.
  StatementTrace reference;
  for (const std::string& sql : w.statements) {
    auto out = RunStatement(nullptr, *s->engine, sql, &reference);
    if (!out.ok()) report->Fail("reference: " + out.status().ToString());
  }

  // Traced pass: the same ops in process, through a second engine over
  // the same store whose `tsdb` table is the timing wrapper.
  Tracer tracer;
  StatementTrace trace;
  size_t scan_rows = 0;
  core::Engine traced(s->store, EngineOptionsFor(w));
  RegisterTracedStoreTable(&traced.catalog(), s->store.get(), "tsdb",
                           w.table_range, &tracer, &scan_rows);
  if (w.register_tables) w.register_tables(&traced.catalog());
  const tsdb::ScanStats scan_before = s->store->scan_stats();
  std::vector<double> traced_s;
  for (size_t i = 0; i < ops; ++i) {
    std::vector<table::Table> got;
    const double t0 = MonotonicSeconds();
    const size_t root = tracer.Begin("op");
    for (const std::string& sql : w.statements) {
      auto out = RunStatement(&tracer, traced, sql, &trace);
      if (!out.ok()) {
        report->Fail("traced: " + out.status().ToString());
        break;
      }
      auto decoded = TracedReply(&tracer, std::move(*out));
      if (!decoded.ok()) break;
      got.push_back(std::move(*decoded));
    }
    tracer.End(root);
    traced_s.push_back(MonotonicSeconds() - t0);
    report->CountOp(MatchesWarmUp(*s, got));
  }
  const tsdb::ScanStats scan_after = s->store->scan_stats();

  // The wrapper provider must not change a single plan.
  const size_t per_op = reference.plan_texts.size();
  if (trace.plan_texts.size() != per_op * ops) {
    report->Fail("traced run executed a different number of plans");
  } else {
    for (size_t k = 0; k < trace.plan_texts.size(); ++k) {
      if (trace.plan_texts[k] != reference.plan_texts[k % per_op]) {
        report->Fail("traced plan differs from the untraced plan:\n" +
                     trace.plan_texts[k] + "\nvs\n" +
                     reference.plan_texts[k % per_op]);
        break;
      }
    }
  }

  AddTraceMetrics(tracer, trace, ops, &m);
  AddScanMetrics(scan_before, scan_after, ops, &m);
  AddStorageMetrics(*s->store, &m);
  const double n = static_cast<double>(ops);
  m["server.wire_ms"] = wire_s * 1e3 / n;
  m["server.reply_bytes"] = static_cast<double>(reply_bytes) / n;
  m["tsdb.scan_rows"] = static_cast<double>(scan_rows) / n;
  const WriteTimes& writes = s->writes;
  m["tsdb.write_ns_per_point"] =
      std::accumulate(writes.batch_seconds.begin(), writes.batch_seconds.end(),
                      0.0) *
      1e9 /
      static_cast<double>(writes.points_per_batch *
                          writes.batch_seconds.size());
  m["trace.overhead_ms"] =
      (Percentile(traced_s, 0.5) - Percentile(untraced_s, 0.5)) * 1e3;
  AddLayers(m, report);
}

}  // namespace

void RunServed(const Options& options, const ServedWorkload& workload,
               Report* report) {
  if (options.trace) {
    RunTraced(options, workload, report);
  } else {
    RunUntraced(options, workload, report);
  }
}

}  // namespace explainit::perfbench
