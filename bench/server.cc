// Concurrent-server throughput/latency bench: an in-process
// server::Server over the hypervisor packet-drop world, driven by 1 / 8 /
// 64 concurrent client sessions running a mixed SELECT + EXPLAIN
// workload over real TCP connections.
//
// Parity gate: every protocol reply is byte-compared (canonicalised:
// the EXPLAIN Score Table's volatile score_seconds column zeroed)
// against the direct Engine::Query result — the server must be a
// transport, never a semantic layer. Pool gate: serving every sweep
// constructs ZERO new worker pools (WorkerPool::constructions() delta),
// proving sessions share the process-wide pool.
//
// Emits BENCH_server.json: qps + p50/p99 latency per session count.
//
// Usage: server [--smoke] [output.json]
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/time_util.h"
#include "core/engine.h"
#include "exec/worker_pool.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "simulator/case_studies.h"

namespace explainit {
namespace {

const char* kSelect =
    "SELECT timestamp, AVG(value) AS runtime_sec FROM tsdb "
    "WHERE metric_name = 'overall_runtime' "
    "GROUP BY timestamp ORDER BY timestamp LIMIT 50";

const char* kExplain = R"(
    EXPLAIN (SELECT timestamp, AVG(value) AS runtime_sec
             FROM tsdb WHERE metric_name = 'overall_runtime'
             GROUP BY timestamp)
    USING (SELECT timestamp, CONCAT('net-', tag['host']) AS family,
                  AVG(value) AS v
           FROM tsdb WHERE metric_name = 'tcp_retransmits'
           GROUP BY timestamp, CONCAT('net-', tag['host']))
    SCORE BY 'L2' TOP 5)";

std::vector<uint8_t> CanonicalTableBytes(const table::Table& t) {
  table::Table out(t.schema());
  const auto seconds_col = t.schema().FieldIndex("score_seconds");
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::vector<table::Value> row = t.Row(r);
    if (seconds_col.has_value()) {
      row[*seconds_col] = table::Value::Double(0.0);
    }
    out.AppendRow(std::move(row));
  }
  server::ByteWriter w;
  server::EncodeTable(out, &w);
  return w.Take();
}

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t idx = static_cast<size_t>(p * (sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

struct SweepResult {
  size_t sessions = 0;
  size_t queries = 0;
  size_t parity_failures = 0;
  double wall_seconds = 0;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

SweepResult RunSweep(server::Server& srv, size_t sessions,
                     size_t queries_per_session,
                     const std::vector<uint8_t>& want_select,
                     const std::vector<uint8_t>& want_explain) {
  SweepResult result;
  result.sessions = sessions;
  std::atomic<size_t> parity_failures{0};
  std::atomic<size_t> completed{0};
  std::mutex latency_mutex;
  std::vector<double> latencies_ms;

  const double t0 = MonotonicSeconds();
  std::vector<std::thread> clients;
  for (size_t s = 0; s < sessions; ++s) {
    clients.emplace_back([&, s] {
      auto client = server::Client::Connect("127.0.0.1", srv.port());
      if (!client.ok()) {
        parity_failures.fetch_add(queries_per_session);
        return;
      }
      std::vector<double> local_ms;
      local_ms.reserve(queries_per_session);
      for (size_t q = 0; q < queries_per_session; ++q) {
        const bool explain = (s + q) % 2 == 0;
        const double qt0 = MonotonicSeconds();
        auto reply = client->Query(explain ? kExplain : kSelect);
        local_ms.push_back((MonotonicSeconds() - qt0) * 1e3);
        if (!reply.ok() ||
            CanonicalTableBytes(reply->table) !=
                (explain ? want_explain : want_select)) {
          parity_failures.fetch_add(1);
        } else {
          completed.fetch_add(1);
        }
      }
      std::lock_guard<std::mutex> lock(latency_mutex);
      latencies_ms.insert(latencies_ms.end(), local_ms.begin(),
                          local_ms.end());
    });
  }
  for (auto& t : clients) t.join();
  result.wall_seconds = MonotonicSeconds() - t0;
  result.queries = completed.load();
  result.parity_failures = parity_failures.load();
  result.qps = result.wall_seconds > 0
                   ? static_cast<double>(result.queries) / result.wall_seconds
                   : 0.0;
  std::sort(latencies_ms.begin(), latencies_ms.end());
  result.p50_ms = Percentile(latencies_ms, 0.50);
  result.p99_ms = Percentile(latencies_ms, 0.99);
  return result;
}

}  // namespace
}  // namespace explainit

int main(int argc, char** argv) {
  using namespace explainit;
  bool smoke = false;
  std::string out_path = "BENCH_server.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  const size_t minutes = smoke ? 120 : 480;
  sim::CaseStudyWorld world = sim::MakeHypervisorDropCase(minutes);
  core::EngineOptions engine_options;
  engine_options.sql_parallelism = 1;  // sessions run serial SQL; the
                                       // concurrency is across sessions
  core::Engine engine(world.store, engine_options);
  engine.RegisterStoreTable("tsdb", world.range);

  // Reference results for the parity gate.
  auto direct_select = engine.Query(kSelect);
  auto direct_explain = engine.Query(kExplain);
  if (!direct_select.ok() || !direct_explain.ok()) {
    std::fprintf(stderr, "reference query failed: %s\n",
                 (direct_select.ok() ? direct_explain : direct_select)
                     .status()
                     .ToString()
                     .c_str());
    return 1;
  }
  const std::vector<uint8_t> want_select =
      CanonicalTableBytes(direct_select->table);
  const std::vector<uint8_t> want_explain =
      CanonicalTableBytes(direct_explain->table);

  exec::WorkerPool::Global();  // settle the pool before pinning the counter

  server::ServerOptions server_options;
  server_options.max_sessions = 128;
  // Deep admission queue: the 64-session sweep measures saturated
  // throughput/tail latency, so queries must queue rather than be
  // rejected (the backpressure path has its own integration test).
  server_options.max_queued_queries = 4096;
  server_options.sql_parallelism = 1;
  server::Server srv(&engine, server_options);
  const Status started = srv.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }

  const size_t pools_before = exec::WorkerPool::constructions();
  const std::vector<size_t> sweeps =
      smoke ? std::vector<size_t>{1, 8} : std::vector<size_t>{1, 8, 64};
  const size_t queries_per_session = smoke ? 4 : 16;

  std::printf("server bench: %zu-minute world, %zu queries/session%s\n",
              minutes, queries_per_session, smoke ? " [smoke]" : "");
  std::vector<SweepResult> results;
  size_t total_parity_failures = 0;
  for (size_t sessions : sweeps) {
    SweepResult r = RunSweep(srv, sessions, queries_per_session, want_select,
                             want_explain);
    std::printf(
        "  sessions=%-3zu  qps=%8.1f  p50=%7.2fms  p99=%7.2fms  "
        "parity_failures=%zu\n",
        r.sessions, r.qps, r.p50_ms, r.p99_ms, r.parity_failures);
    total_parity_failures += r.parity_failures;
    results.push_back(r);
  }
  const size_t pools_created =
      exec::WorkerPool::constructions() - pools_before;
  srv.Stop();

  if (total_parity_failures != 0) {
    std::fprintf(stderr,
                 "PARITY FAILED: %zu replies diverged from Engine::Query\n",
                 total_parity_failures);
    return 1;
  }
  if (pools_created != 0) {
    std::fprintf(stderr,
                 "POOL GATE FAILED: serving created %zu new worker pools "
                 "(sessions must share the global pool)\n",
                 pools_created);
    return 1;
  }
  std::printf("parity: every reply byte-identical to Engine::Query; "
              "pools created while serving: 0\n");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"server\",\n  \"hardware_threads\": %u,\n"
               "  \"smoke\": %s,\n"
               "  \"world_minutes\": %zu,\n"
               "  \"queries_per_session\": %zu,\n"
               "  \"pools_created_while_serving\": %zu,\n"
               "  \"sweeps\": [\n",
               std::thread::hardware_concurrency(), smoke ? "true" : "false",
               minutes, queries_per_session, pools_created);
  for (size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    std::fprintf(f,
                 "    {\"sessions\": %zu, \"queries\": %zu, "
                 "\"qps\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
                 "\"parity_failures\": %zu}%s\n",
                 r.sessions, r.queries, r.qps, r.p50_ms, r.p99_ms,
                 r.parity_failures, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
