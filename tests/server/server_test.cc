// Integration suite for the concurrent SQL/EXPLAIN server: protocol
// results must be byte-identical to a direct Engine::Query, concurrent
// sessions must share ONE process-wide worker pool (pinned via
// WorkerPool::constructions()), deadlines/cancellation must surface as
// typed statuses, and admission control must push back with kBusy.
#include "server/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "exec/worker_pool.h"
#include "server/client.h"
#include "server/protocol.h"
#include "simulator/case_studies.h"

namespace explainit::server {
namespace {

constexpr const char* kSelect =
    "SELECT timestamp, AVG(value) AS runtime_sec FROM tsdb "
    "WHERE metric_name = 'overall_runtime' "
    "GROUP BY timestamp ORDER BY timestamp LIMIT 50";

constexpr const char* kExplain = R"(
    EXPLAIN (SELECT timestamp, AVG(value) AS runtime_sec
             FROM tsdb WHERE metric_name = 'overall_runtime'
             GROUP BY timestamp)
    USING (SELECT timestamp, CONCAT('net-', tag['host']) AS family,
                  AVG(value) AS v
           FROM tsdb WHERE metric_name = 'tcp_retransmits'
           GROUP BY timestamp, CONCAT('net-', tag['host']))
    SCORE BY 'L2' TOP 5)";

/// Canonical protocol encoding of a result table: the EXPLAIN Score
/// Table's score_seconds column is wall time (volatile across runs), so
/// parity comparisons zero it before byte-comparing.
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
  ByteWriter w;
  EncodeTable(out, &w);
  return w.Take();
}

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : world_(sim::MakeHypervisorDropCase(120)) {
    core::EngineOptions engine_options;
    engine_options.sql_parallelism = 1;  // match the server sessions
    engine_ = std::make_unique<core::Engine>(world_.store, engine_options);
    engine_->RegisterStoreTable("tsdb", world_.range);
    // A deliberately slow UDF for deadline/cancel tests: ~200us per row.
    engine_->functions().Register(
        "SLOW_ID",
        [](const std::vector<table::Value>& args) -> Result<table::Value> {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
          return args[0];
        });
  }

  Server& StartServer(ServerOptions options = {}) {
    server_ = std::make_unique<Server>(engine_.get(), options);
    const Status st = server_->Start();
    EXPECT_TRUE(st.ok()) << st.ToString();
    return *server_;
  }

  Client Connect() {
    auto client = Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  sim::CaseStudyWorld world_;
  std::unique_ptr<core::Engine> engine_;
  std::unique_ptr<Server> server_;
};

TEST_F(ServerTest, PingPong) {
  StartServer();
  Client client = Connect();
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, SingleSessionParityWithDirectQuery) {
  StartServer();
  Client client = Connect();
  for (const char* sql : {kSelect, kExplain}) {
    auto direct = engine_->Query(sql);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    auto remote = client.Query(sql);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    EXPECT_EQ(remote->statement_kind, static_cast<uint8_t>(direct->kind));
    EXPECT_EQ(remote->rows_output, direct->table.num_rows());
    EXPECT_EQ(CanonicalTableBytes(remote->table),
              CanonicalTableBytes(direct->table))
        << "server result diverged from Engine::Query for:\n" << sql;
  }
}

TEST_F(ServerTest, EightSessionsStayByteIdenticalAndShareOnePool) {
  // Force the global pool into existence before pinning the counter.
  exec::WorkerPool::Global();
  auto direct_select = engine_->Query(kSelect);
  auto direct_explain = engine_->Query(kExplain);
  ASSERT_TRUE(direct_select.ok() && direct_explain.ok());
  const std::vector<uint8_t> want_select =
      CanonicalTableBytes(direct_select->table);
  const std::vector<uint8_t> want_explain =
      CanonicalTableBytes(direct_explain->table);

  StartServer();
  const size_t pools_before = exec::WorkerPool::constructions();

  constexpr int kSessions = 8;
  constexpr int kRounds = 3;
  std::atomic<int> failures{0};
  std::vector<std::thread> sessions;
  for (int s = 0; s < kSessions; ++s) {
    sessions.emplace_back([&, s] {
      auto client = Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        // Alternate SELECT and EXPLAIN across sessions and rounds.
        const bool explain = (s + round) % 2 == 0;
        auto reply = client->Query(explain ? kExplain : kSelect);
        if (!reply.ok() ||
            CanonicalTableBytes(reply->table) !=
                (explain ? want_explain : want_select)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : sessions) t.join();
  EXPECT_EQ(failures.load(), 0);
  // The tentpole's core claim: serving 8 concurrent sessions constructed
  // ZERO new pools — no per-executor, per-store or per-ranking pools.
  EXPECT_EQ(exec::WorkerPool::constructions(), pools_before);
  const ServerStats stats = server_->stats();
  EXPECT_EQ(stats.queries_ok, static_cast<uint64_t>(kSessions * kRounds));
  EXPECT_EQ(stats.sessions_accepted, static_cast<uint64_t>(kSessions));
}

TEST_F(ServerTest, DeadlineExpiryReturnsDeadlineExceeded) {
  StartServer();
  Client client = Connect();
  // ~200us per row over the whole store: far slower than the deadline.
  auto reply = client.Query(
      "SELECT SLOW_ID(value) FROM tsdb", /*deadline_ms=*/30);
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(reply.status().IsDeadlineExceeded())
      << reply.status().ToString();
  // The session and the server survive an expired query.
  EXPECT_TRUE(client.Ping().ok());
  auto ok_reply = client.Query(kSelect);
  EXPECT_TRUE(ok_reply.ok()) << ok_reply.status().ToString();
}

TEST_F(ServerTest, ParseErrorsCarryPosition) {
  StartServer();
  Client client = Connect();
  auto reply = client.Query("SELECT 1e999");
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(reply.status().IsParseError()) << reply.status().ToString();
  EXPECT_NE(reply.status().message().find("line 1"), std::string::npos)
      << reply.status().message();
}

TEST_F(ServerTest, OverDeepStatementIsParseErrorAndSessionSurvives) {
  StartServer();
  Client client = Connect();
  // 10,008 bytes of nested parentheses: past the parser's nesting cap.
  const std::string deep =
      "SELECT " + std::string(5000, '(') + "1" + std::string(5000, ')');
  auto reply = client.Query(deep);
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(reply.status().IsParseError()) << reply.status().ToString();
  EXPECT_NE(reply.status().message().find("line 1"), std::string::npos)
      << reply.status().message();
  // The same connection keeps answering.
  EXPECT_TRUE(client.Ping().ok());
  auto one = client.Query(kSelect);
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_GT(one->rows_output, 0u);
}

TEST_F(ServerTest, SessionCapRejectsWithBusy) {
  ServerOptions options;
  options.max_sessions = 1;
  StartServer(options);
  Client first = Connect();
  ASSERT_TRUE(first.Ping().ok());
  auto second = Client::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(second.ok());
  const Status st = second->Ping();
  EXPECT_TRUE(st.IsUnavailable() || st.code() == StatusCode::kIOError)
      << st.ToString();  // kBusy frame, or the close won the race
  EXPECT_GE(server_->stats().sessions_rejected, 1u);
}

TEST_F(ServerTest, QueryGateRejectsBeyondQueueCap) {
  ServerOptions options;
  options.max_concurrent_queries = 1;
  options.max_queued_queries = 0;
  StartServer(options);
  Client busy_client = Connect();
  Client probe = Connect();
  std::thread slow([&busy_client] {
    // Holds the single execution slot for a while.
    auto r = busy_client.Query("SELECT SLOW_ID(value) FROM tsdb",
                               /*deadline_ms=*/500);
    (void)r;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto rejected = probe.Query(kSelect);
  slow.join();
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsUnavailable())
      << rejected.status().ToString();
  EXPECT_GE(server_->stats().queries_busy, 1u);
}

TEST_F(ServerTest, StopCancelsInFlightQueries) {
  StartServer();
  std::atomic<bool> finished{false};
  std::thread victim([this, &finished] {
    auto client = Client::Connect("127.0.0.1", server_->port());
    if (client.ok()) {
      auto reply = client->Query("SELECT SLOW_ID(value) FROM tsdb");
      // Cancelled via the token, or the socket died first — both are
      // acceptable shutdown outcomes; hanging is not.
      EXPECT_FALSE(reply.ok());
    }
    finished.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server_->Stop();
  victim.join();
  EXPECT_TRUE(finished.load());
}

TEST_F(ServerTest, StopRaceNeverLeavesAQueryUncancelled) {
  // Hammer the admit-then-register window: a query admitted just before
  // Stop() flips stopping_ must still be cancelled (or bounced with
  // kBusy) rather than running its full course while Stop() waits on the
  // session thread. Each cycle would block for the whole SLOW_ID scan
  // (many seconds) if the race were lost; the deadline guards that.
  for (int cycle = 0; cycle < 4; ++cycle) {
    StartServer();
    std::vector<std::thread> hammers;
    for (int t = 0; t < 4; ++t) {
      hammers.emplace_back([this] {
        auto client = Client::Connect("127.0.0.1", server_->port());
        if (!client.ok()) return;
        // Loop until the server hangs up; every individual outcome
        // (result, kBusy-as-error, dead socket) is fine.
        while (client->Query("SELECT SLOW_ID(value) FROM tsdb").ok()) {
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5 + 5 * cycle));
    const auto t0 = std::chrono::steady_clock::now();
    server_->Stop();
    const auto stop_elapsed = std::chrono::steady_clock::now() - t0;
    for (auto& h : hammers) h.join();
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                  stop_elapsed)
                  .count(),
              5000)
        << "Stop() waited on an uncancelled query (cycle " << cycle << ")";
  }
}

TEST_F(ServerTest, MonitorStatementsOverTheWire) {
  monitor::MonitorService monitors(engine_.get());
  ServerOptions options;
  options.monitors = &monitors;
  StartServer(options);
  Client client = Connect();

  const std::string standing = std::string(kExplain) +
                               " BETWEEN 0 AND 3599 EVERY 10m INTO wire_hist";
  auto reg = client.Query(standing);
  ASSERT_TRUE(reg.ok()) << reg.status().ToString();
  EXPECT_EQ(reg->statement_kind,
            static_cast<uint8_t>(sql::StatementKind::kExplain));
  EXPECT_EQ(reg->active_monitors, 1u);
  ASSERT_EQ(reg->table.num_rows(), 1u);
  EXPECT_EQ(reg->table.At(0, 0).AsString(), "wire_hist");

  auto show = client.Query("SHOW MONITORS");
  ASSERT_TRUE(show.ok()) << show.status().ToString();
  ASSERT_EQ(show->table.num_rows(), 1u);
  EXPECT_EQ(show->table.At(0, 0).AsString(), "wire_hist");

  // The monitor's history accumulates server-side and is query-visible
  // over the same wire as any table.
  ASSERT_TRUE(monitors.RunOnce("wire_hist").ok());
  auto hist = client.Query("SELECT COUNT(*) AS n FROM wire_hist");
  ASSERT_TRUE(hist.ok()) << hist.status().ToString();
  EXPECT_GT(hist->table.At(0, 0).AsInt(), 0);

  auto dropped = client.Query("DROP MONITOR wire_hist");
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
  EXPECT_EQ(dropped->active_monitors, 0u);

  server_->Stop();
  monitors.Stop();
}

TEST_F(ServerTest, MonitorStatementsWithoutServiceAreErrors) {
  StartServer();  // no MonitorService attached
  Client client = Connect();
  auto reply = client.Query(std::string(kExplain) +
                            " BETWEEN 0 AND 3599 EVERY 10m INTO nope");
  ASSERT_FALSE(reply.ok());
  EXPECT_TRUE(reply.status().IsInvalidArgument())
      << reply.status().ToString();
}

TEST_F(ServerTest, OversizedResultIsOutOfRangeAndSessionSurvives) {
  // 65 rows of 1 MiB strings encode past the 64 MiB frame cap.
  table::Table big(table::Schema({{"s", table::DataType::kString}}));
  for (int r = 0; r < 65; ++r) {
    big.AppendRow({table::Value::String(std::string(1u << 20, 'x'))});
  }
  engine_->catalog().RegisterTable("big", std::move(big));
  StartServer();
  Client client = Connect();
  auto reply = client.Query("SELECT * FROM big");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kOutOfRange)
      << reply.status().ToString();
  EXPECT_EQ(server_->stats().queries_error, 1u);
  // The same connection keeps answering.
  auto one = client.Query("SELECT 1");
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one->rows_output, 1u);
}

TEST_F(ServerTest, ClientRefusesOversizedRequest) {
  StartServer();
  Client client = Connect();
  auto reply = client.Query(std::string(kMaxFramePayload, ' ') + "SELECT 1");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kOutOfRange)
      << reply.status().ToString();
  // Nothing was sent, so the connection is still in sync.
  auto one = client.Query("SELECT 1");
  ASSERT_TRUE(one.ok()) << one.status().ToString();
  EXPECT_EQ(one->rows_output, 1u);
}

}  // namespace
}  // namespace explainit::server
