// explainit_server_smoke: concurrent-client smoke against a RUNNING
// explainit_serverd (ci/check.sh starts the daemon, parses its printed
// port, and points this at it). Each session pings, sends a statement
// nested past the parser's cap (which must come back as a ParseError, not
// a dead server), pings again, runs a SELECT and the declarative EXPLAIN,
// and validates the replies; any failure exits non-zero.
//
//   explainit_server_smoke --port=PORT [--host=127.0.0.1] [--sessions=8]
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "server/client.h"
#include "sql/parser.h"

using namespace explainit;

namespace {

long ArgInt(int argc, char** argv, const char* name, long fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atol(argv[i] + prefix.size());
    }
  }
  return fallback;
}

std::string ArgStr(int argc, char** argv, const char* name,
                   const std::string& fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return fallback;
}

const char* kSelect =
    "SELECT timestamp, AVG(value) AS runtime_sec FROM tsdb "
    "WHERE metric_name = 'overall_runtime' "
    "GROUP BY timestamp ORDER BY timestamp LIMIT 20";

const char* kExplain = R"(
    EXPLAIN (SELECT timestamp, AVG(value) AS runtime_sec
             FROM tsdb WHERE metric_name = 'overall_runtime'
             GROUP BY timestamp)
    USING (SELECT timestamp, CONCAT('net-', tag['host']) AS family,
                  AVG(value) AS v
           FROM tsdb WHERE metric_name = 'tcp_retransmits'
           GROUP BY timestamp, CONCAT('net-', tag['host']))
    SCORE BY 'L2' TOP 5)";

}  // namespace

int main(int argc, char** argv) {
  const long port = ArgInt(argc, argv, "port", 0);
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "usage: explainit_server_smoke --port=PORT\n");
    return 2;
  }
  const std::string host = ArgStr(argc, argv, "host", "127.0.0.1");
  const long sessions = ArgInt(argc, argv, "sessions", 8);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (long s = 0; s < sessions; ++s) {
    threads.emplace_back([&, s] {
      auto client =
          server::Client::Connect(host, static_cast<uint16_t>(port));
      if (!client.ok()) {
        std::fprintf(stderr, "session %ld connect: %s\n", s,
                     client.status().ToString().c_str());
        failures.fetch_add(1);
        return;
      }
      if (Status st = client->Ping(); !st.ok()) {
        std::fprintf(stderr, "session %ld ping: %s\n", s,
                     st.ToString().c_str());
        failures.fetch_add(1);
        return;
      }
      const size_t deep = 20 * sql::kMaxNestingDepth;
      auto over_cap = client->Query(
          "SELECT " + std::string(deep, '(') + "1" + std::string(deep, ')'));
      if (over_cap.ok() || !over_cap.status().IsParseError() ||
          !client->Ping().ok()) {
        std::fprintf(stderr,
                     "session %ld over-cap statement: %s (want ParseError "
                     "and a live session)\n",
                     s, over_cap.status().ToString().c_str());
        failures.fetch_add(1);
        return;
      }
      for (const char* sql : {kSelect, kExplain}) {
        auto reply = client->Query(sql, /*deadline_ms=*/30000);
        if (!reply.ok() || reply->table.num_rows() == 0) {
          std::fprintf(stderr, "session %ld query failed: %s\n", s,
                       reply.ok() ? "empty result"
                                  : reply.status().ToString().c_str());
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  if (failures.load() != 0) {
    std::fprintf(stderr, "server smoke FAILED (%d sessions)\n",
                 failures.load());
    return 1;
  }
  std::printf("server smoke passed: %ld concurrent sessions ok\n", sessions);
  return 0;
}
