// rca_explain: the paper's interactive RCA loop. One day of the simulated
// datacentre on a minute grid with the §5.1 packet-drop fault injected,
// bulk-loaded and flushed so scans hit sealed segments; each op is four
// EXPLAINs sent back to back over loopback TCP at SQL parallelism 2.
#include <cstdio>
#include <string>

#include "core/engine.h"
#include "perfbench.h"
#include "served.h"

namespace explainit::perfbench {
namespace {

constexpr size_t kMinutes = 1440;
constexpr Fault kFault{900, 960, 1080};
/// Explained windows, in minutes: one across the fault onset, one quiet.
constexpr size_t kWindowMinutes = 60;
constexpr size_t kFaultWindowStart = 870;
constexpr size_t kQuietWindowStart = 360;

/// One EXPLAIN over the window starting at `start_minute`, with
/// per-(metric, host) candidate families carrying derived features (v,
/// v^2, v^3) like bench/explain_rca: 6 host metrics give 182 families.
/// The fault window is scored with CorrMax, the univariate first-pass
/// scorer §6.1 recommends for a global search (bench/table3 makes the
/// same choice for this fault); the quiet window with the multi-feature
/// ridge scorer L2.
std::string Statement(size_t start_minute, bool pseudocause) {
  const std::string lo = std::to_string(start_minute * 60);
  const std::string hi =
      std::to_string((start_minute + kWindowMinutes) * 60 - 1);
  const std::string window =
      " AND timestamp >= " + lo + " AND timestamp <= " + hi;
  const char* scorer = start_minute == kFaultWindowStart ? "CorrMax" : "L2";
  return "EXPLAIN (SELECT timestamp, AVG(value) AS y FROM tsdb "
         "WHERE metric_name = 'overall_runtime'" +
         window + " GROUP BY timestamp) " +
         (pseudocause ? "GIVEN PSEUDOCAUSE " : "") +
         "USING (SELECT ts, family, v, v * v AS v2, v * v * v AS v3 FROM "
         "(SELECT timestamp AS ts, CONCAT(metric_name, '@', tag['host']) "
         "AS family, AVG(value) AS v FROM tsdb WHERE metric_name IN "
         "('tcp_retransmits', 'network_latency_ms', 'disk_read_latency_ms', "
         "'cpu_utilization', 'load_average', 'jvm_gc_ms')" +
         window +
         " GROUP BY timestamp, CONCAT(metric_name, '@', tag['host'])) q) "
         "SCORE BY '" +
         scorer + "' TOP 20 BETWEEN " + lo + " AND " + hi;
}

/// The §5.1 root-cause metrics of the packet-drop fault.
bool IsPacketDropCause(const std::string& family) {
  for (const char* cause :
       {"tcp_retransmits", "network_latency_ms", "hdfs_packet_ack_rtt_ms"}) {
    if (family.rfind(cause, 0) == 0) return true;
  }
  return false;
}

/// Score Tables against optimizer-off runs of the same statements, and
/// the injected cause in the top 10 of every fault-window statement.
void Check(const std::vector<std::string>& statements,
           const std::shared_ptr<tsdb::SeriesStore>& store,
           const std::vector<table::Table>& replies, Report* report) {
  core::EngineOptions options;
  options.sql_parallelism = 2;
  options.sql_optimizer.enabled = false;
  core::Engine oracle(store, options);
  oracle.RegisterStoreTable("tsdb", TimeRange{0, kMinutes * 60});
  for (size_t i = 0; i < statements.size(); ++i) {
    auto want = oracle.Query(statements[i]);
    if (!want.ok()) {
      report->Fail("optimizer-off run: " + want.status().ToString());
      continue;
    }
    const table::Table& got = replies[i];
    if (CanonicalTableBytes(got) != CanonicalTableBytes(want->table)) {
      report->Fail("EXPLAIN " + std::to_string(i) +
                   " differs from its optimizer-off run");
    }
    if (statements[i].find("CorrMax") == std::string::npos) continue;
    bool found = false;
    std::string top;
    for (size_t r = 0; r < got.num_rows() && r < 10; ++r) {
      found = found || IsPacketDropCause(got.At(r, 1).AsString());
      top += ' ';
      top += got.At(r, 1).AsString();
    }
    if (!found) {
      report->Fail("injected cause not in the top 10 of EXPLAIN " +
                   std::to_string(i) + ":" + top);
    }
  }
}

}  // namespace

void RunRcaExplain(const Options& options, Report* report) {
  ServedWorkload w;
  w.parallelism = 2;
  w.table_range = TimeRange{0, kMinutes * 60};
  // Marginal and GIVEN PSEUDOCAUSE alternate; the window alternates
  // between the fault and a quiet stretch every two statements.
  for (size_t start : {kFaultWindowStart, kQuietWindowStart}) {
    for (bool pseudocause : {false, true}) {
      w.statements.push_back(Statement(start, pseudocause));
    }
  }
  w.load = [](uint64_t seed, tsdb::SeriesStore* store, WriteTimes* writes) {
    const World world = MakeWorld(seed, kMinutes, &kFault);
    LoadMinutes(world, store, 0, kMinutes, writes);
    if (!store->Flush().ok()) std::abort();
  };
  const auto statements = w.statements;
  w.check = [statements](const std::shared_ptr<tsdb::SeriesStore>& store,
                         const std::vector<table::Table>& replies,
                         Report* r) { Check(statements, store, replies, r); };
  w.traced_ops = 5;
  PrintConfig("sql_parallelism", "2");
  PrintConfig("window_minutes", std::to_string(kWindowMinutes));
  RunServed(options, w, report);
}

}  // namespace explainit::perfbench
