// dashboard_select: SELECT-only monitoring dashboards. A week of the
// simulated datacentre on a minute grid, sealed and compacted so the
// rollup tiers exist, plus a small `hosts` dimension table; each op is
// one dashboard refresh, six panel SELECTs sent back to back on one
// connection at SQL parallelism 1.
#include <cstdio>
#include <string>

#include "bench/seed_executor.h"
#include "perfbench.h"
#include "served.h"
#include "sql/executor.h"

namespace explainit::perfbench {
namespace {

constexpr size_t kMinutes = 7 * 1440;
constexpr int64_t kEnd = kMinutes * 60;
constexpr int64_t kLastHour = kEnd - 3600;
constexpr int64_t kLast6h = kEnd - 6 * 3600;

struct Panel {
  const char* metric;  // the one metric the panel reads
  int64_t from;        // its window is [from, kEnd)
  std::string sql;
};

std::vector<Panel> Panels() {
  const std::string last_hour = std::to_string(kLastHour);
  const std::string last_6h = std::to_string(kLast6h);
  return {
      // Hour-grid MAX over the week (hour rollup tier).
      {"cpu_utilization", 0,
       "SELECT DATE_TRUNC('hour', timestamp) AS t, MAX(value) AS v "
       "FROM tsdb WHERE metric_name = 'cpu_utilization' "
       "GROUP BY DATE_TRUNC('hour', timestamp)"},
      // Minute-grid SUM over the last 6 h.
      {"tcp_retransmits", kLast6h,
       "SELECT DATE_TRUNC('minute', timestamp) AS t, SUM(value) AS v "
       "FROM tsdb WHERE metric_name = 'tcp_retransmits' AND timestamp >= " +
           last_6h + " GROUP BY DATE_TRUNC('minute', timestamp)"},
      // COUNT(*) on the hour grid (count rollup tier).
      {"disk_read_latency_ms", 0,
       "SELECT DATE_TRUNC('hour', timestamp) AS t, COUNT(*) AS n "
       "FROM tsdb WHERE metric_name = 'disk_read_latency_ms' "
       "GROUP BY DATE_TRUNC('hour', timestamp)"},
      // Per-host AVG with a tag filter over the last hour.
      {"load_average", kLastHour,
       "SELECT tag['host'] AS host, AVG(value) AS v FROM tsdb "
       "WHERE metric_name = 'load_average' AND tag['host'] != 'datanode-0' "
       "AND timestamp >= " +
           last_hour + " GROUP BY tag['host']"},
      // Top 50 points of the last 6 h.
      {"disk_utilization", kLast6h,
       "SELECT timestamp, tag['host'] AS host, value FROM tsdb "
       "WHERE metric_name = 'disk_utilization' AND timestamp >= " +
           last_6h + " ORDER BY value DESC, timestamp, host LIMIT 50"},
      // hosts x tsdb in the worst statement order (bench/sql_pipeline Q4).
      {"cpu_utilization", kLastHour,
       "SELECT h.grp AS g, SUM(f.value) AS s, COUNT(*) AS n "
       "FROM hosts h CROSS JOIN slots sl "
       "JOIN tsdb f ON f.tag['host'] = h.host AND f.timestamp = sl.b "
       "WHERE f.metric_name = 'cpu_utilization' AND f.timestamp >= " +
           last_hour + " GROUP BY h.grp ORDER BY g"},
  };
}

/// The `hosts` dimension (host -> rack) and the last hour's minute slots.
void RegisterDimensions(sql::Catalog* catalog) {
  const sim::DatacentreConfig config = WorldConfig();
  table::Table hosts(table::Schema{{{"host", table::DataType::kString},
                                    {"grp", table::DataType::kString}}});
  for (size_t d = 0; d <= config.num_datanodes; ++d) {
    const std::string host = d < config.num_datanodes
                                 ? "datanode-" + std::to_string(d)
                                 : "namenode-0";
    hosts.AppendRow({table::Value::String(host),
                     table::Value::String("rack" + std::to_string(d % 4))});
  }
  catalog->RegisterTable("hosts", std::move(hosts));
  table::Table slots(table::Schema{{{"b", table::DataType::kTimestamp}}});
  for (int64_t t = kLastHour; t < kEnd; t += 60) {
    slots.AppendRow({table::Value::Timestamp(t)});
  }
  catalog->RegisterTable("slots", std::move(slots));
}

/// Each panel against the seed interpreter over a catalog whose `tsdb`
/// holds only the panel's metric and window (the seed scans without
/// pushdown); where the seed cannot run the shape, against the
/// optimizer-off pipeline.
void Check(const std::shared_ptr<tsdb::SeriesStore>& store,
           const std::vector<table::Table>& replies, Report* report) {
  const std::vector<Panel> panels = Panels();
  const sql::FunctionRegistry functions = sql::FunctionRegistry::Builtins();
  for (size_t i = 0; i < panels.size(); ++i) {
    tsdb::ScanRequest req;
    req.metric_glob = panels[i].metric;
    req.range = TimeRange{panels[i].from, kEnd};
    auto rows = store->ScanToTable(req);
    if (!rows.ok()) {
      report->Fail("oracle scan: " + rows.status().ToString());
      continue;
    }
    sql::Catalog catalog;
    catalog.RegisterTable("tsdb", std::move(*rows));
    RegisterDimensions(&catalog);
    bench::SeedExecutor seed(&catalog, &functions);
    auto want = seed.Query(panels[i].sql);
    const char* oracle = "seed";
    if (!want.ok()) {
      sql::Executor off(&catalog, &functions);
      sql::PlannerOptions optimizer_off;
      optimizer_off.enabled = false;
      off.set_optimizer(optimizer_off);
      want = off.Query(panels[i].sql);
      oracle = "optimizer_off";
    }
    PrintConfig("panel" + std::to_string(i) + "_oracle", oracle);
    if (!want.ok()) {
      report->Fail("oracle: " + want.status().ToString());
      continue;
    }
    const std::string diff = CompareTables(replies[i], *want);
    if (!diff.empty()) {
      report->Fail("panel " + std::to_string(i) + " differs from the " +
                   oracle + " oracle: " + diff);
    }
  }
}

}  // namespace

void RunDashboardSelect(const Options& options, Report* report) {
  ServedWorkload w;
  w.parallelism = 1;
  w.table_range = TimeRange{0, kEnd};
  for (const Panel& p : Panels()) w.statements.push_back(p.sql);
  w.load = [](uint64_t seed, tsdb::SeriesStore* store, WriteTimes* writes) {
    const World world = MakeWorld(seed, kMinutes);
    LoadMinutes(world, store, 0, kMinutes, writes);
    if (!store->Compact().ok()) std::abort();
  };
  w.register_tables = RegisterDimensions;
  w.check = Check;
  w.traced_ops = 10;
  PrintConfig("sql_parallelism", "1");
  RunServed(options, w, report);
}

}  // namespace explainit::perfbench
