// The harness of the two workloads a client drives over TCP
// (rca_explain, dashboard_select): a store behind an engine behind an
// in-process server::Server, one closed-loop server::Client on the
// calling thread, and the traced in-process replay of the same ops.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "perfbench.h"
#include "sql/catalog.h"
#include "table/table.h"
#include "tsdb/store.h"

namespace explainit::perfbench {

struct ServedWorkload {
  /// SQL parallelism of the server's sessions and the traced executor.
  size_t parallelism = 1;
  /// Range of the registered `tsdb` table.
  TimeRange table_range;
  /// The op: statements sent back to back on the one connection and
  /// timed as a whole, so a mix of unequal statements cannot split the
  /// latency distribution into classes.
  std::vector<std::string> statements;
  /// Generates the world from `seed` and writes it into `store` (load,
  /// then Flush/Compact), timing each WriteSeries call into `writes`.
  std::function<void(uint64_t seed, tsdb::SeriesStore* store,
                     WriteTimes* writes)>
      load;
  /// Registers the workload's dimension tables (may be empty).
  std::function<void(sql::Catalog*)> register_tables;
  /// Checks the warm-up replies (one per statement) against an oracle,
  /// after the timed phase.
  std::function<void(const std::shared_ptr<tsdb::SeriesStore>& store,
                     const std::vector<table::Table>& replies,
                     Report* report)>
      check;
  /// Ops replayed by the traced run (a fixed count, so its exact counters
  /// repeat).
  size_t traced_ops = 1;
};

void RunServed(const Options& options, const ServedWorkload& workload,
               Report* report);

}  // namespace explainit::perfbench
