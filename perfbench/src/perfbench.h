// Shared pieces of the repository benchmark: run options, the result
// report, world generation from the datacentre simulator, the timed op
// loop, latency statistics and the canonical reply encoding every timed
// reply is compared through.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/time_util.h"
#include "simulator/datacentre.h"
#include "table/table.h"
#include "tsdb/store.h"

namespace explainit::perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// The benchmark's result line: correctness, op counts and named metrics.
/// Units are not carried here: run.py attaches them from BENCHMARK.json,
/// the one list of metric names.
class Report {
 public:
  void Add(const std::string& name, double value);
  /// Records a correctness failure (the run exits non-zero).
  void Fail(const std::string& what);
  /// Counts one timed op; a failed or wrong op also fails the run.
  void CountOp(bool ok);
  bool correct() const { return correct_ && failed_ == 0; }
  /// The single-line JSON object the benchmark's last stdout line carries.
  std::string ToJson() const;

 private:
  std::vector<std::pair<std::string, double>> metrics_;
  bool correct_ = true;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

/// Prints one `config key=value` line (the host/config record).
void PrintConfig(const std::string& key, const std::string& value);

/// The simulated datacentre (§5 topology) at the benchmark's size: 8
/// pipelines and 30 datanodes give 312 monitored series.
sim::DatacentreConfig WorldConfig();

/// One monitored series of the simulated world, values on a minute grid.
struct SeriesSpec {
  std::string metric;
  tsdb::TagSet tags;
  std::vector<double> values;
};

struct World {
  std::vector<SeriesSpec> series;
  size_t minutes = 0;
};

/// The §5.1 packet-drop fault: every host's retransmit counter jumps at
/// `begin`, holds until `plateau_end`, then decays until `end`.
struct Fault {
  size_t begin = 0;
  size_t plateau_end = 0;
  size_t end = 0;
};

/// Simulates `minutes` steps of the world from `seed`, optionally with
/// the packet-drop fault injected.
World MakeWorld(uint64_t seed, size_t minutes, const Fault* fault = nullptr);

/// Store options of every workload: sealing inline on the writing thread,
/// so no background maintenance runs while ops are timed.
tsdb::StoreOptions InlineStoreOptions();

/// Seconds spent inside Write/WriteSeries, one entry per batch of
/// `points_per_batch` points.
struct WriteTimes {
  size_t points_per_batch = 0;
  std::vector<double> batch_seconds;
};

/// Bulk load: minutes [begin, end) of every series, one WriteSeries call
/// per series, each call one batch of `times`.
void LoadMinutes(const World& world, tsdb::SeriesStore* store, size_t begin,
                 size_t end, WriteTimes* times);

/// Collector-style ingest: minutes [begin, end) time-major, one Write per
/// point; minute m carries the world's value at m % world.minutes, so a
/// world replays as an endless periodic stream. Returns the seconds spent
/// inside the Write calls.
double StreamMinutes(const World& world, tsdb::SeriesStore* store,
                     size_t begin, size_t end);

/// Nearest-rank percentile of an unsorted sample (p in [0, 1]).
double Percentile(std::vector<double> sample, double p);

/// Reply bytes with `score_seconds` zeroed (wall time inside a Score
/// Table), so equal answers encode equal.
std::vector<uint8_t> CanonicalTableBytes(const table::Table& t);

/// Order-insensitive comparison of a result against an oracle: same
/// width and row multiset, doubles within a relative 1e-9. Returns an
/// empty string when equal, else a description.
std::string CompareTables(const table::Table& got, const table::Table& want);

/// Peak resident set size of this process in MB (ru_maxrss).
double PeakRssMb();

/// The timed phase: ops run until `seconds` have passed and at least
/// kMinOps ops completed. `op()` runs one op and returns its latency in
/// seconds.
struct Phase {
  std::vector<double> latencies_s;
  double seconds = 0.0;
};
Phase RunOps(double seconds, const std::function<double()>& op);

/// End-to-end figures of an untraced run. The first set-up is the one the
/// timed phase runs on; the others are made after peak_rss_mb is read, so
/// they time set-up without adding to the peak.
struct EndToEnd {
  std::vector<double> setup_seconds;  // one per set-up repetition
  Phase phase;
  WriteTimes writes;
  double bytes_per_point = 0.0;
  double peak_rss_mb = 0.0;
};
void AddEndToEnd(const EndToEnd& e2e, Report* report);

/// Per-layer metrics of a traced run. run.py reports a listed metric the
/// workload does not exercise as 0.
void AddLayers(const std::map<std::string, double>& values, Report* report);

/// Prints `statement<j>_p50_ms` config lines: the median latency of each
/// statement of an op, so a mix of unequal statements can be seen.
void PrintStatementMedians(const std::vector<std::vector<double>>& seconds);

/// True while an untraced run should make another set-up: at least
/// kSetupRepeats of them and kSetupSeconds in all, so a set-up of a few
/// tens of milliseconds is repeated often enough for a steady median.
bool MoreSetUps(const std::vector<double>& setup_seconds);
constexpr size_t kSetupRepeats = 3;
constexpr double kSetupSeconds = 2.0;
/// Ops every timed phase completes at least, so >= 10 samples lie beyond
/// p90.
constexpr size_t kMinOps = 100;

void RunRcaExplain(const Options& options, Report* report);
void RunDashboardSelect(const Options& options, Report* report);
void RunMonitorIngest(const Options& options, Report* report);

}  // namespace explainit::perfbench
