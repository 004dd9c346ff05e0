#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <sstream>
#include <utility>

#include "common/random.h"
#include "perfbench.h"
#include "server/protocol.h"

namespace explainit::perfbench {

void Report::Add(const std::string& name, double value) {
  metrics_.emplace_back(name, value);
}

void Report::Fail(const std::string& what) {
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  correct_ = false;
}

void Report::CountOp(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << std::max<size_t>(attempted_, 1)
      << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& [name, v] = metrics_[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(v) ? v : 0.0);
    out << (i > 0 ? ", " : "") << "\"" << name << "\": " << value;
  }
  out << "}}";
  return out.str();
}

void PrintConfig(const std::string& key, const std::string& value) {
  std::printf("config %s=%s\n", key.c_str(), value.c_str());
}

sim::DatacentreConfig WorldConfig() {
  sim::DatacentreConfig config;
  config.num_pipelines = 8;
  config.num_datanodes = 30;
  return config;
}

World MakeWorld(uint64_t seed, size_t minutes, const Fault* fault) {
  const sim::DatacentreModel model(WorldConfig());
  std::vector<sim::Intervention> faults;
  if (fault != nullptr) {
    const size_t plateau_end = fault->plateau_end;
    for (size_t node : model.NodesByMetric("tcp_retransmits")) {
      sim::Intervention iv;
      iv.node = node;
      iv.begin = fault->begin;
      iv.end = fault->end;
      iv.shape = [plateau_end](size_t t) {
        if (t < plateau_end) return 60.0;
        return 60.0 * std::exp(-static_cast<double>(t - plateau_end) / 12.0);
      };
      faults.push_back(iv);
    }
  }
  Rng rng(seed);
  const la::Matrix values = model.network().Simulate(minutes, rng, faults);
  World world;
  world.minutes = minutes;
  for (size_t i = 0; i < model.network().num_nodes(); ++i) {
    const sim::NodeSpec& spec = model.network().node(i);
    // Hidden drivers are unmonitored, as in DatacentreModel::WriteTo.
    if (spec.metric_name.rfind("_hidden", 0) == 0) continue;
    world.series.push_back(
        SeriesSpec{spec.metric_name, spec.tags, values.Col(i)});
  }
  return world;
}

tsdb::StoreOptions InlineStoreOptions() {
  tsdb::StoreOptions options;
  options.background_seal = false;
  return options;
}

namespace {

void CheckWrite(const Status& st) {
  if (!st.ok()) {
    std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
}

}  // namespace

void LoadMinutes(const World& world, tsdb::SeriesStore* store, size_t begin,
                 size_t end, WriteTimes* times) {
  std::vector<EpochSeconds> ts;
  for (size_t m = begin; m < end; ++m) {
    ts.push_back(static_cast<EpochSeconds>(m) * kSecondsPerMinute);
  }
  std::vector<double> vals;
  times->points_per_batch = end - begin;
  for (const SeriesSpec& s : world.series) {
    vals.assign(s.values.begin() + static_cast<ptrdiff_t>(begin),
                s.values.begin() + static_cast<ptrdiff_t>(end));
    const double t0 = MonotonicSeconds();
    const Status st = store->WriteSeries(s.metric, s.tags, ts, vals);
    times->batch_seconds.push_back(MonotonicSeconds() - t0);
    CheckWrite(st);
  }
}

double StreamMinutes(const World& world, tsdb::SeriesStore* store,
                     size_t begin, size_t end) {
  const double t0 = MonotonicSeconds();
  for (size_t m = begin; m < end; ++m) {
    const EpochSeconds ts = static_cast<EpochSeconds>(m) * kSecondsPerMinute;
    for (const SeriesSpec& s : world.series) {
      CheckWrite(store->Write(s.metric, s.tags, ts,
                              s.values[m % world.minutes]));
    }
  }
  return MonotonicSeconds() - t0;
}

double Percentile(std::vector<double> sample, double p) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double rank = std::ceil(p * static_cast<double>(sample.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sample[std::min(idx, sample.size() - 1)];
}

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

namespace {

bool CellsEqual(const table::Value& a, const table::Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.type() == table::DataType::kDouble ||
      b.type() == table::DataType::kDouble) {
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return std::abs(x - y) <= 1e-9 * (1.0 + std::abs(x) + std::abs(y));
  }
  return a.AsString() == b.AsString();
}

/// Sort key of a row: non-double cells exactly, doubles rounded coarsely
/// enough that oracle rounding noise cannot reorder rows.
std::string RowKey(const std::vector<table::Value>& row) {
  std::string key;
  for (const table::Value& v : row) {
    if (v.is_null()) {
      key += "<null>";
    } else if (v.type() == table::DataType::kDouble) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6e", v.AsDouble());
      key += buf;
    } else {
      key += v.AsString();
    }
    key += '\x1f';
  }
  return key;
}

}  // namespace

std::string CompareTables(const table::Table& got, const table::Table& want) {
  if (got.num_columns() != want.num_columns()) {
    return "column count " + std::to_string(got.num_columns()) + " vs " +
           std::to_string(want.num_columns());
  }
  if (got.num_rows() != want.num_rows()) {
    return "row count " + std::to_string(got.num_rows()) + " vs " +
           std::to_string(want.num_rows());
  }
  auto sorted_rows = [](const table::Table& t) {
    std::vector<std::pair<std::string, std::vector<table::Value>>> rows;
    for (size_t r = 0; r < t.num_rows(); ++r) {
      std::vector<table::Value> row = t.Row(r);
      std::string key = RowKey(row);
      rows.emplace_back(std::move(key), std::move(row));
    }
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    return rows;
  };
  const auto a = sorted_rows(got);
  const auto b = sorted_rows(want);
  for (size_t r = 0; r < a.size(); ++r) {
    for (size_t c = 0; c < a[r].second.size(); ++c) {
      if (!CellsEqual(a[r].second[c], b[r].second[c])) {
        return "row " + std::to_string(r) + " column " + std::to_string(c) +
               ": " + a[r].second[c].ToString() + " vs " +
               b[r].second[c].ToString();
      }
    }
  }
  return "";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

Phase RunOps(double seconds, const std::function<double()>& op) {
  Phase phase;
  const double t0 = MonotonicSeconds();
  while (true) {
    phase.latencies_s.push_back(op());
    phase.seconds = MonotonicSeconds() - t0;
    if (phase.seconds >= seconds && phase.latencies_s.size() >= kMinOps) {
      break;
    }
  }
  return phase;
}

bool MoreSetUps(const std::vector<double>& setup_seconds) {
  return setup_seconds.size() < kSetupRepeats ||
         std::accumulate(setup_seconds.begin(), setup_seconds.end(), 0.0) <
             kSetupSeconds;
}

void AddEndToEnd(const EndToEnd& e2e, Report* report) {
  const std::vector<double>& lat = e2e.phase.latencies_s;
  report->Add("setup_s", Percentile(e2e.setup_seconds, 0.5));
  // A shared host runs the same op 1.3-1.7x slower for stretches of a
  // fraction of a second to minutes, and how much of a run is slow varies
  // from run to run, so every percentile of a run moves with the host.
  // Interference only adds time to an op whose work is fixed by the seed,
  // so the fastest op and the fastest write batch are the figures that
  // repeat: they need one uncontended moment in a run, not a share of it.
  const std::vector<double>& batches = e2e.writes.batch_seconds;
  report->Add("latency_min_ms",
              *std::min_element(lat.begin(), lat.end()) * 1e3);
  report->Add("ingest_points_per_s",
              static_cast<double>(e2e.writes.points_per_batch) /
                  *std::min_element(batches.begin(), batches.end()));
  report->Add("peak_rss_mb", e2e.peak_rss_mb);
  report->Add("bytes_per_point", e2e.bytes_per_point);
  PrintConfig("timed_ops", std::to_string(lat.size()));
  PrintConfig("ops_beyond_p90",
              std::to_string(lat.size() - static_cast<size_t>(std::ceil(
                                              0.9 * lat.size()))));
  char value[32];
  std::snprintf(value, sizeof(value), "%.3f", Percentile(lat, 0.5) * 1e3);
  PrintConfig("latency_p50_ms", value);
  std::snprintf(value, sizeof(value), "%.3f", Percentile(lat, 0.9) * 1e3);
  PrintConfig("latency_p90_ms", value);
  std::snprintf(value, sizeof(value), "%.3f",
                static_cast<double>(lat.size()) / e2e.phase.seconds);
  PrintConfig("ops_per_s", value);
}

void AddLayers(const std::map<std::string, double>& values, Report* report) {
  for (const auto& [name, value] : values) report->Add(name, value);
}

void PrintStatementMedians(const std::vector<std::vector<double>>& seconds) {
  for (size_t j = 0; j < seconds.size(); ++j) {
    char value[32];
    std::snprintf(value, sizeof(value), "%.3f",
                  Percentile(seconds[j], 0.5) * 1e3);
    PrintConfig("statement" + std::to_string(j) + "_p50_ms", value);
  }
}

}  // namespace explainit::perfbench
