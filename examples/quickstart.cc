// Quickstart: the Figure 1 system — an event stream (Z) feeding a
// processing pipeline (Y) writing to a file system (X) — analysed end to
// end with ExplainIt!.
//
//   exogenous input  Z = (Z1)        events/sec
//   processing       Y = (Y1)        runtime seconds
//   file system      X = (X1,X2,X3)  usage kB, read/write latency ms
//
// We (1) ingest the metrics into the embedded tsdb, (2) pick Y as the
// target, (3) rank candidate causes, and (4) use conditioning to check the
// chain structure Z -> Y -> X.
#include <cstdio>
#include <string>

#include "core/engine.h"
#include "simulator/causal_network.h"

using namespace explainit;

int main() {
  // --- Build the Figure 1 world with a known causal chain. ---
  sim::CausalNetwork net;
  sim::NodeSpec z;
  z.metric_name = "input_rate";
  z.tags = tsdb::TagSet{{"type", "event-1"}};
  z.base = 1000.0;
  z.noise_sd = 80.0;
  z.seasonal_amp = 120.0;
  z.seasonal_period = 240;
  auto z_id = net.AddNode(z);

  sim::NodeSpec y;
  y.metric_name = "runtime";
  y.tags = tsdb::TagSet{{"component", "pipeline-1"}};
  y.base = 5.0;
  y.noise_sd = 1.0;
  y.edges.push_back(sim::Edge{z_id.value(), 0.02, 0, sim::LinkFn::kLinear});
  auto y_id = net.AddNode(y);

  const char* x_names[3] = {"disk_usage_kb", "disk_read_latency_ms",
                            "disk_write_latency_ms"};
  for (int i = 0; i < 3; ++i) {
    sim::NodeSpec x;
    x.metric_name = x_names[i];
    x.tags = tsdb::TagSet{{"host", "datanode-1"}};
    x.base = 10.0 + i;
    x.noise_sd = 1.0;
    x.edges.push_back(
        sim::Edge{y_id.value(), 0.8 + 0.2 * i, 0, sim::LinkFn::kLinear});
    if (!net.AddNode(x).ok()) return 1;
  }
  // An unrelated metric to show ranking separation.
  sim::NodeSpec other;
  other.metric_name = "fan_speed_rpm";
  other.tags = tsdb::TagSet{{"host", "datanode-1"}};
  other.base = 4000.0;
  other.noise_sd = 30.0;
  if (!net.AddNode(other).ok()) return 1;

  auto store = std::make_shared<tsdb::SeriesStore>();
  Rng rng(1);
  const size_t steps = 480;  // 8 hours of minutely data
  if (!net.WriteTo(store.get(), steps, 0, rng).ok()) return 1;
  std::printf("ingested %zu series, %zu points (%zu compressed bytes)\n",
              store->num_series(), store->num_points(),
              store->compressed_bytes());

  // --- Step 1-3 of the workflow: target, search space, ranking. ---
  // Each sub-select emits the Figure 4 shape: one family per metric, one
  // feature per series.
  core::Engine engine(store);
  engine.RegisterStoreTable("tsdb",
                            TimeRange{0, static_cast<int64_t>(steps) * 60});
  const std::string by_metric =
      "SELECT timestamp AS ts, metric_name AS name, "
      "MAP(CONCAT(metric_name, tag), value) AS v FROM tsdb WHERE ";
  auto ranking = engine.Query(
      "EXPLAIN (" + by_metric + "metric_name = 'runtime') USING (" +
      by_metric + "metric_name <> 'runtime') SCORE BY 'L2' TOP 20");
  if (!ranking.ok()) {
    std::fprintf(stderr, "%s\n", ranking.status().ToString().c_str());
    return 1;
  }
  std::printf("\nWhat explains the pipeline runtime?\n%s\n",
              ranking->score_table->ToString().c_str());

  // --- Checking the direction: is it a chain Z -> Y -> X? ---
  // If so, X and Z are dependent marginally but independent given Y.
  auto family = [&](const std::string& where,
                    const std::string& name) -> Result<core::FeatureFamily> {
    EXPLAINIT_ASSIGN_OR_RETURN(auto rows, engine.Query(by_metric + where));
    return core::FamilyFromRows(std::move(rows.table), name, name);
  };
  auto x_fam = family("metric_name LIKE 'disk_%'", "X");
  auto z_fam = family("metric_name = 'input_rate'", "Z");
  auto y_fam = family("metric_name = 'runtime'", "Y");
  if (!x_fam.ok() || !z_fam.ok() || !y_fam.ok()) return 1;
  core::RidgeScorer scorer;
  la::Matrix empty;
  auto marginal = scorer.Score(x_fam->data, z_fam->data, empty);
  auto conditional = scorer.Score(x_fam->data, z_fam->data, y_fam->data);
  if (!marginal.ok() || !conditional.ok()) return 1;
  std::printf(
      "chain check (Z -> Y -> X implies Z dep X, Z indep X | Y):\n"
      "  score(X, Z)      = %.3f   (dependent)\n"
      "  score(X, Z | Y)  = %.3f   (blocked by conditioning on Y)\n",
      marginal->score, conditional->score);
  std::printf(
      "\nConditioning collapsed the dependence: consistent with the chain"
      " Z -> Y -> X of Figure 1.\n");
  return 0;
}
