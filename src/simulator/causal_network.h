// Structural-equation causal network over time series — the ground-truth
// data generator standing in for the paper's production clusters. Nodes
// are metrics in a causal Bayesian network (§3.1); edges carry weights,
// lags and link functions; interventions inject faults into windows
// (the do() operations of §5's controlled experiments).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "la/matrix.h"
#include "tsdb/store.h"

namespace explainit::sim {

/// Edge link functions.
enum class LinkFn {
  kLinear,      // w * parent
  kRelu,        // w * max(0, parent)
  kSaturating,  // w * tanh(parent)
};

/// A directed edge from an earlier node (acyclicity by construction).
struct Edge {
  size_t parent = 0;
  double weight = 1.0;
  size_t lag = 0;  // in steps
  LinkFn fn = LinkFn::kLinear;
};

/// One metric node: exogenous components plus parent contributions.
struct NodeSpec {
  std::string metric_name;
  tsdb::TagSet tags;

  double base = 0.0;
  double noise_sd = 1.0;
  double trend_per_step = 0.0;
  /// Sinusoidal seasonality (amplitude, period in steps; 0 = none).
  double seasonal_amp = 0.0;
  size_t seasonal_period = 0;
  /// AR(1) smoothing factor in [0, 1): v_t += ar * (v_{t-1} - base_level).
  double ar = 0.0;
  /// Clamp to non-negative (latencies, counters).
  bool nonnegative = false;

  std::vector<Edge> edges;
};

/// An intervention on a node over [begin, end) steps: additive bump,
/// multiplicative factor, or an arbitrary additive shape(step).
struct Intervention {
  size_t node = 0;
  size_t begin = 0;
  size_t end = 0;
  double add = 0.0;
  double mul = 1.0;
  std::function<double(size_t)> shape;  // optional; added when set
};

/// The timestamps of `steps` one-minute steps from `start`.
std::vector<EpochSeconds> MinuteGrid(size_t steps, EpochSeconds start);

/// A causal DAG whose topological order is the insertion order.
class CausalNetwork {
 public:
  /// Adds a node; every edge must reference an earlier node. Returns the
  /// node id.
  Result<size_t> AddNode(NodeSpec spec);

  size_t num_nodes() const { return nodes_.size(); }
  const NodeSpec& node(size_t id) const { return nodes_[id]; }

  /// Simulates `steps` time steps; returns (steps x num_nodes) values.
  /// Interventions apply after structural propagation (so downstream nodes
  /// see intervened parent values, as in a real fault).
  la::Matrix Simulate(size_t steps, Rng& rng,
                      const std::vector<Intervention>& interventions = {}) const;

  /// Simulates and writes every node as a minutely series starting at
  /// `start` into the store, one WriteSeries per node.
  Status WriteTo(tsdb::SeriesStore* store, size_t steps, EpochSeconds start,
                 Rng& rng,
                 const std::vector<Intervention>& interventions = {}) const;

 private:
  std::vector<NodeSpec> nodes_;
};

}  // namespace explainit::sim
