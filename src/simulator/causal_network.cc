#include "simulator/causal_network.h"

#include <cmath>

namespace explainit::sim {

Result<size_t> CausalNetwork::AddNode(NodeSpec spec) {
  for (const Edge& e : spec.edges) {
    if (e.parent >= nodes_.size()) {
      return Status::InvalidArgument(
          "edge parent " + std::to_string(e.parent) +
          " must reference an earlier node (have " +
          std::to_string(nodes_.size()) + ")");
    }
  }
  nodes_.push_back(std::move(spec));
  return nodes_.size() - 1;
}

la::Matrix CausalNetwork::Simulate(
    size_t steps, Rng& rng,
    const std::vector<Intervention>& interventions) const {
  const size_t n = nodes_.size();
  la::Matrix values(steps, n);
  // Group interventions by node for O(1) lookup.
  std::vector<std::vector<const Intervention*>> by_node(n);
  for (const Intervention& iv : interventions) {
    if (iv.node < n) by_node[iv.node].push_back(&iv);
  }
  for (size_t t = 0; t < steps; ++t) {
    for (size_t i = 0; i < n; ++i) {
      const NodeSpec& spec = nodes_[i];
      double v = spec.base + spec.trend_per_step * static_cast<double>(t);
      if (spec.seasonal_period >= 2) {
        v += spec.seasonal_amp *
             std::sin(2.0 * M_PI *
                      static_cast<double>(t % spec.seasonal_period) /
                      static_cast<double>(spec.seasonal_period));
      }
      v += rng.Normal() * spec.noise_sd;
      for (const Edge& e : spec.edges) {
        if (t < e.lag) continue;
        const double p = values(t - e.lag, e.parent);
        switch (e.fn) {
          case LinkFn::kLinear:
            v += e.weight * p;
            break;
          case LinkFn::kRelu:
            v += e.weight * std::max(0.0, p);
            break;
          case LinkFn::kSaturating:
            v += e.weight * std::tanh(p);
            break;
        }
      }
      if (spec.ar > 0.0 && t > 0) {
        v += spec.ar * (values(t - 1, i) - spec.base);
      }
      // Interventions last: downstream nodes at later evaluation see the
      // faulted value, exactly like a physical fault.
      for (const Intervention* iv : by_node[i]) {
        if (t < iv->begin || t >= iv->end) continue;
        v = v * iv->mul + iv->add;
        if (iv->shape) v += iv->shape(t);
      }
      if (spec.nonnegative && v < 0.0) v = 0.0;
      values(t, i) = v;
    }
  }
  return values;
}

std::vector<EpochSeconds> MinuteGrid(size_t steps, EpochSeconds start) {
  std::vector<EpochSeconds> out(steps);
  for (size_t t = 0; t < steps; ++t) {
    out[t] = start + static_cast<int64_t>(t) * kSecondsPerMinute;
  }
  return out;
}

Status CausalNetwork::WriteTo(
    tsdb::SeriesStore* store, size_t steps, EpochSeconds start, Rng& rng,
    const std::vector<Intervention>& interventions) const {
  la::Matrix values = Simulate(steps, rng, interventions);
  const std::vector<EpochSeconds> timestamps = MinuteGrid(steps, start);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const NodeSpec& spec = nodes_[i];
    EXPLAINIT_RETURN_IF_ERROR(store->WriteSeries(spec.metric_name, spec.tags,
                                                 timestamps, values.Col(i)));
  }
  return Status::OK();
}

}  // namespace explainit::sim
