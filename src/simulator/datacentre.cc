#include "simulator/datacentre.h"

#include "common/logging.h"
#include "common/strings.h"

namespace explainit::sim {

size_t DatacentreModel::MustAdd(NodeSpec spec) {
  const std::string name = spec.metric_name;
  Result<size_t> id = network_.AddNode(std::move(spec));
  EXPLAINIT_CHECK(id.ok(), "bad node wiring: " << id.status().ToString());
  by_metric_[name].push_back(id.value());
  hidden_.push_back(false);
  return id.value();
}

DatacentreModel::DatacentreModel(const DatacentreConfig& config)
    : config_(config) {
  const size_t day = config.day_period;

  // --- Hidden fault drivers (quiescent until an intervention fires). ---
  {
    NodeSpec scan;
    scan.metric_name = "_hidden_scan_rate";
    scan.base = 1.0;
    scan.noise_sd = 0.1;
    scan.nonnegative = true;
    scan_rate_node_ = MustAdd(std::move(scan));
    hidden_.back() = true;

    NodeSpec scrub;
    scrub.metric_name = "_hidden_raid_scrub";
    scrub.base = 0.0;
    scrub.noise_sd = 0.02;
    scrub.nonnegative = true;
    raid_scrub_node_ = MustAdd(std::move(scrub));
    hidden_.back() = true;

    NodeSpec hyp;
    hyp.metric_name = "_hidden_hypervisor_drops";
    hyp.base = 0.0;
    hyp.noise_sd = 0.05;
    hyp.nonnegative = true;
    hypervisor_drop_node_ = MustAdd(std::move(hyp));
    hidden_.back() = true;
  }

  // --- Exogenous cluster-wide load. ---
  std::vector<size_t> input_nodes;
  for (size_t p = 0; p < config.num_pipelines; ++p) {
    NodeSpec input;
    input.metric_name = "input_rate_pipeline" + std::to_string(p);
    input.tags = tsdb::TagSet{{"pipeline", "p" + std::to_string(p)}};
    input.base = 1000.0 + 100.0 * static_cast<double>(p);
    input.noise_sd = 60.0;
    input.seasonal_amp = 150.0;
    input.seasonal_period = day;
    input.ar = 0.4;
    input.nonnegative = true;
    input_nodes.push_back(MustAdd(std::move(input)));
  }

  // --- Network layer: TCP retransmissions per host, driven by the hidden
  // hypervisor drop node (§5.2) and by intervention (§5.1). ---
  std::vector<size_t> retransmit_nodes;
  const size_t num_hosts = config.num_datanodes + 1;  // +1 namenode host
  for (size_t h = 0; h < num_hosts; ++h) {
    const std::string host =
        h < config.num_datanodes ? "datanode-" + std::to_string(h)
                                 : "namenode-0";
    NodeSpec tcp;
    tcp.metric_name = "tcp_retransmits";
    tcp.tags = tsdb::TagSet{{"host", host}};
    tcp.base = 2.0;
    tcp.noise_sd = 0.8;
    tcp.nonnegative = true;
    tcp.edges.push_back(Edge{hypervisor_drop_node_, 8.0, 0, LinkFn::kLinear});
    retransmit_nodes.push_back(MustAdd(std::move(tcp)));

    NodeSpec netlat;
    netlat.metric_name = "network_latency_ms";
    netlat.tags = tsdb::TagSet{{"host", host}};
    netlat.base = 0.5;
    netlat.noise_sd = 0.1;
    netlat.nonnegative = true;
    netlat.edges.push_back(
        Edge{retransmit_nodes.back(), 0.05, 0, LinkFn::kLinear});
    MustAdd(std::move(netlat));
  }

  // --- Datanode infrastructure. ---
  std::vector<size_t> disk_read_nodes;
  for (size_t d = 0; d < config.num_datanodes; ++d) {
    const std::string host = "datanode-" + std::to_string(d);
    const tsdb::TagSet tags{{"host", host}};

    // The scrub node emits its IO share (0..0.2); couplings below convert
    // that into the large latency/utilisation swings of Figure 8.
    NodeSpec read;
    read.metric_name = "disk_read_latency_ms";
    read.tags = tags;
    read.base = 5.0;
    read.noise_sd = 0.6;
    read.nonnegative = true;
    read.edges.push_back(Edge{raid_scrub_node_, 60.0, 0, LinkFn::kLinear});
    disk_read_nodes.push_back(MustAdd(std::move(read)));

    NodeSpec write;
    write.metric_name = "disk_write_latency_ms";
    write.tags = tags;
    write.base = 7.0;
    write.noise_sd = 0.8;
    write.nonnegative = true;
    write.edges.push_back(Edge{raid_scrub_node_, 70.0, 0, LinkFn::kLinear});
    MustAdd(std::move(write));

    NodeSpec util;
    util.metric_name = "disk_utilization";
    util.tags = tags;
    util.base = 30.0;
    util.noise_sd = 3.0;
    util.nonnegative = true;
    util.edges.push_back(Edge{raid_scrub_node_, 150.0, 0, LinkFn::kLinear});
    // Disk work also follows input load slightly.
    for (size_t in : input_nodes) {
      util.edges.push_back(Edge{in, 0.003, 0, LinkFn::kLinear});
    }
    MustAdd(std::move(util));

    NodeSpec cpu;
    cpu.metric_name = "cpu_utilization";
    cpu.tags = tags;
    cpu.base = 35.0;
    cpu.noise_sd = 3.0;
    cpu.nonnegative = true;
    for (size_t in : input_nodes) {
      cpu.edges.push_back(Edge{in, 0.004, 0, LinkFn::kLinear});
    }
    MustAdd(std::move(cpu));

    NodeSpec load;
    load.metric_name = "load_average";
    load.tags = tags;
    load.base = 4.0;
    load.noise_sd = 0.5;
    load.nonnegative = true;
    load.edges.push_back(Edge{raid_scrub_node_, 40.0, 0, LinkFn::kLinear});
    for (size_t in : input_nodes) {
      load.edges.push_back(Edge{in, 0.0008, 0, LinkFn::kLinear});
    }
    MustAdd(std::move(load));

    NodeSpec gc;
    gc.metric_name = "jvm_gc_ms";
    gc.tags = tags;
    gc.base = 25.0;
    gc.noise_sd = 6.0;
    gc.nonnegative = true;
    MustAdd(std::move(gc));

    NodeSpec temp;
    temp.metric_name = "raid_controller_temp_c";
    temp.tags = tags;
    temp.base = 38.0;
    temp.noise_sd = 0.4;
    temp.ar = 0.7;
    temp.edges.push_back(Edge{raid_scrub_node_, 25.0, 0, LinkFn::kLinear});
    MustAdd(std::move(temp));
  }

  // --- Namenode service (§5.3). ---
  const tsdb::TagSet nn_tags{{"host", "namenode-0"}};
  NodeSpec rpc_rate;
  rpc_rate.metric_name = "namenode_rpc_rate";
  rpc_rate.tags = nn_tags;
  rpc_rate.base = 100.0;
  rpc_rate.noise_sd = 8.0;
  rpc_rate.nonnegative = true;
  rpc_rate.edges.push_back(Edge{scan_rate_node_, 50.0, 0, LinkFn::kLinear});
  for (size_t in : input_nodes) {
    rpc_rate.edges.push_back(Edge{in, 0.01, 0, LinkFn::kLinear});
  }
  const size_t rpc_rate_node = MustAdd(std::move(rpc_rate));

  NodeSpec threads;
  threads.metric_name = "namenode_live_threads";
  threads.tags = nn_tags;
  threads.base = 40.0;
  threads.noise_sd = 2.0;
  threads.nonnegative = true;
  threads.edges.push_back(Edge{rpc_rate_node, 0.2, 0, LinkFn::kLinear});
  MustAdd(std::move(threads));

  NodeSpec nn_lat;
  nn_lat.metric_name = "namenode_rpc_latency_ms";
  nn_lat.tags = nn_tags;
  nn_lat.base = 3.0;
  nn_lat.noise_sd = 0.4;
  nn_lat.nonnegative = true;
  nn_lat.edges.push_back(Edge{rpc_rate_node, 0.05, 0, LinkFn::kRelu});
  const size_t nn_lat_node = MustAdd(std::move(nn_lat));

  // Busy namenodes defer GC: negative correlation with scans (§5.3's
  // ruled-out hypothesis).
  NodeSpec nn_gc;
  nn_gc.metric_name = "namenode_gc_ms";
  nn_gc.tags = nn_tags;
  nn_gc.base = 40.0;
  nn_gc.noise_sd = 5.0;
  nn_gc.nonnegative = true;
  nn_gc.edges.push_back(Edge{scan_rate_node_, -6.0, 0, LinkFn::kLinear});
  MustAdd(std::move(nn_gc));

  // HDFS RPC ack round-trip, sensitive to network retransmissions.
  NodeSpec ack;
  ack.metric_name = "hdfs_packet_ack_rtt_ms";
  ack.tags = nn_tags;
  ack.base = 2.0;
  ack.noise_sd = 0.3;
  ack.nonnegative = true;
  for (size_t rn : retransmit_nodes) {
    ack.edges.push_back(Edge{rn, 0.02, 0, LinkFn::kLinear});
  }
  const size_t ack_node = MustAdd(std::move(ack));

  // Database p75 RPC latency (Table 3 rank 6).
  NodeSpec dbp75;
  dbp75.metric_name = "db_p75_latency_ms";
  dbp75.tags = tsdb::TagSet{{"service", "db"}};
  dbp75.base = 4.0;
  dbp75.noise_sd = 0.5;
  dbp75.nonnegative = true;
  for (size_t rn : retransmit_nodes) {
    dbp75.edges.push_back(Edge{rn, 0.015, 0, LinkFn::kLinear});
  }
  MustAdd(std::move(dbp75));

  // Cluster scheduler: active jobs grow when pipelines fall behind.
  NodeSpec jobs;
  jobs.metric_name = "cluster_active_jobs";
  jobs.tags = tsdb::TagSet{{"service", "scheduler"}};
  jobs.base = 20.0;
  jobs.noise_sd = 2.0;
  jobs.nonnegative = true;

  // --- Pipelines: runtime = f(input, disk, namenode, network). ---
  std::vector<size_t> runtime_nodes;
  for (size_t p = 0; p < config.num_pipelines; ++p) {
    const std::string suffix = "_pipeline" + std::to_string(p);
    const tsdb::TagSet tags{{"pipeline", "p" + std::to_string(p)}};
    NodeSpec rt;
    rt.metric_name = "runtime" + suffix;
    rt.tags = tags;
    rt.base = 8.0;
    rt.noise_sd = 1.2;
    rt.nonnegative = true;
    rt.edges.push_back(Edge{input_nodes[p], 0.02, 0, LinkFn::kLinear});
    rt.edges.push_back(Edge{nn_lat_node, 0.8, 0, LinkFn::kRelu});
    rt.edges.push_back(Edge{ack_node, 0.6, 0, LinkFn::kLinear});
    for (size_t rn : retransmit_nodes) {
      rt.edges.push_back(
          Edge{rn, config.retransmit_weight, 0, LinkFn::kLinear});
    }
    // Disk latency on the datanode this pipeline mostly writes to.
    rt.edges.push_back(Edge{disk_read_nodes[p % disk_read_nodes.size()], 1.5,
                            0, LinkFn::kRelu});
    runtime_nodes.push_back(MustAdd(std::move(rt)));

    NodeSpec lat;
    lat.metric_name = "latency" + suffix;
    lat.tags = tags;
    lat.base = 2.0;
    lat.noise_sd = 0.8;
    lat.nonnegative = true;
    lat.edges.push_back(Edge{runtime_nodes.back(), 1.2, 0, LinkFn::kLinear});
    lat.edges.push_back(Edge{runtime_nodes.back(), 0.6, 1, LinkFn::kLinear});
    MustAdd(std::move(lat));

    NodeSpec save;
    save.metric_name = "save_time" + suffix;
    save.tags = tags;
    save.base = 1.0;
    save.noise_sd = 0.4;
    save.nonnegative = true;
    save.edges.push_back(Edge{runtime_nodes.back(), 0.55, 0, LinkFn::kLinear});
    MustAdd(std::move(save));
  }

  // Active jobs pile up when pipelines run long.
  for (size_t rt : runtime_nodes) {
    jobs.edges.push_back(Edge{rt, 0.25, 1, LinkFn::kRelu});
  }
  MustAdd(std::move(jobs));

  // --- The KPI: overall runtime across pipelines (§5). ---
  NodeSpec kpi;
  kpi.metric_name = "overall_runtime";
  kpi.tags = tsdb::TagSet{{"service", "processing"}};
  kpi.base = 1.0;
  kpi.noise_sd = 0.5;
  kpi.nonnegative = true;
  for (size_t rt : runtime_nodes) {
    kpi.edges.push_back(
        Edge{rt, 1.0 / static_cast<double>(config.num_pipelines), 0,
             LinkFn::kLinear});
  }
  kpi_node_ = MustAdd(std::move(kpi));
}

const std::vector<size_t>& DatacentreModel::NodesByMetric(
    const std::string& name) const {
  static const std::vector<size_t> kEmpty;
  auto it = by_metric_.find(name);
  return it == by_metric_.end() ? kEmpty : it->second;
}

std::vector<std::string> DatacentreModel::MetricNames() const {
  std::vector<std::string> out;
  for (const auto& [name, nodes] : by_metric_) {
    if (!StartsWith(name, "_hidden")) out.push_back(name);
  }
  return out;
}

Status DatacentreModel::WriteTo(
    tsdb::SeriesStore* store, size_t steps, EpochSeconds start, Rng& rng,
    const std::vector<Intervention>& interventions) const {
  la::Matrix values = network_.Simulate(steps, rng, interventions);
  const std::vector<EpochSeconds> timestamps = MinuteGrid(steps, start);
  for (size_t i = 0; i < network_.num_nodes(); ++i) {
    if (hidden_[i]) continue;  // unmonitored counters stay unmonitored
    const NodeSpec& spec = network_.node(i);
    EXPLAINIT_RETURN_IF_ERROR(store->WriteSeries(spec.metric_name, spec.tags,
                                                 timestamps, values.Col(i)));
  }
  return Status::OK();
}

Status DatacentreModel::StreamTo(
    tsdb::SeriesStore* store, size_t steps, EpochSeconds start, Rng& rng,
    const std::vector<Intervention>& interventions,
    const std::function<void(size_t step)>& on_step) const {
  // Same deterministic trace as WriteTo (the causal simulation consumes
  // the Rng identically); only the ingest order differs: time-major, one
  // collector tick at a time.
  la::Matrix values = network_.Simulate(steps, rng, interventions);
  const int64_t step_seconds = kSecondsPerMinute;
  for (size_t t = 0; t < steps; ++t) {
    const EpochSeconds ts = start + static_cast<int64_t>(t) * step_seconds;
    for (size_t i = 0; i < network_.num_nodes(); ++i) {
      if (hidden_[i]) continue;  // unmonitored counters stay unmonitored
      const NodeSpec& spec = network_.node(i);
      EXPLAINIT_RETURN_IF_ERROR(
          store->Write(spec.metric_name, spec.tags, ts, values(t, i)));
    }
    if (on_step) on_step(t);
  }
  return Status::OK();
}

}  // namespace explainit::sim
