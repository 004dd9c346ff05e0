// §5.1 walkthrough: a fault is injected into a live(ly simulated) system —
// a firewall rule dropping 10% of packets to every datanode — and
// ExplainIt! is pointed at the runtime regression with no prior hints.
// The interactive loop narrows from a global search to the network layer.
#include <cstdio>
#include <string>

#include "core/engine.h"
#include "simulator/case_studies.h"

using namespace explainit;

int main() {
  sim::CaseStudyWorld world = sim::MakePacketDropCase(480);
  std::printf("%s\n\n", world.description.c_str());

  core::Engine engine(world.store);
  engine.RegisterStoreTable("tsdb", world.range);
  core::Session session(&engine, world.range);
  // One family per metric, one feature per series (§3.2).
  const std::string by_metric =
      "SELECT timestamp AS ts, metric_name AS name, "
      "MAP(CONCAT(metric_name, tag), value) AS v FROM tsdb WHERE ";

  // Step 1: the KPI and the time range of the regression (Figure 2).
  if (!session.SetTargetByQuery(by_metric + "metric_name = 'overall_runtime'")
           .ok()) {
    return 1;
  }
  if (!session.SetExplainRange(world.fault_window).ok()) return 1;

  // Step 2: global search space — every other metric family.
  if (!session
           .SetSearchSpaceByQuery(by_metric +
                                  "metric_name <> 'overall_runtime'")
           .ok()) {
    return 1;
  }
  std::printf("search space: %zu feature families\n",
              session.num_candidates());

  // Step 3: rank.
  if (!session.SetScorer("CorrMax").ok()) return 1;
  auto round1 = session.Run();
  if (!round1.ok()) return 1;
  std::printf("\nround 1 — global search:\n%s\n",
              round1->ToString(10).c_str());
  std::printf(
      "interpretation: the pipeline runtime/latency families at the top are"
      "\nknown effects (runtime is the sum of save times); the TCP"
      " retransmit\nfamily is the first *independent* subsystem.\n");

  // Round 2: drill down into the network families only (the human in the
  // loop recognised retransmissions as the lead).
  if (!session.DrillDown({"tcp_*", "network_*", "hdfs_*"}).ok()) return 1;
  auto round2 = session.Run();
  if (!round2.ok()) return 1;
  std::printf("\nround 2 — drill-down into network families:\n%s\n",
              round2->ToString(5).c_str());

  const size_t rank = round2->RankOf("tcp_retransmits");
  std::printf(
      "tcp_retransmits rank: %zu. Root cause confirmed: packet drops at the"
      "\ndatanodes (we injected them ourselves).\n",
      rank);
  return rank >= 1 && rank <= 3 ? 0 : 1;
}
