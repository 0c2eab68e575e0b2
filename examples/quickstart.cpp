/// \file quickstart.cpp
/// Quickstart: partition an adaptive grid hierarchy across a heterogeneous
/// 4-node cluster, compare the system-sensitive partitioner against the
/// homogeneous default, and print what each processor receives.

#include <iostream>

#include "core/experiment.hpp"
#include "core/ssamr.hpp"
#include "util/table.hpp"

using namespace ssamr;

int main() {
  std::cout << "=== ssamr quickstart ===\n\n";

  // 1. A 4-node cluster; two nodes are busy with background work.
  Cluster cluster = exp::paper_cluster(4);
  exp::apply_static_loads(cluster);

  // 2. Probe it (the NWS-style monitor) and compute relative capacities.
  MonitorConfig mon;
  mon.seed = 7;
  ResourceMonitor monitor(cluster, mon);
  const auto estimates = monitor.probe_all(/*t=*/Seconds{0.0}).estimates;
  CapacityCalculator calc(CapacityWeights::equal());
  const auto capacities = calc.relative_capacities(estimates);

  std::cout << "relative capacities (Eq. 1, equal weights):\n";
  for (std::size_t k = 0; k < capacities.size(); ++k)
    std::cout << "  processor " << k << ": " << fmt_pct(capacities[k])
              << "  (cpu " << fmt(estimates[k].cpu_available.value(), 2)
              << ", mem " << fmt(estimates[k].memory_free_mb.value(), 0)
              << " MB, bw " << fmt(estimates[k].bandwidth_mbps.value(), 0)
              << " Mbit/s)\n";

  // 3. An SAMR hierarchy (synthetic RM-style trace, paper scale).
  TraceWorkloadSource source(exp::paper_trace_config());
  const BoxList boxes = source.boxes_for_regrid(0);
  WorkModel work;
  std::cout << "\nhierarchy: " << boxes.size() << " boxes, "
            << boxes.total_cells() << " cells, total work "
            << fmt(total_work(boxes, work), 0) << " units/coarse step\n\n";

  // 4. Partition it both ways.
  HeterogeneousPartitioner het;
  GraceDefaultPartitioner def;
  for (const Partitioner* p :
       std::initializer_list<const Partitioner*>{&het, &def}) {
    const PartitionResult r = p->partition(boxes, capacities, work);
    const auto imb = load_imbalance_pct(r);
    Table t({"proc", "target work", "assigned work", "imbalance"});
    for (std::size_t k = 0; k < capacities.size(); ++k)
      t.add_row({std::to_string(k), fmt(r.target_work[k], 0),
                 fmt(r.assigned_work[k], 0), fmt(imb[k], 1) + "%"});
    std::cout << p->name() << " (" << r.splits << " splits):\n"
              << t.str() << '\n';
  }

  // 5. Full adaptive runs on the simulated cluster.
  const auto cmp = exp::compare_partitioners(
      /*nprocs=*/4, /*iterations=*/100, /*sensing_interval=*/20,
      ExecModelKind::kBsp);
  std::cout << "100-iteration run, sensing every 20 iterations:\n"
            << "  ACEHeterogeneous: "
            << fmt(cmp.system_sensitive.total_time.value(), 1)
            << " s (virtual)\n"
            << "  ACEComposite:     "
            << fmt(cmp.grace_default.total_time.value(), 1)
            << " s (virtual)\n"
            << "  improvement:      " << fmt_pct(cmp.improvement()) << '\n';
  return 0;
}
