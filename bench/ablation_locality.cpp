/// \file ablation_locality.cpp
/// Ablation: the locality / balance trade-off across three partitioners.
///
/// ACEHeterogeneous matches boxes to capacities by sorting by size — good
/// balance, scattered ownership.  The composite default preserves locality
/// but ignores capacities.  The hybrid (ACECompositeHeterogeneous) cuts
/// the space-filling-curve order at capacity-proportional targets.  We
/// measure, on the paper workload with fixed 16/19/31/34 % capacities:
/// effective imbalance, ghost-communication volume, splits — and the
/// resulting execution time on the loaded virtual cluster.

#include <iostream>
#include <memory>
#include <string>

#include "core/experiment.hpp"
#include "partition/distributed_sfc.hpp"
#include "partition/greedy.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace ssamr;

int main() {
  std::cout << "=== Ablation: locality vs balance across partitioners "
               "===\n\n";

  const auto caps = exp::reference_capacities4();
  SyntheticAmrTrace trace(exp::paper_trace_config());
  const WorkModel work;
  const int regrids = 8;

  // The hybrid is the capacity-weighted curve walk at one shard; it is
  // labelled by the scheme it implements rather than by the walk's name.
  struct Scheme {
    std::string label;
    std::unique_ptr<Partitioner> partitioner;
  };
  std::vector<Scheme> schemes;
  schemes.push_back({"ACEComposite",
                     std::make_unique<GraceDefaultPartitioner>()});
  schemes.push_back({"ACEHeterogeneous",
                     std::make_unique<HeterogeneousPartitioner>()});
  schemes.push_back(
      {"ACECompositeHeterogeneous",
       std::make_unique<DistributedSfcPartitioner>(SfcConfig{}, 1)});
  schemes.push_back({"GreedyLPT", std::make_unique<GreedyPartitioner>()});

  Table t({"scheme", "effective imbalance", "comm cells/step", "splits"});
  CsvWriter csv(exp::results_path("ablation_locality.csv"),
                {"scheme", "imbalance_pct", "comm_cells", "splits",
                 "exec_time_s"});

  std::vector<real_t> exec_times;
  for (const auto& [label, scheme] : schemes) {
    real_t imb = 0;
    std::int64_t comm = 0;
    int splits = 0;
    for (int e = 0; e < regrids; ++e) {
      const BoxList boxes = trace.boxes_at_epoch(e);
      PartitionResult r = scheme->partition(boxes, caps, work);
      if (label == "ACEComposite") {
        // Judge the capacity-blind baseline against the same targets.
        const real_t total = total_work(boxes, work);
        for (std::size_t k = 0; k < caps.size(); ++k)
          r.target_work[k] = caps[k] * total;
      }
      imb += effective_imbalance_pct(r);
      comm += partition_comm_cells(r, 1);
      splits += r.splits;
    }
    imb /= regrids;
    comm /= regrids;

    // Execution time on the statically loaded cluster.
    Cluster cluster = exp::paper_cluster(4);
    exp::apply_static_loads(cluster);
    TraceWorkloadSource source(exp::paper_trace_config());
    AdaptiveRuntime runtime(cluster, source, *scheme,
                            exp::paper_runtime_config(100, 0));
    const real_t time = runtime.run().total_time.value();
    exec_times.push_back(time);

    t.add_row({label, fmt(imb, 2) + "%", std::to_string(comm),
               std::to_string(splits)});
    csv.add_row({label, fmt(imb, 3), std::to_string(comm),
                 std::to_string(splits), fmt(time, 2)});
  }
  std::cout << t.str() << '\n';

  Table et({"scheme", "execution time (s)"});
  for (std::size_t i = 0; i < schemes.size(); ++i)
    et.add_row({schemes[i].label, fmt(exec_times[i], 1)});
  std::cout << et.str() << '\n';
  std::cout
      << "Expected shape: ACEHeterogeneous balances best but communicates "
         "most; the composite\nbaseline communicates least but ignores "
         "capacities; the hybrid sits between on comm while\nmatching the "
         "heterogeneous balance — and wins (or ties) on execution time.\n"
         "raw series written to "
      << exp::results_path("ablation_locality.csv") << '\n';
  return 0;
}
