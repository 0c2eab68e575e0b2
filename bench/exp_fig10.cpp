/// \file exp_fig10.cpp
/// Reproduces **Figure 10**: percentage load imbalance per regrid, system
/// sensitive vs default (non system sensitive) partitioning.
///
/// Imbalance is the paper's Eq. 2, I_k = |W_k − L_k| / L_k · 100 %, with
/// L_k = C_k · L the capacity-proportional target.  The default partitioner
/// ignores the capacities (it splits equally), so measured against the
/// heterogeneous targets it shows large imbalance; the system-sensitive
/// partitioner's residual imbalance comes only from the minimum-box-size
/// and aspect-ratio constraints and stays below ~40 % (paper §6.2.2).

#include <algorithm>
#include <iostream>

#include "core/experiment.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace ssamr;

int main() {
  std::cout << "=== Figure 10: % load imbalance per regrid ===\n\n";

  const auto caps = exp::reference_capacities4();
  SyntheticAmrTrace trace(exp::paper_trace_config());
  const WorkModel work;
  CsvWriter csv(exp::results_path("fig10.csv"),
                {"min_box_size", "regrid", "default_pct", "system_pct"});

  // The residual imbalance of the system-sensitive scheme comes from the
  // minimum-box-size constraint (paper: "The amount of imbalance depends
  // on the grid structure.  We have found this to be less than 40%").
  // GrACE's patches were coarse; we report two granularities — our
  // fine-grained clustering (min box 4) and a GrACE-like coarse floor
  // (min box 16).
  for (coord_t min_size : {coord_t{4}, coord_t{16}}) {
    PartitionConstraints constraints;
    constraints.min_box_size = min_size;
    GraceDefaultPartitioner def(SfcConfig{}, constraints);
    HeterogeneousPartitioner het(constraints);

    std::cout << "minimum box size " << min_size << ":\n";
    Table t({"regrid", "non system sensitive", "system sensitive"});
    real_t worst_het = 0, sum_def = 0, sum_het = 0;
    const int regrids = 6;  // the paper plots regrids 1..6
    for (int regrid = 1; regrid <= regrids; ++regrid) {
      const BoxList boxes = trace.boxes_at_epoch(regrid - 1);
      const real_t total = total_work(boxes, work);

      PartitionResult het_r = het.partition(boxes, caps, work);
      PartitionResult def_r = def.partition(boxes, caps, work);
      // Both schemes are judged against the capacity-proportional targets.
      for (std::size_t k = 0; k < caps.size(); ++k)
        def_r.target_work[k] = caps[k] * total;

      const real_t def_imb = max_load_imbalance_pct(def_r);
      const real_t het_imb = max_load_imbalance_pct(het_r);
      worst_het = std::max(worst_het, het_imb);
      sum_def += def_imb;
      sum_het += het_imb;
      t.add_row({std::to_string(regrid), fmt(def_imb, 1) + "%",
                 fmt(het_imb, 1) + "%"});
      csv.add_row({std::to_string(min_size), std::to_string(regrid),
                   fmt(def_imb, 2), fmt(het_imb, 2)});
    }
    std::cout << t.str();
    std::cout << "  system-sensitive worst imbalance: " << fmt(worst_het, 1)
              << "% (paper: stays below ~40%)\n";
    std::cout << "  imbalance reduction vs default:   "
              << fmt_pct(1.0 - sum_het / sum_def)
              << " (paper: \"up to 45% lower\")\n\n";
  }
  std::cout << "raw series written to " << exp::results_path("fig10.csv")
            << "\n";
  return 0;
}
