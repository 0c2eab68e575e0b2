/// \file exp_fig11.cpp
/// Reproduces **Figure 11**: dynamic load allocation using the system-
/// sensitive partitioner when NWS is queried once before the start of the
/// application and two times during the run.
///
/// The figure plots the per-processor work assignment against the regrid
/// number (~30 regrids), annotated with the relative capacities computed
/// at each sampling; as the load (and hence the capacities) changes, the
/// partitioner redistributes accordingly.

#include <iostream>

#include "core/experiment.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace ssamr;

int main(int argc, char** argv) {
  std::cout << "=== Figure 11: dynamic load allocation, NWS queried once "
               "before the run + twice during it ===\n\n";

  const ExecModelKind model = exp::select_exec_model(argc, argv);
  std::cout << "execution model: " << exec_model_name(model)
            << " (--exec-model=bsp|event|proc, or SSAMR_EXEC_MODEL)\n\n";

  // ~30 regrids at regrid_interval 5 => 150 iterations; sensing every 50
  // iterations yields exactly two mid-run samplings.
  const int iterations = exp::run_iterations(150);
  const int sensing = 50;
  const real_t tau =
      exp::calibrate_timescale(4, iterations, sensing, model);
  const RunTrace trace =
      exp::run_dynamic_het(4, iterations, sensing, tau, model);

  std::cout << "capacity samplings (the figure's percentage labels):\n";
  Table st({"iteration", "C0", "C1", "C2", "C3"});
  for (const SenseRecord& s : trace.senses)
    st.add_row({std::to_string(s.iteration), fmt_pct(s.capacities[0], 0),
                fmt_pct(s.capacities[1], 0), fmt_pct(s.capacities[2], 0),
                fmt_pct(s.capacities[3], 0)});
  std::cout << st.str() << '\n';

  std::cout << "work-load assignment per regrid:\n";
  Table t({"regrid", "proc 0", "proc 1", "proc 2", "proc 3"});
  CsvWriter csv(exp::results_path("fig11.csv"),
                {"regrid", "proc", "work", "capacity"});
  for (const RegridRecord& r : trace.regrids) {
    t.add_row({std::to_string(r.regrid_index), fmt(r.assigned_work[0], 0),
               fmt(r.assigned_work[1], 0), fmt(r.assigned_work[2], 0),
               fmt(r.assigned_work[3], 0)});
    for (int k = 0; k < 4; ++k)
      csv.add_row(
          {std::to_string(r.regrid_index), std::to_string(k),
           fmt(r.assigned_work[static_cast<std::size_t>(k)], 1),
           fmt(r.capacities[static_cast<std::size_t>(k)], 4)});
  }
  std::cout << t.str() << '\n';
  std::cout
      << "Expected shape: assignments re-proportion after each sampling as "
         "the capacities change;\nbetween samplings the proportions hold "
         "while the total work drifts with the adapting hierarchy.\n"
         "raw series written to "
      << exp::results_path("fig11.csv") << '\n';
  return 0;
}
