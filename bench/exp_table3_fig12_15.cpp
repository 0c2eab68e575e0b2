/// \file exp_table3_fig12_15.cpp
/// Reproduces **Table III** (execution time for a four-processor run when
/// NWS is probed every 10 / 20 / 30 / 40 iterations; the paper's best is
/// 20) and **Figures 12–15** (the per-frequency dynamic load-allocation
/// traces with capacity annotations).
///
/// The synthetic load dynamics are identical across the four runs (paper
/// §6.2.3); only the sensing frequency differs, trading probe overhead
/// (≈ probe cost × nodes per sweep) against staleness of the capacities.

#include <iostream>
#include <vector>

#include "core/experiment.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace ssamr;

int main(int argc, char** argv) {
  std::cout << "=== Table III + Figures 12-15: sensitivity to the sensing "
               "frequency (P = 4) ===\n\n";

  const ExecModelKind model = exp::select_exec_model(argc, argv);
  std::cout << "execution model: " << exec_model_name(model)
            << " (--exec-model=bsp|event|proc, or SSAMR_EXEC_MODEL)\n\n";

  const int iterations = exp::run_iterations(200);
  const int paper_times[] = {316, 277, 286, 293};
  // One timescale for all runs: identical load dynamics across
  // frequencies.
  const real_t tau = exp::calibrate_timescale(4, iterations, 20, model);

  Table t({"Frequency of calculating capacities", "Execution time (s)",
           "paper (s)"});
  CsvWriter csv(exp::results_path("table3.csv"),
                {"frequency_iters", "time_s"});
  CsvWriter figcsv(exp::results_path("fig12_15.csv"),
                   {"frequency", "regrid", "proc", "work", "capacity"});

  // The four sensing frequencies are independent trials over the same
  // load script; run them in parallel, report in fixed order.
  const int freqs[] = {10, 20, 30, 40};
  std::vector<RunTrace> traces(4);
  ThreadPool::global().parallel_for(4, [&](std::size_t i) {
    traces[i] = exp::run_dynamic_het(4, iterations, freqs[i], tau, model);
  });
  real_t best_time = 1e30;
  int best_freq = 0;
  for (int i = 0; i < 4; ++i) {
    const int f = freqs[i];
    const RunTrace& trace = traces[static_cast<std::size_t>(i)];
    t.add_row({std::to_string(f) + " iterations",
               fmt(trace.total_time.value(), 0),
               std::to_string(paper_times[i])});
    csv.add_row({std::to_string(f), fmt(trace.total_time.value(), 2)});
    if (trace.total_time.value() < best_time) {
      best_time = trace.total_time.value();
      best_freq = f;
    }

    // Figures 12-15: allocation trace for this frequency.
    std::cout << "Figure " << 12 + i << " — sensing every " << f
              << " iterations (work per proc at selected regrids, "
                 "capacities in %):\n";
    Table ft({"regrid", "proc 0", "proc 1", "proc 2", "proc 3",
              "C0/C1/C2/C3"});
    for (std::size_t rix = 0; rix < trace.regrids.size(); rix += 4) {
      const RegridRecord& r = trace.regrids[rix];
      ft.add_row(
          {std::to_string(r.regrid_index), fmt(r.assigned_work[0], 0),
           fmt(r.assigned_work[1], 0), fmt(r.assigned_work[2], 0),
           fmt(r.assigned_work[3], 0),
           fmt(r.capacities[0] * 100, 0) + "/" +
               fmt(r.capacities[1] * 100, 0) + "/" +
               fmt(r.capacities[2] * 100, 0) + "/" +
               fmt(r.capacities[3] * 100, 0)});
    }
    std::cout << ft.str() << '\n';
    for (const RegridRecord& r : trace.regrids)
      for (int k = 0; k < 4; ++k)
        figcsv.add_row(
            {std::to_string(f), std::to_string(r.regrid_index),
             std::to_string(k),
             fmt(r.assigned_work[static_cast<std::size_t>(k)], 1),
             fmt(r.capacities[static_cast<std::size_t>(k)], 4)});
  }

  std::cout << "Table III:\n" << t.str() << '\n';
  std::cout << "best sensing frequency: every " << best_freq
            << " iterations (paper: 20)\n"
            << "raw series written to " << exp::results_path("table3.csv")
            << " and " << exp::results_path("fig12_15.csv") << '\n';
  return 0;
}
