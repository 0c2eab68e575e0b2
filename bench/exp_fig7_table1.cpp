/// \file exp_fig7_table1.cpp
/// Reproduces **Figure 7** (total application execution time, system
/// sensitive vs default partitioning, P = 4, 8, 16, 32) and **Table I**
/// (percentage improvement of the system-sensitive partitioner).
///
/// Setup (paper §6.2.1): the RM-scale SAMR workload (128×32×32 base, 3
/// levels of factor-2 refinement, regrid every 5 iterations) runs on a
/// statically loaded cluster; relative capacities are computed once before
/// the start of the simulation.  Absolute seconds are virtual seconds of
/// the simulated cluster (DESIGN.md §2); the shape — who wins and by what
/// factor — is the reproduction target.

#include <iostream>
#include <vector>

#include "core/experiment.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace ssamr;

int main(int argc, char** argv) {
  std::cout << "=== Figure 7 + Table I: execution time, system-sensitive "
               "vs default partitioner ===\n\n";

  const ExecModelKind model = exp::select_exec_model(argc, argv);
  std::cout << "execution model: " << exec_model_name(model)
            << " (--exec-model=bsp|event|proc, or SSAMR_EXEC_MODEL)\n\n";

  const int iterations = exp::run_iterations(200);
  const double paper_improvement[] = {7.0, 6.0, 18.0, 18.0};

  Table fig7({"procs", "ACEHeterogeneous (s)", "ACEComposite (s)"});
  Table table1({"Number of Processors", "Percentage Improvement",
                "paper (Table I)"});
  CsvWriter csv(exp::results_path("fig7_table1.csv"),
                {"procs", "het_s", "def_s", "improvement_pct"});

  // The four cluster sizes are independent deterministic trials: run them
  // in parallel, then emit tables/CSV rows serially in the fixed order.
  const int procs[] = {4, 8, 16, 32};
  std::vector<exp::Comparison> cmps(4);
  ThreadPool::global().parallel_for(4, [&](std::size_t i) {
    cmps[i] = exp::compare_partitioners(procs[i], iterations,
                                        /*sensing_interval=*/0, model);
  });
  for (int i = 0; i < 4; ++i) {
    const int p = procs[i];
    const exp::Comparison& cmp = cmps[static_cast<std::size_t>(i)];
    fig7.add_row({std::to_string(p),
                  fmt(cmp.system_sensitive.total_time.value(), 1),
                  fmt(cmp.grace_default.total_time.value(), 1)});
    table1.add_row({std::to_string(p), fmt_pct(cmp.improvement()),
                    fmt(paper_improvement[i], 0) + "%"});
    csv.add_row({std::to_string(p),
                 fmt(cmp.system_sensitive.total_time.value(), 3),
                 fmt(cmp.grace_default.total_time.value(), 3),
                 fmt(cmp.improvement() * 100, 2)});
  }

  std::cout << "Figure 7 series (" << iterations
            << " iterations, capacities sensed once before the run):\n"
            << fig7.str() << '\n';
  std::cout << "Table I (percentage improvement of the system-sensitive "
               "partitioner):\n"
            << table1.str() << '\n';
  std::cout << "raw series written to " << exp::results_path("fig7_table1.csv")
            << "\n";

  // Per-rank timeline export of the P = 4 system-sensitive run (set
  // SSAMR_TRACE_JSON=/path/to/trace.json; open in ui.perfetto.dev).
  const std::string trace_path =
      exp::maybe_export_trace(cmps[0].system_sensitive);
  if (!trace_path.empty())
    std::cout << "Chrome trace (P=4, system-sensitive) written to "
              << trace_path << "\n";
  return 0;
}
