/// \file exp_crossval.cpp
/// Cross-validation of the simulated cost models against real processes
/// (DESIGN.md §12, ROADMAP open item 2): the Table I scenario runs once
/// under the `proc` backend — P real forked rank processes exchanging
/// framed ghost/migration traffic over Unix-domain sockets — and once
/// under the discrete-event prediction, and the per-phase step times are
/// compared side by side.
///
/// Both runs share the identical workload, cluster, partitioner and
/// schedule: capacities are sensed once before the run and the trace
/// generator is deterministic, so the two models execute the *same*
/// sequence of partitions and migrations and the comparison isolates the
/// cost accounting itself.  The proc run reports measured wall-clock
/// normalized by ProcOptions::time_scale back into virtual seconds; its
/// numbers are real measurements and therefore machine-dependent — the CSV
/// this driver writes is NOT golden-pinned, and the deltas printed here
/// are expected to be honest, including where the model is wrong (see
/// EXPERIMENTS.md "Cross-validation").
///
/// The proc run executes FIRST: fork() only carries the calling thread
/// into the child, so the rank fleet must be spawned before anything warms
/// the process-wide thread pool.
///
/// Flags / environment:
///   --exec-model=bsp|event|proc  the measured side (default proc);
///                                the predicted side is always `event`
///   SSAMR_CROSSVAL_P        rank count, 1..64 (default 8)
///   SSAMR_EXP_ITERS         coarse iterations (default 200)
///   SSAMR_PROC_TIME_SCALE   wall seconds per virtual second (default 1e-3)

#include <iostream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "sim/proc_model.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

using namespace ssamr;

namespace {

struct PhaseRow {
  const char* phase;
  Seconds predicted{0};
  Seconds measured{0};
};

std::string fmt_delta(Seconds predicted, Seconds measured) {
  // A near-zero prediction makes the relative delta meaningless (the
  // event model fully overlaps comm in some scenarios); print n/a
  // instead of an astronomic percentage.
  if (predicted.value() <= 1e-9 && measured.value() <= 1e-9) return "-";
  if (predicted.value() <= 1e-9) return "n/a";
  const double pct =
      (measured.value() - predicted.value()) / predicted.value() * 100.0;
  return fmt(pct, 1) + "%";
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "=== Cross-validation: predicted (event) vs measured (proc)"
               " step time per phase ===\n\n";

  const int nprocs =
      exp::env_int("SSAMR_CROSSVAL_P", 8, 1, sim::kMaxProcRanks);
  const int iterations = exp::run_iterations(200);
  const double time_scale =
      exp::env_real("SSAMR_PROC_TIME_SCALE", 1e-3, 1e-6, 1.0);

  // The measured side defaults to proc; --exec-model / SSAMR_EXEC_MODEL
  // override it (running event-vs-event is a useful null check).
  const ExecModelKind measured_kind =
      exp::select_exec_model(argc, argv, ExecModelKind::kProc);

  std::cout << "P = " << nprocs << ", " << iterations
            << " iterations, measured model = "
            << exec_model_name(measured_kind)
            << ", time_scale = " << time_scale
            << " wall s / virtual s\n\n";

  const auto run_one = [&](ExecModelKind kind) {
    Cluster cluster = exp::paper_cluster(nprocs);
    exp::apply_static_loads(cluster);
    TraceWorkloadSource source(exp::paper_trace_config());
    HeterogeneousPartitioner het;
    RuntimeConfig cfg =
        exp::paper_runtime_config(iterations, /*sensing_interval=*/0);
    cfg.exec_model = kind;
    cfg.executor.proc.time_scale = time_scale;
    AdaptiveRuntime runtime(cluster, source, het, cfg);
    return runtime.run();
  };

  // Measured run first: the proc backend forks its rank fleet, and fork()
  // must happen before the event run (or anything else) starts pool
  // threads in this process.
  const RunTrace measured = run_one(measured_kind);
  const RunTrace predicted = run_one(ExecModelKind::kEvent);

  const std::vector<PhaseRow> rows = {
      {"compute", predicted.compute_time, measured.compute_time},
      {"comm", predicted.comm_time, measured.comm_time},
      {"sense", predicted.sense_time, measured.sense_time},
      {"regrid", predicted.regrid_time, measured.regrid_time},
      {"migrate", predicted.migrate_time, measured.migrate_time},
      {"total", predicted.total_time, measured.total_time},
  };

  Table table({"phase", "predicted event (s)",
               std::string("measured ") + exec_model_name(measured_kind) +
                   " (s)",
               "delta"});
  CsvWriter csv(exp::results_path("exp_crossval.csv"),
                {"phase", "predicted_s", "measured_s"});
  for (const PhaseRow& r : rows) {
    table.add_row({r.phase, fmt(r.predicted.value(), 3),
                   fmt(r.measured.value(), 3),
                   fmt_delta(r.predicted, r.measured)});
    csv.add_row({r.phase, fmt(r.predicted.value(), 6),
                 fmt(r.measured.value(), 6)});
  }
  std::cout << table.str() << '\n';

  std::cout << "sense and regrid are charged identically in both models\n"
               "(coordinator-side work), so their deltas isolate nothing;\n"
               "compute, comm and migrate are the phases the rank processes\n"
               "actually execute.  Measured numbers are wall-clock divided\n"
               "by time_scale: machine-dependent, never golden-pinned.\n\n";
  std::cout << "iterations: predicted = " << predicted.iterations
            << ", measured = " << measured.iterations << '\n';
  std::cout << "raw series written to "
            << exp::results_path("exp_crossval.csv") << " (not a golden)\n";
  return 0;
}
