/// \file exp_partitioner_matrix.cpp
/// Partitioner zoo × workload family × execution model — the Table-I-style
/// win/loss matrix (ROADMAP open item 4).
///
/// The paper evaluates one partitioner pair against one RM3D-shaped kernel;
/// this driver crosses the entire registered zoo (partition/zoo.hpp)
/// against four workload families and both execution models:
///
///   rm3d      the paper's statically loaded RM3D trace (Fig. 7 conditions)
///   particle  the same trace with a tracer-particle cloud riding the
///             interface: the dual-constraint cost (cells + particles per
///             box) makes per-box work lumpy and capacity matching harder
///   comm      a communication-heavy variant (wide ghost shells, more
///             components, little comm/compute overlap): locality matters
///             more than balance
///   fault     dynamic loads with probe fault injection and periodic
///             sensing (ablation_faults conditions at one fault rate)
///
/// Every cell's partition additionally passes the full partition-audit
/// invariants (coverage, disjointness, W_k conservation, split
/// constraints) at a representative epoch; any audit error fails the run.
/// The per-cell rows land in results/partitioner_matrix.csv, which is
/// golden-pinned (tests/golden/partitioner_matrix.csv), so the whole
/// cross-product acts as a regression net for every future PR.
///
/// Flags / environment:
///   --exec-model=bsp|event|proc  run only that model (default: both)
///   SSAMR_EXP_ITERS         iterations per run (default 100)
///   SSAMR_FAULT_RATE        probe failure rate of the fault family (0.2)
///   SSAMR_FAULT_SEED / SSAMR_FAULT_STALE_WINDOWS / SSAMR_FAULT_CRASHES /
///   SSAMR_FAULT_TIMEOUT_FRACTION   as in ablation_faults

#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "partition/partition_audit.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace ssamr;

namespace {

const std::vector<std::string> kWorkloads = {"rm3d", "particle", "comm",
                                             "fault"};
constexpr int kProcs = 4;
constexpr std::int64_t kParticleCount = 4096;
constexpr real_t kParticleCost = 50.0;

/// Trace configuration of one workload family.
TraceConfig trace_config_for(const std::string& workload) {
  TraceConfig tcfg = exp::paper_trace_config();
  if (workload == "particle") tcfg.particles.count = kParticleCount;
  return tcfg;
}

/// Runtime configuration of one workload family (exec model set by caller).
RuntimeConfig runtime_config_for(const std::string& workload,
                                 int iterations) {
  const int sensing = workload == "fault" ? 5 : 0;
  RuntimeConfig cfg = exp::paper_runtime_config(iterations, sensing);
  if (workload == "particle") {
    cfg.work.cost_per_particle = Work{kParticleCost};
  } else if (workload == "comm") {
    cfg.executor.ghost = 4;
    cfg.executor.ncomp = 10;
    cfg.executor.comm_overlap = Fraction{0.2};
  }
  return cfg;
}

/// One cell of the matrix: a full adaptive run of `partitioner` on the
/// workload family under the given execution model.
RunTrace run_cell(const std::string& workload, const Partitioner& p,
                  ExecModelKind kind, int iterations, real_t tau) {
  Cluster cluster = exp::paper_cluster(kProcs);
  if (workload == "fault") {
    exp::apply_dynamic_loads(cluster, tau);
    cluster.set_fault_plan(exp::fault_plan(
        exp::env_real("SSAMR_FAULT_RATE", 0.2, 0.0, 1.0), kProcs, tau));
  } else {
    exp::apply_static_loads(cluster);
  }
  TraceWorkloadSource source(trace_config_for(workload));
  RuntimeConfig cfg = runtime_config_for(workload, iterations);
  cfg.exec_model = kind;
  AdaptiveRuntime runtime(cluster, source, p, cfg);
  return runtime.run();
}

/// Explicit audit sweep: every zoo member's partition of every workload
/// family at a representative epoch must satisfy the full partition
/// invariants.  Returns the number of audit errors (0 = all clean).
int audit_matrix(int epoch) {
  int audit_errors = 0;
  for (const std::string& workload : kWorkloads) {
    const TraceConfig tcfg = trace_config_for(workload);
    const SyntheticAmrTrace trace(tcfg);
    const BoxList boxes = trace.boxes_at_epoch(epoch);
    WorkModel wm = runtime_config_for(workload, /*iterations=*/1).work;
    ParticleField field;
    if (workload == "particle") {
      field = trace.particles_at_epoch(epoch);
      wm.particles = &field;
    }
    const std::vector<real_t> caps = exp::reference_capacities4();
    for (const ZooEntry& entry : partitioner_zoo()) {
      const auto p = entry.make();
      const PartitionResult result = p->partition(boxes, caps, wm);
      const audit::AuditReport report = audit::validate_partition(
          boxes, result, caps, wm, p->constraints());
      if (!report.ok()) {
        std::cerr << "AUDIT FAILURE (" << workload << ", " << entry.id
                  << "):\n"
                  << report.summary() << '\n';
        ++audit_errors;
      }
    }
  }
  return audit_errors;
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "=== Partitioner matrix: zoo x {rm3d, particle, comm, fault}"
               " x {bsp, event} ===\n\n";

  // Run both execution models unless one was requested explicitly.
  bool explicit_model = std::getenv("SSAMR_EXEC_MODEL") != nullptr;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]).rfind("--exec-model", 0) == 0)
      explicit_model = true;
  std::vector<ExecModelKind> kinds;
  if (explicit_model)
    kinds = {exp::select_exec_model(argc, argv)};
  else
    kinds = {ExecModelKind::kBsp, ExecModelKind::kEvent};

  const int iterations = exp::run_iterations(100);
  const auto& zoo = partitioner_zoo();

  // The fault family needs a calibrated dynamic-load timescale per model.
  std::map<ExecModelKind, real_t> tau;
  for (ExecModelKind kind : kinds)
    tau[kind] = exp::calibrate_timescale(kProcs, iterations, 5, kind);

  // Every partition the matrix produces must pass the audit invariants.
  const int audit_errors = audit_matrix(/*epoch=*/10);

  // All cells are independent deterministic runs: fan out on the pool.
  struct Cell {
    std::size_t workload, kind, scheme;
  };
  std::vector<Cell> cells;
  for (std::size_t w = 0; w < kWorkloads.size(); ++w)
    for (std::size_t k = 0; k < kinds.size(); ++k)
      for (std::size_t s = 0; s < zoo.size(); ++s) cells.push_back({w, k, s});
  std::vector<RunTrace> traces(cells.size());
  ThreadPool::global().parallel_for(cells.size(), [&](std::size_t i) {
    const Cell& c = cells[i];
    const auto p = zoo[c.scheme].make();
    traces[i] = run_cell(kWorkloads[c.workload], *p, kinds[c.kind],
                         iterations, tau[kinds[c.kind]]);
  });

  // Winner per (workload, exec model) group: smallest total time.
  std::vector<std::size_t> winner(kWorkloads.size() * kinds.size());
  for (std::size_t g = 0; g < winner.size(); ++g) {
    std::size_t best = 0;
    Seconds best_t{0};
    bool first = true;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].workload * kinds.size() + cells[i].kind != g) continue;
      if (first || traces[i].total_time < best_t) {
        first = false;
        best = i;
        best_t = traces[i].total_time;
      }
    }
    winner[g] = best;
  }

  CsvWriter csv(exp::results_path("partitioner_matrix.csv"),
                {"workload", "exec_model", "partitioner", "total_s",
                 "compute_s", "comm_s", "migrate_s", "mean_max_imb_pct",
                 "splits", "win"});
  Table table({"workload", "model", "partitioner", "total (s)", "imb %",
               "splits", "win"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    const RunTrace& t = traces[i];
    const std::string model =
        kinds[c.kind] == ExecModelKind::kBsp ? "bsp" : "event";
    int splits = 0;
    for (const RegridRecord& r : t.regrids) splits += r.splits;
    const std::size_t g = c.workload * kinds.size() + c.kind;
    const bool win = winner[g] == i;
    csv.add_row({kWorkloads[c.workload], model, zoo[c.scheme].id,
                 fmt(t.total_time.value(), 2), fmt(t.compute_time.value(), 2),
                 fmt(t.comm_time.value(), 2), fmt(t.migrate_time.value(), 2),
                 fmt(t.mean_max_imbalance_pct().value(), 2),
                 std::to_string(splits), win ? "1" : "0"});
    table.add_row({kWorkloads[c.workload], model, zoo[c.scheme].id,
                   fmt(t.total_time.value(), 1),
                   fmt(t.mean_max_imbalance_pct().value(), 1),
                   std::to_string(splits), win ? "*" : ""});
  }
  std::cout << table.str() << '\n';

  std::cout << "Win counts (lowest total time per workload x model):\n";
  for (std::size_t s = 0; s < zoo.size(); ++s) {
    int wins = 0;
    for (std::size_t g = 0; g < winner.size(); ++g)
      if (cells[winner[g]].scheme == s) ++wins;
    std::cout << "  " << zoo[s].id << ": " << wins << '\n';
  }
  std::cout << "\naudit sweep: "
            << (audit_errors == 0 ? "all partitions clean"
                                  : "ERRORS — see above")
            << "\nraw matrix written to "
            << exp::results_path("partitioner_matrix.csv") << '\n';
  return audit_errors == 0 ? 0 : 1;
}
