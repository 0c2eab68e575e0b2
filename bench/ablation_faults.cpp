/// \file ablation_faults.cpp
/// Ablation: probe-failure rate vs partitioner benefit.
///
/// The sensing loop is only useful if it survives the failure modes real
/// monitors exhibit: probes time out, nodes drop off and rejoin, readings
/// go stale.  This driver sweeps the per-attempt probe failure rate (plus
/// a fixed script of stale windows and crash/rejoin episodes) and runs the
/// system-sensitive partitioner against the homogeneous GrACE-default
/// baseline under identical load dynamics and identical fault plans.  The
/// claim under test: degraded sensing (backoff, staleness decay,
/// quarantine, forced repartitions) keeps the system-sensitive runtime
/// ahead of the baseline even when a fifth of all probes fail.
///
/// Environment knobs (all optional):
///   SSAMR_FAULT_RATES    comma-separated per-attempt probe failure rates
///                        (default "0,0.05,0.1,0.2,0.3")
///   SSAMR_FAULT_SEED     fault-plan seed (default 1724)
///   SSAMR_FAULT_STALE_WINDOWS  scripted stale windows per faulty run (2)
///   SSAMR_FAULT_CRASHES  scripted crash/rejoin episodes per faulty run (1)
///   SSAMR_FAULT_TIMEOUT_FRACTION  fraction of the failure rate drawn as
///                        timeouts rather than fast drops (default 0.5)

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace ssamr;

namespace {

std::vector<real_t> env_rates() {
  std::vector<real_t> rates;
  const char* v = std::getenv("SSAMR_FAULT_RATES");
  std::stringstream ss(v != nullptr && *v != '\0' ? v
                                                  : "0,0.05,0.1,0.2,0.3");
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) rates.push_back(std::strtod(item.c_str(), nullptr));
  return rates;
}

RunTrace run_one(const Partitioner& p, const FaultPlan& plan, real_t tau,
                 int iterations, ExecModelKind model) {
  Cluster cluster = exp::paper_cluster(4);
  exp::apply_dynamic_loads(cluster, tau);
  cluster.set_fault_plan(plan);
  TraceWorkloadSource source(exp::paper_trace_config());
  RuntimeConfig cfg = exp::paper_runtime_config(iterations,
                                                /*sensing_interval=*/5);
  cfg.exec_model = model;
  AdaptiveRuntime runtime(cluster, source, p, cfg);
  return runtime.run();
}

}  // namespace

int main(int argc, char** argv) {
  const ExecModelKind model = exp::select_exec_model(argc, argv);
  std::cout << "=== Ablation: probe failure rate (system-sensitive vs "
               "homogeneous baseline,\n    identical dynamic loads and "
               "fault plans; sensing every 5 iterations) ===\n\n";

  const int iterations = exp::run_iterations(200);
  const real_t tau = exp::calibrate_timescale(4, iterations, 5, model);
  const std::vector<real_t> rates = env_rates();

  // One het + one default run per rate, all independent: run in parallel.
  std::vector<RunTrace> het(rates.size());
  std::vector<RunTrace> def(rates.size());
  ThreadPool::global().parallel_for(rates.size() * 2, [&](std::size_t j) {
    const std::size_t i = j / 2;
    // Rate 0 is the reference row: the empty plan, a fault-free run.
    const FaultPlan plan = exp::fault_plan(rates[i], /*nodes=*/4, tau);
    HeterogeneousPartitioner h;
    GraceDefaultPartitioner d;
    if (j % 2 == 0)
      het[i] = run_one(h, plan, tau, iterations, model);
    else
      def[i] = run_one(d, plan, tau, iterations, model);
  });

  Table t({"fault rate", "system (s)", "default (s)", "gain %", "stale",
           "timeout", "failed", "quar", "readmit", "forced"});
  CsvWriter csv(exp::results_path("ablation_faults.csv"),
                {"fault_rate", "system_s", "default_s", "gain_pct", "stale",
                 "timeouts", "failures", "quarantines", "readmissions",
                 "forced_repartitions"});
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const ProbeHealth& h = het[i].health;
    const real_t gain =
        def[i].total_time > Seconds{0}
            ? 100.0 * (def[i].total_time - het[i].total_time) /
                  def[i].total_time
            : 0.0;
    t.add_row({fmt(rates[i], 2), fmt(het[i].total_time.value(), 1),
               fmt(def[i].total_time.value(), 1), fmt(gain, 1),
               std::to_string(h.stale), std::to_string(h.timeouts),
               std::to_string(h.failures), std::to_string(h.quarantines),
               std::to_string(h.readmissions),
               std::to_string(h.forced_repartitions)});
    csv.add_row({fmt(rates[i], 2), fmt(het[i].total_time.value(), 2),
                 fmt(def[i].total_time.value(), 2), fmt(gain, 2),
                 std::to_string(h.stale), std::to_string(h.timeouts),
                 std::to_string(h.failures), std::to_string(h.quarantines),
                 std::to_string(h.readmissions),
                 std::to_string(h.forced_repartitions)});
  }
  std::cout << t.str() << '\n';
  std::cout << "Expected shape: the gain column stays positive across the "
               "sweep — degraded\nsensing narrows but does not erase the "
               "system-sensitive advantage.\nraw series written to "
            << exp::results_path("ablation_faults.csv") << '\n';
  return 0;
}
