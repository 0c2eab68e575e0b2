/// \file ablation_hysteresis.cpp
/// Ablation: capacity-change hysteresis.
///
/// Every sensing sweep returns slightly different capacities (sensor
/// noise); adopting each jittered estimate makes the partitioner migrate
/// data for nothing.  The runtime's capacity_change_threshold adopts fresh
/// capacities only when some node moved by more than θ.  Too small — noise
/// churn; too large — genuine load changes are ignored.  Swept under the
/// Table III dynamics with frequent sensing and noisy sensors.

#include <iostream>
#include <vector>

#include "core/experiment.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

using namespace ssamr;

namespace {

RunTrace run_with_threshold(real_t threshold, real_t tau, real_t noise,
                            int iterations) {
  Cluster cluster = exp::paper_cluster(4);
  exp::apply_dynamic_loads(cluster, tau);
  TraceWorkloadSource source(exp::paper_trace_config());
  HeterogeneousPartitioner het;
  RuntimeConfig cfg = exp::paper_runtime_config(iterations,
                                                /*sensing_interval=*/10);
  cfg.sensing.capacity_change_threshold = threshold;
  cfg.monitor.noise.cpu_sigma = noise;
  cfg.monitor.noise.bandwidth_sigma = noise;
  AdaptiveRuntime runtime(cluster, source, het, cfg);
  return runtime.run();
}

}  // namespace

int main() {
  std::cout << "=== Ablation: capacity-change hysteresis threshold "
               "(sensing every 10 iterations, noisy sensors) ===\n\n";

  const real_t noise = 0.10;
  const int iterations = exp::run_iterations(200);
  const real_t tau =
      exp::calibrate_timescale(4, iterations, 10, ExecModelKind::kBsp);

  Table t({"threshold", "total (s)", "migrate (s)", "compute (s)"});
  CsvWriter csv(exp::results_path("ablation_hysteresis.csv"),
                {"threshold", "total_s", "migrate_s", "compute_s"});
  // The six threshold sweeps are independent runs over the same load
  // script; run them in parallel, emit rows in fixed order.
  const std::vector<real_t> thetas{0.0, 0.05, 0.10, 0.20, 0.50, 2.0};
  std::vector<RunTrace> traces(thetas.size());
  ThreadPool::global().parallel_for(thetas.size(), [&](std::size_t i) {
    traces[i] = run_with_threshold(thetas[i], tau, noise, iterations);
  });
  for (std::size_t i = 0; i < thetas.size(); ++i) {
    const real_t theta = thetas[i];
    const RunTrace& trace = traces[i];
    t.add_row({fmt(theta, 2), fmt(trace.total_time.value(), 1),
               fmt(trace.migrate_time.value(), 1),
               fmt(trace.compute_time.value(), 1)});
    csv.add_row({fmt(theta, 2), fmt(trace.total_time.value(), 2),
                 fmt(trace.migrate_time.value(), 2),
                 fmt(trace.compute_time.value(), 2)});
  }
  std::cout << t.str() << '\n';
  std::cout << "Expected shape: an interior optimum — small thresholds "
               "migrate data chasing noise,\nhuge thresholds never adopt "
               "real load changes (compute blows up).\nraw series written to "
            << exp::results_path("ablation_hysteresis.csv") << '\n';
  return 0;
}
