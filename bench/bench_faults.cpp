/// \file bench_faults.cpp
/// Microbenchmarks of the fault-tolerant sensing path: a probe sweep under
/// the empty fault plan (the sweep of every run in which nothing fails),
/// the degraded sweep with retries and backoff, the forecaster's bounded
/// selector on long histories, and raw fault-plan queries.

#include <benchmark/benchmark.h>

#include "core/experiment.hpp"
#include "core/ssamr.hpp"

namespace {

using namespace ssamr;

Cluster bench_cluster(int n) {
  Cluster cluster = exp::paper_cluster(n);
  exp::apply_static_loads(cluster);
  return cluster;
}

FaultPlan faulty_plan(int nodes) {
  FaultProfile profile;
  profile.probe_timeout_rate = 0.1;
  profile.probe_drop_rate = 0.1;
  profile.stale_windows = 2;
  profile.crash_episodes = 1;
  return FaultPlan::scripted(nodes, /*horizon=*/Seconds{1000.0}, profile,
                             1724);
}

void BM_ProbeSweepNoFaults(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Cluster cluster = bench_cluster(n);
  ResourceMonitor monitor(cluster, MonitorConfig{});
  Seconds t{0};
  for (auto _ : state) {
    SweepResult sweep = monitor.probe_all(t);
    benchmark::DoNotOptimize(sweep.estimates.data());
    t += Seconds{10.0};
  }
}
BENCHMARK(BM_ProbeSweepNoFaults)->Arg(4)->Arg(32);

void BM_ProbeSweepFaulty(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Cluster cluster = bench_cluster(n);
  cluster.set_fault_plan(faulty_plan(n));
  ResourceMonitor monitor(cluster, MonitorConfig{});
  Seconds t{0};
  for (auto _ : state) {
    SweepResult sweep = monitor.probe_all(t);
    benchmark::DoNotOptimize(sweep.estimates.data());
    t += Seconds{10.0};
  }
}
BENCHMARK(BM_ProbeSweepFaulty)->Arg(4)->Arg(32);

void BM_ForecasterLongHistory(benchmark::State& state) {
  // The bounded selector's whole point: cost must not grow with history
  // length (it was O(members · n²) per forecast before).
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<real_t> history(n);
  Rng rng(7);
  for (auto& v : history) v = 0.5 + 0.4 * rng.uniform();
  AdaptiveForecaster forecaster;
  for (auto _ : state)
    benchmark::DoNotOptimize(forecaster.forecast(history));
}
BENCHMARK(BM_ForecasterLongHistory)->Arg(64)->Arg(1024);

void BM_FaultPlanQuery(benchmark::State& state) {
  const FaultPlan plan = faulty_plan(32);
  std::uint64_t attempt = 0;
  Seconds t{0};
  for (auto _ : state) {
    const ProbeFault f =
        plan.probe_fault(static_cast<rank_t>(attempt % 32), t, attempt);
    benchmark::DoNotOptimize(f);
    ++attempt;
    t += Seconds{0.5};
  }
}
BENCHMARK(BM_FaultPlanQuery);

}  // namespace
