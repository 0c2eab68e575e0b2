#include "workloads.hpp"

#include <algorithm>
#include <cmath>

#include "timed.hpp"

namespace perfbench {

const std::vector<WorkloadSpec>& workload_specs() {
  // nominal_op_s: median op seconds measured at the reference commit on a
  // 4-vCPU x86-64 VM (RelWithDebInfo), see README.md.
  static const std::vector<WorkloadSpec> specs = {
      {"paper-sensing", 1, 0.90, make_paper_sensing},
      {"particle-zoo", 2, 1.20, make_particle_zoo},
      {"scale-event", 1, 1.25, make_scale_event},
  };
  return specs;
}

int op_count(const WorkloadSpec& spec, int block, double seconds,
             int min_blocks) {
  const double blocks = seconds / (spec.nominal_op_s * block);
  return block * std::max(min_blocks, static_cast<int>(std::lround(blocks)));
}

ssamr::Rng op_rng(std::uint64_t seed, int index) {
  std::uint64_t state = seed;
  const std::uint64_t a = ssamr::splitmix64(state);
  return ssamr::Rng(a ^ (static_cast<std::uint64_t>(index) *
                         0x9e3779b97f4a7c15ULL));
}

ssamr::Rng warmup_rng() { return op_rng(0, -1); }

ssamr::TraceConfig perturbed_trace(ssamr::Rng& rng, int waves_y) {
  ssamr::TraceConfig cfg = ssamr::exp::paper_trace_config();
  cfg.interface_x0 = rng.uniform(0.2, 0.3);
  cfg.speed = rng.uniform(0.025, 0.035);
  cfg.growth = rng.uniform(0.10, 0.14);
  cfg.waves_y = waves_y;
  return cfg;
}

ssamr::RunTrace run_adaptive(ssamr::Cluster& cluster,
                             ssamr::WorkloadSource& source,
                             const ssamr::Partitioner& partitioner,
                             const ssamr::RuntimeConfig& cfg, Tracer* tracer,
                             int parent, int op, int scenario) {
  if (tracer == nullptr) {
    ssamr::AdaptiveRuntime runtime(cluster, source, partitioner, cfg);
    return runtime.run();
  }
  TimedWorkloadSource timed_source(source, *tracer, op, scenario);
  TimedPartitioner timed_partitioner(partitioner, *tracer, op);
  ssamr::AdaptiveRuntime runtime(cluster, timed_source, timed_partitioner,
                                 cfg);
  const ScopedSpan span(tracer, "runtime.run", op, parent);
  return runtime.run();
}

void digest_run(const ssamr::RunTrace& trace, int nranks, int iterations,
                OpResult& out) {
  const auto fail = [&out](const std::string& what) {
    if (out.error.empty()) out.error = what;
  };
  double weighted = 0;
  double splits = 0;
  for (const ssamr::RegridRecord& r : trace.regrids) {
    if (r.assigned_work.size() != static_cast<std::size_t>(nranks))
      fail("regrid assigned work to the wrong number of ranks");
    double sum = 0;
    for (std::size_t k = 0; k < r.assigned_work.size(); ++k) {
      sum += r.assigned_work[k];
      weighted += static_cast<double>(k + 1) * r.assigned_work[k];
    }
    const double total = r.total_work.value();
    if (!(std::abs(sum - total) <= 1e-9 * total))
      fail("partition does not conserve work");
    splits += r.splits;
  }
  const double t = trace.total_time.value();
  if (trace.iterations != iterations) fail("run lost iterations");
  if (trace.regrids.empty()) fail("run never partitioned");
  if (!(std::isfinite(t) && t > 0)) fail("virtual time not positive");
  out.iters += trace.iterations;
  out.digest.insert(out.digest.end(), {t, weighted, splits});
}

}  // namespace perfbench
