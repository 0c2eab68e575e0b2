/// \file paper_sensing.cpp
/// `paper-sensing`: one op is a Table II/III-style cell under the BSP
/// model — three AdaptiveRuntime runs on one seeded trace and one dynamic
/// load script: heterogeneous with periodic sensing, heterogeneous with a
/// single sense, and the GrACE default.

#include <stdexcept>

#include "partition/grace_default.hpp"
#include "partition/heterogeneous.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kIterations = 60;  // 12 regrids per run
constexpr int kWarmIterations = 10;
constexpr int kProcs[] = {2, 4, 8, 16};
constexpr int kIntervals[] = {10, 20, 40};
// Virtual seconds of a kIterations run at each cluster size.
constexpr ssamr::real_t kNominalRunS[] = {330.0, 170.0, 110.0, 90.0};
// Every (P, interval) pair once; waves_y follows a Latin square, so each
// P sees every wave count and each wave count appears four times.
constexpr int kBlock = 12;

class PaperSensing final : public Workload {
 public:
  explicit PaperSensing(std::uint64_t seed) : seed_(seed) {
    // Warm-up: one short cell on a scenario no timed op uses.
    const OpResult warm = run_cell(-1, kWarmIterations, nullptr, -1);
    if (!warm.error.empty()) throw std::runtime_error(warm.error);
  }

  int block() const override { return kBlock; }

  OpResult run_op(int index, Tracer* tracer, int op_span) override {
    return run_cell(index, kIterations, tracer, op_span);
  }

 private:
  /// Op `index`, or the warm-up (index < 0: the largest stratum).
  OpResult run_cell(int index, int iterations, Tracer* tracer,
                    int op_span) const {
    ssamr::Rng rng = index >= 0 ? op_rng(seed_, index) : warmup_rng();
    const int stratum = index >= 0 ? index % kBlock : kBlock - 1;
    const int nprocs = kProcs[stratum % 4];
    const int interval = kIntervals[stratum / 4];
    const ssamr::TraceConfig tcfg =
        perturbed_trace(rng, 1 + (stratum % 4 + stratum / 4) % 3);
    // Load timescale: a seeded share of the run's typical virtual length,
    // so the scripted load dynamics fall inside the run
    // (exp::calibrate_timescale fits τ that way, at the cost of extra runs).
    const ssamr::real_t tau =
        rng.uniform(0.5, 1.0) * kNominalRunS[stratum % 4];

    ssamr::RuntimeConfig periodic =
        ssamr::exp::paper_runtime_config(iterations, interval);
    periodic.exec_model = ssamr::ExecModelKind::kBsp;
    ssamr::RuntimeConfig single = periodic;
    single.sensing.interval = 0;

    const ssamr::HeterogeneousPartitioner het;
    const ssamr::GraceDefaultPartitioner grace;
    const struct {
      const ssamr::Partitioner* partitioner;
      const ssamr::RuntimeConfig* cfg;
    } runs[] = {{&het, &periodic}, {&het, &single}, {&grace, &periodic}};

    OpResult out;
    for (const auto& run : runs) {
      ssamr::Cluster cluster = ssamr::exp::paper_cluster(nprocs);
      ssamr::exp::apply_dynamic_loads(cluster, tau);
      ssamr::TraceWorkloadSource source(tcfg);
      const ssamr::RunTrace trace =
          run_adaptive(cluster, source, *run.partitioner, *run.cfg, tracer,
                       op_span, index, index);
      digest_run(trace, nprocs, iterations, out);
    }
    return out;
  }

  std::uint64_t seed_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_sensing(std::uint64_t seed) {
  return std::make_unique<PaperSensing>(seed);
}

}  // namespace perfbench
