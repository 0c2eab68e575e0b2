/// \file particle_zoo.cpp
/// `particle-zoo`: one op runs every zoo partitioner on one seeded
/// particle-coupled scenario — event model at P = 8 (the exact small-P
/// network path), static loads, 50 work units per particle — spread over
/// ThreadPool::global() as exp_partitioner_matrix does.

#include <exception>
#include <stdexcept>

#include "partition/zoo.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kProcs = 8;
constexpr int kIterations = 20;  // 4 regrids per run
constexpr int kWarmIterations = 5;
constexpr ssamr::real_t kParticleCost = 50.0;
constexpr std::int64_t kMinParticles = 24000;
constexpr std::int64_t kBandParticles = 4000;
// Particle bands 24-28k, 28-32k, 32-36k, 36-40k; waves_y cycles with the
// op index, so three blocks see every (band, wave count) pair.
constexpr int kBlock = 4;

class ParticleZoo final : public Workload {
 public:
  explicit ParticleZoo(std::uint64_t seed) : seed_(seed) {
    // Warm-up: one short matrix on a scenario no timed op uses.
    const OpResult warm = run_matrix(-1, kWarmIterations, nullptr, -1);
    if (!warm.error.empty()) throw std::runtime_error(warm.error);
  }

  int block() const override { return kBlock; }

  OpResult run_op(int index, Tracer* tracer, int op_span) override {
    return run_matrix(index, kIterations, tracer, op_span);
  }

 private:
  /// Op `index`, or the warm-up (index < 0: the largest band).
  OpResult run_matrix(int index, int iterations, Tracer* tracer,
                      int op_span) const {
    ssamr::Rng rng = index >= 0 ? op_rng(seed_, index) : warmup_rng();
    const int band = index >= 0 ? index % kBlock : kBlock - 1;
    ssamr::TraceConfig tcfg =
        perturbed_trace(rng, 1 + (index >= 0 ? index % 3 : 1));
    const std::int64_t lo = kMinParticles + band * kBandParticles;
    tcfg.particles.count = rng.uniform_int(lo, lo + kBandParticles - 1);
    tcfg.particles.seed = rng();

    ssamr::RuntimeConfig cfg = ssamr::exp::paper_runtime_config(iterations, 0);
    cfg.work.cost_per_particle = ssamr::Work{kParticleCost};
    cfg.exec_model = ssamr::ExecModelKind::kEvent;

    const auto& zoo = ssamr::partitioner_zoo();
    std::vector<ssamr::RunTrace> traces(zoo.size());
    std::vector<std::string> errors(zoo.size());
    ssamr::ThreadPool::global().parallel_for(zoo.size(), [&](std::size_t i) {
      try {
        ssamr::Cluster cluster = ssamr::exp::paper_cluster(kProcs);
        ssamr::exp::apply_static_loads(cluster);
        ssamr::TraceWorkloadSource source(tcfg);
        const auto partitioner = zoo[i].make();
        traces[i] = run_adaptive(cluster, source, *partitioner, cfg, tracer,
                                 op_span, index, index);
      } catch (const std::exception& e) {
        errors[i] = zoo[i].id + ": " + e.what();
      }
    });

    OpResult out;
    for (std::size_t i = 0; i < zoo.size(); ++i) {
      if (!errors[i].empty() && out.error.empty()) out.error = errors[i];
      digest_run(traces[i], kProcs, iterations, out);
    }
    return out;
  }

  std::uint64_t seed_;
};

}  // namespace

std::unique_ptr<Workload> make_particle_zoo(std::uint64_t seed) {
  return std::make_unique<ParticleZoo>(seed);
}

}  // namespace perfbench
