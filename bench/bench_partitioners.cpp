/// \file bench_partitioners.cpp
/// Microbenchmarks of the partitioners themselves: time to distribute the
/// paper-scale composite box list over P processors.

#include <benchmark/benchmark.h>

#include "core/experiment.hpp"
#include "core/ssamr.hpp"

namespace {

using namespace ssamr;

const BoxList& paper_boxes() {
  static const BoxList boxes = [] {
    SyntheticAmrTrace trace(exp::paper_trace_config());
    return trace.boxes_at_epoch(10);  // mid-run, ~100 boxes
  }();
  return boxes;
}

std::vector<real_t> caps_for(int nprocs) {
  std::vector<real_t> caps(static_cast<std::size_t>(nprocs));
  for (int k = 0; k < nprocs; ++k)
    caps[static_cast<std::size_t>(k)] =
        (1.0 + 0.5 * (k % 4)) /
        (static_cast<real_t>(nprocs) * (1.0 + 0.5 * 1.5));
  return caps;
}

void BM_HeterogeneousPartition(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  const auto caps = caps_for(nprocs);
  const WorkModel work;
  HeterogeneousPartitioner p;
  for (auto _ : state) {
    auto r = p.partition(paper_boxes(), caps, work);
    benchmark::DoNotOptimize(r.assignments.data());
  }
  state.counters["boxes"] = static_cast<double>(paper_boxes().size());
}
BENCHMARK(BM_HeterogeneousPartition)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_GraceDefaultPartition(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  const auto caps = caps_for(nprocs);
  const WorkModel work;
  GraceDefaultPartitioner p;
  for (auto _ : state) {
    auto r = p.partition(paper_boxes(), caps, work);
    benchmark::DoNotOptimize(r.assignments.data());
  }
}
BENCHMARK(BM_GraceDefaultPartition)->Arg(4)->Arg(32);

void BM_MultiAxisPartition(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  const auto caps = caps_for(nprocs);
  const WorkModel work;
  MultiAxisPartitioner p;
  for (auto _ : state) {
    auto r = p.partition(paper_boxes(), caps, work);
    benchmark::DoNotOptimize(r.assignments.data());
  }
}
BENCHMARK(BM_MultiAxisPartition)->Arg(4)->Arg(32);

void BM_KnapsackPartition(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  const auto caps = caps_for(nprocs);
  const WorkModel work;
  KnapsackPartitioner p;
  for (auto _ : state) {
    auto r = p.partition(paper_boxes(), caps, work);
    benchmark::DoNotOptimize(r.assignments.data());
  }
}
BENCHMARK(BM_KnapsackPartition)->Arg(4)->Arg(32);

void BM_SfcKnapsackPartition(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  const auto caps = caps_for(nprocs);
  const WorkModel work;
  SfcKnapsackHybrid p;
  for (auto _ : state) {
    auto r = p.partition(paper_boxes(), caps, work);
    benchmark::DoNotOptimize(r.assignments.data());
  }
}
BENCHMARK(BM_SfcKnapsackPartition)->Arg(4)->Arg(32);

// The dual-constraint hot path: box pricing counts particles through the
// field's bucket index, so gate the particle-coupled partition cost
// separately.
void BM_KnapsackPartitionParticles(benchmark::State& state) {
  const auto caps = caps_for(8);
  const SyntheticAmrTrace trace([] {
    TraceConfig cfg = exp::paper_trace_config();
    cfg.particles.count = 4096;
    return cfg;
  }());
  const ParticleField field = trace.particles_at_epoch(10);
  WorkModel work;
  work.cost_per_particle = Work{50.0};
  work.particles = &field;
  KnapsackPartitioner p;
  for (auto _ : state) {
    auto r = p.partition(paper_boxes(), caps, work);
    benchmark::DoNotOptimize(r.assignments.data());
  }
  state.counters["particles"] = static_cast<double>(field.size());
}
BENCHMARK(BM_KnapsackPartitionParticles);

// A trace source draws and indexes its particle cloud once, then only
// places it at each regrid: time both, so a per-regrid redraw shows up as
// a placement as slow as a draw.
TraceConfig particle_trace_config() {
  TraceConfig cfg = exp::paper_trace_config();
  cfg.particles.count = 32768;
  return cfg;
}

void BM_ParticleCloudDraw(benchmark::State& state) {
  const TraceConfig cfg = particle_trace_config();
  for (auto _ : state) {
    const ParticleField field = ParticleField::gaussian_cloud(
        cfg.domain, cfg.particles, cfg.interface_x0);
    benchmark::DoNotOptimize(field.size());
  }
}
BENCHMARK(BM_ParticleCloudDraw);

void BM_ParticleCloudPlace(benchmark::State& state) {
  const SyntheticAmrTrace trace(particle_trace_config());
  std::vector<real_t> centers;
  for (int epoch = 0; epoch < 12; ++epoch)
    centers.push_back(trace.interface_position(epoch));
  ParticleField field = trace.particles_at_epoch(0);
  for (auto _ : state) {
    for (const real_t center : centers) field.place(center);
    benchmark::DoNotOptimize(field);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_ParticleCloudPlace);

void BM_ImbalanceMetric(benchmark::State& state) {
  HeterogeneousPartitioner p;
  const auto caps = caps_for(8);
  const WorkModel work;
  const auto r = p.partition(paper_boxes(), caps, work);
  for (auto _ : state) {
    auto v = load_imbalance_pct(r);
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_ImbalanceMetric);

void BM_CommVolumeMetric(benchmark::State& state) {
  HeterogeneousPartitioner p;
  const auto caps = caps_for(8);
  const WorkModel work;
  const auto r = p.partition(paper_boxes(), caps, work);
  for (auto _ : state)
    benchmark::DoNotOptimize(partition_comm_cells(r, 1));
}
BENCHMARK(BM_CommVolumeMetric);

}  // namespace
