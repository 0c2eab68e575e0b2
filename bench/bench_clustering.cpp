/// \file bench_clustering.cpp
/// Microbenchmarks of Berger–Rigoutsos clustering on interface-band flag
/// clouds like the ones regridding produces, and on the paper trace's own
/// per-level run sets.

#include <benchmark/benchmark.h>

#include <cmath>

#include "amr/cluster_br.hpp"
#include "amr/trace_generator.hpp"
#include "core/experiment.hpp"

namespace {

using namespace ssamr;

/// A perturbed planar band of flags, n_y × n_z columns of ~2w cells.
std::vector<IntVec> band_flags(coord_t ny, coord_t nz, real_t amplitude) {
  std::vector<IntVec> flags;
  for (coord_t k = 0; k < nz; ++k)
    for (coord_t j = 0; j < ny; ++j) {
      const real_t xs =
          32.0 + amplitude * std::sin(2.0 * 3.14159 * j / ny) +
          0.5 * amplitude * std::cos(2.0 * 3.14159 * k / nz);
      for (coord_t i = static_cast<coord_t>(xs) - 2;
           i <= static_cast<coord_t>(xs) + 2; ++i)
        flags.emplace_back(i, j, k);
    }
  return flags;
}

void BM_ClusterPlanarBand(benchmark::State& state) {
  const auto flags =
      band_flags(state.range(0), state.range(0), /*amplitude=*/0.0);
  ClusterConfig cfg;
  for (auto _ : state) {
    auto boxes = cluster_flags(flags, 1, cfg);
    benchmark::DoNotOptimize(boxes.data());
  }
  state.counters["flags"] = static_cast<double>(flags.size());
}
BENCHMARK(BM_ClusterPlanarBand)->Arg(16)->Arg(32)->Arg(64);

void BM_ClusterWavyBand(benchmark::State& state) {
  const auto flags =
      band_flags(state.range(0), state.range(0), /*amplitude=*/6.0);
  ClusterConfig cfg;
  cfg.efficiency = 0.55;
  cfg.small_box_cells = 4096;
  for (auto _ : state) {
    auto boxes = cluster_flags(flags, 2, cfg);
    benchmark::DoNotOptimize(boxes.data());
  }
  state.counters["flags"] = static_cast<double>(flags.size());
}
BENCHMARK(BM_ClusterWavyBand)->Arg(16)->Arg(32)->Arg(64);

void BM_ClusterEfficiencySweep(benchmark::State& state) {
  const auto flags = band_flags(32, 32, 6.0);
  ClusterConfig cfg;
  cfg.efficiency = static_cast<real_t>(state.range(0)) / 100.0;
  for (auto _ : state) {
    auto boxes = cluster_flags(flags, 1, cfg);
    benchmark::DoNotOptimize(boxes.data());
  }
}
BENCHMARK(BM_ClusterEfficiencySweep)->Arg(30)->Arg(55)->Arg(70)->Arg(90);

/// The paper trace's regrid epochs 0-11: flag runs at levels 0-2, each
/// level clustered, clipped and refined.  Clustering the level-2 runs is
/// most of an epoch.
void BM_ClusterPaperTrace(benchmark::State& state) {
  const SyntheticAmrTrace trace(exp::paper_trace_config());
  std::size_t boxes = 0;
  for (auto _ : state) {
    boxes = 0;
    for (int epoch = 0; epoch < 12; ++epoch)
      boxes += trace.boxes_at_epoch(epoch).size();
    benchmark::DoNotOptimize(boxes);
  }
  state.counters["boxes"] = static_cast<double>(boxes);
}
BENCHMARK(BM_ClusterPaperTrace)->Unit(benchmark::kMillisecond);

}  // namespace
