/// \file bench_scale.cpp
/// Microbenchmarks of the distributed-metadata scale path (DESIGN.md §11):
/// the prefix-sum partitioner, SFC-keyed ghost-flow discovery and the
/// indexed fluid network simulator at cluster sizes far beyond the paper's
/// P ≤ 32.  tools/bench_check.py gates these against
/// tools/bench_baseline.json, so large-P partition time and network
/// event throughput are regression-checked in CI.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "partition/distributed_sfc.hpp"
#include "partition/metrics.hpp"
#include "sim/event.hpp"
#include "sim/message_sim.hpp"

namespace {

using namespace ssamr;

/// The exp_scale workload shape: four 8³ level-0 boxes per rank on a
/// cube-ish lattice, every eighth box carrying a refined child.
const BoxList& scale_boxes(int nprocs) {
  static BoxList cache;
  static int cached_for = 0;
  if (cached_for != nprocs) {
    cache = BoxList{};
    const std::int64_t nboxes = 4 * static_cast<std::int64_t>(nprocs);
    coord_t side = 1;
    while (static_cast<std::int64_t>(side) * side * side < nboxes) ++side;
    std::int64_t placed = 0;
    for (coord_t k = 0; k < side && placed < nboxes; ++k)
      for (coord_t j = 0; j < side && placed < nboxes; ++j)
        for (coord_t i = 0; i < side && placed < nboxes; ++i) {
          cache.push_back(Box::from_extent(IntVec(i * 8, j * 8, k * 8),
                                           IntVec(8, 8, 8), 0));
          if (placed % 8 == 0)
            cache.push_back(Box::from_extent(
                IntVec(i * 16, j * 16, k * 16), IntVec(8, 8, 4), 1));
          ++placed;
        }
    cached_for = nprocs;
  }
  return cache;
}

std::vector<real_t> scale_caps(int nprocs) {
  std::vector<real_t> caps(static_cast<std::size_t>(nprocs));
  real_t sum = 0;
  for (int k = 0; k < nprocs; ++k) {
    caps[static_cast<std::size_t>(k)] = 1.0 + 0.25 * (k % 4);
    sum += caps[static_cast<std::size_t>(k)];
  }
  for (auto& c : caps) c /= sum;
  return caps;
}

void BM_DistributedSfcPartition(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  const BoxList& boxes = scale_boxes(nprocs);
  const auto caps = scale_caps(nprocs);
  const WorkModel work;
  const DistributedSfcPartitioner p(SfcConfig{}, /*shards=*/64);
  for (auto _ : state) {
    auto r = p.partition(boxes, caps, work);
    benchmark::DoNotOptimize(r.assignments.data());
  }
  state.counters["boxes"] = static_cast<double>(boxes.size());
}
BENCHMARK(BM_DistributedSfcPartition)
    ->Arg(128)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Unit(benchmark::kMillisecond);

void BM_GhostFlowDiscovery(benchmark::State& state) {
  // pairwise_comm_bytes drives the key-indexed local-view build: the
  // per-partition neighbor-discovery cost of the event model.
  const int nprocs = static_cast<int>(state.range(0));
  const BoxList& boxes = scale_boxes(nprocs);
  const auto caps = scale_caps(nprocs);
  const DistributedSfcPartitioner p(SfcConfig{}, /*shards=*/64);
  const PartitionResult r = p.partition(boxes, caps, WorkModel{});
  for (auto _ : state) {
    auto flows = pairwise_comm_bytes(r, /*ghost=*/2, /*ncomp=*/5);
    benchmark::DoNotOptimize(flows.data());
  }
  state.counters["assignments"] = static_cast<double>(r.assignments.size());
}
BENCHMARK(BM_GhostFlowDiscovery)
    ->Arg(1024)
    ->Arg(16384)
    ->Unit(benchmark::kMillisecond);

/// Ring-neighbor transfer waves: every rank sends to its four curve
/// neighbors in staggered waves — the traffic shape of a ghost exchange.
std::vector<sim::Transfer> ring_waves(int nprocs) {
  std::vector<sim::Transfer> ts;
  for (int w = 0; w < 4; ++w)
    for (int k = 0; k < nprocs; ++k)
      for (const int d : {1, 2}) {
        sim::Transfer t;
        t.src = static_cast<rank_t>(k);
        t.dst = static_cast<rank_t>((k + d) % nprocs);
        t.bytes = Bytes{40960 + 512 * (k % 7)};
        t.post_time = Seconds{0.01 * w + 0.0001 * (k % 13)};
        ts.push_back(t);
      }
  return ts;
}

void BM_IndexedFluidSim(benchmark::State& state) {
  const int nprocs = static_cast<int>(state.range(0));
  const std::vector<sim::Transfer> base = ring_waves(nprocs);
  const std::vector<MbitsPerSec> bw(static_cast<std::size_t>(nprocs),
                                    MbitsPerSec{100.0});
  const NetworkModel net;
  std::size_t events = 0;
  for (auto _ : state) {
    std::vector<sim::Transfer> ts = base;
    events = sim::simulate_transfers(ts, bw, net);
    benchmark::DoNotOptimize(ts.data());
  }
  state.counters["events"] = static_cast<double>(events);
}
BENCHMARK(BM_IndexedFluidSim)
    ->Arg(128)
    ->Arg(16384)
    ->Unit(benchmark::kMillisecond);

}  // namespace
