#include "partition/zoo.hpp"

#include "partition/distributed_sfc.hpp"
#include "partition/grace_default.hpp"
#include "partition/greedy.hpp"
#include "partition/heterogeneous.hpp"
#include "partition/knapsack.hpp"
#include "partition/multiaxis.hpp"
#include "partition/sfc_knapsack.hpp"
#include "util/error.hpp"

namespace ssamr {

const std::vector<ZooEntry>& partitioner_zoo() {
  // Registration order is part of the contract: CSVs and differential
  // tests iterate it, so append new schemes at the end.
  static const std::vector<ZooEntry> zoo = {
      {"default", /*capacity_aware=*/false, /*splits_boxes=*/true,
       /*sfc_contiguous=*/true, /*permutation_equivariant=*/false,
       /*local_view=*/false, [] { return std::make_unique<GraceDefaultPartitioner>(); }},
      {"heterogeneous", /*capacity_aware=*/true, /*splits_boxes=*/true,
       /*sfc_contiguous=*/false, /*permutation_equivariant=*/true,
       /*local_view=*/false, [] { return std::make_unique<HeterogeneousPartitioner>(); }},
      {"multiaxis", /*capacity_aware=*/true, /*splits_boxes=*/true,
       /*sfc_contiguous=*/false, /*permutation_equivariant=*/true,
       /*local_view=*/false, [] { return std::make_unique<MultiAxisPartitioner>(); }},
      {"sfc-heterogeneous", /*capacity_aware=*/true, /*splits_boxes=*/true,
       /*sfc_contiguous=*/true, /*permutation_equivariant=*/false,
       /*local_view=*/false,
       [] { return std::make_unique<DistributedSfcPartitioner>(SfcConfig{}, 1); }},
      {"greedy", /*capacity_aware=*/true, /*splits_boxes=*/false,
       /*sfc_contiguous=*/false, /*permutation_equivariant=*/true,
       /*local_view=*/false, [] { return std::make_unique<GreedyPartitioner>(); }},
      {"knapsack", /*capacity_aware=*/true, /*splits_boxes=*/false,
       /*sfc_contiguous=*/false, /*permutation_equivariant=*/true,
       /*local_view=*/false, [] { return std::make_unique<KnapsackPartitioner>(); }},
      {"sfc-knapsack", /*capacity_aware=*/true, /*splits_boxes=*/false,
       /*sfc_contiguous=*/true, /*permutation_equivariant=*/false,
       /*local_view=*/false, [] { return std::make_unique<SfcKnapsackHybrid>(); }},
      {"distributed-sfc", /*capacity_aware=*/true, /*splits_boxes=*/true,
       /*sfc_contiguous=*/true, /*permutation_equivariant=*/false,
       /*local_view=*/true,
       [] { return std::make_unique<DistributedSfcPartitioner>(); }},
  };
  return zoo;
}

std::unique_ptr<Partitioner> make_partitioner(const std::string& id) {
  for (const ZooEntry& e : partitioner_zoo())
    if (e.id == id) return e.make();
  SSAMR_REQUIRE(false, "unknown partitioner id: " + id);
  return nullptr;
}

}  // namespace ssamr
