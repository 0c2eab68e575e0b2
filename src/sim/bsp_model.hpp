#pragma once
/// \file bsp_model.hpp
/// The closed-form BSP execution model.
///
/// This is the original runtime accounting (DESIGN.md §2) extracted behind
/// the ExecutionModel seam, arithmetic-for-arithmetic: every stage is
/// charged serially to one global clock and an iteration costs
/// max_k(compute_k + (1 − overlap) · comm_k).  Runs under this model are
/// bit-identical to the pre-seam runtime — the determinism suite and the
/// golden-file regressions pin that down.
///
/// Beyond the original it also fills the per-rank busy/comm/idle usage and
/// illustrative timeline spans (the BSP view: all ranks advance in
/// lockstep, the slack of non-critical ranks shows up as idle).

#include "sim/exec_model.hpp"
#include "sim/timeline.hpp"

namespace ssamr::sim {

class BspModel final : public ExecutionModel {
 public:
  BspModel(const Cluster& cluster, const ExecutorConfig& cfg);

  std::string name() const override { return "bsp"; }
  Seconds sense(Seconds t, Seconds sweep_s, int iteration) override;
  Seconds regrid(Seconds t, std::size_t boxes, int iteration) override;
  Seconds migrate(const PartitionResult& previous, const PartitionResult& next,
                  Seconds t) override;
  StepCost advance(const PartitionResult& r, Seconds t,
                   int iteration) override;
  void finish(RunTrace& trace, Seconds t_end) override;
  const VirtualExecutor& costs() const override { return exec_; }

 private:
  VirtualExecutor exec_;
  LaneSet lanes_;
};

}  // namespace ssamr::sim
