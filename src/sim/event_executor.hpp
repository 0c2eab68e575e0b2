#pragma once
/// \file event_executor.hpp
/// Message-level discrete-event execution model with per-rank timelines.
///
/// Where the BSP model charges max_k(compute + comm) to one global clock,
/// this model gives every rank its own virtual timeline and routes ghost
/// exchange and migration as explicit point-to-point transfers through the
/// fluid network simulation (message_sim.hpp), so three effects the
/// closed form cannot express become visible:
///
///  - endpoint contention: a rank's concurrent transfers share its
///    deliverable bandwidth instead of each seeing the full link;
///  - overlap: a rank posts its ghost sends when its compute span ends and
///    only waits for the messages it actually needs — communication hides
///    behind *other ranks'* still-running compute, and fast ranks start
///    the next iteration early instead of idling at a per-step barrier;
///  - sensing overlap: probe sweeps run on a separate monitor lane
///    concurrently with execution instead of being charged serially.
///
/// Regrid/repartition events are the only global barriers; barrier waits
/// surface as per-rank idle time in RunTrace::rank_usage.
///
/// Drivers that step an executor directly (exp_scale, perfbench's
/// scale-event) read stage times and events_processed(), never the span
/// log, so an executor built with the two-argument constructor records
/// usage only.  make_execution_model builds one that keeps spans for
/// AdaptiveRuntime's Chrome-trace export.

#include <cstddef>
#include <vector>

#include "sim/event.hpp"
#include "sim/exec_model.hpp"
#include "sim/message_sim.hpp"
#include "sim/timeline.hpp"

namespace ssamr::sim {

class EventExecutor final : public ExecutionModel {
 public:
  /// `log` chooses whether finish() also returns the span log; the
  /// default keeps usage only, whose memory does not grow with the run.
  EventExecutor(const Cluster& cluster, const ExecutorConfig& cfg,
                SpanLog log = SpanLog::kDrop);

  std::string name() const override { return "event"; }
  Seconds sense(Seconds t, Seconds sweep_s, int iteration) override;
  Seconds regrid(Seconds t, std::size_t boxes, int iteration) override;
  Seconds migrate(const PartitionResult& previous, const PartitionResult& next,
                  Seconds t) override;
  StepCost advance(const PartitionResult& r, Seconds t,
                   int iteration) override;
  void finish(RunTrace& trace, Seconds t_end) override;
  const VirtualExecutor& costs() const override { return exec_; }

  /// Discrete network events processed so far (one admission + one
  /// completion per transfer that entered the fluid simulation).
  std::size_t events_processed() const { return events_; }

 private:
  /// Run `transfers` through the fluid network at the time-t bandwidths
  /// of the cost core on the reused workspace, accumulating events_.
  void run_network(std::vector<Transfer>& transfers, Seconds t);

  const Cluster& cluster_;
  VirtualExecutor exec_;
  LaneSet lanes_;
  std::size_t events_ = 0;
  // Simulation scratch, reused across advance()/migrate() calls: at
  // P = 16384 one network step churns ~40 MB of simulator state, and
  // re-allocating it every iteration costs as much as a tenth of the
  // simulation itself in page faults alone.
  SimWorkspace net_ws_;
  std::vector<Transfer> transfer_buf_;
};

}  // namespace ssamr::sim
