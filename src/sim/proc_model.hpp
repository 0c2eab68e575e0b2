#pragma once
/// \file proc_model.hpp
/// The proc execution model: real forked rank processes (DESIGN.md §12).
///
/// Where BspModel and EventExecutor *price* a run on virtual clocks, the
/// ProcModel *executes* it: the constructor forks one OS process per rank,
/// wired to the coordinator by an AF_UNIX control socketpair and to every
/// peer by an AF_UNIX data socketpair.  Each advance/migrate stage becomes
/// a real phase — the coordinator ships a PhasePlan frame per rank (compute
/// budget and exact per-peer byte counts, both priced by the shared cost
/// core; one wire byte per modeled byte), ranks emulate compute with
/// nanosleep and move the planned bytes through a nonblocking exchange
/// engine, and the measured wall-clock comes back as PhaseReport frames.
///
/// Measured wall time is normalized by ProcOptions::time_scale back into
/// virtual seconds so the stage interface, RankTimeline lanes and
/// Chrome-trace output stay directly comparable with the other models —
/// but the numbers are real measurements, so traces and CSVs from this
/// model are inherently nondeterministic and never golden-pinned.
///
/// Rank lifecycle: fork (PDEATHSIG=SIGKILL armed first, so a dying
/// coordinator can never leak children) → Hello → phase loop → Shutdown →
/// waitpid.  The destructor escalates politely: Shutdown frames, a grace
/// window of WNOHANG reaping, SIGKILL for stragglers, then a blocking reap
/// — it never returns with a child unreaped.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "sim/exec_model.hpp"
#include "sim/proc_protocol.hpp"
#include "sim/timeline.hpp"

namespace ssamr::sim {

/// Upper bound on forked ranks: the coordinator holds P control sockets
/// plus P·(P−1)/2 data-socket parent ends until fork time, so fd usage is
/// quadratic in P; 64 ranks ≈ 4 k fds, the conventional rlimit.
inline constexpr int kMaxProcRanks = 64;

class ProcModel final : public ExecutionModel {
 public:
  /// Forks cluster.size() rank processes.  Must run before the process
  /// creates any threads (fork() only carries the calling thread into the
  /// child); drivers therefore run the proc model before anything that
  /// touches ThreadPool::global().
  ProcModel(const Cluster& cluster, const ExecutorConfig& cfg);
  ~ProcModel() override;

  ProcModel(const ProcModel&) = delete;
  ProcModel& operator=(const ProcModel&) = delete;

  std::string name() const override { return "proc"; }
  Seconds sense(Seconds t, Seconds sweep_s, int iteration) override;
  Seconds regrid(Seconds t, std::size_t boxes, int iteration) override;
  Seconds migrate(const PartitionResult& previous,
                  const PartitionResult& next, Seconds t) override;
  StepCost advance(const PartitionResult& r, Seconds t,
                   int iteration) override;
  void finish(RunTrace& trace, Seconds t_end) override;
  const VirtualExecutor& costs() const override { return exec_; }

  /// Live child pids, rank-ordered (test access: reap verification).
  const std::vector<pid_t>& child_pids() const { return pids_; }

  /// Cumulative wire payload bytes moved by all ranks (both directions).
  std::uint64_t wire_bytes_total() const { return wire_bytes_total_; }

  /// Cumulative coordinator-side wall seconds spent inside phases.
  double phase_wall_total() const { return phase_wall_total_; }

 private:
  /// Ship one plan per rank, collect one report per rank; returns the
  /// coordinator-side wall window of the whole phase in `window_wall_s`.
  std::vector<PhaseReport> run_phase(const std::vector<PhasePlan>& plans,
                                     double* window_wall_s);

  void shutdown_children() noexcept;

  const Cluster& cluster_;
  VirtualExecutor exec_;
  ProcOptions opt_;
  LaneSet lanes_;

  std::vector<pid_t> pids_;
  std::vector<int> ctrl_fds_;  ///< coordinator end, per rank
  std::vector<net::FrameDecoder> ctrl_decoders_;

  std::uint64_t wire_bytes_total_ = 0;
  double phase_wall_total_ = 0;
};

}  // namespace ssamr::sim
