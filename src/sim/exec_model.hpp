#pragma once
/// \file exec_model.hpp
/// The execution-model seam of the adaptive runtime.
///
/// AdaptiveRuntime::run() decides *what* happens — sense, adopt
/// capacities, partition, migrate, advance — and an ExecutionModel decides
/// *what it costs* on the virtual cluster.  Two implementations ship:
///
///  - BspModel (bsp_model.hpp): the closed-form BSP accounting extracted
///    from the original runtime loop, bit-identical to it.  Every stage is
///    charged serially to one global clock; an iteration costs
///    max_k(compute_k + visible_comm_k).
///  - EventExecutor (event_executor.hpp): a message-level discrete-event
///    simulation with one virtual timeline per rank.  Ghost exchange and
///    migration travel as explicit point-to-point transfers through the
///    fluid network simulation (endpoint bandwidth contention), probe
///    sweeps overlap execution on a separate monitor lane, and regrids are
///    the only global barriers.
///  - ProcModel (proc_model.hpp): real forked OS processes — one per
///    rank — exchanging framed ghost/migration traffic over Unix-domain
///    sockets and reporting measured wall-clock back as normalized
///    virtual time.  Nondeterministic by construction; never golden-pinned.
///
/// All models expose the same stage interface; each stage returns the
/// virtual time it adds to the driver's global clock.

#include <memory>
#include <string>

#include "cluster/cluster.hpp"
#include "partition/partitioner.hpp"
#include "sim/executor.hpp"
#include "sim/trace.hpp"
#include "util/types.hpp"
#include "util/units.hpp"

namespace ssamr {

/// Which execution model a run uses.
enum class ExecModelKind {
  kBsp,    ///< closed-form BSP accounting (the paper's model; default)
  kEvent,  ///< message-level discrete-event simulation
  kProc,   ///< real forked rank processes over local sockets (measured)
};

/// "bsp" / "event" / "proc".
const char* exec_model_name(ExecModelKind kind);

/// Parse a model name ("bsp"/"event"/"proc"); throws ssamr::Error on
/// anything else, naming the valid spellings.
ExecModelKind parse_exec_model_name(const std::string& name);

/// Cost of one coarse-iteration advance as charged to the global clock.
struct StepCost {
  Seconds elapsed{0};  ///< global virtual-time advance
  Seconds compute{0};  ///< part attributed to computation
  Seconds comm{0};     ///< part attributed to visible communication

  bool operator==(const StepCost&) const = default;
};

/// Prices the runtime's stages on the virtual cluster.
class ExecutionModel {
 public:
  virtual ~ExecutionModel() = default;

  /// Model identifier recorded in RunTrace::model.
  virtual std::string name() const = 0;

  /// A probe sweep of duration `sweep_s` issued at global time t.  Returns
  /// the global-clock charge (BSP: sweep_s, serial; event model: 0, the
  /// sweep overlaps execution on the monitor lane).
  virtual Seconds sense(Seconds t, Seconds sweep_s, int iteration) = 0;

  /// Regrid + repartition work over `boxes` composite boxes at time t
  /// (a barrier in the event model).
  virtual Seconds regrid(Seconds t, std::size_t boxes,
                         int iteration) = 0;

  /// Data migration from `previous` to `next` ownership, starting at the
  /// pre-regrid global time t (`previous` empty = initial scatter).
  virtual Seconds migrate(const PartitionResult& previous,
                          const PartitionResult& next, Seconds t) = 0;

  /// One coarse iteration over assignment `r` starting at global time t.
  virtual StepCost advance(const PartitionResult& r, Seconds t,
                           int iteration) = 0;

  /// Fill the model-specific RunTrace extensions (rank usage, spans) once
  /// the driver loop is done; `t_end` is the final global time.  Every
  /// model make_execution_model builds keeps spans.  An EventExecutor
  /// built directly drops them: its finish() still fills rank_usage and
  /// leaves spans empty.
  virtual void finish(RunTrace& trace, Seconds t_end) = 0;

  /// The closed-form cost library both models share (memory footprints,
  /// per-rank rates, migration volumes).
  virtual const VirtualExecutor& costs() const = 0;
};

/// Build the requested model over `cluster` with cost knobs `cfg`; the
/// model records timeline spans for the Chrome-trace export.  The cluster
/// must outlive the model.
std::unique_ptr<ExecutionModel> make_execution_model(ExecModelKind kind,
                                                     const Cluster& cluster,
                                                     const ExecutorConfig& cfg);

}  // namespace ssamr
