#pragma once
/// \file workloads.hpp
/// The benchmark's workloads behind one interface.
///
/// A workload turns (seed, op index) into library inputs and runs one op
/// on them.  The inputs of op i depend only on (seed, i), so a run's op
/// list is fixed by the seed and the op count, never by elapsed time: two
/// commits given the same arguments do identical work.  Ops are
/// stratified in blocks — every block visits each stratum (cluster size ×
/// sensing interval, or particle band) once — so any whole number of
/// blocks has the same mix whatever the seed.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "tracer.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// Outcome of one op.
struct OpResult {
  std::int64_t iters = 0;     ///< coarse iterations simulated
  std::vector<double> digest; ///< compared with the committed reference
  std::string error;          ///< empty when every check passed
};

/// One workload: constructing it builds and warms its fixtures (that is
/// the benchmark's set-up); ops then run by index.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Stratification block: op i belongs to stratum i % block().
  virtual int block() const = 0;
  /// Run op `index` (>= 0).  `tracer` null = untraced; otherwise
  /// `op_span` is the op's root span.
  virtual OpResult run_op(int index, Tracer* tracer, int op_span) = 0;
};

/// Static description of a workload.
struct WorkloadSpec {
  const char* name;
  /// Pool size the workload always runs at (never the ambient count).
  int threads;
  /// Host seconds per op at the reference commit; with --seconds it sizes
  /// the op list (see op_count).
  double nominal_op_s;
  std::unique_ptr<Workload> (*make)(std::uint64_t seed);
};

/// Every workload, in a fixed order.
const std::vector<WorkloadSpec>& workload_specs();

/// Number of ops for a run of nominally `seconds`: whole blocks only, at
/// least `min_blocks`.
int op_count(const WorkloadSpec& spec, int block, double seconds,
             int min_blocks);

/// Generator for op `index` of a run seeded with `seed`.
ssamr::Rng op_rng(std::uint64_t seed, int index);

/// Generator of the warm-up op that ends every set-up.  It ignores the
/// run's seed, so set-up does the same work whatever the seed.
ssamr::Rng warmup_rng();

/// The paper's RM3D trace with a seeded interface (position, speed,
/// growth) and `waves_y` transverse waves (1-3; the strongest cost knob,
/// so workloads stratify it).
ssamr::TraceConfig perturbed_trace(ssamr::Rng& rng, int waves_y);

/// One AdaptiveRuntime::run.  With a tracer the source and partitioner
/// are wrapped in the timing decorators and run() gets a `runtime.run`
/// span caused by `parent`; `scenario` names the trace configuration.
ssamr::RunTrace run_adaptive(ssamr::Cluster& cluster,
                             ssamr::WorkloadSource& source,
                             const ssamr::Partitioner& partitioner,
                             const ssamr::RuntimeConfig& cfg, Tracer* tracer,
                             int parent, int op, int scenario);

/// Fold one run into `out`: counts its iterations, appends its digest
/// (virtual total time, rank-weighted sum of every regrid's assigned
/// work, total splits) and records the first failed invariant (iteration
/// count, rank count, work conservation, finite positive time).
void digest_run(const ssamr::RunTrace& trace, int nranks, int iterations,
                OpResult& out);

std::unique_ptr<Workload> make_paper_sensing(std::uint64_t seed);
std::unique_ptr<Workload> make_particle_zoo(std::uint64_t seed);
std::unique_ptr<Workload> make_scale_event(std::uint64_t seed);

}  // namespace perfbench
