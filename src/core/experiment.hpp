#pragma once
/// \file experiment.hpp
/// Shared experiment setups for the paper's evaluation (§6).
///
/// Every bench binary (bench/) and several integration tests build their
/// scenarios through these helpers so that cluster configurations, load
/// scripts and runtime parameters stay consistent with the descriptions in
/// EXPERIMENTS.md.

#include <limits>
#include <string>
#include <vector>

#include "core/ssamr.hpp"

namespace ssamr::exp {

/// Validated integer environment knob: parse `$name` as a base-10 integer
/// and return it when the whole string parses and the value lies in
/// [min_value, max_value]; otherwise return `fallback` (unset, empty,
/// trailing garbage, and out-of-range values all fall back — an operator
/// typo must never smuggle a zero or negative count into a driver).
int env_int(const char* name, int fallback, int min_value,
            int max_value = std::numeric_limits<int>::max());

/// Validated floating-point environment knob; same fallback-on-garbage
/// contract as env_int (NaN never passes the range check).
real_t env_real(const char* name, real_t fallback, real_t min_value,
                real_t max_value);

/// Path for a generated result file: `$SSAMR_RESULTS_DIR/filename`
/// (default directory `results/`, created on demand).  Keeps generated
/// CSVs out of the repo root; the golden-file regression tests point
/// SSAMR_RESULTS_DIR at a scratch directory.
std::string results_path(const std::string& filename);

/// Iteration count for an experiment driver: `$SSAMR_EXP_ITERS` when it
/// is a positive int (the golden regression tests run the drivers at a
/// small trial count), otherwise `default_iters` (the paper-scale run).
int run_iterations(int default_iters);

/// The paper's application scale: 128×32×32 base mesh, 3 levels of
/// factor-2 refinement, regrid every 5 iterations.
TraceConfig paper_trace_config();

/// Fixed reference capacities of the 4-processor experiments
/// (≈ 16 %, 19 %, 31 %, 34 % — Figs. 8–10).
std::vector<real_t> reference_capacities4();

/// A cluster of n identical nodes (paper hardware: Linux boxes on
/// 100 Mbit Fast Ethernet).
Cluster paper_cluster(int n);

/// Load a cluster the way §6.1.3 describes: synthetic generators on a
/// subset of nodes, producing relative capacities ≈ reference_capacities4()
/// on 4 nodes (and the analogous pattern, repeated, on larger clusters).
/// Loads are constant in time (ramps complete before t=0 effectively).
void apply_static_loads(Cluster& cluster);

/// Load scripts with strong dynamics for the sensing experiments
/// (Fig. 11, Tables II & III): generators start/stop at different virtual
/// times on two of every four nodes.
void apply_dynamic_loads(Cluster& cluster, real_t timescale_s);

/// The fault plan of a run at per-attempt probe failure rate `rate`
/// (ablation_faults and the matrix's `fault` family): the empty plan when
/// rate <= 0, else FaultPlan::scripted over `nodes` nodes and `horizon_s`
/// virtual seconds.  SSAMR_FAULT_TIMEOUT_FRACTION (default 0.5) splits the
/// rate into timeouts and fast drops, SSAMR_FAULT_STALE_WINDOWS (2) and
/// SSAMR_FAULT_CRASHES (1) size the script, and SSAMR_FAULT_SEED (1724)
/// seeds it.
FaultPlan fault_plan(real_t rate, int nodes, real_t horizon_s);

/// The scale sweep's cluster (exp_scale; EXPERIMENTS.md, scale sweep):
/// node peak rates repeat the multipliers 1, 0.75, 1.5, 1.25.
Cluster scale_cluster(int nprocs);

/// The scale sweep's workload: four 8³ level-0 boxes per rank on a
/// cube-ish lattice, every eighth box carrying a half-depth level-1 child.
/// Linear in P, fixed per-rank shape.
BoxList scale_lattice(int nprocs);

/// The scale sweep's relative capacities: each node's peak-rate multiplier
/// (as in scale_cluster) with a ±10 % jitter from a fixed seed,
/// normalized.  The t = 0 Eq. 1 capacities would be uniform, since Eq. 1
/// does not sense peak rate.
std::vector<real_t> scale_capacities(int nprocs);

/// Baseline runtime configuration of the paper runs, under the BSP model
/// (which reproduces the golden CSVs bit-for-bit); a driver running
/// another model sets `exec_model` itself.
/// \param iterations total coarse iterations
/// \param sensing_interval iterations between probes (0 = sense once)
RuntimeConfig paper_runtime_config(int iterations, int sensing_interval);

/// The execution model a driver's command line asks for: the last
/// `--exec-model=bsp|event|proc` argument wins, else the SSAMR_EXEC_MODEL
/// environment variable, else `fallback`.  Stores nothing; drivers pass
/// the result to the runs they start.
ExecModelKind select_exec_model(int argc, char** argv,
                                ExecModelKind fallback = ExecModelKind::kBsp);

/// When $SSAMR_TRACE_JSON names a file, export `trace` there as Chrome
/// trace-event JSON (load it in chrome://tracing or ui.perfetto.dev).
/// Returns the path written, or empty when the variable is unset.
std::string maybe_export_trace(const RunTrace& trace);

/// Outcome of running both partitioners on identical setups.
struct Comparison {
  RunTrace system_sensitive;
  RunTrace grace_default;
  /// (T_default − T_system) / T_default, as a fraction.
  real_t improvement() const;
};

/// Run the default and the system-sensitive partitioner under identical
/// statically loaded cluster and workload conditions (fresh, deterministic
/// state per run) on execution model `model`.
Comparison compare_partitioners(int nprocs, int iterations,
                                int sensing_interval, ExecModelKind model);

/// One run of the system-sensitive partitioner under the dynamic load
/// script with timescale `tau` (fresh deterministic state) on execution
/// model `model`.
RunTrace run_dynamic_het(int nprocs, int iterations, int sensing_interval,
                         real_t tau, ExecModelKind model);

/// Fixed-point calibration of the dynamic-load timescale on execution
/// model `model`: three passes that each set τ to 0.95 of the previous
/// run's duration, so the scripted load events span the actual run.  The
/// returned τ is then reused across the runs being compared, so every
/// configuration faces the *same* load dynamics (paper §6.2.3: "The
/// synthetic load dynamics are the same in each case").
real_t calibrate_timescale(int nprocs, int iterations, int sensing_interval,
                           ExecModelKind model);

}  // namespace ssamr::exp
