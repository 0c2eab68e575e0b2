#include "core/experiment.hpp"

#include <cstdlib>
#include <filesystem>
#include <iterator>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace ssamr::exp {

int env_int(const char* name, int fallback, int min_value, int max_value) {
  SSAMR_REQUIRE(min_value <= max_value, "env_int: empty valid range");
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0') return fallback;
  if (parsed < static_cast<long>(min_value) ||
      parsed > static_cast<long>(max_value))
    return fallback;
  return static_cast<int>(parsed);
}

real_t env_real(const char* name, real_t fallback, real_t min_value,
                real_t max_value) {
  SSAMR_REQUIRE(min_value <= max_value, "env_real: empty valid range");
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || *end != '\0') return fallback;
  // Written so NaN fails: !(lo <= x && x <= hi), not (x < lo || x > hi).
  if (!(parsed >= min_value && parsed <= max_value)) return fallback;
  return static_cast<real_t>(parsed);
}

std::string results_path(const std::string& filename) {
  namespace fs = std::filesystem;
  const char* env = std::getenv("SSAMR_RESULTS_DIR");
  const fs::path dir = (env != nullptr && *env != '\0') ? fs::path(env)
                                                        : fs::path("results");
  std::error_code ec;
  // Best-effort: when the directory cannot be made, the CsvWriter that
  // opens the returned path throws, naming it.
  fs::create_directories(dir, ec);
  return (dir / filename).string();
}

int run_iterations(int default_iters) {
  return env_int("SSAMR_EXP_ITERS", default_iters, 1);
}

TraceConfig paper_trace_config() {
  TraceConfig cfg;
  cfg.domain = Box::from_extent(IntVec(0, 0, 0), IntVec(128, 32, 32), 0);
  cfg.max_levels = 4;  // base + 3 levels of factor-2 refinement
  cfg.interface_x0 = 0.25;
  cfg.speed = 0.03;
  cfg.amplitude0 = 0.5;
  cfg.growth = 0.12;
  cfg.max_amplitude = 2.0;
  cfg.waves_y = 2;
  cfg.waves_z = 1;
  cfg.band_halfwidth = 2.0;
  // Clustering tuned for realistic box counts (tens to low hundreds):
  // modest fill efficiency and a coarse acceptance size keep the wavy
  // interface from fragmenting into thousands of slivers.
  cfg.cluster.efficiency = 0.55;
  cfg.cluster.min_box_size = 8;
  cfg.cluster.small_box_cells = 4096;
  return cfg;
}

std::vector<real_t> reference_capacities4() {
  return {0.16, 0.19, 0.31, 0.34};
}

Cluster paper_cluster(int n) {
  NodeSpec spec;
  spec.name = "linux";
  spec.peak_rate = WorkRate{4.2e6};  // cell updates per second
  spec.memory_mb = MegaBytes{256.0};
  spec.bandwidth_mbps = MbitsPerSec{100.0};  // Fast Ethernet
  return Cluster::homogeneous(n, spec);
}

void apply_static_loads(Cluster& cluster) {
  // §6.2.1 setup: the synthetic load generator keeps a subset of the
  // machines busy for the whole run.  The paper does not report its load
  // levels per configuration; we model a shared cluster whose background
  // load grows with its size (small partitions borrow lightly loaded
  // nodes, large ones inevitably include busy ones), which reproduces the
  // reported trend of the improvement growing with the processor count.
  SSAMR_REQUIRE(cluster.size() >= 2, "need at least two nodes");
  auto steady = [](real_t level, real_t memory, real_t traffic) {
    LoadRamp r;
    r.start_time = Seconds{-1.0};  // already at level when the run starts
    r.rate = 1.0e9;
    r.target_level = level;
    r.memory_mb = MegaBytes{memory};
    r.traffic_mbps = MbitsPerSec{traffic};
    return r;
  };
  const int n = cluster.size();
  if (n <= 8) {
    cluster.add_load(0, steady(0.55, 80.0, 26.0));  // cpu_avail ≈ 0.65
    cluster.add_load(1, steady(0.25, 45.0, 13.0));  // cpu_avail = 0.80
  } else {
    cluster.add_load(0, steady(1.10, 118.0, 42.0));  // cpu_avail ≈ 0.48
    cluster.add_load(1, steady(0.50, 70.0, 25.0));  // cpu_avail ≈ 0.67
    // Every further group of 8 nodes contributes one moderately busy node,
    // and every group of 16 one heavily loaded node.
    for (rank_t r = 8; r < n; r += 8)
      cluster.add_load(r, steady(0.30, 40.0, 12.0));  // cpu_avail ≈ 0.77
    for (rank_t r = 16; r < n; r += 16)
      cluster.add_load(r, steady(1.10, 110.0, 40.0));  // cpu_avail ≈ 0.48
  }
}

void apply_dynamic_loads(Cluster& cluster, real_t timescale_s) {
  SSAMR_REQUIRE(cluster.size() >= 2, "need at least two nodes");
  SSAMR_REQUIRE(timescale_s > 0, "timescale must be positive");
  const real_t tau = timescale_s;

  // The generators consume CPU and memory and inject network traffic, so
  // all three Eq. 1 resource columns track the disturbance.  Two long
  // plateaus (heavy on node 0, then moderate on node 1) plus a light late
  // generator create the paper's "interesting load dynamics": a sensing
  // scheme reacting within a few regrids captures nearly the whole
  // benefit, while sensing only once misses all of it.
  // Node 0: a heavy generator ramps up slowly (the paper's generators
  // "increased linearly at a specified rate until [reaching] the desired
  // load level") and exits past mid-run.
  {
    LoadRamp r;
    r.start_time = Seconds{0.05 * tau};
    r.stop_time = Seconds{0.55 * tau};
    r.rate = 4.5 / (0.20 * tau);  // reaches level 4.5 in 0.20 τ
    r.target_level = 4.5;
    r.memory_mb = MegaBytes{185.0};
    r.traffic_mbps = MbitsPerSec{80.0};
    cluster.add_load(0, r);
  }
  // Node 1: a moderate generator ramps through the second half and stays.
  {
    LoadRamp r;
    r.start_time = Seconds{0.55 * tau};
    r.rate = 2.6 / (0.18 * tau);
    r.target_level = 2.6;
    r.memory_mb = MegaBytes{150.0};
    r.traffic_mbps = MbitsPerSec{58.0};
    cluster.add_load(1, r);
  }
  // Node 0 again: a second, lighter generator late in the run ("multiple
  // load generators were run on a processor to create interesting load
  // dynamics").
  {
    LoadRamp r;
    r.start_time = Seconds{0.85 * tau};
    r.rate = 0.6 / (0.05 * tau);
    r.target_level = 0.6;
    r.memory_mb = MegaBytes{40.0};
    r.traffic_mbps = MbitsPerSec{15.0};
    cluster.add_load(0, r);
  }
}

FaultPlan fault_plan(real_t rate, int nodes, real_t horizon_s) {
  if (rate <= 0) return FaultPlan{};
  const real_t timeout_frac =
      env_real("SSAMR_FAULT_TIMEOUT_FRACTION", 0.5, 0.0, 1.0);
  FaultProfile profile;
  profile.probe_timeout_rate = rate * timeout_frac;
  profile.probe_drop_rate = rate * (1.0 - timeout_frac);
  profile.stale_windows = env_int("SSAMR_FAULT_STALE_WINDOWS", 2, 0);
  profile.crash_episodes = env_int("SSAMR_FAULT_CRASHES", 1, 0);
  return FaultPlan::scripted(
      nodes, Seconds{horizon_s}, profile,
      static_cast<std::uint64_t>(env_int("SSAMR_FAULT_SEED", 1724, 0)));
}

namespace {

/// Peak-rate multipliers of the scale sweep's nodes, repeating every four
/// ranks.
constexpr real_t kScaleMultipliers[] = {1.0, 0.75, 1.5, 1.25};

}  // namespace

Cluster scale_cluster(int nprocs) {
  return Cluster::heterogeneous(
      nprocs, {std::begin(kScaleMultipliers), std::end(kScaleMultipliers)});
}

BoxList scale_lattice(int nprocs) {
  const std::int64_t nboxes = 4 * static_cast<std::int64_t>(nprocs);
  coord_t side = 1;
  while (static_cast<std::int64_t>(side) * side * side < nboxes) ++side;
  BoxList boxes;
  std::int64_t placed = 0;
  for (coord_t k = 0; k < side && placed < nboxes; ++k)
    for (coord_t j = 0; j < side && placed < nboxes; ++j)
      for (coord_t i = 0; i < side && placed < nboxes; ++i) {
        boxes.push_back(Box::from_extent(IntVec(i * 8, j * 8, k * 8),
                                         IntVec(8, 8, 8), 0));
        if (placed % 8 == 0)
          boxes.push_back(Box::from_extent(
              IntVec(i * 16, j * 16, k * 16), IntVec(8, 8, 4), 1));
        ++placed;
      }
  return boxes;
}

std::vector<real_t> scale_capacities(int nprocs) {
  Rng rng(0x5ca1e);
  std::vector<real_t> caps(static_cast<std::size_t>(nprocs));
  real_t sum = 0;
  for (std::size_t k = 0; k < caps.size(); ++k) {
    caps[k] = kScaleMultipliers[k % 4] * rng.uniform(0.9, 1.1);
    sum += caps[k];
  }
  for (real_t& c : caps) c /= sum;
  return caps;
}

ExecModelKind select_exec_model(int argc, char** argv,
                                ExecModelKind fallback) {
  const std::string flag = "--exec-model=";
  for (int i = argc - 1; i >= 1; --i) {
    const std::string arg = argv[i];
    if (arg.rfind(flag, 0) == 0)
      return parse_exec_model_name(arg.substr(flag.size()));
  }
  if (const char* env = std::getenv("SSAMR_EXEC_MODEL");
      env != nullptr && *env != '\0')
    return parse_exec_model_name(env);
  return fallback;
}

std::string maybe_export_trace(const RunTrace& trace) {
  const char* env = std::getenv("SSAMR_TRACE_JSON");
  if (env == nullptr || *env == '\0') return {};
  sim::write_chrome_trace_file(env, trace);
  return env;
}

RuntimeConfig paper_runtime_config(int iterations, int sensing_interval) {
  RuntimeConfig cfg;
  cfg.total_iterations = iterations;
  cfg.regrid_interval = 5;
  cfg.sensing.interval = sensing_interval;
  cfg.weights = CapacityWeights::equal();
  cfg.monitor.probe_cost_s = Seconds{1.0};
  cfg.monitor.noise.cpu_sigma = 0.05;
  cfg.monitor.noise.memory_sigma = 0.02;
  cfg.monitor.noise.bandwidth_sigma = 0.08;
  cfg.monitor.seed = 2001;
  cfg.executor.ncomp = 5;
  cfg.executor.ghost = 1;  // first-order Rusanov stencil
  cfg.executor.comm_overlap = Fraction{0.8};
  return cfg;
}

real_t Comparison::improvement() const {
  if (grace_default.total_time <= Seconds{0}) return 0;
  return (grace_default.total_time - system_sensitive.total_time) /
         grace_default.total_time;
}

Comparison compare_partitioners(int nprocs, int iterations,
                                int sensing_interval, ExecModelKind model) {
  Comparison out;
  RuntimeConfig cfg = paper_runtime_config(iterations, sensing_interval);
  cfg.exec_model = model;

  auto run_one = [&](const Partitioner& p) {
    Cluster cluster = paper_cluster(nprocs);
    apply_static_loads(cluster);
    TraceWorkloadSource source(paper_trace_config());
    AdaptiveRuntime runtime(cluster, source, p, cfg);
    return runtime.run();
  };

  HeterogeneousPartitioner het;
  GraceDefaultPartitioner def;
  out.system_sensitive = run_one(het);
  out.grace_default = run_one(def);
  return out;
}

RunTrace run_dynamic_het(int nprocs, int iterations, int sensing_interval,
                         real_t tau, ExecModelKind model) {
  Cluster cluster = paper_cluster(nprocs);
  apply_dynamic_loads(cluster, tau);
  TraceWorkloadSource source(paper_trace_config());
  HeterogeneousPartitioner het;
  RuntimeConfig cfg = paper_runtime_config(iterations, sensing_interval);
  cfg.exec_model = model;
  AdaptiveRuntime runtime(cluster, source, het, cfg);
  return runtime.run();
}

real_t calibrate_timescale(int nprocs, int iterations, int sensing_interval,
                           ExecModelKind model) {
  real_t tau = 300.0;
  for (int pass = 0; pass < 3; ++pass) {
    const RunTrace t =
        run_dynamic_het(nprocs, iterations, sensing_interval, tau, model);
    tau = 0.95 * t.total_time.value();
  }
  return tau;
}

}  // namespace ssamr::exp
