// Tests of the proc execution model (sim/proc_model.hpp): the fork /
// Hello / phase / Shutdown lifecycle, plausible measured accounting, wire
// bytes equal to the modeled flow bytes, child reaping on normal
// destruction, a typed error when a rank dies between phases, the
// PhasePlan codec's rejection of truncated, padded and oversized
// payloads, and orphan reaping when the coordinator dies from
// SIGTERM mid-run (the PDEATHSIG path CI relies on to never hang).

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "net/proc_exit.hpp"
#include "net/sysio.hpp"
#include "net/wire.hpp"
#include "sim/executor_audit.hpp"
#include "sim/proc_model.hpp"
#include "sim/proc_protocol.hpp"
#include "util/error.hpp"
#include "util/wallclock.hpp"

namespace ssamr {
namespace {

/// Three boxes in a row, one per rank at equal capacity: face-adjacent
/// neighbours, so ghost flows are non-empty.
PartitionResult row_partition(int nranks) {
  PartitionResult r;
  for (int k = 0; k < nranks; ++k)
    r.assignments.push_back(
        {Box::from_extent(IntVec(8 * k, 0, 0), IntVec(8, 8, 8), 0),
         static_cast<rank_t>(k)});
  r.assigned_work.assign(static_cast<std::size_t>(nranks), 512.0);
  r.target_work = r.assigned_work;
  return r;
}

ExecutorConfig fast_config() {
  ExecutorConfig cfg;
  cfg.ncomp = 1;
  cfg.ghost = 1;
  // Keep phases short: ~1 virtual second of compute -> ~1 ms of sleep.
  cfg.proc.time_scale = 1e-3;
  cfg.proc.frame_timeout_s = 20.0;
  return cfg;
}

bool process_exists(pid_t pid) { return ::kill(pid, 0) == 0; }

/// True once every pid in `pids` is gone (polls up to `timeout_s`).
bool all_gone_within(const std::vector<pid_t>& pids, double timeout_s) {
  const double deadline = wallclock_seconds() + timeout_s;
  for (;;) {
    bool gone = true;
    for (const pid_t p : pids)
      if (process_exists(p)) gone = false;
    if (gone) return true;
    if (wallclock_seconds() >= deadline) return false;
    net::sleep_wall(0.01);
  }
}

TEST(ProcModel, ForksOneProcessPerRankAndReapsOnDestruction) {
  Cluster cluster = Cluster::homogeneous(3);
  std::vector<pid_t> pids;
  {
    sim::ProcModel model(cluster, fast_config());
    pids = model.child_pids();
    ASSERT_EQ(pids.size(), 3u);
    for (const pid_t p : pids) {
      EXPECT_GT(p, 0);
      EXPECT_TRUE(process_exists(p)) << "rank process died early";
    }
  }
  // Destructor returned -> every child must already be reaped (not merely
  // killed): no zombies, no orphans.
  EXPECT_TRUE(all_gone_within(pids, 1.0));
}

TEST(ProcModel, AdvanceMeasuresComputeAndExchange) {
  Cluster cluster = Cluster::homogeneous(4);
  sim::ProcModel model(cluster, fast_config());
  const PartitionResult r = row_partition(4);

  const StepCost cost = model.advance(r, Seconds{0}, 0);
  EXPECT_GT(cost.elapsed.value(), 0.0);
  EXPECT_GT(cost.compute.value(), 0.0);
  EXPECT_GE(cost.comm.value(), 0.0);
  EXPECT_GE(cost.elapsed.value(), cost.compute.value());
  // The emulated sleep puts a floor under the measured step: the critical
  // rank slept >= its modeled compute time, so the measured virtual
  // elapsed cannot be much below the modeled per-rank compute.
  const auto comp = model.costs().compute_times(r, Seconds{0});
  Seconds worst{0};
  for (const Seconds c : comp) worst = std::max(worst, c);
  EXPECT_GE(cost.elapsed.value(), 0.5 * worst.value());
  // Real bytes moved through the sockets.
  EXPECT_GT(model.wire_bytes_total(), 0u);
  EXPECT_GT(model.phase_wall_total(), 0.0);
}

TEST(ProcModel, FullStageSequenceAndTraceFinish) {
  Cluster cluster = Cluster::homogeneous(2);
  sim::ProcModel model(cluster, fast_config());
  const PartitionResult initial;  // empty previous = initial scatter
  const PartitionResult r = row_partition(2);

  Seconds t{0};
  t += model.sense(t, Seconds{0.5}, 0);
  // The seam contract (runtime.cpp stage_repartition): migration is
  // priced at the pre-regrid t and the driver adds both costs pre-summed.
  const Seconds t_regrid = model.regrid(t, r.assignments.size(), 0);
  const Seconds t_migrate = model.migrate(initial, r, t);
  t += t_regrid + t_migrate;
  for (int iter = 0; iter < 3; ++iter) t += model.advance(r, t, iter).elapsed;

  RunTrace trace;
  trace.model = model.name();
  model.finish(trace, t);
  EXPECT_EQ(trace.model, "proc");
  ASSERT_EQ(trace.rank_usage.size(), 2u);
  for (const RankUsage& u : trace.rank_usage) {
    EXPECT_GE(u.busy_s.value(), 0.0);
    EXPECT_GE(u.comm_s.value(), 0.0);
    EXPECT_GE(u.idle_s.value(), 0.0);
    // Lanes are advanced to exactly the driver clock.
    EXPECT_NEAR(u.busy_s.value() + u.comm_s.value() + u.idle_s.value(),
                t.value(), 1e-6 * t.value() + 1e-9);
  }
  EXPECT_FALSE(trace.spans.empty());
}

TEST(ProcModel, MigrationMovesScatterBytes) {
  Cluster cluster = Cluster::homogeneous(3);
  sim::ProcModel model(cluster, fast_config());
  const PartitionResult none;
  const PartitionResult r = row_partition(3);
  const Seconds cost = model.migrate(none, r, Seconds{0});
  EXPECT_GT(cost.value(), 0.0);
  // Initial scatter: rank 0 pushes boxes 1 and 2 to their owners.
  EXPECT_GT(model.wire_bytes_total(), 0u);
}

/// Bytes a phase over `flows` puts on the wire: each flow is sent once and
/// received once.
std::uint64_t wire_bytes_of(const std::vector<RankFlow>& flows) {
  std::uint64_t total = 0;
  for (const RankFlow& f : flows)
    total += 2 * static_cast<std::uint64_t>(f.bytes);
  return total;
}

// One wire byte per modeled byte: the ranks move exactly the migration
// and ghost flows the cost core prices, in both phases.
TEST(ProcModel, WireBytesEqualModeledBytes) {
  Cluster cluster = Cluster::homogeneous(3);
  sim::ProcModel model(cluster, fast_config());
  const PartitionResult none;
  const PartitionResult r = row_partition(3);

  const std::uint64_t scatter =
      wire_bytes_of(model.costs().migration_flows(none, r));
  ASSERT_GT(scatter, 0u);
  const Seconds t = model.migrate(none, r, Seconds{0});
  EXPECT_EQ(model.wire_bytes_total(), scatter);

  const std::uint64_t ghost = wire_bytes_of(model.costs().ghost_flows(r));
  ASSERT_GT(ghost, 0u);
  (void)model.advance(r, t, 0);
  EXPECT_EQ(model.wire_bytes_total(), scatter + ghost);
}

// A rank that dies between phases must end the next phase in a typed
// error, not a hang, and the destructor must still reap the whole fleet.
TEST(ProcModel, DeadRankEndsTheNextPhaseInATypedError) {
  Cluster cluster = Cluster::homogeneous(3);
  const PartitionResult r = row_partition(3);
  std::vector<pid_t> pids;
  {
    sim::ProcModel model(cluster, fast_config());
    pids = model.child_pids();
    ASSERT_EQ(pids.size(), 3u);
    const Seconds t = model.advance(r, Seconds{0}, 0).elapsed;
    ASSERT_EQ(::kill(pids[1], SIGKILL), 0);
    EXPECT_THROW(model.advance(r, t, 1), Error);
  }
  // Destructor returned -> every child is reaped, the killed one included.
  for (const pid_t p : pids)
    EXPECT_FALSE(process_exists(p)) << "rank process " << p << " unreaped";
}

TEST(ProcModel, RejectsBadOptions) {
  Cluster cluster = Cluster::homogeneous(2);
  ExecutorConfig cfg = fast_config();
  cfg.proc.time_scale = 0.0;
  EXPECT_THROW(sim::ProcModel(cluster, cfg), Error);
  cfg = fast_config();
  cfg.proc.frame_timeout_s = -1.0;
  EXPECT_THROW(sim::ProcModel(cluster, cfg), Error);
  cfg = fast_config();
  cfg.proc.time_scale = -1e-3;
  EXPECT_THROW(sim::ProcModel(cluster, cfg), Error);
  cfg = fast_config();
  cfg.proc.time_scale = std::nan("");  // NaN must not pass a > 0 gate
  EXPECT_THROW(sim::ProcModel(cluster, cfg), Error);
}

TEST(ProcModel, RejectsRankCountBeyondCap) {
  // Validation runs before any fork: a cluster past kMaxProcRanks must
  // throw without ever spawning a process.
  Cluster cluster = Cluster::homogeneous(sim::kMaxProcRanks + 1);
  EXPECT_THROW(sim::ProcModel(cluster, fast_config()), Error);
}

TEST(ValidateProcOptions, ReportsEveryBadKnobByKey) {
  ProcOptions opt;  // defaults are valid
  EXPECT_TRUE(audit::validate_proc_options(opt, 2).ok());

  opt.time_scale = std::nan("");
  opt.frame_timeout_s = 0.0;
  const audit::AuditReport r = audit::validate_proc_options(opt, 0);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("proc.time_scale"));
  EXPECT_TRUE(r.has("proc.frame_timeout"));
  EXPECT_TRUE(r.has("proc.ranks"));

  ProcOptions ok;
  EXPECT_TRUE(audit::validate_proc_options(ok, sim::kMaxProcRanks).ok());
  EXPECT_TRUE(audit::validate_proc_options(ok, sim::kMaxProcRanks + 1)
                  .has("proc.ranks"));
}

TEST(ProcOptions, ToVirtualIsTheNormalizationSeam) {
  ProcOptions opt;
  opt.time_scale = 1e-3;  // 1 ms wall == 1 virtual second
  EXPECT_DOUBLE_EQ(opt.to_virtual(2e-3).value(), 2.0);
  opt.time_scale = 1.0;
  EXPECT_DOUBLE_EQ(opt.to_virtual(0.25).value(), 0.25);
}

// ---- PhasePlan codec (sim/proc_protocol.hpp) -------------------------------

sim::PhasePlan sample_plan() {
  sim::PhasePlan p;
  p.compute_wall_s = 0.125;
  p.sends = {{1, 4096}, {3, 1ull << 40}};
  p.recvs = {{2, 64}};
  return p;
}

TEST(ProcProtocol, PhasePlanRoundTrips) {
  const sim::PhasePlan p = sample_plan();
  const std::vector<std::uint8_t> bytes = sim::encode_phase_plan(p);
  // f64 budget, two u32 counts, 12 bytes per flow.
  EXPECT_EQ(bytes.size(), 8 + 4 + 4 + 3 * sim::kWireFlowBytes);
  const sim::PhasePlan q = sim::decode_phase_plan(bytes.data(), bytes.size());
  EXPECT_EQ(q.compute_wall_s, p.compute_wall_s);
  EXPECT_EQ(q.sends, p.sends);
  EXPECT_EQ(q.recvs, p.recvs);
}

TEST(ProcProtocol, TruncatedPhasePlanThrows) {
  const std::vector<std::uint8_t> bytes = sim::encode_phase_plan(sample_plan());
  for (std::size_t cut = 0; cut < bytes.size(); ++cut)
    EXPECT_THROW(sim::decode_phase_plan(bytes.data(), cut), Error)
        << "payload cut to " << cut << " bytes";
}

TEST(ProcProtocol, TrailingBytesInPhasePlanThrow) {
  std::vector<std::uint8_t> bytes = sim::encode_phase_plan(sample_plan());
  bytes.push_back(0);
  EXPECT_THROW(sim::decode_phase_plan(bytes.data(), bytes.size()), Error);
}

TEST(ProcProtocol, CorruptFlowCountThrowsBeforeAllocating) {
  // The frame CRC covers only the header, so a payload count can be any
  // 32-bit value.  Unchecked, 0xFFFFFFFF sends would ask this rank for
  // 64 GiB; the decoder must refuse it from the 16 bytes actually present.
  for (const bool in_sends : {true, false}) {
    net::WireWriter w;
    w.f64(0.0);
    w.u32(in_sends ? 0xFFFFFFFFu : 0u);
    w.u32(in_sends ? 0u : 0xFFFFFFFFu);
    EXPECT_THROW(sim::decode_phase_plan(w.bytes().data(), w.bytes().size()),
                 Error)
        << (in_sends ? "sends" : "recvs");
  }
}

// The CI-critical guarantee: if the coordinator dies without running the
// destructor (SIGTERM mid-run), the rank processes must die with it via
// PR_SET_PDEATHSIG — no orphans for the smoke job to leak.
TEST(ProcModel, SigtermOnCoordinatorReapsRankProcesses) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);

  const pid_t driver = ::fork();
  ASSERT_GE(driver, 0);
  if (driver == 0) {
    // ---- driver: a stand-in coordinator that will be SIGTERMed.
    ::close(fds[0]);
    try {
      Cluster cluster = Cluster::homogeneous(3);
      sim::ProcModel model(cluster, fast_config());
      const std::vector<pid_t>& pids = model.child_pids();
      for (const pid_t p : pids) {
        const std::int64_t v = p;
        if (::write(fds[1], &v, sizeof v) != sizeof v)
          net::hard_exit(1);
      }
      // Park forever mid-"run"; SIGTERM's default disposition kills us
      // without unwinding, so ~ProcModel never runs.
      for (;;) ::pause();
    } catch (...) {
      net::hard_exit(1);
    }
  }
  // ---- test process
  ::close(fds[1]);
  std::vector<pid_t> grandchildren;
  for (int i = 0; i < 3; ++i) {
    std::int64_t v = 0;
    ASSERT_EQ(::read(fds[0], &v, sizeof v), static_cast<ssize_t>(sizeof v));
    grandchildren.push_back(static_cast<pid_t>(v));
  }
  ::close(fds[0]);
  for (const pid_t p : grandchildren) EXPECT_TRUE(process_exists(p));

  ASSERT_EQ(::kill(driver, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(driver, &status, 0), driver);
  EXPECT_TRUE(WIFSIGNALED(status));

  // PDEATHSIG delivers SIGKILL to every rank process; init reaps them.
  EXPECT_TRUE(all_gone_within(grandchildren, 5.0))
      << "rank processes outlived a SIGTERMed coordinator";
}

}  // namespace
}  // namespace ssamr
