#include "sim/proc_model.hpp"

#include <errno.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "net/proc_exit.hpp"
#include "net/socket.hpp"
#include "net/sysio.hpp"
#include "partition/metrics.hpp"
#include "sim/executor_audit.hpp"
#include "sim/proc_rank.hpp"
#include "util/error.hpp"
#include "util/wallclock.hpp"

namespace ssamr::sim {
namespace {

/// Index of the (i, j) data pair, i < j, in a flat triangular array.
std::size_t pair_index(int i, int j, int n) {
  // Row-major upper triangle: offset of row i plus the column within it.
  const auto ii = static_cast<std::size_t>(i);
  const auto jj = static_cast<std::size_t>(j);
  const auto nn = static_cast<std::size_t>(n);
  return ii * nn - ii * (ii + 1) / 2 + (jj - ii - 1);
}

void sleep_ms(int ms) {
  struct timespec ts;
  ts.tv_sec = 0;
  ts.tv_nsec = static_cast<long>(std::clamp(ms, 0, 999)) * 1'000'000L;
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

[[noreturn]] void io_fail(const char* stage, int rank, net::IoStatus st) {
  const char* what = "error";
  switch (st) {
    case net::IoStatus::kClosed: what = "peer closed"; break;
    case net::IoStatus::kTimeout: what = "deadline expired"; break;
    case net::IoStatus::kProtocol: what = "framing error"; break;
    default: break;
  }
  throw Error(std::string("proc: ") + stage + " with rank " +
              std::to_string(rank) + " failed: " + what);
}

/// Add `flows` to the per-rank phase plans as wire traffic of
/// `bytes_scale` wire bytes per modeled byte; a flow that scales to zero
/// bytes is dropped.
void plan_wire_flows(std::vector<PhasePlan>& plans,
                     const std::vector<RankFlow>& flows, double bytes_scale) {
  for (const RankFlow& f : flows) {
    const double scaled = static_cast<double>(f.bytes) * bytes_scale;
    const auto wire =
        static_cast<std::uint64_t>(std::clamp(scaled, 0.0, 1.0e15));
    if (wire == 0) continue;
    plans[static_cast<std::size_t>(f.src)].sends.push_back(
        WireFlow{f.dst, wire});
    plans[static_cast<std::size_t>(f.dst)].recvs.push_back(
        WireFlow{f.src, wire});
  }
}

}  // namespace

ProcModel::ProcModel(const Cluster& cluster, const ExecutorConfig& cfg)
    : cluster_(cluster),
      exec_(cluster, cfg),
      opt_(cfg.proc),
      lanes_(cluster.size(), SpanLog::kKeep) {
  const int n = cluster.size();
  const audit::AuditReport report = audit::validate_proc_options(opt_, n);
  SSAMR_REQUIRE(report.ok(), report.summary());

  // All sockets exist before the first fork, so every child inherits the
  // full set and keeps only its own ends.
  std::vector<net::StreamPair> ctrl;
  std::vector<net::StreamPair> data;
  ctrl.reserve(static_cast<std::size_t>(n));
  data.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (int k = 0; k < n; ++k) ctrl.push_back(net::make_stream_pair(opt_.use_tcp));
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      data.push_back(net::make_stream_pair(opt_.use_tcp));

  const pid_t coordinator = ::getpid();
  pids_.assign(static_cast<std::size_t>(n), -1);
  ctrl_fds_.assign(static_cast<std::size_t>(n), -1);
  ctrl_decoders_.resize(static_cast<std::size_t>(n));

  for (int k = 0; k < n; ++k) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      // Partial fleet: tear down what exists, then fail the constructor.
      for (const net::StreamPair& p : ctrl) {
        net::close_fd(p.a);
        net::close_fd(p.b);
      }
      for (const net::StreamPair& p : data) {
        net::close_fd(p.a);
        net::close_fd(p.b);
      }
      for (int& fd : ctrl_fds_) fd = -1;  // ends closed just above
      shutdown_children();
      throw Error("proc: fork failed for rank " + std::to_string(k));
    }
    if (pid == 0) {
      // ---- child: rank k.  No heap-allocating library calls between here
      // and run_rank_process beyond building the endpoint table; every
      // failure path is hard_exit, never a return into the parent's stack.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != coordinator) net::hard_exit(kRankExitOk);

      RankEndpoints ep;
      ep.rank = k;
      ep.nranks = n;
      ep.frame_timeout_s = opt_.frame_timeout_s;
      ep.peer_fds.assign(static_cast<std::size_t>(n), -1);
      for (int r = 0; r < n; ++r) {
        if (r == k)
          net::close_fd(ctrl[static_cast<std::size_t>(r)].a);
        else {
          net::close_fd(ctrl[static_cast<std::size_t>(r)].a);
          net::close_fd(ctrl[static_cast<std::size_t>(r)].b);
        }
      }
      ep.ctrl_fd = ctrl[static_cast<std::size_t>(k)].b;
      for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j) {
          const net::StreamPair& p = data[pair_index(i, j, n)];
          // Pair (i, j): rank i keeps end .a, rank j keeps end .b.
          if (i == k) {
            ep.peer_fds[static_cast<std::size_t>(j)] = p.a;
            net::close_fd(p.b);
          } else if (j == k) {
            ep.peer_fds[static_cast<std::size_t>(i)] = p.b;
            net::close_fd(p.a);
          } else {
            net::close_fd(p.a);
            net::close_fd(p.b);
          }
        }
      run_rank_process(ep);  // noreturn
    }
    // ---- parent
    pids_[static_cast<std::size_t>(k)] = pid;
    ctrl_fds_[static_cast<std::size_t>(k)] =
        ctrl[static_cast<std::size_t>(k)].a;
  }

  // The coordinator keeps only its control ends.
  for (const net::StreamPair& p : ctrl) net::close_fd(p.b);
  for (const net::StreamPair& p : data) {
    net::close_fd(p.a);
    net::close_fd(p.b);
  }

  // Liveness handshake: one Hello per rank, under the frame deadline.
  try {
    for (int k = 0; k < n; ++k) {
      net::Frame hello;
      const net::IoStatus st = net::read_frame(
          ctrl_fds_[static_cast<std::size_t>(k)],
          ctrl_decoders_[static_cast<std::size_t>(k)], hello,
          opt_.frame_timeout_s);
      if (st != net::IoStatus::kOk) io_fail("hello", k, st);
      SSAMR_REQUIRE(hello.type == kMsgHello,
                    "proc: expected Hello from rank " + std::to_string(k));
      net::WireReader r(hello.payload.data(), hello.payload.size());
      const std::int32_t said = r.i32();
      SSAMR_REQUIRE(said == k, "proc: rank identity mismatch in Hello");
    }
  } catch (...) {
    shutdown_children();
    throw;
  }
}

ProcModel::~ProcModel() { shutdown_children(); }

void ProcModel::shutdown_children() noexcept {
  try {
    for (std::size_t k = 0; k < ctrl_fds_.size(); ++k) {
      if (ctrl_fds_[k] < 0) continue;
      // Best effort: a wedged child is handled by the kill path below.
      (void)net::write_frame(ctrl_fds_[k], kMsgShutdown, nullptr, 0,
                             /*timeout_s=*/0.5);
      net::close_fd(ctrl_fds_[k]);
      ctrl_fds_[k] = -1;
    }
  } catch (...) {
    // Allocation failure while encoding — the kill path still reaps.
  }
  const double deadline = wallclock_seconds() + 2.0;
  bool all_reaped = false;
  while (!all_reaped && wallclock_seconds() < deadline) {
    all_reaped = true;
    for (pid_t& pid : pids_) {
      if (pid <= 0) continue;
      int status = 0;
      const pid_t got = net::waitpid_retry(pid, &status, WNOHANG);
      if (got == pid || (got < 0 && errno == ECHILD))
        pid = -1;
      else
        all_reaped = false;
    }
    if (!all_reaped) sleep_ms(2);
  }
  for (pid_t& pid : pids_) {
    if (pid <= 0) continue;
    ::kill(pid, SIGKILL);
    int status = 0;
    net::waitpid_retry(pid, &status, 0);
    pid = -1;
  }
}

std::vector<PhaseReport> ProcModel::run_phase(
    const std::vector<PhasePlan>& plans, double* window_wall_s) {
  const int n = cluster_.size();
  SSAMR_REQUIRE(static_cast<int>(plans.size()) == n,
                "proc: one plan per rank required");
  const double w0 = wallclock_seconds();
  for (int k = 0; k < n; ++k) {
    const std::vector<std::uint8_t> bytes =
        encode_phase_plan(plans[static_cast<std::size_t>(k)]);
    const net::IoStatus st = net::write_frame(
        ctrl_fds_[static_cast<std::size_t>(k)], kMsgPhase, bytes.data(),
        bytes.size(), opt_.frame_timeout_s);
    if (st != net::IoStatus::kOk) io_fail("phase dispatch", k, st);
  }
  std::vector<PhaseReport> reports(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    net::Frame done;
    const net::IoStatus st = net::read_frame(
        ctrl_fds_[static_cast<std::size_t>(k)],
        ctrl_decoders_[static_cast<std::size_t>(k)], done,
        opt_.frame_timeout_s);
    if (st != net::IoStatus::kOk) io_fail("phase report", k, st);
    SSAMR_REQUIRE(done.type == kMsgDone,
                  "proc: expected Done from rank " + std::to_string(k));
    reports[static_cast<std::size_t>(k)] =
        decode_phase_report(done.payload.data(), done.payload.size());
  }
  const double window = wallclock_seconds() - w0;
  *window_wall_s = window;
  phase_wall_total_ += window;
  for (const PhaseReport& r : reports)
    wire_bytes_total_ += r.bytes_sent + r.bytes_received;
  return reports;
}

Seconds ProcModel::sense(Seconds t, Seconds sweep_s, int iteration) {
  // Sensing is the monitor's virtual sweep — no rank process involvement —
  // and is charged serially exactly like the BSP model, so sense cost
  // cancels in event-vs-proc cross-validation.
  lanes_.serial_sense(t, sweep_s, iteration);
  return sweep_s;
}

Seconds ProcModel::regrid(Seconds t, std::size_t boxes, int iteration) {
  // Regrid + repartition run for real in the coordinator (the driver calls
  // the actual partitioner); their virtual charge stays the closed-form
  // model shared with BSP so the event-vs-proc comparison isolates the
  // phases the ranks execute.
  const Seconds cost = exec_.regrid_time(boxes) + exec_.partition_time(boxes);
  lanes_.serial_regrid(t, cost, iteration);
  return cost;
}

Seconds ProcModel::migrate(const PartitionResult& previous,
                           const PartitionResult& next, Seconds t) {
  const int n = cluster_.size();
  std::vector<PhasePlan> plans(static_cast<std::size_t>(n));
  // The repartition payload every rank receives: new ownership in SFC
  // order plus the work targets the capacity vector produced.
  std::vector<std::int32_t> owners;
  owners.reserve(next.assignments.size());
  for (const BoxAssignment& a : next.assignments) owners.push_back(a.owner);
  for (int k = 0; k < n; ++k) {
    PhasePlan& p = plans[static_cast<std::size_t>(k)];
    p.kind = PhaseKind::kMigrate;
    p.owners = owners;
    p.capacities.assign(next.target_work.begin(), next.target_work.end());
  }
  plan_wire_flows(plans, exec_.migration_flows(previous, next),
                  opt_.bytes_scale);
  double window = 0;
  run_phase(plans, &window);
  const Seconds cost = opt_.to_virtual(window);
  lanes_.land_migration(t, cost);
  return cost;
}

StepCost ProcModel::advance(const PartitionResult& r, Seconds t,
                            int iteration) {
  const int n = cluster_.size();
  const std::vector<Seconds> comp = exec_.compute_times(r, t);
  std::vector<PhasePlan> plans(static_cast<std::size_t>(n));
  for (int k = 0; k < n; ++k) {
    PhasePlan& p = plans[static_cast<std::size_t>(k)];
    p.kind = PhaseKind::kAdvance;
    p.iteration = iteration;
    const double sleep_s =
        comp[static_cast<std::size_t>(k)].value() * opt_.time_scale;
    p.compute_wall_s = sleep_s;
  }
  plan_wire_flows(plans, ghost_flows_.flows(r, exec_.config()),
                  opt_.bytes_scale);

  double window = 0;
  const std::vector<PhaseReport> reports = run_phase(plans, &window);
  const Seconds elapsed = opt_.to_virtual(window);

  // Per-rank measured spans, normalized to virtual seconds and clamped
  // into the coordinator window (child-side measurements are taken inside
  // it, but wall clocks jitter; the lanes need monotone targets).
  Seconds worst_total{0};
  Seconds worst_comp{0};
  for (int k = 0; k < n; ++k) {
    const PhaseReport& rep = reports[static_cast<std::size_t>(k)];
    Seconds comp_v = opt_.to_virtual(rep.compute_wall_s);
    Seconds comm_v = opt_.to_virtual(rep.comm_wall_s);
    comp_v = std::min(comp_v, elapsed);
    comm_v = std::min(comm_v, elapsed - comp_v);
    comm_v = std::max(comm_v, Seconds{0});
    RankTimeline& lane = lanes_.rank(static_cast<std::size_t>(k));
    lane.advance(t + comp_v, SpanKind::kCompute, iteration);
    lane.advance(t + (comp_v + comm_v), SpanKind::kComm, iteration);
    lane.advance(t + elapsed, SpanKind::kIdle, iteration);
    if (comp_v + comm_v > worst_total) {
      worst_total = comp_v + comm_v;
      worst_comp = comp_v;
    }
  }
  // The coordinator window is the measured step time; everything past the
  // critical rank's compute — peer exchange plus protocol overhead — is
  // reported as communication, mirroring the BSP convention.
  return StepCost{elapsed, worst_comp, elapsed - worst_comp};
}

void ProcModel::finish(RunTrace& trace, Seconds t_end) {
  lanes_.finish(trace, t_end);
}

}  // namespace ssamr::sim
