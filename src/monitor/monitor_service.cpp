#include "monitor/monitor_service.hpp"

#include <algorithm>
#include <cmath>

#include "cluster/cluster_audit.hpp"
#include "monitor/monitor_audit.hpp"
#include "util/audit.hpp"
#include "util/error.hpp"

namespace ssamr {

namespace {

/// Retries after a failed or timed-out attempt (bounded; quarantined
/// nodes get a single attempt regardless).
constexpr int kProbeMaxRetries = 2;
/// Wait before the first retry; each further retry multiplies it by
/// kBackoffFactor (exponential backoff).
constexpr Seconds kBackoffBase{0.25};
constexpr real_t kBackoffFactor = 2.0;
/// Consecutive failed sweeps after which a node is quarantined (reported
/// at zero capacity until a probe succeeds again).
constexpr int kQuarantineAfter = 2;
/// e-folding time of the staleness decay, in virtual seconds.
constexpr Seconds kDecayTau{60.0};

/// Fallback for a node the monitor cannot reach: its last-known-good
/// reading, `age` old, blended exponentially toward the cluster mean (an
/// unreachable node's state is unknown, so the best unbiased guess drifts
/// to the population average).
ResourceEstimate degrade(const ResourceEstimate& last_good, Seconds age,
                         const ResourceEstimate& cluster_mean) {
  // Exponential decay toward the population mean: a reading of age zero is
  // trusted fully; one many tau old says little more than "the node looked
  // like an average node once".  Seconds / Seconds yields the raw ratio.
  const real_t w = std::exp(-std::max(age, Seconds{0}) / kDecayTau);
  ResourceEstimate e;
  e.cpu_available =
      w * last_good.cpu_available + (1.0 - w) * cluster_mean.cpu_available;
  e.memory_free_mb =
      w * last_good.memory_free_mb + (1.0 - w) * cluster_mean.memory_free_mb;
  e.bandwidth_mbps =
      w * last_good.bandwidth_mbps + (1.0 - w) * cluster_mean.bandwidth_mbps;
  return e;
}

}  // namespace

void HealthLedger::record_sweep(const SweepResult& sweep) {
  MutexLock lock(mutex_);
  totals_.ok += sweep.ok;
  totals_.stale += sweep.stale;
  totals_.timeouts += sweep.timeouts;
  totals_.failures += sweep.failures;
  totals_.quarantines += static_cast<int>(sweep.quarantined.size());
  totals_.readmissions += static_cast<int>(sweep.readmitted.size());
}

void HealthLedger::record_forced_repartition() {
  MutexLock lock(mutex_);
  ++totals_.forced_repartitions;
}

ProbeHealth HealthLedger::snapshot() const {
  MutexLock lock(mutex_);
  return totals_;
}

ResourceMonitor::ResourceMonitor(const Cluster& cluster, MonitorConfig cfg)
    : cluster_(cluster),
      cfg_(cfg),
      sensor_(cluster, cfg.noise, cfg.seed),
      cpu_hist_(static_cast<std::size_t>(cluster.size())),
      mem_hist_(static_cast<std::size_t>(cluster.size())),
      bw_hist_(static_cast<std::size_t>(cluster.size())),
      last_good_(static_cast<std::size_t>(cluster.size())),
      last_good_time_(static_cast<std::size_t>(cluster.size()),
                      Seconds{0}),
      has_good_(static_cast<std::size_t>(cluster.size()), 0),
      fail_streak_(static_cast<std::size_t>(cluster.size()), 0),
      quarantined_(static_cast<std::size_t>(cluster.size()), 0),
      attempt_counter_(static_cast<std::size_t>(cluster.size()), 0) {
  const audit::AuditReport report =
      audit::validate_monitor_config(cfg);
  SSAMR_REQUIRE(report.ok(), report.summary());
}

std::size_t ResourceMonitor::index_of(rank_t rank) const {
  SSAMR_REQUIRE(rank >= 0 && rank < cluster_.size(), "rank out of range");
  return static_cast<std::size_t>(rank);
}

ResourceEstimate ResourceMonitor::fresh_probe(rank_t rank, Seconds t_obs) {
  const std::size_t i = static_cast<std::size_t>(rank);
  const Measurement m = sensor_.measure(rank, t_obs);
  auto& cpu = cpu_hist_[i];
  auto& mem = mem_hist_[i];
  auto& bw = bw_hist_[i];
  cpu.push_back(m.cpu_available);
  mem.push_back(m.memory_free_mb);
  bw.push_back(m.bandwidth_mbps);
  ++probe_count_;

  // Forecasts are dimensionless wire data; wrapping them here is where
  // each value acquires its dimension.
  ResourceEstimate e;
  e.cpu_available = Fraction{forecaster_.forecast(cpu)};
  e.memory_free_mb = MegaBytes{forecaster_.forecast(mem)};
  e.bandwidth_mbps = MbitsPerSec{forecaster_.forecast(bw)};
  last_good_[i] = e;
  last_good_time_[i] = t_obs;
  has_good_[i] = 1;
  return e;
}

ResourceEstimate ResourceMonitor::known_good_mean() const {
  ResourceEstimate mean;
  mean.cpu_available = Fraction{0};
  int count = 0;
  for (std::size_t i = 0; i < has_good_.size(); ++i) {
    if (has_good_[i] == 0 || quarantined_[i] != 0) continue;
    mean.cpu_available += last_good_[i].cpu_available;
    mean.memory_free_mb += last_good_[i].memory_free_mb;
    mean.bandwidth_mbps += last_good_[i].bandwidth_mbps;
    ++count;
  }
  if (count == 0) return ResourceEstimate{Fraction{0}, MegaBytes{0}, MbitsPerSec{0}};
  mean.cpu_available /= count;
  mean.memory_free_mb /= count;
  mean.bandwidth_mbps /= count;
  return mean;
}

ProbeOutcome ResourceMonitor::probe_outcome(rank_t rank, Seconds t) {
  const std::size_t i = index_of(rank);
  const FaultPlan& plan = cluster_.fault_plan();

  // A quarantined node gets one attempt per sweep (no retry budget): the
  // monitor keeps listening for recovery but stops paying for backoff.
  const int max_attempts =
      quarantined_[i] != 0 ? 1 : 1 + kProbeMaxRetries;
  ProbeFault last_fault = ProbeFault::kNone;
  Seconds cost{0};
  int attempts = 0;
  bool answered = false;
  bool stale = false;
  for (int a = 0; a < max_attempts; ++a) {
    ++attempts;
    const ProbeFault f = plan.probe_fault(rank, t, attempt_counter_[i]++);
    if (f == ProbeFault::kNone || f == ProbeFault::kStale) {
      cost += cfg_.probe_cost_s;
      answered = true;
      stale = (f == ProbeFault::kStale);
      break;
    }
    last_fault = f;
    // A timeout costs the full deadline; a fast failure costs one probe.
    cost += f == ProbeFault::kTimeout ? kProbeDeadline : cfg_.probe_cost_s;
    if (a + 1 < max_attempts)
      cost += kBackoffBase * std::pow(kBackoffFactor, a);
  }

  ProbeOutcome out;
  out.attempts = attempts;
  out.elapsed_s = cost;
  if (answered) {
    // A stale answer is a real (old) reading: it enters the history and
    // counts as contact for quarantine purposes.
    const Seconds t_obs = stale ? plan.observable_time(rank, t) : t;
    out.estimate = fresh_probe(rank, t_obs);
    out.status = stale ? ProbeStatus::kStale : ProbeStatus::kOk;
    fail_streak_[i] = 0;
    quarantined_[i] = 0;
    return out;
  }

  out.status = last_fault == ProbeFault::kTimeout ? ProbeStatus::kTimeout
                                                  : ProbeStatus::kFailed;
  ++fail_streak_[i];
  if (fail_streak_[i] >= kQuarantineAfter) quarantined_[i] = 1;
  if (quarantined_[i] != 0) {
    // Quarantined: report zero capacity so normalization routes no work
    // here until the node answers again.
    out.estimate = ResourceEstimate{Fraction{0}, MegaBytes{0}, MbitsPerSec{0}};
  } else if (has_good_[i] != 0) {
    out.estimate =
        degrade(last_good_[i], t - last_good_time_[i], known_good_mean());
  } else {
    // Never reached the node at all: assume nothing (zero capacity) rather
    // than inventing an average node that may not exist.
    out.estimate = ResourceEstimate{Fraction{0}, MegaBytes{0}, MbitsPerSec{0}};
  }
  return out;
}

SweepResult ResourceMonitor::probe_all(Seconds t) {
  const std::size_t n = static_cast<std::size_t>(cluster_.size());
  SweepResult out;
  out.estimates.reserve(n);

  const std::vector<char> was_quarantined = quarantined_;
  for (rank_t r = 0; r < cluster_.size(); ++r) {
    const ProbeOutcome o = probe_outcome(r, t);
    out.estimates.push_back(o.estimate);
    out.overhead_s += o.elapsed_s;
    switch (o.status) {
      case ProbeStatus::kOk: ++out.ok; break;
      case ProbeStatus::kStale: ++out.stale; break;
      case ProbeStatus::kTimeout: ++out.timeouts; break;
      case ProbeStatus::kFailed: ++out.failures; break;
    }
  }
  for (rank_t r = 0; r < cluster_.size(); ++r) {
    const std::size_t i = static_cast<std::size_t>(r);
    if (was_quarantined[i] == 0 && quarantined_[i] != 0)
      out.quarantined.push_back(r);
    else if (was_quarantined[i] != 0 && quarantined_[i] == 0)
      out.readmitted.push_back(r);
  }
  // The probed truth must itself be consistent: availabilities in [0, 1],
  // free memory and bandwidth within each node's spec.
  SSAMR_AUDIT(audit::validate_cluster(cluster_, t));
  health_.record_sweep(out);
  return out;
}

bool ResourceMonitor::quarantined(rank_t rank) const {
  return quarantined_[index_of(rank)] != 0;
}

int ResourceMonitor::fail_streak(rank_t rank) const {
  return fail_streak_[index_of(rank)];
}

const std::vector<real_t>& ResourceMonitor::cpu_history(rank_t rank) const {
  return cpu_hist_[index_of(rank)];
}

}  // namespace ssamr
