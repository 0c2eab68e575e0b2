#include "monitor/monitor_audit.hpp"

#include <cmath>
#include <string>

namespace ssamr::audit {

namespace {

/// `!(v >= 0)` rather than `v < 0`: the former also rejects NaN.
bool nonneg(real_t v) { return v >= 0 && std::isfinite(v); }

void require_nonneg(AuditReport& r, const char* check, const char* knob,
                    real_t v) {
  if (!nonneg(v))
    r.add(Severity::Error, check, "",
          std::string(knob) + " = " + std::to_string(v) +
              " must be finite and >= 0");
}

}  // namespace

AuditReport validate_monitor_config(const MonitorConfig& cfg) {
  AuditReport r("monitor-config");
  require_nonneg(r, "monitor.probe_cost", "probe_cost_s",
                 cfg.probe_cost_s.value());
  require_nonneg(r, "monitor.noise", "noise.cpu_sigma", cfg.noise.cpu_sigma);
  require_nonneg(r, "monitor.noise", "noise.memory_sigma",
                 cfg.noise.memory_sigma);
  require_nonneg(r, "monitor.noise", "noise.bandwidth_sigma",
                 cfg.noise.bandwidth_sigma);
  if (!(kProbeDeadline >= cfg.probe_cost_s))
    r.add(Severity::Error, "monitor.probe_deadline", "",
          "probe_cost_s = " + std::to_string(cfg.probe_cost_s.value()) +
              " exceeds the probe deadline " +
              std::to_string(kProbeDeadline.value()) +
              " (a timeout cannot cost less than a successful probe)");
  return r;
}

}  // namespace ssamr::audit
