#pragma once
/// \file monitor_audit.hpp
/// Invariant audit of the resource-monitor knobs.

#include "monitor/monitor_service.hpp"
#include "util/audit.hpp"

namespace ssamr::audit {

/// Audit the resource-monitor knobs: probe cost and noise sigmas
/// non-negative and finite, probe cost within the probe deadline.
/// ResourceMonitor enforces this report at construction.
AuditReport validate_monitor_config(const MonitorConfig& cfg);

}  // namespace ssamr::audit
