#pragma once
/// \file executor_audit.hpp
/// Invariant audit of the execution-model cost knobs.

#include "sim/executor.hpp"
#include "util/audit.hpp"

namespace ssamr::audit {

/// Audit the execution-model cost knobs: the memory footprint
/// non-negative and finite, ncomp/time_levels >= 1, ghost >= 0,
/// comm_overlap in [0,1].
/// VirtualExecutor enforces this report at construction.
AuditReport validate_executor_config(const ExecutorConfig& cfg);

/// Audit the proc-backend knobs for `nranks` forked ranks: time_scale
/// finite and > 0 (it divides every measured wall span), frame_timeout_s
/// finite and > 0, and nranks within [1, sim::kMaxProcRanks].  ProcModel
/// enforces this report at construction.
AuditReport validate_proc_options(const ProcOptions& opt, int nranks);

}  // namespace ssamr::audit
