#include "sim/executor_audit.hpp"

#include <cmath>
#include <string>

#include "sim/proc_model.hpp"

namespace ssamr::audit {

namespace {

/// `!(v >= 0)` rather than `v < 0`: the former also rejects NaN.
bool nonneg(real_t v) { return v >= 0 && std::isfinite(v); }

/// Finite and strictly positive (rejects NaN, infinities, zero).
bool positive(real_t v) { return v > 0 && std::isfinite(v); }

void require_nonneg(AuditReport& r, const char* check, const char* knob,
                    real_t v) {
  if (!nonneg(v))
    r.add(Severity::Error, check, "",
          std::string(knob) + " = " + std::to_string(v) +
              " must be finite and >= 0");
}

}  // namespace

AuditReport validate_executor_config(const ExecutorConfig& cfg) {
  AuditReport r("executor-config");
  require_nonneg(r, "executor.app_memory", "app_base_memory_mb",
                 cfg.app_base_memory_mb.value());
  if (cfg.ncomp < 1)
    r.add(Severity::Error, "executor.ncomp", "",
          "ncomp = " + std::to_string(cfg.ncomp) + " must be >= 1");
  if (cfg.ghost < 0)
    r.add(Severity::Error, "executor.ghost", "",
          "ghost = " + std::to_string(cfg.ghost) + " must be >= 0");
  if (cfg.time_levels < 1)
    r.add(Severity::Error, "executor.time_levels", "",
          "time_levels = " + std::to_string(cfg.time_levels) +
              " must be >= 1");
  if (!(cfg.comm_overlap >= Fraction{0}) || !(cfg.comm_overlap <= Fraction{1}))
    r.add(Severity::Error, "executor.comm_overlap", "",
          "comm_overlap = " + std::to_string(cfg.comm_overlap.value()) +
              " must lie in [0, 1]");
  return r;
}

AuditReport validate_proc_options(const ProcOptions& opt, int nranks) {
  AuditReport r("proc-options");
  if (!positive(opt.time_scale))
    r.add(Severity::Error, "proc.time_scale", "",
          "time_scale = " + std::to_string(opt.time_scale) +
              " must be finite and > 0 (it divides every measured wall "
              "span)");
  if (!positive(opt.frame_timeout_s))
    r.add(Severity::Error, "proc.frame_timeout", "",
          "frame_timeout_s = " + std::to_string(opt.frame_timeout_s) +
              " must be finite and > 0");
  if (nranks < 1 || nranks > sim::kMaxProcRanks)
    r.add(Severity::Error, "proc.ranks", "",
          "rank count " + std::to_string(nranks) + " outside [1, " +
              std::to_string(sim::kMaxProcRanks) + "]");
  return r;
}

}  // namespace ssamr::audit
