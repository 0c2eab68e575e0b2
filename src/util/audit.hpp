#pragma once
/// \file audit.hpp
/// The SSAMR_AUDIT hook: enforce an AuditReport at a call site.
///
/// SSAMR_AUDIT(expr) evaluates `expr` (an expression yielding an
/// audit::AuditReport, typically a validator call), throws ssamr::Error when
/// the report contains Error-severity violations, and logs a debug summary
/// when it only contains warnings.  The hook is compiled in for Debug
/// builds and for audit builds (cmake -DSSAMR_AUDIT=ON, which defines
/// SSAMR_ENABLE_AUDIT); in optimized NDEBUG builds without the option it
/// compiles to nothing, so hot paths pay nothing.
///
/// This seam lives in util/ — the bottom layer — so every subsystem can
/// hook its own invariant audits.  The validators are audit::validate_*
/// free functions living next to the data they check (e.g.
/// capacity/capacity_audit.hpp); callers include those headers directly.

#include "util/audit_report.hpp"
#include "util/types.hpp"

#if !defined(SSAMR_AUDIT_ENABLED)
#if defined(SSAMR_ENABLE_AUDIT) || !defined(NDEBUG)
#define SSAMR_AUDIT_ENABLED 1
#else
#define SSAMR_AUDIT_ENABLED 0
#endif
#endif

namespace ssamr::audit {

/// Allowed deviation of Σ C_k from 1 and of any fraction (C_k, CPU
/// availability) outside [0, 1]; the capacity and cluster audits share it.
inline constexpr real_t kCapacityTolerance = 1e-6;

namespace detail {
/// Throw ssamr::Error on report errors; log warnings at Debug level.
void enforce(const AuditReport& report, const char* file, int line);
}  // namespace detail

/// True when SSAMR_AUDIT hooks are active in this translation unit's build.
constexpr bool hooks_enabled() { return SSAMR_AUDIT_ENABLED != 0; }

}  // namespace ssamr::audit

#if SSAMR_AUDIT_ENABLED
#define SSAMR_AUDIT(report_expr) \
  ::ssamr::audit::detail::enforce((report_expr), __FILE__, __LINE__)
#else
#define SSAMR_AUDIT(report_expr) ((void)0)
#endif
