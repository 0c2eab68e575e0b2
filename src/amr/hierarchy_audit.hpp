#pragma once
/// \file hierarchy_audit.hpp
/// Invariant audit of the grid hierarchy.

#include "amr/hierarchy.hpp"
#include "util/audit.hpp"

namespace ssamr::audit {

/// Audit the grid hierarchy: per-level box/level agreement, domain
/// bounds, disjointness, proper nesting (l >= 2), refinement-ratio
/// alignment and minimum box size (warnings), and ghost-region/storage
/// consistency of every patch against the hierarchy configuration.
AuditReport validate_hierarchy(const GridHierarchy& h);

}  // namespace ssamr::audit
