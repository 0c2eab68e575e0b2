#pragma once
/// \file report.hpp
/// Structured results of an invariant audit.
///
/// Validators (the audit::validate_* functions) never throw on violated
/// invariants — they collect every violation into an AuditReport so that
/// callers (tests, the experiment driver, the SSAMR_AUDIT hook) can decide
/// what to do: print, count, assert, or escalate.  Severity::Error marks a
/// broken structural invariant (the computation is wrong);
/// Severity::Warning marks a soft violation (quality degradation,
/// tolerance exceeded) that does not fail AuditReport::ok().

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace ssamr::audit {

/// How bad one violation is.
enum class Severity {
  Warning,  ///< Soft bound exceeded; the structure is still consistent.
  Error,    ///< Structural invariant broken; results cannot be trusted.
};

/// Human-readable name of a severity.
const char* severity_name(Severity s);

/// One violated invariant.
struct Violation {
  Severity severity = Severity::Error;
  /// Stable identifier of the check, e.g. "partition.coverage".
  std::string check;
  /// Where the violation happened, e.g. "rank 3" or "level 2 box [...]".
  std::string location;
  /// What exactly is wrong (with the offending values).
  std::string message;
};

std::ostream& operator<<(std::ostream& os, const Violation& v);

/// The outcome of one audit pass: a (possibly empty) list of violations.
class AuditReport {
 public:
  AuditReport() = default;
  /// \param subject what was audited, e.g. "partition" (used in summaries).
  explicit AuditReport(std::string subject) : subject_(std::move(subject)) {}

  const std::string& subject() const { return subject_; }

  /// Record one violation.
  void add(Severity severity, std::string check, std::string location,
           std::string message);

  /// Absorb all violations of another report.
  void merge(const AuditReport& other);

  /// True when no Error-severity violation was recorded (warnings allowed).
  bool ok() const;
  /// True when nothing at all was recorded.
  bool clean() const { return violations_.empty(); }

  std::size_t error_count() const;
  std::size_t warning_count() const;

  /// True when some violation of the given check id was recorded.
  bool has(const std::string& check) const;

  /// All violations of one check id.
  std::vector<Violation> of_check(const std::string& check) const;

  /// One line per violation plus a header; "audit of <subject>: clean" when
  /// empty.
  std::string summary() const;

 private:
  std::string subject_;
  std::vector<Violation> violations_;
};

}  // namespace ssamr::audit
