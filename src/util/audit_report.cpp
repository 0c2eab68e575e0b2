#include "util/audit_report.hpp"

#include <ostream>
#include <sstream>

namespace ssamr::audit {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::Warning:
      return "warning";
    case Severity::Error:
      return "error";
  }
  return "unknown";
}

std::ostream& operator<<(std::ostream& os, const Violation& v) {
  os << severity_name(v.severity) << " [" << v.check << "]";
  if (!v.location.empty()) os << " at " << v.location;
  os << ": " << v.message;
  return os;
}

void AuditReport::add(Severity severity, std::string check,
                      std::string location, std::string message) {
  violations_.push_back(Violation{severity, std::move(check),
                                  std::move(location), std::move(message)});
}

void AuditReport::merge(const AuditReport& other) {
  violations_.insert(violations_.end(), other.violations_.begin(),
                     other.violations_.end());
}

bool AuditReport::ok() const { return error_count() == 0; }

std::size_t AuditReport::error_count() const {
  std::size_t n = 0;
  for (const Violation& v : violations_)
    if (v.severity == Severity::Error) ++n;
  return n;
}

std::size_t AuditReport::warning_count() const {
  return violations_.size() - error_count();
}

bool AuditReport::has(const std::string& check) const {
  for (const Violation& v : violations_)
    if (v.check == check) return true;
  return false;
}

std::vector<Violation> AuditReport::of_check(const std::string& check) const {
  std::vector<Violation> out;
  for (const Violation& v : violations_)
    if (v.check == check) out.push_back(v);
  return out;
}

std::string AuditReport::summary() const {
  std::ostringstream os;
  const std::string what = subject_.empty() ? "audit" : "audit of " + subject_;
  if (clean()) {
    os << what << ": clean";
    return os.str();
  }
  os << what << ": " << error_count() << " error(s), " << warning_count()
     << " warning(s)";
  for (const Violation& v : violations_) os << "\n  " << v;
  return os.str();
}

}  // namespace ssamr::audit
