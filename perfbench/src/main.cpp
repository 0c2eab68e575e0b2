/// \file main.cpp
/// The benchmark binary: builds one workload from a seed, runs its op
/// list, and writes every op's host time, iteration count, digest and
/// check result — plus, in traced mode, every span and counter — as one
/// JSON document.  run.py turns that document into the reported metrics.
///
///   perfbench --workload NAME --seed N [--seconds S] [--trace 0|1]
///             [--t0-ns NS] [--setup-only] [--out FILE]
///
/// --seconds sizes the op list through the workload's nominal op time;
/// the list itself depends only on (seed, op count).  --t0-ns is the
/// CLOCK_MONOTONIC launch stamp of the process (default: entry to main);
/// set-up time runs from it to the start of the first timed op.
/// --setup-only stops there, after kSetupProbes host-speed probes.  Every
/// op is preceded by one probe (see probe_ns).  In traced mode every other
/// op runs through the timing decorators and the rest run bare — shifted
/// by one each block when blocks are even, so both halves see every
/// stratum — and the traced and untraced throughput of one process give
/// the tracing overhead.

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "tracer.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using perfbench::now_ns;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::int64_t t0_ns = 0;
  bool setup_only = false;
  std::string out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N [--seconds S]"
               " [--trace 0|1] [--t0-ns NS] [--setup-only] [--out FILE]\n";
  throw std::invalid_argument(why);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    bool known = true;
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v) != 0;
      else if (flag == "--t0-ns") a.t0_ns = std::stoll(v);
      else if (flag == "--out") a.out = v;
      else known = false;
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + v);
    }
    if (!known) usage("unknown flag " + flag);
  }
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

constexpr int kSetupProbes = 5;

/// Host-speed probe: fill and sort 2^18 pseudo-random 64-bit keys (2 MB,
/// about 25 ms).  It shares no code with libssamr, so no library change
/// can move it; what moves it is the host — frequency and the cache and
/// memory bandwidth that co-tenants leave — which moves the ops with it.
/// run.py rescales host seconds by it (README.md, "Host speed").
std::int64_t probe_ns() {
  static std::vector<std::uint64_t> buf(std::size_t{1} << 18);
  std::uint64_t x = 88172645463325252ULL;
  const std::int64_t t0 = now_ns();
  for (auto& v : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = x;
  }
  std::sort(buf.begin(), buf.end());
  return now_ns() - t0;
}

/// Peak resident set of this process image, in MB: VmHWM from
/// /proc/self/status, else getrusage's ru_maxrss.  VmHWM is the counter
/// ru_maxrss reads, but ru_maxrss also folds in the peak of the image that
/// exec replaced — for a child of run.py, the Python interpreter's
/// ~15 MB, which is above paper-sensing's own peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kb = 0;
    if (fields >> kb) return kb / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Pins glibc's mmap threshold, and with it the trim threshold, at the
/// documented 128 KiB defaults.  Left dynamic, they rise to the largest
/// mapped block freed so far, after which large blocks stay in whichever
/// per-thread arena first held them; that follows the pool's interleaving,
/// and about one particle-zoo launch in ten peaked 2–3 MB higher.  Pinned,
/// peak RSS follows live memory (README.md, "Memory").
void pin_allocator() {
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
}

struct OpRecord {
  int id = 0;
  bool traced = false;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  perfbench::OpResult result;
};

void write_json(std::ostream& os, const Args& a, int threads, double setup_s,
                const std::vector<std::int64_t>& probes,
                const std::vector<OpRecord>& ops,
                const perfbench::Tracer& tracer) {
  os << "{\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
     << ", \"threads\": " << threads << ", \"setup_s\": " << num(setup_s)
     << ", \"peak_rss_mb\": " << num(peak_rss_mb())
     << ",\n \"probe_ns\": [";
  for (std::size_t i = 0; i < probes.size(); ++i)
    os << (i ? ", " : "") << probes[i];
  os << "],\n \"ops\": [";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpRecord& r = ops[i];
    os << (i ? ",\n  " : "\n  ") << "{\"id\": " << r.id
       << ", \"traced\": " << (r.traced ? "true" : "false")
       << ", \"start_ns\": " << r.start_ns << ", \"end_ns\": " << r.end_ns
       << ", \"iters\": " << r.result.iters << ", \"digest\": [";
    for (std::size_t d = 0; d < r.result.digest.size(); ++d)
      os << (d ? ", " : "") << num(r.result.digest[d]);
    os << "], \"error\": ";
    // Error texts are library messages; keep the JSON valid regardless.
    os << '"';
    for (const char c : r.result.error)
      os << ((c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20)
                 ? '?'
                 : c);
    os << "\"}";
  }
  os << "],\n \"counters\": {";
  bool first = true;
  auto counters = tracer.counters();
  counters["amr.distinct_epochs"] = tracer.distinct_epochs();
  for (const auto& [name, value] : counters) {
    os << (first ? "" : ", ") << '"' << name << "\": " << value;
    first = false;
  }
  os << "},\n \"spans\": [";
  const std::vector<perfbench::Span> spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const perfbench::Span& s = spans[i];
    os << (i ? ",\n  " : "\n  ") << "{\"name\": \"" << s.name
       << "\", \"start\": " << s.start_ns << ", \"end\": " << s.end_ns
       << ", \"parent\": " << s.parent << ", \"enclosing\": " << s.enclosing
       << ", \"op\": " << s.op << ", \"thread\": " << s.thread << '}';
  }
  os << "]}\n";
}

int run(const Args& a) {
  const perfbench::WorkloadSpec* spec = nullptr;
  for (const auto& s : perfbench::workload_specs())
    if (a.workload == s.name) spec = &s;
  if (spec == nullptr) usage("unknown workload '" + a.workload + "'");

  ssamr::Log::set_level(ssamr::LogLevel::Warn);
  // Pin the pool before anything touches it: never the ambient count.
  const ssamr::ThreadPoolOverride pool(spec->threads);
  const std::unique_ptr<perfbench::Workload> workload = spec->make(a.seed);
  const double setup_s = static_cast<double>(now_ns() - a.t0_ns) * 1e-9;

  std::vector<std::int64_t> probes;
  std::vector<OpRecord> ops;
  perfbench::Tracer tracer;
  if (a.setup_only) {
    for (int i = 0; i < kSetupProbes; ++i) probes.push_back(probe_ns());
  } else {
    const int block = workload->block();
    const int n = perfbench::op_count(*spec, block, a.seconds,
                                      /*min_blocks=*/a.trace ? 2 : 1);
    ops.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      probes.push_back(probe_ns());
      OpRecord r;
      r.id = i;
      const int shift = block % 2 == 0 ? i / block : 0;
      r.traced = a.trace && (i + shift) % 2 == 0;
      perfbench::Tracer* t = r.traced ? &tracer : nullptr;
      r.start_ns = now_ns();
      try {
        const perfbench::ScopedSpan span(t, "op", i);
        r.result = workload->run_op(i, t, span.id());
      } catch (const std::exception& e) {
        r.result.error = std::string("exception: ") + e.what();
      }
      r.end_ns = now_ns();
      ops.push_back(std::move(r));
    }
  }

  if (a.out.empty()) {
    write_json(std::cout, a, spec->threads, setup_s, probes, ops, tracer);
  } else {
    std::ofstream f(a.out);
    write_json(f, a, spec->threads, setup_s, probes, ops, tracer);
    if (!f) {
      std::cerr << "perfbench: cannot write " << a.out << '\n';
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t entry_ns = now_ns();
  pin_allocator();
  try {
    Args a = parse(argc, argv);
    if (a.t0_ns == 0) a.t0_ns = entry_ns;
    return run(a);
  } catch (const std::invalid_argument&) {
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
