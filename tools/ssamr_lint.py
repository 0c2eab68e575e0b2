#!/usr/bin/env python3
"""ssamr_lint.py — project-specific AST linter for the ssamr library.

Enforces the concurrency/determinism invariants that the grep gates in
tools/lint.sh cannot express.  Two backends:

  * libclang (preferred, used by the CI clang job): walks the compile
    database and the real AST, so type-dependent rules (float->int casts,
    unordered-container iteration) are judged on actual types.
  * textual (fallback, zero dependencies): a comment/string-stripped token
    scan with local type heuristics.  Used wherever python3-clang or
    libclang is not installed; the fixture suite (tests/lint_fixtures)
    pins both backends to the same verdicts.

Rules (suppress a line with `// ssamr-lint: allow(<rule>)` on the line or
the line above):

  mutex-seam      std::mutex / std::lock_guard / std::unique_lock /
                  std::condition_variable (and friends), or a
                  no_thread_safety_analysis escape, outside
                  src/util/thread_safety.hpp.  Everything must go through
                  the annotated Mutex/MutexLock/CondVar so Clang's
                  -Wthread-safety analysis cannot be bypassed.
  rand            Nondeterministic randomness: std::rand, srand,
                  std::random_device.  Use util/rng.hpp (seeded splitmix64)
                  so traces stay bit-identical.
  clock           Wall-clock reads (system_clock / steady_clock /
                  high_resolution_clock / clock_gettime / gettimeofday)
                  outside the sanctioned seam src/util/wallclock.hpp.
                  Everything the library computes runs on virtual time.
                  Files that legitimately run on real time (the proc
                  execution backend measures actual processes) are listed
                  in tools/layering.toml [clock].allowed — a reviewed
                  allowance, not an inline suppression.
  unordered-iter  Iteration over std::unordered_map/set in a function that
                  feeds RunTrace, PartitionResult or CSV output: hash
                  order is not deterministic across libstdc++ versions.
  float-cast      float->int static_cast without an adjacent clamp/guard
                  (std::clamp/min/max or SSAMR_REQUIRE/SSAMR_ASSERT within
                  the five preceding lines, or a clamp inside the operand).
                  Casting an out-of-range double to an integer is UB — the
                  planes_for_target bug class.
  pool-ctor       ThreadPool construction outside src/util/ and tests/:
                  the library must share ThreadPool::global() (tests use
                  ThreadPoolOverride), or nested parallelism deadlocks
                  and thread counts stop honoring SSAMR_THREADS.
  raw-double-cost-api
                  Bare double/real_t/float parameter or return in a
                  function signature of a migrated cost-model header
                  (the [cost-api] list in tools/layering.toml).  Cost
                  quantities carry their dimension via util/units.hpp;
                  only the declared serialization-boundary files are
                  exempt.  Dimensionless collections
                  (std::vector<real_t>) do not match.
  narrowing-unit  static_cast to a unit type, or re-wrapping a
                  quantity's .value() in a unit constructor, outside the
                  seam src/util/units.hpp.  Scale changes between units
                  go through the named conversions in the seam so the
                  factors exist exactly once.

Flow-sensitive rules (DESIGN.md §13): both backends share a statement-tree
CFG built from the comment/string-stripped text (python libclang does not
expose clang's CFG, and the textual backend has no AST at all), so the
verdicts are identical by construction:

  fd-lifecycle    a descriptor from ::socket/::socketpair/::accept/::open/
                  ::pipe/::dup must be closed or ownership-transferred on
                  every path out of the function (returns, throws, calls
                  that may unwind), and must be created CLOEXEC atomically
                  (SOCK_CLOEXEC / accept4 / O_CLOEXEC / pipe2), never via
                  a later fcntl.
  eintr-retry     raw ::read/::write/::poll/::waitpid/::connect outside
                  the sanctioned wrapper files (tools/layering.toml
                  [eintr].wrappers) are banned; inside a wrapper, every
                  raw call site must sit under a retry loop whose body
                  handles EINTR.
  lock-escape     a pointer/reference bound to an SSAMR_GUARDED_BY field
                  under a MutexLock must not outlive the lock scope (used
                  after the scope's closing brace, or returned) — the
                  escape hole Clang's thread-safety annotations don't
                  close.
  determinism-taint
                  values from util/wallclock.hpp, PhaseReport measured
                  wall fields, /proc reads, or other [taint].sources may
                  reach RankTimeline/CSV sinks ([taint].sinks) only
                  through a sanctioner ([taint].sanitizers — the
                  ProcOptions::to_virtual time_scale seam), so real time
                  can never leak into a golden-pinned trace un-normalized.

Suppressions are budgeted: `--budget tools/suppression_budget.json` fails
the run when the per-rule count of `ssamr-lint: allow(...)` markers under
src/ exceeds the checked-in budget, and `--suppressions-out` writes the
per-rule counts + sites as a JSON artifact.

Architecture conformance (tools/layering.toml):

  tools/ssamr_lint.py --layering
      Build the directory-level include graph of src/ and fail on
      (a) include cycles, (b) edges not declared in [edges],
      (c) declared or actual edges that point upward in the [layers]
      order, (d) include hygiene (non-src-relative quoted includes,
      includes of .cpp files or nonexistent files), (e) declared edges
      no include uses — a stale declaration would let the edge come
      back unreviewed.
      --emit-graph PATH writes the graph as Graphviz DOT (and renders
      an SVG next to it when `dot` is installed); --drop-edge A:B
      removes a declared edge first, which is how the negative ctest
      proves the gate can fail.

Usage:
  tools/ssamr_lint.py [-p BUILDDIR] [--backend auto|libclang|textual] [FILES...]
      Lint FILES, or (with no FILES) every src/ translation unit in the
      compile database plus every src/ header.
  tools/ssamr_lint.py --check-fixtures DIR
      Self-test: each fixture in DIR declares its expected findings with
      `// expect: <rule>` comments; assert the rule set fires exactly
      there and nowhere else.  Exits non-zero on any mismatch.
  tools/ssamr_lint.py --layering [--emit-graph DOT] [--drop-edge A:B]
      Architecture conformance against tools/layering.toml.

Every mode accepts --timing-out PATH to write a JSON artifact with the
wall time spent per rule (CI keeps these so lint cost regressions show
up in review).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
DEFAULT_CONFIG = REPO / "tools" / "layering.toml"

THREAD_SAFETY_SEAM = "util/thread_safety.hpp"
WALLCLOCK_SEAM = "util/wallclock.hpp"

RULES = {
    "mutex-seam": "raw std lock primitive outside util/thread_safety.hpp",
    "rand": "nondeterministic randomness (use util/rng.hpp)",
    "clock": "wall-clock read outside util/wallclock.hpp "
             "(or layering.toml [clock].allowed)",
    "unordered-iter":
        "unordered-container iteration feeding deterministic output",
    "float-cast": "float->int static_cast without adjacent clamp/guard",
    "pool-ctor": "ThreadPool construction outside util/ and tests/",
    "raw-double-cost-api":
        "bare double/real_t in a cost-model signature (use units.hpp types)",
    "narrowing-unit":
        "unit cast/re-wrap outside the util/units.hpp seam",
    "fd-lifecycle":
        "fd not closed/transferred on every path, or not created CLOEXEC",
    "eintr-retry":
        "raw syscall outside the src/net seam, or not under an EINTR loop",
    "lock-escape":
        "pointer/ref to a GUARDED_BY field outliving its MutexLock scope",
    "determinism-taint":
        "measured wall clock reaching a trace/CSV sink unnormalized",
}

SUPPRESS_RE = re.compile(r"ssamr-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")
EXPECT_RE = re.compile(r"//\s*expect:\s*([a-z-]+(?:\s*,\s*[a-z-]+)*)")

MUTEX_TOKENS = {
    "mutex", "timed_mutex", "recursive_mutex", "recursive_timed_mutex",
    "shared_mutex", "shared_timed_mutex", "lock_guard", "unique_lock",
    "scoped_lock", "shared_lock", "condition_variable",
    "condition_variable_any",
}
CLOCK_TOKENS = {
    "system_clock", "steady_clock", "high_resolution_clock",
    "clock_gettime", "gettimeofday",
}
INT_DEST_RE = re.compile(
    r"\b(?:std::)?(?:u?int(?:8|16|32|64)?_t|int|long(?:\s+long)?"
    r"|short|unsigned(?:\s+(?:int|long|short|char))?|size_t|ptrdiff_t"
    r"|coord_t|key_t|level_t|rank_t|char)\b"
)
GUARD_RE = re.compile(
    r"std::clamp|std::min|std::max|SSAMR_REQUIRE|SSAMR_ASSERT")
FLOAT_MARK_RE = re.compile(
    r"\b(?:real_t|double|float)\b"
    r"|\bstd::(?:floor|ceil|round|lround|llround|rint|nearbyint|trunc"
    r"|sqrt|exp|log|pow|fmod|hypot|fabs)\b"
    r"|(?<![\w.])(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?")
FLOAT_DECL_FMT = r"\b(?:real_t|double|float)\b(?:\s+const\b)?[&*\s]+{name}\b"
SIZEOF_RE = re.compile(r"\bsizeof\s*\([^()]*\)")
UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s*"
    r"(?:const\s*)?[&*]?\s*(\w+)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;()]*(?:\([^()]*\)[^;()]*)*)\)")
OUTPUT_MARK_RE = re.compile(r"\bRunTrace\b|\bPartitionResult\b|\bCsvWriter\b")
POOL_CTOR_RE = re.compile(
    r"\bThreadPool\b\s*(?:\w+\s*)?[({]"
    r"|\bmake_(?:unique|shared)\s*<\s*ThreadPool\s*>")
GUARD_WINDOW = 5  # lines above a cast searched for a clamp/guard

# raw-double-cost-api: a floating return type at declaration position ...
RAW_RETURN_RE = re.compile(
    r"(?m)^\s*(?:\[\[nodiscard\]\]\s*)?"
    r"(?:(?:static|virtual|constexpr|inline|explicit|friend)\s+)*"
    r"(?:const\s+)?(real_t|double|float)\b[&\s]+"
    r"(~?\w+)\s*\(")
# ... and a parameter list of a declaration/definition (terminated by
# ';', '{' or '=', which excludes plain calls mid-expression).
FUNC_DECL_RE = re.compile(
    r"\b(\w+)\s*\(((?:[^()]|\([^()]*\))*)\)\s*"
    r"(?:const\b\s*)?(?:noexcept\b\s*)?(?:->[^;{]+)?[;{=]")
RAW_PARAM_RE = re.compile(r"^\s*(?:const\s+)?(real_t|double|float)\b")
NOT_A_FUNCTION = {"if", "for", "while", "switch", "catch", "return",
                  "sizeof", "do", "else", "new", "delete", "alignof",
                  "decltype", "static_assert"}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)


def load_config(path):
    """Parse tools/layering.toml.  Returns None (with a notice) when the
    file or tomllib is unavailable, which disables the config-driven
    rules rather than failing unrelated lint runs."""
    try:
        import tomllib
    except ImportError:
        print("note: tomllib unavailable — layering/units rules skipped",
              file=sys.stderr)
        return None
    path = Path(path)
    if not path.is_file():
        print(f"note: {path} not found — layering/units rules skipped",
              file=sys.stderr)
        return None
    with open(path, "rb") as fh:
        return tomllib.load(fh)


TIMINGS = {}


def timed(rule, fn, *args):
    t0 = time.perf_counter()
    try:
        return fn(*args)
    finally:
        TIMINGS[rule] = TIMINGS.get(rule, 0.0) + (time.perf_counter() - t0)


def write_timings(path, backend, nfiles):
    artifact = {
        "backend": backend,
        "files": nfiles,
        "timings_s": {k: round(v, 6) for k, v in sorted(TIMINGS.items())},
    }
    Path(path).write_text(json.dumps(artifact, indent=2) + "\n")


class Finding:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def key(self):
        return (str(self.path), self.line, self.rule)

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# Shared text utilities


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments, string and char literals, preserving line
    structure so line numbers survive."""
    out = []
    i, n = 0, len(text)
    state = None  # None | 'line' | 'block' | '"' | "'"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c in "\"'":
                state = c
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # inside a string/char literal
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == state:
                state = None
                out.append(c)
            elif c == "\n":  # unterminated (raw string etc.) — bail per line
                state = None
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def suppressed_lines(raw_lines):
    """Map line number -> set of suppressed rules ('*' = all), honoring the
    same-line and line-above forms."""
    supp = {}
    for idx, line in enumerate(raw_lines, start=1):
        m = SUPPRESS_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",")}
        supp.setdefault(idx, set()).update(rules)
        supp.setdefault(idx + 1, set()).update(rules)
    return supp


def rel_to_repo(path: Path) -> str:
    try:
        return str(path.resolve().relative_to(REPO))
    except ValueError:
        return str(path)


class FileContext:
    """Everything the rules need to know about one file."""

    def __init__(self, path: Path, pretend_rel: str | None = None):
        self.path = path
        self.rel = pretend_rel if pretend_rel is not None else rel_to_repo(path)
        self.raw = path.read_text(encoding="utf-8", errors="replace")
        self.raw_lines = self.raw.splitlines()
        self.stripped = strip_comments_and_strings(self.raw)
        self.lines = self.stripped.splitlines()
        self.suppress = suppressed_lines(self.raw_lines)

    def in_src(self):
        return self.rel.startswith("src/")

    def is_seam(self, seam):
        return self.rel == f"src/{seam}"

    def pool_ctor_allowed(self):
        return (self.rel.startswith("src/util/")
                or (self.rel.startswith("tests/")
                    and "lint_fixtures" not in self.rel))

    def suppressed(self, line, rule):
        rules = self.suppress.get(line, ())
        return rule in rules or "*" in rules


def function_spans(ctx: FileContext):
    """Approximate (start_line, end_line, text) spans of function bodies,
    header included.  Used by unordered-iter to judge whether the enclosing
    function feeds deterministic output."""
    spans = []
    text = ctx.stripped
    stmt_start = 0  # offset where the current statement/declarator began
    depth_stack = []  # (start_offset, is_function)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in ";}" and not depth_stack:
            stmt_start = i + 1
        elif c == "{":
            header = text[stmt_start:i]
            first_word = re.match(r"\s*([A-Za-z_]\w*)", header)
            kw = first_word.group(1) if first_word else ""
            is_fn = ("(" in header and ")" in header
                     and kw not in ("if", "for", "while", "switch", "catch",
                                    "do", "else"))
            depth_stack.append((stmt_start if is_fn else i, is_fn))
            stmt_start = i + 1
        elif c == "}":
            if depth_stack:
                start, is_fn = depth_stack.pop()
                if is_fn and not any(fn for _, fn in depth_stack):
                    start_line = text.count("\n", 0, start) + 1
                    end_line = text.count("\n", 0, i) + 1
                    spans.append((start_line, end_line, text[start:i + 1]))
            stmt_start = i + 1
        i += 1
    return spans


def operand_of_cast(text: str, open_paren: int) -> str:
    """The parenthesized operand starting at text[open_paren] == '('."""
    depth = 0
    for j in range(open_paren, len(text)):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return text[open_paren + 1:j]
    return text[open_paren + 1:]


def has_adjacent_guard(ctx: FileContext, line: int, operand: str) -> bool:
    if GUARD_RE.search(operand):
        return True
    lo = max(0, line - 1 - GUARD_WINDOW)
    window = "\n".join(ctx.lines[lo:line])
    return bool(GUARD_RE.search(window))


def operand_is_floating_textual(ctx: FileContext, operand: str, line: int,
                                spans) -> bool:
    # sizeof(real_t) is a size_t, not a float — drop it before testing.
    operand = SIZEOF_RE.sub("", operand)
    if FLOAT_MARK_RE.search(operand):
        return True
    # Resolve identifier types only inside the enclosing function (header
    # included) so a same-named variable in another scope cannot leak in.
    # File-scope casts fall back to a short preceding window.
    scope = None
    for start, end, text in spans:
        if start <= line <= end:
            scope = text
            break
    if scope is None:
        scope = "\n".join(ctx.lines[max(0, line - 11):line])
    for name in set(re.findall(r"\b[A-Za-z_]\w*\b", operand)):
        if name in ("std", "static_cast", "const", "auto"):
            continue
        if re.search(FLOAT_DECL_FMT.format(name=re.escape(name)), scope):
            return True
    return False


# --------------------------------------------------------------------------
# Rules shared by both backends (pure text, comment/string stripped)


def check_mutex_seam(ctx: FileContext, findings):
    if ctx.is_seam(THREAD_SAFETY_SEAM):
        return
    for idx, line in enumerate(ctx.lines, start=1):
        for tok in re.findall(r"std\s*::\s*([a-z_]+)", line):
            if tok in MUTEX_TOKENS:
                findings.append(Finding(
                    ctx.rel, idx, "mutex-seam",
                    f"std::{tok} outside util/thread_safety.hpp — use "
                    "the annotated Mutex/MutexLock/CondVar"))
                break
        if re.search(r"no_thread_safety_analysis"
                     r"|SSAMR_NO_THREAD_SAFETY_ANALYSIS", line):
            findings.append(Finding(
                ctx.rel, idx, "mutex-seam",
                "thread-safety-analysis escape outside "
                "util/thread_safety.hpp"))


def check_rand(ctx: FileContext, findings):
    for idx, line in enumerate(ctx.lines, start=1):
        if re.search(r"\b(?:std\s*::\s*)?s?rand\s*\(", line) or \
                re.search(r"\brandom_device\b", line):
            findings.append(Finding(
                ctx.rel, idx, "rand",
                "nondeterministic randomness — seed util/rng.hpp instead"))


def check_clock(ctx: FileContext, cfg, findings):
    if ctx.is_seam(WALLCLOCK_SEAM):
        return
    # The proc execution backend legitimately runs on wall time (real
    # sockets, real deadlines); tools/layering.toml [clock].allowed lists
    # the files granted direct clock reads so the sanctioned set is
    # reviewed config, not scattered suppressions.
    if cfg is not None and ctx.rel in cfg.get("clock", {}).get("allowed", ()):
        return
    for idx, line in enumerate(ctx.lines, start=1):
        for tok in CLOCK_TOKENS:
            if re.search(rf"\b{tok}\b", line):
                findings.append(Finding(
                    ctx.rel, idx, "clock",
                    f"{tok} outside util/wallclock.hpp — the library "
                    "runs on virtual time (real-time files go in "
                    "layering.toml [clock].allowed)"))
                break


def check_pool_ctor(ctx: FileContext, findings):
    if ctx.pool_ctor_allowed():
        return
    for idx, line in enumerate(ctx.lines, start=1):
        if POOL_CTOR_RE.search(line):
            findings.append(Finding(
                ctx.rel, idx, "pool-ctor",
                "ThreadPool constructed outside util//tests — use "
                "ThreadPool::global() (tests: ThreadPoolOverride)"))


def check_token_rules(ctx: FileContext, cfg, findings):
    if not ctx.in_src():
        return
    timed("mutex-seam", check_mutex_seam, ctx, findings)
    timed("rand", check_rand, ctx, findings)
    timed("clock", check_clock, ctx, cfg, findings)
    timed("pool-ctor", check_pool_ctor, ctx, findings)


# --------------------------------------------------------------------------
# Units rules (config-driven, shared by both backends): the cost-model
# dimensional-safety contract from tools/layering.toml.


def balanced_region(text: str, open_idx: int) -> str:
    """Content of the bracket pair opening at text[open_idx] ('(' or '{')."""
    open_c = text[open_idx]
    close_c = ")" if open_c == "(" else "}"
    depth = 0
    for j in range(open_idx, len(text)):
        if text[j] == open_c:
            depth += 1
        elif text[j] == close_c:
            depth -= 1
            if depth == 0:
                return text[open_idx + 1:j]
    return text[open_idx + 1:]


def split_params(s: str):
    """Split a parameter list at depth-0 commas (angle brackets counted so
    template arguments stay whole)."""
    parts, depth, cur = [], 0, []
    for c in s:
        if c in "<([{":
            depth += 1
        elif c in ">)]}":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    if cur:
        parts.append("".join(cur))
    return parts


def check_raw_double_api(ctx: FileContext, cfg, findings):
    ca = (cfg or {}).get("cost-api", {})
    if ctx.rel not in set(ca.get("headers", ())) or \
            ctx.rel in set(ca.get("boundary", ())):
        return
    for m in RAW_RETURN_RE.finditer(ctx.stripped):
        line = ctx.stripped.count("\n", 0, m.start(1)) + 1
        findings.append(Finding(
            ctx.rel, line, "raw-double-cost-api",
            f"bare {m.group(1)} return in cost-model signature "
            f"'{m.group(2)}' — return a units.hpp type"))
    for m in FUNC_DECL_RE.finditer(ctx.stripped):
        name, params = m.group(1), m.group(2)
        if name in NOT_A_FUNCTION or not params.strip():
            continue
        for p in split_params(params):
            pm = RAW_PARAM_RE.match(p)
            if pm:
                line = ctx.stripped.count("\n", 0, m.start()) + 1
                findings.append(Finding(
                    ctx.rel, line, "raw-double-cost-api",
                    f"bare {pm.group(1)} parameter in cost-model signature "
                    f"'{name}' — take a units.hpp type"))
                break


def check_narrowing_unit(ctx: FileContext, cfg, findings):
    units = (cfg or {}).get("units", {})
    types = units.get("types", ())
    if not types or not ctx.in_src() or ctx.rel == units.get("seam"):
        return
    alt = "|".join(re.escape(t) for t in types)
    for m in re.finditer(
            rf"static_cast\s*<\s*(?:ssamr\s*::\s*)?({alt})\s*>",
            ctx.stripped):
        line = ctx.stripped.count("\n", 0, m.start()) + 1
        findings.append(Finding(
            ctx.rel, line, "narrowing-unit",
            f"static_cast to unit type {m.group(1)} outside units.hpp — "
            "use the named conversions in the seam"))
    for m in re.finditer(rf"\b({alt})\s*([({{])", ctx.stripped):
        inner = balanced_region(ctx.stripped, m.end() - 1)
        if not re.search(r"\.\s*value\s*\(", inner):
            continue
        line = ctx.stripped.count("\n", 0, m.start()) + 1
        findings.append(Finding(
            ctx.rel, line, "narrowing-unit",
            f"re-wrapping a quantity's .value() in {m.group(1)} outside "
            "units.hpp — convert through the seam or hoist the raw value "
            "to a named seam variable"))


def check_units_rules(ctx: FileContext, cfg, findings):
    timed("raw-double-cost-api", check_raw_double_api, ctx, cfg, findings)
    timed("narrowing-unit", check_narrowing_unit, ctx, cfg, findings)


# --------------------------------------------------------------------------
# Flow-sensitive engine (DESIGN.md §13).
#
# A statement-tree CFG is parsed out of the comment/string-stripped text of
# each function body (function_spans provides the bodies).  Both backends
# run the same analyses over the same tree: the python libclang bindings do
# not expose clang's CFG, and building the tree from text keeps the
# textual/libclang verdicts identical by construction — which the fixture
# self-test then pins.
#
# The tree is deliberately small: if/else, loops (while/for/do; switch and
# try/catch degrade to linear blocks), and simple statements.  Loops are
# analyzed as execute-0-or-1-times, which is sound for the must-close and
# taint lattices used here (no fact becomes *more* true with iteration
# count).


class Stmt:
    __slots__ = ("kind", "text", "line", "children", "else_children",
                 "cond", "start", "end")

    def __init__(self, kind, text, line, start, end,
                 children=None, else_children=None, cond=""):
        self.kind = kind          # 'if' | 'loop' | 'block' | 'simple'
        self.text = text
        self.line = line
        self.start = start        # [start, end) offsets into the span text
        self.end = end
        self.children = children or []
        self.else_children = else_children  # None = no else clause
        self.cond = cond


def _match_paren(text, i):
    """Index just past the ')' matching text[i] == '('."""
    depth = 0
    for j in range(i, len(text)):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return j + 1
    return len(text)


def _simple_end(text, i):
    """End of a simple statement starting at i: the first ';' at bracket
    depth 0 (parens/braces/brackets balanced, so brace-init and lambdas
    stay inside the statement)."""
    depth = 0
    for j in range(i, len(text)):
        c = text[j]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            if depth == 0:
                return j  # stray closer: the enclosing block's brace
            depth -= 1
        elif c == ";" and depth == 0:
            return j + 1
    return len(text)


def _parse_seq(text, i, line_of):
    """Parse statements until the enclosing '}' (consumed) or EOF.
    Returns (stmts, next_index)."""
    stmts = []
    n = len(text)
    while i < n:
        while i < n and text[i] in " \t\r\n":
            i += 1
        if i >= n:
            break
        if text[i] == "}":
            return stmts, i + 1
        st, i2 = _parse_one(text, i, line_of)
        if i2 <= i:  # malformed input; never loop forever
            i2 = i + 1
        i = i2
        if st is not None:
            stmts.append(st)
    return stmts, i


def _parse_body(text, i, line_of):
    """A statement body: either a braced block or one statement."""
    n = len(text)
    while i < n and text[i] in " \t\r\n":
        i += 1
    if i < n and text[i] == "{":
        return _parse_seq(text, i + 1, line_of)
    st, j = _parse_one(text, i, line_of)
    return ([st] if st is not None else []), j


def _parse_one(text, i, line_of):
    n = len(text)
    start = i
    m = re.match(r"[A-Za-z_]\w*", text[i:])
    kw = m.group(0) if m else ""
    if text[i] == "{":
        body, j = _parse_seq(text, i + 1, line_of)
        return Stmt("block", "", line_of(i), start, j, children=body), j
    if kw in ("if", "while", "for", "switch"):
        jp = text.find("(", i)
        if jp < 0:
            e = _simple_end(text, i)
            return Stmt("simple", text[i:e], line_of(i), start, e), e
        k = _match_paren(text, jp)
        cond = text[jp + 1:k - 1]
        body, j = _parse_body(text, k, line_of)
        if kw == "if":
            els = None
            j2 = j
            while j2 < n and text[j2] in " \t\r\n":
                j2 += 1
            if text.startswith("else", j2) and \
                    not re.match(r"\w", text[j2 + 4:j2 + 5] or " "):
                els, j = _parse_body(text, j2 + 4, line_of)
            return Stmt("if", "", line_of(i), start, j,
                        children=body, else_children=els, cond=cond), j
        kind = "loop" if kw in ("while", "for") else "block"
        return Stmt(kind, kw, line_of(i), start, j,
                    children=body, cond=cond), j
    if kw == "do":
        body, j = _parse_body(text, i + 2, line_of)
        cond = ""
        j2 = j
        while j2 < n and text[j2] in " \t\r\n":
            j2 += 1
        if text.startswith("while", j2):
            jp = text.find("(", j2)
            if jp >= 0:
                k = _match_paren(text, jp)
                cond = text[jp + 1:k - 1]
                e = text.find(";", k)
                j = (e + 1) if e >= 0 else k
        return Stmt("loop", "do", line_of(i), start, j,
                    children=body, cond=cond), j
    if kw == "try":
        jb = text.find("{", i)
        if jb < 0:
            e = _simple_end(text, i)
            return Stmt("simple", text[i:e], line_of(i), start, e), e
        body, j = _parse_seq(text, jb + 1, line_of)
        children = list(body)
        while True:
            j2 = j
            while j2 < n and text[j2] in " \t\r\n":
                j2 += 1
            if not text.startswith("catch", j2):
                break
            jp = text.find("(", j2)
            k = _match_paren(text, jp) if jp >= 0 else j2 + 5
            jb2 = text.find("{", k)
            if jb2 < 0:
                break
            cbody, j = _parse_seq(text, jb2 + 1, line_of)
            children.extend(cbody)
        return Stmt("block", "try", line_of(i), start, j,
                    children=children), j
    e = _simple_end(text, i)
    return Stmt("simple", text[i:e], line_of(i), start, e), e


def parse_function(span_text, start_line):
    """Parse one function_spans entry into (stmts, line_of, body_end_line).
    Returns (None, None, None) when no body brace is found (declarations)."""
    depth = 0
    body = -1
    for idx, c in enumerate(span_text):
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
        elif c == "{" and depth == 0:
            body = idx
            break
    if body < 0:
        return None, None, None

    def line_of(pos):
        return start_line + span_text.count("\n", 0, pos)

    stmts, end = _parse_seq(span_text, body + 1, line_of)
    return stmts, line_of, line_of(min(end, len(span_text) - 1))


def walk_simple_stmts(stmts):
    """Yield every 'simple' node, plus synthetic nodes for if/loop
    conditions (a call in a condition is still a call site)."""
    for st in stmts:
        if st.kind == "simple":
            yield st
        else:
            if st.cond:
                yield Stmt("simple", st.cond, st.line, st.start, st.start)
            yield from walk_simple_stmts(st.children)
            if st.else_children:
                yield from walk_simple_stmts(st.else_children)


def loop_intervals(stmts, span_text):
    """(start, end, has_eintr) for every loop node in the tree."""
    out = []
    for st in stmts:
        if st.kind == "loop":
            out.append((st.start, st.end,
                        "EINTR" in span_text[st.start:st.end]))
        out.extend(loop_intervals(st.children, span_text))
        if st.else_children:
            out.extend(loop_intervals(st.else_children, span_text))
    return out


# ---- fd-lifecycle --------------------------------------------------------

FD_CREATE_RE = re.compile(
    r"(?<![\w>])::\s*(socketpair|socket|accept4|accept|open|pipe2|pipe|dup)"
    r"\s*\(")
# Creation flag that makes the fd CLOEXEC atomically, per creation call.
FD_CLOEXEC_FLAG = {
    "socket": "SOCK_CLOEXEC", "socketpair": "SOCK_CLOEXEC",
    "accept4": "SOCK_CLOEXEC", "open": "O_CLOEXEC", "pipe2": "O_CLOEXEC",
}
# Calls with no CLOEXEC-at-creation form: the finding names the atomic
# replacement.
FD_CLOEXEC_ADVICE = {
    "accept": "use ::accept4(..., SOCK_CLOEXEC)",
    "pipe": "use ::pipe2(..., O_CLOEXEC)",
    "dup": "use ::fcntl(fd, F_DUPFD_CLOEXEC, 0)",
}
# Functions assumed not to throw when deciding unwind edges.  Everything
# else (a lowercase free-function call that is not ::-qualified and not a
# member call) conservatively may throw — SSAMR_REQUIRE is everywhere.
NOTHROW_CALLS = {
    "close_fd", "strerror", "htonl", "htons", "ntohl", "ntohs", "memcpy",
    "memset", "move", "min", "max", "clamp", "swap",
}
FREE_CALL_RE = re.compile(r"(?<![\w.:>])([a-z_]\w*)\s*\(")
THROW_MARK_RE = re.compile(
    r"\bthrow\b|\bSSAMR_REQUIRE\b|\bSSAMR_ASSERT\b|\bfail\s*\(")
TERMINAL_THROW_RE = re.compile(r"^\s*(?:fail\s*\(|throw\b)")
RETURN_RE = re.compile(r"^\s*(?:co_)?return\b")


def may_unwind(text):
    if THROW_MARK_RE.search(text):
        return True
    for name in FREE_CALL_RE.findall(text):
        if name not in NOTHROW_CALLS and name not in NOT_A_FUNCTION:
            return True
    return False


def fd_creations(span_text):
    """Creation sites in one function body.  Each entry:
    {fn, offset, var (None = untracked), birth_transfer, args}."""
    out = []
    for m in FD_CREATE_RE.finditer(span_text):
        fn = m.group(1)
        args = balanced_region(span_text, m.end() - 1)
        before = span_text[:m.start()].rstrip()
        birth_transfer = before.endswith(("(", ","))
        var = None
        if not birth_transfer:
            if fn in ("socketpair", "pipe", "pipe2"):
                am = re.search(r"([A-Za-z_]\w*)\s*\)?\s*$", args)
                var = am.group(1) if am else None
            else:
                am = re.search(r"([A-Za-z_]\w*)\s*=\s*$", before + " ")
                var = am.group(1) if am else None
        out.append({"fn": fn, "offset": m.start(), "var": var,
                    "birth_transfer": birth_transfer, "args": args})
    return out


def _fd_closes(text, var):
    return re.search(
        rf"(?:\bclose_fd|::\s*close)\s*\([^()]*\b{re.escape(var)}\b", text)


_FD_TRANSFER_FMTS = (
    r"\breturn\b[^;]*\b{v}\b",                       # returned to the caller
    r"\b[A-Z]\w*\s*[({{][^;]*\b{v}\b",               # handed to a ctor/agg
    r"\.\s*(?:reset|push_back|emplace_back|assign)\s*\([^;]*\b{v}\b",
    r"(?:\w+_|\]|\.\w+|->\w+)\s*=[^=][^;]*\b{v}\b",  # stored into a member
)


def _fd_transfers(text, var):
    v = re.escape(var)
    return any(re.search(f.format(v=v), text) for f in _FD_TRANSFER_FMTS)


def _fd_refine(cond, var, status):
    """Branch refinement for `if (cond)`: C fd idioms make the fd invalid
    on exactly one side of a sign test."""
    if status != "open":
        return status, status
    v = re.escape(var)
    if re.search(rf"\b{v}\b(?:\s*\.\s*\w+\s*\(\s*\))?\s*(?:<\s*0|==\s*-1)",
                 cond):
        return "off", "open"
    if re.search(rf"\b{v}\b(?:\s*\.\s*\w+\s*\(\s*\))?\s*(?:>=\s*0|!=\s*-1)",
                 cond):
        return "open", "off"
    return "open", "open"


# Creation inside an if-condition: polarity of the comparison decides which
# branch holds a valid fd.  `< 0`/`== -1`/`!= 0` test failure; `>= 0`/
# `== 0`/`!= -1` test success.
_COND_FAIL_RE = re.compile(r"\)\s*(?:<\s*0|==\s*-1|!=\s*0)\s*$")
_COND_OK_RE = re.compile(r"\)\s*(?:>=\s*0|==\s*0|!=\s*-1)\s*$")


class FdTracker:
    """Must-close walk for one creation site over one function tree."""

    def __init__(self, ctx, cr, span_text):
        self.ctx = ctx
        self.cr = cr
        self.var = cr["var"]
        self.var_re = re.compile(rf"\b{re.escape(self.var)}\b")
        self.create_re = re.compile(
            rf"(?<![\w>])::\s*{cr['fn']}\s*\(")
        self.leaks = {}  # line -> message

    def _is_creation(self, text):
        if not self.create_re.search(text):
            return False
        crs = fd_creations(text)
        return any(c["var"] == self.var for c in crs)

    def _leak(self, line, how):
        self.leaks.setdefault(
            line,
            f"fd '{self.var}' from ::{self.cr['fn']} leaks {how} — close "
            "it or transfer ownership (return it, hand it to a "
            "constructor, or store it)")

    def walk_seq(self, stmts, statuses):
        for st in stmts:
            if not statuses:
                break
            statuses = self.walk_stmt(st, statuses)
        return statuses

    def walk_stmt(self, st, statuses):
        if st.kind == "simple":
            return self.walk_simple(st, statuses)
        if st.kind == "loop":
            inner = self.walk_seq(st.children, set(statuses))
            return statuses | inner
        if st.kind == "block":
            if st.cond:  # switch condition may contain calls — treat flat
                statuses = self.walk_simple(
                    Stmt("simple", st.cond, st.line, st.start, st.start),
                    statuses)
            return self.walk_seq(st.children, statuses)
        # if
        cond = st.cond
        created = self._is_creation(cond)
        then_in, else_in = set(), set()
        for s in statuses:
            if created:
                s = "open"
                if _COND_FAIL_RE.search(cond.strip()):
                    then_in.add("off")
                    else_in.add(s)
                    continue
                if _COND_OK_RE.search(cond.strip()):
                    then_in.add(s)
                    else_in.add("off")
                    continue
            t_s, e_s = _fd_refine(cond, self.var, s)
            then_in.add(t_s)
            else_in.add(e_s)
        then_out = self.walk_seq(st.children, then_in)
        if st.else_children is not None:
            else_out = self.walk_seq(st.else_children, else_in)
        else:
            else_out = else_in
        return then_out | else_out

    def walk_simple(self, st, statuses):
        text = st.text
        out = set()
        for s in statuses:
            cur = s
            if self._is_creation(text):
                cur = "open"
            if cur == "open" and (_fd_closes(text, self.var)
                                  or _fd_transfers(text, self.var)):
                cur = "off"
            if RETURN_RE.match(text):
                if cur == "open":
                    self._leak(st.line, "at this return")
                continue
            if TERMINAL_THROW_RE.match(text.lstrip()):
                if cur == "open":
                    self._leak(st.line, "on this throw path")
                continue
            if cur == "open" and may_unwind(text):
                self._leak(st.line, "if this statement throws")
            out.add(cur)
        return out


def check_fd_lifecycle(ctx: FileContext, findings):
    if not ctx.in_src() or not FD_CREATE_RE.search(ctx.stripped):
        return
    for start_line, _end_line, span_text in function_spans(ctx):
        stmts, line_of, body_end = parse_function(span_text, start_line)
        if stmts is None:
            continue
        for cr in fd_creations(span_text):
            line = line_of(cr["offset"])
            fn = cr["fn"]
            flag = FD_CLOEXEC_FLAG.get(fn)
            if flag is not None and flag not in cr["args"]:
                findings.append(Finding(
                    ctx.rel, line, "fd-lifecycle",
                    f"::{fn} without {flag} — descriptors must be CLOEXEC "
                    "at creation (a fork between creation and fcntl leaks "
                    "the fd into the child's exec image)"))
            elif fn in FD_CLOEXEC_ADVICE:
                findings.append(Finding(
                    ctx.rel, line, "fd-lifecycle",
                    f"::{fn} cannot create the fd CLOEXEC atomically — "
                    f"{FD_CLOEXEC_ADVICE[fn]}"))
            if cr["var"] is None or cr["birth_transfer"]:
                continue
            tracker = FdTracker(ctx, cr, span_text)
            leftover = tracker.walk_seq(stmts, {"untracked"})
            if "open" in leftover:
                tracker._leak(body_end, "at the end of the function")
            for lline, msg in sorted(tracker.leaks.items()):
                findings.append(Finding(ctx.rel, lline, "fd-lifecycle", msg))


# ---- eintr-retry ---------------------------------------------------------

RAW_SYSCALL_RE = re.compile(
    r"(?<![\w>])::\s*(read|write|poll|waitpid|connect)\b\s*\(")


def check_eintr_retry(ctx: FileContext, cfg, findings):
    if cfg is None or not ctx.in_src():
        return
    if not RAW_SYSCALL_RE.search(ctx.stripped):
        return
    wrappers = set(cfg.get("eintr", {}).get("wrappers", ()))
    if ctx.rel not in wrappers:
        for m in RAW_SYSCALL_RE.finditer(ctx.stripped):
            line = ctx.stripped.count("\n", 0, m.start()) + 1
            findings.append(Finding(
                ctx.rel, line, "eintr-retry",
                f"raw ::{m.group(1)} outside the sanctioned syscall seam "
                "(layering.toml [eintr].wrappers) — call the net:: "
                "wrapper so the EINTR protocol exists exactly once"))
        return
    # Inside a wrapper: every raw call site must be dominated by a retry
    # loop that handles EINTR.
    for start_line, _e, span_text in function_spans(ctx):
        stmts, line_of, _ = parse_function(span_text, start_line)
        if stmts is None:
            continue
        loops = loop_intervals(stmts, span_text)
        for m in RAW_SYSCALL_RE.finditer(span_text):
            ok = any(s <= m.start() < e and has_eintr
                     for s, e, has_eintr in loops)
            if not ok:
                findings.append(Finding(
                    ctx.rel, line_of(m.start()), "eintr-retry",
                    f"raw ::{m.group(1)} in a wrapper file is not "
                    "dominated by an EINTR retry loop"))


# ---- lock-escape ---------------------------------------------------------

GUARDED_DECL_RE = re.compile(r"\b(\w+)\s+SSAMR_GUARDED_BY\s*\(")
MUTEXLOCK_RE = re.compile(r"\bMutexLock\b")


def _lock_scopes(stmts, parent_end):
    """(scope_start, scope_end) per MutexLock declaration: from the end of
    the declaring statement to the end of its enclosing block."""
    scopes = []
    for st in stmts:
        if st.kind == "simple" and MUTEXLOCK_RE.search(st.text):
            scopes.append((st.end, parent_end))
        scopes.extend(_lock_scopes(st.children, st.end))
        if st.else_children:
            scopes.extend(_lock_scopes(st.else_children, st.end))
    return scopes


def check_lock_escape(ctx: FileContext, findings):
    if not ctx.in_src() or ctx.is_seam(THREAD_SAFETY_SEAM):
        return
    guarded = set(GUARDED_DECL_RE.findall(ctx.stripped))
    if not guarded or not MUTEXLOCK_RE.search(ctx.stripped):
        return
    for start_line, _e, span_text in function_spans(ctx):
        stmts, line_of, _ = parse_function(span_text, start_line)
        if stmts is None:
            continue
        for s, e in _lock_scopes(stmts, len(span_text)):
            scope = span_text[s:e]
            after = span_text[e:]
            for g in sorted(guarded):
                gq = re.escape(g)
                for m in re.finditer(rf"\breturn\b[^;]*&\s*{gq}\b", scope):
                    findings.append(Finding(
                        ctx.rel, line_of(s + m.start()), "lock-escape",
                        f"address of GUARDED_BY field '{g}' escapes via "
                        "return — the pointer outlives the MutexLock"))
                cands = set()
                for m in re.finditer(
                        rf"[&*]\s*(\w+)\s*=\s*[^;]*\b{gq}\b", scope):
                    cands.add(m.group(1))
                for m in re.finditer(rf"\b(\w+)\s*=\s*&\s*{gq}\b", scope):
                    cands.add(m.group(1))
                cands.discard(g)
                for cand in sorted(cands):
                    cq = re.escape(cand)
                    um = re.search(rf"\b{cq}\b", after)
                    if um:
                        findings.append(Finding(
                            ctx.rel, line_of(e + um.start()), "lock-escape",
                            f"'{cand}' aliases GUARDED_BY field '{g}' and "
                            "is used after its MutexLock scope ends"))
                    rm = re.search(rf"\breturn\s+{cq}\s*;", scope)
                    if rm:
                        findings.append(Finding(
                            ctx.rel, line_of(s + rm.start()), "lock-escape",
                            f"'{cand}' aliases GUARDED_BY field '{g}' and "
                            "escapes via return"))


# ---- determinism-taint ---------------------------------------------------


def _split_assign(text):
    """(lhs_var, rhs) of the first depth-0 assignment, or (None, None).
    Compound assignments (+= etc.) count; comparisons do not."""
    depth = 0
    for j, c in enumerate(text):
        if c in "([{<":
            depth += 1 if c != "<" else 0
        elif c in ")]}>":
            depth -= 1 if c != ">" else 0
        elif c == "=" and depth == 0:
            if j + 1 < len(text) and text[j + 1] == "=":
                return None, None
            if j > 0 and text[j - 1] in "=!<>":
                return None, None
            lhs = text[:j].rstrip()
            if lhs.endswith(("+", "-", "*", "/", "%", "&", "|", "^")):
                lhs = lhs[:-1].rstrip()
            rhs = text[j + 1:]
            lhs = re.sub(r"\[[^\]]*\]\s*$", "", lhs)
            vm = re.search(r"([A-Za-z_]\w*)\s*$", lhs)
            return (vm.group(1) if vm else None), rhs
    return None, None


def check_determinism_taint(ctx: FileContext, cfg, findings):
    taint_cfg = (cfg or {}).get("taint", {})
    sources = list(taint_cfg.get("sources", ()))
    sinks = list(taint_cfg.get("sinks", ()))
    sanitizers = list(taint_cfg.get("sanitizers", ()))
    if not sources or not sinks or not ctx.in_src():
        return
    if ctx.is_seam(WALLCLOCK_SEAM):
        return
    tok_sources = [s for s in sources if not s.startswith("/")]
    raw_sources = [s for s in sources if s.startswith("/")]
    src_re = re.compile(
        r"\b(?:" + "|".join(re.escape(s) for s in tok_sources) + r")\b") \
        if tok_sources else None
    if (src_re is None or not src_re.search(ctx.stripped)) and \
            not any(s in ctx.raw for s in raw_sources):
        return
    sink_re = re.compile(
        r"(?:\.|->)\s*(?:" + "|".join(re.escape(s) for s in sinks) +
        r")\s*\(")
    san_re = re.compile(
        r"\b(?:" + "|".join(re.escape(s) for s in sanitizers) + r")\s*\(") \
        if sanitizers else None

    def sanitized(expr):
        return san_re is not None and san_re.search(expr)

    # Lines whose RAW text reads /proc (strings are blanked in `stripped`,
    # so path sources are matched against the raw line).
    raw_source_lines = {
        idx for idx, line in enumerate(ctx.raw_lines, start=1)
        if any(s in line for s in raw_sources)}

    def has_source(stmt):
        return (src_re is not None and src_re.search(stmt.text)) or \
            stmt.line in raw_source_lines

    for start_line, _e, span_text in function_spans(ctx):
        stmts, line_of, _ = parse_function(span_text, start_line)
        if stmts is None:
            continue
        simple = list(walk_simple_stmts(stmts))
        tainted = set()
        for _pass in range(10):
            grew = False
            for st in simple:
                is_src = has_source(st)
                lhs, rhs = _split_assign(st.text)
                if lhs is not None and not sanitized(rhs):
                    rhs_tainted = (src_re is not None
                                   and src_re.search(rhs)) or \
                        (st.line in raw_source_lines) or \
                        any(re.search(rf"\b{re.escape(t)}\b", rhs)
                            for t in tainted)
                    if rhs_tainted and lhs not in tainted:
                        tainted.add(lhs)
                        grew = True
                # A source call handed `&x` writes a measurement into x
                # (the run_phase out-param idiom).
                if is_src and not sanitized(st.text):
                    for m in re.finditer(r"&\s*([A-Za-z_]\w*)", st.text):
                        if m.group(1) not in tainted:
                            tainted.add(m.group(1))
                            grew = True
            if not grew:
                break
        for st in simple:
            for m in sink_re.finditer(st.text):
                op = st.text.find("(", m.end() - 1)
                args = balanced_region(st.text, op) if op >= 0 else ""
                if sanitized(args):
                    continue
                dirty = (src_re is not None and src_re.search(args)) or \
                    any(re.search(rf"\b{re.escape(t)}\b", args)
                        for t in tainted)
                if dirty:
                    findings.append(Finding(
                        ctx.rel, st.line, "determinism-taint",
                        "measured wall time reaches a deterministic "
                        "trace/CSV sink without passing a [taint]."
                        "sanitizers seam (ProcOptions::to_virtual)"))


def check_flow_rules(ctx: FileContext, cfg, findings):
    timed("fd-lifecycle", check_fd_lifecycle, ctx, findings)
    timed("eintr-retry", check_eintr_retry, ctx, cfg, findings)
    timed("lock-escape", check_lock_escape, ctx, findings)
    timed("determinism-taint", check_determinism_taint, ctx, cfg, findings)


# --------------------------------------------------------------------------
# Textual backend for the type-dependent rules


def check_float_cast_textual(ctx: FileContext, findings):
    if not ctx.in_src():
        return
    spans = function_spans(ctx)
    for m in re.finditer(r"static_cast\s*<([^<>]+)>\s*\(", ctx.stripped):
        dest = m.group(1).strip()
        if not INT_DEST_RE.fullmatch(dest):
            continue
        operand = operand_of_cast(ctx.stripped, m.end() - 1)
        line = ctx.stripped.count("\n", 0, m.start()) + 1
        if not operand_is_floating_textual(ctx, operand, line, spans):
            continue
        if has_adjacent_guard(ctx, line, operand):
            continue
        findings.append(Finding(
            ctx.rel, line, "float-cast",
            f"float->int static_cast<{dest}> without an adjacent "
            "clamp/guard (UB when out of range)"))


def check_unordered_iter_textual(ctx: FileContext, findings):
    if not ctx.in_src() or "unordered_" not in ctx.stripped:
        return
    unordered_names = set(UNORDERED_DECL_RE.findall(ctx.stripped))
    spans = function_spans(ctx)
    for m in RANGE_FOR_RE.finditer(ctx.stripped):
        header = m.group(1)
        if ":" not in header:
            continue
        range_expr = header.rsplit(":", 1)[1]
        names = set(re.findall(r"\b[A-Za-z_]\w*\b", range_expr))
        if "unordered_" not in range_expr and not (names & unordered_names):
            continue
        line = ctx.stripped.count("\n", 0, m.start()) + 1
        for start, end, text in spans:
            if start <= line <= end and OUTPUT_MARK_RE.search(text):
                findings.append(Finding(
                    ctx.rel, line, "unordered-iter",
                    "iteration over an unordered container in a function "
                    "feeding RunTrace/PartitionResult/CSV — hash order is "
                    "not deterministic"))
                break


def lint_file_textual(ctx: FileContext, cfg, findings):
    check_token_rules(ctx, cfg, findings)
    timed("float-cast", check_float_cast_textual, ctx, findings)
    timed("unordered-iter", check_unordered_iter_textual, ctx, findings)
    check_units_rules(ctx, cfg, findings)
    check_flow_rules(ctx, cfg, findings)


# --------------------------------------------------------------------------
# libclang backend: token rules reuse the text layer (identical verdicts);
# the type-dependent rules use the real AST.


def load_cindex():
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return None
    override = os.environ.get("SSAMR_LINT_LIBCLANG")
    if override:
        cindex.Config.set_library_file(override)
    try:
        cindex.Index.create()
    except Exception:
        for candidate in sorted(Path("/usr/lib").rglob("libclang-*.so*"),
                                reverse=True):
            try:
                cindex.Config.set_library_file(str(candidate))
                cindex.Index.create()
                break
            except Exception:
                cindex.Config.loaded = False
        else:
            return None
    return cindex


FLOATING_KINDS = None
INTEGRAL_KINDS = None


def init_type_kinds(cindex):
    global FLOATING_KINDS, INTEGRAL_KINDS
    tk = cindex.TypeKind
    FLOATING_KINDS = {tk.FLOAT, tk.DOUBLE, tk.LONGDOUBLE}
    INTEGRAL_KINDS = {
        tk.CHAR_U, tk.UCHAR, tk.USHORT, tk.UINT, tk.ULONG, tk.ULONGLONG,
        tk.CHAR_S, tk.SCHAR, tk.SHORT, tk.INT, tk.LONG, tk.LONGLONG,
    }


def expr_children(cindex, cursor):
    return [c for c in cursor.get_children()
            if c.kind.is_expression() or c.kind.is_statement()]


def enclosing_function_feeds_output(ctx, fn_cursor):
    if fn_cursor is None:
        return False
    extent = fn_cursor.extent
    text = "\n".join(
        ctx.lines[extent.start.line - 1:extent.end.line])
    return bool(OUTPUT_MARK_RE.search(text))


def check_ast_rules(cindex, ctx_by_path, cursor, fn_cursor, findings):
    ck = cindex.CursorKind
    if cursor.kind in (ck.FUNCTION_DECL, ck.CXX_METHOD, ck.CONSTRUCTOR,
                       ck.DESTRUCTOR, ck.FUNCTION_TEMPLATE, ck.LAMBDA_EXPR):
        if cursor.is_definition() or cursor.kind == ck.LAMBDA_EXPR:
            fn_cursor = cursor
    loc_file = cursor.location.file
    ctx = ctx_by_path.get(str(Path(loc_file.name).resolve())) if loc_file \
        else None
    if ctx is not None:
        if cursor.kind == ck.CXX_STATIC_CAST_EXPR:
            dest = cursor.type.get_canonical()
            operands = expr_children(cindex, cursor)
            src_type = None
            if operands:
                src_type = operands[-1].type.get_canonical()
            if (src_type is not None and src_type.kind in FLOATING_KINDS
                    and dest.kind in INTEGRAL_KINDS):
                line = cursor.extent.start.line
                end = min(cursor.extent.end.line, len(ctx.lines))
                operand_text = "\n".join(ctx.lines[line - 1:end])
                if not has_adjacent_guard(ctx, line, operand_text):
                    findings.append(Finding(
                        ctx.rel, line, "float-cast",
                        f"float->int static_cast<{cursor.type.spelling}> "
                        "without an adjacent clamp/guard (UB when out of "
                        "range)"))
        elif cursor.kind == ck.CXX_FOR_RANGE_STMT:
            range_types = [c.type.spelling for c in cursor.get_children()]
            if any("unordered_map" in t or "unordered_set" in t
                   or "unordered_multi" in t for t in range_types):
                if enclosing_function_feeds_output(ctx, fn_cursor):
                    findings.append(Finding(
                        ctx.rel, cursor.extent.start.line, "unordered-iter",
                        "iteration over an unordered container in a "
                        "function feeding RunTrace/PartitionResult/CSV — "
                        "hash order is not deterministic"))
    for child in cursor.get_children():
        check_ast_rules(cindex, ctx_by_path, child, fn_cursor, findings)


def lint_libclang(cindex, tus, ctx_by_path, cfg, findings):
    """tus: list of (main_file_path, compile_args)."""
    init_type_kinds(cindex)
    index = cindex.Index.create()
    for ctx in ctx_by_path.values():
        check_token_rules(ctx, cfg, findings)
        check_units_rules(ctx, cfg, findings)
        check_flow_rules(ctx, cfg, findings)
    seen_tu_errors = []
    for path, args in tus:
        try:
            tu = index.parse(str(path), args=args)
        except cindex.TranslationUnitLoadError as e:
            seen_tu_errors.append(f"{path}: {e}")
            continue
        check_ast_rules(cindex, ctx_by_path, tu.cursor, None, findings)
    for err in seen_tu_errors:
        print(f"warning: libclang failed to parse {err}", file=sys.stderr)


# --------------------------------------------------------------------------
# Drivers


def compile_db_args(build_dir: Path):
    """Map resolved src file -> compile args (without -c/-o/the file)."""
    db_path = build_dir / "compile_commands.json"
    if not db_path.is_file():
        return {}
    out = {}
    for entry in json.loads(db_path.read_text()):
        f = Path(entry["directory"], entry["file"]).resolve()
        args = entry.get("arguments")
        if args is None:
            args = entry.get("command", "").split()
        keep, skip_next = [], True  # first token is the compiler
        for a in args:
            if skip_next:
                skip_next = False
                continue
            if a in ("-c", "-o"):
                skip_next = a == "-o"
                continue
            if Path(a).resolve() == f if not a.startswith("-") else False:
                continue
            keep.append(a)
        out[f] = keep
    return out


def default_args():
    return ["-xc++", f"-std=c++20", "-I", str(SRC)]


def collect_findings(files, backend, build_dir, pretend=None, cfg=None):
    """files: list of Paths.  pretend: map Path -> pretend repo-relative
    path (fixture mode).  cfg: parsed tools/layering.toml (or None).
    Returns (findings, backend_used)."""
    ctx_by_path = {}
    for f in files:
        rp = pretend.get(f) if pretend else None
        ctx_by_path[str(f.resolve())] = FileContext(f, pretend_rel=rp)

    findings = []
    cindex = load_cindex() if backend in ("auto", "libclang") else None
    if backend == "libclang" and cindex is None:
        print("error: --backend=libclang requested but python clang "
              "bindings / libclang are unavailable", file=sys.stderr)
        sys.exit(2)

    if cindex is not None:
        db = compile_db_args(build_dir) if build_dir else {}
        tus = []
        for f in files:
            rf = f.resolve()
            if rf.suffix in (".cpp", ".cc", ".cxx"):
                tus.append((rf, db.get(rf, default_args())))
        headers_only = [f for f in files
                        if f.resolve().suffix in (".hpp", ".h")]
        # Headers not reached through any listed TU still get token rules
        # (already applied); AST rules need a TU, so parse headers directly.
        for h in headers_only:
            tus.append((h.resolve(), default_args()))
        lint_libclang(cindex, tus, ctx_by_path, cfg, findings)
        used = "libclang"
    else:
        for ctx in ctx_by_path.values():
            lint_file_textual(ctx, cfg, findings)
        used = "textual"

    kept, seen = [], set()
    for fd in findings:
        ctx = next((c for c in ctx_by_path.values() if c.rel == fd.path),
                   None)
        if ctx is not None and ctx.suppressed(fd.line, fd.rule):
            continue
        if fd.key() in seen:
            continue
        seen.add(fd.key())
        kept.append(fd)
    kept.sort(key=Finding.key)
    return kept, used


def default_file_set(build_dir):
    files = sorted(SRC.rglob("*.cpp")) + sorted(SRC.rglob("*.hpp"))
    return [f for f in files if f.is_file()]


def count_suppressions(files, pretend=None):
    """Per-rule `ssamr-lint: allow(...)` marker counts and sites over the
    src/-relative subset of `files`."""
    counts, sites = {}, {}
    for f in files:
        rel = pretend.get(f) if pretend else None
        rel = rel if rel is not None else rel_to_repo(f)
        if not rel.startswith("src/"):
            continue
        try:
            lines = f.read_text(encoding="utf-8",
                                errors="replace").splitlines()
        except OSError:
            continue
        for idx, line in enumerate(lines, start=1):
            m = SUPPRESS_RE.search(line)
            if not m:
                continue
            for rule in (r.strip() for r in m.group(1).split(",")):
                counts[rule] = counts.get(rule, 0) + 1
                sites.setdefault(rule, []).append(f"{rel}:{idx}")
    return counts, sites


def enforce_budget(files, budget_path, report_path):
    """Returns a list of violation strings (empty = within budget)."""
    counts, sites = count_suppressions(files)
    if report_path:
        Path(report_path).write_text(json.dumps(
            {"counts": dict(sorted(counts.items())),
             "sites": {k: sorted(v) for k, v in sorted(sites.items())}},
            indent=2) + "\n")
    problems = []
    if budget_path:
        budget = json.loads(Path(budget_path).read_text())
        budget = {k: v for k, v in budget.items() if not k.startswith("_")}
        for rule in sorted(set(counts) | set(budget)):
            have = counts.get(rule, 0)
            allowed = budget.get(rule, 0)
            if have > allowed:
                where = ", ".join(sites.get(rule, []))
                problems.append(
                    f"suppression budget exceeded for [{rule}]: {have} "
                    f"allow() markers vs budget {allowed} ({where}) — "
                    "fix the finding or raise the budget in "
                    f"{budget_path} with review")
    return problems


def run_lint(args):
    files = [Path(f) for f in args.files] if args.files \
        else default_file_set(args.build)
    cfg = load_config(args.config)
    pretend = None
    if args.pretend:
        if len(files) != 1:
            print("error: --pretend requires exactly one input file",
                  file=sys.stderr)
            return 2
        pretend = {files[0]: args.pretend}
    findings, used = collect_findings(files, args.backend, args.build,
                                      pretend=pretend, cfg=cfg)
    if args.select:
        selected = {r.strip() for r in args.select.split(",")}
        unknown = selected - set(RULES)
        if unknown:
            print(f"error: --select of unknown rule(s): "
                  f"{', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
        findings = [fd for fd in findings if fd.rule in selected]
    for fd in findings:
        print(fd)
    budget_problems = []
    if args.budget or args.suppressions_out:
        budget_problems = enforce_budget(files, args.budget,
                                         args.suppressions_out)
        for p in budget_problems:
            print(p)
    n = len(findings)
    print(f"ssamr_lint ({used} backend): {len(files)} files, "
          f"{n} finding{'s' if n != 1 else ''}", file=sys.stderr)
    if args.timing_out:
        write_timings(args.timing_out, used, len(files))
    return 1 if findings or budget_problems else 0


# --------------------------------------------------------------------------
# Architecture conformance: the include-graph layering gate


def scan_include_graph():
    """Scan src/ quoted includes.  Returns (dirs, edges, hygiene) where
    edges maps (from_dir, to_dir) -> [provenance strings] for cross-dir
    edges, and hygiene lists malformed includes."""
    dirs, edges, hygiene = set(), {}, []
    for f in sorted(SRC.rglob("*.cpp")) + sorted(SRC.rglob("*.hpp")):
        rel = f.relative_to(SRC)
        if len(rel.parts) < 2:
            continue  # no top-level src files today; nothing to attribute
        d = rel.parts[0]
        dirs.add(d)
        text = f.read_text(encoding="utf-8", errors="replace")
        for m in INCLUDE_RE.finditer(text):
            inc = m.group(1)
            site = f"src/{rel}:{text.count(chr(10), 0, m.start()) + 1}"
            if inc.startswith(("..", "/", "./")) or "\\" in inc:
                hygiene.append(f"{site}: non-canonical include \"{inc}\" — "
                               "quoted includes are src-relative")
                continue
            if "/" not in inc:
                hygiene.append(f"{site}: include \"{inc}\" must carry its "
                               f"directory (\"{d}/{inc}\")")
                continue
            if inc.endswith(".cpp"):
                hygiene.append(f"{site}: include of a translation unit "
                               f"\"{inc}\"")
                continue
            if not (SRC / inc).is_file():
                hygiene.append(f"{site}: include of nonexistent "
                               f"\"{inc}\"")
                continue
            tgt = inc.split("/")[0]
            if tgt != d:
                edges.setdefault((d, tgt), []).append(site)
    return dirs, edges, hygiene


def find_cycle(adj):
    """One cycle in adj (dir -> set of dirs), as a node list, or None."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in adj}
    stack = []

    def dfs(n):
        color[n] = GREY
        stack.append(n)
        for s in sorted(adj.get(n, ())):
            if color.get(s, WHITE) == GREY:
                return stack[stack.index(s):] + [s]
            if color.get(s, WHITE) == WHITE:
                cyc = dfs(s)
                if cyc:
                    return cyc
        stack.pop()
        color[n] = BLACK
        return None

    for n in sorted(adj):
        if color[n] == WHITE:
            cyc = dfs(n)
            if cyc:
                return cyc
    return None


def emit_dot(path, order, edges):
    lines = ["// Directory-level include graph of src/ — generated by",
             "// tools/ssamr_lint.py --emit-graph; layers from "
             "tools/layering.toml.",
             "digraph ssamr_includes {",
             "  rankdir=BT;",
             "  node [shape=box, fontname=\"Helvetica\"];"]
    for group in order:
        names = "; ".join(f'"{d}"' for d in group)
        lines.append(f"  {{ rank=same; {names}; }}")
    for (a, b), sites in sorted(edges.items()):
        lines.append(f'  "{a}" -> "{b}" [tooltip="{len(sites)} include(s)"];')
    lines.append("}")
    out = Path(path)
    out.write_text("\n".join(lines) + "\n")
    dot = shutil.which("dot")
    if dot:
        svg = out.with_suffix(".svg")
        subprocess.run([dot, "-Tsvg", str(out), "-o", str(svg)], check=False)
        print(f"include graph: {out} (rendered {svg})")
    else:
        print(f"include graph: {out} (graphviz `dot` not installed — "
              "textual DOT only)")


def run_layering(args):
    cfg = load_config(args.config)
    if cfg is None:
        print("error: --layering needs a readable config", file=sys.stderr)
        return 2
    order = cfg.get("layers", {}).get("order", [])
    layer_of = {d: i for i, group in enumerate(order) for d in group}
    declared = {(a, b)
                for a, targets in cfg.get("edges", {}).items()
                for b in targets}
    for spec in args.drop_edge or ():
        a, sep, b = spec.partition(":")
        if not sep or (a, b) not in declared:
            print(f"error: --drop-edge {spec}: no declared edge "
                  f"'{a} -> {b}' in {args.config}", file=sys.stderr)
            return 2
        declared.discard((a, b))

    problems = []
    for a, b in sorted(declared):
        if a not in layer_of:
            problems.append(f"[edges] source '{a}' is not in [layers].order")
        elif b not in layer_of:
            problems.append(f"[edges] target '{b}' is not in [layers].order")
        elif layer_of[b] >= layer_of[a]:
            problems.append(
                f"declared back-edge {a} -> {b}: '{b}' is not in a "
                f"strictly lower layer than '{a}'")

    dirs, edges, hygiene = timed("layering", scan_include_graph)
    problems.extend(hygiene)
    for d in sorted(dirs):
        if d not in layer_of:
            problems.append(f"src/{d}/ is not assigned to a layer in "
                            f"{args.config}")
    for (a, b), sites in sorted(edges.items()):
        if (a, b) not in declared:
            problems.append(
                f"undeclared include edge {a} -> {b} (first site "
                f"{sites[0]}) — declare it in [edges] of {args.config} "
                "or remove the include")
        elif layer_of.get(b, -1) >= layer_of.get(a, len(order)):
            problems.append(f"back-edge include {a} -> {b} at {sites[0]}")

    adj = {}
    for (a, b) in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set())
    cyc = find_cycle(adj)
    if cyc:
        problems.append("include cycle: " + " -> ".join(cyc))

    for a, b in sorted(declared - set(edges)):
        problems.append(f"declared edge {a} -> {b} is unused — remove it "
                        f"from [edges] of {args.config}")

    if args.emit_graph:
        emit_dot(args.emit_graph, order, edges)
    for p in problems:
        print(f"layering: {p}")
    n = len(problems)
    print(f"ssamr_lint layering: {len(dirs)} directories, "
          f"{len(edges)} include edges, {n} problem{'s' if n != 1 else ''}",
          file=sys.stderr)
    if args.timing_out:
        write_timings(args.timing_out, "layering", len(dirs))
    return 1 if problems else 0


def run_check_fixtures(args):
    fixture_dir = Path(args.check_fixtures)
    fixtures = sorted(fixture_dir.glob("*.cpp")) + \
        sorted(fixture_dir.glob("*.hpp"))
    if not fixtures:
        print(f"error: no fixtures in {fixture_dir}", file=sys.stderr)
        return 2

    expected = set()
    pretend = {}
    for f in fixtures:
        pretend[f] = f"src/lint_fixtures/{f.name}"
        for idx, line in enumerate(f.read_text().splitlines(), start=1):
            m = EXPECT_RE.search(line)
            if m:
                for rule in (r.strip() for r in m.group(1).split(",")):
                    if rule not in RULES:
                        print(f"error: {f.name}:{idx} expects unknown rule "
                              f"'{rule}'", file=sys.stderr)
                        return 2
                    expected.add((pretend[f], idx, rule))

    findings, used = collect_findings(fixtures, args.backend, args.build,
                                      pretend=pretend,
                                      cfg=load_config(args.config))
    actual = {fd.key() for fd in findings}
    missing = expected - actual
    unexpected = actual - expected
    for path, line, rule in sorted(missing):
        print(f"FIXTURE MISMATCH: expected [{rule}] at {path}:{line} "
              "— did not fire")
    for path, line, rule in sorted(unexpected):
        print(f"FIXTURE MISMATCH: unexpected [{rule}] at {path}:{line}")
    fired_rules = {rule for _, _, rule in expected}
    silent = set(RULES) - fired_rules
    if silent:
        print(f"FIXTURE GAP: no fixture exercises rule(s): "
              f"{', '.join(sorted(silent))}")
    ok = not missing and not unexpected and not silent
    status = "ok" if ok else "FAILED"
    print(f"ssamr_lint fixtures ({used} backend): {len(fixtures)} files, "
          f"{len(expected)} expected findings — {status}")
    if args.timing_out:
        write_timings(args.timing_out, used, len(fixtures))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="*", help="files to lint "
                    "(default: all of src/ via the compile database)")
    ap.add_argument("-p", "--build", type=Path, default=REPO / "build",
                    help="build dir holding compile_commands.json")
    ap.add_argument("--backend", choices=("auto", "libclang", "textual"),
                    default="auto")
    ap.add_argument("--check-fixtures", metavar="DIR",
                    help="self-test against a fixture directory")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--config", type=Path, default=DEFAULT_CONFIG,
                    help="layering/units configuration "
                    "(default: tools/layering.toml)")
    ap.add_argument("--layering", action="store_true",
                    help="check the src/ include graph against --config")
    ap.add_argument("--emit-graph", metavar="DOT",
                    help="with --layering: write the include graph as "
                    "Graphviz DOT (SVG too when `dot` exists)")
    ap.add_argument("--drop-edge", metavar="FROM:TO", action="append",
                    help="with --layering: pretend a declared edge is "
                    "absent (negative test of the gate)")
    ap.add_argument("--timing-out", metavar="JSON",
                    help="write per-rule wall-time JSON artifact")
    ap.add_argument("--select", metavar="RULES",
                    help="comma-separated rule subset to report "
                    "(negative-test hook; default: all rules)")
    ap.add_argument("--pretend", metavar="REL",
                    help="lint the single input file as this repo-relative "
                    "path (fixture negative tests)")
    ap.add_argument("--suppressions-out", metavar="JSON",
                    help="write per-rule allow() counts + sites artifact")
    ap.add_argument("--budget", metavar="JSON",
                    help="fail when per-rule allow() counts under src/ "
                    "exceed this checked-in budget file")
    args = ap.parse_args()

    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule:16s} {desc}")
        return 0
    if args.layering:
        return run_layering(args)
    if args.check_fixtures:
        return run_check_fixtures(args)
    return run_lint(args)


if __name__ == "__main__":
    sys.exit(main())
