#!/usr/bin/env python3
"""Link-time reachability gate: library code that no run reaches fails CI.

A run is one of the entry points that ship behaviour: every experiment
driver (bench/exp_*.cpp), every ablation (bench/ablation_*.cpp), every
example (examples/*.cpp) and the perfbench binary (perfbench/src/*.cpp).
Unit tests and google-benchmark microbenches are not runs: code that only
they call is dead weight the tests keep alive.

Method:
  1. Configure a Debug build with -ffunction-sections into build-reach/.
     Debug compiles the SSAMR_AUDIT hooks in and inlines nothing, so a
     function counts as reached only when a call to it survives.
  2. Build the library and every driver, ablation and example; compile
     perfbench/src/*.cpp with the drivers' flags.
  3. Link each entry point against every library object with
     -Wl,--gc-sections,--print-gc-sections and intersect the sections
     removed by every link.
  4. Keep the sections of the library's own functions (namespace ssamr)
     and demangle them.  COMDAT groups are skipped: they hold inline and
     template code the linker folds per link, so their removal says
     nothing reliable.  Lambda bodies, and code instantiated on a lambda
     type, are skipped too: they live and die with the function that
     defines the lambda, which is checked on its own.

Verdict (exit 1 on any):
  * an unreached function that is not in the allowlist;
  * an allowlist entry that is reached, or names no function at all;
  * an allowlist entry with an empty reason.

The allowlist is the [reachability.allow] table of tools/layering.toml:
demangled signature = one-line reason it is kept.  The tool takes no
flags, so nothing but that reviewed table changes its verdict.

Usage:
  tools/reachability.py        # build into build-reach/ and check
"""

import argparse
import concurrent.futures
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import tomllib
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CONFIG = REPO / "tools" / "layering.toml"

_REMOVED = re.compile(r"removing unused section '([^']+)' in file '([^']+)'")
# readelf -SW section row: "[Nr] Name Type Address Off Size ES Flg Lk Inf Al".
_SECTION = re.compile(
    r"^\s*\[\s*\d+\]\s+(\S+)\s+PROGBITS\s+\S+\s+\S+\s+\S+\s+\S+\s+(\S*)\s+"
    r"\d+\s+\d+\s+\d+\s*$")
# A function nested in namespace ssamr: _ZN, optional cv/ref qualifiers.
_PROJECT = re.compile(r"^\.text\._ZN[KVRO]*5ssamr")


def function_sections(obj):
    """The non-COMDAT .text.<symbol> sections of the project functions
    one object file defines."""
    out = subprocess.run(["readelf", "-SW", str(obj)], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        m = _SECTION.match(line)
        if m and _PROJECT.match(m.group(1)) and "G" not in m.group(2):
            names.add(m.group(1))
    return names


def removed_sections(link_cmd):
    """Run one --print-gc-sections link; return {(object, section)}."""
    proc = subprocess.run(link_cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"link failed: {shlex.join(link_cmd)}\n"
                           f"{proc.stderr}")
    return {(os.path.realpath(m.group(2)), m.group(1))
            for m in _REMOVED.finditer(proc.stderr)}


_DEFAULT_ARG = re.compile(r", std::(allocator|default_delete|char_traits)<")
_QUANTITY = re.compile(r"ssamr::units::Quantity<ssamr::units::(\w+)Tag, \w+>")


def shorthand(name):
    """Spell a demangled name the way the source does, so allowlist
    entries read like declarations: drop defaulted allocator, deleter and
    traits arguments, and name std::string, std::ostream and the unit
    quantities (ssamr::Seconds, ...)."""
    while m := _DEFAULT_ARG.search(name):
        depth, end = 1, m.end()
        while depth:
            depth += {"<": 1, ">": -1}.get(name[end], 0)
            end += 1
        name = name[:m.start()] + name[end:]
    name = name.replace(" >", ">").replace("[abi:cxx11]", "")
    name = name.replace("std::__cxx11::basic_string<char>", "std::string")
    name = name.replace("std::basic_ostream<char>", "std::ostream")
    return _QUANTITY.sub(r"ssamr::\1", name)


def demangle(symbols):
    """Map each symbol to its demangled shorthand name (c++filt, one
    batch)."""
    symbols = sorted(symbols)
    out = subprocess.run(["c++filt"], input="\n".join(symbols), check=True,
                         capture_output=True, text=True).stdout.splitlines()
    return {s: shorthand(n) for s, n in zip(symbols, out)}


def find_unreached(cxx, library_objs, entry_points, jobs=4):
    """Demangled names of the library functions no entry point reaches.

    library_objs: object files of the library.  entry_points: {name: [its
    own object files]}.  Returns (unreached, defined): the unreached
    function names, and every non-COMDAT function the library defines.
    """
    library_objs = [os.path.realpath(o) for o in library_objs]
    with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
        sections = dict(zip(library_objs,
                            pool.map(function_sections, library_objs)))
        with tempfile.TemporaryDirectory() as tmp:
            links = [[cxx, "-pthread", "-Wl,--gc-sections",
                      "-Wl,--print-gc-sections", "-o",
                      os.path.join(tmp, name), *objs, *library_objs]
                     for name, objs in sorted(entry_points.items())]
            removed = None
            for gone in pool.map(removed_sections, links):
                removed = gone if removed is None else removed & gone
    removed = removed or set()
    symbol = lambda sec: sec[len(".text."):]
    names = demangle({symbol(s) for secs in sections.values() for s in secs})
    names = {s: n for s, n in names.items() if "{lambda(" not in n}
    dead = {names[symbol(sec)] for obj, sec in removed
            if sec in sections.get(obj, ()) and symbol(sec) in names}
    return dead, set(names.values())


def verdict(unreached, defined, allow):
    """Problems, one line each: unlisted unreached code and stale entries."""
    problems = []
    for name in sorted(unreached - allow.keys()):
        problems.append(f"unreached: {name} — delete it, or allowlist it "
                        "with a reason in [reachability.allow]")
    for name, reason in sorted(allow.items()):
        if not str(reason).strip():
            problems.append(f"allowlist entry without a reason: {name}")
        if name in unreached:
            continue
        state = "is reached by a run" if name in defined else \
            "names no function in the library"
        problems.append(f"stale allowlist entry {state}: {name} — remove it")
    return problems


def load_allowlist():
    with open(CONFIG, "rb") as fh:
        cfg = tomllib.load(fh)
    return cfg.get("reachability", {}).get("allow", {})


def build(build_dir, jobs):
    """Configure and build the library and the entry points.  Returns
    (cxx, library objects, {entry point: its objects})."""
    subprocess.run(["cmake", "-S", str(REPO), "-B", str(build_dir),
                    "-DCMAKE_BUILD_TYPE=Debug",
                    "-DCMAKE_CXX_FLAGS=-ffunction-sections",
                    "-DCMAKE_EXPORT_COMPILE_COMMANDS=ON"],
                   check=True, stdout=subprocess.DEVNULL)
    drivers = sorted(p.stem for d in ("exp_*.cpp", "ablation_*.cpp")
                     for p in (REPO / "bench").glob(d))
    examples = sorted(p.stem for p in (REPO / "examples").glob("*.cpp"))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", str(jobs),
                    "--target", "ssamr", *drivers, *examples],
                   check=True, stdout=subprocess.DEVNULL)

    with open(build_dir / "compile_commands.json") as fh:
        commands = json.load(fh)
    obj_of = {}
    for c in commands:
        args = shlex.split(c["command"])
        out = Path(c["directory"], args[args.index("-o") + 1])
        obj_of[Path(c["file"]).resolve()] = (out, args)
    library = [o for f, (o, _) in obj_of.items()
               if (REPO / "src") in f.parents]
    entries = {}
    for name in drivers:
        entries[name] = [obj_of[REPO / "bench" / f"{name}.cpp"][0]]
    for name in examples:
        entries[name] = [obj_of[REPO / "examples" / f"{name}.cpp"][0]]

    # perfbench is its own CMake project; compile its sources with the
    # drivers' flags instead of building the library a second time.
    _, template = obj_of[REPO / "bench" / f"{drivers[0]}.cpp"]
    src_at = template.index("-c") + 1
    out_at = template.index("-o") + 1
    (build_dir / "perfbench").mkdir(exist_ok=True)
    compiles = []
    for src in sorted((REPO / "perfbench" / "src").glob("*.cpp")):
        cmd = list(template)
        cmd[src_at] = str(src)
        cmd[out_at] = str(build_dir / "perfbench" / f"{src.stem}.o")
        compiles.append(cmd)
    with concurrent.futures.ThreadPoolExecutor(jobs) as pool:
        for _ in pool.map(lambda cmd: subprocess.run(cmd, check=True),
                          compiles):
            pass
    entries["perfbench"] = [c[out_at] for c in compiles]
    return template[0], library, entries


def main():
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    jobs = min(4, os.cpu_count() or 1)
    cxx, library, entries = build(REPO / "build-reach", jobs)
    unreached, defined = find_unreached(cxx, library, entries, jobs)
    problems = verdict(unreached, defined, load_allowlist())
    for p in problems:
        print(f"reachability: {p}")
    print(f"reachability: {len(entries)} entry points, {len(defined)} "
          f"library functions, {len(unreached)} unreached, "
          f"{len(problems)} problem{'s' if len(problems) != 1 else ''}",
          file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
