#!/usr/bin/env python3
"""Self-test for the python result-checking tools.

The golden and benchmark gates are the last line of defence for numerical
regressions, so the checkers themselves need a negative proof: a checker
whose tolerance math or malformed-input handling silently rots would wave
every regression through.  This suite pins:

  golden_check.diff_tables — exact mode, relative-tolerance edges (just
      inside and just outside rtol), missing columns, missing rows, and
      non-numeric field comparison;
  bench_check.normalize    — geometric-mean normalization;
  bench_check.load_baseline — graceful rejection of malformed or
      wrong-shape baselines (message, not traceback);
  bench_check.gate         — threshold edges and the new-benchmark
      (no-baseline-entry) path;
  bench_check.merge_baseline — refreshing some binaries keeps the
      others' entries;
  ssamr_lint.run_layering  — a declared [edges] entry that no include
      uses fails the gate;
  reachability             — on a fixture compiled on the fly, a planted
      uncalled function is reported, an allowlisted one is not, and an
      allowlist entry naming a reached or a missing function fails as
      stale;
  perf_ledger              — a record built from canned perfbench and
      ctest output carries each workload's host factor and metrics and
      both test times; records append; a failed op, a failed test or a
      missing golden_exp_scale line writes nothing (no command runs).

Run directly or via ctest (PyTooling.SelfTest).  Stdlib only.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

TOOLS = os.path.dirname(os.path.abspath(__file__))


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(TOOLS, name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


golden_check = _load("golden_check")
bench_check = _load("bench_check")
ssamr_lint = _load("ssamr_lint")
reachability = _load("reachability")
perf_ledger = _load("perf_ledger")


class DiffTablesTest(unittest.TestCase):
    def test_identical_tables_exact_mode(self):
        table = [["step", "ms"], ["0", "1.25"], ["1", "2.50"]]
        self.assertEqual(golden_check.diff_tables(table, table, 0.0), [])

    def test_exact_mode_flags_last_digit(self):
        got = [["1.2500001"]]
        want = [["1.25"]]
        errors = golden_check.diff_tables(got, want, 0.0)
        self.assertEqual(len(errors), 1)
        self.assertIn("row 0 col 0", errors[0])

    def test_rtol_edge_inside(self):
        # |100 - 109| / 109 = 0.0826 < 0.1: inside tolerance.
        errors = golden_check.diff_tables([["100.0"]], [["109.0"]], 0.1)
        self.assertEqual(errors, [])

    def test_rtol_edge_outside(self):
        # |100 - 112| = 12 > 0.1 * 112 = 11.2: outside tolerance.
        errors = golden_check.diff_tables([["100.0"]], [["112.0"]], 0.1)
        self.assertEqual(len(errors), 1)
        self.assertIn("rtol=0.1", errors[0])

    def test_missing_column_reported_once_per_row(self):
        got = [["a", "1"], ["b", "2"]]
        want = [["a", "1", "extra"], ["b", "2", "extra"]]
        errors = golden_check.diff_tables(got, want, 0.0)
        self.assertEqual(len(errors), 2)
        self.assertIn("got 2 cols, golden 3", errors[0])

    def test_missing_row_reported(self):
        got = [["a"]]
        want = [["a"], ["b"]]
        errors = golden_check.diff_tables(got, want, 0.0)
        self.assertTrue(any("row count" in e for e in errors))

    def test_non_numeric_fields_compare_exactly(self):
        errors = golden_check.diff_tables([["greedy"]], [["hilbert"]], 0.5)
        self.assertEqual(len(errors), 1)
        self.assertIn("'greedy'", errors[0])

    def test_numeric_vs_text_is_a_mismatch(self):
        errors = golden_check.diff_tables([["1.0"]], [["n/a"]], 0.5)
        self.assertEqual(len(errors), 1)


class NormalizeTest(unittest.TestCase):
    def test_geometric_mean_normalization(self):
        norm = bench_check.normalize({"a": 100.0, "b": 400.0})
        self.assertAlmostEqual(norm["a"], 0.5)
        self.assertAlmostEqual(norm["b"], 2.0)

    def test_uniform_slowdown_cancels(self):
        fast = bench_check.normalize({"a": 10.0, "b": 40.0})
        slow = bench_check.normalize({"a": 30.0, "b": 120.0})
        for name in fast:
            self.assertAlmostEqual(fast[name], slow[name])


class LoadBaselineTest(unittest.TestCase):
    def _write(self, text):
        f = tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False)
        self.addCleanup(os.unlink, f.name)
        f.write(text)
        f.close()
        return f.name

    def test_valid_baseline(self):
        path = self._write('{"bench_amr": {"BM_Step": 1.0}}')
        data, err = bench_check.load_baseline(path)
        self.assertIsNone(err)
        self.assertEqual(data["bench_amr"]["BM_Step"], 1.0)

    def test_truncated_json_is_an_error_not_a_traceback(self):
        path = self._write('{"bench_amr": {"BM_Step": 1.')
        data, err = bench_check.load_baseline(path)
        self.assertIsNone(data)
        self.assertIn("malformed baseline", err)
        self.assertIn("--update-baseline", err)

    def test_wrong_shape_rejected(self):
        path = self._write('["not", "a", "mapping"]')
        data, err = bench_check.load_baseline(path)
        self.assertIsNone(data)
        self.assertIn("malformed baseline", err)

    def test_wrong_nested_shape_rejected(self):
        path = self._write('{"bench_amr": 1.0}')
        data, err = bench_check.load_baseline(path)
        self.assertIsNone(data)
        self.assertIn("malformed baseline", err)

    def test_missing_file_is_an_error(self):
        data, err = bench_check.load_baseline(
            os.path.join(tempfile.gettempdir(), "ssamr-nope.json"))
        self.assertIsNone(data)
        self.assertIn("cannot read baseline", err)


class GateTest(unittest.TestCase):
    @staticmethod
    def _report(normalized):
        return {"binaries": {"bench_amr": {"normalized": normalized}}}

    def test_within_threshold_passes(self):
        failures = bench_check.gate(
            self._report({"BM_Step": 1.10}), {"bench_amr": {"BM_Step": 1.0}},
            0.15, out=io.StringIO())
        self.assertEqual(failures, [])

    def test_beyond_threshold_fails(self):
        failures = bench_check.gate(
            self._report({"BM_Step": 1.20}), {"bench_amr": {"BM_Step": 1.0}},
            0.15, out=io.StringIO())
        self.assertEqual(len(failures), 1)
        binary, name, ratio = failures[0]
        self.assertEqual((binary, name), ("bench_amr", "BM_Step"))
        self.assertAlmostEqual(ratio, 1.20)

    def test_new_benchmark_is_announced_not_failed(self):
        out = io.StringIO()
        failures = bench_check.gate(
            self._report({"BM_New": 1.0}), {"bench_amr": {}}, 0.15, out=out)
        self.assertEqual(failures, [])
        self.assertIn("new benchmark", out.getvalue())

    def test_speedup_never_fails(self):
        failures = bench_check.gate(
            self._report({"BM_Step": 0.5}), {"bench_amr": {"BM_Step": 1.0}},
            0.15, out=io.StringIO())
        self.assertEqual(failures, [])


class MergeBaselineTest(unittest.TestCase):
    def test_refresh_keeps_other_binaries(self):
        baseline = {"bench_amr": {"BM_Step": 1.0},
                    "bench_partitioners": {"BM_Old": 2.0}}
        report = {"binaries": {"bench_partitioners": {
            "normalized": {"BM_New": 0.5}}}}
        merged = bench_check.merge_baseline(baseline, report)
        self.assertEqual(merged, {"bench_amr": {"BM_Step": 1.0},
                                  "bench_partitioners": {"BM_New": 0.5}})
        self.assertEqual(baseline["bench_partitioners"], {"BM_Old": 2.0})

    def test_new_binary_is_added(self):
        merged = bench_check.merge_baseline(
            {}, {"binaries": {"bench_amr": {"normalized": {"BM_Step": 1.0}}}})
        self.assertEqual(merged, {"bench_amr": {"BM_Step": 1.0}})


class LayeringTest(unittest.TestCase):
    def _run(self, config_text):
        f = tempfile.NamedTemporaryFile(
            "w", suffix=".toml", delete=False)
        self.addCleanup(os.unlink, f.name)
        f.write(config_text)
        f.close()
        args = argparse.Namespace(config=f.name, drop_edge=None,
                                  emit_graph=None, timing_out=None)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = ssamr_lint.run_layering(args)
        return rc, out.getvalue()

    def test_unused_declared_edge_fails(self):
        with open(ssamr_lint.DEFAULT_CONFIG) as fh:
            config = fh.read()
        rc, out = self._run(config)
        self.assertEqual(rc, 0, out)
        # cluster/ includes only util/; declaring a downward cluster -> geom
        # edge is legal by the layer order but used by no include.
        stale = config.replace('cluster = ["util"]',
                               'cluster = ["geom", "util"]')
        self.assertNotEqual(stale, config)
        rc, out = self._run(stale)
        self.assertEqual(rc, 1)
        self.assertIn("declared edge cluster -> geom is unused", out)


class ReachabilityTest(unittest.TestCase):
    LIBRARY = """
namespace ssamr {
int called(int x) { return x + 1; }
int planted(int x) { return x * 2; }
int kept(int x) { return x - 1; }
}  // namespace ssamr
"""
    ENTRY = """
namespace ssamr { int called(int x); }
int main() { return ssamr::called(1); }
"""
    KEPT = {"ssamr::kept(int)": "the fixture keeps it on purpose"}

    @classmethod
    def setUpClass(cls):
        tmp = tempfile.TemporaryDirectory()
        cls.addClassCleanup(tmp.cleanup)
        objs = []
        for name, code in (("lib", cls.LIBRARY), ("entry", cls.ENTRY)):
            src = os.path.join(tmp.name, name + ".cpp")
            with open(src, "w") as fh:
                fh.write(code)
            objs.append(os.path.join(tmp.name, name + ".o"))
            subprocess.run(["c++", "-O0", "-ffunction-sections", "-c", src,
                            "-o", objs[-1]], check=True)
        cls.unreached, cls.defined = reachability.find_unreached(
            "c++", [objs[0]], {"entry": [objs[1]]}, jobs=1)

    def test_planted_function_reported_allowlisted_not(self):
        problems = reachability.verdict(self.unreached, self.defined,
                                        self.KEPT)
        self.assertEqual(len(problems), 1, problems)
        self.assertIn("unreached: ssamr::planted(int)", problems[0])

    def test_stale_entries_fail(self):
        allow = dict(self.KEPT)
        allow["ssamr::planted(int)"] = "planted"
        allow["ssamr::called(int)"] = "a run calls it"
        allow["ssamr::gone()"] = "deleted long ago"
        problems = reachability.verdict(self.unreached, self.defined, allow)
        self.assertEqual(len(problems), 2, problems)
        self.assertIn("reached by a run: ssamr::called(int)", problems[0])
        self.assertIn("no function in the library: ssamr::gone()",
                      problems[1])

    def test_entry_without_reason_fails(self):
        allow = {"ssamr::kept(int)": " ", "ssamr::planted(int)": "planted"}
        problems = reachability.verdict(self.unreached, self.defined, allow)
        self.assertEqual(problems, [
            "allowlist entry without a reason: ssamr::kept(int)"])

    def test_shorthand_names_library_types(self):
        self.assertEqual(
            reachability.shorthand(
                "f(std::vector<ssamr::Box, std::allocator<ssamr::Box> > "
                "const&, std::__cxx11::basic_string<char, "
                "std::char_traits<char>, std::allocator<char> > const&, "
                "ssamr::units::Quantity<ssamr::units::SecondsTag, double>)"),
            "f(std::vector<ssamr::Box> const&, std::string const&, "
            "ssamr::Seconds)")


class PerfLedgerTest(unittest.TestCase):
    WORKLOADS = ("paper-sensing", "scale-event")
    PERFBENCH_OUT = (
        "perfbench scale-event seed 1 trace 0: 30 ops, 0 failed, "
        "1 thread(s), host factor 0.5000\n"
        "  iters_per_s                    6.5 1/s\n"
        '{"correct": true, "attempted": 30, "failed": 0, "metrics": {'
        '"iters_per_s": {"value": 6.5, "unit": "1/s"}, '
        '"op_s.p50": {"value": 0.75, "unit": "s"}, '
        '"setup_s": {"value": 0.21, "unit": "s"}, '
        '"peak_rss_mb": {"value": 41.5, "unit": "MB"}}}\n')
    CTEST_OUT = (
        "676/677 Test #12: util_test ......   Passed    0.02 sec\n"
        "677/677 Test #670: golden_exp_scale .......   Passed   31.25 sec\n"
        "\n100% tests passed, 0 tests failed out of 677\n")

    def setUp(self):
        tmp = tempfile.TemporaryDirectory()
        self.addCleanup(tmp.cleanup)
        self.root = Path(tmp.name)
        (self.root / "BENCHMARK.json").write_text(json.dumps({
            "run_seconds": 25,
            "workloads": [{"name": w} for w in self.WORKLOADS]}))
        (self.root / "perfbench").mkdir()
        shutil.copy(os.path.join(TOOLS, os.pardir, "perfbench", "metrics.py"),
                    self.root / "perfbench")
        raw = self.root / ".bench_build" / "perfbench"
        raw.mkdir(parents=True)
        for w in self.WORKLOADS:
            (raw / f"run-{w}-seed1-trace0.json").write_text(json.dumps(
                {"probe_ns": [40_000_000, 50_000_000, 60_000_000]}))
        self.perfbench_out = self.PERFBENCH_OUT
        self.ctest = (0, self.CTEST_OUT)
        self.build = (0, "[100%] Built target ssamr\n")
        self.status = ""
        self.calls = []

    def run_canned(self, cmd):
        """Stands in for perf_ledger.run_command; launches nothing."""
        self.calls.append(cmd)
        if cmd[0] == "ctest":
            return self.ctest[0], self.ctest[1], 40.0
        if cmd[0] == "cmake":
            return self.build[0], self.build[1], 90.0
        if cmd[0] == "git":
            return 0, (self.status if "status" in cmd
                       else "0123456789ab\n"), 0.0
        return 0, self.perfbench_out, 30.0

    def test_record_from_canned_output(self):
        record = perf_ledger.measure(self.run_canned, self.root)
        self.assertEqual(record["commit"], "0123456789ab")
        self.assertEqual(sorted(record["workloads"]), list(self.WORKLOADS))
        self.assertEqual(record["workloads"]["scale-event"], {
            "host_factor": 0.5, "iters_per_s": 6.5, "op_s.p50": 0.75,
            "setup_s": 0.21, "peak_rss_mb": 41.5})
        self.assertEqual(record["tier1_s"], 40.0)
        self.assertEqual(record["golden_exp_scale_s"], 31.25)
        bench = [c for c in self.calls if c[1].endswith("run.py")]
        self.assertEqual(len(bench), 2)
        self.assertEqual(bench[0][2:], ["--workload", "paper-sensing",
                                        "--seed", "1", "--trace", "0",
                                        "--seconds", "25"])
        # build/ is brought up to date right before the timed ctest, and
        # the build's 90 s stay out of tier1_s.
        tools = [c[0] for c in self.calls if c[0] in ("cmake", "ctest")]
        self.assertEqual(tools, ["cmake", "ctest"])
        build = next(c for c in self.calls if c[0] == "cmake")
        self.assertEqual(build[1:], ["--build", str(self.root / "build"),
                                     "-j4"])

    def test_uncommitted_changes_mark_the_commit_dirty(self):
        self.status = " M src/sim/timeline.cpp\n"
        record = perf_ledger.measure(self.run_canned, self.root)
        self.assertEqual(record["commit"], "0123456789ab-dirty")

    def test_records_append(self):
        path = self.root / "BENCH_trajectory.json"
        perf_ledger.append_record(path, {"commit": "a"})
        perf_ledger.append_record(path, {"commit": "b"})
        self.assertEqual(json.loads(path.read_text()),
                         [{"commit": "a"}, {"commit": "b"}])

    def assert_nothing_written(self):
        with mock.patch.object(perf_ledger, "ROOT", self.root), \
                mock.patch.object(perf_ledger, "run_command",
                                  self.run_canned), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            self.assertEqual(perf_ledger.main(), 1)
        self.assertIn("nothing written", err.getvalue())
        self.assertFalse((self.root / "BENCH_trajectory.json").exists())

    def test_failed_op_writes_nothing(self):
        self.perfbench_out = self.PERFBENCH_OUT.replace(
            '"correct": true', '"correct": false').replace(
                '"failed": 0', '"failed": 1')
        self.assert_nothing_written()

    def test_failed_test_writes_nothing(self):
        self.ctest = (8, self.CTEST_OUT.replace("Passed   31.25",
                                                "***Failed  31.25"))
        self.assert_nothing_written()

    def test_failed_build_writes_nothing(self):
        self.build = (2, "cluster_br.cpp:10: error: expected ';'\n"
                         "gmake: *** [Makefile:146: all] Error 2\n")
        self.assert_nothing_written()
        self.assertFalse([c for c in self.calls if c[0] == "ctest"])

    def test_missing_golden_line_writes_nothing(self):
        self.ctest = (0, "100% tests passed, 0 tests failed out of 1\n")
        self.assert_nothing_written()


if __name__ == "__main__":
    unittest.main(argv=[sys.argv[0], "-v"])
