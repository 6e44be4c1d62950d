"""Self-tests of the benchmark's own code (stdlib only).

    python3 bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import sys
import types
import unittest
from fractions import Fraction

import checks
import run
from spans import Recorder

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def digits_output(value: str, digits: int, mode: str = "exact", series: str = "s3") -> str:
    return "\n".join([
        value,
        "terms=1700",
        f"tail_bound=1/{10 ** (digits + 3)}",
        "rounding_bound=0",
        f"certified_digits={digits}",
        f"mode={mode}",
        f"series={series}",
    ]) + "\n"


class CheckerTests(unittest.TestCase):
    def setUp(self):
        self.reference = checks.load_reference()

    def test_reference_is_zeta3(self):
        self.assertGreaterEqual(len(self.reference), 5002)
        self.assertTrue(self.reference.startswith("1.2020569031595942853997381615114499907649"))

    def test_digits_accepts_truncation_and_rejects_one_corrupt_digit(self):
        check = checks.digits_checker(self.reference, "s3", 1000, "exact")
        good = self.reference[:1002]
        self.assertIsNone(check(digits_output(good, 1000)))
        for position in (2, 500, 1001):
            digit = str((int(good[position]) + 1) % 10)
            bad = good[:position] + digit + good[position + 1:]
            self.assertIn("differs", check(digits_output(bad, 1000)))

    def test_digits_rejects_fewer_certified_digits_and_loose_bounds(self):
        check = checks.digits_checker(self.reference, "s3", 1000, "exact")
        short = digits_output(self.reference[:1002], 1000).replace(
            "certified_digits=1000", "certified_digits=999")
        self.assertIn("certified_digits", check(short))
        loose = digits_output(self.reference[:1002], 1000).replace(
            f"tail_bound=1/{10 ** 1003}", "tail_bound=1/10")
        self.assertIn("bounds", check(loose))

    def test_verify_rejects_wrong_point_count_and_fail(self):
        points = checks.grid_points(1, 200)
        self.assertEqual(points, 20100)
        self.assertEqual(checks.grid_points(2, 120), 14520)
        check = checks.verify_checker(points)
        self.assertIsNone(check(f"mode=grid points_checked={points} outcome=pass\nPASS\n"))
        self.assertIn("points_checked", check("mode=grid points_checked=20099 outcome=pass\nPASS\n"))
        self.assertIsNotNone(check("1 0 -1/3 -1/4 fail\nmode=grid points_checked=20100 outcome=fail\nFAIL\n"))

    def test_accelerated_terms_match_math_comb_closed_forms(self):
        for pair in ("s1", "s2"):
            fast = checks.accelerated_terms(pair, 60)
            self.assertEqual(fast, [checks.accelerated_term(pair, n) for n in range(1, 61)])
        self.assertEqual(checks.accelerated_term("s1", 1), Fraction(5, 2))
        self.assertEqual(checks.accelerated_term("s1", 2) * 6 * 8, -5)

    def test_accelerate_rejects_a_corrupt_term(self):
        terms = [f"{n} {b}" for n, b in enumerate(checks.accelerated_terms("s2", 30), start=1)]
        tail = "lhs_terms=300 gap=0.1 bound=0.2 status=ok"
        check = checks.accelerate_checker("s2", 30)
        self.assertIsNone(check("\n".join(terms + [tail]) + "\n"))
        corrupt = terms[:]
        corrupt[16] = corrupt[16].replace("/", "1/", 1)
        self.assertIn("term 17", check("\n".join(corrupt + [tail]) + "\n"))
        self.assertIsNotNone(check("\n".join(terms + [tail.replace("ok", "fail")]) + "\n"))

    def test_listing(self):
        text = ("s1 series 1 0.602\ns2 series 1 1.431\ns3 series 0 1.806\n"
                "lhs_s1 series 0 -\nlhs_s2 series 0 -\ns1 pair 1 -\ns2 pair 1 -\n")
        self.assertIsNone(checks.check_listing(text))
        self.assertIsNotNone(checks.check_listing(text.replace("1.431", "1.531")))

    def test_classify(self):
        ok = lambda stdout: None
        bad = lambda stdout: "nope"
        self.assertIsNone(run.classify(0, "", "", ok))
        self.assertTrue(run.classify(0, "x", "", bad).startswith("wrong"))
        self.assertTrue(run.classify(1, "", "Traceback (most recent call last):\nValueError: x\n", ok)
                        .startswith("traceback: ValueError"))
        self.assertTrue(run.classify(2, "", "error: bad\n", ok).startswith("exit 2"))


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class RecorderTests(unittest.TestCase):
    def test_self_times_add_up_on_a_synthetic_tree(self):
        # root [0, 100]: a [10, 40] holding a.1 [20, 30], then b [50, 90]
        recorder = Recorder(FakeClock([0, 10, 20, 30, 40, 50, 90, 100]))
        root = recorder.begin("root")
        a = recorder.begin("a")
        a1 = recorder.begin("a.1")
        recorder.end(a1)
        recorder.end(a)
        b = recorder.begin("b")
        recorder.end(b)
        recorder.end(root)
        own = recorder.self_times()
        self.assertEqual(own, [30, 20, 10, 40])
        self.assertEqual(sum(own), 100)
        totals = recorder.totals()
        self.assertEqual(totals["root"]["total_ns"], 100)
        self.assertEqual(totals["a"], {"total_ns": 30, "self_ns": 20, "spans": 1})

    def test_overlapping_children_are_merged_and_clipped(self):
        recorder = Recorder()
        recorder.names = ["p", "c1", "c2", "c3"]
        recorder.starts = [0, 10, 20, 90]
        recorder.ends = [100, 30, 40, 120]
        recorder.parents = [-1, 0, 0, 0]
        # covered: [10, 40] and [90, 100]
        self.assertEqual(recorder.self_times()[0], 100 - 30 - 10)

    def test_same_name_nesting_is_counted_once(self):
        recorder = Recorder(FakeClock([0, 5, 15, 20]))
        outer = recorder.begin("f")
        inner = recorder.begin("f")
        recorder.end(inner)
        recorder.end(outer)
        self.assertEqual(recorder.totals()["f"]["total_ns"], 20)

    def test_attach_wraps_aliases_skips_missing_names_and_detaches(self):
        package = types.ModuleType("fakepkg")
        home = types.ModuleType("fakepkg.home")
        user = types.ModuleType("fakepkg.user")

        def double(x):
            return 2 * x

        def count_up(limit):
            yield from range(limit)

        class Thing:
            def method(self):
                return 7

        home.double, home.count_up, home.Thing = double, count_up, Thing
        user.double = double  # as left by `from .home import double`
        modules = {"fakepkg": package, "fakepkg.home": home, "fakepkg.user": user}
        sys.modules.update(modules)
        try:
            recorder = Recorder()
            seen = []
            skipped = recorder.attach({
                "fakepkg.home:double": ("home.double", lambda result, counts: seen.append(result)),
                "fakepkg.home:count_up": ("home.count_up", None),
                "fakepkg.home:Thing.method": ("home.method", None),
                "fakepkg.home:gone": ("home.gone", None),
                "fakepkg.home:Missing.method": ("x", None),
                "fakepkg.nowhere:f": ("y", None),
            })
            self.assertEqual(skipped, ["fakepkg.home:gone", "fakepkg.home:Missing.method", "fakepkg.nowhere:f"])
            self.assertEqual(user.double(4), 8)
            self.assertEqual(Thing().method(), 7)
            self.assertEqual(list(home.count_up(3)), [0, 1, 2])
            recorder.detach()
            self.assertIs(home.double, double)
            self.assertIs(user.double, double)
            self.assertEqual(Thing.__dict__["method"].__name__, "method")
        finally:
            for name in modules:
                del sys.modules[name]
        self.assertEqual(seen, [8])
        self.assertEqual(recorder.counts["home.double.calls"], 1)
        self.assertEqual(recorder.counts["home.method.calls"], 1)
        self.assertEqual(recorder.counts["home.count_up.calls"], 1)
        self.assertEqual(recorder.counts["home.count_up.yields"], 3)
        # three steps yield, the fourth ends the generator
        self.assertEqual(recorder.names.count("home.count_up"), 4)


class ScalingTests(unittest.TestCase):
    def test_child_time_is_scaled_by_the_speed_samples_around_it(self):
        class FakeRunner:
            def run(self, argv, check):
                return run.Result(argv, 2.0 if argv == ("x",) else 0.4, 0, 3, None, rss_kb=1024)

        reference = run.calibrate.REFERENCE_S
        samples = iter([reference, 3 * reference] + [2 * reference] * 100)
        saved = run.calibrate.machine_time
        run.calibrate.machine_time = lambda: next(samples)
        try:
            command = run.Command(("x",), lambda stdout: None, 10)
            args = types.SimpleNamespace(seed=1, seconds=0)
            metrics, _, record = run.run_end_to_end([command], args, FakeRunner(), float("inf"))
        finally:
            run.calibrate.machine_time = saved
        first_start = record["setup"][0]
        self.assertAlmostEqual(first_start["scaled_s"], 0.4 / 2)  # mean speed sample 2x slower
        self.assertAlmostEqual(metrics["scaled_wall_s"], 2.0 / 2.5)
        self.assertAlmostEqual(metrics["setup_s"], 0.4 / 2)
        self.assertEqual(len(record["setup"]), run.SETUP_SAMPLES)


class MetricNameTests(unittest.TestCase):
    def declared(self, group):
        return {m["name"]: m["unit"] for m in SPEC[group]}

    def test_end_to_end_metrics_are_declared(self):
        command = run.Command(("x",), lambda stdout: None, 10)
        passes = [[(command, run.Result(("x",), 0.6, 0, 3, None, rss_kb=2048, scaled_s=s))]
                  for s in (0.5, 0.4, 2.0)]
        setup = [run.Result(("list",), 0.2, 0, 3, None, scaled_s=s) for s in (0.3, 0.1, 0.2)]
        emitted = run.end_to_end_metrics(setup, passes)
        self.assertEqual(set(emitted), set(self.declared("end_to_end")))
        self.assertEqual(run.END_TO_END_UNITS, self.declared("end_to_end"))
        self.assertEqual(emitted["scaled_wall_s"], 0.5)  # medians of scaled times
        self.assertEqual(emitted["scaled_work_per_s"], 20.0)
        self.assertEqual(emitted["setup_s"], 0.2)
        self.assertTrue(all(value > 0 for value in emitted.values()))

    def test_per_layer_metrics_are_declared(self):
        emitted = run.layer_metrics(Recorder(), [], [], [])
        self.assertEqual(set(emitted), set(self.declared("per_layer")))
        self.assertEqual(run.PER_LAYER_UNITS, self.declared("per_layer"))

    def test_benchmark_file_keeps_to_its_limits(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))
        for metric in SPEC["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in SPEC["end_to_end"]))
        self.assertLessEqual(max(len(w["why"]) for w in SPEC["workloads"]), 200)

    def test_workloads_build(self):
        sizes = {name: len(run.build_workload(name)) for name in run.WORKLOADS}
        self.assertEqual(sizes, {"digits": 10, "verify": 4, "accelerate": 2})
        self.assertTrue(math.isclose(
            sum(c.units for c in run.build_workload("verify")), 20100 + 14520 + 64 + 165))


if __name__ == "__main__":
    unittest.main()
