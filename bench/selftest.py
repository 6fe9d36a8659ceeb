"""Self-tests of the benchmark: tiny workloads, checkers, tracer.

Run from the repository root (takes about a minute):

    python3 bench/selftest.py

Every workload runs at a tiny size and must pass its own checks, and each
checker must reject a deliberately corrupted output: a flipped
``ergodic``, a ball scan that drops a point, a wrong overlap vector and
a dropped deviation row.  The reference clock's arithmetic and probes
are checked as well.
"""
from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import checks  # noqa: E402
import refclock  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class WorkDir(unittest.TestCase):
    def setUp(self):
        os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="selftest-", dir=os.path.join(HERE, ".work"))

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def run_tiny(self, name, seed=3):
        wl = workloads.WORKLOADS[name](self.work, seed, "tiny")
        main_out = wl.main()
        ops = wl.check(main_out)
        if wl.job_checks:
            wl.jobs2()
            ops += wl.check_jobs2()
        self.assertEqual(len(ops), wl.main_checks + wl.job_checks)
        return wl, main_out, ops


def failed(ops):
    return {label for label, ok in ops if not ok}


class TinyWorkloads(WorkDir):
    def test_survey(self):
        wl, _, ops = self.run_tiny("survey")
        # the two known wrong verdicts inside the (4, 1) box, and nothing else
        self.assertEqual(failed(ops), {"survey [1, -1, 1, -1, 1]", "survey [1, 1, 1, 1, 1]"})

        (d, h), = [b for b in wl.boxes if b == (4, 1)]
        lines = wl.read(f"cat1_{d}_{h}.jsonl").splitlines()
        entry = json.loads(lines[7])
        entry["report"]["ergodic"] = not entry["report"]["ergodic"]
        lines[7] = json.dumps(entry)
        summary = json.loads(wl.read(f"sum1_{d}_{h}.json"))
        bad = failed(checks.check_survey_box(d, h, "\n".join(lines), summary))
        self.assertIn(f"survey {entry['coeffs']}", bad)
        self.assertIn(f"survey summary ({d}, {h})", bad)

    def test_dioph(self):
        wl, _, ops = self.run_tiny("dioph")
        self.assertEqual(failed(ops), set())

        from torusdyn import diophantine

        original = diophantine.lattice_ball

        def drop_last_point(lam, norm, radius):
            ball = original(lam, norm, radius)
            arrays = {f.name: getattr(ball, f.name)[:-1] for f in dataclasses.fields(ball)
                      if f.name not in ("lam", "radius")}
            return dataclasses.replace(ball, **arrays)

        diophantine.lattice_ball = drop_last_point
        try:
            wl.main()
            self.assertIn("dioph brute-force recount", failed(wl.check(None)))
        finally:
            diophantine.lattice_ball = original

    def test_perturb(self):
        wl, _, ops = self.run_tiny("perturb")
        self.assertEqual(failed(ops), set())

        result = json.loads(wl.read("perturb.json"))
        lines = wl.read("perturb.csv").splitlines()
        amp = float(lines.pop(1).split(",")[0])
        bad = failed(checks.check_perturb(result, "\n".join(lines), wl.amplitudes))
        self.assertEqual(bad, {f"perturb {amp} csv"})

    def test_saturation(self):
        wl, main_out, ops = self.run_tiny("saturation")
        self.assertEqual(failed(ops), set())

        res = dict(main_out["overlap"])
        args = (main_out["cloud"], main_out["lattice"], main_out["norm"],
                wl.params["eps"], wl.params["kappa"])
        self.assertTrue(checks.check_overlap(res, *args))
        res["n"] = tuple(v + (i == 0) for i, v in enumerate(res["n"]))
        self.assertFalse(checks.check_overlap(res, *args))


class Tracer(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        t = spans.Tracer()
        t.spans = [["a", -1, 0.0, 10.0, 0], ["b", 0, 1.0, 4.0, 5], ["b", 0, 5.0, 6.0, 7],
                   ["c", 1, 2.0, 3.0, 0]]
        totals = t.totals()
        self.assertAlmostEqual(totals["a"]["self_s"], 6.0)
        self.assertAlmostEqual(totals["b"]["self_s"], 3.0)
        self.assertEqual((totals["b"]["calls"], totals["b"]["work"]), (2, 12))
        self.assertAlmostEqual(t.covered_s(), 10.0)

    def test_probes_leave_the_innermost_span(self):
        t = spans.Tracer()
        # in start order, as the tracer stores them
        t.spans = [["a", -1, 0.0, 10.0, 0], ["b", 0, 1.0, 4.0, 0], ["c", 1, 2.0, 3.0, 0],
                   ["b", 0, 5.0, 6.0, 0]]
        probes = [(2.2, 2.4), (4.5, 4.7), (11.0, 12.0)]  # in c, in a only, outside
        totals = t.totals(probes)
        self.assertAlmostEqual(totals["c"]["self_s"], 0.8)
        self.assertAlmostEqual(totals["b"]["self_s"], 3.0)
        self.assertAlmostEqual(totals["a"]["self_s"], 5.8)
        self.assertAlmostEqual(t.covered_s(0, probes), 9.6)

    def test_install_wraps_names_callers_use(self):
        from torusdyn import survey

        t = spans.Tracer()
        t.install()
        t.active = True
        survey.classify_entry((0, (1, -1, -1, -1, 1)))
        t.active = False
        names = [s[0] for s in t.spans]
        self.assertEqual(names[0], "survey.classify_entry")
        self.assertIn("splitting.classify", names)
        self.assertIn("intmatrix.IntMatrix.char_poly", names)
        self.assertTrue(all(s[1] >= 0 for s in t.spans[1:]))


class RefClock(unittest.TestCase):
    def test_stretches_weighted_by_end_speeds(self):
        clock = refclock.RefClock()
        # probes at [0, 1], [3, 4], [6, 7]: two 2 s stretches at mean speed 0.75
        clock.marks = [(0.0, 1.0, 1.0), (3.0, 4.0, 0.5), (6.0, 7.0, 1.0)]
        self.assertAlmostEqual(clock.raw_s, 4.0)
        self.assertAlmostEqual(clock.ref_s, 3.0)

    def test_probes_run_during_the_operation_and_are_left_out(self):
        from time import perf_counter

        with refclock.RefClock(period=0.02) as clock:
            t0 = perf_counter()
            while perf_counter() - t0 < 0.3:
                pass
        self.assertGreater(len(clock.marks), 5)
        probes = sum(t1 - t0 for t0, t1, _ in clock.marks[1:-1])
        self.assertAlmostEqual(clock.raw_s, 0.3 - probes, delta=0.02)
        self.assertGreater(clock.ref_s, 0.0)
        with refclock.RefClock(period=0) as clock:
            pass
        self.assertEqual(len(clock.marks), 2)


if __name__ == "__main__":
    unittest.main()
