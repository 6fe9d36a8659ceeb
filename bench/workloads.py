"""The benchmark's four workloads.

Each workload writes its inputs from the seed into a work directory, runs
its main operation (timed as ``wall_s``) and checks its output.
``survey`` also runs the same boxes with ``--jobs 2`` and checks that the
output is byte-identical.  ``check`` and ``check_jobs2`` return one
(label, ok) pair per operation, ``main_checks`` and ``job_checks`` of
them, whatever the seed.  An operation that raises, or a command that
does not exit 0, fails the whole round.

The operations call the package through module attributes
(``cli.main``, ``saturation.coverage_check``), so the tracer's wrappers
see every call.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random

SALEM = [1, -1, -1, -1, 1]  # ascending coefficients of the Salem quartic

# Wrong pseudo_anosov verdicts of splitting.classify ("irreducible and not
# a polynomial in x^m" instead of "every power irreducible").
KNOWN_FAULTS = frozenset(f"survey {p}" for p in (
    [1, -2, 2, 2, 1], [1, -1, 1, -1, 1], [1, -1, 2, 1, 1],
    [1, 1, 1, 1, 1], [1, 1, 2, -1, 1], [1, 2, 2, -2, 1],
))


def companion_rows(coeffs):
    """Companion matrix of a monic polynomial (ascending coefficients)."""
    n = len(coeffs) - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        if i:
            rows[i][i - 1] = 1
        rows[i][n - 1] = -coeffs[i]
    return rows


def cli_main(argv) -> int:
    """torusdyn's command line in this process, with stdout discarded."""
    from torusdyn import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def cli_ok(argv) -> None:
    """cli_main, raising when the command does not exit 0."""
    rc = cli_main(argv)
    if rc != 0:
        raise RuntimeError(f"torusdyn {' '.join(map(str, argv))} exited {rc}")


# -- workloads ----------------------------------------------------------------------


class Workload:
    """Inputs in ``work``; ``inputs`` lists the files the program reads."""

    name = ""
    sizes: dict[str, dict] = {}
    # operations checked on the main output, and on the --jobs 2 output
    main_checks = 0
    job_checks = 0

    def __init__(self, work: str, seed: int, size: str = "full"):
        self.work = work
        self.rng = random.Random(seed)
        self.p = self.sizes[size]
        self.inputs: list[str] = []

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def write_input(self, name: str, obj) -> str:
        path = self.path(name)
        with open(path, "w") as fh:
            json.dump(obj, fh)
        self.inputs.append(path)
        return path

    def read(self, name: str) -> str:
        with open(self.path(name)) as fh:
            return fh.read()

    def main(self):
        raise NotImplementedError

    def check(self, main_out) -> list:
        raise NotImplementedError


class Survey(Workload):
    """torusdyn survey over whole coefficient boxes, --jobs 1 then --jobs 2."""

    name = "survey"
    sizes = {"full": {"boxes": [(4, 2), (5, 2), (7, 1)]},
             "tiny": {"boxes": [(3, 1), (4, 1)]}}

    def __init__(self, work, seed, size="full"):
        super().__init__(work, seed, size)
        boxes = list(self.p["boxes"])
        self.rng.shuffle(boxes)  # the seed fixes the order the boxes run in
        self.boxes = boxes
        self.write_input("survey.json", {"boxes": boxes})
        # each polynomial and a summary per box; a --jobs 2 comparison per box
        self.main_checks = sum(2 * (2 * h + 1) ** (d - 1) + 1 for d, h in boxes)
        self.job_checks = len(boxes)

    def _run(self, jobs: int) -> None:
        for d, h in self.boxes:
            cli_ok(["survey", "--dim", d, "--height", h, "--jobs", jobs,
                    "--out", self.path(f"cat{jobs}_{d}_{h}.jsonl"),
                    "--summary", self.path(f"sum{jobs}_{d}_{h}.json")])

    def main(self):
        self._run(1)

    def jobs2(self):
        self._run(2)

    def check(self, main_out):
        from checks import check_survey_box

        out = []
        for d, h in self.boxes:
            summary = json.loads(self.read(f"sum1_{d}_{h}.json"))
            out += check_survey_box(d, h, self.read(f"cat1_{d}_{h}.jsonl"), summary)
        return out

    def check_jobs2(self):
        return [(f"survey --jobs 2 identical ({d}, {h})",
                 self.read(f"cat2_{d}_{h}.jsonl") == self.read(f"cat1_{d}_{h}.jsonl")
                 and self.read(f"sum2_{d}_{h}.json") == self.read(f"sum1_{d}_{h}.json"))
                for d, h in self.boxes]


class Dioph(Workload):
    """torusdyn dioph on the Salem quartic: the lattice-ball scan."""

    name = "dioph"
    sizes = {"full": {"radius": 80, "check_radius": 10},
             "tiny": {"radius": 20, "check_radius": 6}}
    witnesses = 32  # center_norm_minimum's witness_cap
    main_checks = witnesses + 2  # the witnesses, the pair witness, the recount

    def __init__(self, work, seed, size="full"):
        super().__init__(work, seed, size)
        self.matrix = self.write_input("matrix.json", {"n": 4, "rows": companion_rows(SALEM)})
        self.cli_seed = self.rng.randrange(2 ** 31)

    def argv(self, radius, out):
        return ["--seed", self.cli_seed, "dioph", self.matrix, "--radius", radius, "--out", out]

    def main(self):
        cli_ok(self.argv(self.p["radius"], self.path("dioph.json")))

    def check(self, main_out):
        from checks import brute_force_scan, check_pair_witness, check_witnesses
        from torusdyn import cli, pseudo_anosov, splitting

        text = self.read("dioph.json")
        report = json.loads(text)
        a = cli._load_matrix(self.matrix)
        split = splitting.compute_splitting(a)
        norm = splitting.adapted_norm(split)
        pa = pseudo_anosov.pseudo_anosov_subspace(a, 24, split=split)
        out = check_witnesses(report, norm)
        out += [(f"dioph witness {i}", False) for i in range(len(out), self.witnesses)]
        out.append(("dioph pair witness", check_pair_witness(report["badly_approximable"], 200)))
        small_path = self.path("dioph_small.json")
        rc = cli_main(self.argv(self.p["check_radius"], small_path))
        small = json.loads(self.read("dioph_small.json")) if rc == 0 else {}
        count, c_prime = brute_force_scan(norm, pa.lam.basis, self.p["check_radius"], pa.dim_x // 2)
        out.append(("dioph brute-force recount",
                    small.get("point_count") == count
                    and abs(small.get("c_prime_empirical", 0.0) - c_prime) <= 1e-9 * c_prime))
        return out


class Perturb(Workload):
    """torusdyn perturb on the perturbed Salem map at two amplitudes."""

    name = "perturb"
    amplitudes = (0.01, 0.001)
    main_checks = 3 * len(amplitudes) + 1  # three per amplitude, plus the ordering
    sizes = {"full": {"ncount": 6, "samples": 100, "nmax": 100},
             "tiny": {"ncount": 4, "samples": 30, "nmax": 10}}

    def __init__(self, work, seed, size="full"):
        super().__init__(work, seed, size)
        from torusdyn import perturbed

        self.map = self.write_input("map.json", perturbed.salem_example(0.01).to_json())
        # The study's cost depends on its sample seed: seeds 1 to 5 and 7 make
        # 122k to 142k difference-propagation calls, and per-call overhead
        # dominates.  So the study's seed is fixed, and the benchmark seed
        # only orders the amplitudes.
        self.cli_seed = 7
        self.amplitudes = tuple(self.rng.sample(self.amplitudes, len(self.amplitudes)))

    def main(self):
        cli_ok(["--seed", self.cli_seed, "perturb", self.map,
                "--eps", ",".join(repr(a) for a in self.amplitudes),
                "--nmax", self.p["nmax"], "--ncount", self.p["ncount"],
                "--samples", self.p["samples"],
                "--out", self.path("perturb.json"), "--csv", self.path("perturb.csv")])

    def check(self, main_out):
        from checks import check_perturb

        return check_perturb(json.loads(self.read("perturb.json")), self.read("perturb.csv"),
                             self.amplitudes)


class Saturation(Workload):
    """coverage_check (both forms) and find_overlap_translation in process."""

    name = "saturation"
    sizes = {"full": {"samples": 1000}, "tiny": {"samples": 60}}

    def __init__(self, work, seed, size="full"):
        super().__init__(work, seed, size)
        self.params = {
            "matrix": {"n": 4, "rows": companion_rows(SALEM)},
            "amplitude": 1e-2,
            "radius": 1.0,
            "samples": self.p["samples"],
            "coverage_seeds": [self.rng.randrange(2 ** 31) for _ in range(2)],
            # the overlap search runs on fixed inputs: the pigeonhole search
            # gives up on some cloud seeds (see CHANGES.md)
            "eps": 0.35,
            "kappa": 0.05,
            "stages": [2, 20, 20, 2],
            "overlap_seed": 11,
        }
        self.write_input("saturation.json", self.params)

    main_checks = 3  # two coverage forms and the overlap

    def main(self):
        import numpy as np

        from torusdyn import intmatrix, manifolds, perturbed, pseudo_anosov, saturation, splitting

        with open(self.inputs[0]) as fh:
            p = json.load(fh)
        a = intmatrix.IntMatrix(p["matrix"]["rows"])
        split = splitting.compute_splitting(a)
        norm = splitting.adapted_norm(split)
        solver = manifolds.LeafSolver(perturbed.salem_example(p["amplitude"], a=a), split, norm)
        x = np.zeros(a.n)
        out = {"norm": norm}
        for form, seed in zip(("csu", "su+c"), p["coverage_seeds"]):
            out[form] = saturation.coverage_check(
                solver, x, p["radius"], sample_count=p["samples"], seed=seed, form=form).to_json()
        pa = pseudo_anosov.pseudo_anosov_subspace(a, 8, split=split)
        cloud = saturation.build_saturation_set(solver, x, p["eps"], tuple(p["stages"]),
                                                p["overlap_seed"])
        out["overlap"] = saturation.find_overlap_translation(
            solver, pa, x, p["eps"], kappa_emp=p["kappa"], cloud=cloud, seed=p["overlap_seed"])
        out["cloud"] = cloud.points
        out["lattice"] = pa.lam.basis
        return out

    def check(self, main_out):
        from checks import check_overlap

        out = []
        for form in ("csu", "su+c"):
            res = main_out[form]
            out.append((f"coverage {form}", res["passed"] and res["failures"] == 0
                        and res["samples"] == self.params["samples"]))
        out.append(("overlap translation", check_overlap(
            main_out["overlap"], main_out["cloud"], main_out["lattice"], main_out["norm"],
            self.params["eps"], self.params["kappa"])))
        return out


WORKLOADS = {w.name: w for w in (Survey, Dioph, Perturb, Saturation)}
