"""Seed sweep of acceptance criteria 7 and 10 on the Salem example.

Runs the computation each criterion checks, unchanged except for the seed,
over a range of seeds and prints one line per seed and the pass counts:

- criterion 7: the deck-deviation growth exponent of the perturbation study
  (amplitudes 1e-1, 1e-2, 1e-3; n_max 100, n_count 40) is <= 1.2 at every
  amplitude;
- criterion 10: the perturbed overlap-translation search (eps 0.35, amplitude
  1e-2, kappa 0.05) finds a lattice vector with |n| <= 5 eps^-2.

A run that raises (the overlap search running out of candidates, say)
counts as a failure, with its message.

The acceptance tests keep their own seeds; this script changes no test,
bound or budget.  Usage, from the repository root:

    python tools/seed_sweep.py                # seeds 0-31
    python tools/seed_sweep.py --seeds 6      # one seed

Criterion 7 takes several seconds a seed, criterion 10 a few.
"""
from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from torusdyn.errors import TorusDynError  # noqa: E402
from torusdyn.experiments import perturb_experiment  # noqa: E402
from torusdyn.intmatrix import IntMatrix  # noqa: E402
from torusdyn.intpoly import IntPoly  # noqa: E402
from torusdyn.manifolds import LeafSolver  # noqa: E402
from torusdyn.perturbed import salem_example  # noqa: E402
from torusdyn.pseudo_anosov import pseudo_anosov_subspace  # noqa: E402
from torusdyn.saturation import find_overlap_translation  # noqa: E402
from torusdyn.splitting import adapted_norm, compute_splitting  # noqa: E402

SALEM = IntPoly((1, -1, -1, -1, 1))
GROWTH_BOUND = 1.2
EPS = 0.35


def criterion_7(a: IntMatrix, seed: int) -> tuple[bool, str]:
    result = perturb_experiment(salem_example(1.0, a=a), [1e-1, 1e-2, 1e-3], seed=seed,
                                n_max=100.0, n_count=40, phi_samples=1000)
    exps = [e["deck_deviation"]["growth_exponent"] for e in result["results"]]
    return all(g <= GROWTH_BOUND for g in exps), "growth " + " ".join(f"{g:.3f}" for g in exps)


def criterion_10(split, norm, pa, seed: int) -> tuple[bool, str]:
    bound = 5 * EPS ** -2
    solver = LeafSolver(salem_example(1e-2), split, norm)
    res = find_overlap_translation(solver, pa, np.zeros(4), EPS, kappa_emp=0.05, seed=seed)
    return (res["norm"] <= bound,
            f"|n| {res['norm']:.2f} after {res['candidates_checked']} candidates")


def _seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31 or 5")
    args = ap.parse_args(argv)
    seeds = _seed_range(args.seeds)
    a = IntMatrix.companion(SALEM)
    split = compute_splitting(a)
    norm = adapted_norm(split)
    pa = pseudo_anosov_subspace(a, split=split)
    runs = {"7": lambda s: criterion_7(a, s), "10": lambda s: criterion_10(split, norm, pa, s)}
    passes = dict.fromkeys(runs, 0)
    for seed in seeds:
        for name in runs:
            t0 = time.perf_counter()
            try:
                ok, detail = runs[name](seed)
            except TorusDynError as exc:
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            passes[name] += ok
            print(f"seed {seed:2d} criterion {name:>2}: {'pass' if ok else 'FAIL'}  {detail}  "
                  f"({time.perf_counter() - t0:.1f} s)", flush=True)
    for name in runs:
        print(f"criterion {name}: {passes[name]} of {len(seeds)} seeds pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
