"""Acceptance suite: one test per release criterion, with a printed verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite is deterministic.
"""
import json
import random
import time

import numpy as np
import pytest

from conftest import powers_irreducible, random_unimodular
from torusdyn.errors import BudgetError
from torusdyn.experiments import degeneration_checks, perturb_experiment

from torusdyn.intmatrix import IntMatrix
from torusdyn.intpoly import IntPoly, count_unitary_roots
from torusdyn.lattice import kernel_lattice
from torusdyn.manifolds import LeafSolver
from torusdyn.diophantine import center_norm_minimum
from torusdyn.perturbed import salem_example
from torusdyn.pseudo_anosov import (
    pa_condition_cyclic_sample,
    pa_condition_polynomial,
    pseudo_anosov_subspace,
)
from torusdyn.saturation import (
    build_saturation_set,
    coverage_check,
    find_overlap_translation,
    overlap_translation_linear,
    winding_curve,
)
from torusdyn.splitting import compute_splitting
from torusdyn.survey import run_survey
from torusdyn.winding import winding_number, winding_number_2d
from torusdyn.zfactor import factor_z

SALEM = IntPoly((1, -1, -1, -1, 1))


def verdict(num, ok, text):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def survey7():
    t0 = time.time()
    entries, summary = run_survey(7, 2)
    return entries, summary, time.time() - t0


@pytest.fixture(scope="module")
def survey4():
    return run_survey(4, 2)


def test_criterion_01_dimension7_classification(survey7):
    entries, summary, elapsed = survey7
    exceptions = [
        e for e in entries
        if e["report"]["ergodic"] and e["report"]["dim_center"] not in (0, 2)
    ]
    ok = (not exceptions) and summary["total"] >= 30000 and elapsed < 600
    verdict(1, ok,
            f"N=7 survey of {summary['total']} candidates in {elapsed:.0f}s, "
            f"{summary['ergodic']} ergodic, {len(exceptions)} center-dimension exceptions")


def test_criterion_02_even_degree_unitary_factors(survey7, survey4):
    catalogs = [survey7[0], survey4[0]]
    for dim, height in ((5, 2), (6, 1), (8, 1)):
        catalogs.append(run_survey(dim, height)[0])
    violations = []
    total_factors = 0
    for entries in catalogs:
        for e in entries:
            for f in e["report"]["factors"]:
                if f["unitary_roots"] > 0 and f["cyclotomic_index"] is None:
                    total_factors += 1
                    if f["degree"] % 2 != 0 or f["degree"] < 4:
                        violations.append((e["coeffs"], f))
    verdict(2, not violations,
            f"{total_factors} unitary-carrying irreducible factors over N<=8 surveys, "
            f"{len(violations)} even-degree violations")


@pytest.fixture(scope="module")
def corpus500(survey4):
    """Matrices inside the valid domain of the condition-1/condition-3
    equivalence: reducible char polys (both conditions fail, with witnesses)
    and irreducible ones carrying a unitary non-root-of-unity pair (a Galois
    argument pins root ratios away from roots of unity).  Ergodic Anosov
    matrices with root-of-unity eigenvalue RATIOS genuinely break the
    unrestricted equivalence -- see the decisions ledger -- so they are
    exercised by the unconditional power-wise check instead.
    """
    entries, _ = survey4
    rng = random.Random(421)
    mats = []
    seeds_dim2 = []
    for e in entries:
        a = IntMatrix.companion(IntPoly(tuple(e["coeffs"])))
        rep = e["report"]
        reducible = len(rep["factors"]) > 1 or rep["factors"][0]["multiplicity"] > 1
        if reducible:
            mats.append(a)
        elif rep["ergodic"] and rep["dim_center"] == 2:
            mats.append(a)
            seeds_dim2.append(a)
    extra, _ = run_survey(5, 1)
    for e in extra:
        rep = e["report"]
        if len(rep["factors"]) > 1 or rep["factors"][0]["multiplicity"] > 1:
            mats.append(IntMatrix.companion(IntPoly(tuple(e["coeffs"]))))
    cat = IntMatrix([[2, 1], [1, 1]])
    salem_c = IntMatrix.companion(SALEM)
    mats += [IntMatrix.block_diag(salem_c, cat), IntMatrix.block_diag(cat, cat)]
    seeds_dim2.append(salem_c)
    i = 0
    while len(mats) < 520:
        u = random_unimodular(rng, 4)
        a = seeds_dim2[i % len(seeds_dim2)]
        if a.n == 4:
            mats.append(u * a * u.inverse_unimodular())
        i += 1
    return mats[:520]


def test_criterion_03_condition_equivalence(corpus500, survey4):
    disagreements = []
    for a in corpus500:
        poly_ok = pa_condition_polynomial(a.char_poly())
        sampled = pa_condition_cyclic_sample(a, 6, 100, seed=3)
        if poly_ok != sampled.ok:
            disagreements.append(a.rows)
    # unconditional cross-check on the full unfiltered survey box: sampled
    # cyclicity for k <= 6 agrees with power-wise irreducibility for k <= 6
    entries, _ = survey4
    rng = random.Random(99)
    unconditional = [IntMatrix.companion(IntPoly(tuple(e["coeffs"])))
                     for e in rng.sample(entries, 40)]
    power_disagreements = []
    for a in unconditional:
        sampled = pa_condition_cyclic_sample(a, 6, 100, seed=5)
        if sampled.ok != powers_irreducible(a, 6):
            power_disagreements.append(a.rows)
    ok = not disagreements and not power_disagreements
    verdict(3, ok,
            f"conditions agree on {len(corpus500)} matrices in the equivalence domain "
            f"({len(disagreements)} disagreements); power-wise cross-check on 40 "
            f"unfiltered matrices: {len(power_disagreements)} disagreements")


def test_criterion_04_pa_subspace_invariants(survey4, block6_matrix):
    entries, _ = survey4
    rng = random.Random(97)
    mats = [IntMatrix.companion(IntPoly(tuple(e["coeffs"])))
            for e in entries
            if e["report"]["ergodic"] and e["report"]["dim_center"] == 2]
    mats.append(block6_matrix)
    for _ in range(3):
        u = random_unimodular(rng, 6)
        mats.append(u * block6_matrix * u.inverse_unimodular())
    processed = 0
    block6_processed = False
    for a in mats:
        split = compute_splitting(a)
        try:
            pa = pseudo_anosov_subspace(a, 24, split=split)
        except BudgetError:
            continue  # honest report past the window; none expected at desk scale
        # invariants
        assert pa.center_residual <= 1e-9
        ak = a ** pa.k
        assert pa.lam.transform(ak) == pa.lam
        assert pa.dim_x % 2 == 0 and pa.dim_x >= 4
        assert pa_condition_polynomial(pa.p_k)
        for ell in (2, 3):
            akl = a ** (pa.k * ell)
            hits = [q for q, _ in factor_z(akl.char_poly()) if count_unitary_roots(q) == 2]
            assert len(hits) == 1
            assert kernel_lattice(akl.apply_poly(hits[0])) == pa.lam
        processed += 1
        if a.n == 6 and not pa_condition_polynomial(a.char_poly()):
            block6_processed = True
    verdict(4, processed >= 10 and block6_processed,
            f"{processed} center-dimension-2 matrices passed all subspace invariants; "
            f"non-power-irreducible N=6 example processed: {block6_processed}")


def test_criterion_05_diophantine_scan(salem_pa, salem_norm):
    t0 = time.time()
    rep, _ = center_norm_minimum(salem_pa, salem_norm, 50.0)
    elapsed = time.time() - t0
    rep2, _ = center_norm_minimum(salem_pa, salem_norm, 100.0)
    ok = (rep.c_prime_empirical > 0 and rep.slope >= -2.25
          and rep2.c_prime_empirical > 0
          and rep2.c_prime_empirical <= rep.c_prime_empirical + 1e-12
          and elapsed < 60)
    verdict(5, ok,
            f"M=50 scan ({rep.point_count} points, {elapsed:.1f}s): "
            f"min |n^c| |n|^2 = {rep.c_prime_empirical:.4g} > 0, slope {rep.slope:.2f} >= -2.25; "
            f"M=100 minimum {rep2.c_prime_empirical:.4g} stays positive")


def test_criterion_06_linear_degeneration(salem_split, salem_norm):
    f = salem_example(0.0)
    solver = LeafSolver(f, salem_split, salem_norm)
    checks = degeneration_checks(f, solver, tol=1e-8, seed=0)
    verdict(6, checks["passed"],
            "amplitude 0: graph sup {graph_sup:.1e}, holonomy translation dev "
            "{deck_translation_dev:.1e}, leaf-coordinate identity dev "
            "{leaf_param_identity_dev:.1e}, commutation defect "
            "{commutation_defect:.1e} (all <= 1e-8)".format(**checks))


def test_criterion_07_perturbed_estimates(salem_matrix):
    t0 = time.time()
    base = salem_example(1.0, a=salem_matrix)
    result = perturb_experiment(base, [1e-1, 1e-2, 1e-3], seed=11,
                                n_max=100.0, n_count=40, phi_samples=1000)
    elapsed = time.time() - t0
    entries = result["results"]
    kappas = [e["kappa_emp"] for e in entries]
    decreasing = kappas[0] > kappas[1] > kappas[2] > 0
    growth_ok = all(e["deck_deviation"]["growth_exponent"] <= 1.2 for e in entries)
    phi_ok = all(e["phi_bounds"]["direct_ok"] and e["phi_bounds"]["inverse_ok"]
                 for e in entries)
    ok = decreasing and growth_ok and phi_ok and elapsed < 900
    verdict(7, ok,
            f"kappa {kappas[0]:.3f} > {kappas[1]:.4f} > {kappas[2]:.5f}; "
            f"deviation growth exponents {[round(e['deck_deviation']['growth_exponent'], 2) for e in entries]} <= 1.2; "
            f"leaf-coordinate bounds hold on 1000 samples; {elapsed:.0f}s < 900s")


def test_criterion_08_coverage(salem_split, salem_norm):
    solver = LeafSolver(salem_example(1e-2), salem_split, salem_norm)
    res1 = coverage_check(solver, np.zeros(4), 1.0, sample_count=1000, seed=21)
    res2 = coverage_check(solver, np.zeros(4), 1.0, sample_count=1000, seed=22, form="su+c")
    ok = res1.passed and res2.passed
    verdict(8, ok,
            f"r=1 ball coverage at amplitude 1e-2: csu form {res1.failures}/1000 failures, "
            f"su+c form {res2.failures}/1000 failures")


def test_criterion_09_winding_machinery(salem_matrix, salem_pa, salem_split, salem_norm):
    from torusdyn.pseudo_anosov import orbit_sublattice

    gamma = orbit_sublattice(salem_matrix, 1, 1, (1, 0, 0, 0), salem_pa)
    rng = np.random.default_rng(33)
    failures = []
    for trial in range(20):
        x = np.zeros(4)
        y = salem_split.basis_c @ rng.uniform(-2.5, 2.5, size=2)
        eps = float(rng.uniform(0.08, 0.5))
        radius = float(rng.uniform(5, 50))
        try:
            curve = winding_curve(x, y, gamma, eps, radius, salem_split, salem_norm)
            pts = curve.sample()
            for off in curve.offsets:
                assert gamma.contains(off)
            for i, gi in enumerate(curve.generator_index):
                assert tuple(curve.offsets[i + 1] - curve.offsets[i]) == curve.generators[gi]
            rel = pts - y
            ns, nc, nu = salem_norm.component_norms(rel)
            assert np.all(ns + nu < eps * (ns + nc + nu))
            assert np.all(ns + nc + nu > radius)
            assert abs(winding_number(pts, y, salem_split)) == 1
        except AssertionError as exc:
            failures.append((trial, str(exc)))
    # synthetic Jordan suite
    th = np.linspace(0, 2 * np.pi, 32, endpoint=False)
    loop = np.column_stack([np.cos(th), np.sin(th)])
    jordan_ok = all(winding_number_2d(loop, p) == 0
                    for p in ([3.0, 0.0], [0.0, 2.5], [2.0, 0.4], [0.3, 4.0]))
    jordan_ok = jordan_ok and all(winding_number_2d(3 * loop, p) != 0
                                  for p in ([0.0, 0.0], [0.4, -0.3]))
    ok = not failures and jordan_ok
    verdict(9, ok,
            f"20 random winding-curve configurations verified all four properties "
            f"({len(failures)} failures); Jordan suite {'passed' if jordan_ok else 'failed'}")


def test_criterion_10_overlap_translation(salem_pa, salem_norm, salem_split):
    eps = 0.35
    bound = 5 * eps ** -2
    n_lin = overlap_translation_linear(salem_pa, salem_norm, eps)
    lin_ok = salem_norm.norm(np.array(n_lin, dtype=float)) <= bound
    solver = LeafSolver(salem_example(1e-2), salem_split, salem_norm)
    res = find_overlap_translation(solver, salem_pa, np.zeros(4), eps,
                                   kappa_emp=0.05, seed=11)
    pert_ok = res["norm"] <= bound
    verdict(10, lin_ok and pert_ok,
            f"linear box pigeonhole found n={n_lin} (|n| <= {bound:.1f}); "
            f"perturbed cloud search found n={res['n']} at |n|={res['norm']:.2f}")


def test_criterion_11_determinism(tmp_path):
    from torusdyn.cli import main

    outs = []
    for tag, jobs in (("a", "1"), ("b", "8"), ("c", "1")):
        cat = tmp_path / f"cat_{tag}.jsonl"
        summ = tmp_path / f"sum_{tag}.json"
        assert main(["survey", "--dim", "4", "--height", "1", "--jobs", jobs,
                     "--out", str(cat), "--summary", str(summ)]) == 0
        outs.append((cat.read_bytes(), summ.read_bytes()))
    survey_ok = outs[0] == outs[1] == outs[2]

    blobs = []
    mp = tmp_path / "map.json"
    mp.write_text(json.dumps(salem_example(0.01).to_json()))
    for tag in ("a", "b"):
        out = tmp_path / f"p_{tag}.json"
        csv = tmp_path / f"p_{tag}.csv"
        assert main(["--seed", "7", "perturb", str(mp), "--eps", "0.01",
                     "--nmax", "15", "--ncount", "5", "--samples", "40",
                     "--out", str(out), "--csv", str(csv)]) == 0
        blobs.append((out.read_bytes(), csv.read_bytes()))
    perturb_ok = blobs[0] == blobs[1]
    verdict(11, survey_ok and perturb_ok,
            f"survey byte-identical across reruns and 1 vs 8 worker processes: {survey_ok}; "
            f"perturbation experiment byte-identical across reruns: {perturb_ok}")
