import numpy as np
import pytest

from torusdyn.experiments import perturb_experiment
from torusdyn.holonomy import (
    HOLONOMY_PAIR,
    _pair_lipschitz,
    _probe_pairs,
    commutation_defect,
    deck_holonomy,
    deck_lipschitz_fit,
    deviation_profile,
    holonomy_lipschitz_probe,
)
from torusdyn.intmatrix import IntMatrix
from torusdyn.manifolds import LeafSolver
from torusdyn.perturbed import PerturbedMap, Shear, TrigProfile, salem_example
from torusdyn.splitting import adapted_norm, compute_splitting


def test_linear_deck_holonomy_is_translation(solver_linear):
    n = np.array([3, -2, 1, 5])
    xs = np.array([[0.1, -0.2], [0.3, 0.05]])
    out = deck_holonomy(solver_linear, n, xs)
    nc = (n @ solver_linear.coords.T)[solver_linear.block_idx["c"]]
    assert np.max(np.abs(out - (xs + nc))) <= 1e-10


def test_linear_commutation_defect_zero(solver_linear):
    d = commutation_defect(solver_linear, [1, 0, 2, -1], [0, 1, -1, 1], sample_count=6)
    assert d <= 1e-10


def test_chart_consistency(solver_small):
    n = np.array([2, -1, 0, 1])
    xs = np.array([[0.15, -0.1]])
    charts = deck_holonomy(solver_small, n, xs)
    # the holonomy's own composition: translate, then slide along s and u leaves
    zero = np.zeros(4)
    q = solver_small.intersection_batch(solver_small.center_point(xs) + n, zero, ("s", "cu"))
    pts = solver_small.intersection_batch(q, zero, ("u", "cs"))
    assert np.array_equal(solver_small.center_chart(pts), charts)
    back = solver_small.center_point(charts)
    assert np.max(np.abs(back - pts)) <= 1e-8


def test_deck_holonomy_on_a_stack_matches_each_vector(solver_small):
    """A (2, 3, n) stack of lattice vectors gives, per vector, the chart
    values of its own call, to 1e-12 in the adapted norm."""
    rng = np.random.default_rng(8)
    stack = rng.integers(-6, 7, size=(2, 3, 4))
    xs = rng.uniform(-0.4, 0.4, size=(5, 2))
    got = deck_holonomy(solver_small, stack, xs)
    assert got.shape == (2, 3, 5, 2)
    for i in np.ndindex(2, 3):
        one = deck_holonomy(solver_small, stack[i], xs)
        assert one.shape == (5, 2)
        assert np.max(solver_small.norm.block_norm(got[i] - one, "c")) <= 1e-12


def test_perturbed_deviation_small_and_bounded(solver_small):
    xs = np.array([[0.1, -0.2], [0.25, 0.3]])
    prof = deviation_profile(solver_small, [[1, 0, 0, 0], [4, -3, 2, 1], [20, -12, 16, 5]], xs)
    devs = [r["deviation"] for r in prof]
    assert all(d < 0.1 for d in devs)  # amplitude 0.01 regime
    assert all(d > 0 for d in devs)


def test_linear_holonomy_lipschitz_is_one(solver_linear):
    probe = holonomy_lipschitz_probe(solver_linear, leg_budget=2, length_budget=4.0,
                                     samples=4, seed=2)
    for rec in probe.path_records:
        assert abs(rec["lip"] - 1.0) <= 1e-8


def test_deck_lipschitz_fit_small(solver_small):
    fit = deck_lipschitz_fit(solver_small, [[1, 0, 0, 0], [2, -1, 0, 1], [5, 3, -2, 0]], seed=2)
    # Lip(T_n) <= C_emp |n|^beta_emp must cover all sampled values
    for lip, nrm_val in zip(fit["lips"], fit["norms"]):
        assert lip <= fit["c_emp"] * nrm_val ** fit["beta_emp"] * (1 + 1e-6)


def test_lipschitz_sup_monotone_in_length(solver_small):
    # doubling the length budget can only grow the measured sup
    lo = holonomy_lipschitz_probe(solver_small, leg_budget=2, length_budget=2.0,
                                  samples=5, seed=9)
    hi_records = lo.path_records + holonomy_lipschitz_probe(
        solver_small, leg_budget=2, length_budget=4.0, samples=5, seed=9).path_records
    assert max(r["lip"] for r in hi_records) >= max(r["lip"] for r in lo.path_records) - 1e-12


def test_block_construction_has_tiny_defect():
    """A perturbation confined to an unperturbed-center block commutes."""
    from torusdyn.intpoly import IntPoly

    salem = IntMatrix.companion(IntPoly((1, -1, -1, -1, 1)))
    cat = IntMatrix([[2, 1], [1, 1]])
    a6 = IntMatrix.block_diag(salem, cat)
    # shear acting only on the hyperbolic cat-map block
    f = PerturbedMap(a6, [Shear(target=4, source=5,
                                profile=TrigProfile(sin_coeffs=(1 / (2 * np.pi),)),
                                amplitude=0.01)])
    split = compute_splitting(a6)
    norm = adapted_norm(split)
    solver = LeafSolver(f, split, norm)
    d = commutation_defect(solver, [1, 0, 2, -1, 0, 0], [0, 1, -1, 1, 0, 0],
                           sample_count=4, seed=1)
    assert d <= 1e-8
    # and the holonomy is an exact translation on the center
    xs = np.array([[0.2, -0.1]])
    n = np.array([1, 2, 0, -1, 3, 1])
    out = deck_holonomy(solver, n, xs)
    nc = (n @ solver.coords.T)[solver.block_idx["c"]]
    assert np.max(np.abs(out - (xs + nc))) <= 1e-8


def test_beta_trend_with_amplitude(salem_split, salem_norm):
    from torusdyn.perturbed import salem_example

    betas = []
    for amp in (0.1, 0.001):
        sv = LeafSolver(salem_example(amp), salem_split, salem_norm)
        fit = deck_lipschitz_fit(sv, [[1, 0, 0, 0], [3, -2, 1, 1], [8, 5, -3, 2]], seed=4)
        betas.append(abs(fit["beta_emp"]))
    assert betas[-1] <= betas[0] + 1e-6


# -- stacked stages against their per-call forms ----------------------------------------


def _relative(a, b):
    return np.max(np.abs(np.asarray(a) - np.asarray(b)) / np.abs(np.asarray(b)))


def test_deck_lipschitz_fit_matches_one_pipeline_per_vector(solver_small):
    n_list = [[1, 0, 0, 0], [2, -1, 0, 1], [5, 3, -2, 0], [-7, 4, 9, 2]]
    fit = deck_lipschitz_fit(solver_small, n_list, seed=3)
    rng = np.random.default_rng(3)
    for n_vec, lip, nrm in zip(n_list, fit["lips"], fit["norms"]):
        probes = _probe_pairs(rng, 2)
        out = deck_holonomy(solver_small, n_vec, probes)
        assert lip == pytest.approx(float(np.max(_pair_lipschitz(solver_small, probes, out))), rel=1e-10)
        assert nrm == float(solver_small.norm.norm(np.asarray(n_vec, dtype=float)))


def _one_path(solver, legs, probes):
    """The Lipschitz ratio of one path, leg after leg, one solve each."""
    pts = solver.center_point(probes)
    base = np.zeros(solver.n)
    for flavor, param in legs:
        base = solver.leaf_points(base, flavor, param[None, :])[0]
        pts = solver.intersection_batch(pts, base, HOLONOMY_PAIR[flavor])
    return float(_pair_lipschitz(solver, probes, solver.center_chart(pts)))


def test_holonomy_probe_matches_one_path_at_a_time(solver_small):
    probe = holonomy_lipschitz_probe(solver_small, leg_budget=3, length_budget=6.0, samples=8, seed=4)
    rng = np.random.default_rng(4)  # the paths again, drawn in the probe's order
    for rec in probe.path_records:
        k = int(rng.integers(1, 4))
        total = float(rng.uniform(0.5, 6.0))
        lengths = rng.dirichlet(np.ones(k)) * total
        legs = []
        for i in range(k):
            flavor = "s" if (i + int(rng.integers(0, 2))) % 2 == 0 else "u"
            direction = rng.standard_normal(1)
            direction /= max(solver_small.param_norm(flavor, direction), 1e-12)
            legs.append((flavor, direction * lengths[i]))
        assert rec["legs"] == k and rec["length"] == max(total, 1.0)
        assert rec["lip"] == pytest.approx(_one_path(solver_small, legs, _probe_pairs(rng, 2)), rel=1e-8)
    assert {rec["legs"] for rec in probe.path_records} == {1, 2, 3}


def test_commutation_defect_matches_separate_holonomies(solver_small):
    n_vec, m_vec = [1, 0, 1, -1], [0, 1, -1, 1]
    xs = np.random.default_rng(6).uniform(-0.5, 0.5, size=(5, 2))
    tm = deck_holonomy(solver_small, m_vec, xs)
    want = solver_small.norm.block_norm(
        deck_holonomy(solver_small, n_vec, tm) - deck_holonomy(solver_small, np.add(n_vec, m_vec), xs), "c")
    got = commutation_defect(solver_small, n_vec, m_vec, sample_count=5, seed=6)
    assert got == pytest.approx(float(np.max(want)), rel=1e-8)


def test_one_amplitude_of_the_study_makes_few_solves(monkeypatch):
    """The benchmark's perturbation study (--ncount 6 --samples 100) at one
    amplitude: every stage solves its rows in a few stacked calls."""
    calls = []
    solve = LeafSolver._solve
    monkeypatch.setattr(LeafSolver, "_solve", lambda self, *a, **k: calls.append(1) or solve(self, *a, **k))
    perturb_experiment(salem_example(0.01), [0.01], seed=7, n_max=100.0, n_count=6, phi_samples=100)
    assert 0 < len(calls) <= 45
