"""Deterministic experiment drivers shared by the CLI and the test suite.

Every experiment is reproducible from (config, seed): all randomness is
drawn from generators seeded here, outputs carry the echoed config, and
nothing time- or host-dependent enters the result dictionaries.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import BudgetError, InputError, InvariantError, OutOfHypothesesError
from .holonomy import (
    commutation_defect,
    deck_holonomy,
    deck_lipschitz_fit,
    deviation_profile,
    holonomy_lipschitz_probe,
)
from .intmatrix import IntMatrix
from .manifolds import LeafSolver, measure_kappa
from .perturbed import PerturbedMap, Shear
from .pseudo_anosov import hypothesis_spectrum, orbit_sublattice, pseudo_anosov_subspace
from .splitting import _factor_spectrum, _modulus_counts, adapted_norm, compute_splitting
from .saturation import appendix_constants, winding_curve


def rescale_amplitudes(f: PerturbedMap, amplitude: float) -> PerturbedMap:
    """Same shear profiles, uniform new amplitude."""
    return PerturbedMap(
        f.matrix,
        [Shear(s.target, s.source, s.profile, amplitude) for s in f.shears],
    )


def sample_lattice_vectors(solver: LeafSolver, max_norm: float, count: int,
                           seed: int = 0) -> list[tuple[int, ...]]:
    """Nonzero integer vectors with adapted norms spread up to max_norm."""
    rng = np.random.default_rng(seed)
    targets = np.geomspace(2.0, max_norm, count)
    out: list[tuple[int, ...]] = []
    seen = set()
    for tau in targets:
        for _ in range(64):
            d = rng.standard_normal(solver.n)
            d /= solver.norm.norm(d)
            v = tuple(int(t) for t in np.rint(tau * d))
            if any(v) and v not in seen and solver.norm.norm(np.array(v, float)) <= max_norm:
                seen.add(v)
                out.append(v)
                break
    return out


def phi_bound_checks(solver: LeafSolver, kappa_floor: float, samples: int,
                     radius: float, seed: int) -> dict:
    """Verify the leaf-coordinate map against its Lipschitz bounds.

    kappa_used is the max of the supplied graph constant and the stage
    offsets realized in this very sample (a measured quantity); the direct
    bound and the inverse bound kappa/(1-kappa) are then asserted.
    """
    rng = np.random.default_rng(seed)
    x = np.zeros(solver.n)
    dirs = rng.standard_normal((samples, solver.n))
    dirs /= solver.norm.norm(dirs)[:, None]
    vs = dirs * (radius * rng.uniform(0.05, 1.0, size=(samples, 1)))

    def stage_kappa(stages, params):
        """Graph constant realized by the stages of one leaf walk from x."""
        ratios = []
        for base, pts, block, par in zip((x, *stages[:2]), stages, "csu", params):
            offs = ((pts - base) @ solver.coords.T)[..., solver.perp_indices(block)]
            ratios.append(solver.graph_ratio(block, par, offs))
        return max(ratios)

    coords = vs @ solver.coords.T
    params = [coords[:, solver.block_idx[b]] for b in "csu"]
    stages = solver.leaf_walk(x, *params)
    kappa_used = max(kappa_floor, stage_kappa(stages, params))
    lhs = solver.norm.norm(stages[-1] - (x + vs))
    rhs = kappa_used * solver.norm.norm(vs)
    direct_ok = bool(np.all(lhs <= rhs + 1e-10))
    direct_margin = float(np.max(lhs - rhs))

    # inverse bound on fresh targets
    ws = x + dirs * (radius * rng.uniform(0.05, 1.0, size=(samples, 1)))
    pc, ps, pu = solver.to_leaf_params_batch(x, ws)
    v_amb = (
        pc @ solver.embed[:, solver.block_idx["c"]].T
        + ps @ solver.embed[:, solver.block_idx["s"]].T
        + pu @ solver.embed[:, solver.block_idx["u"]].T
    )
    inv_lhs = solver.norm.norm(v_amb - (ws - x))
    # fold the stage offsets realized along the inverse peeling into kappa
    stages = solver.leaf_walk(x, pc, ps, pu)
    kappa_used = max(kappa_used, stage_kappa(stages, (pc, ps, pu)))
    if float(np.max(np.abs(stages[-1] - ws))) > 1e-6:
        raise InvariantError("inverse leaf parameters failed to reproduce their targets")
    inv_rhs = kappa_used / (1 - kappa_used) * solver.norm.norm(ws - x)
    inverse_ok = bool(np.all(inv_lhs <= inv_rhs + 1e-10))
    return {
        "kappa_used": kappa_used,
        "direct_ok": direct_ok,
        "direct_margin": direct_margin,
        "inverse_ok": inverse_ok,
        "inverse_margin": float(np.max(inv_lhs - inv_rhs)),
        "samples": samples,
    }


def _envelope_growth_exponent(profile: list[dict], bins: int = 5) -> float:
    """Growth exponent of the sup deviation against log|n|.

    The bound being probed is an envelope, so the slope is fitted on the
    per-bin maxima of log(deviation) against log(log|n|); a raw least
    squares fit would be dominated by the scatter of the small vectors.
    """
    norms = np.array([r["norm"] for r in profile])
    devs = np.array([r["deviation"] for r in profile])
    mask = (norms > 1.5) & (devs > 0)
    if np.sum(mask) < 4:
        return 0.0
    ln = np.log(norms[mask])
    ld = np.log(devs[mask])
    edges = np.linspace(ln.min(), ln.max() + 1e-9, bins + 1)
    xs, ys = [], []
    for a, b in zip(edges, edges[1:]):
        mm = (ln >= a) & (ln < b)
        if np.any(mm):
            i = np.argmax(ld[mm])
            xs.append(np.log(ln[mm][i]))
            ys.append(ld[mm][i])
    if len(xs) < 2:
        return 0.0
    return float(np.polyfit(xs, ys, 1)[0])


def _lattice_vector(head: tuple[int, ...], n: int) -> np.ndarray:
    """The integer vector of length n that starts with head and is zero after it."""
    v = np.zeros(n, dtype=int)
    v[:len(head)] = head[:n]
    return v


# At amplitude 0 every degeneration check must read at most DEGENERATION_TOL.
DEGENERATION_TOL = 1e-8


def degeneration_checks(solver: LeafSolver, seed: int) -> dict:
    """At amplitude 0 every operation must reduce to its linear closed form.
    The stable graph is read on the nodes of step 1/16 in the coordinate cube
    that covers 1.25 times the adapted unit s-ball."""
    rng = np.random.default_rng(seed)
    half = 1.25 * max(1.0, 1 / math.sqrt(float(np.linalg.eigvalsh(solver.norm.gram_s)[0])))
    m = math.ceil(16 * half)
    axes = np.meshgrid(*[np.arange(-m, m + 1) / 16] * solver.block_dim("s"), indexing="ij")
    nodes = np.stack([ax.ravel() for ax in axes], axis=-1)
    g_sup = float(np.max(np.abs(solver.leaf_offset(np.zeros(solver.n), "s", nodes))))
    n_vec = _lattice_vector((2, -1, 1, 3), solver.n)
    charts = rng.uniform(-0.5, 0.5, size=(8, solver.dims[1]))
    nc = (n_vec @ solver.coords.T)[solver.block_idx["c"]]
    tn = deck_holonomy(solver, n_vec, charts)
    tn_dev = float(np.max(np.abs(tn - (charts + nc))))
    vs = rng.standard_normal((16, solver.n))
    phi = solver.from_leaf_params(np.zeros(solver.n), vs)
    phi_dev = float(np.max(np.abs(phi - vs)))
    defect = commutation_defect(solver, n_vec, -n_vec + 1, sample_count=6, seed=seed)
    checks = {
        "graph_sup": g_sup,
        "deck_translation_dev": tn_dev,
        "leaf_param_identity_dev": phi_dev,
        "commutation_defect": defect,
    }
    checks["passed"] = bool(all(v <= DEGENERATION_TOL for v in checks.values()))
    return checks


# The perturbation study's fixed sample sizes: chart points per lattice vector
# of the deviation profile, random parameters per flavor and base point of the
# graph constant, and random su-paths of the holonomy Lipschitz probe.
CHART_SAMPLES = 3
KAPPA_SAMPLES = 60
LIP_PATHS = 8

# Budgets of the study's sizes, checked before anything is allocated: the
# phi-bound samples cost about 8 KB and 1 ms a row per amplitude, and each
# lattice vector three deviation rows.  N_MAX_LIMIT is a precision limit: the
# deck holonomies translate points by n, and past |n| = 1e4 a coordinate's
# rounding (ulp(1e4) = 1.8e-12) exceeds the leaf solver's FIX_TOL, so the
# deviations measured there would be rounding noise.
PHI_SAMPLES_BUDGET = 50_000
N_COUNT_BUDGET = 10_000
N_MAX_LIMIT = 1e4


def perturb_experiment(
    base_map: PerturbedMap,
    amplitudes: list[float],
    seed: int = 0,
    n_max: float = 100.0,
    n_count: int = 24,
    phi_samples: int = 1000,
) -> dict:
    """Graph constants, deck-holonomy deviations, and Lipschitz fits per amplitude."""
    if not all(math.isfinite(amp) for amp in amplitudes):
        raise InputError(f"amplitudes must be finite numbers, got {amplitudes}")
    if n_count < 1 or phi_samples < 1 or not 2 <= n_max <= N_MAX_LIMIT:
        raise InputError("the perturbation study needs n_count >= 1, phi_samples >= 1 and "
                         f"2 <= n_max <= {N_MAX_LIMIT:g}, got {n_count}, {phi_samples} and {n_max!r}")
    if n_count > N_COUNT_BUDGET or phi_samples > PHI_SAMPLES_BUDGET:
        raise BudgetError(f"the perturbation study allows n_count <= {N_COUNT_BUDGET} and "
                          f"phi_samples <= {PHI_SAMPLES_BUDGET}, got {n_count} and {phi_samples}")
    a = base_map.matrix
    # the exact center dimension is checked before any float work
    spectrum = _factor_spectrum(a.char_poly())
    if _modulus_counts(spectrum)[1] == 0:
        raise OutOfHypothesesError("the perturbation study needs a center (dim_center is 0)")
    split = compute_splitting(a, spectrum=spectrum)
    norm = adapted_norm(split)
    try:
        dim_x = pseudo_anosov_subspace(a, split=split).dim_x
    except OutOfHypothesesError:
        dim_x = None
    results = []
    csv_rows: list[tuple[float, float, float]] = []
    for amp in amplitudes:
        f = rescale_amplitudes(base_map, amp)
        solver = LeafSolver(f, split, norm)
        entry: dict = {"amplitude": amp, "c1_bound": f.c1_deviation_bound()}
        if amp == 0:
            entry["degeneration"] = degeneration_checks(solver, seed)
            entry["kappa_emp"] = 0.0
            results.append(entry)
            continue
        kap = measure_kappa(solver, radius=1.5, samples=KAPPA_SAMPLES, seed=seed + 1)
        entry["kappa_emp"] = kap["max"]
        entry["kappa_by_flavor"] = {k: v for k, v in kap.items() if k != "max"}
        if kap["max"] > 0.5:
            raise InvariantError("graph constant exceeds 1/2; downstream bounds are void")

        rng = np.random.default_rng(seed + 2)
        charts = rng.uniform(-0.4, 0.4, size=(CHART_SAMPLES, split.dims[1]))
        n_list = sample_lattice_vectors(solver, n_max, n_count, seed=seed + 3)
        if not n_list:
            raise InputError(f"no sampled lattice vector has adapted norm <= {n_max}")
        prof = deviation_profile(solver, n_list, charts)
        for r in prof:
            csv_rows.append((amp, r["norm"], r["deviation"]))
        growth_exponent = _envelope_growth_exponent(prof)
        # C with dev <= C log|n| + C: smallest C covering all samples
        c_fit = max(r["deviation"] / (np.log(max(r["norm"], 1.01)) + 1.0) for r in prof)
        entry["deck_deviation"] = {
            "n_count": len(prof),
            "max_norm": n_max,
            "log_fit_c": float(c_fit),
            "growth_exponent": growth_exponent,
        }
        probe = holonomy_lipschitz_probe(solver, leg_budget=3, length_budget=6.0,
                                         samples=LIP_PATHS, seed=seed + 4)
        fit = deck_lipschitz_fit(solver, n_list[: min(8, len(n_list))], seed=seed + 5)
        entry["holonomy_lipschitz"] = {"c_emp": probe.c_emp, "beta_emp": probe.beta_emp}
        entry["deck_lipschitz"] = fit
        if dim_x is not None:
            entry["appendix_constants"] = appendix_constants(
                dim_x, max(probe.beta_emp, fit["beta_emp"], 0.0))
        entry["phi_bounds"] = phi_bound_checks(solver, kap["max"], phi_samples,
                                               radius=1.0, seed=seed + 6)
        entry["commutation_defect"] = commutation_defect(
            solver, _lattice_vector((1, 0, 1, -1), solver.n), _lattice_vector((0, 1, -1, 1), solver.n),
            sample_count=8, seed=seed + 7)
        results.append(entry)
    return {
        "config": {
            "amplitudes": amplitudes,
            "seed": seed,
            "n_max": n_max,
            "n_count": n_count,
            "phi_samples": phi_samples,
        },
        "matrix": [list(r) for r in a.rows],
        "results": results,
        "csv_rows": csv_rows,
    }


def curve_experiment(a: IntMatrix, eps: float, radius: float, seed: int = 0) -> dict:
    """Build the lattice winding curve for a random center target and verify it."""
    split = compute_splitting(a, spectrum=hypothesis_spectrum(a))
    norm = adapted_norm(split)
    pa = pseudo_anosov_subspace(a, split=split)
    gamma = orbit_sublattice(a, pa.k, 1, pa.lam.basis[0], pa)
    rng = np.random.default_rng(seed)
    x = np.zeros(a.n)
    y = x + split.basis_c @ (rng.uniform(-2, 2, size=split.dims[1]))
    curve = winding_curve(x, y, gamma, eps, radius, split, norm)
    return {
        "config": {"eps": eps, "radius": radius, "seed": seed},
        "pa": pa.to_json(),
        "gamma_basis": [list(r) for r in gamma.basis],
        "curve": curve.to_json(),
        "winding": curve.winding,
        "y": [float(v) for v in y],
    }
