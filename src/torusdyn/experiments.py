"""Deterministic experiment drivers shared by the CLI and the test suite.

Every experiment is reproducible from (config, seed): all randomness is
drawn from generators seeded here, outputs carry the echoed config, and
nothing time- or host-dependent enters the result dictionaries.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InputError, InvariantError, OutOfHypothesesError
from .holonomy import (
    commutation_defect,
    deck_holonomy,
    deck_lipschitz_fit,
    deviation_profile,
    holonomy_lipschitz_probe,
)
from .intmatrix import IntMatrix
from .manifolds import LeafSolver, graph_transform, measure_kappa
from .perturbed import PerturbedMap, Shear
from .pseudo_anosov import orbit_sublattice, pseudo_anosov_subspace
from .splitting import adapted_norm, compute_splitting
from .saturation import appendix_constants, winding_curve
from .winding import winding_number


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

    coords = vs @ solver.coords.T
    vc = coords[:, solver.block_idx["c"]]
    vsb = coords[:, solver.block_idx["s"]]
    vub = coords[:, solver.block_idx["u"]]
    p1 = solver.leaf_points(x, "c", vc)
    p2 = solver.leaf_points(p1, "s", vsb)
    p3 = solver.leaf_points(p2, "u", vub)

    def stage_kappa(base, pts, block, params):
        offs = (pts - base) @ solver.coords.T
        perp = np.delete(offs, solver.block_idx[block], axis=-1)
        num = np.zeros(len(pts))
        cols = [b for b in ("s", "c", "u") if b != block]
        off = 0
        for b in cols:
            d = solver.block_dim(b)
            num += solver.norm.block_norm(perp[:, off:off + d], b)
            off += d
        den = solver.norm.block_norm(params, block)
        mask = den > 1e-9
        return float(np.max(num[mask] / den[mask])) if np.any(mask) else 0.0

    kappa_used = max(
        kappa_floor,
        stage_kappa(np.broadcast_to(x, p1.shape), p1, "c", vc),
        stage_kappa(p1, p2, "s", vsb),
        stage_kappa(p2, p3, "u", vub),
    )
    lhs = solver.norm.norm(p3 - (x + vs))
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
    q1 = solver.leaf_points(x, "c", pc)
    q2 = solver.leaf_points(q1, "s", ps)
    q3 = solver.leaf_points(q2, "u", pu)
    kappa_used = max(
        kappa_used,
        stage_kappa(np.broadcast_to(x, q1.shape), q1, "c", pc),
        stage_kappa(q1, q2, "s", ps),
        stage_kappa(q2, q3, "u", pu),
    )
    if float(np.max(np.abs(q3 - ws))) > 1e-6:
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


def degeneration_checks(f: PerturbedMap, solver: LeafSolver, tol: float = 1e-8,
                        seed: int = 0) -> dict:
    """At amplitude 0 every operation must reduce to its linear closed form."""
    rng = np.random.default_rng(seed)
    patch = graph_transform(solver, "s", np.zeros(solver.n), rho=1.0, grid_step=1 / 16)
    g_sup = float(np.max(np.abs(patch.values)))
    n_vec = np.array([2, -1, 1, 3][: solver.n])
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
    checks["passed"] = bool(all(v <= tol for v in checks.values()))
    return checks


def perturb_experiment(
    base_map: PerturbedMap,
    amplitudes: list[float],
    seed: int = 0,
    n_max: float = 100.0,
    n_count: int = 24,
    chart_samples: int = 3,
    phi_samples: int = 1000,
    kappa_samples: int = 60,
    lip_paths: int = 8,
) -> dict:
    """Graph constants, deck-holonomy deviations, and Lipschitz fits per amplitude."""
    if not all(math.isfinite(amp) for amp in amplitudes):
        raise InputError(f"amplitudes must be finite numbers, got {amplitudes}")
    a = base_map.matrix
    split = compute_splitting(a)
    if split.dims[1] == 0:
        raise OutOfHypothesesError("the perturbation study needs a center (dim_center is 0)")
    norm = adapted_norm(split)
    try:
        dim_x = pseudo_anosov_subspace(a, 12, split=split).dim_x
    except OutOfHypothesesError:
        dim_x = None
    results = []
    csv_rows: list[tuple[float, float, float]] = []
    for amp in amplitudes:
        f = rescale_amplitudes(base_map, amp)
        solver = LeafSolver(f, split, norm)
        entry: dict = {"amplitude": amp, "c1_bound": f.c1_deviation_bound()}
        if amp == 0:
            entry["degeneration"] = degeneration_checks(f, solver, seed=seed)
            entry["kappa_emp"] = 0.0
            results.append(entry)
            continue
        kap = measure_kappa(solver, radius=1.5, samples=kappa_samples, seed=seed + 1)
        entry["kappa_emp"] = kap["max"]
        entry["kappa_by_flavor"] = {k: v for k, v in kap.items() if k != "max"}
        if kap["max"] > 0.5:
            raise InvariantError("graph constant exceeds 1/2; downstream bounds are void")

        rng = np.random.default_rng(seed + 2)
        charts = rng.uniform(-0.4, 0.4, size=(chart_samples, split.dims[1]))
        n_list = sample_lattice_vectors(solver, n_max, n_count, seed=seed + 3)
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
                                         samples=lip_paths, seed=seed + 4)
        fit = deck_lipschitz_fit(solver, n_list[: min(8, len(n_list))], seed=seed + 5)
        entry["holonomy_lipschitz"] = {"c_emp": probe.c_emp, "beta_emp": probe.beta_emp}
        entry["deck_lipschitz"] = fit
        if dim_x is not None:
            entry["appendix_constants"] = appendix_constants(
                dim_x, max(probe.beta_emp, fit["beta_emp"], 0.0))
        entry["phi_bounds"] = phi_bound_checks(solver, kap["max"], phi_samples,
                                               radius=1.0, seed=seed + 6)
        entry["commutation_defect"] = commutation_defect(
            solver, [1, 0, 1, -1][: solver.n], [0, 1, -1, 1][: solver.n],
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


def curve_experiment(a: IntMatrix, eps: float, radius: float, seed: int = 0,
                     k_max: int = 24) -> dict:
    """Build the lattice winding curve for a random center target and verify it."""
    split = compute_splitting(a)
    norm = adapted_norm(split)
    pa = pseudo_anosov_subspace(a, k_max, split=split)
    gamma = orbit_sublattice(a, pa.k, 1, pa.lam.basis[0], pa)
    rng = np.random.default_rng(seed)
    x = np.zeros(a.n)
    y = x + split.basis_c @ (rng.uniform(-2, 2, size=split.dims[1]))
    curve = winding_curve(x, y, gamma, eps, radius, split, norm)
    pts = curve.sample()
    w = winding_number(pts, y, split)
    return {
        "config": {"eps": eps, "radius": radius, "seed": seed, "k_max": k_max},
        "pa": pa.to_json(),
        "gamma_basis": [list(r) for r in gamma.basis],
        "curve": curve.to_json(),
        "winding": w,
        "y": [float(v) for v in y],
    }
