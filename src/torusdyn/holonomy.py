"""Center holonomies of the perturbed map along stable/unstable paths.

The deck holonomy attached to a lattice vector n translates the center
leaf of 0 by n and slides it back along stable then unstable leaves,
read in the chart of W^c(0); at the linear map it is exactly the
translation by the center component of n.  The module also measures
commutation defects and empirical Lipschitz constants of path
holonomies ("C^K L^(K beta)" fits).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .manifolds import LeafSolver


# Lipschitz probes: pairs of chart points PROBE_STEP apart, the first drawn
# from the cube of half-width PROBE_RADIUS; commutation defects sample the
# cube of half-width DEFECT_RADIUS.
PROBE_STEP = 1e-4
PROBE_RADIUS = 0.4
DEFECT_RADIUS = 0.5

# holonomy leg flavor -> the intersection that slides a point along it
HOLONOMY_PAIR = {"s": ("s", "cu"), "u": ("u", "cs")}


def deck_holonomy(solver: LeafSolver, n_vec: Sequence, chart_x: np.ndarray) -> np.ndarray:
    """T_n in the center chart, for lattice vectors n (..., n) and chart
    values (B, dim_c), or one (B, dim_c) set per vector, (..., B, dim_c);
    returns (..., B, dim_c).

    Composition: translate by n, slide along stable leaves onto W^cu(0),
    then along unstable leaves onto W^cs(0); the result lies on W^c(0).
    Every (n, x) pair runs through one batched pipeline.
    """
    chart_x = np.atleast_2d(np.asarray(chart_x, dtype=float))
    n_arr = np.asarray(n_vec, dtype=float)
    z = solver.center_point(chart_x) + n_arr[..., None, :]
    zero = np.zeros(solver.n)
    q = solver.intersection_batch(z.reshape(-1, solver.n), zero, HOLONOMY_PAIR["s"])
    out = solver.intersection_batch(q, zero, HOLONOMY_PAIR["u"])
    return solver.center_chart(out).reshape(z.shape[:-1] + chart_x.shape[-1:])


def commutation_defect(
    solver: LeafSolver,
    n_vec: Sequence[int],
    m_vec: Sequence[int],
    sample_count: int = 12,
    seed: int = 0,
) -> float:
    """max over sampled chart points of |T_n(T_m(x)) - T_{n+m}(x)|.

    Zero exactly at the linear map; the defect under perturbations is
    reported and not assumed symmetric in (n, m).
    """
    rng = np.random.default_rng(seed)
    dc = solver.dims[1]
    xs = rng.uniform(-DEFECT_RADIUS, DEFECT_RADIUS, size=(sample_count, dc))
    tm, tnm = deck_holonomy(solver, np.stack([m_vec, np.add(n_vec, m_vec)]), xs)
    tn_tm = deck_holonomy(solver, n_vec, tm)
    return float(np.max(solver.norm.block_norm(tn_tm - tnm, "c")))


def _probe_pairs(rng: np.random.Generator, dc: int) -> np.ndarray:
    """Three pairs of chart points PROBE_STEP apart, as rows (6, dc)."""
    probe_list = []
    for _ in range(3):
        p0 = rng.uniform(-PROBE_RADIUS, PROBE_RADIUS, size=dc)
        d = rng.standard_normal(dc)
        d /= np.linalg.norm(d)
        probe_list += [p0, p0 + PROBE_STEP * d]
    return np.array(probe_list)


def _pair_lipschitz(solver: LeafSolver, probes: np.ndarray, images: np.ndarray) -> np.ndarray:
    """The largest ratio |image difference| / |probe difference| over the
    consecutive pairs of each probe set; probes and images (..., 2k, dim_c)
    in the center chart, whose map is linear, so chart differences measure
    distances along the center leaf."""
    din = solver.norm.block_norm(probes[..., 1::2, :] - probes[..., ::2, :], "c")
    dout = solver.norm.block_norm(images[..., 1::2, :] - images[..., ::2, :], "c")
    return np.max(dout / din, axis=-1)


@dataclass
class LipschitzProbe:
    c_emp: float
    beta_emp: float
    path_records: list[dict]


def holonomy_lipschitz_probe(
    solver: LeafSolver,
    leg_budget: int = 4,
    length_budget: float = 8.0,
    samples: int = 10,
    seed: int = 0,
) -> LipschitzProbe:
    """Random su-paths with at most leg_budget legs and length <= length_budget;
    fits log Lip = K log C + K beta log L over the sampled paths.

    Every path is drawn first; then leg i of all paths is walked with one
    leaf solve and one intersection batch per flavor."""
    rng = np.random.default_rng(seed)
    paths, probes, records = [], [], []
    for _ in range(samples):
        k = int(rng.integers(1, leg_budget + 1))
        total = float(rng.uniform(0.5, length_budget))
        lengths = rng.dirichlet(np.ones(k)) * total
        legs = []
        for i in range(k):
            flavor = "s" if (i + int(rng.integers(0, 2))) % 2 == 0 else "u"
            d = len(solver.param_indices(flavor))
            direction = rng.standard_normal(d)
            direction /= max(solver.param_norm(flavor, direction), 1e-12)
            legs.append((flavor, direction * lengths[i]))
        paths.append(legs)
        probes.append(_probe_pairs(rng, solver.dims[1]))
        records.append({"legs": k, "length": max(total, 1.0)})
    probes = np.array(probes)
    pts = solver.center_point(probes)  # (paths, 6, n)
    bases = np.zeros((samples, solver.n))
    for i in range(leg_budget):
        for flavor in ("s", "u"):
            on = [j for j, legs in enumerate(paths) if len(legs) > i and legs[i][0] == flavor]
            if on:
                bases[on] = solver.leaf_points(bases[on], flavor, np.array([paths[j][i][1] for j in on]))
                ys = np.repeat(bases[on], probes.shape[1], axis=0)
                pts[on] = solver.intersection_batch(pts[on].reshape(-1, solver.n), ys, HOLONOMY_PAIR[flavor]
                                                    ).reshape(len(on), -1, solver.n)
    for rec, lip in zip(records, _pair_lipschitz(solver, probes, solver.center_chart(pts))):
        rec["lip"] = float(lip)
    # fit the exponent by least squares, then raise the constant to an
    # envelope so Lip <= C^K L^(K beta) covers every sampled path
    a = np.array([[r["legs"], r["legs"] * np.log(r["length"])] for r in records])
    b = np.array([np.log(max(r["lip"], 1e-12)) for r in records])
    coef, *_ = np.linalg.lstsq(a, b, rcond=None)
    beta = float(coef[1])
    log_c = max(
        (np.log(max(r["lip"], 1e-12)) - r["legs"] * beta * np.log(r["length"])) / r["legs"]
        for r in records
    )
    return LipschitzProbe(c_emp=float(np.exp(log_c)), beta_emp=beta,
                          path_records=records)


def deck_lipschitz_fit(solver: LeafSolver, n_list: Sequence[Sequence[int]], seed: int = 0) -> dict:
    """Fit Lip(T_n) <= C |n|^beta over the given lattice vectors, each probed
    at its own pairs of chart points; every vector runs in one pipeline."""
    rng = np.random.default_rng(seed)
    probes = np.array([_probe_pairs(rng, solver.dims[1]) for _ in n_list])
    n_arr = np.asarray(n_list, dtype=float)
    lips = [float(v) for v in _pair_lipschitz(solver, probes, deck_holonomy(solver, n_arr, probes))]
    norms = [float(solver.norm.norm(v)) for v in n_arr]
    a = np.column_stack([np.ones(len(lips)), np.log(norms)])
    coef, *_ = np.linalg.lstsq(a, np.log(np.maximum(lips, 1e-12)), rcond=None)
    beta = float(coef[1])
    # envelope constant: Lip(T_n) <= c_emp |n|^beta on every sample
    c_env = max(l / nv ** beta for l, nv in zip(lips, norms))
    return {
        "c_emp": float(c_env),
        "beta_emp": beta,
        "lips": lips,
        "norms": norms,
    }


def deviation_profile(
    solver: LeafSolver,
    n_list: Sequence[Sequence[int]],
    chart_points: np.ndarray,
) -> list[dict]:
    """sup_x |T_n(x) - (x + n^c)| per n, with |n| in the adapted norm."""
    chart_points = np.atleast_2d(chart_points)
    n_arr = np.asarray(n_list, dtype=float)
    charts = deck_holonomy(solver, n_arr, chart_points)
    ncs = (n_arr @ solver.coords.T)[:, solver.block_idx["c"]]
    devs = solver.norm.block_norm(charts - (chart_points[None, :, :] + ncs[:, None, :]), "c")
    out = []
    for i, n_vec in enumerate(n_list):
        out.append({
            "n": [int(v) for v in n_vec],
            "norm": float(solver.norm.norm(n_arr[i])),
            "deviation": float(np.max(devs[i])),
        })
    return out
