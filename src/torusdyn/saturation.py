"""Saturation sets, recurrence translations, cones, and winding curves.

Machinery driving the minimality-style experiments: sampled 4-stage
leaf-saturation sets and their pigeonhole translation vectors, coverage
checks for the leaf-parameter coordinates, cone membership, and the
piecewise-linear lattice curve that winds once around the hyperbolic
subspace while staying inside a center cone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from .diophantine import lattice_ball
from .errors import BudgetError, InputError, InvariantError, NumericsError
from .lattice import Lattice
from .manifolds import LeafSolver
from .pseudo_anosov import PASubspace
from .splitting import AdaptedNorm, Splitting
from .winding import winding_number


# -- coverage of balls by leaf coordinates --------------------------------------


def _sample_adapted_ball(solver: LeafSolver, radius: float, count: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Points of the adapted-norm ball of the full space (ambient vectors)."""
    n = solver.n
    d = rng.standard_normal((count, n))
    norms = solver.norm.norm(d)
    scale = radius * rng.uniform(0, 1, size=count) ** (1.0 / n)
    return d * (scale / norms)[:, None]


@dataclass
class CoverageResult:
    passed: bool
    samples: int
    failures: int
    worst_excess: float
    worst_point: Optional[list]

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "samples": self.samples,
            "failures": self.failures,
            "worst_excess": self.worst_excess,
            "worst_point": self.worst_point,
        }


def coverage_check(solver: LeafSolver, x: np.ndarray, r: float,
                   sample_count: int = 1000, seed: int = 0,
                   form: str = "csu") -> CoverageResult:
    """Check that points of B(x, r/2) carry leaf parameters within radius r.

    form "csu": invert the center/stable/unstable coordinates (the map Phi);
    form "su+c": invert the su-sheet plus center translation (the map Psi).
    Requires the graph constants below 1/2 to be meaningful; failures are
    counted, and the worst parameter excess over r is reported.
    """
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    ys = x + _sample_adapted_ball(solver, r / 2, sample_count, rng)
    if form == "csu":
        vc, vs, vu = solver.to_leaf_params_batch(x, ys)
    elif form == "su+c":
        vs, vu, vc = su_sheet_params(solver, x, ys)
    else:
        raise InputError("form must be 'csu' or 'su+c'")
    sizes = np.stack(
        [
            solver.norm.block_norm(vc, "c"),
            solver.norm.block_norm(vs, "s"),
            solver.norm.block_norm(vu, "u"),
        ],
        axis=-1,
    )
    excess = np.max(sizes, axis=-1) - r
    bad = excess > 0
    failures = int(np.sum(bad))
    worst_i = int(np.argmax(excess))
    return CoverageResult(
        passed=(failures == 0),
        samples=sample_count,
        failures=failures,
        worst_excess=float(max(excess[worst_i], 0.0)),
        worst_point=[float(v) for v in ys[worst_i]] if failures else None,
    )


def su_sheet_params(solver: LeafSolver, x: np.ndarray, ys: np.ndarray,
                    tol: float = 1e-11, max_iter: int = 200):
    """Parameters (vs, vu, vc) with y = sigma^u(vu, sigma^s(vs, x)) + vc-embedded.

    Batched over rows of ys.  The su-sheet is transversal to the center
    directions, so the fixed point iteration on (vs, vu) contracts at the
    graph-constant rate.
    """
    x = np.asarray(x, dtype=float)
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    ds, dc, du = solver.dims
    m = len(ys)
    vs = np.zeros((m, ds))
    vu = np.zeros((m, du))
    for _ in range(max_iter):
        mid = solver.leaf_points(x, "s", vs)
        p = solver.leaf_points(mid, "u", vu)
        diff = (ys - p) @ solver.coords.T
        ds_step = diff[:, solver.block_idx["s"]]
        du_step = diff[:, solver.block_idx["u"]]
        vs = vs + ds_step
        vu = vu + du_step
        if max(np.max(np.abs(ds_step), initial=0), np.max(np.abs(du_step), initial=0)) <= tol:
            break
    else:
        raise NumericsError("su-sheet parameter iteration did not converge")
    vc = diff[:, solver.block_idx["c"]]
    return vs, vu, vc


# -- saturation sets ---------------------------------------------------------------


@dataclass
class SaturationSet:
    """Sampled 4-stage leaf saturation of a point: stable(eps) of
    unstable(L + eps) of stable(L) of center(eps)."""

    x: np.ndarray
    eps: float
    big_l: float
    points: np.ndarray           # (m, n)
    trails: np.ndarray           # (m, dc + ds + du + ds) stage parameters
    stage_dims: tuple[int, int, int, int]
    stage_radii: tuple[float, float, float, float]
    seed: int

    def to_json(self) -> dict:
        return {
            "x": [float(v) for v in self.x],
            "eps": self.eps,
            "L": self.big_l,
            "count": int(len(self.points)),
            "stage_dims": list(self.stage_dims),
            "stage_radii": list(self.stage_radii),
            "seed": self.seed,
        }

    def csv_rows(self):
        for p, t in zip(self.points, self.trails):
            yield [*map(float, p), *map(float, t)]


def _ball_params(rng, count, dim, radius, block_norm) -> np.ndarray:
    d = rng.standard_normal((count, dim))
    norms = np.maximum(block_norm(d), 1e-12)
    scale = radius * rng.uniform(0, 1, size=count) ** (1.0 / dim)
    return d * (scale / norms)[:, None]


def build_saturation_set(
    solver: LeafSolver,
    x: np.ndarray,
    eps: float,
    samples_per_stage: tuple[int, int, int, int] = (3, 6, 6, 3),
    seed: int = 0,
) -> SaturationSet:
    """Stratified sample of the 4-stage saturation set with parameter trails.

    The leaf radii grow like L = eps^-2, so small eps means long leaf
    walks; at desk scale eps below ~0.15 becomes expensive.
    """
    if eps <= 0:
        raise InputError("eps must be positive")
    big_l = eps ** -2
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    ds, dc, du = solver.dims
    n1, n2, n3, n4 = samples_per_stage

    c_par = _ball_params(rng, n1, dc, eps, lambda v: solver.norm.block_norm(v, "c"))
    stage1 = solver.leaf_points(x, "c", c_par)

    s1_par = _ball_params(rng, n1 * n2, ds, big_l, lambda v: solver.norm.block_norm(v, "s"))
    bases2 = np.repeat(stage1, n2, axis=0)
    stage2 = solver.leaf_points(bases2, "s", s1_par)

    u_par = _ball_params(rng, n1 * n2 * n3, du, big_l + eps, lambda v: solver.norm.block_norm(v, "u"))
    bases3 = np.repeat(stage2, n3, axis=0)
    stage3 = solver.leaf_points(bases3, "u", u_par)

    s2_par = _ball_params(rng, n1 * n2 * n3 * n4, ds, eps, lambda v: solver.norm.block_norm(v, "s"))
    bases4 = np.repeat(stage3, n4, axis=0)
    stage4 = solver.leaf_points(bases4, "s", s2_par)

    trails = np.concatenate(
        [
            np.repeat(c_par, n2 * n3 * n4, axis=0),
            np.repeat(s1_par, n3 * n4, axis=0),
            np.repeat(u_par, n4, axis=0),
            s2_par,
        ],
        axis=1,
    )
    return SaturationSet(
        x=x,
        eps=eps,
        big_l=big_l,
        points=stage4,
        trails=trails,
        stage_dims=(dc, ds, du, ds),
        stage_radii=(eps, big_l, big_l + eps, eps),
        seed=seed,
    )


# -- pigeonhole recurrence translations ------------------------------------------------


def overlap_translation_linear(
    pa: PASubspace,
    norm: AdaptedNorm,
    eps: float,
) -> tuple[int, ...]:
    """Smallest lattice vector translating the linear-case saturation box into
    itself: exact box-overlap test for the unperturbed dynamics.

    The stage boxes compose to |v^c| <= eps, |v^s| <= L + eps, |v^u| <= L + eps,
    so an overlap translation is any lattice n in twice that box.
    """
    big_l = eps ** -2
    bound = 5 * big_l
    ball = lattice_ball(pa.lam, norm, bound)
    split = norm.splitting
    ns, nc, nu = norm.component_norms(ball.vectors.astype(float))
    ok = (nc <= 2 * eps + 1e-12) & (ns <= 2 * (big_l + eps) + 1e-12) & (nu <= 2 * (big_l + eps) + 1e-12)
    if not np.any(ok):
        raise BudgetError("no lattice vector in the overlap box within the bound")
    i = int(np.argmax(ok))
    return tuple(int(v) for v in ball.vectors[i])


def find_overlap_translation(
    solver: LeafSolver,
    pa: PASubspace,
    x: np.ndarray,
    eps: float,
    kappa_emp: float,
    cloud: Optional[SaturationSet] = None,
    samples_per_stage: tuple[int, int, int, int] = (2, 20, 20, 2),
    seed: int = 0,
    delta_merge: Optional[float] = None,
    max_candidates: int = 4000,
) -> dict:
    """First lattice vector (by adapted norm) whose translate of the sampled
    saturation set comes within merge tolerance of the set itself.

    The search bound is 5 (1 + kappa) L(eps); running out of candidates
    within the bound signals insufficient sampling density, not absence.
    """
    big_l = eps ** -2
    bound = 5 * (1 + kappa_emp) * big_l
    if cloud is None:
        cloud = build_saturation_set(solver, x, eps, samples_per_stage, seed)
    pts = cloud.points
    tree = cKDTree(pts)
    if delta_merge is None:
        nn, _ = tree.query(pts, k=2)
        delta_merge = 2.0 * float(np.median(nn[:, 1]))
    ball = lattice_ball(pa.lam, solver.norm, bound)
    # only a hit within delta_merge matters, so each query prunes at a bound
    # strictly above it; points beyond the bound come back as inf
    upper = 2.0 * delta_merge if delta_merge > 0 else np.inf
    checked = 0
    for vec, nrm_val in zip(ball.vectors, ball.norms):
        if checked >= max_candidates:
            break
        checked += 1
        d, _ = tree.query(pts + np.asarray(vec, dtype=float), k=1, distance_upper_bound=upper)
        if float(np.min(d)) <= delta_merge:
            return {
                "n": tuple(int(v) for v in vec),
                "norm": float(nrm_val),
                "bound": bound,
                "delta_merge": delta_merge,
                "candidates_checked": checked,
            }
    raise BudgetError(
        f"no overlap translation within |n| <= {bound:.2f} at this sampling "
        f"density ({checked} candidates); refine the cloud"
    )


# -- cones ------------------------------------------------------------------


def cone_member(z: np.ndarray, y: np.ndarray, eps: float, norm: AdaptedNorm) -> bool:
    """Membership of z in the center cone at y: |(z-y)^su| < eps |z-y|."""
    rel = np.asarray(z, dtype=float) - np.asarray(y, dtype=float)
    ns, nc, nu = norm.component_norms(rel)
    total = ns + nc + nu
    return bool(ns + nu < eps * total)


# -- the winding curve --------------------------------------------------------------


@dataclass
class PLCurve:
    """Closed piecewise-linear curve with lattice vertices and 3 generators."""

    base: np.ndarray                  # the point x
    offsets: np.ndarray               # (m+1, n) integer offsets from base, closed
    generators: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    generator_index: tuple[int, ...]  # per segment, in {0, 1, 2}
    scale_k: int

    @property
    def vertices(self) -> np.ndarray:
        return self.base + self.offsets.astype(float)

    def sample(self, per_segment: int = 8) -> np.ndarray:
        verts = self.vertices
        out = []
        ts = np.linspace(0, 1, per_segment, endpoint=False)
        for a, b in zip(verts[:-1], verts[1:]):
            out.append(a[None, :] + ts[:, None] * (b - a)[None, :])
        out.append(verts[-1:])
        return np.vstack(out)

    def to_json(self) -> dict:
        return {
            "base": [float(v) for v in self.base],
            "offsets": [[int(v) for v in row] for row in self.offsets],
            "generators": [list(g) for g in self.generators],
            "generator_index": list(self.generator_index),
            "scale_k": self.scale_k,
        }


def covering_radius_bound(gamma: Lattice, norm: AdaptedNorm) -> float:
    """Upper bound on the covering radius: half the sum of basis norms
    (any point of the fundamental cell is within this of a vertex)."""
    b = np.array(gamma.basis, dtype=float)
    return 0.5 * float(np.sum(norm.norm(b)))


def winding_curve(
    x: np.ndarray,
    y: np.ndarray,
    gamma: Lattice,
    eps: float,
    radius: float,
    split: Splitting,
    norm: AdaptedNorm,
    max_retries: int = 5,
    samples_per_segment: int = 8,
) -> PLCurve:
    """Closed lattice triangle curve winding once around the su-subspace at y.

    Construction: an equilateral triangle in the center plane with
    circumradius 6 d/eps (d an upper bound for the covering radius of the
    lattice), snapped to lattice points, scaled by the smallest K meeting
    the hull, cone and radius requirements.  All four defining properties
    are verified before returning; if the snap breaks hull containment the
    circumradius is doubled (up to max_retries).
    """
    if not (math.isfinite(eps) and eps > 0):
        raise InputError(f"eps must be a positive finite number, got {eps}")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if gamma.rank < 2:
        raise InputError("lattice must have full rank in a space containing the center")
    d_gamma = covering_radius_bound(gamma, norm)
    rel = y - x
    ns, nc, nu = norm.component_norms(rel)
    if ns + nu > 1e-6 * max(1.0, nc):
        raise InputError("y must lie in the center plane of x")
    y_dist = float(ns + nc + nu)

    basis = np.array(gamma.basis, dtype=float)
    _, basis_c, _ = split.components(basis)

    circum = 6 * d_gamma / eps
    for _attempt in range(max_retries):
        # equilateral triangle in center coordinates
        angles = np.array([0.5, 0.5 + 2.0 / 3.0, 0.5 + 4.0 / 3.0]) * np.pi
        zc = circum * np.column_stack([np.cos(angles), np.sin(angles)])
        z_amb = zc @ split.basis_c.T
        coeffs = np.linalg.lstsq(basis.T, z_amb.T, rcond=None)[0].T
        v_int = np.rint(coeffs).astype(np.int64)
        v_amb = v_int @ np.array(gamma.basis, dtype=np.int64)
        snap_err = norm.norm(v_amb.astype(float) - z_amb)
        if np.max(snap_err) >= d_gamma * (1 + 1e-9):
            raise InvariantError("snap moved farther than the covering bound")
        # hull of the snapped center components must contain B(0, 2 d / eps)
        _, vc, _ = split.components(v_amb.astype(float))
        if not _triangle_contains_disk(vc, 2 * d_gamma / eps):
            circum *= 2
            continue
        k1 = y_dist * eps / (2 * d_gamma)
        k2 = y_dist / d_gamma
        k3 = (radius + y_dist) * eps / (2 * d_gamma)
        k = int(math.ceil(max(k1, k2, k3, 1.0))) + 1
        gens = (
            tuple(int(t) for t in v_amb[1] - v_amb[0]),
            tuple(int(t) for t in v_amb[2] - v_amb[1]),
            tuple(int(t) for t in v_amb[0] - v_amb[2]),
        )
        offsets = [k * v_amb[0]]
        gen_idx = []
        for j in range(3):
            g = np.array(gens[j], dtype=np.int64)
            for _ in range(k):
                offsets.append(offsets[-1] + g)
                gen_idx.append(j)
        curve = PLCurve(
            base=x,
            offsets=np.array(offsets, dtype=np.int64),
            generators=gens,
            generator_index=tuple(gen_idx),
            scale_k=k,
        )
        pts = curve.sample(samples_per_segment)
        rel_pts = pts - y
        nss, ncc, nuu = norm.component_norms(rel_pts)
        dist = nss + ncc + nuu
        in_cone = np.all(nss + nuu < eps * dist)
        far = np.all(dist > radius)
        if not (in_cone and far):
            circum *= 2
            continue
        w = winding_number(pts, y, split)
        if abs(w) != 1:
            raise InvariantError(f"winding curve has winding {w}, expected +-1")
        return curve
    raise BudgetError("winding curve construction exhausted its retries")


def _triangle_contains_disk(vc: np.ndarray, r: float) -> bool:
    """Does the triangle with the given 2-dim vertices contain B(0, r)?"""
    for i in range(3):
        a, b = vc[i], vc[(i + 1) % 3]
        edge = b - a
        nrm = np.array([-edge[1], edge[0]])
        nn = np.linalg.norm(nrm)
        if nn == 0:
            return False
        # origin must be on the inner side, at distance >= r
        side = -np.dot(nrm, a) / nn
        third = vc[(i + 2) % 3]
        side_third = np.dot(nrm, third - a) / nn
        if side_third < 0:
            side = -side
        if side < r:
            return False
    return True


def appendix_constants(dim_x: int, beta_emp: float) -> dict:
    """Derived exponents for the volume-growth experiment.

    gamma must be positive for the growth trend to be asserted; a negative
    gamma means the measured holonomy exponent is too large.
    """
    r = dim_x // 2
    s = 2 * r + 1
    gamma = 1.0 - beta_emp * (s + 14)
    return {"r": r, "s": s, "gamma": gamma, "asserts_growth": gamma > 0}
