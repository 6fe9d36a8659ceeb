"""Saturation sets, recurrence translations, and winding curves.

Machinery driving the minimality-style experiments: sampled 4-stage
leaf-saturation sets and their pigeonhole translation vectors, coverage
checks for the leaf-parameter coordinates, and the piecewise-linear lattice curve that winds once around the hyperbolic
subspace while staying inside a center cone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .diophantine import CURVE_VERTEX_BUDGET, lattice_ball_shells
from .errors import BudgetError, InputError, InvariantError, NumericsError
from .lattice import Lattice
from .manifolds import LeafSolver
from .pseudo_anosov import PASubspace
from .splitting import AdaptedNorm, Splitting
from .winding import winding_number


# -- coverage of balls by leaf coordinates --------------------------------------


def _ball_params(rng, count, dim, radius, block_norm) -> np.ndarray:
    """count points of the radius ball of the norm block_norm on R^dim:
    Gaussian directions scaled to norm radius * U^(1/dim)."""
    d = rng.standard_normal((count, dim))
    norms = np.maximum(block_norm(d), 1e-12)
    scale = radius * rng.uniform(0, 1, size=count) ** (1.0 / dim)
    return d * (scale / norms)[:, None]


@dataclass
class CoverageResult:
    passed: bool
    samples: int
    failures: int
    worst_excess: float
    worst_point: Optional[list]
    margin: float  # r minus the largest parameter norm: >= 0 when passed

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "samples": self.samples,
            "failures": self.failures,
            "worst_excess": self.worst_excess,
            "worst_point": self.worst_point,
            "margin": self.margin,
        }


def coverage_check(solver: LeafSolver, x: np.ndarray, r: float,
                   sample_count: int = 1000, seed: int = 0,
                   form: str = "csu") -> CoverageResult:
    """Check that points of B(x, r/2) carry leaf parameters within radius r.

    form "csu": invert the center/stable/unstable coordinates (the map Phi);
    form "su+c": invert the su-sheet plus center translation (the map Psi).
    Requires the graph constants below 1/2 to be meaningful; failures are
    counted, the worst parameter excess over r is reported, and the signed
    margin r - (largest parameter norm) shows how close a pass came.
    """
    if sample_count < 1:
        raise InputError(f"coverage needs at least one sample, got {sample_count}")
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    ys = x + _ball_params(rng, sample_count, solver.n, r / 2, solver.norm.norm)
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
        margin=float(-excess[worst_i]),
    )


# fixed-point iterations allowed to the su-sheet parameters, and the step
# below which they have converged
SU_SHEET_ITERATIONS = 200
SU_SHEET_TOL = 1e-11


def su_sheet_params(solver: LeafSolver, x: np.ndarray, ys: np.ndarray):
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
    for _ in range(SU_SHEET_ITERATIONS):
        mid = solver.leaf_points(x, "s", vs)
        p = solver.leaf_points(mid, "u", vu)
        diff = (ys - p) @ solver.coords.T
        ds_step = diff[:, solver.block_idx["s"]]
        du_step = diff[:, solver.block_idx["u"]]
        vs = vs + ds_step
        vu = vu + du_step
        if max(np.max(np.abs(ds_step), initial=0), np.max(np.abs(du_step), initial=0)) <= SU_SHEET_TOL:
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
    stages = (("c", eps), ("s", big_l), ("u", big_l + eps), ("s", eps))
    pts, pars = x[None, :], []
    for (block, radius), count in zip(stages, samples_per_stage):
        par = _ball_params(rng, len(pts) * count, solver.block_dim(block), radius,
                           lambda v, b=block: solver.norm.block_norm(v, b))
        pts = solver.leaf_points(np.repeat(pts, count, axis=0), block, par)
        pars.append(par)
    # a stage's parameters repeat over the points each of its points spawned
    trails = np.concatenate([np.repeat(par, math.prod(samples_per_stage[i + 1:]), axis=0)
                             for i, par in enumerate(pars)], axis=1)
    return SaturationSet(
        x=x,
        eps=eps,
        big_l=big_l,
        points=pts,
        trails=trails,
        stage_dims=tuple(solver.block_dim(b) for b, _ in stages),
        stage_radii=tuple(r for _, r in stages),
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
    for shell in lattice_ball_shells(pa.lam, norm, 5 * big_l):
        ns, nc, nu = norm.component_norms(shell.vectors.astype(float))
        ok = (nc <= 2 * eps + 1e-12) & (ns <= 2 * (big_l + eps) + 1e-12) & (nu <= 2 * (big_l + eps) + 1e-12)
        if np.any(ok):
            return tuple(int(v) for v in shell.vectors[int(np.argmax(ok))])
    raise BudgetError("no lattice vector in the overlap box within the bound")


# -- fixed-radius neighbour queries on the cloud (Bentley, Stanat & Williams 1977) --

# candidate pairs a grid query hands out at once (more only for one point
# whose 3 x 3 cells hold more)
PAIR_BLOCK = 1 << 16


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between rows of a and b: the squares of
    the coordinate differences summed in coordinate order.  Below eight
    coordinates that is the order of the tests' KD-tree oracle (cKDTree),
    so the square roots equal its distances bit for bit."""
    sq = a - b
    sq *= sq
    out = sq[:, 0].copy()
    for k in range(1, sq.shape[1]):
        out += sq[:, k]
    return out


class _CellGrid:
    """The points of a cloud in square cells of side h >= r over its two
    widest coordinates.

    Each point is listed under its own cell row and the rows on either side,
    so the points in the 3 x 3 cells around a cell form one run of the sorted
    keys.  Two points whose cells are not adjacent differ by more than r in
    one coordinate, and so lie farther than r apart: h exceeds r by a relative
    and absolute slack far above rounding, so this holds of the computed
    differences and distances too.
    """

    def __init__(self, pts: np.ndarray, r: float):
        self.axes = np.argsort(-np.ptp(pts, axis=0), kind="stable")[:2]
        self.lo = np.min(pts[:, self.axes], axis=0)
        ext = np.max(pts[:, self.axes], axis=0) - self.lo
        self.h = max(r, 0.0) * (1 + 1e-9) + 1e-9 * (1 + float(np.max(ext)))
        self.shape = np.floor(ext / self.h).astype(np.int64) + 1   # occupied cells per axis
        self.width = self.shape[1] + 4
        cell = np.floor((pts[:, self.axes] - self.lo) / self.h).astype(np.int64)
        # keys (row + 1 + shift) * width + col + 2 for the row shifts -1, 0, 1:
        # a query cell (row, col) with -1 <= row, col <= shape reads the keys
        # (row + 1) * width + col + 1 ... + 3, all within one listed row
        keys = ((cell[:, 0] + 1) + np.array([[-1], [0], [1]])) * self.width + cell[:, 1] + 2
        order = np.argsort(keys.ravel())
        self.keys = keys.ravel()[order]
        self.index = order % len(pts)

    def pairs(self, query: np.ndarray):
        """Blocks (q, i) of candidate pairs, query row q and cloud point i,
        with adjacent cells: every pair within r is among them.  The pairs
        come grouped by q in increasing order, PAIR_BLOCK at a time."""
        u = np.floor((query[:, self.axes] - self.lo) / self.h)
        q = np.flatnonzero(np.all((u >= -1) & (u <= self.shape), axis=1))
        key = (u[q, 0].astype(np.int64) + 1) * self.width + u[q, 1].astype(np.int64) + 2
        first = np.searchsorted(self.keys, key - 1, side="left")
        counts = np.searchsorted(self.keys, key + 1, side="right") - first
        ends = np.cumsum(counts)
        i = 0
        while i < len(q):
            j = max(int(np.searchsorted(ends, ends[i] - counts[i] + PAIR_BLOCK, side="right")), i + 1)
            c = counts[i:j]
            at = np.repeat(first[i:j] - (ends[i:j] - c), c) + np.arange(ends[i] - c[0], ends[j - 1])
            yield np.repeat(q[i:j], c), self.index[at]
            i = j


def _nearest_other_distances(pts: np.ndarray) -> np.ndarray:
    """Each point's Euclidean distance to its nearest other point (inf for a
    lone point).

    Rounds of grid queries at a radius r that doubles from the cloud's mean
    spacing: a point is settled once its best squared distance is at most
    r * r, since every point outside its 3 x 3 cells has a squared coordinate
    difference, and so a squared distance, of at least that.  A grid of one
    cell compares every pair and settles the rest.
    """
    m = len(pts)
    second, widest = np.sort(np.ptp(pts, axis=0))[-2:]
    r = max(math.sqrt(widest * second / m), widest / m)
    best = np.full(m, np.inf)
    todo = np.arange(m)
    while todo.size:
        grid = _CellGrid(pts, r)
        for q, i in grid.pairs(np.take(pts, todo, axis=0)):
            q = todo[q]
            d2 = _squared_distances(np.take(pts, q, axis=0), np.take(pts, i, axis=0))
            d2[q == i] = np.inf
            starts = np.flatnonzero(np.r_[True, q[1:] != q[:-1]])
            best[q[starts]] = np.minimum(best[q[starts]], np.minimum.reduceat(d2, starts))
        if np.all(grid.shape == 1):
            break
        todo = todo[best[todo] > r * r]
        r *= 2
    return np.sqrt(best)


def _translate_hits(pts: np.ndarray, delta: float):
    """Predicate on a lattice vector n: is some point of pts + n within
    Euclidean distance delta of a point of pts?  Only the pairs a grid of
    radius delta hands out are measured."""
    grid = _CellGrid(pts, delta)

    def hits(n: np.ndarray) -> bool:
        moved = pts + n.astype(float)
        return any(np.any(np.sqrt(_squared_distances(np.take(moved, q, axis=0),
                                                      np.take(pts, i, axis=0))) <= delta)
                   for q, i in grid.pairs(moved))

    return hits


def _translates_may_meet(solver: LeafSolver, pts: np.ndarray, delta: float):
    """Predicate on rows of lattice vectors: false only for an n whose
    translate pts + n stays farther than delta (Euclidean) from pts.

    If |p + n - q| <= delta for cloud points p, q, then every adapted
    coordinate row c_i has |c_i . n| <= |c_i . (q - p)| + |c_i| delta, at most
    the cloud's extent along c_i plus |c_i| delta.  The relative and absolute
    slack lie far above rounding, so the test is exact: it never rejects a
    candidate the neighbour query would accept.
    """
    proj = pts @ solver.coords.T
    reach = ((np.max(proj, axis=0) - np.min(proj, axis=0))
             + np.linalg.norm(solver.coords, axis=1) * delta) * (1 + 1e-9) + 1e-12
    return lambda vecs: np.all(np.abs(vecs.astype(float) @ solver.coords.T) <= reach, axis=1)


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
    The candidates come from `lattice_ball_shells`, so the search scans the
    ball only about as far as it gets, and only candidates that pass
    `_translates_may_meet` are queried (the others still count as checked).
    """
    big_l = eps ** -2
    bound = 5 * (1 + kappa_emp) * big_l
    if cloud is None:
        cloud = build_saturation_set(solver, x, eps, samples_per_stage, seed)
    pts = cloud.points
    if delta_merge is None:
        delta_merge = 2.0 * float(np.median(_nearest_other_distances(pts)))
    may_meet = _translates_may_meet(solver, pts, delta_merge)
    hits = _translate_hits(pts, delta_merge)
    checked = 0
    for shell in lattice_ball_shells(pa.lam, solver.norm, bound):
        vecs = shell.vectors[:max(max_candidates - checked, 0)]
        for i in np.flatnonzero(may_meet(vecs)):
            if hits(vecs[i]):
                return {
                    "n": tuple(int(v) for v in vecs[i]),
                    "norm": float(shell.norms[i]),
                    "bound": bound,
                    "delta_merge": delta_merge,
                    "candidates_checked": checked + int(i) + 1,
                }
        checked += len(vecs)
        if checked >= max_candidates:
            break
    raise BudgetError(
        f"no overlap translation within |n| <= {bound:.2f} at this sampling "
        f"density ({checked} candidates); refine the cloud"
    )


# -- the winding curve --------------------------------------------------------------


@dataclass
class PLCurve:
    """Closed piecewise-linear curve with lattice vertices and 3 generators."""

    base: np.ndarray                  # the point x
    offsets: np.ndarray               # (m+1, n) integer offsets from base, closed
    generators: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    generator_index: tuple[int, ...]  # per segment, in {0, 1, 2}
    scale_k: int
    winding: int = 0                  # about y; winding_curve verifies it is +-1

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


# hull or cone failures after which the winding curve construction gives up
CURVE_RETRIES = 5


def winding_curve(
    x: np.ndarray,
    y: np.ndarray,
    gamma: Lattice,
    eps: float,
    radius: float,
    split: Splitting,
    norm: AdaptedNorm,
) -> PLCurve:
    """Closed lattice triangle curve winding once around the su-subspace at y.

    Construction: an equilateral triangle in the center plane with
    circumradius 6 d/eps (d an upper bound for the covering radius of the
    lattice), snapped to lattice points, scaled by the smallest K meeting
    the hull, cone and radius requirements.  All four defining properties
    are verified before returning; if the snap breaks hull containment the
    circumradius is doubled (up to CURVE_RETRIES times).  A K that would give
    the curve more than CURVE_VERTEX_BUDGET vertices raises the budget error.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise InputError(f"eps must be a positive finite number, got {eps}")
    if not (math.isfinite(radius) and radius >= 0):
        raise InputError(f"radius must be a finite number >= 0, got {radius}")
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
    k1 = y_dist * eps / (2 * d_gamma)
    k2 = y_dist / d_gamma
    k3 = (radius + y_dist) * eps / (2 * d_gamma)
    k = max(k1, k2, k3, 1.0)
    k = math.ceil(k) + 1 if k < CURVE_VERTEX_BUDGET else math.inf  # ceil fails on an overflowed k
    if 3 * k + 1 > CURVE_VERTEX_BUDGET:  # the curve's vertex count
        raise BudgetError(f"a winding curve at radius {radius:g} would have over "
                          f"{CURVE_VERTEX_BUDGET:.0e} vertices")

    basis = np.array(gamma.basis, dtype=float)
    _, basis_c, _ = split.components(basis)

    circum = 6 * d_gamma / eps
    for _attempt in range(CURVE_RETRIES):
        # equilateral triangle in center coordinates
        angles = np.array([0.5, 0.5 + 2.0 / 3.0, 0.5 + 4.0 / 3.0]) * np.pi
        zc = circum * np.column_stack([np.cos(angles), np.sin(angles)])
        z_amb = zc @ split.basis_c.T
        coeffs = np.rint(np.linalg.lstsq(basis.T, z_amb.T, rcond=None)[0].T)
        # the snapped vertices are formed in int64: bound them in floats first
        # (a NaN coefficient fails the bound too)
        if not np.all(np.abs(coeffs) @ np.abs(basis) < 2.0 ** 62):
            raise InvariantError("the snapped curve vertices exceed the int64 range")
        v_int = coeffs.astype(np.int64)
        v_amb = v_int @ np.array(gamma.basis, dtype=np.int64)
        snap_err = norm.norm(v_amb.astype(float) - z_amb)
        if np.max(snap_err) >= d_gamma * (1 + 1e-9):
            raise InvariantError("snap moved farther than the covering bound")
        # hull of the snapped center components must contain B(0, 2 d / eps)
        _, vc, _ = split.components(v_amb.astype(float))
        if not _triangle_contains_disk(vc, 2 * d_gamma / eps):
            circum *= 2
            continue
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
        pts = curve.sample()
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
        curve.winding = w
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
