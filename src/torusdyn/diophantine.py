"""Empirical Diophantine constants of the invariant lattice.

Exhaustively scans lattice vectors in adapted-norm balls, measures how
small the center component can get relative to the vector size, and
searches for badly approximable translation vectors for the KAM-facing
estimates.  Scans are deterministic: enumeration is ordered by
(adapted norm, lexicographic coordinates).
"""
from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import BudgetError, InputError, InvariantError, OutOfHypothesesError
from .lattice import Lattice
from .pseudo_anosov import PASubspace
from .splitting import AdaptedNorm, Splitting


# -- lattice points in an adapted-norm ball ------------------------------------


def _component_factors(lam: Lattice, norm: AdaptedNorm) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-flavor factor matrices F_f with |n^f| = ||c @ F_f|| on lattice
    coordinates c, plus the center-coordinate map."""
    b = np.array(lam.basis, dtype=float)
    cs, cc, cu = norm.splitting.components(b)
    factors = []
    for coords, gram in ((cs, norm.gram_s), (cc, norm.gram_c), (cu, norm.gram_u)):
        if gram.shape[0] == 0:
            factors.append(np.zeros((lam.rank, 0)))
        else:
            factors.append(coords @ np.linalg.cholesky(gram))
    return factors, cc


# Largest candidate count (lattice points of the covering ellipsoid) a scan
# may enumerate.  Criterion 5's radius-100 scan of the Salem lattice needs
# about 1.5e7; at the budget (radius 135) that scan keeps about 1e7 points
# and peaks near 1.5 GB.
LATTICE_BALL_BUDGET = 5e7


def _libc_malloc_trim():
    try:
        if os.confstr("CS_GNU_LIBC_VERSION"):
            return ctypes.CDLL(None).malloc_trim
    except (AttributeError, ValueError, OSError):
        pass
    return None


_MALLOC_TRIM = _libc_malloc_trim()


def _release_freed_heap() -> None:
    """Return the heap's free pages to the OS (glibc's malloc_trim; a no-op
    elsewhere).  glibc serves arrays of up to 32 MB from its heap once it
    has freed mapped ones of that size, and only gives freed heap back
    when nothing sits above it, so how much of the scan's freed slabs and
    unsorted copies stayed resident varied from run to run: the peak RSS
    of a radius-80 dioph run ranged over 283-323 MB."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def _expand_level(r: np.ndarray, radius2: float, level: int, coords: np.ndarray,
                  partial: np.ndarray, shifts: np.ndarray):
    """Extend every prefix (coordinates above `level` fixed) by each integer
    at `level` that keeps c^T Q c <= radius2 reachable, Q = R^T R.

    `partial` holds the prefixes' terms of |R c|^2 and `shifts` their
    columns of R c; all arithmetic is per row, so a prefix's children do
    not depend on the batch it is expanded in.
    """
    rl = r[level, level]
    lim = np.sqrt(np.maximum(radius2 - partial, 0.0))
    center = -shifts[:, level] / rl
    lo = np.ceil(center - lim / rl - 1e-12).astype(np.int64)
    hi = np.floor(center + lim / rl + 1e-12).astype(np.int64)
    counts = np.maximum(hi - lo + 1, 0)
    idx = np.repeat(np.arange(coords.shape[0]), counts)
    starts = np.cumsum(counts) - counts
    xs = lo[idx] + (np.arange(idx.size) - np.repeat(starts, counts))
    partial = partial[idx] + (rl * xs + shifts[idx, level]) ** 2
    keep = partial <= radius2 + 1e-9
    idx, xs, partial = idx[keep], xs[keep], partial[keep]
    coords = coords[idx]
    coords[:, level] = xs
    shifts = shifts[idx] + xs[:, None] * r[:, level][None, :]
    return coords, partial, shifts


def _check_scan_budget(q: np.ndarray, radius: float) -> None:
    """Raise BudgetError when the covering ellipsoid c^T Q c <= radius^2
    holds more than LATTICE_BALL_BUDGET lattice points, estimated by its
    volume vol(B_d) radius^d / sqrt(det Q) before anything is allocated."""
    d = q.shape[0]
    log_count = (0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d + 1)
                 + d * math.log(radius) - 0.5 * np.linalg.slogdet(q)[1])
    if log_count > math.log(LATTICE_BALL_BUDGET):
        raise BudgetError(
            f"a lattice-ball scan of radius {radius:g} would enumerate about "
            f"10^{log_count / math.log(10):.1f} candidates, over the budget of "
            f"{LATTICE_BALL_BUDGET:.0e}")


def _ball_slab(r: np.ndarray, radius: float, factors: list[np.ndarray], prefixes):
    """Points of the adapted ball among the completions of the given
    outermost prefixes: (coords, adapted norms, center norms), unsorted."""
    coords, partial, shifts = prefixes
    for level in range(r.shape[0] - 2, -1, -1):
        coords, partial, shifts = _expand_level(r, radius * radius, level, coords, partial, shifts)
    coords = coords[np.any(coords != 0, axis=1)]
    ptsf = coords.astype(float)
    block = [np.sqrt(np.sum((ptsf @ f) ** 2, axis=1)) if f.shape[1] else np.zeros(len(ptsf))
             for f in factors]
    total = block[0] + block[1] + block[2]
    keep = total <= radius + 1e-12
    return coords[keep], total[keep], block[1][keep]


@dataclass
class BallPoints:
    """Nonzero lattice points with adapted norm <= radius, sorted by
    (norm, lexicographic coordinates)."""

    lam: Lattice
    radius: float
    coords: np.ndarray          # (m, rank) integer coordinates in the basis
    vectors: np.ndarray         # (m, n) integer ambient vectors
    norms: np.ndarray           # adapted norms
    center_norms: np.ndarray    # adapted norms of the center components
    center_coords: np.ndarray   # (m, dim_c) center coordinates


def lattice_ball(lam: Lattice, norm: AdaptedNorm, radius: float) -> BallPoints:
    """Every nonzero lattice point with adapted norm <= radius.

    Since |n| >= sqrt(c^T Q c), the ellipsoid c^T Q c <= radius^2 covers
    the ball.  It is enumerated a pair of slabs of the outermost coordinate
    at a time and each pair is cut down to the ball at once, so memory
    follows the kept points rather than the ellipsoid.
    """
    if lam.rank == 0:
        raise InputError("lattice has rank 0")
    if not (math.isfinite(radius) and radius >= 1):
        raise InputError(f"radius must be a finite number >= 1, got {radius!r}")
    factors, cc_map = _component_factors(lam, norm)
    q = sum(f @ f.T for f in factors)
    _check_scan_budget(q, radius)
    d = lam.rank
    r = np.linalg.cholesky(q).T  # Q = R^T R, R upper triangular
    outer = _expand_level(r, radius * radius, d - 1, np.zeros((1, d), dtype=np.int64),
                          np.zeros(1), np.zeros((1, d)))
    # Slab -x is slab x negated (every bound is symmetric under c -> -c), so
    # the pair {x, -x}, and slab 0 without the origin, holds an even number
    # of rows: never a lone row, whose matmul would go through gemv and round
    # differently from the batch gemm.
    k = len(outer[0])
    slabs = [_ball_slab(r, radius, factors, [a[sorted({i, k - 1 - i})] for a in outer])
             for i in range(k // 2 + 1)]
    pts, total, nc = (np.concatenate(col) for col in zip(*slabs))
    del slabs  # only the concatenated points stay
    _release_freed_heap()
    order = np.lexsort(tuple(pts[:, i] for i in range(d - 1, -1, -1)) + (np.round(total, 12),))
    pts, total, nc = pts[order], total[order], nc[order]
    del order
    _release_freed_heap()
    b = np.array(lam.basis, dtype=np.int64)
    return BallPoints(lam=lam, radius=radius, coords=pts, vectors=pts @ b,
                      norms=total, center_norms=nc, center_coords=pts.astype(float) @ cc_map)


# -- center-norm minimum scan ----------------------------------------------------


@dataclass
class DiophantineReport:
    r: int
    radius: float
    c_prime_empirical: float
    slope: float
    point_count: int
    witnesses: list[dict]
    caveat: str = ("empirical scan: one concrete exponent is probed, so "
                   "a single witness for all exponents simultaneously cannot "
                   "be distinguished from per-exponent witnesses")
    badly_approximable: Optional[dict] = None

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "radius": self.radius,
            "c_prime_empirical": self.c_prime_empirical,
            "slope": self.slope,
            "point_count": self.point_count,
            "witnesses": self.witnesses,
            "badly_approximable": self.badly_approximable,
            "caveat": self.caveat,
        }


def center_norm_minimum(pa: PASubspace, norm: AdaptedNorm, radius: float,
                        witness_cap: int = 32) -> tuple[DiophantineReport, BallPoints]:
    """Exhaustive scan of 0 < |n| <= radius recording min |n^c| * |n|^r.

    Also fits the log-log slope of the per-shell minimal center norm
    against |n|; any exactly vanishing center component aborts (it would
    be an integer vector inside the hyperbolic subspace).
    """
    ball = lattice_ball(pa.lam, norm, radius)
    if ball.norms.size == 0:
        raise InvariantError("no lattice points found in the ball")
    scale = float(np.max(ball.norms))
    if np.any(ball.center_norms <= 1e-12 * scale):
        raise InvariantError("lattice vector with exactly zero center component")
    r = pa.dim_x // 2
    ratios = ball.center_norms * ball.norms ** r
    idx = np.argsort(ratios, kind="stable")
    witnesses = [
        {
            "n": [int(x) for x in ball.vectors[i]],
            "norm": float(ball.norms[i]),
            "center_norm": float(ball.center_norms[i]),
            "ratio": float(ratios[i]),
        }
        for i in idx[:witness_cap]
    ]
    # per-shell minima of |n^c| against |n| on a log grid
    nbins = 12
    lo, hi = np.log(np.min(ball.norms)), np.log(np.max(ball.norms))
    edges = np.linspace(lo, hi + 1e-9, nbins + 1)
    xs, ys = [], []
    logn = np.log(ball.norms)
    for b0, b1 in zip(edges, edges[1:]):
        mask = (logn >= b0) & (logn < b1)
        if not np.any(mask):
            continue
        xs.append(np.mean(logn[mask]))
        ys.append(np.log(np.min(ball.center_norms[mask])))
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(xs) >= 2 else 0.0
    report = DiophantineReport(
        r=r,
        radius=radius,
        c_prime_empirical=float(np.min(ratios)),
        slope=slope,
        point_count=int(ball.norms.size),
        witnesses=witnesses,
    )
    return report, ball


# -- chart to the plane ------------------------------------------------------------


@dataclass
class PlaneChart:
    """Linear identification of the 2-dim center with R^2 normalizing the
    center components of two chosen lattice basis vectors to (1,0), (0,1)."""

    matrix: np.ndarray          # 2x2, acts on center coordinates
    basis_pair: tuple[int, int]

    def apply(self, center_coords: np.ndarray) -> np.ndarray:
        return np.asarray(center_coords) @ self.matrix.T


def center_plane_chart(split: Splitting, lam: Lattice, tol: float = 1e-9) -> PlaneChart:
    if split.dims[1] != 2:
        raise OutOfHypothesesError("plane chart needs a 2-dimensional center")
    b = np.array(lam.basis, dtype=float)
    _, cc, _ = split.components(b)
    k = lam.rank
    for i in range(k):
        for j in range(i + 1, k):
            m = np.column_stack([cc[i], cc[j]])
            if abs(np.linalg.det(m)) > tol:
                t = np.linalg.inv(m)
                chart = PlaneChart(matrix=t, basis_pair=(i, j))
                if np.max(np.abs(chart.apply(cc[i]) - [1, 0])) > 1e-12 or \
                   np.max(np.abs(chart.apply(cc[j]) - [0, 1])) > 1e-12:
                    raise InvariantError("plane chart failed its defining property")
                return chart
    raise InvariantError("no independent pair of center projections found")


# -- badly approximable searches -----------------------------------------------------


def _dist_to_integers(x: np.ndarray) -> np.ndarray:
    return np.abs(x - np.round(x))


@dataclass
class ApproximationWitness:
    n: tuple[int, ...]
    alpha: tuple[float, ...]
    c_emp: float
    worst_k: int

    def to_json(self) -> dict:
        return {"n": list(self.n), "alpha": list(self.alpha),
                "c_emp": self.c_emp, "worst_k": self.worst_k}


def _candidates(pa: PASubspace, norm: AdaptedNorm, chart: PlaneChart, count: int) -> list[tuple[tuple[int, ...], np.ndarray]]:
    radius = 2.0
    while True:
        ball = lattice_ball(pa.lam, norm, radius)
        if ball.norms.size >= 2 * count + 2:
            break
        radius *= 1.6
    seen = set()
    out = []
    for vec, cc in zip(ball.vectors, ball.center_coords):
        key = tuple(int(x) for x in vec)
        neg = tuple(-x for x in key)
        if neg in seen:
            continue
        seen.add(key)
        out.append((key, chart.apply(cc)))
        if len(out) == count:
            break
    return out


def approximation_constant(alpha: np.ndarray, k_max: int, delta: float = 0.1) -> tuple[float, int]:
    """min over 1 <= k <= k_max of dist(k alpha, Z^d)_sup * k^(2 + delta)."""
    ks = np.arange(1, k_max + 1, dtype=float)
    d = _dist_to_integers(ks[:, None] * np.asarray(alpha, dtype=float)[None, :]).max(axis=1)
    vals = d * ks ** (2 + delta)
    i = int(np.argmin(vals))
    return float(vals[i]), i + 1


def badly_approximable_search_dim6(
    pa: PASubspace,
    norm: AdaptedNorm,
    chart: PlaneChart,
    candidate_count: int = 24,
    k_max: int = 2000,
    delta: float = 0.1,
) -> ApproximationWitness:
    """Best single translation witness: argmax over candidates n of
    min_k dist(k * alpha, Z^2) * k^(2 + delta),  alpha = chart(n^c)."""
    if pa.dim_x < 6:
        raise OutOfHypothesesError("use the dimension-4 pair search for dim X = 4")
    best: Optional[ApproximationWitness] = None
    for n_vec, alpha in _candidates(pa, norm, chart, candidate_count):
        c_emp, worst = approximation_constant(alpha, k_max, delta)
        w = ApproximationWitness(n=n_vec, alpha=tuple(map(float, alpha)),
                                 c_emp=c_emp, worst_k=worst)
        if best is None or w.c_emp > best.c_emp:
            best = w
    assert best is not None
    return best


@dataclass
class PairWitness:
    n1: tuple[int, ...]
    n2: tuple[int, ...]
    alpha1: tuple[float, ...]
    alpha2: tuple[float, ...]
    c_emp: float
    worst_k: tuple[int, int]

    def to_json(self) -> dict:
        return {"n1": list(self.n1), "n2": list(self.n2),
                "alpha1": list(self.alpha1), "alpha2": list(self.alpha2),
                "c_emp": self.c_emp, "worst_k": list(self.worst_k)}


def badly_approximable_search_dim4(
    pa: PASubspace,
    norm: AdaptedNorm,
    chart: PlaneChart,
    candidate_count: int = 12,
    k_max: int = 200,
) -> PairWitness:
    """Best pair (n1, n2): argmax of min over 0 < |k|_sup <= k_max in Z^2 of
    max_i dist(k . alpha_i, Z) * |k|_sup^2."""
    if pa.dim_x != 4:
        raise OutOfHypothesesError("pair search applies only to dim X = 4")
    cands = _candidates(pa, norm, chart, candidate_count)
    rng = np.arange(-k_max, k_max + 1)
    k1, k2 = np.meshgrid(rng, rng, indexing="ij")
    kmat = np.stack([k1.ravel(), k2.ravel()], axis=1).astype(float)
    kmat = kmat[np.any(kmat != 0, axis=1)]
    ksup = np.max(np.abs(kmat), axis=1)
    best: Optional[PairWitness] = None
    for i in range(len(cands)):
        n1_vec, a1 = cands[i]
        d1 = _dist_to_integers(kmat @ a1)
        for j in range(i + 1, len(cands)):
            n2_vec, a2 = cands[j]
            d2 = _dist_to_integers(kmat @ a2)
            vals = np.maximum(d1, d2) * ksup ** 2
            t = int(np.argmin(vals))
            w = PairWitness(
                n1=n1_vec, n2=n2_vec,
                alpha1=tuple(map(float, a1)), alpha2=tuple(map(float, a2)),
                c_emp=float(vals[t]),
                worst_k=(int(kmat[t, 0]), int(kmat[t, 1])),
            )
            if best is None or w.c_emp > best.c_emp:
                best = w
    assert best is not None
    return best
