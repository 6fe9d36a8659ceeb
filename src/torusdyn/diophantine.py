"""Empirical Diophantine constants of the invariant lattice.

Exhaustively scans lattice vectors in adapted-norm balls, measures how
small the center component can get relative to the vector size, and
searches for badly approximable translation vectors for the KAM-facing
estimates.

A scan is a Fincke-Pohst enumeration: the covering ellipsoid bounds
every lattice coordinate but the innermost, which runs over the ball's
own interval (|n| is convex along it).  The ball is symmetric under
n -> -n, so the scan visits one point of each +/- pair: the points whose
outermost nonzero coordinate is positive, one slab of the outermost
coordinate at a time.  Norms are summed row by row in a fixed order, so
a point's norm does not depend on its batch and -n has the norm of n bit
for bit.  The innermost level builds coordinates alone: its interval is
searched on each flavor's term in vertex form, the norms decide which
points are kept, and it is built in batches of bounded size.  Rows of
2-D arrays are gathered with np.take and np.compress, which numpy serves
several times faster than fancy indexing.  `lattice_ball` adds the
negated half and sorts the points by (adapted norm, lexicographic
coordinates); `center_norm_minimum` folds each batch of the half into
its report as it comes, with a result that does not depend on the order
of the batches, so both are deterministic, and the reduction's memory
does not grow with the radius.

The dimension-4 pair search evaluates the half of its k grid that comes
before the origin, since a pair's value at -k is its value at k, a chunk
of rows at a time, and skips a pair whose least value over a small probe
shell cannot beat the best pair so far; it returns what the whole grid
would, and its memory does not grow with k_max.
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


# Largest lattice-point count of the covering ellipsoid, estimated from its
# volume, that a scan may cover (the scan enumerates about the ball's points
# alone).  It bounds time, not memory: a scan builds at most INNER_BATCH
# candidates at once and center_norm_minimum keeps nothing of them but the
# report.  Measured as process peak RSS with numpy 2.4 on x86-64, 33.6 MB
# once the Salem lattice is set up: center_norm_minimum peaks at 41.2 MB at
# criterion 5's radius 100 (3.2e6 points, 0.3 s) and at 41.8 MB at radius
# 134, just under the budget (1.04e7 points, 0.8 s); lattice_ball, which
# holds every point, peaks at 427 MB at radius 100.
LATTICE_BALL_BUDGET = 5e7

# Most distances dist(k . alpha, Z) a badly approximable witness search may
# compute, as counted by ``check_witness_search``, which both searches call.
# It bounds time, not memory: both searches walk their k K_CHUNK at a time.
# Measured as process peak RSS of ``dioph`` at radius 12 with numpy 2.4 on
# x86-64: the Salem pair search peaks at 35.9 MB with the command's
# defaults (12 candidates, k_max 200), and just under the budget at 36.2 MB
# with 12 candidates at k_max 380 and at 36.1 MB with 2 candidates at k_max
# 1065 (0.06 s); the sextic single search peaks at 35.1 MB with one
# candidate at k_max 2.7e6.
WITNESS_SEARCH_BUDGET = 5e7

# Most vertices (3 K + 1 for scale K) a lattice winding curve may have.  The
# curve's samples and its JSON grow linearly with K, and K with the radius.
# Measured as process peak RSS with numpy 2.4 on x86-64, for the Salem curve
# at eps 0.2: 61 MB at radius 1e4 (250 vertices), 117 MB at radius 1e6
# (24,553 vertices), and 278 MB at radius 4e6 (98,197 vertices, just under
# the budget, 2.4 s, 9.3 MB of JSON).
CURVE_VERTEX_BUDGET = 1e5


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


def _reuse_freed_heap() -> None:
    """Have glibc keep the scan's freed batches for reuse: allocate and
    free, never touched, 256 bytes per INNER_BATCH row (a batch's arrays
    take about 160).  glibc maps an allocation that large on its own, and
    freeing it raises its mmap threshold to that size and its trim
    threshold to twice it (it never lowers them).  So each batch, freed
    before the next is built, leaves its pages on the heap for the next,
    where otherwise the heap would be trimmed and faulted in again: about
    17,000 page faults, and a sixth more time, in a radius-80 scan of the
    Salem lattice."""
    np.empty(256 * INNER_BATCH, dtype=np.uint8)


def _level_range(r: np.ndarray, radius2: float, level: int, partial: np.ndarray,
                 shifts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per prefix (coordinates above `level` fixed), the integer range
    [lo, hi] at `level` that keeps c^T Q c <= radius2 reachable, Q = R^T R.
    `partial` holds the prefixes' terms of |R c|^2 and `shifts` their
    columns of R c."""
    rl = r[level, level]
    lim = np.sqrt(np.maximum(radius2 - partial, 0.0))
    center = -shifts[:, level] / rl
    lo = np.ceil(center - lim / rl - 1e-12).astype(np.int64)
    hi = np.floor(center + lim / rl + 1e-12).astype(np.int64)
    return lo, hi


def _children(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each prefix i extended by lo[i], ..., hi[i] in order: the children's
    prefix rows and their values."""
    counts = np.maximum(hi - lo + 1, 0)
    idx = np.repeat(np.arange(lo.size), counts)
    xs = np.arange(idx.size) + np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return idx, xs


def _expand_level(r: np.ndarray, radius2: float, level: int, coords: np.ndarray,
                  partial: np.ndarray, shifts: np.ndarray):
    """Extend every prefix by each integer at `level` that keeps
    c^T Q c <= radius2 reachable.  All arithmetic is per row, so a
    prefix's children do not depend on the batch it is expanded in."""
    idx, xs = _children(*_level_range(r, radius2, level, partial, shifts))
    partial = partial[idx] + (r[level, level] * xs + shifts[idx, level]) ** 2
    keep = partial <= radius2 + 1e-9
    idx, xs, partial = idx[keep], xs[keep], partial[keep]
    coords = np.take(coords, idx, axis=0)
    coords[:, level] = xs
    shifts = np.take(shifts, idx, axis=0) + xs[:, None] * r[:, level][None, :]
    return coords, partial, shifts


def _bisect(pred, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per row, the least integer t in [lo, hi) with pred(t) true, or hi if
    there is none, for a pred that is false and then true on [lo, hi)."""
    while np.any(open_ := lo < hi):
        mid = (lo + hi) // 2
        ok = pred(mid)
        lo, hi = np.where(open_ & ~ok, mid + 1, lo), np.where(open_ & ok, mid, hi)
    return lo


def _innermost_ball_range(factors: list[np.ndarray], radius: float):
    """`narrow(coords, lo, hi)` for the innermost level: the integers
    t = c_0 in [lo, hi] that can lie in the adapted ball, per prefix.

    With the other coordinates fixed, |n(t)| = sum_f ||a_f + t b_f|| is
    convex in t, so {t : |n(t)| <= radius} is one interval.  Its ends are
    found by binary search against radius (1 + 1e-9): the slack is far
    above rounding, so the interval holds every point the filter in
    `_ball_slab` keeps.  Each flavor's term is taken in its vertex form
    ||a_f + t b_f||^2 = g_f (t - c_f)^2 + m_f, g_f = ||b_f||^2, with c_f
    and m_f computed once per prefix and m_f the squared norm of the
    residual a_f + c_f b_f, so that nothing cancels; a probe is a few
    ufuncs on per-prefix arrays.  A flavor of width 0 adds nothing, and
    one with b_f = 0 adds the constant ||a_f||.
    """
    factors = [f for f in factors if f.shape[1]]
    rows = [f[0] for f in factors]
    gram = np.array([b @ b for b in rows])[:, None]
    bound = radius * (1 + 1e-9)

    def narrow(coords, lo, hi):
        ptsf = coords.astype(float)  # coords[:, 0] is still 0
        centers = np.empty((len(factors), len(coords)))
        minima = np.empty_like(centers)
        for k, (f, b) in enumerate(zip(factors, rows)):
            a = ptsf @ f
            centers[k] = -(a @ b) / gram[k, 0] if gram[k, 0] > 0 else 0.0
            res = a + centers[k][:, None] * b
            minima[k] = np.einsum("ij,ij->i", res, res)

        def size(t):
            v = t - centers
            v *= v
            v *= gram
            v += minima
            return np.sqrt(v, out=v).sum(axis=0)

        def left_of_or_in(t):
            g = size(t)
            return (g <= bound) | (size(t + 1) >= g)

        # The least t inside the ball or past the minimum of |n(t)|; it is
        # the interval's left end when the interval holds an integer.
        first = _bisect(left_of_or_in, lo, hi)
        inside = size(first) <= bound
        last = _bisect(lambda t: size(t + 1) > bound, first, hi)
        return first, np.where(inside, np.minimum(last, hi), first - 1)

    return narrow


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


def _upper_half(coords: np.ndarray) -> np.ndarray:
    """Mask of the rows whose outermost nonzero coordinate is positive: one
    row of each +/- pair, and never the origin."""
    upper = coords[:, -1] > 0
    zero = coords[:, -1] == 0
    if coords.shape[1] > 1 and zero.any():
        upper[zero] = _upper_half(np.compress(zero, coords[:, :-1], axis=0))
    return upper


def _row_norms(ptsf: np.ndarray, f: np.ndarray) -> np.ndarray:
    """||ptsf @ f|| per row, summed in a fixed order without BLAS.  A row's
    norm depends on the row alone, not on the batch (gemm and gemv round
    differently), and a negated row has the same norm bit for bit.  Any
    memory order gives the same norms; a Fortran-ordered `ptsf` is read a
    contiguous column at a time."""
    sq = np.zeros(len(ptsf))
    for j in range(f.shape[1]):
        v = ptsf[:, 0] * f[0, j]
        for i in range(1, f.shape[0]):
            v += ptsf[:, i] * f[i, j]
        sq += v * v
    return np.sqrt(sq)


def _with_negations(coords: np.ndarray, *values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Rows of a half ball followed by their negations, which share their
    values."""
    return (np.concatenate([coords, -coords]),) + tuple(np.tile(v, 2) for v in values)


# Most innermost rows (candidate points) a scan builds at once.  The
# largest slab of a radius-80 scan of the Salem lattice has 38,443, so it
# stays whole; a wider slab is cut into batches, and the scan's transients
# stop growing with the radius.
INNER_BATCH = 40960


def _kept_points(coords: np.ndarray, radius: float, factors: list[np.ndarray]):
    """The candidate rows in the upper half and in the adapted ball, as
    (coords, adapted norms, center norms)."""
    coords = np.compress(_upper_half(coords), coords, axis=0)
    ptsf = np.asfortranarray(coords, dtype=float)  # contiguous columns for _row_norms
    block = [_row_norms(ptsf, f) for f in factors]
    total = block[0] + block[1] + block[2]
    keep = total <= radius + 1e-12
    return np.compress(keep, coords, axis=0), total[keep], block[1][keep]


def _innermost_rows(coords: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Each prefix completed by its innermost coordinates lo[i], ..., hi[i]."""
    idx, xs = _children(lo, hi)
    rows = np.take(coords, idx, axis=0)
    rows[:, 0] = xs
    return rows


def _ball_slab(r: np.ndarray, radius: float, factors: list[np.ndarray], prefixes):
    """Points of the adapted ball among the completions of the given
    outermost prefixes whose outermost nonzero coordinate is positive, as
    unsorted batches of (coords, adapted norms, center norms), at least one.
    The innermost coordinate runs over `_innermost_ball_range`'s interval
    and only the coordinates are built, for consecutive prefixes with at
    most INNER_BATCH candidates in all (or one prefix with more): the ball
    lies inside the covering ellipsoid, and the norms decide which points
    are kept.  A batch's candidates are freed before it is yielded."""
    coords, partial, shifts = prefixes
    radius2 = radius * radius
    for level in range(r.shape[0] - 2, 0, -1):
        coords, partial, shifts = _expand_level(r, radius2, level, coords, partial, shifts)
    if r.shape[0] == 1:
        yield _kept_points(coords, radius, factors)
        return
    narrow = _innermost_ball_range(factors, radius)
    lo, hi = narrow(coords, *_level_range(r, radius2, 0, partial, shifts))
    ends = np.cumsum(np.maximum(hi - lo + 1, 0))
    start = done = 0
    while True:
        stop = max(int(np.searchsorted(ends, done + INNER_BATCH, side="right")), start + 1)
        yield _kept_points(_innermost_rows(coords[start:stop], lo[start:stop], hi[start:stop]),
                           radius, factors)
        if stop >= len(ends):
            return
        start, done = stop, int(ends[stop - 1])


def _ball_slabs(lam: Lattice, norm: AdaptedNorm, radius: float):
    """One point of each +/- pair of nonzero lattice points with adapted
    norm <= radius, the one whose outermost nonzero coordinate is positive,
    as an iterator of unsorted batches of (coords, adapted norms, center
    norms), a slab of the outermost coordinate at a time.  The arguments
    and the budget are checked when it is called, before any batch.

    Since |n| >= sqrt(c^T Q c), the ellipsoid c^T Q c <= radius^2 covers
    the ball; it bounds every coordinate but the innermost, which runs
    only over the ball's own interval.  Each slab is cut down to the ball
    before the next is enumerated, and its innermost level is built in
    batches of at most INNER_BATCH rows, so the stream's transients follow
    neither the ellipsoid nor, but for a slab's prefixes, the radius.
    """
    if lam.rank == 0:
        raise InputError("lattice has rank 0")
    if not (math.isfinite(radius) and radius >= 1):
        raise InputError(f"radius must be a finite number >= 1, got {radius!r}")
    factors, _ = _component_factors(lam, norm)
    q = sum(f @ f.T for f in factors)
    _check_scan_budget(q, radius)
    d = lam.rank
    r = np.linalg.cholesky(q).T  # Q = R^T R, R upper triangular
    outer = _expand_level(r, radius * radius, d - 1, np.zeros((1, d), dtype=np.int64),
                          np.zeros(1), np.zeros((1, d)))
    # The outermost coordinate runs over -m..m in order: slab -x is slab x
    # negated, so only slabs 0..m are enumerated, and slab 0 keeps its
    # half through `_upper_half` like every other slab.
    k = len(outer[0])
    _reuse_freed_heap()
    return (batch for i in range(k // 2, k)
            for batch in _ball_slab(r, radius, factors, [a[i:i + 1] for a in outer]))


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


# rows of the norm,center_norm table formatted per write
TABLE_BLOCK = 65536


def ball_table(ball: BallPoints):
    """The ball's `norm,center_norm` CSV table as text blocks of TABLE_BLOCK
    rows, so that the text of the whole table never exists at once.  The
    scan's freed transients go back to the OS first, so that the text does
    not stack on top of them."""
    _release_freed_heap()
    yield "norm,center_norm\n"
    for lo in range(0, len(ball.norms), TABLE_BLOCK):
        yield "".join(f"{float(nv)!r},{float(cv)!r}\n" for nv, cv in zip(
            ball.norms[lo:lo + TABLE_BLOCK], ball.center_norms[lo:lo + TABLE_BLOCK]))


def lattice_ball(lam: Lattice, norm: AdaptedNorm, radius: float) -> BallPoints:
    """Every nonzero lattice point with adapted norm <= radius: the half
    ball of `_ball_slabs` and its negation, concatenated and sorted."""
    pts, total, nc = (np.concatenate(col) for col in zip(*_ball_slabs(lam, norm, radius)))
    pts, total, nc = _with_negations(pts, total, nc)
    _release_freed_heap()  # the slabs and the half are freed; only the points stay
    d = lam.rank
    order = np.lexsort(tuple(pts[:, i] for i in range(d - 1, -1, -1)) + (np.round(total, 12),))
    pts, total, nc = np.take(pts, order, axis=0), total[order], nc[order]
    del order
    _release_freed_heap()
    _, cc_map = _component_factors(lam, norm)
    b = np.array(lam.basis, dtype=np.int64)
    return BallPoints(lam=lam, radius=radius, coords=pts, vectors=pts @ b,
                      norms=total, center_norms=nc, center_coords=pts.astype(float) @ cc_map)


def lattice_ball_shells(lam: Lattice, norm: AdaptedNorm, bound: float):
    """`lattice_ball(lam, norm, bound)`'s points in the same order, as
    BallPoints one shell at a time, for a search that may stop early.

    The ball is scanned at radii 1, 2, 4, ... and finally `bound` (an
    infinite bound never ends the stream).  Radius r < bound yields the
    points not yet yielded whose sort key round(norm, 12) is at most
    r - 1e-6: far enough inside r that every point of such a key lies in
    the ball of radius r, so no key straddles two shells.  A doubled radius
    holds about 16 times the points of rank 4, so the rescans add about a
    fifteenth to a scan that runs to `bound`.
    """
    done, radius = -math.inf, 1.0
    while True:
        r = min(radius, bound)
        ball = lattice_ball(lam, norm, r)
        cut = r - 1e-6 if r < bound else math.inf
        key = np.round(ball.norms, 12)
        part = slice(np.searchsorted(key, done, side="right"),
                     np.searchsorted(key, cut, side="right"))
        yield BallPoints(lam=lam, radius=r, coords=ball.coords[part],
                         vectors=ball.vectors[part], norms=ball.norms[part],
                         center_norms=ball.center_norms[part],
                         center_coords=ball.center_coords[part])
        if r >= bound:
            return
        done, radius = cut, 2 * radius


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


def _at_most_kth_least(values: np.ndarray, k: int) -> np.ndarray:
    """Mask of the values at most the k-th least, ties kept."""
    if values.size <= k:
        return np.ones(values.size, dtype=bool)
    return values <= np.partition(values, k - 1)[k - 1]


def _least_ratios(coords, norms, nc, ratios, cap: int):
    """The `cap` rows least by (ratio, adapted norm to 12 decimals,
    lexicographic coordinates): a total order, so the least rows of a
    union are the least of the parts' least rows."""
    keep = _at_most_kth_least(ratios, cap)
    coords = np.compress(keep, coords, axis=0)
    norms, nc, ratios = norms[keep], nc[keep], ratios[keep]
    order = np.lexsort(tuple(coords[:, i] for i in range(coords.shape[1] - 1, -1, -1))
                       + (np.round(norms, 12), ratios))[:cap]
    return np.take(coords, order, axis=0), norms[order], nc[order], ratios[order]


def _shell_index(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Per value, the number of the nondecreasing `edges` at most it: 1 + j
    for edges[j] <= value < edges[j + 1], 0 below the first edge and
    len(edges) from the last on.  The index is guessed from the edges'
    even spacing and then moved until the edges themselves confirm it, so
    it is exactly the one those comparisons pick."""
    k = len(edges)
    bounds = np.concatenate(([-np.inf], edges, [np.inf]))
    lower, upper = bounds[:-1], bounds[1:]  # lower[i] <= value < upper[i] at index i
    per_bin = (k - 1) / (edges[-1] - edges[0])
    guess = values * per_bin
    guess += 1 - edges[0] * per_bin  # 1 + (value - edges[0]) / bin width
    np.clip(guess, 0, k, out=guess)
    index = guess.astype(np.intp)  # the floor of a nonnegative guess
    del guess
    while True:
        down = values < lower.take(index)
        up = values >= upper.take(index)
        if not (down.any() or up.any()):
            return index
        index -= down
        index += up


# A float M 2**(e - 53), with an integer |M| < 2**53 and e >= -1073 as
# np.frexp gives them, is the integer M 2**(e + 1073) over EXACT_SUM_SCALE.
EXACT_SUM_SCALE = 1 << 1126
# np.bincount's float partial sums of the mantissas' 27- and 26-bit halves
# stay exact integers while at most 2**26 values are summed at once.
EXACT_SUM_BLOCK = 1 << 26


def _exact_bin_sums(values: np.ndarray, bins: np.ndarray, nbins: int) -> list[int]:
    """The exact sum of the values in each of the bins 0..nbins-1, as an
    int over EXACT_SUM_SCALE: their quotient is the sum exactly rounded,
    as math.fsum gives it.

    np.frexp writes each value as M 2**(e - 53) with an integer |M| < 2**53,
    whose high and low halves np.bincount sums per (bin, e) exactly; Python
    ints add up the few keys' sums."""
    sums = [0] * nbins
    for start in range(0, values.size, EXACT_SUM_BLOCK):
        mant, exp = np.frexp(values[start:start + EXACT_SUM_BLOCK])
        mant *= 2.0 ** 53  # M
        high = mant * 2.0 ** -26
        np.floor(high, out=high)  # |high| <= 2**27
        low = mant
        low -= high * 2.0 ** 26  # 0 <= low < 2**26
        e_min = int(exp.min())
        width = int(exp.max()) - e_min + 1
        key = bins[start:start + EXACT_SUM_BLOCK] * width
        key += exp
        key -= e_min
        del exp
        high_sums = np.bincount(key, weights=high, minlength=nbins * width)
        low_sums = np.bincount(key, weights=low, minlength=nbins * width)
        for k, (h, l) in enumerate(zip(high_sums.tolist(), low_sums.tolist())):
            if h or l:
                b, e = divmod(k, width)
                sums[b] += ((int(h) << 26) + int(l)) << (e + e_min + 1073)
    return sums


# the scan keeps its WITNESS_CAP least points by ratio
WITNESS_CAP = 32

# The slope is fitted to the least center norm of SHELLS shells, evenly
# spaced in the log of the adapted norm from the least norm to the greatest.
SHELLS = 12

# np.log is faithfully rounded, not monotone by contract, so a bracket of
# the greatest norm's log is widened by this many ulps each way.
LOG_SLACK_ULPS = 4


def _nudged(x: float, sign: int) -> float:
    """x moved LOG_SLACK_ULPS ulps up (sign 1) or down (sign -1)."""
    return x + sign * LOG_SLACK_ULPS * np.spacing(abs(x))


def _shell_edges(lo: float, log_greatest: float) -> np.ndarray:
    """The shells' edges for logs of norms from lo to log_greatest."""
    return np.linspace(lo, log_greatest + 1e-9, SHELLS + 1)


def _least_shell(lam: Lattice, norm: AdaptedNorm) -> BallPoints:
    """The first non-empty shell of `lattice_ball_shells`.  It holds the
    lattice's least norm, bit for bit that of any scan, since a row's norm
    does not depend on its batch."""
    return next(s for s in lattice_ball_shells(lam, norm, math.inf) if s.norms.size)


class _HalfBallFold:
    """The report's quantities over a half ball that comes in chunks, each
    folded in as it arrives and then dropped: the point count, the greatest
    norm, the least center norm, the WITNESS_CAP least rows by ratio, and
    per bin of `_shell_index` (1..SHELLS are the shells, 0 and SHELLS + 1
    lie outside the edges) the point count, the least center norm and the
    exact sum of log norms over EXACT_SUM_SCALE.

    The edges need the least and the greatest norm.  The least is given,
    and so is `top`, a bound on the greatest.  The greatest lies between
    the greatest so far and `top`, and each edge grows with it, so a point
    whose shell is the same under both ends' edges is final and is folded
    in at once.  The few others are kept, and retried with each chunk,
    until `finish` knows the greatest.
    """

    def __init__(self, r: int, least: float, top: float):
        self.r = r
        self.count, self.greatest, self.least_center = 0, -math.inf, math.inf
        self.best = None
        self.pending = np.empty(0), np.empty(0)  # (log norms, center norms)
        self.counts = np.zeros(SHELLS + 2, dtype=np.int64)
        self.least_nc = np.full(SHELLS + 2, np.inf)
        self.sums = [0] * (SHELLS + 2)
        self.lo = np.log(least)
        # per shell, the lower edge when the greatest norm is `top`
        self.top_lower = np.concatenate(([-np.inf], _shell_edges(self.lo, _nudged(np.log(top), 1))))

    def add(self, coords: np.ndarray, norms: np.ndarray, nc: np.ndarray) -> None:
        if not norms.size:
            return
        self.count += norms.size
        self.greatest = max(self.greatest, float(norms.max()))
        self.least_center = min(self.least_center, float(nc.min()))
        ratios = nc * norms ** self.r
        keep = _at_most_kth_least(ratios, WITNESS_CAP)
        least = _least_ratios(*_with_negations(np.compress(keep, coords, axis=0), norms[keep],
                                               nc[keep], ratios[keep]), WITNESS_CAP)
        if self.best is not None:
            least = _least_ratios(*(np.concatenate(col) for col in zip(self.best, least)),
                                  WITNESS_CAP)
        self.best = least
        logn = np.log(norms)
        if self.pending[0].size:
            logn, nc = (np.concatenate(pair) for pair in zip(self.pending, (logn, nc)))
        # A value's shell under the least edges the greatest norm allows
        # moves down under the greatest edges exactly when the value lies
        # below the shell's lower edge there.
        shell = _shell_index(logn, _shell_edges(self.lo, _nudged(np.log(self.greatest), -1)))
        wait = logn < self.top_lower.take(shell)
        self.pending = logn[wait], nc[wait]
        if self.pending[0].size:
            final = ~wait
            logn, nc, shell = logn[final], nc[final], shell[final]
        self._add_shells(logn, nc, shell)

    def _add_shells(self, logn: np.ndarray, nc: np.ndarray, shell: np.ndarray) -> None:
        self.counts += np.bincount(shell, minlength=SHELLS + 2)
        np.minimum.at(self.least_nc, shell, nc)
        self.sums = [a + b for a, b in zip(self.sums, _exact_bin_sums(logn, shell, SHELLS + 2))]

    def finish(self) -> None:
        """Fold in the points kept back, under the greatest norm's edges."""
        logn, nc = self.pending
        self._add_shells(logn, nc, _shell_index(logn, _shell_edges(self.lo, np.log(self.greatest))))

    def slope(self) -> float:
        """The log-log slope of the shells' least center norms against
        their mean log norms."""
        xs, ys = [], []
        for j in range(1, SHELLS + 1):
            if self.counts[j]:
                xs.append(self.sums[j] / EXACT_SUM_SCALE / int(self.counts[j]))
                ys.append(np.log(self.least_nc[j]))
        return float(np.polyfit(xs, ys, 1)[0]) if len(xs) >= 2 else 0.0


def center_norm_minimum(pa: PASubspace, norm: AdaptedNorm, radius: float) -> DiophantineReport:
    """Exhaustive scan of 0 < |n| <= radius recording min |n^c| * |n|^r.

    Also fits the log-log slope of the per-shell minimal center norm
    against |n|; any exactly vanishing center component aborts (it would
    be an integer vector inside the hyperbolic subspace).

    The reduction runs over one point of each +/- pair, which shares its
    norms with the other, batch by batch as `_ball_slabs` yields the half,
    and `_HalfBallFold` keeps nothing of a batch but its share of the
    report, so memory does not grow with the radius.  Every quantity of
    the report is independent of the order the points come in: the count
    is twice the half's; the minima and the maximum are the half's; a
    shell's mean is the half's, since its exactly rounded sum and its
    count both double; the least ratios of a chunk and its negation are
    among the rows with a ratio at most the chunk's WITNESS_CAP-th least
    and their negations.

    A point's shell comes from `_shell_index`, exactly as the comparisons
    with the edges would pick it; counts and minima are per shell, and each
    shell's sum of logs is exact in Python ints (`_exact_bin_sums`), so its
    rounding is math.fsum's over the whole shell however the points are
    split.  The edges span the least and the greatest norm.  The least
    comes from `_least_shell`, bit for bit the stream's least since a
    row's norm does not depend on its batch, and the greatest is bounded by
    radius + 1e-12, the most a kept point may have.
    """
    chunks = _ball_slabs(pa.lam, norm, radius)
    least = _least_shell(pa.lam, norm)
    fold = _HalfBallFold(pa.dim_x // 2, least.norms.min(), radius + 1e-12)
    for chunk in chunks:
        fold.add(*chunk)
        del chunk  # not held while the next batch is built
    _release_freed_heap()  # the heap the batches reused goes back to the OS
    if not fold.count:
        n = tuple(int(x) for x in least.vectors[0])
        raise InputError(f"no nonzero lattice point lies in the ball of radius {radius:g}; "
                         f"the least lattice norm is {least.norms[0]:.4g}, at n = {n}")
    if fold.least_center <= 1e-12 * fold.greatest:
        raise InvariantError("lattice vector with exactly zero center component")
    fold.finish()
    coords, w_norms, w_nc, ratios = fold.best
    vectors = coords @ np.array(pa.lam.basis, dtype=np.int64)
    witnesses = [
        {
            "n": [int(x) for x in vectors[i]],
            "norm": float(w_norms[i]),
            "center_norm": float(w_nc[i]),
            "ratio": float(ratios[i]),
        }
        for i in range(len(ratios))
    ]
    return DiophantineReport(
        r=fold.r,
        radius=radius,
        c_prime_empirical=float(ratios[0]),
        slope=fold.slope(),
        point_count=2 * fold.count,
        witnesses=witnesses,
    )


# -- chart to the plane ------------------------------------------------------------


@dataclass
class PlaneChart:
    """Linear identification of the 2-dim center with R^2 normalizing the
    center components of two chosen lattice basis vectors to (1,0), (0,1)."""

    matrix: np.ndarray          # 2x2, acts on center coordinates
    basis_pair: tuple[int, int]

    def apply(self, center_coords: np.ndarray) -> np.ndarray:
        return np.asarray(center_coords) @ self.matrix.T


# a pair of center projections is independent when |det| exceeds PLANE_CHART_TOL
PLANE_CHART_TOL = 1e-9


def center_plane_chart(split: Splitting, lam: Lattice) -> PlaneChart:
    if split.dims[1] != 2:
        raise OutOfHypothesesError("plane chart needs a 2-dimensional center")
    b = np.array(lam.basis, dtype=float)
    _, cc, _ = split.components(b)
    k = lam.rank
    for i in range(k):
        for j in range(i + 1, k):
            m = np.column_stack([cc[i], cc[j]])
            if abs(np.linalg.det(m)) > PLANE_CHART_TOL:
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
    """The `count` shortest lattice vectors up to sign, in ball order."""
    seen = set()
    out = []
    for shell in lattice_ball_shells(pa.lam, norm, math.inf):
        for vec, cc in zip(shell.vectors, shell.center_coords):
            key = tuple(int(x) for x in vec)
            if tuple(-x for x in key) in seen:
                continue
            seen.add(key)
            out.append((key, chart.apply(cc)))
            if len(out) == count:
                return out


def check_witness_search(dim_x: int, candidate_count: int, k_max: int, delta: float) -> None:
    """Raise InputError unless the witness search for dim X accepts these
    arguments: the pair search (dim X = 4) needs two candidates, the single
    search above it one candidate, and both k_max >= 1 and a finite delta.
    Raise BudgetError when the search may compute more than
    WITNESS_SEARCH_BUDGET distances: in dimension 4, the (2 k_max + 1)^2 of
    the k grid per candidate pair (a pair that is evaluated computes both
    its candidates' distances on the half grid), and as many again per
    candidate and eight more; above it, 2 k_max per candidate and eight
    more.  The margins are those of the searches that held these rows
    whole, so the same arguments pass the budget."""
    if not math.isfinite(delta):
        raise InputError(f"delta must be a finite number, got {delta!r}")
    if dim_x == 4:
        if candidate_count < 2 or k_max < 1:
            raise InputError("the pair search needs candidate_count >= 2 and k_max >= 1, "
                             f"got {candidate_count} and {k_max}")
        size = (candidate_count * (candidate_count + 1) // 2 + 8) * (2 * k_max + 1) ** 2
    else:
        if candidate_count < 1 or k_max < 1:
            raise InputError("the witness search needs candidate_count >= 1 and k_max >= 1, "
                             f"got {candidate_count} and {k_max}")
        size = (candidate_count + 8) * 2 * k_max
    if size > WITNESS_SEARCH_BUDGET:
        raise BudgetError(f"a witness search over {size} distances exceeds the budget of "
                          f"{WITNESS_SEARCH_BUDGET:.0e}; pass a smaller k_max or candidate count")


def approximation_constant(alpha: np.ndarray, k_max: int, delta: float) -> tuple[float, int]:
    """min over 1 <= k <= k_max of dist(k alpha, Z^d)_sup * k^(2 + delta),
    and the first k that attains it; k runs K_CHUNK values at a time."""
    alpha = np.asarray(alpha, dtype=float)
    least = worst = None
    for start in range(1, k_max + 1, K_CHUNK):
        ks = np.arange(start, min(start + K_CHUNK, k_max + 1), dtype=float)
        vals = _dist_to_integers(ks[:, None] * alpha[None, :]).max(axis=1)
        vals *= ks ** (2 + delta)
        i = int(np.argmin(vals))
        if least is None or vals[i] < least:
            least, worst = float(vals[i]), start + i
    return least, worst


def badly_approximable_search_dim6(
    pa: PASubspace,
    norm: AdaptedNorm,
    chart: PlaneChart,
    candidate_count: int,
    k_max: int,
    delta: float,
) -> ApproximationWitness:
    """Best single translation witness: argmax over candidates n of
    min_k dist(k * alpha, Z^2) * k^(2 + delta),  alpha = chart(n^c)."""
    if pa.dim_x < 6:
        raise OutOfHypothesesError("use the dimension-4 pair search for dim X = 4")
    check_witness_search(pa.dim_x, candidate_count, k_max, delta)
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


# A pair is first evaluated on the k with 0 < |k|_sup <= PAIR_PROBE_SHELL, and
# on its whole half grid only if that least value beats the best pair so far.
PAIR_PROBE_SHELL = 16


# k a witness search evaluates at once: rows of the pair search's half
# grid, values of the single search's range
K_CHUNK = 16384


def _half_grid_chunks(k_max: int):
    """The k of the grid -k_max <= k1, k2 <= k_max (k1 major) that come
    before the origin, k1 < 0 or k1 = 0 > k2, in grid order: exactly the k
    that come before -k.  Yields them K_CHUNK rows at a time, as floats,
    each chunk with its |k|_sup^2; row i of the half is k = divmod(i, w) -
    k_max for the grid's width w."""
    w = 2 * k_max + 1
    half = w * w // 2
    for start in range(0, half, K_CHUNK):
        k1, k2 = np.divmod(np.arange(start, min(start + K_CHUNK, half)), w)
        k1 -= k_max
        k2 -= k_max
        ksup = np.maximum(np.abs(k1), np.abs(k2))
        yield np.stack([k1, k2], axis=1).astype(float), (ksup * ksup).astype(float)


def _pair_search(cands: list[tuple[tuple[int, ...], np.ndarray]], k_max: int) -> PairWitness:
    """The first pair of `cands` with the greatest least value of
    max_i dist(k . alpha_i, Z) * |k|_sup^2 over 0 < |k|_sup <= k_max, at
    the first k in grid order that attains it.

    The value is the same at k and -k, bit for bit, when dist(-k . alpha)
    equals dist(k . alpha), which tests assert for the product used; then
    the first least value over the grid lies in its half before the origin,
    and only that half is evaluated, a chunk at a time, so that the search
    holds no array of the grid's size.  A pair whose least value over the
    probe shell (the half grid of PAIR_PROBE_SHELL) is at most the best's
    constant cannot replace it, since a pair wins only with a greater
    constant, so it is skipped: the probe's values are those of the grid at
    the same k.
    """
    probe, probe_k2 = map(np.concatenate, zip(*_half_grid_chunks(min(k_max, PAIR_PROBE_SHELL))))
    probe_dists = [_dist_to_integers(probe @ a) for _, a in cands]
    best: Optional[PairWitness] = None
    for i, (n1_vec, a1) in enumerate(cands):
        for j in range(i + 1, len(cands)):
            if best is not None and np.min(np.maximum(probe_dists[i], probe_dists[j])
                                           * probe_k2) <= best.c_emp:
                continue
            n2_vec, a2 = cands[j]
            least = worst = None
            for kmat, ksup2 in _half_grid_chunks(k_max):
                vals = np.maximum(_dist_to_integers(kmat @ a1), _dist_to_integers(kmat @ a2))
                vals *= ksup2
                t = int(np.argmin(vals))
                if least is None or vals[t] < least:
                    least, worst = float(vals[t]), (int(kmat[t, 0]), int(kmat[t, 1]))
            if best is None or least > best.c_emp:
                best = PairWitness(
                    n1=n1_vec, n2=n2_vec,
                    alpha1=tuple(map(float, a1)), alpha2=tuple(map(float, a2)),
                    c_emp=least, worst_k=worst,
                )
    assert best is not None
    return best


def badly_approximable_search_dim4(
    pa: PASubspace,
    norm: AdaptedNorm,
    chart: PlaneChart,
    candidate_count: int,
    k_max: int,
) -> PairWitness:
    """Best pair (n1, n2): argmax of min over 0 < |k|_sup <= k_max in Z^2 of
    max_i dist(k . alpha_i, Z) * |k|_sup^2."""
    if pa.dim_x != 4:
        raise OutOfHypothesesError("pair search applies only to dim X = 4")
    check_witness_search(pa.dim_x, candidate_count, k_max, 0.0)
    return _pair_search(_candidates(pa, norm, chart, candidate_count), k_max)
