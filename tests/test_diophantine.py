import dataclasses
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from conftest import SALEM_CONJUGATE, random_unimodular
from torusdyn import diophantine
from torusdyn.diophantine import (
    PairWitness,
    _candidates,
    _dist_to_integers,
    approximation_constant,
    badly_approximable_search_dim4,
    badly_approximable_search_dim6,
    center_norm_minimum,
    center_plane_chart,
    lattice_ball,
    lattice_ball_shells,
)
from torusdyn.errors import BudgetError, InputError, OutOfHypothesesError
from torusdyn.intmatrix import IntMatrix
from torusdyn.intpoly import IntPoly
from torusdyn.pseudo_anosov import pseudo_anosov_subspace
from torusdyn.splitting import adapted_norm, compute_splitting

BALL_ARRAYS = ("coords", "vectors", "norms", "center_norms", "center_coords")


def test_lattice_ball_count_matches_direct_enumeration(salem_pa, salem_norm):
    ball = lattice_ball(salem_pa.lam, salem_norm, 6.0)
    # direct box enumeration oracle: one norm call on the box [-12, 12]^4
    axis = np.arange(-12, 13)
    box = np.stack(np.meshgrid(axis, axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 4)
    box = box[np.any(box != 0, axis=1)]
    inside = box[salem_norm.norm(box.astype(float)) <= 6.0 + 1e-12]
    assert len(ball.vectors) == len(inside)
    assert set(map(tuple, ball.vectors.tolist())) == set(map(tuple, inside.tolist()))


def test_lattice_ball_sorted_and_nonzero(salem_pa, salem_norm):
    ball = lattice_ball(salem_pa.lam, salem_norm, 10.0)
    assert np.all(np.any(ball.vectors != 0, axis=1))
    rounded = np.round(ball.norms, 12)
    assert np.all(np.diff(rounded) >= 0)


def _one_shot_enumeration(q, radius2):
    """Breadth-first enumeration of c^T Q c <= radius2 over the whole
    ellipsoid at once: the reference for the slab-by-slab scan."""
    d = q.shape[0]
    r = np.linalg.cholesky(q).T
    coords = np.zeros((1, d), dtype=np.int64)
    partial = np.zeros(1)
    shifts = np.zeros((1, d))
    for level in range(d - 1, -1, -1):
        rl = r[level, level]
        lim = np.sqrt(np.maximum(radius2 - partial, 0.0))
        center = -shifts[:, level] / rl
        lo = np.ceil(center - lim / rl - 1e-12).astype(np.int64)
        hi = np.floor(center + lim / rl + 1e-12).astype(np.int64)
        counts = np.maximum(hi - lo + 1, 0)
        idx = np.repeat(np.arange(coords.shape[0]), counts)
        if idx.size == 0:
            return np.zeros((0, d), dtype=np.int64)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        xs = lo[idx] + (np.arange(idx.size) - np.repeat(starts, counts))
        partial = partial[idx] + (rl * xs + shifts[idx, level]) ** 2
        keep = partial <= radius2 + 1e-9
        idx, xs, partial = idx[keep], xs[keep], partial[keep]
        coords = coords[idx]
        coords[:, level] = xs
        shifts = shifts[idx] + xs[:, None] * r[:, level][None, :]
    return coords[np.any(coords != 0, axis=1)]


def _one_shot_ball(lam, norm, radius):
    """Reference lattice_ball: one-shot enumeration, one filter, one sort."""
    factors, cc_map = diophantine._component_factors(lam, norm)
    q = sum(f @ f.T for f in factors)
    pts = _one_shot_enumeration(q, radius * radius)
    ptsf = pts.astype(float)
    block = [diophantine._row_norms(ptsf, f) for f in factors]
    total = block[0] + block[1] + block[2]
    keep = total <= radius + 1e-12
    pts, ptsf, total, nc = pts[keep], ptsf[keep], total[keep], block[1][keep]
    order = np.lexsort(tuple(pts[:, i] for i in range(pts.shape[1] - 1, -1, -1)) + (np.round(total, 12),))
    pts, ptsf, total, nc = pts[order], ptsf[order], total[order], nc[order]
    b = np.array(lam.basis, dtype=np.int64)
    return diophantine.BallPoints(lam=lam, radius=radius, coords=pts, vectors=pts @ b,
                                  norms=total, center_norms=nc, center_coords=ptsf @ cc_map)


def _shells(ball):
    """Per populated shell of the fit: the logs of its points' norms, and
    the log of its least center norm."""
    nbins = 12
    lo, hi = np.log(np.min(ball.norms)), np.log(np.max(ball.norms))
    edges = np.linspace(lo, hi + 1e-9, nbins + 1)
    logn = np.log(ball.norms)
    shells = []
    for b0, b1 in zip(edges, edges[1:]):
        mask = (logn >= b0) & (logn < b1)
        if np.any(mask):
            shells.append((logn[mask], float(np.log(np.min(ball.center_norms[mask])))))
    return shells


def _slope_ulps_bound(ball, slope):
    """How many ulps the slope fitted on numpy's pairwise shell means may lie
    from the one fitted on exactly rounded means: 4 for the fit's own
    rounding, plus the slope's first-order sensitivity to each shell mean
    times the distance between that shell's two means."""
    shells = _shells(ball)
    exact = np.array([_exact_mean(logn) for logn, _ in shells])
    pairwise = np.array([np.mean(logn) for logn, _ in shells])
    ys = np.array([y for _, y in shells])
    dx, dy = exact - exact.mean(), ys - ys.mean()
    sensitivity = np.abs(dy - 2 * slope * dx) / np.sum(dx * dx)
    return 4 + math.ceil(float(sensitivity @ np.abs(pairwise - exact)) / np.spacing(abs(slope)))


def _report_from_ball(pa, ball, mean=np.mean, witness_cap=32):
    """Reference center_norm_minimum: the whole-array reduction of a
    sorted ball (witness ties broken by the ball's order), with the shell
    means taken by `mean`."""
    scale = float(np.max(ball.norms))
    assert not np.any(ball.center_norms <= 1e-12 * scale)
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
    shells = _shells(ball)
    xs = [mean(logn) for logn, _ in shells]
    ys = [y for _, y in shells]
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(xs) >= 2 else 0.0
    return diophantine.DiophantineReport(
        r=r, radius=ball.radius, c_prime_empirical=float(np.min(ratios)), slope=slope,
        point_count=int(ball.norms.size), witnesses=witnesses)


def _pa_and_norm(a):
    split = compute_splitting(a)
    return pseudo_anosov_subspace(a, 8, split=split), adapted_norm(split)


def _ulps(x, y):
    return abs(int(np.float64(x).view(np.int64)) - int(np.float64(y).view(np.int64)))


def _exact_mean(x):
    return math.fsum(x) / x.size


def _assert_same_ball(pa, norm, radius, slope_ulps=None):
    new = lattice_ball(pa.lam, norm, radius)
    ref = _one_shot_ball(pa.lam, norm, radius)
    assert new.norms.size > 0
    for name in BALL_ARRAYS:
        got, want = getattr(new, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    # The streamed reduction equals the whole-array one with exactly
    # rounded shell means.  Against numpy's pairwise means only the slope
    # may move.
    rep = center_norm_minimum(pa, norm, radius).to_json()
    assert _report_from_ball(pa, ref, mean=_exact_mean).to_json() == rep
    want = _report_from_ball(pa, ref).to_json()
    if slope_ulps is None:
        slope_ulps = _slope_ulps_bound(ref, rep["slope"])
    assert _ulps(rep.pop("slope"), want.pop("slope")) <= slope_ulps
    assert rep == want
    return new


def _top_slab_rows(pa, norm, radius):
    """Candidate rows of the covering ellipsoid whose outermost coordinate
    is largest (the origin left out)."""
    factors, _ = diophantine._component_factors(pa.lam, norm)
    cands = _one_shot_enumeration(sum(f @ f.T for f in factors), radius * radius)
    return int(np.sum(cands[:, -1] == cands[:, -1].max()))


@pytest.mark.parametrize("radius", [6.0, 25.0, 50.0])
def test_lattice_ball_matches_one_shot_scan_salem(salem_pa, salem_norm, radius):
    _assert_same_ball(salem_pa, salem_norm, radius)


def test_lattice_ball_matches_one_shot_scan_conjugates(salem_matrix, block6_matrix):
    # A dense conjugate of the Salem companion: its lattice is Z^4, but the
    # norm's factors are dense.  At radius 25 the top slab of its covering
    # ellipsoid holds a single candidate row.
    u = random_unimodular(random.Random(1), 4)
    pa, norm = _pa_and_norm(u * salem_matrix * u.inverse_unimodular())
    assert _top_slab_rows(pa, norm, 25.0) == 1
    _assert_same_ball(pa, norm, 25.0)
    # A dense conjugate of Salem + cat: the lattice is a rank-4 sublattice of
    # Z^6 whose basis is not the coordinate one, so vectors differ from coords.
    u = random_unimodular(random.Random(0), 6)
    pa, norm = _pa_and_norm(u * block6_matrix * u.inverse_unimodular())
    assert _top_slab_rows(pa, norm, 17.0) == 1
    # 232 points in 12 shells, fitted with residuals near 0.5: a shell mean
    # that moves by 1 ulp moves the slope by about 18 ulp.
    ball = _assert_same_ball(pa, norm, 17.0, slope_ulps=64)
    assert ball.coords.shape[1] == 4 and ball.vectors.shape[1] == 6
    assert np.any(ball.vectors[:, 4:] != 0)


@pytest.fixture(scope="module")
def sextic_pa_norm():
    """The (2,2,2) sextic: a rank-6 lattice whose stable and unstable
    flavors are two-dimensional, like its center."""
    return _pa_and_norm(IntMatrix.companion(IntPoly((1, -2, 1, 1, 1, -2, 1))))


def test_lattice_ball_matches_one_shot_scan_sextic(sextic_pa_norm):
    pa, norm = sextic_pa_norm
    assert [f.shape for f in diophantine._component_factors(pa.lam, norm)[0]] == [(6, 2)] * 3
    _assert_same_ball(pa, norm, 24.0)


def test_lattice_ball_keeps_the_points_on_its_sphere(salem_pa, salem_norm, sextic_pa_norm):
    # At a radius that is a point's norm, that point is still in the ball:
    # the innermost interval's slack lies outside the sphere.
    for pa, norm in ((salem_pa, salem_norm), sextic_pa_norm):
        ball = lattice_ball(pa.lam, norm, 20.0)
        on_sphere = lattice_ball(pa.lam, norm, float(ball.norms.max()))
        for name in BALL_ARRAYS:
            assert np.array_equal(getattr(on_sphere, name), getattr(ball, name)), name


def _symmetric_ball_cases(block6_matrix, salem_matrix):
    u1 = random_unimodular(random.Random(1), 4)
    u0 = random_unimodular(random.Random(0), 6)
    return {"salem_conjugate": IntMatrix(SALEM_CONJUGATE),
            "one_row_top_slab": u1 * salem_matrix * u1.inverse_unimodular(),
            "salem_cat_conjugate": u0 * block6_matrix * u0.inverse_unimodular()}


@pytest.mark.parametrize("case", ["salem_conjugate", "one_row_top_slab", "salem_cat_conjugate"])
def test_lattice_ball_pairs_share_their_norms_bit_for_bit(case, salem_matrix, block6_matrix):
    pa, norm = _pa_and_norm(_symmetric_ball_cases(block6_matrix, salem_matrix)[case])
    radius = 25.0
    if case == "one_row_top_slab":
        assert _top_slab_rows(pa, norm, radius) == 1
    ball = lattice_ball(pa.lam, norm, radius)
    # the ball is its own negation, and each +/- pair shares its norms
    row = {c: i for i, c in enumerate(map(tuple, ball.coords.tolist()))}
    neg = np.array([row[tuple(-x for x in c)] for c in ball.coords.tolist()])
    assert np.array_equal(ball.coords[neg], -ball.coords)
    assert np.array_equal(ball.norms[neg], ball.norms)
    assert np.array_equal(ball.center_norms[neg], ball.center_norms)
    # a point's norms alone are its norms inside the batch: every 16th point
    # and the top slab's
    factors, _ = diophantine._component_factors(pa.lam, norm)
    top = np.abs(ball.coords[:, -1]) == np.abs(ball.coords[:, -1]).max()
    sample = np.flatnonzero(top | (np.arange(ball.norms.size) % 16 == 0))
    for i in sample:
        alone = [diophantine._row_norms(ball.coords[i:i + 1].astype(float), f)[0] for f in factors]
        assert alone[0] + alone[1] + alone[2] == ball.norms[i]
        assert alone[1] == ball.center_norms[i]
    rep = center_norm_minimum(pa, norm, radius)
    assert rep.point_count == ball.norms.size and rep.point_count % 2 == 0


def test_lattice_ball_memory_tracks_kept_points(salem_pa, salem_norm):
    tracemalloc.start()
    try:
        ball = lattice_ball(salem_pa.lam, salem_norm, 40.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(getattr(ball, name).nbytes for name in BALL_ARRAYS)
    assert peak <= 2.5 * kept, (peak, kept)


def _innermost_candidates(lam, norm, radius, monkeypatch):
    """Innermost candidates of one lattice_ball scan, before any filter."""
    seen = []
    real = diophantine._innermost_ball_range

    def recording(factors, radius):
        narrow = real(factors, radius)

        def counted(coords, lo, hi):
            lo, hi = narrow(coords, lo, hi)
            seen.append(int(np.maximum(hi - lo + 1, 0).sum()))
            return lo, hi

        return counted

    monkeypatch.setattr(diophantine, "_innermost_ball_range", recording)
    lattice_ball(lam, norm, radius)
    monkeypatch.undo()
    return sum(seen)


def _points_and_slab0(ball):
    """Points of a ball, and those of them whose outermost coordinate is 0."""
    return ball.norms.size, int(np.sum(ball.coords[:, -1] == 0))


def test_innermost_range_is_the_balls_interval(salem_matrix, salem_pa, salem_norm, monkeypatch):
    # The scan visits the half of the ball whose outermost coordinate is
    # positive, and all of slab 0, the origin included.  There the
    # innermost coordinate runs over the ball's own interval, searched
    # with a slack of 1e-9 radius: not over the covering ellipsoid's range
    # (4.7 candidates per kept point at radius 80 on the Salem lattice, 3
    # to 5 on these conjugates at radius 50), nor over the whole ball
    # (0.51 to 0.55 candidates per kept point).
    cases = [(salem_pa.lam, salem_norm, 25.0)]
    for seed in range(4):
        u = random_unimodular(random.Random(seed), 4)
        pa, norm = _pa_and_norm(u * salem_matrix * u.inverse_unimodular())
        cases.append((pa.lam, norm, 50.0))
    for lam, norm, radius in cases:
        candidates = _innermost_candidates(lam, norm, radius, monkeypatch)
        kept, kept0 = _points_and_slab0(_one_shot_ball(lam, norm, radius))
        within, within0 = _points_and_slab0(_one_shot_ball(lam, norm, radius * (1 + 2e-9)))
        # half the points off slab 0, all of slab 0's, and the origin
        assert (kept + kept0) // 2 + 1 <= candidates <= (within + within0) // 2 + 1, \
            (kept, kept0, candidates, within, within0)


def test_innermost_range_with_an_empty_flavor_and_a_constant_one():
    # Synthetic factors on rank 3: the s flavor has width 0, and the first
    # coordinate has no center component (b_c = 0), so the center term is
    # constant along the innermost coordinate.
    rng = np.random.default_rng(2)
    fc = rng.normal(size=(3, 2))
    fc[0] = 0.0
    fu = np.array([[1.5], [0.7], [-1.1]])
    factors = [np.zeros((3, 0)), fc, fu]
    radius = 4.0
    prefixes = np.array([[0, x, y] for x in range(-5, 6) for y in range(-5, 6)])
    lo, hi = np.full(len(prefixes), -20), np.full(len(prefixes), 20)
    first, last = diophantine._innermost_ball_range(factors, radius)(prefixes, lo, hi)
    ts = np.arange(-20, 21)
    empty = 0
    for prefix, f0, l0 in zip(prefixes, first, last):
        pts = np.tile(prefix, (ts.size, 1)).astype(float)
        pts[:, 0] = ts
        sizes = sum(diophantine._row_norms(pts, f) for f in factors)
        inside = ts[sizes <= radius]
        if inside.size == 0:
            empty += 1
            assert l0 < f0 or np.all(sizes[(ts >= f0) & (ts <= l0)] <= radius * (1 + 2e-9))
            continue
        # the interval holds every t in the ball, and nothing outside its slack
        assert f0 <= inside[0] and inside[-1] <= l0, (prefix, f0, l0, inside)
        assert np.all(sizes[(ts >= f0) & (ts <= l0)] <= radius * (1 + 2e-9))
    assert 0 < empty < len(prefixes)


def test_row_norms_do_not_depend_on_memory_order_or_sign(salem_pa, salem_norm):
    factors, _ = diophantine._component_factors(salem_pa.lam, salem_norm)
    coords = np.random.default_rng(3).integers(-60, 61, size=(500, 4))
    ptsf = coords.astype(float)
    assert ptsf.flags.c_contiguous
    fortran = np.asfortranarray(coords, dtype=float)
    assert fortran.flags.f_contiguous and not fortran.flags.c_contiguous
    for f in factors:
        want = diophantine._row_norms(ptsf, f)
        assert want.tobytes() == diophantine._row_norms(fortran, f).tobytes()
        assert want.tobytes() == diophantine._row_norms(-ptsf, f).tobytes()
        assert want.tobytes() == diophantine._row_norms(np.asfortranarray(-ptsf), f).tobytes()


def test_upper_half_is_the_outermost_nonzero_coordinate_positive():
    grid = np.array(list(itertools.product(range(-2, 3), repeat=4)), dtype=np.int64)
    want = []
    for row in grid.tolist():
        nonzero = [x for x in row if x]
        want.append(bool(nonzero) and nonzero[-1] > 0)
    got = diophantine._upper_half(grid)
    assert got.dtype == bool and got.tolist() == want
    assert not got[np.all(grid == 0, axis=1)].any()  # the origin
    assert got[(grid[:, 1:] == 0).all(axis=1)].sum() == 2  # (1, 0, 0, 0) and (2, 0, 0, 0)
    # one of each +/- pair
    assert np.array_equal(got | diophantine._upper_half(-grid), np.any(grid != 0, axis=1))


def test_empty_selections_keep_their_shape_and_dtype(salem_pa, salem_norm):
    factors, _ = diophantine._component_factors(salem_pa.lam, salem_norm)
    r = np.linalg.cholesky(sum(f @ f.T for f in factors)).T
    radius = 10.0
    # the outermost prefix just past the covering ellipsoid of radius 10
    outer = diophantine._expand_level(r, 4 * radius * radius, 3, np.zeros((1, 4), dtype=np.int64),
                                      np.zeros(1), np.zeros((1, 4)))
    last = [a[-1:] for a in outer]
    assert last[1][0] > radius * radius
    coords, partial, shifts = diophantine._expand_level(r, radius * radius, 2, *last)
    assert coords.shape == (0, 4) and coords.dtype == np.int64
    assert shifts.shape == (0, 4) and shifts.dtype == float and partial.shape == (0,)
    # a slab without prefixes is one empty batch
    [(coords, norms, nc)] = diophantine._ball_slab(r, radius, factors, last)
    assert coords.shape == (0, 4) and coords.dtype == np.int64
    assert norms.shape == nc.shape == (0,)
    # rank 1: the row (3) passes the upper half and fails the norm, 6 > 4
    factors1 = [np.zeros((1, 0)), np.array([[1.0]]), np.array([[1.0]])]
    prefixes = (np.array([[3]], dtype=np.int64), np.zeros(1), np.zeros((1, 1)))
    [(coords, norms, nc)] = diophantine._ball_slab(np.array([[2 ** 0.5]]), 4.0, factors1, prefixes)
    assert coords.shape == (0, 1) and coords.dtype == np.int64
    assert norms.shape == nc.shape == (0,)


@pytest.mark.parametrize("batch", [1, 50, 700])
def test_batched_slabs_match_whole_slabs(salem_pa, salem_norm, batch, monkeypatch):
    # Small batches cut the slabs of radius 25 into many; a prefix with more
    # candidates than a batch is a batch alone.
    report = center_norm_minimum(salem_pa, salem_norm, 25.0).to_json()
    sizes = []
    real = diophantine._innermost_rows

    def recording(coords, lo, hi):
        rows = real(coords, lo, hi)
        sizes.append((len(rows), len(coords)))
        return rows

    monkeypatch.setattr(diophantine, "_innermost_rows", recording)
    whole = lattice_ball(salem_pa.lam, salem_norm, 25.0)
    slabs = len(sizes)
    assert max(rows for rows, _ in sizes) > batch
    sizes.clear()
    monkeypatch.setattr(diophantine, "INNER_BATCH", batch)
    batched = lattice_ball(salem_pa.lam, salem_norm, 25.0)
    assert len(sizes) > slabs
    assert all(rows <= batch or prefixes == 1 for rows, prefixes in sizes), sizes
    for name in BALL_ARRAYS:
        assert np.array_equal(getattr(batched, name), getattr(whole, name)), name
    assert center_norm_minimum(salem_pa, salem_norm, 25.0).to_json() == report


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_center_norm_minimum_memory_is_flat_in_the_radius(salem_pa, salem_norm, monkeypatch):
    # The reduction keeps nothing of a batch but its share of the report,
    # and a batch holds at most INNER_BATCH candidates: the largest slab of
    # radius 80 (38,443) stays whole, and those of radius 100 are cut.  The
    # ball of radius 100 has 2.4 times the points of radius 80; holding
    # their norms alone would take 25.6 MB against 10.6 MB.  The untouched
    # array that sets glibc's thresholds holds no data and is left out.
    monkeypatch.setattr(diophantine, "_reuse_freed_heap", lambda: None)
    peak = {radius: _traced_peak(lambda: center_norm_minimum(salem_pa, salem_norm, radius))
            for radius in (80.0, 100.0)}
    assert peak[100.0] <= 1.25 * peak[80.0], peak
    assert peak[100.0] <= 256 * diophantine.INNER_BATCH, peak


def test_pair_search_memory_is_flat_in_k_max(salem_pa, salem_norm, salem_split):
    # The half k grid is walked K_CHUNK rows at a time.  At k_max 800 it
    # has 1.28 M rows, 63 times those of k_max 100, and holding both
    # candidates' distances over it took 20 MB.
    chart = center_plane_chart(salem_split, salem_pa.lam)
    peak = {k_max: _traced_peak(lambda: badly_approximable_search_dim4(
        salem_pa, salem_norm, chart, candidate_count=2, k_max=k_max)) for k_max in (100, 800)}
    assert peak[800] <= 1.25 * peak[100], peak


# criterion 10's overlap bounds: 5 (1 + kappa) L(eps) and 5 L(eps) at eps 0.35, kappa 0.05
@pytest.mark.parametrize("bound", [5 * 1.05 * 0.35 ** -2, 5 * 0.35 ** -2])
def test_lattice_ball_shells_concatenate_to_the_ball(salem_pa, salem_norm, bound):
    shells = list(lattice_ball_shells(salem_pa.lam, salem_norm, bound))
    assert [s.radius for s in shells] == [1, 2, 4, 8, 16, 32, bound]
    ball = lattice_ball(salem_pa.lam, salem_norm, bound)
    for name in BALL_ARRAYS:
        assert np.array_equal(np.concatenate([getattr(s, name) for s in shells]),
                              getattr(ball, name)), name


def test_lattice_ball_shells_stopped_early(salem_pa, salem_norm):
    """An infinite bound streams without end; the first four shells (radii
    1-8) are the prefix of the ball of norms up to 8 - 1e-6, in its order."""
    stream = lattice_ball_shells(salem_pa.lam, salem_norm, math.inf)
    shells = [next(stream) for _ in range(4)]
    stream.close()
    ball = lattice_ball(salem_pa.lam, salem_norm, 12.0)
    m = int(np.count_nonzero(np.round(ball.norms, 12) <= 8 - 1e-6))
    assert 0 < m < ball.norms.size
    for name in BALL_ARRAYS:
        assert np.array_equal(np.concatenate([getattr(s, name) for s in shells]),
                              getattr(ball, name)[:m]), name


def test_lattice_ball_over_budget_allocates_nothing_large(salem_pa, salem_norm):
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            lattice_ball(salem_pa.lam, salem_norm, 1e9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_lattice_ball_releases_freed_heap_after_slabs_and_sort(salem_pa, salem_norm, monkeypatch):
    calls = []
    monkeypatch.setattr(diophantine, "_release_freed_heap", lambda: calls.append(1))
    lattice_ball(salem_pa.lam, salem_norm, 6.0)
    assert len(calls) == 2


def test_center_norm_minimum_releases_freed_heap_after_slabs(salem_pa, salem_norm, monkeypatch):
    # once after the last batch; the small balls that find the least norm
    # release their own
    calls, balls = [], []
    real_ball = diophantine.lattice_ball

    def ball(*args):
        balls.append(len(calls))
        out = real_ball(*args)
        del calls[balls[-1]:]
        return out

    monkeypatch.setattr(diophantine, "lattice_ball", ball)
    monkeypatch.setattr(diophantine, "_release_freed_heap", lambda: calls.append(1))
    center_norm_minimum(salem_pa, salem_norm, 6.0)
    assert balls and len(calls) == 1


# A 20 MB array freed from its own mapping raises glibc's mmap threshold to
# 20 MB and its trim threshold to 40 MB, so the 10 MB array after it comes
# from the heap and stays resident once freed, until the heap is released.
FREED_HEAP_SCRIPT = """
import os
import numpy as np
from torusdyn import diophantine

def resident_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

big = np.ones(2_500_000)
del big
before = resident_mb()
a = np.ones(1_250_000)
del a
kept = resident_mb() - before
diophantine._release_freed_heap()
print(kept, resident_mb() - before)
"""


def test_release_freed_heap_returns_freed_arrays():
    import os
    import subprocess
    import sys
    from pathlib import Path

    if diophantine._MALLOC_TRIM is None:
        pytest.skip("glibc only")
    env = dict(os.environ, PYTHONPATH=str(Path(diophantine.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", FREED_HEAP_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    kept, after = map(float, proc.stdout.split())
    if kept < 8:
        pytest.skip(f"the allocator returned the freed array by itself ({kept:.1f} MB kept)")
    assert after < 2, (kept, after)


def test_center_norm_minimum_salem(salem_pa, salem_norm):
    rep = center_norm_minimum(salem_pa, salem_norm, 50.0)
    ball = lattice_ball(salem_pa.lam, salem_norm, 50.0)
    assert rep.r == 2
    assert rep.c_prime_empirical > 0
    assert rep.slope >= -2.25
    # by construction every scanned point obeys the reported constant
    assert np.all(ball.center_norms * ball.norms ** 2 >= rep.c_prime_empirical - 1e-9)
    # witnesses sorted by ratio
    ratios = [w["ratio"] for w in rep.witnesses]
    assert ratios == sorted(ratios)
    # determinism
    rep2 = center_norm_minimum(salem_pa, salem_norm, 50.0)
    assert rep2.c_prime_empirical == rep.c_prime_empirical
    assert rep2.to_json() == rep.to_json()


def test_center_norm_minimum_monotone_in_radius(salem_pa, salem_norm):
    rep1 = center_norm_minimum(salem_pa, salem_norm, 25.0)
    rep2 = center_norm_minimum(salem_pa, salem_norm, 50.0)
    assert rep2.c_prime_empirical <= rep1.c_prime_empirical + 1e-12
    assert rep2.c_prime_empirical > 0


@pytest.mark.parametrize("block", [None, 7])
def test_exact_bin_sums_match_fsum(block, monkeypatch):
    if block is not None:  # several blocks a call
        monkeypatch.setattr(diophantine, "EXACT_SUM_BLOCK", block)
    rng = np.random.default_rng(25)
    n = 4000
    values = rng.choice([-1.0, 1.0], n) * 2.0 ** rng.uniform(-70, 70, n)
    values[rng.random(n) < 0.05] = 0.0
    bins = rng.integers(0, 5, n)
    bins[rng.random(n) < 0.3] = 7
    extra = [(5e-324, 0), (-1e-310, 0), (1e300, 0), (1e20, 3), (1.0, 3), (-1e20, 3),
             (0.0, 4), (-0.0, 4), (0.25, 4), (-0.25, 4), (-3.5, 5), (0.0, 9), (-0.0, 9)]
    values = np.concatenate([values, [v for v, _ in extra]])
    bins = np.concatenate([bins, [b for _, b in extra]])
    order = rng.permutation(values.size)
    values, bins = values[order], bins[order]
    nbins = 11  # 6, 8 and 10 are empty, 5 holds one value and 9 two zeros
    sums = diophantine._exact_bin_sums(values, bins, nbins)
    assert len(sums) == nbins
    for b in range(nbins):
        got = sums[b] / diophantine.EXACT_SUM_SCALE
        want = math.fsum(values[bins == b])
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), b
    assert sums[5] / diophantine.EXACT_SUM_SCALE == -3.5 and sums[6] == sums[9] == 0


def test_shell_index_is_the_comparisons_bin():
    rng = np.random.default_rng(26)
    for lo, hi in ((-2.5, 4.4), (0.7, 0.7 + 1e-9), (3.0, 3.0000001)):
        edges = np.linspace(lo, hi, 13)
        values = np.concatenate([rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), 5000),
                                 edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
        want = np.zeros(values.size, dtype=np.intp)  # 0 below the edges, 13 from the last on
        want[values >= edges[-1]] = 13
        for j, (b0, b1) in enumerate(zip(edges, edges[1:])):
            want[(values >= b0) & (values < b1)] = j + 1
        assert np.array_equal(diophantine._shell_index(values, edges), want)


def _synthetic_ball(pa, norms, center_norms):
    """A ball of the given half-ball norms on made-up coordinates: the rows
    (..., i) for i = 1..m and their negations, sorted like lattice_ball."""
    rng = np.random.default_rng(len(norms))
    half = rng.integers(-5, 6, size=(len(norms), pa.lam.rank))
    half[:, -1] = np.arange(1, len(norms) + 1)
    coords = np.concatenate([half, -half])
    norms, center_norms = np.tile(norms, 2), np.tile(center_norms, 2)
    order = np.lexsort(tuple(coords[:, i] for i in range(coords.shape[1] - 1, -1, -1))
                       + (np.round(norms, 12),))
    coords, norms, center_norms = coords[order], norms[order], center_norms[order]
    return diophantine.BallPoints(lam=pa.lam, radius=float(norms.max()), coords=coords,
                                  vectors=coords @ np.array(pa.lam.basis, dtype=np.int64),
                                  norms=norms, center_norms=center_norms,
                                  center_coords=np.zeros((len(norms), 2)))


def _norms_on_the_edges(lo_norm, hi_norm):
    """Norms whose logs are the interior shell edges of a ball with least
    and greatest norms lo_norm and hi_norm, one for each edge that is some
    float's log."""
    edges = np.linspace(np.log(lo_norm), np.log(hi_norm) + 1e-9, 13)
    out = []
    for edge in edges[1:-1]:
        x = np.exp(edge)
        near = x + np.arange(-20, 21) * np.spacing(x)
        out += list(near[np.log(near) == edge][:1])
    return np.array(out)


def _reduction_cases():
    rng = np.random.default_rng(27)
    on_edges = _norms_on_the_edges(0.5, 40.0)
    return {
        "norms below 1": rng.uniform(0.05, 3.0, 300),
        "logs on the edges": np.concatenate([[0.5, 40.0], on_edges, np.nextafter(on_edges, 0),
                                             rng.uniform(0.5, 40.0, 200)]),
        "one shell": np.full(50, 2.0),
        "empty shells": np.concatenate([rng.uniform(1.0, 1.5, 100), rng.uniform(30.0, 50.0, 100)]),
    }


def _scan_yields(monkeypatch, ball, chunks):
    """Have center_norm_minimum scan `chunks` of the synthetic ball's half,
    with the ball's least norm as the lattice's."""
    least = dataclasses.replace(ball, norms=np.array([ball.norms.min()]))
    monkeypatch.setattr(diophantine, "_ball_slabs", lambda lam, norm, radius: iter(chunks))
    monkeypatch.setattr(diophantine, "_least_shell", lambda lam, norm: least)


@pytest.mark.parametrize("case", ["norms below 1", "logs on the edges", "one shell", "empty shells"])
def test_center_norm_minimum_reduces_a_synthetic_ball(salem_pa, salem_norm, case, monkeypatch):
    # The synthetic half ball streamed whole, in the ball's order.
    norms = _reduction_cases()[case]
    if case == "logs on the edges":  # 8 of the 11 interior edges are some float's log
        assert len(_norms_on_the_edges(0.5, 40.0)) == 8
    center_norms = np.random.default_rng(28).uniform(1e-3, 1.0, norms.size)
    ball = _synthetic_ball(salem_pa, norms, center_norms)
    half = diophantine._upper_half(ball.coords)
    _scan_yields(monkeypatch, ball, [(ball.coords[half], ball.norms[half], ball.center_norms[half])])
    rep = center_norm_minimum(salem_pa, salem_norm, ball.radius).to_json()
    assert rep == _report_from_ball(salem_pa, ball, mean=_exact_mean).to_json()
    assert rep["point_count"] == 2 * norms.size


@pytest.mark.parametrize("largest", ["first", "last"])
@pytest.mark.parametrize("case", ["norms below 1", "logs on the edges", "one shell", "empty shells"])
def test_center_norm_minimum_streams_a_synthetic_ball_exactly(salem_pa, salem_norm, case, largest,
                                                              monkeypatch):
    # The synthetic half ball streamed in chunks of 7 rows as a scan of its
    # radius: the shells' upper edges are known only at the end, so with
    # the largest norm last every point near an edge waits for it.
    norms = _reduction_cases()[case]
    center_norms = np.random.default_rng(28).uniform(1e-3, 1.0, norms.size)
    ball = _synthetic_ball(salem_pa, norms, center_norms)
    half = diophantine._upper_half(ball.coords)
    rows = np.flatnonzero(half)
    rows = rows[np.argsort(ball.norms[rows], kind="stable")]
    big = rows[-1:]
    rows = np.concatenate([big, rows[:-1]] if largest == "first" else [rows[:-1], big])
    chunks = [(ball.coords[i], ball.norms[i], ball.center_norms[i])
              for i in np.array_split(rows, -(-rows.size // 7))]
    _scan_yields(monkeypatch, ball, chunks)
    waiting = []  # points kept back after each chunk, and at the end
    real_add = diophantine._HalfBallFold.add

    def add(fold, *chunk):
        real_add(fold, *chunk)
        waiting.append(fold.pending[0].size)

    monkeypatch.setattr(diophantine._HalfBallFold, "add", add)
    rep = center_norm_minimum(salem_pa, salem_norm, ball.radius).to_json()
    assert rep == _report_from_ball(salem_pa, ball, mean=_exact_mean).to_json()
    # Points on an edge wait for the greatest norm however close the
    # bracket; with the largest norm last, points near the edges wait too.
    assert (waiting[-1] > 0) == (case == "logs on the edges"), waiting
    if largest == "last" and case != "one shell":
        assert max(waiting[:-1]) > waiting[-1], waiting


def test_plane_chart_defining_property(salem_split, salem_pa):
    chart = center_plane_chart(salem_split, salem_pa.lam)
    b = np.array(salem_pa.lam.basis, dtype=float)
    _, cc, _ = salem_split.components(b)
    i, j = chart.basis_pair
    assert np.allclose(chart.apply(cc[i]), [1, 0], atol=1e-12)
    assert np.allclose(chart.apply(cc[j]), [0, 1], atol=1e-12)
    rng = np.random.default_rng(1)
    for _ in range(10):
        a, b2 = rng.normal(size=2)
        assert np.allclose(chart.apply(a * cc[i] + b2 * cc[j]), [a, b2], atol=1e-9)


def test_badly_approximable_dim4(salem_pa, salem_norm, salem_split):
    chart = center_plane_chart(salem_split, salem_pa.lam)
    w = badly_approximable_search_dim4(salem_pa, salem_norm, chart,
                                       candidate_count=10, k_max=200)
    assert w.c_emp > 0
    assert w.n1 != w.n2
    # the reported constant is the scan minimum: verify on a k grid
    k1, k2 = np.meshgrid(np.arange(-200, 201), np.arange(-200, 201), indexing="ij")
    kmat = np.stack([k1.ravel(), k2.ravel()], axis=1).astype(float)
    kmat = kmat[np.any(kmat != 0, axis=1)]
    ksup = np.max(np.abs(kmat), axis=1)
    d1 = np.abs(kmat @ np.array(w.alpha1) - np.round(kmat @ np.array(w.alpha1)))
    d2 = np.abs(kmat @ np.array(w.alpha2) - np.round(kmat @ np.array(w.alpha2)))
    vals = np.maximum(d1, d2) * ksup ** 2
    assert np.isclose(np.min(vals), w.c_emp, rtol=1e-9)


def _full_grid(k_max):
    """Every k with 0 < |k|_sup <= k_max, k1 major, as floats."""
    rng = np.arange(-k_max, k_max + 1)
    k1, k2 = np.meshgrid(rng, rng, indexing="ij")
    kmat = np.stack([k1.ravel(), k2.ravel()], axis=1).astype(float)
    return kmat[np.any(kmat != 0, axis=1)]


def _full_grid_pair_search(cands, k_max):
    """Reference pair search: every pair evaluated on the whole grid."""
    kmat = _full_grid(k_max)
    ksup2 = np.max(np.abs(kmat), axis=1) ** 2
    dists = [_dist_to_integers(kmat @ a) for _, a in cands]
    best = None
    for i in range(len(cands)):
        n1_vec, a1 = cands[i]
        for j in range(i + 1, len(cands)):
            n2_vec, a2 = cands[j]
            vals = np.maximum(dists[i], dists[j]) * ksup2
            t = int(np.argmin(vals))
            w = PairWitness(
                n1=n1_vec, n2=n2_vec,
                alpha1=tuple(map(float, a1)), alpha2=tuple(map(float, a2)),
                c_emp=float(vals[t]),
                worst_k=(int(kmat[t, 0]), int(kmat[t, 1])),
            )
            if best is None or w.c_emp > best.c_emp:
                best = w
    return best


def _half_grid(k_max):
    """The k of the grid that come before the origin, k1 < 0 or k1 = 0 > k2,
    in grid order, as floats: the whole half at once."""
    w = 2 * k_max + 1
    half = w * w // 2
    k1 = np.repeat(np.arange(-k_max, 1), w)[:half]
    k2 = np.tile(np.arange(-k_max, k_max + 1), k_max + 1)[:half]
    return np.stack([k1, k2], axis=1).astype(float)


def _half_grid_pair_search(cands, k_max):
    """Reference pair search: the whole half grid's distances held at once,
    with the probe-shell pruning of diophantine._pair_search."""
    kmat = _half_grid(k_max)
    ksup2 = np.max(np.abs(kmat), axis=1) ** 2
    dists = [_dist_to_integers(kmat @ a) for _, a in cands]
    probe = np.flatnonzero(ksup2 <= diophantine.PAIR_PROBE_SHELL ** 2)
    probe_k2 = ksup2[probe]
    probe_dists = [d[probe] for d in dists]
    vals = np.empty(len(kmat))
    best = None
    for i, (n1_vec, a1) in enumerate(cands):
        for j in range(i + 1, len(cands)):
            if best is not None and np.min(np.maximum(probe_dists[i], probe_dists[j])
                                           * probe_k2) <= best.c_emp:
                continue
            np.maximum(dists[i], dists[j], out=vals)
            vals *= ksup2
            t = int(np.argmin(vals))
            if best is None or float(vals[t]) > best.c_emp:
                n2_vec, a2 = cands[j]
                best = PairWitness(
                    n1=n1_vec, n2=n2_vec,
                    alpha1=tuple(map(float, a1)), alpha2=tuple(map(float, a2)),
                    c_emp=float(vals[t]),
                    worst_k=(int(kmat[t, 0]), int(kmat[t, 1])),
                )
    return best


def _pa_norm_chart(a):
    split = compute_splitting(a)
    pa = pseudo_anosov_subspace(a, 8, split=split)
    return pa, adapted_norm(split), center_plane_chart(split, pa.lam)


@pytest.fixture(scope="module")
def salem_candidates(salem_pa, salem_norm, salem_split):
    return _candidates(salem_pa, salem_norm, center_plane_chart(salem_split, salem_pa.lam), 12)


@pytest.mark.parametrize("k_max", [1, 2, 7, 50, 200])
@pytest.mark.parametrize("count", [2, 3, 12])
def test_pair_search_matches_the_full_grid_salem(salem_candidates, k_max, count):
    cands = salem_candidates[:count]
    assert diophantine._pair_search(cands, k_max) == _full_grid_pair_search(cands, k_max)


@pytest.fixture(scope="module")
def sextic_candidates(sextic_pa_norm):
    pa, norm = sextic_pa_norm
    split = compute_splitting(IntMatrix.companion(IntPoly((1, -2, 1, 1, 1, -2, 1))))
    return _candidates(pa, norm, center_plane_chart(split, pa.lam), 12)


# at k_max 1065 the whole half grid of 2.27 M rows holds 18 MB per candidate
@pytest.mark.parametrize("k_max,count", [(7, 12), (200, 12), (1065, 2)])
@pytest.mark.parametrize("lattice", ["salem", "sextic"])
def test_pair_search_matches_the_whole_half_grid(salem_candidates, sextic_candidates, lattice,
                                                 k_max, count):
    cands = {"salem": salem_candidates, "sextic": sextic_candidates}[lattice][:count]
    assert diophantine._pair_search(cands, k_max) == _half_grid_pair_search(cands, k_max)


@pytest.mark.parametrize("chunk", [1, 7, 100])
@pytest.mark.parametrize("case,k_max", [("eighths", 3), ("eighths", 20), ("thirty-seconds", 40)])
def test_pair_search_chunks_keep_the_first_of_tied_pairs_and_k(case, k_max, chunk, monkeypatch):
    # Chunks far smaller than the grid: the least value recurs in many
    # chunks and several pairs tie, and the first pair and the first k in
    # grid order must still win.
    cands = [((i,), np.array(a)) for i, a in enumerate(TIED_ALPHAS[case])]
    want = _half_grid_pair_search(cands, k_max)
    monkeypatch.setattr(diophantine, "K_CHUNK", chunk)
    assert diophantine._pair_search(cands, k_max) == want


@pytest.mark.parametrize("case", ["salem_conjugate", "one_row_top_slab", "salem_cat_conjugate"])
def test_pair_search_matches_the_full_grid_conjugates(case, salem_matrix, block6_matrix):
    pa, norm, chart = _pa_norm_chart(_symmetric_ball_cases(block6_matrix, salem_matrix)[case])
    w = badly_approximable_search_dim4(pa, norm, chart, candidate_count=12, k_max=200)
    assert w == _full_grid_pair_search(_candidates(pa, norm, chart, 12), 200)


# Dyadic alphas, whose distances are all exact, so that many k share a
# pair's least value and repeated alphas make whole pairs tie.
TIED_ALPHAS = {
    # 8 k share the winning pair's least value 1/8 (0 at k_max 20)
    "eighths": [(0.0, 0.125), (0.125, 0.0), (0.0, 0.125), (0.125, 0.125), (0.125, 0.0)],
    # the pairs (0, 1) and (0, 3) first reach 0 at k = (-32, -32), outside the
    # probe shell, so the later one is evaluated on the whole grid
    "thirty-seconds": [(1 / 32, 0.0), (0.0, 1 / 32), (1 / 32, 0.0), (0.0, 1 / 32)],
}


@pytest.mark.parametrize("case,k_max", [("eighths", 1), ("eighths", 2), ("eighths", 3),
                                        ("eighths", 20), ("thirty-seconds", 40)])
def test_pair_search_keeps_the_first_of_tied_pairs_and_k(case, k_max):
    cands = [((i,), np.array(a)) for i, a in enumerate(TIED_ALPHAS[case])]
    want = _full_grid_pair_search(cands, k_max)
    assert diophantine._pair_search(cands, k_max) == want
    pair_values = [_full_grid_pair_search([ci, cj], k_max).c_emp
                   for i, ci in enumerate(cands) for cj in cands[i + 1:]]
    assert pair_values.count(want.c_emp) >= 6
    kmat = _full_grid(k_max)
    vals = np.maximum(_dist_to_integers(kmat @ np.array(want.alpha1)),
                      _dist_to_integers(kmat @ np.array(want.alpha2))) * np.max(np.abs(kmat), axis=1) ** 2
    assert np.count_nonzero(vals == want.c_emp) >= 8
    if case == "thirty-seconds":
        assert (want.n1, want.n2, want.worst_k) == ((0,), (1,), (-32, -32))


def test_pair_grid_distances_are_even_bit_for_bit(salem_candidates):
    # The pair search evaluates the grid's half before the origin.  That
    # holds the first least value only if dist(k . alpha, Z) at -k equals
    # the one at k bit for bit, and the half's products must be the grid's.
    alphas = [a for _, a in salem_candidates]
    rng = np.random.default_rng(0)
    alphas += list(rng.normal(size=(50, 2)) * rng.choice([1e-3, 1.0, 1e3], size=(50, 1)))
    # The chunks and the probe shell are the half's rows, with the same
    # distances bit for bit.
    for k_max in (7, 200):
        full, half = _full_grid(k_max), _half_grid(k_max)
        m = len(half)
        assert 2 * m == len(full)
        assert np.array_equal(full[:m], half) and np.array_equal(full[m:][::-1], -half)
        chunks = list(diophantine._half_grid_chunks(k_max))
        assert np.array_equal(np.concatenate([k for k, _ in chunks]), half)
        assert np.array_equal(np.concatenate([k2 for _, k2 in chunks]),
                              np.max(np.abs(half), axis=1) ** 2)
        shell = diophantine.PAIR_PROBE_SHELL
        probe = np.concatenate([k for k, _ in diophantine._half_grid_chunks(min(k_max, shell))])
        in_probe = np.max(np.abs(half), axis=1) <= shell
        assert np.array_equal(probe, half[in_probe])
        for a in alphas:
            d = _dist_to_integers(full @ a)
            assert np.array_equal(_dist_to_integers(half @ a), d[:m])
            assert np.array_equal(d[m:][::-1], d[:m])
            chunked = [_dist_to_integers(k @ a) for k, _ in chunks]
            assert np.array_equal(np.concatenate(chunked), d[:m])
            assert np.array_equal(_dist_to_integers(probe @ a), d[:m][in_probe])


def test_dim6_requires_dim6(salem_pa, salem_norm, salem_split):
    chart = center_plane_chart(salem_split, salem_pa.lam)
    with pytest.raises(OutOfHypothesesError):
        badly_approximable_search_dim6(salem_pa, salem_norm, chart, candidate_count=12, k_max=200,
                                       delta=0.1)


def test_rational_coordinate_collapses():
    # a rational coordinate p/q is annihilated at k = q ...
    alpha = np.array([0.5, np.sqrt(2) - 1])
    assert abs(2 * alpha[0] - round(2 * alpha[0])) == 0.0
    # ... and a fully rational alpha collapses the scan at the common denominator
    c, k = approximation_constant(np.array([0.5, 0.25]), 10, 0.1)
    assert k == 4 and c < 1e-9


def _whole_range_approximation_constant(alpha, k_max, delta):
    """Reference approximation_constant: every k at once."""
    ks = np.arange(1, k_max + 1, dtype=float)
    d = _dist_to_integers(ks[:, None] * np.asarray(alpha, dtype=float)[None, :]).max(axis=1)
    vals = d * ks ** (2 + delta)
    i = int(np.argmin(vals))
    return float(vals[i]), i + 1


@pytest.mark.parametrize("chunk,k_maxes", [(None, (1, 7, 16384, 16385, 40000)),
                                           (1, (1, 7, 300)), (1000, (2999, 5000))])
def test_approximation_constant_matches_the_whole_range(sextic_candidates, chunk, k_maxes,
                                                        monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(diophantine, "K_CHUNK", chunk)
    # the sextic's witness candidates, and rational alphas whose least value
    # 0 recurs in many chunks
    alphas = [a for _, a in sextic_candidates] + [np.array([0.5, 0.25]), np.array([1 / 64, 0.0])]
    for a in alphas:
        for k_max in k_maxes:
            assert approximation_constant(a, k_max, 0.1) == \
                _whole_range_approximation_constant(a, k_max, 0.1), (a, k_max)


def test_badly_approximable_stub_continued_fraction_bound():
    # quadratic irrationals have bounded partial quotients; for sqrt(2) - 1
    # the expansion is [0; 2, 2, ...], so dist(k alpha, Z) > 1/((2+2) k).
    alpha = np.array([np.sqrt(2) - 1, np.sqrt(3) - 1])
    c_emp, _ = approximation_constant(alpha, 10_000, 0.1)
    assert c_emp >= 0.25 - 1e-9  # min_k k^{2.1} / (4k) >= 1/4


def test_dim6_search_on_sextic_example():
    from torusdyn.intmatrix import IntMatrix
    from torusdyn.intpoly import IntPoly
    from torusdyn.pseudo_anosov import pseudo_anosov_subspace
    from torusdyn.splitting import adapted_norm, compute_splitting

    a = IntMatrix.companion(IntPoly((1, -2, 1, 1, 1, -2, 1)))
    split = compute_splitting(a)
    assert split.dims == (2, 2, 2)
    norm = adapted_norm(split)
    pa = pseudo_anosov_subspace(a, 8, split=split)
    assert pa.dim_x == 6
    chart = center_plane_chart(split, pa.lam)
    w1 = badly_approximable_search_dim6(pa, norm, chart, candidate_count=16, k_max=2000, delta=0.1)
    w2 = badly_approximable_search_dim6(pa, norm, chart, candidate_count=16, k_max=4000, delta=0.1)
    assert w1.c_emp > 0
    # doubling k_max never increases the constant, and it stays within 10%
    assert w2.c_emp <= w1.c_emp + 1e-12
    assert w2.c_emp >= 0.9 * w1.c_emp


def _no_distances(*args, **kwargs):
    raise AssertionError("the search went past its budget check")


@pytest.mark.parametrize("lattice", ["salem", "sextic"])
def test_witness_searches_enforce_the_budget(salem_matrix, lattice, monkeypatch):
    # Each search checks WITNESS_SEARCH_BUDGET itself, before it picks a
    # candidate or computes a distance.
    sextic = IntMatrix.companion(IntPoly((1, -2, 1, 1, 1, -2, 1)))
    pa, norm, chart = _pa_norm_chart(salem_matrix if lattice == "salem" else sextic)
    monkeypatch.setattr(diophantine, "WITNESS_SEARCH_BUDGET", 1e3)
    monkeypatch.setattr(diophantine, "_candidates", _no_distances)
    monkeypatch.setattr(diophantine, "_dist_to_integers", _no_distances)
    with pytest.raises(BudgetError, match="witness search over"):
        if pa.dim_x == 4:
            badly_approximable_search_dim4(pa, norm, chart, candidate_count=12, k_max=200)
        else:
            badly_approximable_search_dim6(pa, norm, chart, candidate_count=16, k_max=2000,
                                           delta=0.1)


@pytest.mark.parametrize("args", [(4, 1, 200, 0.1), (4, 12, 0, 0.1), (4, 12, 200, math.nan),
                                  (6, 0, 200, 0.1), (6, 1, 0, 0.1), (6, 1, 200, math.inf)])
def test_witness_search_gate_rejects_bad_arguments(args):
    with pytest.raises(InputError):
        diophantine.check_witness_search(*args)


def test_degenerate_pair_ranked_below(salem_pa, salem_norm, salem_split):
    chart = center_plane_chart(salem_split, salem_pa.lam)
    from torusdyn.diophantine import _candidates, _dist_to_integers

    cands = _candidates(salem_pa, salem_norm, chart, 6)
    rng_grid = np.arange(-50, 51)
    k1, k2 = np.meshgrid(rng_grid, rng_grid, indexing="ij")
    kmat = np.stack([k1.ravel(), k2.ravel()], axis=1).astype(float)
    kmat = kmat[np.any(kmat != 0, axis=1)]
    ksup = np.max(np.abs(kmat), axis=1)

    def pair_c(a1, a2):
        d1 = _dist_to_integers(kmat @ a1)
        d2 = _dist_to_integers(kmat @ a2)
        return float(np.min(np.maximum(d1, d2) * ksup ** 2))

    (n1, a1), (n2, a2) = cands[0], cands[1]
    degenerate = pair_c(a1, a1)
    proper = pair_c(a1, a2)
    assert degenerate <= proper + 1e-12
