import random
import tracemalloc

import numpy as np
import pytest

from conftest import random_unimodular
from torusdyn import diophantine
from torusdyn.diophantine import (
    approximation_constant,
    badly_approximable_search_dim4,
    badly_approximable_search_dim6,
    center_norm_minimum,
    center_plane_chart,
    lattice_ball,
)
from torusdyn.errors import BudgetError, OutOfHypothesesError
from torusdyn.pseudo_anosov import pseudo_anosov_subspace
from torusdyn.splitting import adapted_norm, compute_splitting

BALL_ARRAYS = ("coords", "vectors", "norms", "center_norms", "center_coords")


def test_lattice_ball_count_matches_direct_enumeration(salem_pa, salem_norm):
    ball = lattice_ball(salem_pa.lam, salem_norm, 6.0)
    # direct box enumeration oracle
    import itertools

    count = 0
    for c in itertools.product(range(-12, 13), repeat=4):
        if not any(c):
            continue
        v = np.array(c, dtype=float)
        if salem_norm.norm(v) <= 6.0 + 1e-12:
            count += 1
    assert len(ball.vectors) == count


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
    block = [np.sqrt(np.sum((ptsf @ f) ** 2, axis=1)) if f.shape[1] else np.zeros(len(ptsf))
             for f in factors]
    total = block[0] + block[1] + block[2]
    keep = total <= radius + 1e-12
    pts, ptsf, total, nc = pts[keep], ptsf[keep], total[keep], block[1][keep]
    order = np.lexsort(tuple(pts[:, i] for i in range(pts.shape[1] - 1, -1, -1)) + (np.round(total, 12),))
    pts, ptsf, total, nc = pts[order], ptsf[order], total[order], nc[order]
    b = np.array(lam.basis, dtype=np.int64)
    return diophantine.BallPoints(lam=lam, radius=radius, coords=pts, vectors=pts @ b,
                                  norms=total, center_norms=nc, center_coords=ptsf @ cc_map)


def _pa_and_norm(a):
    split = compute_splitting(a)
    return pseudo_anosov_subspace(a, 8, split=split), adapted_norm(split)


def _assert_same_ball(pa, norm, radius, monkeypatch):
    new = lattice_ball(pa.lam, norm, radius)
    ref = _one_shot_ball(pa.lam, norm, radius)
    assert new.norms.size > 0
    for name in BALL_ARRAYS:
        got, want = getattr(new, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    rep, _ = center_norm_minimum(pa, norm, radius)
    monkeypatch.setattr(diophantine, "lattice_ball", _one_shot_ball)
    ref_rep, _ = center_norm_minimum(pa, norm, radius)
    monkeypatch.undo()
    assert rep.to_json() == ref_rep.to_json()
    return new


def _top_slab_rows(pa, norm, radius):
    """Candidate rows of the covering ellipsoid whose outermost coordinate
    is largest (the origin left out)."""
    factors, _ = diophantine._component_factors(pa.lam, norm)
    cands = _one_shot_enumeration(sum(f @ f.T for f in factors), radius * radius)
    return int(np.sum(cands[:, -1] == cands[:, -1].max()))


@pytest.mark.parametrize("radius", [6.0, 25.0, 50.0])
def test_lattice_ball_matches_one_shot_scan_salem(salem_pa, salem_norm, radius, monkeypatch):
    _assert_same_ball(salem_pa, salem_norm, radius, monkeypatch)


def test_lattice_ball_matches_one_shot_scan_conjugates(salem_matrix, block6_matrix, monkeypatch):
    # A dense conjugate of the Salem companion: its lattice is Z^4, but the
    # norm's factors are dense.  At radius 25 the top slab of its covering
    # ellipsoid holds a single candidate row.
    u = random_unimodular(random.Random(1), 4)
    pa, norm = _pa_and_norm(u * salem_matrix * u.inverse_unimodular())
    assert _top_slab_rows(pa, norm, 25.0) == 1
    _assert_same_ball(pa, norm, 25.0, monkeypatch)
    # A dense conjugate of Salem + cat: the lattice is a rank-4 sublattice of
    # Z^6 whose basis is not the coordinate one, so vectors differ from coords.
    u = random_unimodular(random.Random(0), 6)
    pa, norm = _pa_and_norm(u * block6_matrix * u.inverse_unimodular())
    assert _top_slab_rows(pa, norm, 17.0) == 1
    ball = _assert_same_ball(pa, norm, 17.0, monkeypatch)
    assert ball.coords.shape[1] == 4 and ball.vectors.shape[1] == 6
    assert np.any(ball.vectors[:, 4:] != 0)


def test_lattice_ball_memory_tracks_kept_points(salem_pa, salem_norm):
    tracemalloc.start()
    try:
        ball = lattice_ball(salem_pa.lam, salem_norm, 40.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(getattr(ball, name).nbytes for name in BALL_ARRAYS)
    assert peak <= 2.5 * kept, (peak, kept)


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
    rep, ball = center_norm_minimum(salem_pa, salem_norm, 50.0)
    assert rep.r == 2
    assert rep.c_prime_empirical > 0
    assert rep.slope >= -2.25
    # by construction every scanned point obeys the reported constant
    assert np.all(ball.center_norms * ball.norms ** 2 >= rep.c_prime_empirical - 1e-9)
    # witnesses sorted by ratio
    ratios = [w["ratio"] for w in rep.witnesses]
    assert ratios == sorted(ratios)
    # determinism
    rep2, _ = center_norm_minimum(salem_pa, salem_norm, 50.0)
    assert rep2.c_prime_empirical == rep.c_prime_empirical
    assert rep2.to_json() == rep.to_json()


def test_center_norm_minimum_monotone_in_radius(salem_pa, salem_norm):
    rep1, _ = center_norm_minimum(salem_pa, salem_norm, 25.0)
    rep2, _ = center_norm_minimum(salem_pa, salem_norm, 50.0)
    assert rep2.c_prime_empirical <= rep1.c_prime_empirical + 1e-12
    assert rep2.c_prime_empirical > 0


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


def test_dim6_requires_dim6(salem_pa, salem_norm, salem_split):
    chart = center_plane_chart(salem_split, salem_pa.lam)
    with pytest.raises(OutOfHypothesesError):
        badly_approximable_search_dim6(salem_pa, salem_norm, chart)


def test_rational_coordinate_collapses():
    # a rational coordinate p/q is annihilated at k = q ...
    alpha = np.array([0.5, np.sqrt(2) - 1])
    assert abs(2 * alpha[0] - round(2 * alpha[0])) == 0.0
    # ... and a fully rational alpha collapses the scan at the common denominator
    c, k = approximation_constant(np.array([0.5, 0.25]), 10, 0.1)
    assert k == 4 and c < 1e-9


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
    w1 = badly_approximable_search_dim6(pa, norm, chart, candidate_count=16, k_max=2000)
    w2 = badly_approximable_search_dim6(pa, norm, chart, candidate_count=16, k_max=4000)
    assert w1.c_emp > 0
    # doubling k_max never increases the constant, and it stays within 10%
    assert w2.c_emp <= w1.c_emp + 1e-12
    assert w2.c_emp >= 0.9 * w1.c_emp


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
