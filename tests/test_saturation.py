import dataclasses

import numpy as np
import pytest
from scipy.spatial import cKDTree

from torusdyn import saturation
from torusdyn.diophantine import lattice_ball
from torusdyn.errors import BudgetError, InputError
from torusdyn.manifolds import LeafSolver
from torusdyn.perturbed import salem_example
from torusdyn.saturation import (
    appendix_constants,
    build_saturation_set,
    coverage_check,
    find_overlap_translation,
    overlap_translation_linear,
    su_sheet_params,
    winding_curve,
)
from torusdyn.winding import winding_number


def cloud_volume_estimate(points: np.ndarray, voxel: float) -> float:
    """Occupied-voxel volume of a point cloud (trend diagnostics, not exact)."""
    cells = np.unique(np.floor(np.asarray(points) / voxel).astype(np.int64), axis=0)
    return float(len(cells)) * voxel ** points.shape[1]


def test_coverage_linear_closed_form(solver_linear):
    res = coverage_check(solver_linear, np.zeros(4), 1.0, sample_count=50, seed=1)
    assert res.passed
    res = coverage_check(solver_linear, np.zeros(4), 1.0, sample_count=30, seed=2, form="su+c")
    assert res.passed


def test_coverage_small_perturbation(solver_small):
    res = coverage_check(solver_small, np.zeros(4), 1.0, sample_count=100, seed=3)
    assert res.passed, (res.failures, res.worst_excess)
    res = coverage_check(solver_small, np.zeros(4), 1.0, sample_count=60, seed=4, form="su+c")
    assert res.passed


def test_coverage_adversarial_is_reported_not_asserted(solver_small):
    # outside the guaranteed ball the parameters may exceed the box; the
    # checker reports rather than crashes
    res = coverage_check(solver_small, np.zeros(4), 0.2, sample_count=30, seed=5)
    assert res.samples == 30
    assert isinstance(res.passed, bool)


def test_coverage_margin_on_a_pass(solver_linear):
    """At the linear map the leaf parameters are the block coordinates, so
    the margin is r minus their largest block norm over the sample."""
    res = coverage_check(solver_linear, np.zeros(4), 1.0, sample_count=50, seed=1)
    ys = saturation._ball_params(np.random.default_rng(1), 50, 4, 0.5, solver_linear.norm.norm)
    coords = ys @ solver_linear.coords.T
    largest = max(np.max(solver_linear.norm.block_norm(coords[:, solver_linear.block_idx[b]], b))
                  for b in "csu")
    assert res.passed and res.worst_excess == 0.0
    assert res.margin == pytest.approx(1.0 - largest, abs=1e-12)
    assert 0 < res.margin < 1.0
    assert res.to_json()["margin"] == res.margin


def test_coverage_margin_on_a_failure(solver_small, monkeypatch):
    """Sampling a ball four times too large pushes parameters past r; the
    margin is then the negative of the worst excess."""
    sample = saturation._ball_params
    monkeypatch.setattr(saturation, "_ball_params",
                        lambda rng, count, dim, radius, norm: sample(rng, count, dim, 4 * radius, norm))
    res = coverage_check(solver_small, np.zeros(4), 0.5, sample_count=40, seed=3)
    assert not res.passed and res.failures > 0
    assert res.margin < 0 and res.margin == -res.worst_excess
    assert res.to_json()["margin"] == res.margin


@pytest.mark.parametrize("count", [0, -3])
def test_coverage_without_samples_is_an_input_error(solver_small, count):
    with pytest.raises(InputError, match="at least one sample"):
        coverage_check(solver_small, np.zeros(4), 1.0, sample_count=count)


def test_su_sheet_params_reconstruct(solver_small):
    rng = np.random.default_rng(6)
    ys = rng.normal(size=(5, 4)) * 0.4
    vs, vu, vc = su_sheet_params(solver_small, np.zeros(4), ys)
    mids = solver_small.leaf_points(np.zeros(4), "s", vs)
    pts = solver_small.leaf_points(mids, "u", vu)
    recon = pts + vc @ solver_small.embed[:, solver_small.block_idx["c"]].T
    assert np.max(np.abs(recon - ys)) <= 1e-8


def test_saturation_set_structure(solver_small):
    sat = build_saturation_set(solver_small, np.zeros(4), 0.5, (2, 3, 3, 2), seed=7)
    assert len(sat.points) == 2 * 3 * 3 * 2
    assert sat.big_l == pytest.approx(4.0)
    dc, ds, du, ds2 = sat.stage_dims
    assert sat.trails.shape == (36, dc + ds + du + ds2)
    # trails respect the stage radii
    nrm = solver_small.norm
    c_par = sat.trails[:, :dc]
    assert np.max(nrm.block_norm(c_par, "c")) <= 0.5 + 1e-9
    s1 = sat.trails[:, dc:dc + ds]
    assert np.max(nrm.block_norm(s1, "s")) <= 4.0 + 1e-9
    u = sat.trails[:, dc + ds:dc + ds + du]
    assert np.max(nrm.block_norm(u, "u")) <= 4.5 + 1e-9
    s2 = sat.trails[:, dc + ds + du:]
    assert np.max(nrm.block_norm(s2, "s")) <= 0.5 + 1e-9


def test_saturation_set_deterministic(solver_small):
    s1 = build_saturation_set(solver_small, np.zeros(4), 0.5, (2, 3, 3, 2), seed=7)
    s2 = build_saturation_set(solver_small, np.zeros(4), 0.5, (2, 3, 3, 2), seed=7)
    assert np.array_equal(s1.points, s2.points)
    assert np.array_equal(s1.trails, s2.trails)


def test_saturation_linear_is_stagewise_box(solver_linear):
    sat = build_saturation_set(solver_linear, np.zeros(4), 0.5, (3, 3, 3, 3), seed=8)
    # in the linear case the point is exactly the sum of the embedded stage
    # parameters
    dc, ds, du, _ = sat.stage_dims
    e = solver_linear.embed
    bi = solver_linear.block_idx
    expected = (
        sat.trails[:, :dc] @ e[:, bi["c"]].T
        + sat.trails[:, dc:dc + ds] @ e[:, bi["s"]].T
        + sat.trails[:, dc + ds:dc + ds + du] @ e[:, bi["u"]].T
        + sat.trails[:, dc + ds + du:] @ e[:, bi["s"]].T
    )
    assert np.max(np.abs(sat.points - expected)) <= 1e-10


def test_smaller_radii_trails_dominate(solver_small):
    # same seed: unit draws coincide, so smaller stage radii give pointwise
    # dominated parameter trails
    big = build_saturation_set(solver_small, np.zeros(4), 0.5, (2, 3, 3, 2), seed=9)
    small = build_saturation_set(solver_small, np.zeros(4), 0.4, (2, 3, 3, 2), seed=9)
    assert small.big_l > big.big_l  # L grows as eps shrinks


def test_volume_trend(salem_split, salem_norm, salem_pa):
    solver = LeafSolver(salem_example(0.01), salem_split, salem_norm)
    # the growth assertion is gated on the measured holonomy exponent being
    # small enough (gamma > 0), mirroring the derived-constants contract
    from torusdyn.holonomy import deck_lipschitz_fit

    fit = deck_lipschitz_fit(solver, [[1, 0, 0, 0], [3, -2, 1, 1]], seed=2)
    gate = appendix_constants(salem_pa.dim_x, max(fit["beta_emp"], 0.0))
    assert gate["asserts_growth"], "holonomy exponent too large to assert the trend"
    vols = []
    for eps in (0.5, 0.35, 0.25):
        sat = build_saturation_set(solver, np.zeros(4), eps, (2, 6, 6, 2), seed=11)
        vols.append(cloud_volume_estimate(sat.points, 0.5))
    assert vols[0] < vols[1] < vols[2]


def test_overlap_translation_linear_case(salem_pa, salem_norm):
    n = overlap_translation_linear(salem_pa, salem_norm, 0.35)
    v = np.array(n, dtype=float)
    assert salem_norm.norm(v) <= 5 * 0.35 ** -2
    ns, nc, nu = salem_norm.component_norms(v)
    big_l = 0.35 ** -2
    assert nc <= 2 * 0.35 + 1e-9
    assert ns <= 2 * (big_l + 0.35) + 1e-9
    assert nu <= 2 * (big_l + 0.35) + 1e-9


def test_find_overlap_translation_perturbed(solver_small, salem_pa):
    res = find_overlap_translation(solver_small, salem_pa, np.zeros(4), 0.35,
                                   kappa_emp=0.05, seed=11)
    assert res["norm"] <= res["bound"]
    assert any(res["n"])
    # determinism
    res2 = find_overlap_translation(solver_small, salem_pa, np.zeros(4), 0.35,
                                    kappa_emp=0.05, seed=11)
    assert res2["n"] == res["n"]


# -- the pruned overlap search against a full query per candidate -----------------

EPS, KAPPA = 0.35, 0.05  # criterion 10's setting, on salem_example(1e-2)


def _unpruned_overlap_search(solver, pa, cloud, eps, kappa_emp, delta_merge=None,
                             max_candidates=4000):
    """find_overlap_translation with an unbounded nearest-neighbour query of
    every cloud point for every candidate."""
    big_l = eps ** -2
    bound = 5 * (1 + kappa_emp) * big_l
    pts = cloud.points
    tree = cKDTree(pts)
    if delta_merge is None:
        nn, _ = tree.query(pts, k=2)
        delta_merge = 2.0 * float(np.median(nn[:, 1]))
    ball = lattice_ball(pa.lam, solver.norm, bound)
    checked = 0
    for vec, nrm_val in zip(ball.vectors, ball.norms):
        if checked >= max_candidates:
            break
        checked += 1
        d, _ = tree.query(pts + np.asarray(vec, dtype=float), k=1)
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


@pytest.fixture(scope="module")
def overlap_clouds(solver_small):
    return {seed: build_saturation_set(solver_small, np.zeros(4), EPS, (2, 20, 20, 2), seed)
            for seed in (11, 1, 0, 2)}


@pytest.mark.parametrize("seed", [11, 1])
def test_overlap_search_matches_unpruned_search(solver_small, salem_pa, overlap_clouds, seed):
    cloud = overlap_clouds[seed]
    got = find_overlap_translation(solver_small, salem_pa, np.zeros(4), EPS, KAPPA, cloud=cloud)
    assert got == _unpruned_overlap_search(solver_small, salem_pa, cloud, EPS, KAPPA)


def test_overlap_search_budget_message_matches_unpruned_search(solver_small, salem_pa,
                                                               overlap_clouds):
    cloud = overlap_clouds[11]
    with pytest.raises(BudgetError) as want:
        _unpruned_overlap_search(solver_small, salem_pa, cloud, EPS, KAPPA, max_candidates=50)
    with pytest.raises(BudgetError) as got:
        find_overlap_translation(solver_small, salem_pa, np.zeros(4), EPS, KAPPA, cloud=cloud,
                                 max_candidates=50)
    assert str(got.value) == str(want.value)


def test_overlap_search_hit_exactly_at_the_merge_tolerance(solver_small, salem_pa, overlap_clouds):
    # delta_merge equal to the closest approach of the nearest of the first 40
    # candidates: the hit is decided by equality at that candidate
    cloud = overlap_clouds[11]
    pts = cloud.points
    tree = cKDTree(pts)
    ball = lattice_ball(salem_pa.lam, solver_small.norm, 5 * (1 + KAPPA) * EPS ** -2)
    closest = [float(np.min(tree.query(pts + v.astype(float), k=1)[0])) for v in ball.vectors[:40]]
    k = int(np.argmin(closest))
    want = _unpruned_overlap_search(solver_small, salem_pa, cloud, EPS, KAPPA,
                                    delta_merge=closest[k])
    assert want["candidates_checked"] == k + 1
    got = find_overlap_translation(solver_small, salem_pa, np.zeros(4), EPS, KAPPA, cloud=cloud,
                                   delta_merge=closest[k])
    assert got == want


def _first_candidates(pa, solver, count):
    return lattice_ball(pa.lam, solver.norm, 5 * (1 + KAPPA) * EPS ** -2).vectors[:count]


def _default_merge(tree, pts):
    nn, _ = tree.query(pts, k=2)
    return 2.0 * float(np.median(nn[:, 1]))


def _closest_approaches(tree, pts, vecs, upper):
    """Per candidate n, the least distance from pts + n to the cloud: exact
    where it is below `upper` (the queries stop there), inf elsewhere."""
    return np.concatenate([
        tree.query((pts + chunk[:, None].astype(float)).reshape(-1, pts.shape[1]), k=1,
                   distance_upper_bound=upper)[0].reshape(len(chunk), -1).min(axis=1)
        for chunk in np.array_split(vecs, 40)])


def test_overlap_search_budget_error_after_the_full_budget(solver_small, salem_pa, overlap_clouds):
    """Seed 2 has no hit among the first 4,000 candidates.  The unpruned
    search needs over a minute to show it (a far translate makes every
    unbounded query slow), so the closest approaches come from queries
    bounded at 2 delta_merge, which are exact wherever a hit could be."""
    pts = overlap_clouds[2].points
    tree = cKDTree(pts)
    delta_merge = _default_merge(tree, pts)
    closest = _closest_approaches(tree, pts, _first_candidates(salem_pa, solver_small, 4000),
                                  2 * delta_merge)
    assert np.all(closest > delta_merge)
    with pytest.raises(BudgetError) as got:
        find_overlap_translation(solver_small, salem_pa, np.zeros(4), EPS, KAPPA,
                                 cloud=overlap_clouds[2])
    bound = 5 * (1 + KAPPA) * EPS ** -2
    assert str(got.value) == (f"no overlap translation within |n| <= {bound:.2f} at this "
                              "sampling density (4000 candidates); refine the cloud")


@pytest.mark.parametrize("seed", [11, 0])
def test_box_test_passes_every_near_candidate(solver_small, salem_pa, overlap_clouds, seed):
    """Every one of the first 4,000 candidates whose translate comes within
    3 delta_merge of the cloud passes the box test at 3 delta_merge; these
    near candidates are the hits and the near misses of the search."""
    pts = overlap_clouds[seed].points
    tree = cKDTree(pts)
    delta = 3 * _default_merge(tree, pts)
    vecs = _first_candidates(salem_pa, solver_small, 4000)
    near = _closest_approaches(tree, pts, vecs, 1.5 * delta) <= delta
    passed = saturation._translates_may_meet(solver_small, pts, delta)(vecs)
    assert np.count_nonzero(near) >= 2
    assert np.all(passed[near])
    assert np.count_nonzero(passed) < 40  # and it lets few others through


# -- the cloud's neighbour queries against scipy's KD-tree -------------------------


def _tree_hit(tree, pts, n, delta):
    """The search's hit test as it stood on a KD-tree: the closest approach of
    pts + n to the cloud, from a query bounded strictly above delta."""
    upper = 2.0 * delta if delta > 0 else np.inf
    d, _ = tree.query(pts + np.asarray(n).astype(float), k=1, distance_upper_bound=upper)
    return float(np.min(d)) <= delta


def _assert_queries_match_tree(pts, translations, deltas):
    """Bit-equal nearest-other distances and the same hit decisions; returns
    how many decisions were hits."""
    tree = cKDTree(pts)
    got = saturation._nearest_other_distances(pts)
    assert got.tobytes() == tree.query(pts, k=2)[0][:, 1].tobytes()
    hit_count = 0
    for delta in deltas:
        hits = saturation._translate_hits(pts, delta)
        want = [_tree_hit(tree, pts, n, delta) for n in translations]
        assert [hits(n) for n in translations] == want, delta
        hit_count += sum(want)
    return hit_count


@pytest.mark.parametrize("seed", [11, 1, 0, 2])
def test_neighbour_queries_match_the_tree_on_overlap_clouds(solver_small, salem_pa,
                                                            overlap_clouds, seed):
    """The first 200 candidates and every one of the first 4,000 that passes
    the box test, at the default merge tolerance, three times it, and the
    closest approach of the nearest of those candidates and the float just
    below it (a hit decided by equality, then a miss)."""
    pts = overlap_clouds[seed].points
    tree = cKDTree(pts)
    delta = _default_merge(tree, pts)
    vecs = _first_candidates(salem_pa, solver_small, 4000)
    vecs = np.concatenate([vecs[:200], vecs[saturation._translates_may_meet(solver_small, pts,
                                                                           3 * delta)(vecs)]])
    closest = min(float(np.min(tree.query(pts + v.astype(float), k=1,
                                          distance_upper_bound=6 * delta)[0])) for v in vecs[200:])
    hit_count = _assert_queries_match_tree(
        pts, vecs, [delta, 3 * delta, closest, np.nextafter(closest, 0)])
    assert hit_count >= 1


@pytest.mark.parametrize("dim, count", [(4, 40), (4, 700), (6, 300)])
def test_neighbour_queries_match_the_tree_on_random_clouds(dim, count):
    rng = np.random.default_rng(dim * count)
    pts = rng.uniform(0, 3, size=(count, dim)) * rng.uniform(0.2, 1, size=dim)
    translations = rng.integers(-1, 2, size=(60, dim))
    delta = 2.0 * float(np.median(cKDTree(pts).query(pts, k=2)[0][:, 1]))
    hit_count = _assert_queries_match_tree(pts, translations, [delta / 8, delta, 1.0])
    assert 0 < hit_count < 3 * len(translations)


def test_neighbour_queries_match_the_tree_with_duplicates_and_ties():
    """Points on a grid of step 1/4: repeated points (distance 0), many equal
    coordinates, translates landing exactly on cloud points (a hit at
    delta 0), and pair distances exactly equal to delta 1/4."""
    rng = np.random.default_rng(5)
    pts = rng.integers(0, 9, size=(400, 4)) * 0.25
    assert len(np.unique(pts, axis=0)) < len(pts)
    translations = rng.integers(-2, 3, size=(80, 4))
    _assert_queries_match_tree(pts, translations, [0.0, np.nextafter(0.25, 0), 0.25, 0.6])
    assert np.count_nonzero(saturation._nearest_other_distances(pts) == 0) >= 2
    # every point the same: a grid of one cell
    _assert_queries_match_tree(np.ones((7, 4)), translations[:10], [0.0, 1.0])
    # translates just outside the cloud's box, in the cells beyond its first
    # and last along the two grid coordinates, hit only its corner points
    corners = np.array([[0.0, 0, 0, 0], [4, 2, 0, 0]])
    moves = np.array([(-4.1, -2, 0, 0), (-4, -2.1, 0, 0), (4.1, 2, 0, 0), (4, 2.1, 0, 0)])
    assert _assert_queries_match_tree(corners, moves, [0.2]) == 4


@pytest.mark.parametrize("count", [1, 2])
def test_overlap_search_on_one_and_two_point_clouds(solver_small, salem_pa, overlap_clouds,
                                                    count):
    """One point has no neighbour: the merge tolerance is inf and the first
    candidate hits.  Two points give twice their distance."""
    pts = overlap_clouds[11].points[:count]
    _assert_queries_match_tree(pts, _first_candidates(salem_pa, solver_small, 20), [0.5, np.inf])
    cloud = dataclasses.replace(overlap_clouds[11], points=pts)
    assert (_search_outcome(find_overlap_translation, solver_small, salem_pa, np.zeros(4), EPS,
                            KAPPA, cloud=cloud)
            == _search_outcome(_unpruned_overlap_search, solver_small, salem_pa, cloud, EPS, KAPPA))


def _search_outcome(search, *args, **kwargs):
    """The search's result, or the message of the budget error it raised."""
    try:
        return search(*args, **kwargs)
    except BudgetError as err:
        return str(err)


def test_overlap_translation_linear_is_the_first_box_vector_of_the_ball(salem_pa, salem_norm):
    big_l = EPS ** -2
    ball = lattice_ball(salem_pa.lam, salem_norm, 5 * big_l)
    ns, nc, nu = salem_norm.component_norms(ball.vectors.astype(float))
    box = 2 * (big_l + EPS) + 1e-12
    ok = (nc <= 2 * EPS + 1e-12) & (ns <= box) & (nu <= box)
    want = tuple(int(v) for v in ball.vectors[int(np.argmax(ok))])
    assert overlap_translation_linear(salem_pa, salem_norm, EPS) == want


def test_winding_curve_properties(salem_matrix, salem_pa, salem_split, salem_norm):
    from torusdyn.pseudo_anosov import orbit_sublattice

    gamma = orbit_sublattice(salem_matrix, 1, 1, (1, 0, 0, 0), salem_pa)
    rng = np.random.default_rng(13)
    for trial in range(4):
        y = salem_split.basis_c @ rng.uniform(-2, 2, size=2)
        eps = float(rng.uniform(0.1, 0.4))
        radius = float(rng.uniform(5, 30))
        curve = winding_curve(np.zeros(4), y, gamma, eps, radius, salem_split, salem_norm)
        # vertices in x + Gamma, steps among the three generators
        for off in curve.offsets:
            assert gamma.contains(off)
        for i, gi in enumerate(curve.generator_index):
            step = tuple(curve.offsets[i + 1] - curve.offsets[i])
            assert step == curve.generators[gi]
        pts = curve.sample()
        rel = pts - y
        ns, nc, nu = salem_norm.component_norms(rel)
        assert np.all(ns + nu < eps * (ns + nc + nu))
        assert np.all(ns + nc + nu > radius)
        assert abs(winding_number(pts, y, salem_split)) == 1


def test_winding_curve_scale_coherence(salem_matrix, salem_pa, salem_split, salem_norm):
    from torusdyn.pseudo_anosov import orbit_sublattice

    gamma = orbit_sublattice(salem_matrix, 1, 1, (1, 0, 0, 0), salem_pa)
    y = salem_split.basis_c @ np.array([1.0, 0.5])
    c1 = winding_curve(np.zeros(4), y, gamma, 0.25, 10.0, salem_split, salem_norm)
    c2 = winding_curve(np.zeros(4), y, gamma, 0.25, 20.0, salem_split, salem_norm)
    assert c2.scale_k >= c1.scale_k
    assert abs(c2.winding) == 1 and c2.winding == winding_number(c2.sample(), y, salem_split)


def test_appendix_constants():
    out = appendix_constants(4, 0.01)
    assert out["r"] == 2 and out["s"] == 5
    assert out["gamma"] == pytest.approx(1 - 0.01 * 19)
    assert out["asserts_growth"]
    assert not appendix_constants(4, 0.1)["asserts_growth"]
