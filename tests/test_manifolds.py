import numpy as np
import pytest

from conftest import SALEM_CONJUGATE
from torusdyn.intmatrix import IntMatrix
from torusdyn.manifolds import LeafSolver, _Segment, graph_transform, interpolation_floor, measure_kappa
from torusdyn.perturbed import salem_example
from torusdyn.splitting import adapted_norm, compute_splitting


def leaf_invariance_residual(solver, base, flavor, params):
    """F(sigma(v)) must land on the leaf of F(base) at the matched parameter."""
    pts = solver.leaf_points(base, flavor, params)
    img = solver.f.apply(pts)
    base_img = solver.f.apply(np.asarray(base, dtype=float))
    v_img = ((img - base_img) @ solver.coords.T)[..., solver.param_indices(flavor)]
    on_leaf = solver.leaf_points(base_img, flavor, v_img)
    return float(np.max(np.abs(on_leaf - img)))


def test_linear_leaves_are_linear(solver_linear):
    rng = np.random.default_rng(0)
    for flavor in ("s", "u", "c", "cs", "cu"):
        d = len(solver_linear.param_indices(flavor))
        params = rng.normal(size=(20, d))
        pts = solver_linear.leaf_points(np.zeros(4), flavor, params)
        lin = params @ solver_linear.embed[:, solver_linear.param_indices(flavor)].T
        assert np.max(np.abs(pts - lin)) <= 1e-12, flavor


def test_leaf_offsets_are_perpendicular(solver_small):
    rng = np.random.default_rng(1)
    for flavor in ("s", "u", "c", "cs", "cu"):
        d = len(solver_small.param_indices(flavor))
        params = rng.normal(size=(10, d))
        pts = solver_small.leaf_points(np.zeros(4), flavor, params)
        coords = pts @ solver_small.coords.T
        assert np.max(np.abs(coords[:, solver_small.param_indices(flavor)] - params)) <= 1e-10


def test_leaf_invariance_all_flavors(solver_small):
    rng = np.random.default_rng(2)
    base = np.array([0.3, -0.1, 0.2, 0.05])
    for flavor in ("s", "u", "c", "cs", "cu"):
        d = len(solver_small.param_indices(flavor))
        params = rng.normal(size=(10, d))
        assert leaf_invariance_residual(solver_small, base, flavor, params) <= 1e-9, flavor


def test_far_leaf_marching(solver_small):
    far = np.array([[9.0, -6.0]])
    assert leaf_invariance_residual(solver_small, np.zeros(4), "c", far) <= 1e-9


def test_intersection_examples(solver_linear, solver_small):
    x = np.array([0.3, 0.2, -0.4, 0.1])
    zero = np.zeros(4)
    # linear closed form
    z_lin = solver_linear.intersection(x, zero, ("s", "cu"))
    e_s = solver_linear.embed[:, solver_linear.param_indices("s")]
    e_cu = solver_linear.embed[:, solver_linear.param_indices("cu")]
    mat = np.hstack([e_s, -e_cu])
    ab = np.linalg.solve(mat, zero - x)
    assert np.max(np.abs(z_lin - (x + e_s @ ab[:1]))) <= 1e-10
    # perturbed: the point lies on both leaves
    z = solver_small.intersection(x, zero, ("s", "cu"), starts=5)
    vs = ((z - x) @ solver_small.coords.T)[solver_small.param_indices("s")]
    back = solver_small.leaf_points(x, "s", vs[None, :])[0]
    assert np.max(np.abs(back - z)) <= 1e-8
    vcu = (z @ solver_small.coords.T)[solver_small.param_indices("cu")]
    back2 = solver_small.leaf_points(zero, "cu", vcu[None, :])[0]
    assert np.max(np.abs(back2 - z)) <= 1e-8


def test_intersection_common_point(solver_small):
    x = np.array([0.2, 0.1, -0.3, 0.4])
    z = solver_small.intersection(x, x, ("s", "cu"), starts=3)
    assert np.max(np.abs(z - x)) <= 1e-8


def test_su_projection_fixes_center_leaf(solver_small):
    charts = np.array([[0.2, -0.3], [0.4, 0.1]])
    pts = solver_small.center_point(charts)
    for p in pts:
        q = solver_small.su_projection_to_center(p)
        assert np.max(np.abs(q - p)) <= 1e-8


def test_su_projection_linear(solver_linear):
    rng = np.random.default_rng(3)
    z = rng.normal(size=4)
    q = solver_linear.su_projection_to_center(z)
    cz = (z @ solver_linear.coords.T)[solver_linear.block_idx["c"]]
    expected = cz @ solver_linear.embed[:, solver_linear.block_idx["c"]].T
    assert np.max(np.abs(q - expected)) <= 1e-10


def test_su_projection_two_leg_reconstruction(solver_small):
    rng = np.random.default_rng(4)
    z = rng.normal(size=4) * 0.5
    zero = np.zeros(4)
    w = solver_small.intersection(z, zero, ("u", "cs"))
    out = solver_small.intersection(w, zero, ("s", "cu"))
    assert np.max(np.abs(out - solver_small.su_projection_to_center(z))) <= 1e-9
    # leg 1 stays on W^u(z), leg 2 on W^s(w)
    vu = ((w - z) @ solver_small.coords.T)[solver_small.param_indices("u")]
    assert np.max(np.abs(solver_small.leaf_points(z, "u", vu[None, :])[0] - w)) <= 1e-8


def test_leaf_param_maps_roundtrip(solver_small):
    rng = np.random.default_rng(5)
    x = np.array([0.1, 0.2, -0.1, 0.3])
    v = rng.normal(size=(6, 4)) * 0.8
    pts = solver_small.from_leaf_params(x, v)
    for vec, p in zip(v, pts):
        vc, vs, vu = solver_small.to_leaf_params(x, p)
        coords = vec @ solver_small.coords.T
        assert np.max(np.abs(vc - coords[solver_small.block_idx["c"]])) <= 1e-8
        assert np.max(np.abs(vs - coords[solver_small.block_idx["s"]])) <= 1e-8
        assert np.max(np.abs(vu - coords[solver_small.block_idx["u"]])) <= 1e-8


def test_graph_transform_linear_zero(solver_linear):
    patch = graph_transform(solver_linear, "s", np.zeros(4), rho=2.0, grid_step=1 / 32)
    assert np.max(np.abs(patch.values)) <= 1e-12
    assert patch.kappa_emp <= 1e-12
    patch = graph_transform(solver_linear, "cu", np.zeros(4), rho=1.0, grid_step=1 / 8)
    assert np.max(np.abs(patch.values)) <= 1e-12


def test_graph_transform_matches_shooting(solver_small):
    patch = graph_transform(solver_small, "s", np.zeros(4), rho=1.5, grid_step=1 / 32)
    nodes = np.array([[0.5], [1.0], [-0.7]])
    direct = solver_small.leaf_offset(np.zeros(4), "s", nodes)
    tol = max(1e-8, 2 * interpolation_floor(patch))
    assert np.max(np.abs(patch.offset(nodes) - direct)) <= tol


def test_graph_transform_invariance_sample(solver_small):
    patch = graph_transform(solver_small, "s", np.zeros(4), rho=1.0, grid_step=1 / 32, tol=1e-9)
    rng = np.random.default_rng(7)
    params = rng.uniform(-0.7, 0.7, size=(100, 1))
    pts = patch.point(params)
    img = solver_small.f.apply(pts)
    base_img = solver_small.f.apply(patch.base)
    v_img = ((img - base_img) @ solver_small.coords.T)[:, patch.param_idx]
    on_leaf = solver_small.leaf_points(base_img, "s", v_img)
    resid = np.max(np.abs(on_leaf - img))
    assert resid <= 10 * 1e-9 + interpolation_floor(patch)


def test_graph_origin_is_pinned(solver_small):
    patch = graph_transform(solver_small, "cu", np.zeros(4), rho=0.75, grid_step=1 / 8)
    center = tuple(len(a) // 2 for a in patch.axes)
    assert np.max(np.abs(patch.values[center])) == 0.0


def test_kappa_decreases_with_amplitude(salem_split, salem_norm):
    kappas = []
    for amp in (0.1, 0.01, 0.001):
        sv = LeafSolver(salem_example(amp), salem_split, salem_norm)
        kappas.append(measure_kappa(sv, radius=1.0, samples=24, seed=5)["max"])
    assert kappas[0] > kappas[1] > kappas[2]


def test_multistart_agreement(solver_small):
    # well inside the perturbative regime all starts coincide
    z = solver_small.intersection(np.array([0.4, -0.2, 0.3, 0.1]), np.zeros(4),
                                  ("u", "cs"), starts=5, seed=3)
    assert z.shape == (4,)


# -- the array segment against its per-step definition -----------------------------


def _per_step_nonlinear_terms(seg):
    """One difference propagation per time step."""
    s = seg.solver
    out = np.empty((seg.steps,) + seg.d.shape[1:])
    for t in range(seg.steps):
        amb = seg.d[t] @ s.embed.T
        if seg.direction == "fwd":
            diff = s.f.diff_apply(s.f.reference_chain(seg.refs[t]), amb)
            lin = amb @ s.f.a_float.T
        else:
            diff = s.f.diff_apply_inverse(s.f.reference_chain(seg.refs[t], inverse=True), amb)
            lin = amb @ s.f.a_inv_float.T
        out[t] = (diff - lin) @ s.coords.T
    return out


def _per_step_update(seg, driven, killed):
    """The sweep's recurrences through index arrays; returns (new d, killed t=0 values)."""
    s = seg.solver
    index = np.arange(s.n)
    g = _per_step_nonlinear_terms(seg)
    new_d = np.zeros_like(seg.d)
    fwd = seg.direction == "fwd"
    blocks = s.block_matrix_fwd if fwd else s.block_matrix_bwd
    inv_blocks = s.block_matrix_bwd if fwd else s.block_matrix_fwd
    for b, v0 in driven.items():
        idx = index[s.block_idx[b]]
        cur = np.array(v0, copy=True)
        new_d[0][..., idx] = cur
        for t in range(seg.steps):
            cur = cur @ blocks[b].T + g[t][..., idx]
            new_d[t + 1][..., idx] = cur
    out = {}
    for b in killed:
        idx = index[s.block_idx[b]]
        cur = np.zeros(seg.d.shape[1:-1] + (len(idx),))
        for t in range(seg.steps - 1, -1, -1):
            cur = (cur - g[t][..., idx]) @ inv_blocks[b].T
            new_d[t][..., idx] = cur
        out[b] = new_d[0][..., idx]
    return new_d, out


@pytest.mark.parametrize("matrix", ["salem", "conjugate"])
@pytest.mark.parametrize("direction", ["fwd", "bwd"])
@pytest.mark.parametrize("anchor_kind", ["batch", "single", "single_one_row"])
def test_segment_is_exactly_the_per_step_solve(salem_split, salem_norm, matrix, direction, anchor_kind):
    if matrix == "salem":
        solver = LeafSolver(salem_example(1e-2), salem_split, salem_norm)
    else:
        split = compute_splitting(IntMatrix(SALEM_CONJUGATE))
        solver = LeafSolver(salem_example(1e-2, a=split.matrix), split, adapted_norm(split))
    rng = np.random.default_rng(13)
    rows = 1 if anchor_kind == "single_one_row" else 9
    anchor = rng.uniform(-2, 2, size=(rows, 4)) if anchor_kind == "batch" else rng.uniform(-2, 2, size=4)
    shape = (rows,)
    seg = _Segment(solver, anchor, direction, solver.horizon, shape)
    ds, dc, du = solver.dims
    if direction == "fwd":
        driven, killed = {"s": rng.normal(size=(rows, ds)) * 0.5}, ["c", "u"]
    else:
        driven, killed = {"u": rng.normal(size=(rows, du)) * 0.5}, ["s", "c"]
    for _ in range(3):  # the first sweep starts from d = 0; later ones from a nonzero d
        new_d, out = _per_step_update(seg, driven, killed)
        got = seg.update(driven, killed)
        assert np.array_equal(seg.d, new_d)
        assert got.keys() == out.keys()
        assert all(np.array_equal(got[b], out[b]) for b in killed)
        assert np.any(seg.d != 0)
        assert np.array_equal(seg.nonlinear_terms(), _per_step_nonlinear_terms(seg))
