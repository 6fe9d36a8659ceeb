import math
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from conftest import (SALEM, SALEM_CONJUGATE, apply_inverse, chained_shears_map, harmonics_map,
                      march_oracle)
from torusdyn import manifolds
from torusdyn.errors import NumericsError
from torusdyn.intmatrix import IntMatrix
from torusdyn.manifolds import (
    FLAVOR_BLOCKS,
    LEAF_DIRECTION,
    LeafSolver,
    _Segment,
    measure_kappa,
)
from torusdyn.perturbed import PerturbedMap, ReferenceChain, Shear, TrigProfile, salem_example, torus_reduce
from torusdyn.splitting import adapted_norm, compute_splitting


FLAVORS = ("s", "u", "c", "cs", "cu")


def multistart_intersection(solver, x, y, pair, starts, seed=0, start_scale=0.5,
                            agreement_tol=1e-8):
    """W^a(x) cap W^b(y) solved from ``starts`` initial states, zero and
    randomly perturbed; every start must reach the same point."""
    d_drive = solver.block_dim(pair[0])
    init = np.zeros((starts, d_drive))
    init[1:] = start_scale * np.random.default_rng(seed).standard_normal((starts - 1, d_drive))
    xs = np.broadcast_to(np.asarray(x, dtype=float), (starts, solver.n))
    shift = (xs - y) @ solver.coords.T
    # the legs of intersection_batch, with the x leg's driven block started at init
    z = solver._solve([(xs, pair[0], shift), (y, pair[1], -shift)], {}, (starts,),
                      f"intersection {pair}", answer=0, state={pair[0]: init})
    assert np.max(np.abs(z - z[0])) <= agreement_tol
    return z[0]


def su_projection_to_center(solver, z):
    """Slide z along its unstable, then its stable leaf onto W^c(0)."""
    zero = np.zeros(solver.n)
    w = solver.intersection_batch(np.atleast_2d(z), zero, ("u", "cs"))
    return solver.intersection_batch(w, zero, ("s", "cu"))[0]


def center_leaf_residual(solver, p):
    """Distance of p from W^c(0), by re-evaluating the leaf at p's chart."""
    on_leaf = solver.center_point(solver.center_chart(p)[None, :])[0]
    return float(np.max(np.abs(on_leaf - p)))


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
    z_lin = solver_linear.intersection_batch(x[None, :], zero, ("s", "cu"))[0]
    e_s = solver_linear.embed[:, solver_linear.param_indices("s")]
    e_cu = solver_linear.embed[:, solver_linear.param_indices("cu")]
    mat = np.hstack([e_s, -e_cu])
    ab = np.linalg.solve(mat, zero - x)
    assert np.max(np.abs(z_lin - (x + e_s @ ab[:1]))) <= 1e-10
    # perturbed: the point lies on both leaves
    z = multistart_intersection(solver_small, x, zero, ("s", "cu"), starts=5)
    vs = ((z - x) @ solver_small.coords.T)[solver_small.param_indices("s")]
    back = solver_small.leaf_points(x, "s", vs[None, :])[0]
    assert np.max(np.abs(back - z)) <= 1e-8
    vcu = (z @ solver_small.coords.T)[solver_small.param_indices("cu")]
    back2 = solver_small.leaf_points(zero, "cu", vcu[None, :])[0]
    assert np.max(np.abs(back2 - z)) <= 1e-8


def test_intersection_common_point(solver_small):
    x = np.array([0.2, 0.1, -0.3, 0.4])
    z = multistart_intersection(solver_small, x, x, ("s", "cu"), starts=3)
    assert np.max(np.abs(z - x)) <= 1e-8


def test_su_projection_fixes_center_leaf(solver_small):
    charts = np.array([[0.2, -0.3], [0.4, 0.1]])
    pts = solver_small.center_point(charts)
    for p in pts:
        q = su_projection_to_center(solver_small, p)
        assert center_leaf_residual(solver_small, q) <= 1e-8
        assert np.max(np.abs(q - p)) <= 1e-8


def test_su_projection_linear(solver_linear):
    rng = np.random.default_rng(3)
    z = rng.normal(size=4)
    q = su_projection_to_center(solver_linear, z)
    assert center_leaf_residual(solver_linear, q) <= 1e-8
    cz = (z @ solver_linear.coords.T)[solver_linear.block_idx["c"]]
    expected = cz @ solver_linear.embed[:, solver_linear.block_idx["c"]].T
    assert np.max(np.abs(q - expected)) <= 1e-10


def test_su_projection_two_leg_reconstruction(solver_small):
    rng = np.random.default_rng(4)
    z = rng.normal(size=4) * 0.5
    zero = np.zeros(4)
    w = solver_small.intersection_batch(z[None, :], zero, ("u", "cs"))[0]
    out = solver_small.intersection_batch(w[None, :], zero, ("s", "cu"))[0]
    assert np.max(np.abs(out - su_projection_to_center(solver_small, z))) <= 1e-9
    assert center_leaf_residual(solver_small, out) <= 1e-8
    # leg 1 stays on W^u(z), leg 2 on W^s(w)
    vu = ((w - z) @ solver_small.coords.T)[solver_small.param_indices("u")]
    assert np.max(np.abs(solver_small.leaf_points(z, "u", vu[None, :])[0] - w)) <= 1e-8


def test_leaf_param_maps_roundtrip(solver_small):
    rng = np.random.default_rng(5)
    x = np.array([0.1, 0.2, -0.1, 0.3])
    v = rng.normal(size=(6, 4)) * 0.8
    pts = solver_small.from_leaf_params(x, v)
    vc, vs, vu = solver_small.to_leaf_params_batch(x, pts)
    coords = v @ solver_small.coords.T
    assert np.max(np.abs(vc - coords[:, solver_small.block_idx["c"]])) <= 1e-8
    assert np.max(np.abs(vs - coords[:, solver_small.block_idx["s"]])) <= 1e-8
    assert np.max(np.abs(vu - coords[:, solver_small.block_idx["u"]])) <= 1e-8


# -- gridded graph transform ------------------------------------------------------
# The classical fixed-point construction of the s, u, cs and cu leaves, by
# multilinear interpolation on a regular grid: an oracle for the leaf solver
# that shares none of its Lyapunov-Perron machinery.

# The grid covers the adapted ball of radius rho times GRAPH_MARGIN, and the
# transform's depth is doubled at most GRAPH_RETRIES times.
GRAPH_MARGIN = 1.25
GRAPH_RETRIES = 3


@dataclass
class GraphPatch:
    """Sampled graph of an invariant leaf over its tangent block.

    Parameters are block coordinates on a regular grid cube; values are
    the perpendicular block coordinates of the graph.
    """

    flavor: str
    base: np.ndarray
    axes: tuple[np.ndarray, ...]
    values: np.ndarray            # grid shape + (d_perp,)
    kappa_emp: float
    param_idx: np.ndarray
    perp_idx: np.ndarray
    embed: np.ndarray

    def offset(self, params: np.ndarray) -> np.ndarray:
        interp = RegularGridInterpolator(self.axes, self.values, method="linear",
                                         bounds_error=False, fill_value=None)
        return interp(np.asarray(params, dtype=float))

    def point(self, params: np.ndarray) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        return (
            self.base
            + params @ self.embed[:, self.param_idx].T
            + self.offset(params) @ self.embed[:, self.perp_idx].T
        )


def _grid_nodes(axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def graph_transform(solver, flavor, x, rho=2.0, tol=1e-9, grid_step=1.0 / 32.0) -> GraphPatch:
    """Invariant-manifold graph over the flavor block, by the graph transform.

    Starting from the zero graph at a far point of the orbit, the graph is
    pulled back (flavors s, cs) or pushed forward (u, cu) along the orbit
    of x until the depth guarantees a fixed-point error below tol.  The
    invariance residual is verified on a node sample; if it exceeds 10*tol
    the depth is doubled, and after GRAPH_RETRIES the budget error is raised.
    """
    if flavor not in ("s", "u", "cs", "cu"):
        raise ValueError(f"graph transform flavors are s, u, cs, cu; got {flavor!r}")

    lam, mu = solver.norm.lambda_s, solver.norm.mu_u
    contraction = {"s": lam, "cs": 1.0 / mu, "u": 1.0 / mu, "cu": lam}[flavor]
    if not contraction < 1:
        raise NumericsError("graph transform contraction factor >= 1")
    depth = max(4, int(math.ceil(math.log(tol) / math.log(contraction))) + 4)

    resid = math.inf
    threshold = 10 * tol
    for _attempt in range(GRAPH_RETRIES + 1):
        patch = _transform_patch(solver, flavor, np.asarray(x, dtype=float), rho, grid_step, depth)
        resid = _invariance_residual(solver, patch, sample=64, seed=11)
        # a multilinear grid cannot represent the leaf better than its own
        # curvature allows; the floor is measured from second differences
        threshold = 10 * tol + interpolation_floor(patch)
        if resid <= threshold:
            return patch
        depth *= 2
    raise NumericsError(
        f"graph transform iteration budget exceeded (residual {resid:.2e} "
        f"> {threshold:.2e} at depth {depth // 2})"
    )


def _cube_half_width(solver, flavor, rho):
    # the coordinate cube must cover the adapted ball of radius rho
    scale = 1.0
    for b in FLAVOR_BLOCKS[flavor]:
        gram = {"s": solver.norm.gram_s, "c": solver.norm.gram_c, "u": solver.norm.gram_u}[b]
        if gram.shape[0]:
            w = np.linalg.eigvalsh(gram)
            scale = max(scale, 1.0 / math.sqrt(float(w[0])))
    return rho * scale


def _transform_patch(solver, flavor, x, rho, grid_step, depth) -> GraphPatch:
    p_idx = solver.param_indices(flavor)
    q_idx = solver.perp_indices(flavor)
    e_p = solver.embed[:, p_idx]
    e_q = solver.embed[:, q_idx]
    m = max(1, int(math.ceil(_cube_half_width(solver, flavor, rho) * GRAPH_MARGIN / grid_step)))
    axes = tuple(np.arange(-m, m + 1) * grid_step for _ in p_idx)
    nodes = _grid_nodes(axes)
    grid_shape = tuple(len(a) for a in axes)

    forward = flavor in ("u", "cu")
    # orbit of base points: pullback needs the patch at F(y), pushforward at F^{-1}(y)
    orbit = [np.asarray(x, dtype=float)]
    for _ in range(depth):
        orbit.append(solver.f.apply(orbit[-1]) if not forward else apply_inverse(solver.f, orbit[-1]))
    values = np.zeros(grid_shape + (len(q_idx),))
    a_param = (solver.coords[p_idx] @ solver.f.a_float) @ solver.embed[:, p_idx] if not forward \
        else (solver.coords[p_idx] @ solver.f.a_inv_float) @ solver.embed[:, p_idx]

    for t in range(depth, 0, -1):
        y = orbit[t - 1]
        z = orbit[t]
        interp = RegularGridInterpolator(axes, values, method="linear", bounds_error=False, fill_value=None)

        def graph_point(w):
            return z + w @ e_p.T + interp(w) @ e_q.T

        # solve, per node v: param-block of (F^{-+1}(sigma_z(w)) - y) = v
        w = nodes @ a_param.T  # linear prediction
        target = nodes
        for _ in range(60):
            pts = graph_point(w)
            img = apply_inverse(solver.f, pts) if not forward else solver.f.apply(pts)
            cur = ((img - y) @ solver.coords.T)[:, p_idx]
            err = cur - target
            if np.max(np.abs(err)) <= 1e-12:
                break
            w = w - err @ a_param.T
        pts = graph_point(w)
        img = apply_inverse(solver.f, pts) if not forward else solver.f.apply(pts)
        new_vals = ((img - y) @ solver.coords.T)[:, q_idx]
        values = new_vals.reshape(grid_shape + (len(q_idx),))

    # pin the base node exactly
    center = tuple(len(a) // 2 for a in axes)
    if np.max(np.abs(values[center])) > 1e-7:
        raise NumericsError("graph transform origin offset did not vanish")
    values[center] = 0.0
    kappa = solver.graph_ratio(flavor, nodes, values.reshape(-1, len(q_idx)))
    return GraphPatch(
        flavor=flavor,
        base=np.asarray(x, dtype=float),
        axes=axes,
        values=values,
        kappa_emp=kappa,
        param_idx=p_idx,
        perp_idx=q_idx,
        embed=solver.embed,
    )


def interpolation_floor(patch: GraphPatch) -> float:
    """Representation error scale of the multilinear grid: the sum over axes
    of the largest absolute second difference of the stored values."""
    total = 0.0
    for axis in range(len(patch.axes)):
        if patch.values.shape[axis] >= 3:
            total += float(np.max(np.abs(np.diff(patch.values, n=2, axis=axis))))
    return total


def _invariance_residual(solver, patch: GraphPatch, sample: int, seed: int) -> float:
    """max over sampled params of the distance of F(graph point) from the
    image leaf, measured through the shooting evaluator."""
    rng = np.random.default_rng(seed)
    d = len(patch.param_idx)
    lows = np.array([a[0] for a in patch.axes])
    highs = np.array([a[-1] for a in patch.axes])
    params = rng.uniform(lows * 0.7, highs * 0.7, size=(sample, d))
    pts = patch.point(params)
    img = solver.f.apply(pts)
    base_img = solver.f.apply(patch.base)
    v_img = ((img - base_img) @ solver.coords.T)[:, patch.param_idx]
    on_leaf = solver.leaf_points(base_img, patch.flavor, v_img)
    return float(np.max(np.abs(on_leaf - img)))


def test_graph_transform_linear_zero(solver_linear):
    patch = graph_transform(solver_linear, "s", np.zeros(4), rho=2.0, grid_step=1 / 32)
    assert np.max(np.abs(patch.values)) <= 1e-12
    assert patch.kappa_emp <= 1e-12
    patch = graph_transform(solver_linear, "cu", np.zeros(4), rho=1.0, grid_step=1 / 8)
    assert np.max(np.abs(patch.values)) <= 1e-12


def test_graph_transform_matches_shooting(solver_small):
    patch = graph_transform(solver_small, "s", np.zeros(4), rho=1.5, grid_step=1 / 32)
    nodes = _grid_nodes(patch.axes)
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


@pytest.mark.parametrize("flavor", ["c", "x"])
def test_graph_transform_rejects_other_flavors(solver_linear, flavor):
    # the center leaf comes from the leaf solver (W^cs cap W^cu), not from a grid
    with pytest.raises(ValueError, match="flavors are s, u, cs, cu"):
        graph_transform(solver_linear, flavor, np.zeros(4))


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
    z = multistart_intersection(solver_small, np.array([0.4, -0.2, 0.3, 0.1]), np.zeros(4),
                                ("u", "cs"), starts=5, seed=3)
    assert z.shape == (4,)


# -- the increment-state sweep against its per-step definition ---------------------


def _per_step_nonlinear_terms(seg, d):
    """g[t] = coords(F^{+-1}(x_t + delta_t) - F^{+-1}(x_t) - A^{+-1} delta_t) for
    the difference orbit d, one difference propagation per time step."""
    s, ch = seg.solver, seg.chain
    out = np.empty((seg.solver.horizon,) + d.shape[1:])
    for t in range(seg.solver.horizon):
        amb = d[t] @ s.embed.T
        chain = ReferenceChain(ch.inverse, tuple(a[t] for a in ch.sources), tuple(a[t] for a in ch.values))
        if seg.direction == "fwd":
            diff, lin = s.f.diff_apply(chain, amb), amb @ s.f.a_float.T
        else:
            diff, lin = s.f.diff_apply_inverse(chain, amb), amb @ s.f.a_inv_float.T
        out[t] = (diff - lin) @ s.coords.T
    return out


def _recurrences(seg, g, v0):
    """The difference orbit, shape (steps + 1, columns, n), with nonlinear terms
    g and driven t = 0 values v0 (block -> (columns, width)), step by step."""
    s = seg.solver
    d = np.zeros((seg.solver.horizon + 1,) + g.shape[1:])
    fwd = seg.direction == "fwd"
    blocks = s.block_matrix_fwd if fwd else s.block_matrix_bwd
    inv_blocks = s.block_matrix_bwd if fwd else s.block_matrix_fwd
    for b in seg.driven:
        idx = s.block_idx[b]
        d[0][:, idx] = v0[b]
        for t in range(seg.solver.horizon):
            d[t + 1][:, idx] = d[t][:, idx] @ blocks[b].T + g[t][:, idx]
    for b in seg.killed:
        idx = s.block_idx[b]
        for t in range(seg.solver.horizon - 1, -1, -1):
            d[t][:, idx] = (d[t + 1][:, idx] - g[t][:, idx]) @ inv_blocks[b].T
    return d


def _per_step_update(seg, d, driven):
    """One sweep from the difference orbit d by the per-step definition;
    returns (new d, killed t=0 values as (columns, width))."""
    s = seg.solver
    v0 = {b: np.broadcast_to(v, seg.batch_shape + (s.block_dim(b),)).reshape(-1, s.block_dim(b))
          for b, v in driven.items()}
    new_d = _recurrences(seg, _per_step_nonlinear_terms(seg, d), v0)
    return new_d, {b: new_d[0][:, s.block_idx[b]] for b in seg.killed}


def _segment_orbit(seg):
    """The difference orbit a segment's state [U; v0] stands for: g[t] is the
    sum over the shears (chain order) of the block coordinates a unit
    increment moves, coords A e_target forward and coords e_target backward,
    times the shear's increment at step t."""
    s = seg.solver
    shears = s.f.shears if seg.direction == "fwd" else s.f.shears[::-1]
    lin = s.f.a_float if seg.direction == "fwd" else np.eye(s.n)
    w = s.coords @ lin[:, [sh.target for sh in shears]]
    rows = len(shears) * seg.solver.horizon
    u = seg.state[:rows].reshape(len(shears), seg.solver.horizon, seg.state.shape[1])
    v0 = {}
    for b in seg.driven:
        v0[b] = seg.state[rows:rows + s.block_dim(b)].T
        rows += s.block_dim(b)
    return _recurrences(seg, np.einsum("is,stc->tci", w, u), v0)


def _adapted(solver, coords):
    """Adapted norm of block coordinates (..., n)."""
    return sum(solver.norm.block_norm(coords[..., solver.block_idx[b]], b) for b in "scu")


def _solver(matrix, amplitude=1e-2):
    a = IntMatrix(SALEM_CONJUGATE) if matrix == "conjugate" else IntMatrix.companion(SALEM)
    split = compute_splitting(a)
    if matrix == "chained":  # a shear reads the coordinate an earlier one moved
        f = chained_shears_map()
    elif matrix == "harmonics":
        f = harmonics_map()
    elif matrix == "shear_free":
        f = PerturbedMap(split.matrix, ())
    else:
        f = salem_example(amplitude, a=split.matrix)
    return LeafSolver(f, split, adapted_norm(split))


# anchor kind -> (batch shape, whether every row shares one anchor)
ANCHORS = {
    "batch": ((9,), False),
    "single": ((9,), True),
    "single_one_row": ((1,), True),
    "scalar": ((), True),
    "grid": ((2, 3), False),
    "grid_single": ((2, 3), True),
}

# direction -> (driven, killed) of a leaf segment and of a center-leaf segment
SPLITS = {
    "fwd": ((("s",), ("c", "u")), (("c", "s"), ("u",))),
    "bwd": ((("u",), ("s", "c")), (("c", "u"), ("s",))),
}


@pytest.mark.parametrize("matrix", ["salem", "conjugate", "chained", "shear_free"])
@pytest.mark.parametrize("direction", ["fwd", "bwd"])
@pytest.mark.parametrize("anchor_kind", list(ANCHORS))
def test_segment_is_exactly_the_per_step_solve(matrix, direction, anchor_kind):
    """Sweep after sweep, with new driven values each time, the increment-state
    sweep agrees to 1e-12 in the adapted norm with the per-step recurrences
    run from the difference orbit its previous state stands for."""
    solver = _solver(matrix)
    rng = np.random.default_rng(13)
    shape, single = ANCHORS[anchor_kind]
    anchor = rng.uniform(-2, 2, size=4 if single else shape + (4,))
    for driven_blocks, killed in SPLITS[direction]:
        seg = _Segment(solver, anchor, direction, shape, driven_blocks, killed)
        for _ in range(3):  # the first sweep starts from d = 0; later ones from a nonzero d
            driven = {b: rng.normal(size=shape + (solver.block_dim(b),)) * 0.5 for b in driven_blocks}
            new_d, out = _per_step_update(seg, _segment_orbit(seg), driven)
            got = seg.update(driven)
            assert np.max(_adapted(solver, _segment_orbit(seg) - new_d)) <= 1e-12
            assert np.max(_adapted(solver, seg.d0().reshape(-1, 4) - new_d[0])) <= 1e-12
            assert got.keys() == out.keys()
            for b in killed:
                assert got[b].shape == shape + (solver.block_dim(b),)
                err = solver.norm.block_norm(got[b].reshape(out[b].shape) - out[b], b)
                assert np.max(err) <= 1e-12
            assert np.any(new_d[1:] != 0)
        if matrix == "shear_free":  # no increments: d = P v0
            assert seg.state.shape[0] == sum(solver.block_dim(b) for b in driven_blocks)
            assert all(np.array_equal(got[b], np.zeros_like(got[b])) for b in killed)


@pytest.mark.parametrize("matrix", ["salem", "shear_free"])
@pytest.mark.parametrize("flavor", list(LEAF_DIRECTION))
def test_driven_blocks_come_back_bit_for_bit(matrix, flavor):
    """A driven block's rows of R are exact identity rows on its v0 columns,
    so d[0] hands the driven values back unrounded: a leaf parameter is
    exactly the parameter asked for."""
    solver = _solver(matrix)
    driven = FLAVOR_BLOCKS[flavor]
    seg = _Segment(solver, np.zeros(4), LEAF_DIRECTION[flavor], (5,), driven, solver.perp_blocks(flavor))
    rng = np.random.default_rng(19)
    values = {b: rng.normal(size=(5, solver.block_dim(b))) for b in driven}
    col = seg.op.shape[0]
    for b in driven:
        width = solver.block_dim(b)
        rows = np.zeros((width, seg.readout.shape[1]))
        rows[:, col:col + width] = np.eye(width)
        assert np.array_equal(seg.readout[solver.block_idx[b]], rows)
        col += width
    for _ in range(2):
        seg.update(values)
        assert all(np.array_equal(seg.d0()[:, solver.block_idx[b]], values[b]) for b in driven)


def _oracle_update(seg, driven):
    d = getattr(seg, "oracle_d", np.zeros((seg.solver.horizon + 1, seg.state.shape[1], seg.solver.n)))
    seg.oracle_d, out = _per_step_update(seg, d, driven)
    return {b: v.reshape(seg.batch_shape + v.shape[-1:]) for b, v in out.items()}


@pytest.mark.parametrize("matrix", ["salem", "conjugate", "chained"])
def test_leaf_solves_match_the_per_step_oracle(monkeypatch, matrix):
    """Leaf points and intersections through the sweep operators agree to
    1e-12 in the adapted norm with the same solves through the per-step
    recurrences."""
    rng = np.random.default_rng(17)
    base = rng.uniform(-1, 1, size=4)
    dims = _solver(matrix).param_indices
    params = {fl: rng.normal(size=(6, len(dims(fl)))) for fl in FLAVORS}
    xs = rng.uniform(-1, 1, size=(5, 4))
    y = rng.uniform(-1, 1, size=4)

    def solves():
        solver = _solver(matrix)
        out = [solver.leaf_points(base, fl, params[fl]) for fl in FLAVORS]
        out += [solver.intersection_batch(xs, y, pair) for pair in (("s", "cu"), ("u", "cs"))]
        out.append(multistart_intersection(solver, xs[0], y, ("s", "cu"), starts=3))
        return solver, out

    solver, fast = solves()
    # legs of every kind ran: driven by fixed parameters (leaves), by the shared
    # state (intersections, from zero and from given starts) or by both (the
    # center leaf), with and without offsets, and each on one of the four
    # leaf segments
    assert {key[:3] for key in solver._sweeps} == {
        (LEAF_DIRECTION[fl], FLAVOR_BLOCKS[fl], solver.perp_blocks(fl)) for fl in LEAF_DIRECTION}
    with monkeypatch.context() as m:
        m.setattr(_Segment, "update", _oracle_update)
        m.setattr(_Segment, "d0", lambda seg: seg.oracle_d[0].reshape(seg.batch_shape + (seg.solver.n,)))
        _, slow = solves()
    for a, b in zip(fast, slow):
        assert a.shape == b.shape
        assert np.max(solver.norm.norm(a - b)) <= 1e-12


def test_single_anchor_is_marched_once_per_solver(monkeypatch):
    solver = _solver("salem")
    marches = []
    march = _Segment._march
    monkeypatch.setattr(_Segment, "_march", lambda seg, r: marches.append(r.shape) or march(seg, r))
    params = np.random.default_rng(3).normal(size=(7, 1)) * 0.05
    first = solver.leaf_points(np.zeros(4), "s", params)
    assert len(solver._anchor_memo) == 1 and marches == [(4,)]
    assert np.array_equal(solver.leaf_points(np.zeros(4), "s", params), first)
    assert len(solver._anchor_memo) == 1 and marches == [(4,)]
    solver.leaf_points(np.zeros(4), "c", np.zeros((2, 2)))  # adds the backward march only
    assert len(solver._anchor_memo) == 2 and len(marches) == 2
    # distinct anchors march as one batch and stay out of the memo
    solver.intersection_batch(np.random.default_rng(4).uniform(size=(3, 4)), np.zeros(4), ("s", "cu"))
    assert len(solver._anchor_memo) == 2 and marches[2:] == [(3, 4)]
    assert _solver("salem")._anchor_memo == {}


@pytest.mark.parametrize("matrix", ["salem", "conjugate", "chained"])
@pytest.mark.parametrize("direction", ["fwd", "bwd"])
@pytest.mark.parametrize("rows", [1, 9])
def test_one_pass_march_is_exactly_the_two_pass_chain(matrix, direction, rows):
    """The march records the same shear sources and values, bit for bit, as
    marching the orbit with F^{+-1} and then passing it through the chain."""
    solver = _solver(matrix)
    r = torus_reduce(np.random.default_rng(8).uniform(-2, 2, size=(rows, 4)))
    seg = _Segment(solver, r, direction, (rows,), ("s",), ("c", "u"))
    got, want = seg._march(r), march_oracle(solver.f, r, direction, solver.horizon)
    assert got.inverse == want.inverse == (direction == "bwd")
    assert len(got.sources) == len(want.sources) == len(solver.f.shears)
    for a, b in zip(got.sources + got.values, want.sources + want.values):
        assert a.shape == b.shape == (solver.horizon, rows)
        assert np.array_equal(a, b)


def test_single_anchor_segment_is_read_only_and_matches_a_batch_march():
    solver = _solver("conjugate")
    rng = np.random.default_rng(5)
    anchor = rng.uniform(-2, 2, size=4)
    blocks = ("u",), ("s", "c")
    seg = _Segment(solver, anchor, "bwd", (9,), *blocks)
    assert not seg.chain.sources[0].flags.writeable
    with pytest.raises(ValueError):
        seg.chain.sources[0][0, 0] = 0.0
    batch = _Segment(solver, anchor, "bwd", (9,), *blocks)
    batch.chain = batch._march(np.broadcast_to(torus_reduce(anchor), (9, 4)).copy())
    driven = {"u": rng.normal(size=(9, solver.dims[2])) * 0.5}
    for _ in range(3):
        got, want = seg.update(driven), batch.update(driven)
        assert np.max(_adapted(solver, _segment_orbit(seg) - _segment_orbit(batch))) <= 1e-12
        assert all(np.max(solver.norm.block_norm(got[b] - want[b], b)) <= 1e-12 for b in "sc")


class _CountingProfile:
    """A shear profile that counts its evaluations."""

    def __init__(self, profile):
        self.profile, self.calls = profile, 0

    def value(self, t):
        self.calls += 1
        return self.profile.value(t)


class _CountingOperator:
    """A sweep operator that counts its products."""

    def __init__(self, op):
        self.op, self.shape, self.calls = op, op.shape, 0

    def __matmul__(self, state):
        self.calls += 1
        return self.op @ state


@pytest.mark.parametrize("flavor", list(LEAF_DIRECTION))
def test_first_sweep_is_linear(flavor):
    """A new segment's state is zero, so its first sweep makes no product and
    no profile call, and reads the killed blocks off [0; v0]; the second
    sweep makes one product and one call per shear."""
    f = salem_example(1e-2)
    profiles = [_CountingProfile(sh.profile) for sh in f.shears]
    f = PerturbedMap(f.matrix, [Shear(sh.target, sh.source, p, sh.amplitude)
                                for sh, p in zip(f.shears, profiles)])
    split = compute_splitting(f.matrix)
    solver = LeafSolver(f, split, adapted_norm(split))
    rng = np.random.default_rng(29)
    driven, killed = FLAVOR_BLOCKS[flavor], solver.perp_blocks(flavor)
    seg = _Segment(solver, rng.uniform(-2, 2, size=(5, 4)), LEAF_DIRECTION[flavor], (5,), driven, killed)
    seg.op = _CountingOperator(seg.op)
    for p in profiles:
        p.calls = 0  # the reference march's calls
    values = {b: rng.normal(size=(5, solver.block_dim(b))) for b in driven}
    got = seg.update(values)
    assert seg.op.calls == 0 and [p.calls for p in profiles] == [0, 0]
    linear = np.zeros_like(seg.state)
    linear[seg.op.shape[0]:] = np.concatenate([values[b] for b in driven], axis=-1).T
    assert np.array_equal(seg.state, linear)
    d0 = linear.T @ seg.readout.T
    assert all(np.array_equal(got[b], d0[:, solver.block_idx[b]]) for b in killed)
    seg.update(values)
    assert seg.op.calls == 1 and [p.calls for p in profiles] == [1, 1]


def test_sweeps_stay_linear_while_the_state_is_zero():
    """Zero driven values on a zero state leave it zero, so the next sweep
    makes no product either; the first nonzero values load it."""
    solver = _solver("salem")
    seg = _Segment(solver, np.random.default_rng(7).uniform(size=(5, 4)), "fwd", (5,), ("s",), ("c", "u"))
    seg.op = _CountingOperator(seg.op)
    for _ in range(2):
        got = seg.update({"s": np.zeros((5, 1))})
        assert seg.op.calls == 0 and not seg.loaded
        assert all(np.array_equal(v, np.zeros_like(v)) for v in got.values())
    seg.update({"s": np.ones((5, 1))})
    assert seg.op.calls == 0 and seg.loaded
    seg.update({"s": np.ones((5, 1))})
    assert seg.op.calls == 1


def _wide_solves(matrix):
    """Leaf points of every flavor, on one base and on a base per row, and
    both intersection pairs, on batches wide enough for tail increments."""
    solver = _solver(matrix)
    rows = manifolds.TAIL_WIDTH + 8
    rng = np.random.default_rng(43)
    base, bases = rng.uniform(-1, 1, size=4), rng.uniform(-1, 1, size=(rows, 4))
    out = []
    for flavor in FLAVORS:
        params = rng.normal(size=(rows, len(solver.param_indices(flavor)))) * 0.5
        out += [solver.leaf_points(base, flavor, params), solver.leaf_points(bases, flavor, params)]
    xs, y = rng.uniform(-1, 1, size=(rows, 4)), rng.uniform(-1, 1, size=4)
    return out + [solver.intersection_batch(xs, y, pair) for pair in (("s", "cu"), ("u", "cs"))]


def _head_only(matrix):
    """_wide_solves with every increment taken as a profile difference."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_Segment, "_tail_start", lambda seg, i, x: len(x))
        return _wide_solves(matrix)


@pytest.mark.parametrize("matrix", ["salem", "harmonics"])
def test_tail_and_head_paths_agree(monkeypatch, matrix):
    """Solves whose s and u legs take tail increments, from one-column
    tables of a shared anchor and from per-row tables, agree to 1e-15 with
    the same solves on the head path alone."""
    tables = set()
    build = _Segment._taylor_table

    def table(seg, i, t0):
        out = build(seg, i, t0)
        tables.add((out.shape[-1] == 1, seg.direction))
        assert seg.tables[i][0] <= t0 and out.shape[1] == seg.solver.horizon - t0
        return out

    with monkeypatch.context() as m:
        m.setattr(_Segment, "_taylor_table", table)
        tail = _wide_solves(matrix)
    assert tables == {(shared, d) for shared in (False, True) for d in ("fwd", "bwd")}
    for a, b in zip(tail, _head_only(matrix)):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-15


def test_a_moving_tail_start_builds_each_table_step_once(monkeypatch):
    """A tail start that moves between sweeps, past the steps built so far
    and then back before them, reads the table's later steps or extends it
    back: each step's coefficients are built once, and the solves still
    agree with the head path alone."""
    start, build, taylor = _Segment._tail_start, _Segment._taylor_table, TrigProfile.taylor
    sweeps, tables, calls = {}, {}, []

    def moving(seg, i, x):  # 3, then 5 steps later than the exact start, then exact
        t0 = start(seg, i, x)
        if t0 == len(x):
            return t0
        k = sweeps[id(seg), i] = sweeps.get((id(seg), i), 0) + 1
        return min(len(x), t0 + {1: 3, 2: 5}.get(k, 0))

    def table(seg, i, t0):
        out = build(seg, i, t0)
        tables[id(seg.tables[i])] = seg.tables[i]
        return out

    with monkeypatch.context() as m:
        m.setattr(_Segment, "_tail_start", moving)
        m.setattr(_Segment, "_taylor_table", table)
        m.setattr(TrigProfile, "taylor", lambda p, t, order: calls.append(len(t)) or taylor(p, t, order))
        tail = _wide_solves("salem")
    h = _solver("salem").horizon
    assert max(sweeps.values()) > 2 and any(first > 0 for first, _ in tables.values())
    assert sum(calls) == sum(h - first for first, _ in tables.values())
    for a, b in zip(tail, _head_only("salem")):
        assert np.max(np.abs(a - b)) <= 1e-15


@pytest.mark.parametrize("matrix", ["salem", "conjugate", "chained"])
@pytest.mark.parametrize("flavor", FLAVORS)
def test_leaf_points_at_zero_parameters_are_the_bases(matrix, flavor):
    solver = _solver(matrix)
    bases = np.random.default_rng(31).uniform(-2, 2, size=(6, 4))
    zero = np.zeros((6, len(solver.param_indices(flavor))))
    assert np.array_equal(solver.leaf_points(bases, flavor, zero), bases)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_empty_batch_leaf_points(solver_small, flavor):
    d = len(solver_small.param_indices(flavor))
    for base in (np.zeros(4), np.zeros((0, 4))):
        assert solver_small.leaf_points(base, flavor, np.zeros((0, d))).shape == (0, 4)
        assert solver_small.leaf_offset(base, flavor, np.zeros((0, d))).shape == (0, 4 - d)


@pytest.mark.parametrize("pair", [("s", "cu"), ("u", "cs")])
def test_empty_batch_intersection(solver_small, pair):
    assert solver_small.intersection_batch(np.zeros((0, 4)), np.zeros(4), pair).shape == (0, 4)


def test_leaf_points_do_not_depend_on_earlier_calls():
    rng = np.random.default_rng(6)
    bases = rng.uniform(-1, 1, size=(2, 4))
    params = rng.normal(size=(5, 2))

    def run(order):
        solver = _solver("conjugate")
        return {i: solver.leaf_points(bases[i], "c", params) for i in order}

    ab, ba = run((0, 1)), run((1, 0))
    assert all(np.array_equal(ab[i], ba[i]) for i in (0, 1))


def test_unconverged_solve_names_sweeps_and_horizon(monkeypatch, salem_split, salem_norm):
    monkeypatch.setattr(manifolds, "MAX_SWEEPS", 2)
    solver = LeafSolver(salem_example(1e-2), salem_split, salem_norm)
    with pytest.raises(NumericsError) as exc:
        solver.leaf_points(np.zeros(4), "s", np.ones((3, 1)))
    msg = str(exc.value)
    assert "\n" not in msg
    assert f"leaf solve (s) after 2 sweeps at horizon {solver.horizon}" in msg
    assert "last change" in msg and "best change" in msg


def test_measure_kappa_matches_one_solve_per_flavor_and_base(solver_small):
    """Each flavor's stacked solve over the four bases gives the graph
    constant of one solve per (flavor, base)."""
    got = measure_kappa(solver_small, radius=1.5, samples=20, seed=9)
    rng = np.random.default_rng(9)
    bases = np.vstack([np.zeros(4), rng.uniform(0, 1, size=(3, 4))])
    for flavor in FLAVORS:
        d = len(solver_small.param_indices(flavor))
        ratios = []
        for b in bases:
            params = rng.uniform(-1, 1, size=(20, d))
            scale = rng.uniform(0.05, 1.0, size=(20, 1)) * 1.5
            params = params / np.maximum(solver_small.param_norm(flavor, params)[:, None], 1e-12) * scale
            ratios.append(solver_small.graph_ratio(flavor, params, solver_small.leaf_offset(b, flavor, params)))
        assert got[flavor] == pytest.approx(max(ratios), rel=1e-9), flavor
    assert got["max"] == max(got[fl] for fl in FLAVORS)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_a_row_walks_the_same_path_alone_or_stacked(monkeypatch, flavor):
    """Each row takes its own number of STEP_CAP steps, so a short row
    stacked with longer ones lands where it lands alone."""
    solver = _solver("conjugate")
    rng = np.random.default_rng(10)
    d = len(solver.param_indices(flavor))
    bases = rng.uniform(-1, 1, size=(4, 4))
    params = rng.normal(size=(4, d))
    params *= (np.array([0.5, 2.0, 4.0, 7.0]) / solver.param_norm(flavor, params))[:, None]
    rows = []
    step = LeafSolver._leaf_step
    with monkeypatch.context() as m:
        m.setattr(LeafSolver, "_leaf_step", lambda self, b, fl, p: rows.append(len(p)) or step(self, b, fl, p))
        stacked = solver.leaf_points(bases, flavor, params)
    assert rows == [4, 3, 2, 1, 1]  # 1, 2, 3 and 5 steps of at most STEP_CAP = 1.5
    for i in range(4):
        alone = solver.leaf_points(bases[i], flavor, params[i:i + 1])
        assert np.max(solver.norm.norm(stacked[i] - alone[0])) <= 1e-12
