"""Invariant manifolds of the perturbed map: leaf evaluation, graph
patches, unique intersections, and the leaf-parameter coordinates.

Leaf points solve the fixed-point equations of the invariant manifolds
in Lyapunov-Perron form: along a finite orbit segment the difference
from the reference orbit is decomposed into spectral blocks, the blocks
tangent to the leaf are driven forward from the prescribed parameters,
and the transversal blocks are recovered by backward sums whose
coefficients contract.  No quantity in the iteration is amplified by
the expanding dynamics, so evaluations stay accurate far from the base
point; differences are propagated with the cancellation-free primitives
of PerturbedMap.  A gridded graph transform (multilinear interpolation
on a regular grid) provides the classical fixed-point construction and
the Lipschitz estimates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.interpolate import RegularGridInterpolator

from .errors import InvariantError, NumericsError
from .perturbed import PerturbedMap, torus_reduce
from .splitting import AdaptedNorm, Splitting

FLAVOR_BLOCKS = {
    "s": ("s",),
    "c": ("c",),
    "u": ("u",),
    "cs": ("c", "s"),
    "cu": ("c", "u"),
    "su": ("s", "u"),
}

BLOCK_ORDER = ("s", "c", "u")

# orbit direction along which a leaf's transversal blocks contract
LEAF_DIRECTION = {"s": "fwd", "cs": "fwd", "u": "bwd", "cu": "bwd"}


class _Segment:
    """One orbit segment (forward or backward) of the Lyapunov-Perron solve.

    Tracks the reduced reference orbit of an anchor and the coordinate-block
    differences D[t] = coords(F^{+-t}(z) - F^{+-t}(anchor)) for a batch of
    points z.
    """

    def __init__(self, solver: "LeafSolver", anchor: np.ndarray, direction: str,
                 steps: int, batch_shape: tuple[int, ...]):
        self.solver = solver
        self.direction = direction
        self.steps = steps
        f = solver.f
        r = torus_reduce(np.broadcast_to(anchor, batch_shape + (solver.n,)))
        self.refs = np.empty((steps + 1,) + r.shape)
        self.refs[0] = r
        for t in range(steps):
            nxt = f.apply(self.refs[t]) if direction == "fwd" else f.apply_inverse(self.refs[t])
            self.refs[t + 1] = torus_reduce(nxt)
        # the reference orbit is fixed, so it passes through the shears once
        self.chain = f.reference_chain(self.refs[:-1], inverse=direction == "bwd")
        self.d = np.zeros((steps + 1,) + batch_shape + (solver.n,))

    def nonlinear_terms(self) -> np.ndarray:
        """g[t] = coords(F^{+-1}(x_t + delta_t) - F^{+-1}(x_t) - A^{+-1} delta_t), all t at once."""
        s = self.solver
        amb = self.d[:-1] @ s.embed.T
        if self.direction == "fwd":
            diff = s.f.diff_apply(self.chain, amb)
            lin = amb @ s.f.a_float.T
        else:
            diff = s.f.diff_apply_inverse(self.chain, amb)
            lin = amb @ s.f.a_inv_float.T
        return (diff - lin) @ s.coords.T

    def update(self, driven: dict[str, np.ndarray], killed: Sequence[str]) -> dict[str, np.ndarray]:
        """One Lyapunov-Perron sweep.

        driven: block -> initial coordinate values at t = 0 (driven forward
        along the segment); killed: blocks recovered by the contracting
        backward sums with zero tail.  Returns the new t = 0 values of the
        killed blocks pinned by the boundary condition.
        """
        s = self.solver
        g = self.nonlinear_terms()
        new_d = np.zeros_like(self.d)
        blocks = s.block_matrix_fwd if self.direction == "fwd" else s.block_matrix_bwd
        inv_blocks = s.block_matrix_bwd if self.direction == "fwd" else s.block_matrix_fwd
        for b, v0 in driven.items():
            g_b, d_b = g[..., s.block_idx[b]], new_d[..., s.block_idx[b]]
            m = blocks[b]
            cur = np.array(v0, copy=True)
            d_b[0] = cur
            for t in range(self.steps):
                cur = cur @ m.T + g_b[t]
                d_b[t + 1] = cur
        out: dict[str, np.ndarray] = {}
        for b in killed:
            g_b, d_b = g[..., s.block_idx[b]], new_d[..., s.block_idx[b]]
            minv = inv_blocks[b]
            cur = np.zeros(g_b.shape[1:])
            for t in range(self.steps - 1, -1, -1):
                cur = (cur - g_b[t]) @ minv.T
                d_b[t] = cur
            out[b] = d_b[0].copy()
        self.d = new_d
        return out


class LeafSolver:
    """Evaluator for the invariant leaves of a perturbed map."""

    def __init__(
        self,
        f: PerturbedMap,
        split: Splitting,
        norm: AdaptedNorm,
        leaf_tol: float = 1e-12,
        fix_tol: float = 1e-12,
        horizon_pad: int = 6,
        max_horizon: int = 400,
        step_cap: float = 1.5,
        max_sweeps: int = 400,
    ):
        if f.matrix != split.matrix:
            raise InvariantError("splitting does not belong to the perturbed map")
        self.f = f
        self.split = split
        self.norm = norm
        self.fix_tol = fix_tol
        self.step_cap = step_cap
        self.max_sweeps = max_sweeps
        ds, dc, du = split.dims
        self.dims = (ds, dc, du)
        n = split.n
        self.n = n
        self.block_idx = {"s": slice(0, ds), "c": slice(ds, ds + dc), "u": slice(ds + dc, n)}
        rate = max(
            norm.lambda_s if ds else 0.0,
            (1.0 / norm.mu_u) if du else 0.0,
        )
        if not 0 < rate < 1:
            raise InvariantError("hyperbolic rates unavailable")
        self.horizon = min(max_horizon, math.ceil(math.log(leaf_tol) / math.log(rate)) + horizon_pad)
        self.embed = split.basis
        self.coords = split.coords
        self.block_matrix_fwd = {"s": split.block_s, "c": split.block_c, "u": split.block_u}
        self.block_matrix_bwd = {
            b: (np.linalg.inv(m) if m.size else m) for b, m in self.block_matrix_fwd.items()
        }

    # -- block helpers -------------------------------------------------------------

    def block_dim(self, b: str) -> int:
        return self.dims[BLOCK_ORDER.index(b)]

    def param_indices(self, flavor: str) -> np.ndarray:
        idx = np.arange(self.n)
        return np.concatenate([idx[self.block_idx[b]] for b in FLAVOR_BLOCKS[flavor]])

    def perp_indices(self, flavor: str) -> np.ndarray:
        idx = np.arange(self.n)
        return np.concatenate([idx[self.block_idx[b]] for b in BLOCK_ORDER
                               if b not in FLAVOR_BLOCKS[flavor]])

    def param_norm(self, flavor: str, params: np.ndarray) -> np.ndarray:
        """Adapted norm of a leaf parameter vector (block coordinates)."""
        params = np.asarray(params, dtype=float)
        out = np.zeros(params.shape[:-1])
        off = 0
        for b in FLAVOR_BLOCKS[flavor]:
            d = self.block_dim(b)
            out = out + self.norm.block_norm(params[..., off:off + d], b)
            off += d
        return out

    def perp_norm(self, flavor: str, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        out = np.zeros(values.shape[:-1])
        off = 0
        for b in BLOCK_ORDER:
            if b in FLAVOR_BLOCKS[flavor]:
                continue
            d = self.block_dim(b)
            out = out + self.norm.block_norm(values[..., off:off + d], b)
            off += d
        return out

    def _split_params(self, flavor: str, params: np.ndarray) -> dict[str, np.ndarray]:
        out = {}
        off = 0
        for b in FLAVOR_BLOCKS[flavor]:
            d = self.block_dim(b)
            out[b] = params[..., off:off + d]
            off += d
        return out

    # -- Lyapunov-Perron fixed point -----------------------------------------------

    def _run_fixed_point(self, sweep, context: str) -> None:
        """Iterate `sweep` until the t=0 state stops moving."""
        prev = None
        best = change = math.inf
        stall = 0
        for it in range(self.max_sweeps):
            state = sweep()
            if prev is not None:
                change = float(np.max(np.abs(state - prev)))
                if change <= self.fix_tol:
                    return
                if change < best * 0.9:
                    best = change
                    stall = 0
                else:
                    stall += 1
                if it >= 8 and stall >= 6 and change <= 1e4 * self.fix_tol:
                    return  # noise floor
                if it >= 12 and change > 1e3 and change > best * 1e3:
                    break
            prev = state
        raise NumericsError(f"fixed-point iteration did not converge in {context} "
                            f"(last change {change:.2e}, best change {best:.2e}); "
                            "the perturbation may be too large")

    def _leaf_step(self, bases: np.ndarray, flavor: str, params: np.ndarray) -> np.ndarray:
        """Points on W^flavor(base) at the given (small) parameters."""
        shape = params.shape[:-1]
        driven = self._split_params(flavor, params)
        if flavor in LEAF_DIRECTION:
            seg = _Segment(self, bases, LEAF_DIRECTION[flavor], self.horizon, shape)
            killed = [b for b in BLOCK_ORDER if b not in FLAVOR_BLOCKS[flavor]]

            def sweep():
                out = seg.update(driven, killed)
                return np.concatenate([out[b] for b in killed], axis=-1)

            self._run_fixed_point(sweep, f"leaf solve ({flavor})")
            return bases + seg.d[0] @ self.embed.T
        if flavor == "c":
            segf = _Segment(self, bases, "fwd", self.horizon, shape)
            segb = _Segment(self, bases, "bwd", self.horizon, shape)
            ds, _, du = self.dims
            state = {"s": np.zeros(shape + (ds,)), "u": np.zeros(shape + (du,))}

            def sweep():
                outf = segf.update({"c": driven["c"], "s": state["s"]}, ["u"])
                state["u"] = outf["u"]
                outb = segb.update({"c": driven["c"], "u": state["u"]}, ["s"])
                state["s"] = outb["s"]
                return np.concatenate([state["s"], state["u"]], axis=-1)

            self._run_fixed_point(sweep, "leaf solve (c)")
            d0 = np.zeros(shape + (self.n,))
            d0[..., self.block_idx["c"]] = driven["c"]
            d0[..., self.block_idx["s"]] = state["s"]
            d0[..., self.block_idx["u"]] = state["u"]
            return bases + d0 @ self.embed.T
        raise ValueError(f"no leaf of flavor {flavor!r}")

    # -- leaf points ------------------------------------------------------------------

    def leaf_points(self, base: np.ndarray, flavor: str, params: np.ndarray) -> np.ndarray:
        """sigma^flavor(base, params): batched leaf evaluation with marching.

        base: (n,), or one row per parameter row; params: (..., d_flavor).
        Far parameters are reached by walking the leaf in adapted-norm steps
        of at most ``step_cap``; the walked parameter is additive because
        graph offsets are orthogonal to the parameter block.
        """
        base = np.asarray(base, dtype=float)
        params = np.asarray(params, dtype=float)
        shape = params.shape[:-1]
        bases = np.broadcast_to(base, shape + (self.n,)).astype(float).copy()
        if len(self.perp_indices(flavor)) == 0:
            return bases + params @ self.embed[:, self.param_indices(flavor)].T
        norms = self.param_norm(flavor, params)
        steps = max(1, int(np.ceil(np.max(norms) / self.step_cap))) if norms.size else 1
        inc = params / steps
        cur = bases
        for _ in range(steps):
            cur = self._leaf_step(cur, flavor, inc)
        return cur

    def leaf_offset(self, base: np.ndarray, flavor: str, params: np.ndarray) -> np.ndarray:
        """Graph value g^flavor(base, params) in perpendicular coordinates."""
        pts = self.leaf_points(base, flavor, params)
        delta = pts - np.broadcast_to(np.asarray(base, dtype=float), pts.shape)
        return (delta @ self.coords.T)[..., self.perp_indices(flavor)]

    # -- unique intersections ------------------------------------------------------------

    def _intersect_core(
        self,
        xs: np.ndarray,
        y: np.ndarray,
        pair: tuple[str, str],
        init: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Batched W^a(x_i) cap W^b(y); xs has shape (B, n), y is one point.

        z in W^a(x): the segment rel x along which W^a is transversally
        contracting is driven by block a and kills the other two blocks;
        z in W^b(y): the segment rel y is driven by those two and kills a.
        """
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        y = np.asarray(y, dtype=float)
        shape = xs.shape[:-1]
        shift = (xs - y) @ self.coords.T  # coords of x - y, per row
        drive = pair[0]
        kill_x = [b for b in BLOCK_ORDER if b != drive]
        seg_x = _Segment(self, xs, LEAF_DIRECTION[drive], self.horizon, shape)
        seg_y = _Segment(self, y, LEAF_DIRECTION[pair[1]], self.horizon, shape)
        state = np.zeros(shape + (self.block_dim(drive),)) if init is None else np.array(init, copy=True)

        def sweep():
            out_x = seg_x.update({drive: state}, kill_x)
            driven_y = {b: out_x[b] + shift[..., self.block_idx[b]] for b in kill_x}
            out_y = seg_y.update(driven_y, [drive])
            state[...] = out_y[drive] - shift[..., self.block_idx[drive]]
            return np.concatenate([state] + [driven_y[b] for b in kill_x], axis=-1)

        self._run_fixed_point(sweep, f"intersection {pair}")
        return xs + seg_x.d[0] @ self.embed.T

    def intersection(
        self,
        x: np.ndarray,
        y: np.ndarray,
        pair: tuple[str, str] = ("s", "cu"),
        starts: int = 1,
        start_scale: float = 0.5,
        seed: int = 0,
        agreement_tol: float = 1e-8,
    ) -> np.ndarray:
        """The unique point of W^a(x) cap W^b(y) for pair (a, b) in
        {(s, cu), (u, cs)}.

        With starts > 1 the fixed point is recomputed from randomly
        perturbed initial states, which must agree within agreement_tol.
        """
        if pair not in (("s", "cu"), ("u", "cs")):
            raise ValueError("intersection pair must be (s, cu) or (u, cs)")
        x = np.asarray(x, dtype=float)
        d_drive = self.block_dim(pair[0])
        init = np.zeros((starts, d_drive))
        if starts > 1:
            rng = np.random.default_rng(seed)
            init[1:] = start_scale * rng.standard_normal((starts - 1, d_drive))
        xs = np.broadcast_to(x, (starts, self.n))
        z = self._intersect_core(xs, y, pair, init=init)
        if starts > 1:
            spread = np.max(np.abs(z - z[0]))
            if spread > agreement_tol:
                raise NumericsError(
                    f"multi-start intersection disagrees by {spread:.2e} "
                    "(reduce the perturbation or enlarge patches)"
                )
        return z[0]

    def intersection_batch(self, xs: np.ndarray, y: np.ndarray, pair: tuple[str, str]) -> np.ndarray:
        """Batched unique intersections W^a(x_i) cap W^b(y)."""
        if pair not in (("s", "cu"), ("u", "cs")):
            raise ValueError("intersection pair must be (s, cu) or (u, cs)")
        return self._intersect_core(xs, y, pair)

    # -- projections and leaf-parameter coordinates ------------------------------------------

    def su_projection_to_center(self, z: np.ndarray, residual_tol: float = 1e-8) -> np.ndarray:
        """Slide z along its unstable then stable leaf onto W^c(0)."""
        zero = np.zeros(self.n)
        w = self.intersection(z, zero, ("u", "cs"))
        out = self.intersection(w, zero, ("s", "cu"))
        resid = self.center_leaf_residual(out)
        if resid > residual_tol:
            raise NumericsError(f"projection left the center leaf (residual {resid:.2e})")
        return out

    def center_leaf_residual(self, p: np.ndarray) -> float:
        """Distance of p from W^c(0), via re-evaluating the leaf at p's chart."""
        on_leaf = self.center_point(self.center_chart(p)[None, :])[0]
        return float(np.max(np.abs(on_leaf - p)))

    def center_chart(self, p: np.ndarray) -> np.ndarray:
        """Chart coordinates on W^c(0): the center block coordinates."""
        return (np.asarray(p, dtype=float) @ self.coords.T)[..., self.block_idx["c"]]

    def center_point(self, chart: np.ndarray) -> np.ndarray:
        """sigma^c_0(chart): the point of W^c(0) with the given chart value."""
        chart = np.asarray(chart, dtype=float)
        return self.leaf_points(np.zeros(self.n), "c", chart)

    def from_leaf_params(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Phi_x(v): walk center, then stable, then unstable by the blocks of v."""
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        vcoords = v @ self.coords.T
        vc = vcoords[..., self.block_idx["c"]]
        vs = vcoords[..., self.block_idx["s"]]
        vu = vcoords[..., self.block_idx["u"]]
        p = self.leaf_points(x, "c", vc)
        p = self.leaf_points(p, "s", vs)
        return self.leaf_points(p, "u", vu)

    def to_leaf_params(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Phi_x^{-1}(y): peel the unstable, stable, then center parameters."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        w = self.intersection(y, x, ("u", "cs"))
        vu = ((y - w) @ self.coords.T)[..., self.block_idx["u"]]
        q = self.intersection(w, x, ("s", "cu"))
        vs = ((w - q) @ self.coords.T)[..., self.block_idx["s"]]
        vc = ((q - x) @ self.coords.T)[..., self.block_idx["c"]]
        return vc, vs, vu

    def to_leaf_params_batch(self, x: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched Phi_x^{-1} over rows of ys."""
        x = np.asarray(x, dtype=float)
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        w = self.intersection_batch(ys, x, ("u", "cs"))
        vu = ((ys - w) @ self.coords.T)[..., self.block_idx["u"]]
        q = self.intersection_batch(w, x, ("s", "cu"))
        vs = ((w - q) @ self.coords.T)[..., self.block_idx["s"]]
        vc = ((q - x) @ self.coords.T)[..., self.block_idx["c"]]
        return vc, vs, vu


# -- gridded graph transform ------------------------------------------------------


@dataclass
class GraphPatch:
    """Sampled graph of an invariant leaf over its tangent block.

    Parameters are block coordinates on a regular grid cube; values are
    the perpendicular block coordinates of the graph.
    """

    flavor: str
    base: np.ndarray
    rho: float
    axes: tuple[np.ndarray, ...]
    values: np.ndarray            # grid shape + (d_perp,)
    kappa_emp: float
    param_idx: np.ndarray
    perp_idx: np.ndarray
    embed: np.ndarray
    _interp: Optional[RegularGridInterpolator] = None

    def interpolator(self) -> RegularGridInterpolator:
        if self._interp is None:
            self._interp = RegularGridInterpolator(
                self.axes, self.values, method="linear", bounds_error=False, fill_value=None
            )
        return self._interp

    def offset(self, params: np.ndarray) -> np.ndarray:
        return self.interpolator()(np.asarray(params, dtype=float))

    def point(self, params: np.ndarray) -> np.ndarray:
        params = np.asarray(params, dtype=float)
        return (
            self.base
            + params @ self.embed[:, self.param_idx].T
            + self.offset(params) @ self.embed[:, self.perp_idx].T
        )


def _grid_axes(half_width: float, step: float, dim: int) -> tuple[np.ndarray, ...]:
    m = max(1, int(math.ceil(half_width / step)))
    ax = np.arange(-m, m + 1) * step
    return tuple(ax for _ in range(dim))


def _grid_nodes(axes: Sequence[np.ndarray]) -> np.ndarray:
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def graph_transform(
    f_or_solver,
    flavor: str,
    x: np.ndarray,
    rho: float = 2.0,
    tol: float = 1e-9,
    grid_step: float = 1.0 / 32.0,
    margin: float = 1.25,
    max_retries: int = 3,
    split: Optional[Splitting] = None,
    norm: Optional[AdaptedNorm] = None,
) -> GraphPatch:
    """Invariant-manifold graph over the flavor block, by the graph transform.

    Starting from the zero graph at a far point of the orbit, the graph is
    pulled back (flavors s, cs) or pushed forward (u, cu) along the orbit
    of x until the depth guarantees a fixed-point error below tol; the
    center patch is the fixed point of the cs/cu graph intersection.  The
    invariance residual is verified on a node sample; if it exceeds 10*tol
    the depth is doubled, and after max_retries the budget error is raised.
    """
    solver = _as_solver(f_or_solver, split, norm)
    if flavor == "c":
        return _center_patch(solver, x, rho, tol, grid_step, margin)
    if flavor not in ("s", "u", "cs", "cu"):
        raise ValueError(f"graph transform flavors are s, u, c, cs, cu; got {flavor!r}")

    contraction = _transversal_rate(solver, flavor)
    if not contraction < 1:
        raise NumericsError("graph transform contraction factor >= 1")
    depth = max(4, int(math.ceil(math.log(tol) / math.log(contraction))) + 4)

    resid = math.inf
    threshold = 10 * tol
    for _attempt in range(max_retries + 1):
        patch = _transform_patch(solver, flavor, np.asarray(x, dtype=float), rho, grid_step, margin, depth)
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


def _as_solver(f_or_solver, split, norm) -> LeafSolver:
    if isinstance(f_or_solver, LeafSolver):
        return f_or_solver
    if split is None or norm is None:
        raise ValueError("pass a LeafSolver, or a PerturbedMap with split= and norm=")
    return LeafSolver(f_or_solver, split, norm)


def _transversal_rate(solver: LeafSolver, flavor: str) -> float:
    lam, mu = solver.norm.lambda_s, solver.norm.mu_u
    return {"s": lam, "cs": 1.0 / mu, "u": 1.0 / mu, "cu": lam}[flavor]


def _cube_half_width(solver: LeafSolver, flavor: str, rho: float) -> float:
    # the coordinate cube must cover the adapted ball of radius rho
    scale = 1.0
    for b in FLAVOR_BLOCKS[flavor]:
        gram = {"s": solver.norm.gram_s, "c": solver.norm.gram_c, "u": solver.norm.gram_u}[b]
        if gram.shape[0]:
            w = np.linalg.eigvalsh(gram)
            scale = max(scale, 1.0 / math.sqrt(float(w[0])))
    return rho * scale


def _transform_patch(solver, flavor, x, rho, grid_step, margin, depth) -> GraphPatch:
    p_idx = solver.param_indices(flavor)
    q_idx = solver.perp_indices(flavor)
    e_p = solver.embed[:, p_idx]
    e_q = solver.embed[:, q_idx]
    half = _cube_half_width(solver, flavor, rho) * margin
    axes = _grid_axes(half, grid_step, len(p_idx))
    nodes = _grid_nodes(axes)
    grid_shape = tuple(len(a) for a in axes)

    forward = flavor in ("u", "cu")
    # orbit of base points: pullback needs the patch at F(y), pushforward at F^{-1}(y)
    orbit = [np.asarray(x, dtype=float)]
    for _ in range(depth):
        orbit.append(solver.f.apply(orbit[-1]) if not forward else solver.f.apply_inverse(orbit[-1]))
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
            img = solver.f.apply_inverse(pts) if not forward else solver.f.apply(pts)
            cur = ((img - y) @ solver.coords.T)[:, p_idx]
            err = cur - target
            if np.max(np.abs(err)) <= 1e-12:
                break
            w = w - err @ a_param.T
        pts = graph_point(w)
        img = solver.f.apply_inverse(pts) if not forward else solver.f.apply(pts)
        new_vals = ((img - y) @ solver.coords.T)[:, q_idx]
        values = new_vals.reshape(grid_shape + (len(q_idx),))

    # pin the base node exactly
    center = tuple(len(a) // 2 for a in axes)
    if np.max(np.abs(values[center])) > 1e-7:
        raise NumericsError("graph transform origin offset did not vanish")
    values[center] = 0.0
    kappa = _kappa_from_grid(solver, flavor, nodes, values.reshape(-1, len(q_idx)))
    return GraphPatch(
        flavor=flavor,
        base=np.asarray(x, dtype=float),
        rho=rho,
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


def _kappa_from_grid(solver, flavor, nodes, values) -> float:
    pn = solver.param_norm(flavor, nodes)
    vn = solver.perp_norm(flavor, values)
    mask = pn > 1e-9
    return float(np.max(vn[mask] / pn[mask])) if np.any(mask) else 0.0


def _center_patch(solver, x, rho, tol, grid_step, margin) -> GraphPatch:
    """Center patch as the fixed point of the cs/cu graph intersection."""
    cs = graph_transform(solver, "cs", x, rho + 1.0, tol, grid_step, margin)
    cu = graph_transform(solver, "cu", x, rho + 1.0, tol, grid_step, margin)
    ds, dc, du = solver.dims
    half = _cube_half_width(solver, "c", rho) * margin
    axes = _grid_axes(half, grid_step, dc)
    nodes = _grid_nodes(axes)
    grid_shape = tuple(len(a) for a in axes)
    ps = np.zeros((len(nodes), ds))
    pu = np.zeros((len(nodes), du))
    for _ in range(200):
        # cs-parameters are ordered (c, s); cu-parameters (c, u)
        pu_new = cs.offset(np.concatenate([nodes, ps], axis=1))
        ps_new = cu.offset(np.concatenate([nodes, pu], axis=1))
        change = max(np.max(np.abs(pu_new - pu)), np.max(np.abs(ps_new - ps)))
        ps, pu = ps_new, pu_new
        if change <= tol:
            break
    else:
        raise NumericsError("center patch fixed point did not converge")
    values = np.concatenate([ps, pu], axis=1).reshape(grid_shape + (ds + du,))
    center = tuple(len(a) // 2 for a in axes)
    values[center] = 0.0
    kappa = _kappa_from_grid(solver, "c", nodes, values.reshape(-1, ds + du))
    return GraphPatch(
        flavor="c",
        base=np.asarray(x, dtype=float),
        rho=rho,
        axes=axes,
        values=values,
        kappa_emp=kappa,
        param_idx=solver.param_indices("c"),
        perp_idx=solver.perp_indices("c"),
        embed=solver.embed,
    )


def _invariance_residual(solver: LeafSolver, patch: GraphPatch, sample: int, seed: int) -> float:
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


def measure_kappa(
    solver: LeafSolver,
    radius: float,
    samples: int = 160,
    seed: int = 5,
    bases: Optional[np.ndarray] = None,
    flavors: Sequence[str] = ("s", "u", "c", "cs", "cu"),
) -> dict:
    """Empirical Lipschitz constant sup |g(v)| / |v| per flavor (and overall)."""
    rng = np.random.default_rng(seed)
    if bases is None:
        bases = np.vstack([np.zeros(solver.n), rng.uniform(0, 1, size=(3, solver.n))])
    out = {}
    for flavor in flavors:
        d = len(solver.param_indices(flavor))
        if d == 0 or len(solver.perp_indices(flavor)) == 0:
            out[flavor] = 0.0
            continue
        worst = 0.0
        for b in bases:
            params = rng.uniform(-1, 1, size=(samples, d))
            scale = rng.uniform(0.05, 1.0, size=(samples, 1)) * radius
            pn = solver.param_norm(flavor, params)[:, None]
            params = params / np.maximum(pn, 1e-12) * scale
            offs = solver.leaf_offset(b, flavor, params)
            vn = solver.perp_norm(flavor, offs)
            worst = max(worst, float(np.max(vn / solver.param_norm(flavor, params))))
        out[flavor] = worst
    out["max"] = max(v for k, v in out.items() if k != "max") if out else 0.0
    return out
