"""Invariant manifolds of the perturbed map: leaf evaluation, unique
intersections, and the leaf-parameter coordinates.

Leaf points solve the fixed-point equations of the invariant manifolds
in Lyapunov-Perron form: along a finite orbit segment the difference
from the reference orbit is decomposed into spectral blocks, the blocks
tangent to the leaf are driven forward from the prescribed parameters,
and the transversal blocks are recovered by backward sums whose
coefficients contract.  No quantity in the iteration is amplified by
the expanding dynamics, so evaluations stay accurate far from the base
point.  Every solve is a list of such segments (legs) coupled through
their t = 0 blocks: a leaf of flavor s, u, cs or cu is one leg, the
center leaf of a point is W^cs cap W^cu of that point (two legs with the
c block prescribed), and an intersection W^a(x) cap W^b(y) is a leg at x
and a leg at y whose t = 0 differences are offset by x - y.  The
nonlinear part of the map is a chain of S shears, so a leg's state is the
S shear increments per time step rather than the difference orbit: one
product per sweep, by an operator built once from the segment's own
recurrences, gives every shear's source difference, and each increment is
formed directly as a difference of profile values, with no large-coordinate
cancellation.  On s and u legs the source difference contracts along the
segment, and once it is small enough the profile's Taylor polynomial about
the reference source gives the increment exactly to rounding: on wide
batches those tail increments come from a table of coefficients built once
per segment, by Horner, with no sin or cos per sweep.
"""
from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .errors import InvariantError, NumericsError
from .perturbed import PerturbedMap, ReferenceChain, torus_reduce
from .splitting import AdaptedNorm, Splitting

FLAVOR_BLOCKS = {
    "s": ("s",),
    "c": ("c",),
    "u": ("u",),
    "cs": ("c", "s"),
    "cu": ("c", "u"),
}

BLOCK_ORDER = ("s", "c", "u")

# orbit direction along which a leaf's transversal blocks contract
LEAF_DIRECTION = {"s": "fwd", "cs": "fwd", "u": "bwd", "cu": "bwd"}

# Leaf solver settings: a segment is long enough that the slowest transversal
# rate brings a unit offset below LEAF_TOL, plus HORIZON_PAD steps, and at most
# MAX_HORIZON steps; a solve stops when no coupled block moves by more than
# FIX_TOL in a sweep, or fails after MAX_SWEEPS sweeps; far parameters are
# walked in adapted-norm steps of at most STEP_CAP.
LEAF_TOL = 1e-12
FIX_TOL = 1e-12
HORIZON_PAD = 6
MAX_HORIZON = 400
MAX_SWEEPS = 400
STEP_CAP = 1.5

# Tail increments: a segment whose batch has at least TAIL_WIDTH columns
# forms the increments of the steps from which every source difference lies
# within its profile's Taylor radius as the order-TAIL_ORDER Taylor polynomial
# about the reference source, from a table of coefficients built once.
# Narrower batches keep the profile differences, since per-call overhead
# outweighs what the table saves there.
TAIL_ORDER = 4
TAIL_WIDTH = 256


class _Segment:
    """One orbit segment (forward or backward) of the Lyapunov-Perron solve.

    For a batch of points z near an anchor, the block-coordinate difference
    d[t] = coords(F^{+-t}(z) - F^{+-t}(anchor)) obeys d[t+1] = M d[t] + g[t]
    per spectral block, and g[t] is the sum over the S shears of a fixed
    direction times the shear's increment u_s[t].  So the state is the S*H
    increments U and the driven t = 0 values v0, one column per batch row,
    and d itself is never formed: a sweep maps the previous state to every
    shear's source difference with one product, evaluates the S profiles in
    chain order, and reads d[0] off the new state; the product's operator is
    the recurrence run once on the identity state (LeafSolver.sweep_operator).
    A new segment's state is zero, so its sweeps are linear until a driven
    value is nonzero: every increment is exactly zero, and the sweep makes no
    product and no profile call, only loading v0 and reading d[0] off it.  The
    reference chain of an anchor shared by every row is marched once per
    solver and broadcast over the batch.

    On a batch of at least TAIL_WIDTH columns, each shear's H steps split in
    two.  The head, up to the first step from which every row's source
    difference x lies within the profile's Taylor radius, takes profile
    differences as above.  The tail takes sum_k c_k x^k, k <= TAIL_ORDER, by
    Horner, from a table of c_k = value^(k)(source) / k! (times the signed
    amplitude); its remainder is below the rounding of the difference it
    replaces, and it has no cancellation.  The table of a shared anchor has
    one column and is kept per memo key.  Either table is filled back from
    the horizon only as far as the tail has reached, so each step's
    coefficients are built once and only where they are read.
    """

    def __init__(self, solver: "LeafSolver", anchor: np.ndarray, direction: str,
                 batch_shape: tuple[int, ...], driven: Sequence[str], killed: Sequence[str]):
        self.solver = solver
        self.direction = direction
        self.batch_shape = batch_shape
        self.driven, self.killed = tuple(driven), tuple(killed)
        n = solver.n
        rows = torus_reduce(np.broadcast_to(anchor, batch_shape + (n,))).reshape(-1, n)
        shears = solver.chain_shears(direction)
        # self.tables, per shear: [first step built, tail table] or None (see _taylor_table)
        if len(rows) and np.all(rows == rows[0]):
            key = (rows[0].tobytes(), direction)
            if key not in solver._anchor_memo:
                chain = self._march(rows[0])
                for a in (*chain.sources, *chain.values):
                    a.setflags(write=False)  # shared by every later segment on this key
                solver._anchor_memo[key] = chain
                solver._taylor_memo[key] = [None] * len(shears)
            chain = solver._anchor_memo[key]
            self.tables = solver._taylor_memo[key]
        else:
            chain = self._march(rows)
            self.tables = [None] * len(shears)
        # reference sources and values as (step, column), broadcast over the batch columns
        h = solver.horizon
        self.chain = ReferenceChain(chain.inverse, tuple(a.reshape(h, -1) for a in chain.sources),
                                    tuple(a.reshape(h, -1) for a in chain.values))
        self.op, self.readout = solver.sweep_operator(direction, self.driven, self.killed)
        self.state = np.zeros((self.op.shape[1], len(rows)))  # [U; v0], U rows (shear, step)
        self.loaded = False  # whether the state is nonzero
        # per shear: the Taylor radius, or None on a batch too narrow for the tail
        self.radii = [sh.profile.taylor_radius(TAIL_ORDER) if len(rows) >= TAIL_WIDTH else None
                      for sh in shears]

    def _march(self, r: np.ndarray) -> ReferenceChain:
        """The shear chain along the reference orbit of the reduced points r,
        in one pass: each step records every shear's source and profile value
        as it applies the shear, then reduces the image mod 1."""
        f = self.solver.f
        fwd = self.direction == "fwd"
        shears = self.solver.chain_shears(self.direction)
        sign = 1.0 if fwd else -1.0
        sources = np.empty((len(shears), self.solver.horizon) + r.shape[:-1])
        values = np.empty_like(sources)
        x = np.array(r, dtype=float)
        whole = np.empty_like(x)
        for t in range(self.solver.horizon):
            if not fwd:  # F^-1 = (shear chain)^-1 o A^-1
                x = x @ f.a_inv_float.T
            for i, sh in enumerate(shears):
                sources[i, t] = x[..., sh.source]
                values[i, t] = sh.profile.value(sources[i, t])
                x[..., sh.target] += sign * sh.amplitude * values[i, t]
            if fwd:
                x = x @ f.a_float.T
            x -= np.floor(x, out=whole)  # x mod 1, as torus_reduce takes it
        return ReferenceChain(not fwd, tuple(sources), tuple(values))

    def update(self, driven: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """One Lyapunov-Perron sweep.

        driven: block -> this sweep's t = 0 values of the driven blocks.  The
        source differences come from the previous sweep's increments and
        driven values, as that sweep's difference orbit would give them; the
        killed blocks are the contracting backward sums with zero tail.  The
        tail start is chosen per shear and sweep from the whole batch.
        Returns the killed blocks' new t = 0 values.
        """
        s, h = self.solver, self.solver.horizon
        u = self.state[:self.op.shape[0]]
        if self.loaded:  # else the state is zero, and so is every increment
            x = self.op @ self.state
            shears = s.chain_shears(self.direction)
            sign = 1.0 if self.direction == "fwd" else -1.0
            for i, (sh, rs, val) in enumerate(zip(shears, self.chain.sources, self.chain.values)):
                xi = x[i * h:(i + 1) * h]
                for j in range(i):  # earlier shears of the chain moved this one's source
                    if shears[j].target == sh.source:
                        xi += u[j * h:(j + 1) * h]
                ui = u[i * h:(i + 1) * h]
                t0 = h if self.radii[i] is None else self._tail_start(i, xi)
                if t0:
                    head = xi[:t0]
                    head += rs[:t0]
                    inc = sh.profile.value(head)
                    inc -= val[:t0]
                    np.multiply(sign * sh.amplitude, inc, out=ui[:t0])
                if t0 < h:  # sum_k coeffs[k-1] x^k by Horner
                    coeffs, x_tail, out = self._taylor_table(i, t0), xi[t0:], ui[t0:]
                    np.multiply(coeffs[-1], x_tail, out=out)
                    for a in coeffs[-2::-1]:
                        out += a
                        out *= x_tail
        row = len(u)
        for b in self.driven:
            width = s.block_dim(b)
            v0 = np.broadcast_to(driven[b], self.batch_shape + (width,))
            self.state[row:row + width] = v0.reshape(-1, width).T
            row += width
        self.loaded = self.loaded or bool(np.any(self.state[len(u):]))
        d0 = self.d0()
        return {b: d0[..., s.block_idx[b]] for b in self.killed}

    def _tail_start(self, i: int, x: np.ndarray) -> int:
        """The first step from which every row's source difference x for
        shear i lies within the profile's Taylor radius; the horizon if the
        last step's does not."""
        size = np.maximum.reduce(np.abs(x), axis=1).tolist()
        t0 = len(size)
        while t0 and size[t0 - 1] <= self.radii[i]:
            t0 -= 1
        return t0

    def _taylor_table(self, i: int, t0: int) -> np.ndarray:
        """Shear i's tail coefficients at steps t0 onward, scaled by its signed
        amplitude: (TAIL_ORDER, H - t0, columns).  The table spans the horizon
        but is filled only back to the earliest tail start so far, in blocks
        as long as the steps already built (one step first), so that the
        profile's temporaries stay within the size of the table held.  An
        anchor shared by every row has a one-column table per memo key."""
        sh = self.solver.chain_shears(self.direction)[i]
        rs = self.chain.sources[i]
        if self.tables[i] is None:
            self.tables[i] = [len(rs), np.empty((TAIL_ORDER,) + rs.shape)]
        first, table = self.tables[i]
        scale = (1.0 if self.direction == "fwd" else -1.0) * sh.amplitude
        while t0 < first:
            lo = max(t0, first - max(1, len(rs) - first))
            np.multiply(sh.profile.taylor(rs[lo:first], TAIL_ORDER), scale, out=table[:, lo:first])
            first = self.tables[i][0] = lo
        return table[:, t0:]

    def d0(self) -> np.ndarray:
        """d[0] of the last sweep, shape batch + (n,)."""
        return (self.state.T @ self.readout.T).reshape(self.batch_shape + (self.solver.n,))


class LeafSolver:
    """Evaluator for the invariant leaves of a perturbed map."""

    def __init__(
        self,
        f: PerturbedMap,
        split: Splitting,
        norm: AdaptedNorm,
    ):
        if f.matrix != split.matrix:
            raise InvariantError("splitting does not belong to the perturbed map")
        self.f = f
        self.split = split
        self.norm = norm
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
        self.horizon = min(MAX_HORIZON, math.ceil(math.log(LEAF_TOL) / math.log(rate)) + HORIZON_PAD)
        self.embed = split.basis
        self.coords = split.coords
        self.block_matrix_fwd = {"s": split.block_s, "c": split.block_c, "u": split.block_u}
        self.block_matrix_bwd = {
            b: (np.linalg.inv(m) if m.size else m) for b, m in self.block_matrix_fwd.items()
        }
        # (direction, driven blocks, killed blocks) -> sweep operator and readout
        self._sweeps: dict = {}
        # (reduced anchor bytes, direction) -> one-row reference chain
        self._anchor_memo: dict = {}
        # the same key -> per shear of the chain, its one-column tail table (see _Segment)
        self._taylor_memo: dict = {}

    # -- block helpers -------------------------------------------------------------

    def block_dim(self, b: str) -> int:
        return self.dims[BLOCK_ORDER.index(b)]

    def perp_blocks(self, flavor: str) -> tuple[str, ...]:
        """The blocks transversal to a leaf of this flavor, in block order."""
        return tuple(b for b in BLOCK_ORDER if b not in FLAVOR_BLOCKS[flavor])

    def param_indices(self, flavor: str) -> np.ndarray:
        idx = np.arange(self.n)
        return np.concatenate([idx[self.block_idx[b]] for b in FLAVOR_BLOCKS[flavor]])

    def perp_indices(self, flavor: str) -> np.ndarray:
        idx = np.arange(self.n)
        return np.concatenate([idx[self.block_idx[b]] for b in self.perp_blocks(flavor)])

    def _block_slices(self, blocks: Sequence[str], values: np.ndarray) -> dict[str, np.ndarray]:
        """values (..., sum of widths) cut into the given blocks, in order."""
        out = {}
        off = 0
        for b in blocks:
            d = self.block_dim(b)
            out[b] = values[..., off:off + d]
            off += d
        return out

    def _blocks_norm(self, blocks: Sequence[str], values: np.ndarray) -> np.ndarray:
        """Sum of the adapted block norms of values laid out in the given blocks."""
        values = np.asarray(values, dtype=float)
        out = np.zeros(values.shape[:-1])
        for b, v in self._block_slices(blocks, values).items():
            out = out + self.norm.block_norm(v, b)
        return out

    def param_norm(self, flavor: str, params: np.ndarray) -> np.ndarray:
        """Adapted norm of a leaf parameter vector (block coordinates)."""
        return self._blocks_norm(FLAVOR_BLOCKS[flavor], params)

    def perp_norm(self, flavor: str, values: np.ndarray) -> np.ndarray:
        return self._blocks_norm(self.perp_blocks(flavor), values)

    def graph_ratio(self, flavor: str, params: np.ndarray, offsets: np.ndarray) -> float:
        """Empirical graph constant: the largest |offset| / |param| over the
        rows whose parameter is not negligible (0 if there is none)."""
        pn = self.param_norm(flavor, params)
        vn = self.perp_norm(flavor, offsets)
        mask = pn > 1e-9
        return float(np.max(vn[mask] / pn[mask])) if np.any(mask) else 0.0

    def chain_shears(self, direction: str) -> tuple:
        """The shears in the order F (fwd) or F^-1 (bwd) applies them."""
        return self.f.shears if direction == "fwd" else self.f.shears[::-1]

    def sweep_operator(self, direction: str, driven: Sequence[str],
                       killed: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """(G, R) of a segment whose `driven` blocks are driven and `killed` killed.

        With the shears in chain order, F^{+-1}(x + delta) - F^{+-1}(x) -
        A^{+-1} delta = sum_s e_target(s) u_s, so g[t] = sum_s w_s u_s[t] with
        w_s = coords A e_target forward and coords e_target backward.  The
        source difference of shear s is x_s[t] = E0[s] d[t] plus the
        increments of earlier shears whose target is its source, with E0[s]
        the source row of embed forward and of A^-1 embed backward.  d is
        linear in the state [U; v0] (U ordered (shear, step), v0 by the driven
        blocks), so the segment's recurrences run once on the identity state
        give it column by column: driven blocks forward from v0, killed ones
        backward from d[H] = 0.  Then G = E0 d[:H] maps the state to every
        x_s[t] but those chain terms, shape (S H, S H + m), and R = d[0],
        shape (n, S H + m).  Built once per solver and key.
        """
        key = (direction, tuple(driven), tuple(killed))
        if key not in self._sweeps:
            shears, h, fwd = self.chain_shears(direction), self.horizon, direction == "fwd"
            sources = [sh.source for sh in shears]
            targets = [sh.target for sh in shears]
            if fwd:
                e0, w = self.embed[sources], (self.coords @ self.f.a_float)[:, targets]
            else:
                e0, w = (self.f.a_inv_float @ self.embed)[sources], self.coords[:, targets]
            su = len(shears) * h
            cols = su + sum(self.block_dim(b) for b in driven)
            state = np.eye(cols)
            g = np.einsum("is,stc->tic", w, state[:su].reshape(len(shears), h, cols))
            d = np.zeros((h + 1, self.n, cols))
            row = su
            for b in driven:
                idx, m = self.block_idx[b], (self.block_matrix_fwd if fwd else self.block_matrix_bwd)[b]
                d[0, idx] = state[row:row + len(m)]
                row += len(m)
                for t in range(h):
                    d[t + 1, idx] = m @ d[t, idx] + g[t, idx]
            for b in killed:
                idx, m_inv = self.block_idx[b], (self.block_matrix_bwd if fwd else self.block_matrix_fwd)[b]
                for t in range(h - 1, -1, -1):
                    d[t, idx] = m_inv @ (d[t + 1, idx] - g[t, idx])
            self._sweeps[key] = np.einsum("si,tic->stc", e0, d[:h]).reshape(su, cols), d[0].copy()
        return self._sweeps[key]

    # -- Lyapunov-Perron fixed point -----------------------------------------------

    def _run_fixed_point(self, sweep, context: str) -> None:
        """Iterate `sweep` until the t=0 state stops moving."""
        prev = None
        best = change = math.inf
        stall = sweeps = 0
        for it in range(MAX_SWEEPS):
            state = sweep()
            sweeps = it + 1
            if prev is not None:
                change = float(np.max(np.abs(state - prev), initial=0.0))
                if change <= FIX_TOL:
                    return
                if change < best * 0.9:
                    best = change
                    stall = 0
                else:
                    stall += 1
                if it >= 8 and stall >= 6 and change <= 1e4 * FIX_TOL:
                    return  # noise floor
                if it >= 12 and change > 1e3 and change > best * 1e3:
                    break
            prev = state
        raise NumericsError(f"fixed-point iteration did not converge in {context} after "
                            f"{sweeps} sweeps at horizon {self.horizon} "
                            f"(last change {change:.2e}, best change {best:.2e}); "
                            "the perturbation may be too large")

    def _solve(self, legs: Sequence[tuple], fixed: dict[str, np.ndarray], shape: tuple[int, ...],
               context: str, answer: int, state: Optional[dict[str, np.ndarray]] = None) -> np.ndarray:
        """Orbit segments coupled through their t = 0 blocks.

        Each leg (anchor, flavor, offset) is a segment rel anchor along which
        the flavor's leaf is transversally contracting: it is driven by the
        flavor's blocks and kills the others.  A driven block reads `fixed`
        if it is there, and otherwise one state shared by all legs (zero, or
        `state`, at the start); each leg's killed blocks, plus its offset
        (coordinates, or None), overwrite that state, leg after leg in every
        sweep.  Returns the point of leg `answer`: its anchor plus its d[0].
        """
        segs = [_Segment(self, anchor, LEAF_DIRECTION[flavor], shape,
                         FLAVOR_BLOCKS[flavor], self.perp_blocks(flavor))
                for anchor, flavor, _ in legs]
        shared = {b: np.zeros(shape + (self.block_dim(b),)) for b in BLOCK_ORDER if b not in fixed}
        shared.update(state or {})

        def sweep():
            moved = []
            for seg, (_, _, offset) in zip(segs, legs):
                out = seg.update({b: fixed[b] if b in fixed else shared[b] for b in seg.driven})
                for b in seg.killed:
                    shared[b] = out[b] if offset is None else out[b] + offset[..., self.block_idx[b]]
                    moved.append(shared[b])
            return np.concatenate(moved, axis=-1)

        self._run_fixed_point(sweep, context)
        return legs[answer][0] + segs[answer].d0() @ self.embed.T

    def _leaf_step(self, bases: np.ndarray, flavor: str, params: np.ndarray) -> np.ndarray:
        """Points on W^flavor(base) at the given (small) parameters; the
        center leaf is W^cs(base) cap W^cu(base) with its c block fixed."""
        legs = [(bases, "cs", None), (bases, "cu", None)] if flavor == "c" else [(bases, flavor, None)]
        return self._solve(legs, self._block_slices(FLAVOR_BLOCKS[flavor], params), params.shape[:-1],
                           f"leaf solve ({flavor})", answer=-1)

    # -- leaf points ------------------------------------------------------------------

    def leaf_points(self, base: np.ndarray, flavor: str, params: np.ndarray) -> np.ndarray:
        """sigma^flavor(base, params): batched leaf evaluation with marching.

        base: (n,), or one row per parameter row; params: (..., d_flavor).
        Far parameters are reached by walking the leaf in adapted-norm steps
        of at most STEP_CAP; the walked parameter is additive because
        graph offsets are orthogonal to the parameter block.  Each row walks
        its own number of steps, so its path does not depend on the rows
        it is batched with.  Its bits may, at rounding level: each solve stops
        when its whole batch has converged, and where the Taylor tail of a
        wide batch starts (see _Segment) depends on every row of the batch.
        """
        base = np.asarray(base, dtype=float)
        params = np.asarray(params, dtype=float)
        shape = params.shape[:-1]
        cur = np.broadcast_to(base, shape + (self.n,)).astype(float).copy()
        if len(self.perp_indices(flavor)) == 0:
            return cur + params @ self.embed[:, self.param_indices(flavor)].T
        steps = np.maximum(1, np.ceil(self.param_norm(flavor, params) / STEP_CAP))
        inc = params / steps[..., None]
        for k in range(int(np.max(steps, initial=1))):
            live = steps > k  # the rows still walking
            cur[live] = self._leaf_step(cur[live], flavor, inc[live])
        return cur

    def leaf_offset(self, base: np.ndarray, flavor: str, params: np.ndarray) -> np.ndarray:
        """Graph value g^flavor(base, params) in perpendicular coordinates."""
        pts = self.leaf_points(base, flavor, params)
        delta = pts - np.broadcast_to(np.asarray(base, dtype=float), pts.shape)
        return (delta @ self.coords.T)[..., self.perp_indices(flavor)]

    # -- unique intersections ------------------------------------------------------------

    def intersection_batch(self, xs: np.ndarray, y: np.ndarray, pair: tuple[str, str]) -> np.ndarray:
        """Batched unique intersections W^a(x_i) cap W^b(y_i); xs is (B, n),
        y one point (n,) shared by every row or one per row (B, n).

        The leg rel x is the a leaf's and the leg rel y the b leaf's; they
        share the t = 0 difference, shifted by the coordinates of x - y.
        """
        if pair not in (("s", "cu"), ("u", "cs")):
            raise ValueError("intersection pair must be (s, cu) or (u, cs)")
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        y = np.asarray(y, dtype=float)
        shift = (xs - y) @ self.coords.T
        legs = [(xs, pair[0], shift), (y, pair[1], -shift)]
        return self._solve(legs, {}, xs.shape[:-1], f"intersection {pair}", answer=0)

    # -- center chart and leaf-parameter coordinates ------------------------------------------

    def center_chart(self, p: np.ndarray) -> np.ndarray:
        """Chart coordinates on W^c(0): the center block coordinates."""
        return (np.asarray(p, dtype=float) @ self.coords.T)[..., self.block_idx["c"]]

    def center_point(self, chart: np.ndarray) -> np.ndarray:
        """sigma^c_0(chart): the point of W^c(0) with the given chart value."""
        chart = np.asarray(chart, dtype=float)
        return self.leaf_points(np.zeros(self.n), "c", chart)

    def leaf_walk(self, x: np.ndarray, vc: np.ndarray, vs: np.ndarray,
                  vu: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stage points of the walk from x along its center leaf by vc,
        then the stable leaf by vs, then the unstable leaf by vu."""
        p1 = self.leaf_points(x, "c", vc)
        p2 = self.leaf_points(p1, "s", vs)
        return p1, p2, self.leaf_points(p2, "u", vu)

    def from_leaf_params(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Phi_x(v): walk center, then stable, then unstable by the blocks of v."""
        vcoords = np.asarray(v, dtype=float) @ self.coords.T
        return self.leaf_walk(np.asarray(x, dtype=float),
                              *(vcoords[..., self.block_idx[b]] for b in "csu"))[-1]

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


def measure_kappa(solver: LeafSolver, radius: float, samples: int = 160, seed: int = 5) -> dict:
    """Empirical Lipschitz constant sup |g(v)| / |v| per flavor (and overall),
    at the origin and three random base points; each flavor's samples at
    every base are solved in one batch."""
    rng = np.random.default_rng(seed)
    bases = np.vstack([np.zeros(solver.n), rng.uniform(0, 1, size=(3, solver.n))])
    out = {}
    for flavor in ("s", "u", "c", "cs", "cu"):
        d = len(solver.param_indices(flavor))
        if d == 0 or len(solver.perp_indices(flavor)) == 0:
            out[flavor] = 0.0
            continue
        params = []
        for _ in bases:
            par = rng.uniform(-1, 1, size=(samples, d))
            scale = rng.uniform(0.05, 1.0, size=(samples, 1)) * radius
            params.append(par / np.maximum(solver.param_norm(flavor, par)[:, None], 1e-12) * scale)
        params = np.concatenate(params)
        offsets = solver.leaf_offset(np.repeat(bases, samples, axis=0), flavor, params)
        out[flavor] = solver.graph_ratio(flavor, params, offsets)
    out["max"] = max(out.values())
    return out
