"""Integer lattices: Hermite/Smith normal forms, kernels, saturation.

Lattices are stored by a canonical basis: row-style Hermite normal form
with positive pivots and the entries above each pivot reduced into
[0, pivot).  Two lattices are equal iff their stored bases are equal.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .intmatrix import IntMatrix


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _echelon(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Row echelon form over the first ``ncols`` columns by extended-gcd row
    operations: one pivot row per column that has a nonzero entry, in column
    order, then the rows that vanish on those columns.  A combination that
    vanishes entirely is dropped (with an identity block appended, as in
    hnf_with_transform, none does)."""
    done: list[list[int]] = []
    for col in range(ncols):
        work = [r for r in rows if r[col] != 0]
        if not work:
            continue
        rest = [r for r in rows if r[col] == 0]
        piv = work[0]
        for r in work[1:]:
            a, b = piv[col], r[col]
            g, x, y = _xgcd(a, b)
            u, w = -(b // g), a // g
            piv, r2 = (
                [x * pa + y * ra for pa, ra in zip(piv, r)],
                [u * pa + w * ra for pa, ra in zip(piv, r)],
            )
            if any(r2):
                rest.append(r2)
        if piv[col] < 0:
            piv = [-c for c in piv]
        done.append(piv)
        rows = rest
    return done + rows


def hnf_rows(vectors: Iterable[Sequence[int]], ambient_dim: int) -> list[list[int]]:
    """Canonical HNF basis of the lattice spanned by the given row vectors."""
    rows = [list(map(int, v)) for v in vectors if any(v)]
    for v in rows:
        if len(v) != ambient_dim:
            raise ValueError("vector length does not match ambient dimension")
    basis = _echelon(rows, ambient_dim)
    _reduce_above_pivots(basis)
    return basis


def _pivot_col(row: Sequence[int]) -> int:
    return next(i for i, c in enumerate(row) if c)


def _reduce_above_pivots(basis: list[list[int]]) -> None:
    # left-to-right: reducing by row i only touches columns >= its pivot,
    # so earlier pivot columns stay reduced
    for i in range(len(basis)):
        pc = _pivot_col(basis[i])
        piv = basis[i][pc]
        for j in range(i):
            q = basis[j][pc] // piv
            if q:
                basis[j] = [a - q * b for a, b in zip(basis[j], basis[i])]


def hnf_with_transform(vectors: Sequence[Sequence[int]], ambient_dim: int) -> tuple[list[list[int]], list[list[int]]]:
    """(H, U) with U unimodular, U @ vectors = H, H in row echelon form.

    Zero rows of H are collected at the bottom; U records every row
    operation, so the bottom rows of U span the integer left-kernel of
    the input matrix.
    """
    m = len(vectors)
    aug = [list(map(int, v)) + [int(i == j) for j in range(m)] for i, v in enumerate(vectors)]
    n = ambient_dim
    done = _echelon(aug, n)
    h = [r[:n] for r in done]
    u = [r[n:] for r in done]
    return h, u


@dataclass(frozen=True)
class Lattice:
    """Sublattice of Z^ambient_dim with canonical HNF basis rows."""

    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    @staticmethod
    def from_rows(vectors: Iterable[Sequence[int]], ambient_dim: int) -> "Lattice":
        b = hnf_rows(vectors, ambient_dim)
        return Lattice(ambient_dim, tuple(tuple(r) for r in b))

    @staticmethod
    def standard(n: int) -> "Lattice":
        return Lattice(n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence[int]) -> bool:
        w = list(map(int, v))
        for row in self.basis:
            pc = _pivot_col(row)
            if w[pc] % row[pc] != 0:
                return False
            q = w[pc] // row[pc]
            if q:
                w = [a - q * b for a, b in zip(w, row)]
        return not any(w)

    def coordinates(self, v: Sequence[int]) -> Optional[tuple[int, ...]]:
        """Integer coordinates of v in the stored basis, or None."""
        w = list(map(int, v))
        coords = []
        for row in self.basis:
            pc = _pivot_col(row)
            if w[pc] % row[pc] != 0:
                return None
            q = w[pc] // row[pc]
            coords.append(q)
            if q:
                w = [a - q * b for a, b in zip(w, row)]
        return tuple(coords) if not any(w) else None

    def transform(self, a: IntMatrix) -> "Lattice":
        """Image lattice {A v : v in L}."""
        return Lattice.from_rows([a.matvec(row) for row in self.basis], self.ambient_dim)

    def index_in(self, other: "Lattice") -> int:
        """[other : self] for a finite-index sublattice of equal rank."""
        if self.rank != other.rank:
            raise ValueError("index is finite only for equal ranks")
        coords = [other.coordinates(row) for row in self.basis]
        if any(c is None for c in coords):
            raise ValueError("not a sublattice")
        from .intmatrix import bareiss_det

        return abs(bareiss_det([list(c) for c in coords]))

    def to_json(self) -> dict:
        return {"ambient_dim": self.ambient_dim, "basis": [list(r) for r in self.basis]}


# -- Smith normal form ---------------------------------------------------------


def snf(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(U, D, V) with U a V unimodular, U*A*V = D diagonal, d_i | d_{i+1}."""
    h, d, v_rows = snf_rect([list(r) for r in a.rows])
    return IntMatrix(h), IntMatrix(d), IntMatrix(v_rows)


def snf_rect(mat: list[list[int]]) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form of a rectangular integer matrix; returns (U, D, V)."""
    nr = len(mat)
    nc = len(mat[0]) if nr else 0
    a = [row[:] for row in mat]
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    v = [[int(i == j) for j in range(nc)] for i in range(nc)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nr, nc):
        # pivot: smallest nonzero magnitude in the trailing submatrix
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while True:
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, nc):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # pivot must divide everything that remains
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % a[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    return u, a, v


def invariant_factors(mat: Sequence[Sequence[int]]) -> list[int]:
    _, d, _ = snf_rect([list(r) for r in mat])
    out = []
    for i in range(min(len(d), len(d[0]) if d else 0)):
        if d[i][i]:
            out.append(d[i][i])
    return out


# -- kernels and saturation -----------------------------------------------------


def kernel_lattice(m: IntMatrix) -> Lattice:
    """Saturated integer kernel Z^n  intersect ker_Q(M), as a primitive lattice.

    Computed from a unimodular row transform of M^T: the rows of the
    transform that map to zero form a basis of the left kernel of M^T,
    i.e. of ker(M); being rows of a unimodular matrix they are primitive.
    """
    n = m.n
    mt = [list(col) for col in zip(*m.rows)]
    h, u = hnf_with_transform(mt, n)
    kernel_rows = [u[i] for i in range(len(h)) if not any(h[i])]
    return Lattice.from_rows(kernel_rows, n)


def is_cyclic_vector(a: IntMatrix, v: Sequence[int]) -> bool:
    """True iff v, Av, ..., A^(n-1)v span Q^n."""
    from .intmatrix import exact_rank

    n = a.n
    rows = []
    w = tuple(map(int, v))
    for _ in range(n):
        rows.append(list(w))
        w = a.matvec(w)
    return exact_rank(rows) == n


def saturate(vectors: Sequence[Sequence[int]], ambient_dim: int) -> Lattice:
    """Saturation of the span: Z^n intersect span_Q(vectors)."""
    lat = Lattice.from_rows(vectors, ambient_dim)
    if lat.rank == 0:
        return lat
    # orthogonal-complement trick: Sat(L) = ker_Z(C) where the rows of C
    # span the rational annihilator of L.
    basis = [list(r) for r in lat.basis]
    # rational kernel of basis^T gives the annihilator; clear denominators
    ann = _rational_left_kernel([list(col) for col in zip(*basis)])
    if not ann:
        return Lattice.standard(ambient_dim) if lat.rank == ambient_dim else lat
    c = IntMatrix(_square_pad(ann, ambient_dim))
    return kernel_lattice(c)


def _square_pad(rows: list[list[int]], n: int) -> list[list[int]]:
    out = [r[:] for r in rows]
    while len(out) < n:
        out.append([0] * n)
    return out[:n]


def _rational_left_kernel(mat: list[list[int]]) -> list[list[int]]:
    """Integer-cleared basis of the left kernel of mat (rows * mat = 0)."""
    nr = len(mat)
    h, u = hnf_with_transform(mat, len(mat[0]) if mat else 0)
    return [u[i] for i in range(nr) if not any(h[i])]
