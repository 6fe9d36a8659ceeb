"""Integer lattices: Hermite normal forms, kernels, invariant factors.

Lattices are stored by a canonical basis: row-style Hermite normal form
with positive pivots and the entries above each pivot reduced into
[0, pivot).  Two lattices are equal iff their stored bases are equal.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .intmatrix import IntMatrix, bareiss_det, exact_rank


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
        return self.coordinates(v) is not None

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

    def to_json(self) -> dict:
        return {"ambient_dim": self.ambient_dim, "basis": [list(r) for r in self.basis]}


# -- invariant factors ----------------------------------------------------------


def invariant_factors(mat: Sequence[Sequence[int]]) -> list[int]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix (any shape).

    d_k = D_k / D_(k-1), where the determinantal divisor D_k is the gcd of
    all k x k minors.  D_(k-1) divides every k x k minor, so the gcd stops
    as soon as it reaches D_(k-1); the first D_k = 0 ends the sequence.
    """
    rows = [list(map(int, r)) for r in mat]
    nr, nc = len(rows), len(rows[0]) if rows else 0
    out: list[int] = []
    prev = 1
    for k in range(1, min(nr, nc) + 1):
        minors = (bareiss_det([[rows[i][j] for j in ci] for i in ri])
                  for ri in itertools.combinations(range(nr), k)
                  for ci in itertools.combinations(range(nc), k))
        g = 0
        for d in minors:
            g = math.gcd(g, d)
            if g == prev:
                break
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


# -- kernels and cyclic vectors -----------------------------------------------------


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
    n = a.n
    rows = []
    w = tuple(map(int, v))
    for _ in range(n):
        rows.append(list(w))
        w = a.matvec(w)
    return exact_rank(rows) == n
