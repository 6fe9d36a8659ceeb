"""Exact integer matrices (arbitrary precision) for the algebraic layer.

Entries are Python ints, so powers like A^24 are exact no matter how fast
the entries grow.  No floating point in this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .intpoly import IntPoly, from_power_sums


@dataclass(frozen=True)
class IntMatrix:
    """Square integer matrix stored as a tuple of row tuples."""

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Iterable[Iterable[int]]):
        r = tuple(tuple(int(x) for x in row) for row in rows)
        if not r or any(len(row) != len(r) for row in r):
            raise ValueError("expected a nonempty square matrix")
        object.__setattr__(self, "rows", r)

    @property
    def n(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.rows[ij[0]][ij[1]]

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def companion(p: IntPoly) -> "IntMatrix":
        """Companion matrix of a monic polynomial (char poly equals p)."""
        if not p.is_monic or p.degree < 1:
            raise ValueError("companion matrix needs a monic polynomial of degree >= 1")
        n = p.degree
        rows = [[0] * n for _ in range(n)]
        for i in range(1, n):
            rows[i][i - 1] = 1
        for i in range(n):
            rows[i][n - 1] = -p.coeffs[i]
        return IntMatrix(rows)

    @staticmethod
    def block_diag(*blocks: "IntMatrix") -> "IntMatrix":
        n = sum(b.n for b in blocks)
        rows = [[0] * n for _ in range(n)]
        off = 0
        for b in blocks:
            for i in range(b.n):
                for j in range(b.n):
                    rows[off + i][off + j] = b.rows[i][j]
            off += b.n
        return IntMatrix(rows)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.rows, other.rows)))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix(tuple(tuple(a * other for a in row) for row in self.rows))
        n = self.n
        bt = tuple(zip(*other.rows))
        return IntMatrix(tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in bt) for row in self.rows))

    __rmul__ = __mul__

    def matvec(self, v: Sequence[int]) -> tuple[int, ...]:
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.rows)

    def __pow__(self, k: int) -> "IntMatrix":
        if k < 0:
            return self.inverse_unimodular() ** (-k)
        result = IntMatrix.identity(self.n)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def trace(self) -> int:
        return sum(self.rows[i][i] for i in range(self.n))

    # -- exact linear algebra --------------------------------------------------

    def det(self) -> int:
        return bareiss_det(self.rows)

    def rank(self) -> int:
        return exact_rank([list(r) for r in self.rows])

    def char_poly(self) -> IntPoly:
        """Monic characteristic polynomial det(xI - A), exactly: Newton's
        identities on the traces of A, A^2, ..., A^n."""
        m = self
        traces = [m.trace()]
        for _ in range(1, self.n):
            m = m * self
            traces.append(m.trace())
        return from_power_sums(traces)

    def apply_poly(self, p: IntPoly) -> "IntMatrix":
        """p(A), by Horner's scheme."""
        n = self.n
        out = IntMatrix(tuple(tuple(0 for _ in range(n)) for _ in range(n)))
        for c in reversed(p.coeffs):
            out = out * self + c * IntMatrix.identity(n)
        return out

    def inverse_unimodular(self) -> "IntMatrix":
        """Exact inverse; requires det = +-1.

        Cayley-Hamilton: p(x) = x q(x) + c0 with p(A) = 0 gives
        A^-1 = -q(A) / c0 = -c0 q(A), since c0 = (-1)^n det A is +-1.
        """
        p = self.char_poly()
        c0 = p.coeffs[0]
        if c0 not in (1, -1):
            raise ValueError("matrix is not unimodular")
        return self.apply_poly(IntPoly(p.coeffs[1:])) * -c0

    def to_float(self):
        import numpy as np

        return np.array(self.rows, dtype=float)


def bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Fraction-free determinant (Bareiss); exact for integer matrices."""
    n = len(rows)
    a = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def exact_rank(a: list[list[int]]) -> int:
    """Rank over Q of an integer matrix, by fraction-free elimination."""
    if not a:
        return 0
    nrows, ncols = len(a), len(a[0])
    rank = 0
    row = 0
    prev = 1
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        for i in range(row + 1, nrows):
            for j in range(col + 1, ncols):
                a[i][j] = (a[i][j] * a[row][col] - a[i][col] * a[row][j]) // prev
            a[i][col] = 0
        prev = a[row][col]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def matrix_to_json(a: IntMatrix) -> dict:
    return {"n": a.n, "rows": [list(r) for r in a.rows]}


def matrix_from_json(obj: dict) -> IntMatrix:
    if not isinstance(obj, dict) or "rows" not in obj:
        raise ValueError("matrix JSON must be an object with a 'rows' field")
    rows = obj["rows"]
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise ValueError("matrix 'rows' must be a list of lists")
    n = obj.get("n", len(rows))
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("matrix JSON is not square or 'n' mismatches")
    if any(not isinstance(x, int) or isinstance(x, bool) for r in rows for x in r):
        raise ValueError("matrix entries must be integers")
    return IntMatrix(rows)
