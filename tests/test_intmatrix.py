import random
from fractions import Fraction

import pytest

from torusdyn.intmatrix import IntMatrix
from torusdyn.intpoly import IntPoly, from_power_sums, power_sums

SALEM = IntPoly((1, -1, -1, -1, 1))


def charpoly_cofactor(a: IntMatrix) -> IntPoly:
    """Oracle: expand det(xI - A) by cofactors with polynomial entries."""
    n = a.n
    entries = [
        [IntPoly((-a.rows[i][j], 1)) if i == j else IntPoly((-a.rows[i][j],)) for j in range(n)]
        for i in range(n)
    ]

    def det(rows, cols):
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        total = IntPoly(())
        r = rows[0]
        for k, c in enumerate(cols):
            minor = det(rows[1:], cols[:k] + cols[k + 1:])
            term = entries[r][c] * minor
            total = total + term if k % 2 == 0 else total - term
        return total

    return det(tuple(range(n)), tuple(range(n)))


def resultant_power_poly(p: IntPoly, k: int) -> IntPoly:
    """Oracle: the char poly of A^k from the char poly of A, exactly.

    (-1)^n Res_x(p(x), x^k - y) has roots y = root(p)^k; the resultant is
    the Sylvester determinant with entries in Z[y], computed fraction-free
    (Bareiss divisions are exact in Z[y]).
    """
    n = p.degree
    size = n + k
    zero = IntPoly(())
    grid = [[zero for _ in range(size)] for _ in range(size)]
    for i in range(k):  # k rows of p's coefficients (degree n in x)
        for j, c in enumerate(reversed(p.coeffs)):
            grid[i][i + j] = IntPoly((c,))
    # n rows of x^k - y
    g_coeffs = [IntPoly((1,))] + [zero] * (k - 1) + [IntPoly((0, -1))]
    for i in range(n):
        for j, c in enumerate(g_coeffs):
            grid[k + i][i + j] = c

    from torusdyn.intpoly import div_exact

    a = [row[:] for row in grid]
    sign = 1
    prev = IntPoly((1,))
    for t in range(size - 1):
        if a[t][t].is_zero:
            piv = next((r for r in range(t + 1, size) if not a[r][t].is_zero), None)
            if piv is None:
                return IntPoly(())
            a[t], a[piv] = a[piv], a[t]
            sign = -sign
        for i in range(t + 1, size):
            for j in range(t + 1, size):
                a[i][j] = div_exact(a[i][j] * a[t][t] - a[i][t] * a[t][j], prev)
            a[i][t] = zero
        prev = a[t][t]
    res = a[size - 1][size - 1] * sign
    if res.is_zero:
        return res
    out = res if res.leading > 0 else -res
    return out


def test_char_poly_trivial():
    assert IntMatrix.identity(2).char_poly() == IntPoly((1, -2, 1))
    assert IntMatrix([[2, 1], [1, 1]]).char_poly() == IntPoly((1, -3, 1))


def test_companion_char_poly():
    c = IntMatrix.companion(SALEM)
    assert c.char_poly() == SALEM
    assert c.det() == 1


def test_char_poly_matches_cofactor_oracle():
    rng = random.Random(3)
    for _ in range(25):
        a = IntMatrix([[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)])
        assert a.char_poly() == charpoly_cofactor(a)


def test_char_poly_powers_match_resultant_oracle():
    rng = random.Random(5)
    mats = [IntMatrix([[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]) for _ in range(4)]
    mats += [IntMatrix([[rng.randint(-1, 1) for _ in range(6)] for _ in range(6)]) for _ in range(2)]
    for a in mats:
        p = a.char_poly()
        s = power_sums(p, a.n * 12)
        for k in (2, 3, 5, 7, 12):
            direct = (a ** k).char_poly()
            oracle = resultant_power_poly(p, k)
            assert direct == oracle, (a.rows, k)
            assert from_power_sums(s[k - 1:a.n * k:k]) == oracle, (a.rows, k)


def test_det_and_rank():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        a = IntMatrix(rows)
        # Fraction-based oracle
        m = [[Fraction(v) for v in row] for row in rows]
        det = Fraction(1)
        sign = 1
        rank = 0
        mm = [row[:] for row in m]
        for col in range(n):
            piv = next((r for r in range(rank, n) if mm[r][col] != 0), None)
            if piv is None:
                det = Fraction(0)
                continue
            if piv != rank:
                mm[rank], mm[piv] = mm[piv], mm[rank]
                sign = -sign
            for r in range(rank + 1, n):
                f = mm[r][col] / mm[rank][col]
                mm[r] = [x - f * y for x, y in zip(mm[r], mm[rank])]
            rank += 1
        if rank == n:
            for i in range(n):
                det *= mm[i][i]
            det *= sign
        else:
            det = Fraction(0)
        assert a.det() == det
        assert a.rank() == rank


def test_inverse_unimodular():
    rng = random.Random(2)
    from conftest import random_unimodular

    for _ in range(20):
        u = random_unimodular(rng, 4)
        assert u * u.inverse_unimodular() == IntMatrix.identity(4)
        assert (u ** -1) == u.inverse_unimodular()
    for n in range(2, 8):
        for _ in range(5):
            u = random_unimodular(rng, n, ops=3 * n)
            assert u * u.inverse_unimodular() == IntMatrix.identity(n)
            assert u.inverse_unimodular() * u == IntMatrix.identity(n)
    for rows in ([[2, 1], [0, 1]], [[1, 1], [-1, 1]], [[1, 1, 0], [0, -2, 0], [3, 0, 1]]):  # det +-2
        with pytest.raises(ValueError):
            IntMatrix(rows).inverse_unimodular()


def test_apply_poly_cayley_hamilton():
    c = IntMatrix.companion(SALEM)
    z = c.apply_poly(SALEM)
    assert all(v == 0 for row in z.rows for v in row)
