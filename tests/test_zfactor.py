import itertools
import math
import random

import pytest

from torusdyn.intpoly import IntPoly, cyclotomic, divides
from torusdyn.survey import enumerate_polynomials
from torusdyn.zfactor import certify_irreducible, factor_z, factor_z_many, is_irreducible_z

SALEM = IntPoly((1, -1, -1, -1, 1))
CAT = IntPoly((1, -3, 1))


def brute_force_factor_count(p: IntPoly) -> int:
    """Independent oracle: exhaustive search over monic integer factor pairs.

    Candidate coefficients are bounded through the Cauchy root bound
    (|root| <= 1 + max|a_i|), so |e_j| <= C(m, j) B^j; pruned by the
    classical divisor conditions at x = 0, 1, -1.  Returns the number of
    irreducible factors with multiplicity.
    """
    if p.degree <= 1:
        return max(p.degree, 0)
    b = 1 + max(abs(c) for c in p.coeffs)
    for m in range(1, p.degree // 2 + 1):
        bounds = [math.comb(m, j) * b ** (m - j) for j in range(m)]
        p0, p1, pm1 = p(0), p(1), p(-1)
        for tail in itertools.product(*[range(-q, q + 1) for q in bounds]):
            cand = IntPoly(tail + (1,))
            if cand.degree != m:
                continue
            c0 = cand(0)
            if c0 == 0 or p0 % c0 != 0:
                continue
            c1 = cand(1)
            if (c1 == 0 and p1 != 0) or (c1 != 0 and p1 % c1 != 0):
                continue
            cm1 = cand(-1)
            if (cm1 == 0 and pm1 != 0) or (cm1 != 0 and pm1 % cm1 != 0):
                continue
            if divides(cand, p):
                from torusdyn.intpoly import div_exact

                return brute_force_factor_count(cand) + brute_force_factor_count(div_exact(p, cand))
    return 1


def test_irreducible_examples():
    assert is_irreducible_z(CAT)
    assert not is_irreducible_z(IntPoly((-1, 0, 0, 0, 1)))  # x^4 - 1
    assert is_irreducible_z(SALEM)


def test_salem_against_exhaustive_oracle():
    assert brute_force_factor_count(SALEM) == 1


def test_factor_examples():
    fs = factor_z(IntPoly((-1, 0, 0, 0, 1)))
    assert [f.coeffs for f, _ in fs] == [(-1, 1), (1, 1), (1, 0, 1)]
    fs = factor_z(SALEM * CAT)
    assert fs == [(CAT, 1), (SALEM, 1)]
    fs = factor_z(IntPoly((1, 0, 1)) * IntPoly((1, 0, 1)) * IntPoly((-2, 1)))
    assert fs == [(IntPoly((-2, 1)), 1), (IntPoly((1, 0, 1)), 2)]


def test_factor_cyclotomic_products():
    p = cyclotomic(12) * cyclotomic(5)
    fs = factor_z(p)
    assert {f.coeffs for f, _ in fs} == {cyclotomic(12).coeffs, cyclotomic(5).coeffs}


def test_irreducibility_matches_oracle_degree_up_to_six():
    rng = random.Random(5)
    polys = []
    # random degree <= 6 with small coefficients (keeps the oracle cheap)
    while len(polys) < 60:
        deg = rng.randint(2, 6)
        coeffs = [rng.choice([-1, 1])] + [rng.randint(-2, 2) for _ in range(deg - 1)] + [1]
        polys.append(IntPoly(tuple(coeffs)))
    # seeded structured cases
    polys += [SALEM, CAT * CAT, CAT * IntPoly((-1, -1, 1)), cyclotomic(7),
              IntPoly((1, 1, 1)) * IntPoly((-1, 1, 1))]
    for p in polys:
        if p(0) == 0:
            continue
        got = is_irreducible_z(p) if p.degree >= 1 else False
        expected = brute_force_factor_count(p) == 1
        assert got == expected, p


def test_factor_product_reconstruction():
    rng = random.Random(11)
    for _ in range(40):
        deg = rng.randint(2, 7)
        p = IntPoly([rng.choice([-1, 1])] + [rng.randint(-3, 3) for _ in range(deg - 1)] + [1])
        fs = factor_z(p)
        prod = IntPoly((1,))
        for f, m in fs:
            assert is_irreducible_z(f)
            for _ in range(m):
                prod = prod * f
        assert prod == p


@pytest.mark.parametrize("dim, height", [(4, 2), (5, 2), (6, 1), (7, 1)])
def test_factor_z_many_matches_scalar_over_boxes(dim, height):
    polys = [IntPoly(c) for _, c in enumerate_polynomials(dim, height)]
    assert factor_z_many(polys) == [factor_z(p) for p in polys]
    # every polynomial the sieve proves irreducible is irreducible by the
    # scalar path
    certified = [p for p, ok in zip(polys, certify_irreducible(polys)) if ok]
    assert certified
    assert all(is_irreducible_z(p) for p in certified)


X_MINUS_1, X_PLUS_1 = IntPoly((-1, 1)), IntPoly((1, 1))
GOLDEN = IntPoly((-1, -1, 1))
DEGREE_10 = IntPoly((1, 0, 0, 0, 0, 0, 0, 0, 0, -1, 1))  # x^10 - x^9 + 1


@pytest.mark.parametrize("poly, certified", [
    (GOLDEN * GOLDEN, False),  # not squarefree: falls back to factor_z
    (IntPoly((1, 0, 0, 0, 1)), False),  # x^4 + 1 = Phi_8 is reducible mod every prime
    (cyclotomic(12), False),  # so is Phi_12
    (cyclotomic(5), True),  # Phi_5 stays irreducible mod 13, where 13 has order 4 mod 5
    (DEGREE_10, True),  # only the primes above 10 apply
    (CAT, True),
    (IntPoly((-1, 1, 0, 1)), True),  # x^3 + x - 1
    (X_MINUS_1 * X_MINUS_1 * X_PLUS_1, None),  # cofactor of degree 0 after stripping +-1
    (X_MINUS_1 * X_PLUS_1 * X_PLUS_1 * IntPoly((-2, 1)), None),  # cofactor of degree 1
    (X_MINUS_1 * SALEM, None),
    (X_PLUS_1 * CAT * SALEM, None),  # reducible cofactor: falls back
])
def test_factor_z_many_hand_cases(poly, certified):
    assert factor_z_many([poly]) == [factor_z(poly)]
    if certified is not None:
        assert certify_irreducible([poly]) == [certified]
