import itertools
import math
import random

import pytest

from conftest import per_degree_certify
from torusdyn import zfactor
from torusdyn.intpoly import IntPoly, cyclotomic, cyclotomic_indices_up_to_degree, divides
from torusdyn.survey import CHUNK_SIZE, enumerate_polynomials
from torusdyn.zfactor import (_SIEVE_PRIMES, _strip_cyclotomic, certify_irreducible, factor_z,
                              factor_z_many, is_irreducible_z)

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


# (3, 5): 242 rows; after the strip each cofactor is a cubic, a quadratic or 1
@pytest.mark.parametrize("dim, height", [(4, 2), (5, 2), (6, 1), (7, 1), (3, 5)])
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
# Phi_6(2) = 3 divides p(2) = -9 and Phi_6(3) = 7 divides p(3) = 7, yet Phi_6
# does not divide p: the strip's necessary test passes and its trial division
# fails.  No other index passes the test, so the strip reaches m = 6 with p.
FILTER_FALSE_POSITIVE = IntPoly((1, -1, -2, -2, 1))  # x^4 - 2x^3 - 2x^2 - x + 1


@pytest.mark.parametrize("poly, certified", [
    (GOLDEN * GOLDEN, False),  # not squarefree: falls back to factor_z
    (IntPoly((1, 0, 0, 0, 1)), False),  # x^4 + 1 = Phi_8 is reducible mod every prime
    (cyclotomic(12), False),  # so is Phi_12
    (cyclotomic(5), True),  # Phi_5 stays irreducible mod 13, where 13 has order 4 mod 5
    (DEGREE_10, True),  # only the primes above 10 apply
    (CAT, True),
    (IntPoly((-1, 1, 0, 1)), True),  # x^3 + x - 1
    (X_MINUS_1 * X_MINUS_1 * X_PLUS_1, None),  # cofactor of degree 0 after stripping
    (X_MINUS_1 * X_PLUS_1 * X_PLUS_1 * IntPoly((-2, 1)), None),  # cofactor of degree 1
    (X_MINUS_1 * SALEM, None),
    (X_PLUS_1 * CAT * SALEM, None),  # reducible cofactor: falls back
    (cyclotomic(3) * cyclotomic(3) * cyclotomic(4) * SALEM, None),  # a repeated cyclotomic factor
    (cyclotomic(5) * cyclotomic(10), None),
    (cyclotomic(8) * X_MINUS_1 * X_MINUS_1, None),
    (cyclotomic(12) * cyclotomic(3) * CAT, None),
    (cyclotomic(7) * cyclotomic(9), None),  # cofactor of degree 0 after stripping
    (FILTER_FALSE_POSITIVE, None),
])
def test_factor_z_many_hand_cases(poly, certified):
    assert factor_z_many([poly]) == [factor_z(poly)]
    if certified is not None:
        assert certify_irreducible([poly]) == [certified]


def test_filter_false_positive_passes_the_test_at_2_and_3():
    p = FILTER_FALSE_POSITIVE
    passed = [m for m in cyclotomic_indices_up_to_degree(p.degree)
              if p(2) % cyclotomic(m)(2) == 0 and p(3) % cyclotomic(m)(3) == 0]
    assert passed == [6]
    assert not divides(cyclotomic(6), p)


# (8, 1): a chunk's cofactors have every degree from 0 to 8 after the strip
@pytest.mark.parametrize("dim, height", [(4, 2), (5, 2), (6, 1), (7, 1), (3, 5), (8, 1)])
def test_stacked_sieve_matches_per_degree_oracle_over_boxes(dim, height):
    cofactors = [_strip_cyclotomic(IntPoly(c))[0] for _, c in enumerate_polynomials(dim, height)]
    for i in range(0, len(cofactors), CHUNK_SIZE):
        chunk = cofactors[i:i + CHUNK_SIZE]
        assert certify_irreducible(chunk) == per_degree_certify(chunk), i


def _random_monic(rng, degree, height):
    return IntPoly(tuple(rng.randint(-height, height) for _ in range(degree)) + (1,))


def mixed_degree_chunk(seed, size=96):
    """Monic rows of degree 0 to 40: random ones (mostly irreducible),
    products and squares.  From degree 11 on, the prime 11 does not apply
    to a row, and from degree 37 on no sieve prime does."""
    rng = random.Random(seed)
    chunk = []
    while len(chunk) < size:
        kind, d = rng.choice(["random", "random", "product", "square"]), rng.randint(0, 40)
        if kind == "random":
            chunk.append(_random_monic(rng, d, 3))
        elif kind == "product" and d >= 2:
            k = rng.randint(1, d - 1)
            chunk.append(_random_monic(rng, k, 2) * _random_monic(rng, d - k, 2))
        elif kind == "square":
            f = _random_monic(rng, d // 2, 2)
            chunk.append(f * f)
    return chunk


@pytest.mark.parametrize("seed", range(4))
def test_stacked_sieve_matches_per_degree_oracle_on_mixed_degrees(seed):
    chunk = mixed_degree_chunk(seed)
    got = certify_irreducible(chunk)
    assert got == per_degree_certify(chunk)
    assert any(ok for f, ok in zip(chunk, got) if f.degree > 10)
    assert not any(ok for f, ok in zip(chunk, got) if f.degree >= _SIEVE_PRIMES[-1])


def test_one_kernel_call_per_sieve_prime(monkeypatch):
    primes = []
    kernel = zfactor._degree_masks

    def counted(coeffs, degrees, p):
        primes.append(p)
        return kernel(coeffs, degrees, p)

    monkeypatch.setattr(zfactor, "_degree_masks", counted)
    certify_irreducible(mixed_degree_chunk(0, size=CHUNK_SIZE))
    assert primes and len(primes) == len(set(primes)) and set(primes) <= set(_SIEVE_PRIMES)
