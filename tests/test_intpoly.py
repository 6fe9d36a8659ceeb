import random
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    count_real_roots,
    crown_transform,
    cyclotomic_free,
    reference_circle_counts,
    reference_unitary_roots,
)
from torusdyn.intpoly import (
    IntPoly,
    _real_root_count,
    circle_root_counts,
    count_unitary_roots,
    cyclotomic,
    div_exact,
    divides,
    gcd_z,
    is_poly_in_xm,
    is_reciprocal,
    squarefree_decomposition,
)

SALEM = IntPoly((1, -1, -1, -1, 1))
CAT = IntPoly((1, -3, 1))
PHI5 = IntPoly((1, 1, 1, 1, 1))


def test_arithmetic_roundtrip():
    rng = random.Random(1)
    for _ in range(50):
        a = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))])
        b = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))] + [1])
        assert div_exact(a * b, b) == a
        assert divides(b, a * b)


def test_cyclotomic_table():
    assert cyclotomic(1) == IntPoly((-1, 1))
    assert cyclotomic(2) == IntPoly((1, 1))
    assert cyclotomic(5) == PHI5
    assert cyclotomic(12) == IntPoly((1, 0, -1, 0, 1))


def test_cyclotomic_free_examples():
    assert not cyclotomic_free(IntPoly((-1, 1)))        # x - 1
    assert cyclotomic_free(CAT)
    assert not cyclotomic_free(PHI5)


def test_cyclotomic_free_salem_exhaustive():
    # independent oracle: try dividing by every cyclotomic with phi(m) <= 4,
    # i.e. m in 1..12
    for m in range(1, 13):
        phi = cyclotomic(m)
        if phi.degree <= 4:
            assert not divides(phi, SALEM)
    assert cyclotomic_free(SALEM)


def test_reciprocal_examples():
    assert is_reciprocal(CAT)
    assert not is_reciprocal(IntPoly((-1, -1, 1)))
    assert is_reciprocal(SALEM)


def test_poly_in_xm_examples():
    assert is_poly_in_xm(IntPoly((1, 0, 1, 0, 1))) == 2
    assert is_poly_in_xm(SALEM) is None
    assert is_poly_in_xm(IntPoly((5, 0, 0, -2, 0, 0, 1))) == 3


def test_count_unitary_examples():
    assert count_unitary_roots(CAT) == 0
    assert count_unitary_roots(PHI5) == 4
    assert count_unitary_roots(SALEM) == 2


def test_count_unitary_salem_numeric_oracle():
    roots = np.roots(list(reversed(SALEM.coeffs)))
    numeric = int(np.sum(np.abs(np.abs(roots) - 1) < 1e-9))
    assert numeric == count_unitary_roots(SALEM) == 2


def test_count_unitary_multiplicity():
    assert count_unitary_roots(SALEM * SALEM * CAT) == 4


def test_count_unitary_even_property():
    rng = random.Random(7)
    checked = 0
    while checked < 150:
        deg = rng.randint(1, 7)
        p = IntPoly([rng.randint(-3, 3) for _ in range(deg)] + [1])
        if p.degree < 1 or p(1) == 0 or p(-1) == 0:
            continue
        assert count_unitary_roots(p) % 2 == 0
        checked += 1


def test_sturm_vs_numeric_on_reciprocal_polynomials():
    # 200 random monic reciprocal polynomials of degree <= 8
    rng = random.Random(42)
    checked = 0
    while checked < 200:
        half = rng.randint(1, 3)
        body = [rng.randint(-4, 4) for _ in range(half)]
        mid = [rng.randint(-4, 4)]
        coeffs = [1] + body + mid + list(reversed(body)) + [1]
        p = IntPoly(tuple(coeffs))
        if p.degree < 2 or p(1) == 0 or p(-1) == 0:
            continue
        if gcd_z(p, p.derivative()).degree > 0:
            continue  # repeated roots: the numeric oracle cannot resolve them
        roots = np.roots(list(reversed(p.coeffs)))
        dist = np.abs(np.abs(roots) - 1)
        if np.any((dist > 1e-9) & (dist < 1e-6)):
            continue  # numerically ambiguous; the exact count is still fine
        numeric = int(np.sum(dist <= 1e-9))
        assert count_unitary_roots(p) == numeric, p
        checked += 1


def test_crown_transform_identity():
    r = SALEM
    q = crown_transform(r)
    # check r(x) = x^m q(x + 1/x) at a few rational points
    for x in (Fraction(2), Fraction(3, 2), Fraction(-5, 3)):
        assert r(x) == x ** 2 * q(x + 1 / x)


def test_count_real_roots():
    # circle_root_counts' Sturm count on coefficient lists, against the
    # tests' count between the ends of Cauchy's bound
    p = IntPoly((-2, 0, 1))  # x^2 - 2
    # in the chain x^4 + x - 2, 4x^3 + 1, -3x + 8, -1 the last pseudo-division
    # raises lc = -3 to an odd power, so the count rests on the multiplier's sign
    for q, want in ((CAT, 2), (p, 2), (p * p, 2), (IntPoly((1, 0, 1)), 0),
                    (IntPoly((-2, 1, 0, 0, 1)), 2)):
        assert _real_root_count(list(q.coeffs)) == count_real_roots(q) == want, q


def test_circle_root_counts_examples():
    assert circle_root_counts(CAT) == (1, 0)
    assert circle_root_counts(PHI5) == (0, 4)
    assert circle_root_counts(SALEM) == (1, 2)
    assert circle_root_counts(IntPoly((0, 1))) == (1, 0)
    assert circle_root_counts(CAT * CAT) == (2, 0)
    assert circle_root_counts(IntPoly((1, 0, 1)) * IntPoly((-2, 1))) == (0, 2)
    assert circle_root_counts(IntPoly((1, 0, 1)) * IntPoly((1, 2))) == (1, 2)
    with pytest.raises(ValueError):
        circle_root_counts(IntPoly((1, 1)))


def _box_factors():
    """Every irreducible factor without a root +-1 of the boxes (4,2), (5,2),
    (6,1), (7,1) and the reciprocal boxes (8,2), (10,1)."""
    from torusdyn.survey import enumerate_polynomials
    from torusdyn.zfactor import factor_z_many

    boxes = [(4, 2, False), (5, 2, False), (6, 1, False), (7, 1, False),
             (8, 2, True), (10, 1, True)]
    polys = [IntPoly(c) for d, h, rec in boxes
             for _, c in enumerate_polynomials(d, h, reciprocal_only=rec)]
    found = {q for fs in factor_z_many(polys) for q, _ in fs if q(1) and q(-1)}
    return sorted(found, key=lambda q: (q.degree, q.coeffs))


def test_circle_root_counts_match_the_reference_on_survey_boxes():
    factors = _box_factors()
    assert len(factors) == 3127
    assert sum(1 for q in factors if reference_unitary_roots(q)) > 100
    bad = [q for q in factors
           if circle_root_counts(q) != reference_circle_counts(q)
           or count_unitary_roots(q) != reference_unitary_roots(q)]
    assert bad == []


def test_squarefree_decomposition():
    p = SALEM * SALEM * CAT
    dec = squarefree_decomposition(p)
    assert (CAT, 1) in dec and (SALEM, 2) in dec


def test_gcd_properties():
    rng = random.Random(9)
    for _ in range(40):
        a = IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))] + [1])
        b = IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))] + [1])
        c = IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] + [1])
        g = gcd_z(a * c, b * c)
        assert divides(c, g)
        assert divides(g, a * c)
        assert divides(g, b * c)
