import itertools
import math
import random
import time

from conftest import lattice_index, random_unimodular
from torusdyn.intmatrix import IntMatrix
from torusdyn.intpoly import IntPoly
from torusdyn.lattice import (
    Lattice,
    invariant_factors,
    is_cyclic_vector,
    kernel_lattice,
)
from torusdyn.zfactor import factor_z

SALEM = IntPoly((1, -1, -1, -1, 1))


def test_hnf_example():
    lat = Lattice.from_rows([(2, 0), (0, 2), (1, 1)], 2)
    assert lat.basis == ((1, 1), (0, 2))


def test_hnf_membership_brute_force():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        vecs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        lat = Lattice.from_rows(vecs, n)
        pts = set()
        for combo in itertools.product(range(-3, 4), repeat=len(vecs)):
            pts.add(tuple(sum(c * v[i] for c, v in zip(combo, vecs)) for i in range(n)))
        for v in pts:
            assert lat.contains(v)
        # membership is exact: a vector off the lattice must be rejected
        if lat.rank == n:
            continue
        for _ in range(5):
            w = tuple(rng.randint(-3, 3) for _ in range(n))
            assert lat.contains(w) == (w in pts or _in_span(vecs, w, n))


def _in_span(vecs, w, n):
    from fractions import Fraction

    import numpy as np

    # rational solvability + integrality via HNF reduction is what we test,
    # so use a plain rational least squares check here
    a = np.array(vecs, dtype=float).T
    sol, res, rank, _ = np.linalg.lstsq(a, np.array(w, dtype=float), rcond=None)
    if res.size and res.max() > 1e-9:
        return False
    recon = a @ np.round(sol)
    return bool(np.allclose(recon, w, atol=1e-9) and np.allclose(sol, np.round(sol), atol=1e-9))


def test_hnf_canonical_under_regeneration():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 4)
        vecs = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(3)]
        lat1 = Lattice.from_rows(vecs, n)
        # generate the same lattice from integer combinations
        combos = []
        for _ in range(4):
            cs = [rng.randint(-2, 2) for _ in range(3)]
            combos.append([sum(cs[k] * vecs[k][i] for k in range(3)) for i in range(n)])
        lat2 = Lattice.from_rows(combos + vecs, n)
        assert lat1 == lat2


def test_snf_examples():
    # the invariant factors are the diagonal of the Smith normal form
    assert invariant_factors(IntMatrix.identity(3).rows) == [1, 1, 1]
    assert invariant_factors([[2, 0], [0, 4]]) == [2, 4]
    assert invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert invariant_factors([[0, 0], [0, 0]]) == []
    assert invariant_factors([[2, 4, 6]]) == [2]


def test_snf_divisibility_chain():
    rng = random.Random(7)
    mix = random.Random(70)
    for _ in range(40):
        n = rng.randint(2, 4)
        a = IntMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])
        diag = invariant_factors(a.rows)
        assert len(diag) == a.rank() and all(x > 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            assert y % x == 0
        if len(diag) == n:
            assert math.prod(diag) == abs(a.det())
        # the invariant factors are those of U A V for unimodular U, V
        u, v = random_unimodular(mix, n), random_unimodular(mix, n)
        assert invariant_factors((u * a * v).rows) == diag


def test_invariant_factors_return_on_a_hard_input():
    # a Smith-form elimination reducing only by floor division does not return on this input
    a = [[-21, -21, 23, -15, 1, -6], [-28, -24, -20, -5, -24, 18], [15, -12, 27, 28, -18, 20],
         [21, 18, -10, 0, 13, 0], [25, 4, 9, -25, 21, -18], [-6, 14, -30, -24, 2, 8]]
    t0 = time.perf_counter()
    factors = invariant_factors(a)
    assert time.perf_counter() - t0 < 1.0
    assert factors == [1, 1, 1, 1, 1, 198261792]
    assert math.prod(factors) == abs(IntMatrix(a).det())


def test_kernel_lattice_trivial():
    assert kernel_lattice(IntMatrix([[0] * 3] * 3)).rank == 3
    k = kernel_lattice(IntMatrix([[1, 0], [0, 0]]))
    assert k.basis == ((0, 1),)


def test_kernel_lattice_block_example():
    a = IntMatrix.block_diag(IntMatrix.companion(SALEM), IntMatrix([[2, 1], [1, 1]]))
    k = kernel_lattice(a.apply_poly(SALEM))
    assert k.rank == 4
    # every basis vector is in the kernel
    m = a.apply_poly(SALEM)
    for b in k.basis:
        assert all(v == 0 for v in m.matvec(b))
    # primitivity: all invariant factors of the basis are 1
    assert invariant_factors(k.basis) == [1, 1, 1, 1]


def test_kernel_primitivity_random():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 5)
        a = IntMatrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        k = kernel_lattice(a)
        if k.rank:
            assert invariant_factors(k.basis) == [1] * k.rank
            for b in k.basis:
                assert all(v == 0 for v in a.matvec(b))


def test_cyclic_vector_examples():
    cat = IntMatrix([[2, 1], [1, 1]])
    assert is_cyclic_vector(cat, (1, 0))
    assert not is_cyclic_vector(IntMatrix.identity(2), (1, 0))
    c = IntMatrix.companion(SALEM)
    assert is_cyclic_vector(c, (1, 0, 0, 0))


def test_cyclic_iff_irreducible_on_corpus():
    rng = random.Random(17)
    irreducible_mats = [IntMatrix.companion(SALEM), IntMatrix([[2, 1], [1, 1]])]
    for a in irreducible_mats:
        for _ in range(50):
            v = tuple(rng.randint(-5, 5) for _ in range(a.n))
            if any(v):
                assert is_cyclic_vector(a, v)
    # reducible: a non-cyclic integer vector lives in the kernel lattice of
    # a proper irreducible factor
    reducible = [
        IntMatrix.block_diag(IntMatrix.companion(SALEM), IntMatrix([[2, 1], [1, 1]])),
        IntMatrix.companion(IntPoly((-1, 0, 0, 0, 1))),
    ]
    for a in reducible:
        found = False
        for q, _ in factor_z(a.char_poly()):
            if q.degree < a.n:
                ker = kernel_lattice(a.apply_poly(q))
                for b in ker.basis:
                    if any(b) and not is_cyclic_vector(a, b):
                        found = True
        assert found


def test_index_in():
    l1 = Lattice.standard(2)
    l2 = Lattice.from_rows([(2, 0), (0, 3)], 2)
    assert lattice_index(l2, l1) == 6
    assert lattice_index(l1, l1) == 1
