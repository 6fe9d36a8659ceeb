import json
import random

import numpy as np
import pytest

from conftest import (
    lattice_index,
    power_search_subspace,
    random_unimodular,
    sampled_cyclic_condition,
)
from torusdyn.errors import InputError, InvariantError, OutOfHypothesesError
from torusdyn.intmatrix import IntMatrix
from torusdyn.intpoly import IntPoly, count_unitary_roots
from torusdyn.lattice import Lattice, kernel_lattice
from torusdyn.pseudo_anosov import (
    orbit_sublattice,
    pa_condition_cyclic,
    pseudo_anosov_subspace,
)
from torusdyn.splitting import classify, classify_poly, compute_splitting
from torusdyn.survey import run_survey
from torusdyn.zfactor import factor_z

SALEM = IntPoly((1, -1, -1, -1, 1))


def restricted_matrix(a: IntMatrix, lat: Lattice) -> IntMatrix:
    """Matrix of A acting on the lattice, in lattice coordinates (exact)."""
    rows = []
    for b in lat.basis:
        coords = lat.coordinates(a.matvec(b))
        if coords is None:
            raise InvariantError("lattice is not invariant under the matrix")
        rows.append(coords)
    # coordinates() returns row-action coordinates; the action matrix sends
    # coordinate columns, so transpose.
    return IntMatrix(list(zip(*rows)))


def test_condition_polynomial_examples():
    assert classify_poly(SALEM)["pseudo_anosov"]
    assert not classify_poly(IntPoly((1, 0, 1, 0, 1)))["pseudo_anosov"]  # q(x^2)
    assert not classify_poly(IntPoly((-1, 0, 0, 0, 1)))["pseudo_anosov"]  # reducible


def test_condition_cyclic_sample_examples(salem_matrix):
    r = pa_condition_cyclic(salem_matrix, 6)
    assert r.ok and r.witness_k is None and r.witness_vector is None
    # p(x) = q(x^2): the square has repeated factors, witnessed at k = 2
    a2 = IntMatrix.companion(IntPoly((-1, 0, -1, 0, 1)))
    r = pa_condition_cyclic(a2, 6)
    assert not r.ok and r.witness_k == 2
    assert sampled_cyclic_condition(a2, 6, 100, seed=1) == (False, 2, r.witness_vector)
    r = pa_condition_cyclic(IntMatrix.identity(3), 2)
    assert (r.ok, r.witness_k, r.witness_vector) == (False, 1, (1, 0, 0))


def test_conditions_agree_on_mixed_corpus(block6_matrix, salem_matrix, cat_matrix):
    mats = [salem_matrix, cat_matrix, block6_matrix,
            IntMatrix.companion(IntPoly((-1, 0, -1, 0, 1))),
            IntMatrix.companion(IntPoly((1, 2, 0, -1, 1)))]
    rng = random.Random(4)
    while len(mats) < 25:
        deg = rng.randint(2, 5)
        p = IntPoly([rng.choice([-1, 1])] + [rng.randint(-2, 2) for _ in range(deg - 1)] + [1])
        mats.append(IntMatrix.companion(p))
    for a in mats:
        poly_ok = classify(a)["pseudo_anosov"]
        exact = pa_condition_cyclic(a, 6)
        assert poly_ok == exact.ok, a.rows
        # the sampled form, with random vectors beside the kernel vectors,
        # reaches the same verdict, witness power and witness vector
        assert sampled_cyclic_condition(a, 6, 100, seed=7) == (exact.ok, exact.witness_k,
                                                               exact.witness_vector), a.rows


def test_pa_subspace_salem(salem_matrix, salem_pa):
    assert salem_pa.k == 1
    assert salem_pa.dim_x == 4
    assert salem_pa.p_k == SALEM
    assert salem_pa.lam == Lattice.standard(4)
    assert salem_pa.center_residual <= 1e-9


def _lemma_corpus(block6_matrix, salem_matrix):
    """Every ergodic companion with a two-dimensional center in boxes (4,3),
    (6,1), (6,2) and (8,1); the 6x6 block, whose char poly is reducible but
    whose unitary factor is simple, and three of its conjugates; and 20
    GL(4,Z) conjugates of the Salem companion."""
    mats = []
    for dim, height in ((4, 3), (6, 1), (6, 2), (8, 1)):
        for line in run_survey(dim, height)[0]:
            e = json.loads(line)
            if e["report"]["ergodic"] and e["report"]["dim_center"] == 2:
                mats.append(IntMatrix.companion(IntPoly(tuple(e["coeffs"]))))
    assert len(mats) == 64
    rng = random.Random(30)
    mats.append(block6_matrix)
    for _ in range(3):
        u = random_unimodular(rng, 6)
        mats.append(u * block6_matrix * u.inverse_unimodular())
    for _ in range(20):
        u = random_unimodular(rng, 4)
        mats.append(u * salem_matrix * u.inverse_unimodular())
    return mats


def test_k1_matches_the_power_search(block6_matrix, salem_matrix):
    """Lemma A: under the hypotheses the unitary factor is irreducible for
    every power, so the (degree, k) search over k <= 24 returns k = 1 and
    the same (X, L) as the direct construction."""
    for a in _lemma_corpus(block6_matrix, salem_matrix):
        got = pseudo_anosov_subspace(a, split=compute_splitting(a))
        want = power_search_subspace(a, 24)
        assert want is not None and want.k == 1, a.rows
        assert (got.k, got.dim_x, got.p_k, got.lam, got.center_residual) == (
            want.k, want.dim_x, want.p_k, want.lam, want.center_residual), a.rows


def test_pa_subspace_block6(block6_matrix):
    pa = pseudo_anosov_subspace(block6_matrix, 8)
    assert pa.k == 1 and pa.dim_x == 4
    assert pa.p_k == SALEM
    expected = Lattice.from_rows(
        [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0)], 6)
    assert pa.lam == expected
    m = restricted_matrix(block6_matrix, pa.lam)
    assert m.char_poly() == SALEM


def test_pa_subspace_rejections(cat_matrix):
    with pytest.raises(OutOfHypothesesError):
        pseudo_anosov_subspace(cat_matrix, 4)  # dim E^c = 0
    from torusdyn.errors import NotErgodicError

    with pytest.raises(NotErgodicError):
        pseudo_anosov_subspace(IntMatrix.companion(IntPoly((1, 1, 1, 1, 1))), 4)


@pytest.mark.parametrize("k_max", [0, -3])
def test_a_power_bound_below_one_is_an_input_error(salem_matrix, k_max):
    """No power k <= k_max exists to search, which is bad input and not an
    exhausted budget."""
    with pytest.raises(InputError):
        pseudo_anosov_subspace(salem_matrix, k_max)
    with pytest.raises(InputError):
        pa_condition_cyclic(salem_matrix, k_max)


def test_pa_subspace_lattice_invariance(block6_matrix):
    pa = pseudo_anosov_subspace(block6_matrix, 6)
    ak = block6_matrix ** pa.k
    assert pa.lam.transform(ak) == pa.lam


def test_pa_subspace_power_stability(salem_matrix, block6_matrix):
    for a in (salem_matrix, block6_matrix):
        pa = pseudo_anosov_subspace(a, 8)
        for ell in (2, 3):
            akl = a ** (pa.k * ell)
            hits = [q for q, _ in factor_z(akl.char_poly()) if count_unitary_roots(q) == 2]
            assert len(hits) == 1
            xkl = kernel_lattice(akl.apply_poly(hits[0]))
            assert xkl == pa.lam


def test_pa_subspace_equivariance(block6_matrix):
    rng = random.Random(31)
    pa = pseudo_anosov_subspace(block6_matrix, 6)
    for _ in range(3):
        u = random_unimodular(rng, 6)
        conj = u * block6_matrix * u.inverse_unimodular()
        pa2 = pseudo_anosov_subspace(conj, 6)
        assert (pa2.k, pa2.dim_x) == (pa.k, pa.dim_x)
        mapped = Lattice.from_rows([u.matvec(b) for b in pa.lam.basis], 6)
        assert pa2.lam == mapped


def test_orbit_sublattice(salem_matrix, salem_pa):
    g = orbit_sublattice(salem_matrix, salem_pa.k, 1, (1, 0, 0, 0), salem_pa)
    # companion cyclicity makes the iterate matrix unimodular
    assert g == Lattice.standard(4)
    assert lattice_index(g, salem_pa.lam) == 1
    g2 = orbit_sublattice(salem_matrix, salem_pa.k, 2, (1, 1, 0, 0), salem_pa)
    assert g2.rank == 4
    # index equals |det| of the iterate matrix in lattice coordinates
    step = salem_matrix ** 2
    rows = []
    v = (1, 1, 0, 0)
    for _ in range(4):
        rows.append(list(v))
        v = step.matvec(v)
    assert lattice_index(g2, salem_pa.lam) == abs(IntMatrix(rows).det())


def test_orbit_sublattice_rejects_zero(salem_matrix, salem_pa):
    with pytest.raises(InputError):
        orbit_sublattice(salem_matrix, 1, 1, (0, 0, 0, 0), salem_pa)


def test_center_containment(salem_pa, salem_split):
    q, _ = np.linalg.qr(np.array(salem_pa.lam.basis, dtype=float).T)
    bc = salem_split.basis_c
    assert np.max(np.abs(bc - q @ (q.T @ bc))) <= 1e-9
