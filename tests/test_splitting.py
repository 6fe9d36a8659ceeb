import json
import random

import numpy as np
import pytest

from conftest import cyclotomic_free, random_unimodular
from torusdyn.errors import InvariantError, NotErgodicError, OutOfHypothesesError
from torusdyn.intmatrix import IntMatrix
from torusdyn.intpoly import IntPoly, count_unitary_roots
from torusdyn.splitting import (
    _factor_spectrum,
    adapted_norm,
    classify,
    classify_poly,
    compute_splitting,
    unit_disk_root_count,
)
from torusdyn.survey import enumerate_polynomials
from torusdyn.zfactor import factor_z

SALEM = IntPoly((1, -1, -1, -1, 1))
PHI5 = IntPoly((1, 1, 1, 1, 1))


def test_non_palindromic_factor_with_unitary_roots_is_an_invariant_error():
    # (x^2 + 1)(x - 2) is not irreducible; handed over as a factor, its
    # roots +-i must not pass as roots off the circle
    q = IntPoly((1, 0, 1)) * IntPoly((-2, 1))
    with pytest.raises(InvariantError, match="not reciprocal"):
        _factor_spectrum(q, [(q, 1)])


def test_disk_count_basics():
    assert unit_disk_root_count(IntPoly((0, 1))) == 1
    assert unit_disk_root_count(IntPoly((-2, 1))) == 0
    assert unit_disk_root_count(IntPoly((0, 0, 1))) == 2
    assert unit_disk_root_count(IntPoly((-1, -1, 1))) == 1  # golden pair
    assert unit_disk_root_count(IntPoly((1, -3, 1))) == 1


def _check_disk_count(p: IntPoly) -> bool:
    """Compare with numpy's roots; False when p has (or nearly has) unitary roots."""
    if p.degree < 1 or p(1) == 0 or p(-1) == 0:
        return False
    if count_unitary_roots(p) != 0:
        return False
    roots = np.roots(list(reversed(p.coeffs)))
    if np.any(np.abs(np.abs(roots) - 1) < 1e-6):
        return False
    assert unit_disk_root_count(p) == int(np.sum(np.abs(roots) < 1)), p
    return True


def test_disk_count_random_vs_numpy():
    rng = random.Random(11)
    checked = 0
    while checked < 250:
        deg = rng.randint(1, 7)
        checked += _check_disk_count(IntPoly([rng.randint(-4, 4) for _ in range(deg)] + [1]))
    # every irreducible factor met in the survey box (5, 2)
    box_factors = {q for _, c in enumerate_polynomials(5, 2) for q, _ in factor_z(IntPoly(c))}
    assert sum(_check_disk_count(q) for q in sorted(box_factors, key=lambda q: q.coeffs)) > 1000


def test_disk_count_rejects_unitary_roots():
    with pytest.raises(ValueError):
        unit_disk_root_count(SALEM)
    with pytest.raises(ValueError):
        unit_disk_root_count(IntPoly((1, 1)))


def _modulus_counts(p):
    """(inside, on, outside) root counts of p w.r.t. the unit circle."""
    r = classify_poly(p)
    return r.dim_stable, r.dim_center, r.dim_unstable


def test_modulus_counts():
    assert _modulus_counts(SALEM) == (1, 2, 1)
    assert _modulus_counts(IntPoly((1, -3, 1))) == (1, 0, 1)
    assert _modulus_counts(SALEM * IntPoly((1, -3, 1))) == (2, 2, 2)


def test_center_dimension_with_roots_of_unity():
    assert classify_poly(PHI5).dim_center == 4
    # (x - 1)(x^2 - x - 1): one root of unity, the golden pair off the circle
    assert classify_poly(IntPoly((-1, 1)) * IntPoly((-1, -1, 1))).dim_center == 1


def test_classify_cat(cat_matrix):
    r = classify(cat_matrix)
    assert r.ergodic and r.anosov and r.dim_center == 0 and r.pseudo_anosov
    assert r.dim_stable == 1 and r.dim_unstable == 1


def test_classify_salem(salem_matrix):
    r = classify(salem_matrix)
    assert r.ergodic and not r.anosov
    assert r.dim_center == 2 and r.dim_stable == 1 and r.dim_unstable == 1
    assert r.pseudo_anosov
    assert r.salem_flags == (True,)


def test_classify_block6(block6_matrix):
    r = classify(block6_matrix)
    assert r.ergodic and not r.anosov and r.dim_center == 2
    assert not r.pseudo_anosov  # char poly reducible
    assert len(r.factors) == 2


def test_classify_poly_matches_companion_classify():
    for _, coeffs in enumerate_polynomials(4, 2):
        p = IntPoly(coeffs)
        assert classify_poly(p).to_json() == classify(IntMatrix.companion(p)).to_json()


def test_classify_json_schema():
    import importlib.resources as res

    import jsonschema

    schema = json.loads(res.files("torusdyn").joinpath("schemas/classification.json").read_text())
    r = classify(IntMatrix.companion(SALEM))
    jsonschema.validate(r.to_json(), schema)


def test_splitting_dims(cat_matrix, salem_matrix, salem_split):
    assert compute_splitting(cat_matrix).dims == (1, 0, 1)
    assert salem_split.dims == (1, 2, 1)


def test_splitting_rejects_roots_of_unity():
    with pytest.raises(NotErgodicError):
        compute_splitting(IntMatrix.companion(PHI5))


def test_splitting_rejects_repeated_center():
    a = IntMatrix.block_diag(IntMatrix.companion(SALEM), IntMatrix.companion(SALEM))
    with pytest.raises(OutOfHypothesesError):
        compute_splitting(a)


def test_splitting_invariance_residuals(salem_matrix, salem_split):
    af = salem_matrix.to_float()
    for b, m in ((salem_split.basis_s, salem_split.block_s),
                 (salem_split.basis_c, salem_split.block_c),
                 (salem_split.basis_u, salem_split.block_u)):
        assert np.max(np.abs(af @ b - b @ m)) <= 1e-9


def test_center_block_is_rotation(salem_split):
    r = salem_split.block_c
    assert np.max(np.abs(r @ r.T - np.eye(2))) <= 1e-12
    assert np.allclose(np.linalg.norm(salem_split.basis_c, axis=0), 1.0, atol=1e-12)


def test_dims_invariant_under_unimodular_conjugation(salem_matrix):
    rng = random.Random(23)
    base = compute_splitting(salem_matrix).dims
    for _ in range(20):
        u = random_unimodular(rng, 4)
        conj = u * salem_matrix * u.inverse_unimodular()
        assert compute_splitting(conj).dims == base


def test_center_dim_stable_under_powers(salem_matrix, block6_matrix):
    for a in (salem_matrix, block6_matrix):
        base = count_unitary_roots(a.char_poly())
        for k in range(2, 7):
            assert count_unitary_roots((a ** k).char_poly()) == base


def test_unitary_factors_have_even_degree_at_least_4():
    rng = random.Random(29)
    checked = 0
    while checked < 120:
        deg = rng.randint(2, 7)
        p = IntPoly([rng.choice([-1, 1])] + [rng.randint(-2, 2) for _ in range(deg - 1)] + [1])
        if p(1) == 0 or p(-1) == 0:
            continue
        if not cyclotomic_free(p):
            continue
        for q, _ in factor_z(p):
            u = count_unitary_roots(q)
            if u > 0:
                assert q.degree % 2 == 0 and q.degree >= 4
        checked += 1


def _project(split, x, flavor):
    """Component of x inside E^flavor, as a vector in R^n."""
    coords = dict(zip("scu", split.components(x)))[flavor]
    return coords @ {"s": split.basis_s, "c": split.basis_c, "u": split.basis_u}[flavor].T


def test_adapted_norm_contractions(salem_split, salem_norm):
    af = salem_split.matrix.to_float()
    rng = np.random.default_rng(0)
    v = rng.normal(size=(1000, 4))
    vs = _project(salem_split, v, "s")
    ratios = salem_norm.norm((af @ vs.T).T) / salem_norm.norm(vs)
    assert np.max(ratios) <= salem_norm.lambda_s * (1 + 1e-12)
    assert salem_norm.lambda_s < 1
    vu = _project(salem_split, v, "u")
    ainv = np.linalg.inv(af)
    ratios = salem_norm.norm((ainv @ vu.T).T) / salem_norm.norm(vu)
    assert np.max(ratios) <= (1 / salem_norm.mu_u) * (1 + 1e-12)
    assert salem_norm.mu_u > 1
    vc = _project(salem_split, v, "c")
    ratios = salem_norm.norm((af @ vc.T).T) / salem_norm.norm(vc)
    assert np.max(np.abs(ratios - 1)) <= 1e-9


def test_adapted_norm_factors_near_spectral_radius():
    # multi-dimensional stable block: glue two hyperbolic blocks
    a = IntMatrix.block_diag(IntMatrix([[2, 1], [1, 1]]), IntMatrix([[3, 1], [2, 1]]))
    split = compute_splitting(a)
    norm = adapted_norm(split)
    rho_s = max(abs(np.linalg.eigvals(split.block_s)))
    assert rho_s <= norm.lambda_s <= 1.05 * rho_s
    rho_u_inv = max(abs(np.linalg.eigvals(np.linalg.inv(split.block_u))))
    assert rho_u_inv <= 1 / norm.mu_u <= 1.05 * rho_u_inv


def test_adapted_norm_theta_validation(salem_split):
    with pytest.raises(ValueError):
        adapted_norm(salem_split, theta=0.1)  # below the stable spectral radius
