from torusdyn.intmatrix import IntMatrix
from torusdyn.intpoly import IntPoly
from torusdyn.lattice import invariant_factors
from torusdyn.survey import classify_entry, companion_minus_identity_snf, enumerate_polynomials


def test_companion_snf_closed_form_matches_smith_form():
    for _, coeffs in enumerate_polynomials(4, 2):
        p = IntPoly(coeffs)
        a = IntMatrix.companion(p)
        expected = invariant_factors((a - IntMatrix.identity(a.n)).rows)
        assert companion_minus_identity_snf(p) == expected, coeffs


def test_conjugacy_key_format():
    entry = classify_entry((3, (1, -1, -1, -1, 1)))
    assert entry["conjugacy_key"] == "cp:[1, -1, -1, -1, 1]|snf:[1, 1, 1, 1]"
