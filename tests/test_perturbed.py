import json

import numpy as np
import pytest

from conftest import SALEM_CONJUGATE
from torusdyn.errors import InputError
from torusdyn.intmatrix import IntMatrix
from torusdyn.perturbed import PerturbedMap, Shear, TrigProfile, salem_example


def test_profiles_vanish_at_zero():
    prof = TrigProfile(cos_coeffs=(0.3, -0.2), sin_coeffs=(0.1,))
    assert prof.value(0.0) == 0.0
    assert prof.value(1.0) == pytest.approx(0.0, abs=1e-15)


def test_shear_requires_distinct_coordinates():
    with pytest.raises(InputError):
        Shear(target=1, source=1, profile=TrigProfile(sin_coeffs=(1.0,)), amplitude=0.1)


def test_lift_periodicity_and_fixed_point():
    f = salem_example(0.01)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(500, 4)) * 3
    for m in ([1, 0, 0, 0], [-2, 1, 0, 2], [2, 2, -2, -1]):
        lhs = f.apply(x + np.array(m, dtype=float))
        rhs = f.apply(x) + np.array(m, dtype=float) @ f.a_float.T
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
    assert np.max(np.abs(f.apply(np.zeros(4)))) == 0.0


def test_lift_inverse_roundtrip():
    f = salem_example(0.05)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1000, 4)) * 5
    assert np.max(np.abs(f.apply_inverse(f.apply(x)) - x)) <= 1e-10
    assert np.max(np.abs(f.apply(f.apply_inverse(x)) - x)) <= 1e-10


def test_linear_case_is_exact():
    f = salem_example(0.0)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(100, 4))
    assert np.array_equal(f.apply(x), x @ f.a_float.T)


def test_volume_preservation():
    f = salem_example(0.1)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1000, 4)) * 2
    dets = np.linalg.det(f.jacobian(x))
    assert np.max(np.abs(dets - 1.0)) <= 1e-10


def test_jacobian_matches_finite_differences():
    f = salem_example(0.07)
    rng = np.random.default_rng(4)
    for _ in range(5):
        x0 = rng.normal(size=4)
        jac = f.jacobian(x0)
        h = 1e-6
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            col = (f.apply(x0 + e) - f.apply(x0 - e)) / (2 * h)
            assert np.max(np.abs(jac[:, j] - col)) <= 1e-8
        jinv = f.jacobian_inverse(f.apply(x0))
        assert np.max(np.abs(jinv @ jac - np.eye(4))) <= 1e-10


def test_difference_propagation_consistency():
    f = salem_example(0.05)
    rng = np.random.default_rng(5)
    ref = rng.normal(size=(50, 4))
    d = rng.normal(size=(50, 4)) * 0.3
    fwd, bwd = f.reference_chain(ref), f.reference_chain(ref, inverse=True)
    assert np.max(np.abs(f.diff_apply(fwd, d) - (f.apply(ref + d) - f.apply(ref)))) <= 1e-12
    assert np.max(np.abs(
        f.diff_apply_inverse(bwd, d) - (f.apply_inverse(ref + d) - f.apply_inverse(ref))
    )) <= 1e-12


# -- the stored reference chain against re-shearing the reference on each call ----


def _reshearing_diff_apply(f, ref, delta):
    """F(ref + delta) - F(ref), shearing ref along with delta."""
    r = np.array(ref, dtype=float, copy=True)
    d = np.array(delta, dtype=float, copy=True)
    for s in f.shears:
        rs = r[..., s.source]
        d[..., s.target] += s.amplitude * (s.profile.value(rs + d[..., s.source]) - s.profile.value(rs))
        r[..., s.target] += s.amplitude * s.profile.value(rs)
    return d @ f.a_float.T


def _reshearing_diff_apply_inverse(f, ref, delta):
    """F^{-1}(ref + delta) - F^{-1}(ref), shearing ref along with delta."""
    r = np.asarray(ref, dtype=float) @ f.a_inv_float.T
    d = np.asarray(delta, dtype=float) @ f.a_inv_float.T
    for s in reversed(f.shears):
        rs = r[..., s.source]
        d[..., s.target] -= s.amplitude * (s.profile.value(rs + d[..., s.source]) - s.profile.value(rs))
        r[..., s.target] -= s.amplitude * s.profile.value(rs)
    return d


def _chained_shears_map():
    """Salem map whose second shear reads the coordinate the first one moved."""
    f = salem_example(1e-2)
    back = Shear(target=1, source=0, profile=TrigProfile(cos_coeffs=(0.1,), sin_coeffs=(0.05,)),
                 amplitude=1e-2)
    return PerturbedMap(f.matrix, (f.shears[0], back, f.shears[1]))


@pytest.mark.parametrize("matrix", ["salem", "conjugate", "chained"])
def test_reference_chain_is_exactly_the_reshearing_propagation(matrix):
    if matrix == "chained":
        f = _chained_shears_map()
    else:
        f = salem_example(1e-2, a=IntMatrix(SALEM_CONJUGATE) if matrix == "conjugate" else None)
    rng = np.random.default_rng(17)
    refs = rng.uniform(0, 1, size=(57, 9, 4))  # (steps, batch, n), like a segment's orbit
    fwd, bwd = f.reference_chain(refs), f.reference_chain(refs, inverse=True)
    for scale in (0.0, 1e-3, 0.3):  # several sweeps share one chain
        d = rng.normal(size=refs.shape) * scale
        assert np.array_equal(f.diff_apply(fwd, d), _reshearing_diff_apply(f, refs, d))
        assert np.array_equal(f.diff_apply_inverse(bwd, d), _reshearing_diff_apply_inverse(f, refs, d))
    with pytest.raises(ValueError):
        f.diff_apply(bwd, d)
    with pytest.raises(ValueError):
        f.diff_apply_inverse(fwd, d)


def test_c1_bound_scales_with_amplitude():
    assert salem_example(0.02).c1_deviation_bound() == pytest.approx(
        2 * salem_example(0.01).c1_deviation_bound())


def test_json_roundtrip(tmp_path):
    f = salem_example(0.01)
    blob = f.to_json()
    g = PerturbedMap.from_json(blob)
    assert g.to_json() == blob
    rng = np.random.default_rng(6)
    x = rng.normal(size=(20, 4))
    assert np.array_equal(f.apply(x), g.apply(x))
    path = tmp_path / "map.json"
    path.write_text(json.dumps(blob))
    h = PerturbedMap.load(str(path))
    assert h.to_json() == blob


def test_map_json_schema():
    import importlib.resources as res

    import jsonschema

    schema = json.loads(res.files("torusdyn").joinpath("schemas/perturbed_map.json").read_text())
    jsonschema.validate(salem_example(0.01).to_json(), schema)
