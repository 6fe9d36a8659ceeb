import json
import math
import warnings

import numpy as np
import pytest

from conftest import (SALEM_CONJUGATE, apply_inverse, chained_shears_map, harmonics_map,
                      reference_chain, trig_value_oracle)
from torusdyn.errors import InputError
from torusdyn.intmatrix import IntMatrix
from torusdyn.perturbed import TWO_PI, PerturbedMap, Shear, TrigProfile, salem_example, torus_reduce


def _profile_derivative(profile, t):
    """d/dt of a TrigProfile's value, term by term."""
    out = np.zeros_like(t)
    for m, a in enumerate(profile.cos_coeffs, start=1):
        out = out - a * TWO_PI * m * np.sin(TWO_PI * m * t)
    for m, b in enumerate(profile.sin_coeffs, start=1):
        out = out + b * TWO_PI * m * np.cos(TWO_PI * m * t)
    return out


def jacobian(f, x):
    """DF(x) of a PerturbedMap, batched over leading axes: (..., n, n).

    The chain rule through the shears: each one left-multiplies by
    I + d e_target e_source^T, then A is applied."""
    x = np.asarray(x, dtype=float)
    jac = np.broadcast_to(np.eye(f.n), x.shape[:-1] + (f.n, f.n)).copy()
    y = np.array(x, copy=True)
    for s in f.shears:
        d = s.amplitude * _profile_derivative(s.profile, y[..., s.source])
        jac[..., s.target, :] += d[..., None] * jac[..., s.source, :]
        y[..., s.target] += s.amplitude * s.profile.value(y[..., s.source])
    return f.a_float @ jac


def jacobian_inverse(f, y):
    """D(F^-1)(y), batched like jacobian."""
    y = np.asarray(y, dtype=float)
    jac = np.broadcast_to(f.a_inv_float, y.shape[:-1] + (f.n, f.n)).copy()
    x = y @ f.a_inv_float.T
    for s in reversed(f.shears):
        d = s.amplitude * _profile_derivative(s.profile, x[..., s.source])
        jac[..., s.target, :] -= d[..., None] * jac[..., s.source, :]
        x[..., s.target] -= s.amplitude * s.profile.value(x[..., s.source])
    return jac


def test_profiles_vanish_at_zero():
    prof = TrigProfile(cos_coeffs=(0.3, -0.2), sin_coeffs=(0.1,))
    assert prof.value(0.0) == 0.0
    assert prof.value(1.0) == pytest.approx(0.0, abs=1e-15)


PROFILES = {
    "salem sin": salem_example(0.01).shears[0].profile,
    "salem cos and sin": salem_example(0.01).shears[1].profile,
    "cos only": TrigProfile(cos_coeffs=(0.3, -0.2)),
    "sin only": TrigProfile(sin_coeffs=(-0.15, 0.08, 0.02)),
    "zero gaps": TrigProfile(cos_coeffs=(0.1, 0.0, 0.05), sin_coeffs=(0.0, 0.2, 0.03)),
    "empty": TrigProfile(),
}

_T = np.random.default_rng(23).uniform(-3.5, 4.5, size=(6, 7))
PROFILE_INPUTS = {
    "float negative": -1.37,
    "float past 1": 2.61,
    "0-d negative": np.array(-0.4),
    "0-d past 1": np.array(3.2),
    "1-D": _T[0],
    "2-D": _T,
}


@pytest.mark.parametrize("t", list(PROFILE_INPUTS.values()), ids=list(PROFILE_INPUTS))
@pytest.mark.parametrize("profile", list(PROFILES.values()), ids=list(PROFILES))
def test_profile_value_matches_the_oracle(profile, t):
    """The precomputed terms give the values of the term-by-term sum, in the
    shape of t, and leave t as it was."""
    before = np.array(t, copy=True)
    got, want = profile.value(t), trig_value_oracle(profile, t)
    assert np.shape(got) == np.shape(want) == np.shape(t)
    assert np.array_equal(got, want)
    assert np.array_equal(t, before)


def _long_value(profile, t):
    """value(t) in long double: the oracle of the tail increments."""
    t = np.asarray(t, dtype=np.longdouble)
    out = np.zeros_like(t)
    for coeffs, fn, shift in ((profile.cos_coeffs, np.cos, 1), (profile.sin_coeffs, np.sin, 0)):
        for m, c in enumerate(coeffs, start=1):
            out += np.longdouble(c) * (fn(np.longdouble(TWO_PI) * m * t) - shift)
    return out


TAYLOR_PROFILES = dict(PROFILES, **{f"harmonics shear {i}": sh.profile
                                    for i, sh in enumerate(harmonics_map().shears)})


@pytest.mark.parametrize("profile", list(TAYLOR_PROFILES.values()), ids=list(TAYLOR_PROFILES))
def test_tail_increments_match_an_extended_precision_oracle(profile):
    """sum_k taylor(t)[k-1] x^k, summed by Horner as the leaf solver's tail
    does, is within one ulp of sum |c_m| of value(t + x) - value(t) in long
    double, for |x| up to the Taylor radius and t negative or past 1."""
    order = 4
    radius = profile.taylor_radius(order)
    edge = min(radius, 1.0)  # the zero profile's radius is infinite
    rng = np.random.default_rng(41)
    t = rng.uniform(-2.0, 3.0, size=(40, 50))
    x = rng.uniform(-edge, edge, size=t.shape)
    x[0, :2] = edge, -edge
    coeffs = profile.taylor(t, order)
    assert coeffs.shape == (order,) + t.shape
    inc = coeffs[-1] * x
    for a in coeffs[-2::-1]:
        inc += a
        inc *= x
    want = _long_value(profile, t.astype(np.longdouble) + x) - _long_value(profile, t)
    mass = sum(abs(c) for c in profile.cos_coeffs + profile.sin_coeffs)
    if mass == 0:
        assert radius == math.inf and np.array_equal(coeffs, np.zeros_like(coeffs))
    assert np.max(np.abs(inc - want)) <= np.spacing(mass)


@pytest.mark.parametrize("profile", list(TAYLOR_PROFILES.values()), ids=list(TAYLOR_PROFILES))
def test_taylor_radius_bounds_the_remainder_by_the_unit_roundoff(profile):
    """At the radius, the remainder bound sum |c_m| (w_m r)^5 / 5! of the
    order-4 polynomial is 2^-53 sum |c_m|, to rounding."""
    terms = [(TWO_PI * m, abs(c)) for coeffs in (profile.cos_coeffs, profile.sin_coeffs)
             for m, c in enumerate(coeffs, 1) if c]
    r = profile.taylor_radius(4)
    if not terms:
        assert r == math.inf
        return
    bound = sum(c * (w * r) ** 5 for w, c in terms) / 120
    assert bound == pytest.approx(2.0 ** -53 * sum(c for _, c in terms), rel=1e-12)


@pytest.mark.parametrize("cos,sin", [((float("nan"),), ()), ((0.1,), (float("inf"),)),
                                     ((), (1e308, 1e308)), ((1e308,), ())])
def test_profile_rejects_non_finite_coefficients_and_bounds(cos, sin):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflowing bound raises no RuntimeWarning
        with pytest.raises(InputError):
            TrigProfile(cos_coeffs=cos, sin_coeffs=sin)


@pytest.mark.parametrize("amplitude", [float("nan"), float("inf"), -float("inf")])
def test_shear_rejects_a_non_finite_amplitude(amplitude):
    with pytest.raises(InputError):
        Shear(target=0, source=1, profile=TrigProfile(sin_coeffs=(0.1,)), amplitude=amplitude)


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
    assert np.max(np.abs(apply_inverse(f, f.apply(x)) - x)) <= 1e-10
    assert np.max(np.abs(f.apply(apply_inverse(f, x)) - x)) <= 1e-10


def test_linear_case_is_exact():
    f = salem_example(0.0)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(100, 4))
    assert np.array_equal(f.apply(x), x @ f.a_float.T)


def test_volume_preservation():
    f = salem_example(0.1)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1000, 4)) * 2
    dets = np.linalg.det(jacobian(f, x))
    assert np.max(np.abs(dets - 1.0)) <= 1e-10


def test_jacobian_matches_finite_differences():
    f = salem_example(0.07)
    rng = np.random.default_rng(4)
    for _ in range(5):
        x0 = rng.normal(size=4)
        jac = jacobian(f, x0)
        h = 1e-6
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            col = (f.apply(x0 + e) - f.apply(x0 - e)) / (2 * h)
            assert np.max(np.abs(jac[:, j] - col)) <= 1e-8
        jinv = jacobian_inverse(f, f.apply(x0))
        assert np.max(np.abs(jinv @ jac - np.eye(4))) <= 1e-10


def test_difference_propagation_consistency():
    f = salem_example(0.05)
    rng = np.random.default_rng(5)
    ref = rng.normal(size=(50, 4))
    d = rng.normal(size=(50, 4)) * 0.3
    fwd, bwd = reference_chain(f, ref), reference_chain(f, ref, inverse=True)
    assert np.max(np.abs(f.diff_apply(fwd, d) - (f.apply(ref + d) - f.apply(ref)))) <= 1e-12
    assert np.max(np.abs(
        f.diff_apply_inverse(bwd, d) - (apply_inverse(f, ref + d) - apply_inverse(f, ref))
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


@pytest.mark.parametrize("matrix", ["salem", "conjugate", "chained"])
def test_reference_chain_is_exactly_the_reshearing_propagation(matrix):
    if matrix == "chained":
        f = chained_shears_map()
    else:
        f = salem_example(1e-2, a=IntMatrix(SALEM_CONJUGATE) if matrix == "conjugate" else None)
    rng = np.random.default_rng(17)
    refs = rng.uniform(0, 1, size=(57, 9, 4))  # (steps, batch, n), like a segment's orbit
    fwd, bwd = reference_chain(f, refs), reference_chain(f, refs, inverse=True)
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
    h = PerturbedMap.from_json(json.loads(path.read_text()))
    assert h.to_json() == blob


def test_map_json_schema():
    import importlib.resources as res

    import jsonschema

    schema = json.loads(res.files("torusdyn").joinpath("schemas/perturbed_map.json").read_text())
    jsonschema.validate(salem_example(0.01).to_json(), schema)


def test_torus_reduce_is_remainder_bit_for_bit():
    rng = np.random.default_rng(25)
    n = 1_000_000
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 17, n)
    special = np.array([0.0, 1e-20, 1 - 2.0 ** -53, 5e-324, 2.0 ** 53])
    x = np.concatenate([x, special, -special, [2.0 ** 60 + 2048]])
    got, want = torus_reduce(x), np.remainder(x, 1.0)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
