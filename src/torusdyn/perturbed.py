"""Volume-preserving perturbations of a toral automorphism.

The perturbed map is F = A composed with a chain of coordinate shears
x -> x + eps * phi(x_j) e_i (i != j), each exactly volume preserving and
Z^N-periodic, with every profile vanishing at 0 so that F(0) = 0.  The
lift, its exact inverse, and a numerically stable "difference orbit"
primitive (F(r + d) - F(r) without cancellation at large coordinates)
live here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import zip_longest
from typing import Iterable

import numpy as np

from .errors import InputError
from .intmatrix import IntMatrix, matrix_from_json, matrix_to_json

TWO_PI = 2.0 * np.pi


@lru_cache(maxsize=None)
def _taylor_weights(pairs: tuple, order: int) -> np.ndarray:
    """The matrix taking the phases cos(m theta), sin(m theta) of the
    harmonics (a_m, b_m) in `pairs` to the Taylor coefficients of orders
    1..order: the k-th derivative of a cos(w t) + b sin(w t) is w^k times p,
    q, -p, -q for k = 0, 1, 2, 3 mod 4, with p = a cos + b sin and
    q = b cos - a sin."""
    weights = np.zeros((order, len(pairs), 2))
    for m, (a, b) in enumerate(pairs, start=1):
        g = 1.0
        for k in range(1, order + 1):
            g *= TWO_PI * m / k
            weights[k - 1, m - 1] = (g if k % 4 in (0, 1) else -g) * np.array((b, -a) if k % 2 else (a, b))
    weights = weights.reshape(order, -1)
    weights.setflags(write=False)
    return weights


@dataclass(frozen=True)
class TrigProfile:
    """One-periodic trigonometric polynomial, normalized to vanish at 0.

    value(t) = sum_m cos_coeffs[m-1] * (cos(2 pi m t) - 1)
             + sum_m sin_coeffs[m-1] * sin(2 pi m t)
    """

    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()
    # the nonzero terms (2 pi m, coefficient, np.cos or np.sin), cos terms first
    _terms: tuple = field(init=False, repr=False, compare=False)
    # (cos, sin) coefficient of each harmonic up to the last nonzero one
    _pairs: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        with np.errstate(over="ignore"):
            finite = (all(math.isfinite(c) for c in self.cos_coeffs + self.sin_coeffs)
                      and math.isfinite(self.derivative_bound()))
        if not finite:
            raise InputError(f"profile coefficients must be finite with a finite derivative bound, "
                             f"got cos {list(self.cos_coeffs)}, sin {list(self.sin_coeffs)}")
        object.__setattr__(self, "_terms", tuple(
            (TWO_PI * m, c, fn)
            for coeffs, fn in ((self.cos_coeffs, np.cos), (self.sin_coeffs, np.sin))
            for m, c in enumerate(coeffs, start=1) if c))
        pairs = list(zip_longest(self.cos_coeffs, self.sin_coeffs, fillvalue=0.0))
        while pairs and not any(pairs[-1]):
            pairs.pop()
        object.__setattr__(self, "_pairs", tuple(pairs))

    def value(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = None
        for w, c, fn in self._terms:
            term = fn(w * t)
            if fn is np.cos:
                term -= 1.0
            term *= c
            if out is None:
                out = term
            else:
                out += term
        return np.zeros_like(t) if out is None else out

    def taylor(self, t: np.ndarray, order: int) -> np.ndarray:
        """The Taylor coefficients value^(k)(t) / k! for k = 1..order, stacked
        on a new first axis: value(t + x) - value(t) = sum_k coeffs[k-1] x^k
        up to the remainder that taylor_radius bounds.

        Only cos and sin of 2 pi t are evaluated; harmonic m's phase comes
        from the angle-multiplication recurrence, so an entry costs two libm
        calls whatever the number of harmonics.  The coefficients are then
        one product of a small matrix with the stacked phases.
        """
        t = np.asarray(t, dtype=float)
        pairs = self._pairs
        if not pairs:
            return np.zeros((order,) + t.shape)
        # rows cos(m theta), sin(m theta) for m = 1..len(pairs), theta = 2 pi t
        phases = np.empty((len(pairs), 2) + t.shape)
        c1, s1 = phases[0]
        np.multiply(t, TWO_PI, out=c1)
        np.sin(c1, out=s1)
        np.cos(c1, out=c1)
        tmp = np.empty_like(c1) if len(pairs) > 1 else None
        for (cp, sp), (cm, sm) in zip(phases, phases[1:]):
            np.multiply(cp, c1, out=cm)
            np.multiply(sp, s1, out=tmp)
            cm -= tmp
            np.multiply(sp, c1, out=sm)
            np.multiply(cp, s1, out=tmp)
            sm += tmp
        weights = _taylor_weights(pairs, order)
        return (weights @ phases.reshape(2 * len(pairs), -1)).reshape((order,) + t.shape)

    def taylor_radius(self, order: int) -> float:
        """The largest |x| at which the remainder of the order-`order` Taylor
        polynomial, sum_m |c_m| (w_m |x|)^(order+1) / (order+1)!, is at most
        2^-53 sum_m |c_m|: below the rounding of value(t + x) - value(t)
        itself.  inf for the zero profile, whose increments are all zero."""
        if not self._terms:
            return math.inf
        mass = sum(abs(c) for _, c, _ in self._terms)
        moment = sum(abs(c) * w ** (order + 1) for w, c, _ in self._terms)
        return (math.factorial(order + 1) * 2.0 ** -53 * mass / moment) ** (1.0 / (order + 1))

    def derivative_bound(self) -> float:
        return sum(TWO_PI * m * abs(a) for m, a in enumerate(self.cos_coeffs, 1)) + \
            sum(TWO_PI * m * abs(b) for m, b in enumerate(self.sin_coeffs, 1))


@dataclass(frozen=True)
class Shear:
    """x -> x + amplitude * profile(x[source]) * e_target, target != source."""

    target: int
    source: int
    profile: TrigProfile
    amplitude: float

    def __post_init__(self):
        if self.target == self.source:
            raise InputError("shear target and source coordinates must differ")
        if not math.isfinite(self.amplitude):
            raise InputError(f"shear amplitude must be finite, got {self.amplitude}")


@dataclass(frozen=True)
class ReferenceChain:
    """A reference orbit's passage through the shear chain, in the order the
    shears are applied: each shear's source coordinate on the partly sheared
    reference, and its profile value there."""

    inverse: bool
    sources: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]


class PerturbedMap:
    """Lift F = A o (shear chain); exactly volume preserving and F(0) = 0."""

    def __init__(self, a: IntMatrix, shears: Iterable[Shear] = ()):
        self.matrix = a
        self.shears = tuple(shears)
        for s in self.shears:
            if not (0 <= s.target < a.n and 0 <= s.source < a.n):
                raise InputError("shear coordinates out of range")
        self.a_float = a.to_float()
        self.a_inv = a.inverse_unimodular()
        self.a_inv_float = self.a_inv.to_float()

    @property
    def n(self) -> int:
        return self.matrix.n

    def c1_deviation_bound(self) -> float:
        """Reported estimate of the C^1 distance of the shear chain to the identity."""
        return sum(abs(s.amplitude) * s.profile.derivative_bound() for s in self.shears)

    # -- evaluation -----------------------------------------------------------

    def _shear_forward(self, x: np.ndarray) -> np.ndarray:
        y = np.array(x, dtype=float, copy=True)
        for s in self.shears:
            y[..., s.target] += s.amplitude * s.profile.value(y[..., s.source])
        return y

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._shear_forward(x) @ self.a_float.T

    # -- stable difference propagation -----------------------------------------

    def diff_apply(self, chain: ReferenceChain, delta: np.ndarray) -> np.ndarray:
        """F(ref + delta) - F(ref) for the forward reference chain of ref,
        computed without large-coordinate cancellation."""
        if chain.inverse:
            raise ValueError("diff_apply needs a forward reference chain")
        d = np.array(delta, dtype=float, copy=True)
        for s, rs, v in zip(self.shears, chain.sources, chain.values):
            d[..., s.target] += s.amplitude * (s.profile.value(rs + d[..., s.source]) - v)
        return d @ self.a_float.T

    def diff_apply_inverse(self, chain: ReferenceChain, delta: np.ndarray) -> np.ndarray:
        """F^{-1}(ref + delta) - F^{-1}(ref) for the inverse reference chain
        of ref, stable like diff_apply."""
        if not chain.inverse:
            raise ValueError("diff_apply_inverse needs an inverse reference chain")
        d = np.asarray(delta, dtype=float) @ self.a_inv_float.T
        for s, rs, v in zip(reversed(self.shears), chain.sources, chain.values):
            d[..., s.target] -= s.amplitude * (s.profile.value(rs + d[..., s.source]) - v)
        return d

    # -- serialization -----------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "matrix": matrix_to_json(self.matrix),
            "shears": [
                {
                    "target": s.target,
                    "source": s.source,
                    "cos": list(s.profile.cos_coeffs),
                    "sin": list(s.profile.sin_coeffs),
                    "amplitude": s.amplitude,
                }
                for s in self.shears
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "PerturbedMap":
        if not isinstance(obj, dict) or "matrix" not in obj:
            raise InputError("perturbed map JSON needs a 'matrix' field")
        try:
            a = matrix_from_json(obj["matrix"])
        except ValueError as exc:
            raise InputError(str(exc)) from exc
        shears = []
        for rec in obj.get("shears", []):
            try:
                shears.append(
                    Shear(
                        target=int(rec["target"]),
                        source=int(rec["source"]),
                        profile=TrigProfile(
                            cos_coeffs=tuple(float(c) for c in rec.get("cos", [])),
                            sin_coeffs=tuple(float(c) for c in rec.get("sin", [])),
                        ),
                        amplitude=float(rec["amplitude"]),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"bad shear record: {exc}") from exc
        return PerturbedMap(a, shears)


def torus_reduce(x: np.ndarray) -> np.ndarray:
    """x mod 1 as x - floor(x): bit for bit np.remainder(x, 1.0) on every
    finite x (x - floor(x) is exact for x >= 0, for x < 0 both round the
    exact 1 - frac once, and -0.0 gives +0.0), at a tenth of its cost."""
    x = np.asarray(x, dtype=float)
    return x - np.floor(x)


def salem_example(amplitude: float, a: IntMatrix | None = None) -> PerturbedMap:
    """Standard N=4 test map: the quartic Salem companion with two shears."""
    if a is None:
        from .intpoly import IntPoly

        a = IntMatrix.companion(IntPoly((1, -1, -1, -1, 1)))
    inv2pi = 1.0 / TWO_PI
    shears = (
        Shear(target=0, source=1, profile=TrigProfile(sin_coeffs=(inv2pi,)), amplitude=amplitude),
        Shear(target=2, source=3, profile=TrigProfile(cos_coeffs=(0.5 * inv2pi,), sin_coeffs=(0.0, 0.25 * inv2pi)), amplitude=amplitude),
    )
    return PerturbedMap(a, shears)
