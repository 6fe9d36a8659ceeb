"""Volume-preserving perturbations of a toral automorphism.

The perturbed map is F = A composed with a chain of coordinate shears
x -> x + eps * phi(x_j) e_i (i != j), each exactly volume preserving and
Z^N-periodic, with every profile vanishing at 0 so that F(0) = 0.  The
lift, its exact inverse, and a numerically stable "difference orbit"
primitive (F(r + d) - F(r) without cancellation at large coordinates)
live here.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InputError
from .intmatrix import IntMatrix, matrix_from_json, matrix_to_json

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class TrigProfile:
    """One-periodic trigonometric polynomial, normalized to vanish at 0.

    value(t) = sum_m cos_coeffs[m-1] * (cos(2 pi m t) - 1)
             + sum_m sin_coeffs[m-1] * sin(2 pi m t)
    """

    cos_coeffs: tuple[float, ...] = ()
    sin_coeffs: tuple[float, ...] = ()

    def value(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for m, a in enumerate(self.cos_coeffs, start=1):
            if a:
                out += a * (np.cos(TWO_PI * m * t) - 1.0)
        for m, b in enumerate(self.sin_coeffs, start=1):
            if b:
                out += b * np.sin(TWO_PI * m * t)
        return out

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

    def _shear_inverse(self, y: np.ndarray) -> np.ndarray:
        x = np.array(y, dtype=float, copy=True)
        for s in reversed(self.shears):
            # the source coordinate is untouched by this shear, so the
            # inverse is exact in closed form
            x[..., s.target] -= s.amplitude * s.profile.value(x[..., s.source])
        return x

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._shear_forward(x) @ self.a_float.T

    def apply_inverse(self, y: np.ndarray) -> np.ndarray:
        return self._shear_inverse(np.asarray(y, dtype=float) @ self.a_inv_float.T)

    # -- stable difference propagation -----------------------------------------

    def reference_chain(self, ref: np.ndarray, inverse: bool = False) -> ReferenceChain:
        """The shear chain of F (or of F^{-1} if ``inverse``) evaluated once
        along a fixed reference orbit, for diff_apply (or diff_apply_inverse)."""
        if inverse:
            r = np.asarray(ref, dtype=float) @ self.a_inv_float.T
            shears, sign = reversed(self.shears), -1.0
        else:
            r = np.array(ref, dtype=float, copy=True)
            shears, sign = self.shears, 1.0
        sources, values = [], []
        for s in shears:
            rs = r[..., s.source].copy()
            v = s.profile.value(rs)
            r[..., s.target] += sign * s.amplitude * v
            sources.append(rs)
            values.append(v)
        return ReferenceChain(inverse, tuple(sources), tuple(values))

    def diff_apply(self, chain: ReferenceChain, delta: np.ndarray) -> np.ndarray:
        """F(ref + delta) - F(ref) for chain = reference_chain(ref), computed
        without large-coordinate cancellation."""
        if chain.inverse:
            raise ValueError("diff_apply needs a forward reference chain")
        d = np.array(delta, dtype=float, copy=True)
        for s, rs, v in zip(self.shears, chain.sources, chain.values):
            d[..., s.target] += s.amplitude * (s.profile.value(rs + d[..., s.source]) - v)
        return d @ self.a_float.T

    def diff_apply_inverse(self, chain: ReferenceChain, delta: np.ndarray) -> np.ndarray:
        """F^{-1}(ref + delta) - F^{-1}(ref) for chain = reference_chain(ref,
        inverse=True), stable like diff_apply."""
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

    @staticmethod
    def load(path: str) -> "PerturbedMap":
        with open(path) as fh:
            return PerturbedMap.from_json(json.load(fh))


def torus_reduce(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=float) % 1.0


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
