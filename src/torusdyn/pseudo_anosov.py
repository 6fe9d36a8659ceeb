"""Power-irreducible ("pseudo-Anosov") subspaces of a toral automorphism.

Finds k and the smallest A^k-invariant rational subspace X containing the
center, together with the primitive lattice L = Z^N  intersect X, such that
the characteristic polynomial of A^k restricted to X stays irreducible for
all powers.  The irreducibility-for-all-powers condition is checked through
its polynomial form (irreducible and not a polynomial in x^m), and can be
cross-validated by sampling cyclic vectors.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import BudgetError, InputError, InvariantError, NotErgodicError, OutOfHypothesesError
from .intmatrix import IntMatrix
from .intpoly import IntPoly, from_power_sums, is_poly_in_xm, power_sums
from .lattice import Lattice, is_cyclic_vector, kernel_lattice
from .splitting import Splitting, _factor_spectrum, _FactorSpectrum, _modulus_counts, compute_splitting
from .zfactor import factor_z, is_irreducible_z


def pa_condition_polynomial(p: IntPoly) -> bool:
    """Condition on the char poly equivalent to all-power irreducibility:
    irreducible over Z and not a polynomial in x^m for any m > 1."""
    if not p.is_monic:
        raise ValueError("expected a monic polynomial")
    return is_irreducible_z(p) and is_poly_in_xm(p) is None


@dataclass(frozen=True)
class CyclicSampleResult:
    ok: bool
    witness_k: Optional[int]
    witness_vector: Optional[tuple[int, ...]]
    vectors_checked: int


def pa_condition_cyclic_sample(
    a: IntMatrix,
    k_max: int = 6,
    trials: int = 100,
    seed: int = 0,
) -> CyclicSampleResult:
    """Falsification check of all-power cyclicity of lattice vectors.

    For each k <= k_max, tests `trials` random nonzero integer vectors plus
    structured candidates taken from kernel lattices of proper factors of
    the char poly of A^k (random vectors are generically cyclic even when
    reducibility makes non-cyclic vectors exist, so the kernel candidates
    are what makes falsification reliable).
    """
    rng = random.Random(seed)
    n = a.n
    s = power_sums(a.char_poly(), n * k_max)
    checked = 0
    ak = IntMatrix.identity(n)
    for k in range(1, k_max + 1):
        ak = ak * a
        candidates: list[tuple[int, ...]] = []
        for q, _mult in factor_z(from_power_sums(s[k - 1:n * k:k])):
            if q.degree < n:
                ker = kernel_lattice(ak.apply_poly(q))
                candidates.extend(ker.basis)
        while len(candidates) < trials:
            v = tuple(rng.randint(-5, 5) for _ in range(n))
            if any(v):
                candidates.append(v)
        for v in candidates[:max(trials, len(candidates))]:
            checked += 1
            if not is_cyclic_vector(ak, v):
                return CyclicSampleResult(False, k, tuple(v), checked)
    return CyclicSampleResult(True, None, None, checked)


@dataclass(frozen=True)
class PASubspace:
    """A^k-invariant subspace X (spanned by the lattice) where the restricted
    map stays irreducible for all powers."""

    k: int
    dim_x: int
    p_k: IntPoly
    lam: Lattice
    center_residual: float

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "dim_x": self.dim_x,
            "p_k_coeffs": list(self.p_k.coeffs),
            "lambda_basis_hnf": [list(r) for r in self.lam.basis],
            "center_residual": self.center_residual,
        }


def _unitary_factor(spectrum: Sequence[_FactorSpectrum]) -> IntPoly:
    """The unique irreducible factor of a factored char poly carrying the two
    unitary roots."""
    hits = []
    for f in spectrum:
        if f.unitary == 2:
            hits.append(f)
        elif f.unitary != 0:
            raise InvariantError("factor with unexpected unitary root count")
    if len(hits) != 1:
        raise InvariantError("expected exactly one factor carrying the unitary pair")
    f = hits[0]
    if f.mult != 1:
        raise OutOfHypothesesError("unitary factor has multiplicity > 1")
    return f.poly


def center_containment_residual(lat: Lattice, split: Splitting) -> float:
    """|| (I - P_X) basis_c ||_max for the orthogonal projector P onto span(X)."""
    if lat.rank == 0:
        return float(np.max(np.abs(split.basis_c))) if split.basis_c.size else 0.0
    q, _ = np.linalg.qr(np.array(lat.basis, dtype=float).T)
    bc = split.basis_c
    return float(np.max(np.abs(bc - q @ (q.T @ bc)))) if bc.size else 0.0


def pseudo_anosov_subspace(
    a: IntMatrix,
    k_max: int = 24,
    split: Optional[Splitting] = None,
    center_tol: float = 1e-9,
) -> PASubspace:
    """Find k <= k_max minimizing the unitary-factor degree and build (X, L).

    Candidates are examined in (degree, k) order; the winner must pass the
    polynomial all-power condition and every structural invariant.  The char
    poly of A^k comes from the power sums of p = char poly of A; A^k itself
    is formed only for a candidate that passes the condition.  A passed
    ``split`` must belong to a and supplies p and its factorization.
    """
    if split is None:
        p = a.char_poly()
        spectrum = _factor_spectrum(p)
    else:
        p, spectrum = split.char_poly, split.spectrum
    if any(f.cyclotomic_index is not None for f in spectrum):
        raise NotErgodicError("matrix has a root-of-unity eigenvalue")
    if _modulus_counts(spectrum)[1] != 2:
        raise OutOfHypothesesError("center dimension is not 2")
    if split is None:
        split = compute_splitting(a, spectrum=spectrum)

    n = a.n
    s = power_sums(p, n * k_max)
    candidates = []
    for k in range(1, k_max + 1):
        spectrum_k = spectrum if k == 1 else _factor_spectrum(from_power_sums(s[k - 1:n * k:k]))
        pk = _unitary_factor(spectrum_k)
        candidates.append((pk.degree, k, pk))
    candidates.sort(key=lambda t: (t[0], t[1]))

    for d, k, pk in candidates:
        if not pa_condition_polynomial(pk):
            continue
        ak = a ** k
        lam = kernel_lattice(ak.apply_poly(pk))
        if lam.rank != d:
            raise InvariantError("kernel lattice rank disagrees with factor degree")
        if d % 2 != 0 or d < 4:
            raise InvariantError("subspace dimension must be even and >= 4")
        if lam.transform(ak) != lam:
            raise InvariantError("lattice is not preserved by A^k")
        resid = center_containment_residual(lam, split)
        if resid > center_tol:
            raise InvariantError(f"center subspace not contained in X (residual {resid:.2e})")
        return PASubspace(k=k, dim_x=d, p_k=pk, lam=lam, center_residual=resid)
    raise BudgetError(f"no power k <= {k_max} passes verification (k_max exceeded)")


def orbit_sublattice(a: IntMatrix, k: int, l: int, n_vec: Sequence[int], pa: PASubspace) -> Lattice:
    """Lattice spanned by n, A^(kl) n, ..., A^(kl(dim_x - 1)) n, in HNF.

    Full rank in X is guaranteed by cyclicity and verified exactly.
    """
    if not any(n_vec):
        raise InputError("n must be a nonzero lattice vector")
    if not pa.lam.contains(n_vec):
        raise InputError("n is not in the invariant lattice")
    step = a ** (k * l)
    rows = []
    v = tuple(int(x) for x in n_vec)
    for _ in range(pa.dim_x):
        rows.append(v)
        v = step.matvec(v)
    gamma = Lattice.from_rows(rows, a.n)
    if gamma.rank != pa.dim_x:
        raise InvariantError("iterates of n do not have full rank in X")
    return gamma
