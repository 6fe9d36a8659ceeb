"""Power-irreducible ("pseudo-Anosov") subspaces of a toral automorphism.

Under the paper's hypotheses (ergodic, a two-dimensional center) the
irreducible factor f of the char poly that carries the unitary pair is
irreducible for every power, so k = 1 and X = ker f(A), with the primitive
lattice L = Z^N intersect X (``pseudo_anosov_subspace`` gives the proof).
``pa_condition_cyclic`` checks irreducibility of the powers of any matrix
exactly, by the cyclicity of kernel vectors.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, InvariantError, NotErgodicError, OutOfHypothesesError
from .intmatrix import IntMatrix
from .intpoly import IntPoly, from_power_sums, power_sums
from .lattice import Lattice, is_cyclic_vector, kernel_lattice
from .splitting import (Splitting, _factor_spectrum, _FactorSpectrum, _modulus_counts,
                        compute_splitting, is_ergodic)
from .zfactor import factor_z


@dataclass(frozen=True)
class CyclicResult:
    ok: bool
    witness_k: Optional[int]
    witness_vector: Optional[tuple[int, ...]]


def pa_condition_cyclic(a: IntMatrix, k_max: int = 6) -> CyclicResult:
    """Whether every nonzero integer vector is cyclic for A^k, for every
    k <= k_max; otherwise the least such k and a vector that is not.

    This holds exactly when the char poly p_k of A^k is irreducible for
    every k <= k_max.  If p_k has a proper factor q, ker q(A^k) is not zero
    (q shares a root with p_k), and each of its vectors spans a Krylov space
    of dimension at most deg q < n.  If p_k is irreducible over Q, the
    Krylov space of a nonzero rational vector is a rational A^k-invariant
    subspace, so it is all of Q^n.  So the first basis vector of the kernel
    lattice of p_k's first proper factor is the witness, and one
    ``is_cyclic_vector`` call certifies it.
    """
    if k_max < 1:
        raise InputError(f"k_max must be at least 1, got {k_max}")
    n = a.n
    s = power_sums(a.char_poly(), n * k_max)
    for k in range(1, k_max + 1):
        proper = [q for q, _mult in factor_z(from_power_sums(s[k - 1:n * k:k])) if q.degree < n]
        if proper:
            ak = a ** k
            v = kernel_lattice(ak.apply_poly(proper[0])).basis[0]
            if is_cyclic_vector(ak, v):
                raise InvariantError(f"a kernel vector of a proper factor of p_{k} is cyclic")
            return CyclicResult(False, k, tuple(v))
    return CyclicResult(True, None, None)


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


# the largest distance of the center basis from X that counts as contained
CENTER_TOL = 1e-9


def _check_hypotheses(spectrum: Sequence[_FactorSpectrum]) -> None:
    if not is_ergodic(spectrum):
        raise NotErgodicError("matrix has a root-of-unity eigenvalue")
    if _modulus_counts(spectrum)[1] != 2:
        raise OutOfHypothesesError("center dimension is not 2")


def hypothesis_spectrum(a: IntMatrix) -> list[_FactorSpectrum]:
    """The factored char poly of a, once it shows exactly that a is ergodic
    with a two-dimensional center (NotErgodicError or OutOfHypothesesError
    otherwise).  Check it before any float work, which large entries
    defeat, and pass it on as ``compute_splitting``'s spectrum, so that the
    char poly is factored once."""
    spectrum = _factor_spectrum(a.char_poly())
    _check_hypotheses(spectrum)
    return spectrum


def pseudo_anosov_subspace(
    a: IntMatrix,
    k_max: int = 1,
    split: Optional[Splitting] = None,
) -> PASubspace:
    """The power k = 1 and (X, L), X = ker f(A) for the unitary factor f.

    f is irreducible for every power (Lemma A).  f is not cyclotomic, and
    its only unitary roots are lambda and 1/lambda.  If two distinct roots
    had lambda_i = zeta lambda_j for a root of unity zeta != 1, a Galois map
    sigma with sigma(lambda_j) = lambda would send lambda_i to the unitary
    root sigma(zeta) lambda != lambda, which is 1/lambda, and lambda^2 would
    be a root of unity, against ergodicity.  So for every k the Galois
    conjugates lambda_i^k of lambda^k are distinct, and the char poly of A^k
    on X, their product, is irreducible.  The least k <= k_max with that
    property is therefore 1; ``k_max`` below 1 is an input error.  Every
    structural invariant is verified.  A passed ``split`` must belong to a
    and supplies p and its factorization.
    """
    if k_max < 1:
        raise InputError(f"k_max must be at least 1, got {k_max}")
    if split is None:
        split = compute_splitting(a, spectrum=hypothesis_spectrum(a))
    else:
        _check_hypotheses(split.spectrum)
    f = _unitary_factor(split.spectrum)
    d = f.degree
    lam = kernel_lattice(a.apply_poly(f))
    if lam.rank != d:
        raise InvariantError("kernel lattice rank disagrees with factor degree")
    if d % 2 != 0 or d < 4:
        raise InvariantError("subspace dimension must be even and >= 4")
    if lam.transform(a) != lam:
        raise InvariantError("lattice is not preserved by A")
    resid = center_containment_residual(lam, split)
    if resid > CENTER_TOL:
        raise InvariantError(f"center subspace not contained in X (residual {resid:.2e})")
    return PASubspace(k=1, dim_x=d, p_k=f, lam=lam, center_residual=resid)


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
