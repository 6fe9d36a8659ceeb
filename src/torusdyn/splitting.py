"""Spectral splitting of a toral automorphism and its adapted norms.

The splitting into stable / center / unstable subspaces is computed
numerically (spectral projectors from the matrix sign function, ranked by
the exact counts), but every discrete claim -- the three dimensions,
per-factor root counts, Salem flags -- is certified by exact integer
arithmetic on one factorization of the char poly: per factor, one
Routh-Hurwitz remainder sequence gives both the roots on the unit circle
(the real roots of its last element) and those inside it (a Cauchy index
read at +-infinity).  ``report_json`` writes the classification report
from that factorization as JSON text; ``classify`` and the survey's
catalog lines both read it.
"""
from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import InvariantError, NotErgodicError, OutOfHypothesesError
from .intmatrix import IntMatrix
from .intpoly import (
    ONE,
    IntPoly,
    circle_root_counts,
    cyclotomic,
    cyclotomic_indices_up_to_degree,
    is_poly_in_xm,
    is_reciprocal,
)
from .zfactor import factor_z

# -- exact root location on / inside the unit circle ---------------------------


def unit_disk_root_count(p: IntPoly) -> int:
    """Number of roots strictly inside the unit circle, with multiplicity.

    Requires that p has no root of modulus one; see ``circle_root_counts``.
    """
    inside, on = circle_root_counts(p)
    if on:
        raise ValueError("root of modulus one")
    return inside


@lru_cache(maxsize=None)
def _cyclotomic_indices_by_coeffs(degree: int) -> dict[tuple[int, ...], int]:
    """The coefficients of each cyclotomic polynomial of this degree -> its index."""
    return {cyclotomic(m).coeffs: m for m in cyclotomic_indices_up_to_degree(degree)
            if cyclotomic(m).degree == degree}


def _cyclotomic_index_of(q: IntPoly) -> Optional[int]:
    return _cyclotomic_indices_by_coeffs(q.degree).get(q.coeffs)


@dataclass(frozen=True)
class _FactorSpectrum:
    """One irreducible factor of a char poly and its root counts."""

    poly: IntPoly
    mult: int
    cyclotomic_index: Optional[int]
    unitary: int
    inside: int

    @property
    def outside(self) -> int:
        return self.poly.degree - self.unitary - self.inside


def _factor_spectrum(p: IntPoly, factors: Optional[list[tuple[IntPoly, int]]] = None
                     ) -> list[_FactorSpectrum]:
    """Locate the roots of each irreducible factor of monic p.

    ``factors`` is ``factor_z(p)`` when the caller already has it; otherwise
    p is factored here.  A cyclotomic factor has all its roots on the
    circle; every other factor goes through ``circle_root_counts``, one
    remainder sequence that counts its roots inside and on the circle.
    """
    out = []
    for q, mult in factor_z(p) if factors is None else factors:
        cyc = _cyclotomic_index_of(q)
        inside, u = (0, q.degree) if cyc is not None else circle_root_counts(q)
        out.append(_FactorSpectrum(q, mult, cyc, u, inside))
    return out


def _modulus_counts(spectrum: list[_FactorSpectrum]) -> tuple[int, int, int]:
    """(stable, center, unstable) dimensions: the roots inside, on and
    outside the unit circle, with multiplicity."""
    inside = on = outside = 0
    for f in spectrum:
        inside += f.mult * f.inside
        on += f.mult * f.unitary
        outside += f.mult * f.outside
    return inside, on, outside


# -- the negation / reversal symmetry -------------------------------------------
# On monic q of degree d with q(0) = +-1, negation q(x) -> (-1)^d q(-x) and
# reversal q(x) -> q(0) x^d q(1/x) are commuting involutions.  Both keep q monic
# with q(0) = +-1, are multiplicative, and map irreducibles to irreducibles.
# Negation maps the roots z to -z, reversal maps them to 1/z.


@lru_cache(maxsize=None)
def _negation_signs(degree: int) -> tuple[int, ...]:
    return tuple(-1 if (degree - k) & 1 else 1 for k in range(degree + 1))


def negation(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Ascending coefficients of (-1)^d q(-x)."""
    return tuple(map(operator.mul, coeffs, _negation_signs(len(coeffs) - 1)))


def reversal(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """Ascending coefficients of q(0) x^d q(1/x)."""
    return coeffs[::-1] if coeffs[0] == 1 else tuple(-c for c in reversed(coeffs))


def image_spectrum(spectrum: list[_FactorSpectrum], negate: bool, reverse: bool
                   ) -> list[_FactorSpectrum]:
    """``_factor_spectrum`` of the image of p under negation, then reversal,
    from ``spectrum``, that of p: each factor maps to its image with its
    multiplicity and unitary count; reversal swaps the roots inside and
    outside the circle."""
    out = []
    for f in spectrum:
        coeffs = f.poly.coeffs
        if negate:
            coeffs = negation(coeffs)
        if reverse:
            coeffs = reversal(coeffs)
        q = IntPoly(coeffs)
        out.append(_FactorSpectrum(q, f.mult, _cyclotomic_index_of(q), f.unitary,
                                   f.outside if reverse else f.inside))
    return sorted(out, key=lambda f: (f.poly.degree, f.poly.coeffs))


# -- classification report -----------------------------------------------------
# The verdicts below are the only statement of each fact, and ``report_json``
# the only statement of the report's layout.


def is_ergodic(spectrum: list[_FactorSpectrum]) -> bool:
    """No eigenvalue is a root of unity: no factor is cyclotomic."""
    return all(f.cyclotomic_index is None for f in spectrum)


def factor_flags(f: _FactorSpectrum) -> tuple[bool, bool]:
    """(reciprocal, salem) of one factor: its coefficients are palindromic,
    and it is a reciprocal non-cyclotomic factor with all roots but two on
    the unit circle."""
    reciprocal = is_reciprocal(f.poly)
    return reciprocal, (f.cyclotomic_index is None and f.unitary >= 2
                        and f.unitary == f.poly.degree - 2 and reciprocal)


def is_pseudo_anosov(p: IntPoly, spectrum: list[_FactorSpectrum]) -> bool:
    """p, with factors ``spectrum``, is irreducible and no polynomial in x^m
    for m > 1."""
    return len(spectrum) == 1 and spectrum[0].mult == 1 and is_poly_in_xm(p) is None


# JSON of a bool
_BOOL = ("false", "true")


@lru_cache(maxsize=256)
def _json_ints(coeffs: tuple[int, ...]) -> str:
    """JSON of Python ints, the str() of their list; cached, since a catalog
    line writes its coefficients up to three times and small factors recur."""
    return str(list(coeffs))


def report_json(p: IntPoly, spectrum: list[_FactorSpectrum]) -> tuple[str, tuple[int, bool, bool]]:
    """The classification of the automorphism with char poly p, read from
    ``spectrum``, its ``_factor_spectrum``; p(0) is +-1.

    Returns the report's text, ``json.dumps(report, sort_keys=True)`` for
    the report ``schemas/classification.json`` describes, written out here
    directly, and the (dim_center, ergodic, pseudo_anosov) it was written
    from.
    """
    stable, center, unstable = _modulus_counts(spectrum)
    ergodic, pa = is_ergodic(spectrum), is_pseudo_anosov(p, spectrum)
    factors, salem_flags = [], []
    for f in spectrum:
        reciprocal, salem = factor_flags(f)
        cyc = "null" if f.cyclotomic_index is None else f.cyclotomic_index
        factors.append(f'{{"coeffs": {_json_ints(f.poly.coeffs)}, "cyclotomic_index": {cyc}, '
                       f'"degree": {f.poly.degree}, "multiplicity": {f.mult}, '
                       f'"reciprocal": {_BOOL[reciprocal]}, "salem": {_BOOL[salem]}, '
                       f'"unitary_roots": {f.unitary}}}')
        salem_flags.append(_BOOL[salem])
    text = (f'{{"anosov": {_BOOL[center == 0]}, "char_poly": {_json_ints(p.coeffs)}, '
            f'"dim_center": {center}, "dim_stable": {stable}, "dim_unstable": {unstable}, '
            f'"ergodic": {_BOOL[ergodic]}, "factors": [{", ".join(factors)}], '
            f'"n": {p.degree}, "pseudo_anosov": {_BOOL[pa]}, '
            f'"salem_flags": [{", ".join(salem_flags)}]}}')
    return text, (center, ergodic, pa)


def classify_poly(p: IntPoly) -> dict:
    """Exact algebraic classification of the automorphism with char poly p:
    the report of ``report_json``, parsed."""
    det = p.coeffs[0] * (1 if p.degree % 2 == 0 else -1)
    if det not in (1, -1):
        raise OutOfHypothesesError("determinant is not +-1; not a torus automorphism")
    return json.loads(report_json(p, _factor_spectrum(p))[0])


def classify(a: IntMatrix) -> dict:
    """Exact algebraic classification of the induced torus automorphism: the
    report dict of ``classify_poly``."""
    return classify_poly(a.char_poly())


# -- numerical splitting ---------------------------------------------------------


@dataclass
class Splitting:
    """Numerical bases for E^s, E^c, E^u with exactly certified dimensions."""

    matrix: IntMatrix
    dims: tuple[int, int, int]
    basis_s: np.ndarray
    basis_c: np.ndarray
    basis_u: np.ndarray
    block_s: np.ndarray
    block_c: np.ndarray
    block_u: np.ndarray
    char_poly: IntPoly
    spectrum: list[_FactorSpectrum]
    basis: np.ndarray = field(init=False)
    coords: np.ndarray = field(init=False)

    def __post_init__(self):
        self.basis = np.hstack([b for b in (self.basis_s, self.basis_c, self.basis_u) if b.size]) \
            if sum(self.dims) else np.zeros((self.matrix.n, 0))
        self.coords = np.linalg.inv(self.basis)

    @property
    def n(self) -> int:
        return self.matrix.n

    def components(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coordinates of x in the (s, c, u) blocks; x has shape (..., n)."""
        c = np.asarray(x) @ self.coords.T
        ds, dc, _ = self.dims
        return c[..., :ds], c[..., ds:ds + dc], c[..., ds + dc:]


def _rotation_basis(a_float: np.ndarray, basis_c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rescale a 2-dim center basis so the induced block is an exact rotation
    with equal-norm (unit) columns."""
    m = np.linalg.lstsq(basis_c, a_float @ basis_c, rcond=None)[0]
    evals, evecs = np.linalg.eig(m)
    i = int(np.argmax(evals.imag))
    if abs(evals[i].imag) < 1e-12:
        raise InvariantError("center block has no complex rotation pair")
    w = evecs[:, i]
    a_vec, b_vec = w.real, -w.imag
    # pick the eigenvector phase that equalizes the two column norms:
    # |a'|^2 - |b'|^2 = alpha cos(2 phi) - beta sin(2 phi) with
    alpha = float(a_vec @ a_vec - b_vec @ b_vec)
    beta = float(2 * a_vec @ b_vec)
    phi = 0.5 * np.arctan2(alpha, beta) if (alpha or beta) else 0.0
    ca, sa = np.cos(phi), np.sin(phi)
    a2 = ca * a_vec - sa * b_vec
    b2 = sa * a_vec + ca * b_vec
    if abs(a2 @ a2 - b2 @ b2) > 1e-9 * max(1.0, float(a2 @ a2)):
        raise InvariantError("failed to equalize center column norms")
    cols = basis_c @ np.column_stack([a2, b2])
    cols /= np.linalg.norm(cols[:, 0])
    mrot = np.linalg.lstsq(cols, a_float @ cols, rcond=None)[0]
    return cols, mrot


# Newton's iteration for the matrix sign function converges quadratically.
# It stops at the first step whose relative change is at most SIGN_TOL: the
# error of that step is about the square of its change, so it is accurate to
# rounding.  Once a change is below SIGN_STALL it also stops at the first
# change that does not halve the one before: the iterates have reached their
# rounding floor, which an ill-conditioned A raises above SIGN_TOL (about
# 1e-7 at entries near 1e5).  It fails after SIGN_MAX_STEPS.
SIGN_TOL = 1e-10
SIGN_STALL = 1e-2
SIGN_MAX_STEPS = 100


def _spectral_projector(af: np.ndarray, r: float) -> np.ndarray:
    """P(r) = (I - sign(C_r))/2 with C_r = (A + rI)^-1 (A - rI), the projector
    onto the invariant subspace of the eigenvalues of modulus below r.

    The Cayley transform C_r maps |lambda| < r into the left half plane and
    |lambda| > r into the right one; sign(C_r) comes from Newton's iteration
    S <- (S + S^-1)/2 (Higham, Functions of Matrices, SIAM 2008, ch. 5).
    No eigenvalue may have modulus r.
    """
    eye = np.eye(af.shape[0])
    s = np.linalg.solve(af + r * eye, af - r * eye)
    last = float("inf")
    for _ in range(SIGN_MAX_STEPS):
        step = 0.5 * (s + np.linalg.inv(s))
        change = float(np.max(np.abs(step - s)) / np.max(np.abs(step)))
        if change <= SIGN_TOL or (last <= SIGN_STALL and change > 0.5 * last):
            return 0.5 * (eye - step)
        s, last = step, change
    raise InvariantError(f"sign iteration at radius {r:.6g} did not converge in "
                         f"{SIGN_MAX_STEPS} steps (last relative change {change:.2e})")


def _range_basis(p: np.ndarray, k: int) -> np.ndarray:
    """The k leading left singular vectors of p: an orthonormal basis of its
    range when p has rank k."""
    return np.linalg.svd(p)[0][:, :k]


def _first_entry_negative(col: np.ndarray) -> bool:
    return bool(col[np.flatnonzero(np.abs(col) > 1e-12)[0]] < 0)


def _oriented(b: np.ndarray) -> np.ndarray:
    """b with each column negated where needed so that its first entry of
    magnitude above 1e-12 is negative."""
    return b * np.array([1.0 if _first_entry_negative(c) else -1.0 for c in b.T])


def compute_splitting(a: IntMatrix, spectrum: Optional[list[_FactorSpectrum]] = None) -> Splitting:
    """Invariant splitting with exactly certified dimensions.

    ``spectrum``, when given, is ``_factor_spectrum`` of the char poly of a,
    so the caller's factorization is reused.  Raises NotErgodicError if
    some eigenvalue is a root of unity.

    The exact counts (ns, nc, nu) rank the sorted float moduli of the
    eigenvalues: the ns least are stable, the nu greatest unstable.  The
    radii r_s and r_u are the geometric means across the two gaps, and the
    spectral projectors P(r) (``_spectral_projector``) give E^s = range
    P(r_s), E^u = range (I - P(r_u)) and E^c = range (P(r_u) - P(r_s)), each
    with an orthonormal basis of exactly its certified dimension.  A
    two-dimensional center is then rescaled to a rotation basis.  Signs are
    fixed: the first entry of magnitude above 1e-12 is negative in every
    stable and unstable column, in the center pair's first column and in
    every column of a larger center.  InvariantError is raised if the
    moduli do not separate at the counts, the sign iteration does not
    converge, or a subspace fails its invariance check.
    """
    if spectrum is None:
        p = a.char_poly()
        spectrum = _factor_spectrum(p)
    else:
        p = ONE
        for f in spectrum:
            for _ in range(f.mult):
                p = p * f.poly
    if not is_ergodic(spectrum):
        raise NotErgodicError("an eigenvalue is a root of unity")
    ns, nc, nu = _modulus_counts(spectrum)
    # unit-modulus roots must be simple for the rotation construction
    if any(f.mult > 1 and f.unitary > 0 for f in spectrum):
        raise OutOfHypothesesError("repeated unit-modulus eigenvalues")
    af = a.to_float()
    n = a.n
    moduli = np.sort(np.abs(np.linalg.eigvals(af)))

    def projector(k: int) -> np.ndarray:
        """The projector onto the k eigenvalues of least modulus."""
        if k == 0:
            return np.zeros((n, n))
        if k == n:
            return np.eye(n)
        lo, hi = moduli[k - 1], moduli[k]
        if not lo < hi:
            raise InvariantError(f"eigenvalue moduli do not separate at the exact counts "
                                 f"{(ns, nc, nu)}")
        return _spectral_projector(af, float(np.sqrt(lo * hi)))

    p_s = projector(ns)
    p_u = projector(ns + nc) if nc else p_s
    bs = _oriented(_range_basis(p_s, ns))
    bc = _range_basis(p_u - p_s, nc)
    bu = _oriented(_range_basis(np.eye(n) - p_u, nu))
    if nc == 2:
        bc, mc = _rotation_basis(af, bc)
        if not _first_entry_negative(bc[:, 0]):
            bc = -bc
    else:
        bc = _oriented(bc)
        mc = np.linalg.lstsq(bc, af @ bc, rcond=None)[0] if nc else np.zeros((0, 0))
    ms = np.linalg.lstsq(bs, af @ bs, rcond=None)[0] if ns else np.zeros((0, 0))
    mu = np.linalg.lstsq(bu, af @ bu, rcond=None)[0] if nu else np.zeros((0, 0))

    for f in spectrum:  # the f.unitary roots nearest the circle must be on it
        dist = np.sort(np.abs(np.abs(np.roots(list(reversed(f.poly.coeffs)))) - 1))
        if np.any(dist[:f.unitary] > 1e-6):
            raise InvariantError("numeric roots disagree with exact unitary count")

    sp = Splitting(
        matrix=a,
        dims=(ns, nc, nu),
        basis_s=bs,
        basis_c=bc,
        basis_u=bu,
        block_s=ms,
        block_c=mc,
        block_u=mu,
        char_poly=p,
        spectrum=spectrum,
    )
    for b, m in ((bs, ms), (bc, mc), (bu, mu)):
        if b.size and np.max(np.abs(af @ b - b @ m)) > 1e-9 * max(1.0, np.max(np.abs(af))):
            raise InvariantError("subspace invariance residual too large")
    return sp


# -- adapted norms ----------------------------------------------------------------


@dataclass
class AdaptedNorm:
    """Norm |v| = |v^u| + |v^c| + |v^s| adapting the dynamics.

    The stable factor norm contracts under A by lambda_s < 1, the unstable
    one contracts under A^{-1} by 1/mu_u, and the center norm is preserved
    to rotation accuracy.
    """

    splitting: Splitting
    gram_s: np.ndarray
    gram_c: np.ndarray
    gram_u: np.ndarray
    lambda_s: float
    mu_u: float

    def _block_norm(self, coords: np.ndarray, gram: np.ndarray) -> np.ndarray:
        if gram.shape[0] == 0:
            return np.zeros(np.asarray(coords).shape[:-1])
        q = np.einsum("...i,ij,...j->...", coords, gram, coords)
        return np.sqrt(np.maximum(q, 0.0))

    def component_norms(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cs, cc, cu = self.splitting.components(x)
        return (
            self._block_norm(cs, self.gram_s),
            self._block_norm(cc, self.gram_c),
            self._block_norm(cu, self.gram_u),
        )

    def norm(self, x: np.ndarray) -> np.ndarray:
        a, b, c = self.component_norms(x)
        return a + b + c

    def block_norm(self, coords: np.ndarray, flavor: str) -> np.ndarray:
        gram = {"s": self.gram_s, "c": self.gram_c, "u": self.gram_u}[flavor]
        return self._block_norm(coords, gram)


# the adapted Gram series stops at its first term below GRAM_TAIL
GRAM_TAIL = 1e-9


def _iterate_gram(block: np.ndarray, theta: float) -> np.ndarray:
    d = block.shape[0]
    if d == 0:
        return np.zeros((0, 0))
    g = np.eye(d)
    term = np.eye(d)
    m_over = block / theta
    j = 0
    while True:
        term = m_over.T @ term @ m_over
        g = g + term
        j += 1
        if np.max(np.abs(term)) < GRAM_TAIL or j > 5000:
            break
    return g


def adapted_norm(split: Splitting, theta: Optional[float] = None) -> AdaptedNorm:
    """Build the adapted norm; theta is the stable contraction margin."""
    ns, nc, nu = split.dims
    rho_s = max(abs(np.linalg.eigvals(split.block_s))) if ns else 0.0
    rho_u_inv = max(abs(np.linalg.eigvals(np.linalg.inv(split.block_u)))) if nu else 0.0

    def pick(rho: float, requested: Optional[float]) -> float:
        if requested is not None:
            if not (rho < requested < 1):
                raise ValueError(f"theta must lie in (spectral radius, 1); got {requested}")
            return requested
        t = 1.02 * rho
        return t if t < 1 else rho + 0.5 * (1 - rho)

    theta_s = pick(rho_s, theta) if ns else 0.0
    theta_u = pick(rho_u_inv, theta) if nu else 0.0
    gram_s = _iterate_gram(split.block_s, theta_s) if ns else np.zeros((0, 0))
    gram_u = _iterate_gram(np.linalg.inv(split.block_u), theta_u) if nu else np.zeros((0, 0))
    gram_c = np.eye(nc)

    def factor(block, gram):
        if block.shape[0] == 0:
            return 0.0
        # the largest eigenvalue of the pencil (B^T G B, G) is that of K^T K
        # for K = L^T B L^-T and the Cholesky factor G = L L^T
        low = np.linalg.cholesky(gram)
        k = np.linalg.solve(low, (low.T @ block).T).T
        return float(np.sqrt(max(np.linalg.eigvalsh(k.T @ k))))

    lam = factor(split.block_s, gram_s)
    muinv = factor(np.linalg.inv(split.block_u), gram_u) if nu else 0.0
    norm = AdaptedNorm(
        splitting=split,
        gram_s=gram_s,
        gram_c=gram_c,
        gram_u=gram_u,
        lambda_s=lam,
        mu_u=1.0 / muinv if muinv else float("inf"),
    )
    if ns and not lam < 1:
        raise InvariantError("stable factor is not a contraction in the adapted norm")
    if nu and not muinv < 1:
        raise InvariantError("unstable factor is not an expansion in the adapted norm")
    return norm
