"""Spectral splitting of a toral automorphism and its adapted norms.

The splitting into stable / center / unstable subspaces is computed
numerically (sorted real Schur forms), but every discrete claim -- the
three dimensions, per-factor root counts, Salem flags -- is certified by
exact integer arithmetic on one factorization of the char poly: Sturm
counts for roots of modulus one, inverse-root pairing inside reciprocal
factors, and a Routh-Hurwitz count (a Cauchy index read at +-infinity)
for factors without unitary roots.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import InvariantError, NotErgodicError, OutOfHypothesesError
from .intmatrix import IntMatrix
from .intpoly import (
    ONE,
    IntPoly,
    _neg_rem_primitive,
    _sign_at_inf,
    _variations,
    count_real_roots,
    count_unitary_roots,
    cyclotomic,
    cyclotomic_indices_up_to_degree,
    is_poly_in_xm,
    is_reciprocal,
)
from .zfactor import factor_z

# -- exact root location on / inside the unit circle ---------------------------


@lru_cache(maxsize=64)
def _cayley_basis(n: int) -> tuple[tuple[int, ...], ...]:
    """Ascending coefficients of (w+1)^k (w-1)^(n-k) for k = 0..n."""
    plus, minus = [ONE], [ONE]
    for _ in range(n):
        plus.append(plus[-1] * IntPoly((1, 1)))
        minus.append(minus[-1] * IntPoly((-1, 1)))
    return tuple((plus[k] * minus[n - k]).coeffs for k in range(n + 1))


def unit_disk_root_count(p: IntPoly) -> int:
    """Number of roots strictly inside the unit circle, with multiplicity.

    Requires that p has no root of modulus one.  Exact (Routh-Hurwitz):
    z = (w+1)/(w-1) maps the disk onto the left half-plane, so the count is
    the number of left-half-plane roots of q(w) = (w-1)^n p((w+1)/(w-1)).
    With q(iy) = R(y) + i I(y) that number is (n + d)/2, where d, the change
    of arg q(iy) over the real line in units of pi, is the Cauchy index
    -Ind(I/R) for even n and Ind(R/I) for odd n.  Each index is read from
    the signs of a signed remainder sequence at -inf and +inf.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    n = p.degree
    if n == 0:
        return 0
    if p(1) == 0 or p(-1) == 0:
        raise ValueError("root at +-1")
    acc = [0] * (n + 1)
    for c, term in zip(p.coeffs, _cayley_basis(n)):
        if c:
            for j, t in enumerate(term):
                acc[j] += c * t
    q = IntPoly(acc)
    # i^j runs through 1, i, -1, -i
    re = IntPoly(c if j % 4 == 0 else -c if j % 4 == 2 else 0 for j, c in enumerate(q.coeffs))
    im = IntPoly(c if j % 4 == 1 else -c if j % 4 == 3 else 0 for j, c in enumerate(q.coeffs))
    den, num, sign = (re, im, -1) if n % 2 == 0 else (im, re, 1)
    seq = [den, num]
    while seq[-1].degree > 0:
        seq.append(_neg_rem_primitive(seq[-2], seq[-1]))
    # the real roots of gcd(R, I) are the roots of q on the imaginary axis
    if count_real_roots(seq[-2] if seq[-1].is_zero else seq[-1]) > 0:
        raise ValueError("root of modulus one")
    index = (_variations([_sign_at_inf(f, False) for f in seq])
             - _variations([_sign_at_inf(f, True) for f in seq]))
    return (n + sign * index) // 2


def _cyclotomic_index_of(q: IntPoly) -> Optional[int]:
    for m in cyclotomic_indices_up_to_degree(q.degree):
        if cyclotomic(m) == q:
            return m
    return None


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
    circle.  Any other irreducible factor q with a root a of modulus one is
    palindromic: 1/a = conj(a) is a root too, so q divides its reversal and
    q(x) = +-x^n q(1/x), and the sign -1 would make q(1) = 0.  So only a
    palindromic factor goes through ``count_unitary_roots``, and its
    off-circle roots split evenly between inside and outside; the rest go
    through ``unit_disk_root_count``, which rejects a root on the circle.
    """
    out = []
    for q, mult in factor_z(p) if factors is None else factors:
        cyc = _cyclotomic_index_of(q)
        if cyc is not None:
            u, inside = q.degree, 0
        else:
            u = count_unitary_roots(q) if is_reciprocal(q) else 0
            if u:
                inside = (q.degree - u) // 2
            else:
                try:
                    inside = unit_disk_root_count(q)
                except ValueError as exc:
                    raise InvariantError("factor with unitary roots is not reciprocal") from exc
        out.append(_FactorSpectrum(q, mult, cyc, u, inside))
    return out


def _modulus_counts(spectrum: list[_FactorSpectrum]) -> tuple[int, int, int]:
    return (sum(f.mult * f.inside for f in spectrum),
            sum(f.mult * f.unitary for f in spectrum),
            sum(f.mult * f.outside for f in spectrum))


# -- classification report -----------------------------------------------------


@dataclass(frozen=True)
class FactorRecord:
    coeffs: tuple[int, ...]
    degree: int
    multiplicity: int
    unitary_roots: int
    reciprocal: bool
    cyclotomic_index: Optional[int]
    salem: bool

    def to_json(self) -> dict:
        return {
            "coeffs": list(self.coeffs),
            "degree": self.degree,
            "multiplicity": self.multiplicity,
            "unitary_roots": self.unitary_roots,
            "reciprocal": self.reciprocal,
            "cyclotomic_index": self.cyclotomic_index,
            "salem": self.salem,
        }


@dataclass(frozen=True)
class ClassificationReport:
    n: int
    char_poly: tuple[int, ...]
    ergodic: bool
    anosov: bool
    dim_center: int
    dim_stable: int
    dim_unstable: int
    factors: tuple[FactorRecord, ...]
    salem_flags: tuple[bool, ...]
    pseudo_anosov: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "char_poly": list(self.char_poly),
            "ergodic": self.ergodic,
            "anosov": self.anosov,
            "dim_center": self.dim_center,
            "dim_stable": self.dim_stable,
            "dim_unstable": self.dim_unstable,
            "factors": [f.to_json() for f in self.factors],
            "salem_flags": list(self.salem_flags),
            "pseudo_anosov": self.pseudo_anosov,
        }


def classify_poly(p: IntPoly, factors: Optional[list[tuple[IntPoly, int]]] = None
                  ) -> ClassificationReport:
    """Exact algebraic classification of the automorphism with char poly p;
    ``factors``, when given, is ``factor_z(p)``."""
    n = p.degree
    det = p.coeffs[0] * (1 if n % 2 == 0 else -1)
    if det not in (1, -1):
        raise OutOfHypothesesError("determinant is not +-1; not a torus automorphism")
    spectrum = _factor_spectrum(p, factors)
    records = tuple(
        FactorRecord(
            coeffs=f.poly.coeffs,
            degree=f.poly.degree,
            multiplicity=f.mult,
            unitary_roots=f.unitary,
            reciprocal=is_reciprocal(f.poly),
            cyclotomic_index=f.cyclotomic_index,
            salem=(f.cyclotomic_index is None and f.unitary >= 2
                   and f.unitary == f.poly.degree - 2 and is_reciprocal(f.poly)),
        )
        for f in spectrum
    )
    dim_s, dim_c, dim_u = _modulus_counts(spectrum)
    irreducible = len(spectrum) == 1 and spectrum[0].mult == 1
    return ClassificationReport(
        n=n,
        char_poly=p.coeffs,
        ergodic=all(f.cyclotomic_index is None for f in spectrum),
        anosov=(dim_c == 0),
        dim_center=dim_c,
        dim_stable=dim_s,
        dim_unstable=dim_u,
        factors=records,
        salem_flags=tuple(f.salem for f in records),
        pseudo_anosov=irreducible and is_poly_in_xm(p) is None,
    )


def classify(a: IntMatrix) -> ClassificationReport:
    """Exact algebraic classification of the induced torus automorphism."""
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
    eigendata: list[tuple[complex, int, str]]
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


def compute_splitting(a: IntMatrix, tol: float = 1e-8,
                      spectrum: Optional[list[_FactorSpectrum]] = None) -> Splitting:
    """Invariant splitting with exactly certified dimensions.

    ``spectrum``, when given, is ``_factor_spectrum`` of the char poly of a,
    so the caller's factorization is reused.  Raises NotErgodicError if
    some eigenvalue is a root of unity, and InvariantError if the
    numerically sorted Schur dimensions disagree with the exact counts.
    """
    if spectrum is None:
        p = a.char_poly()
        spectrum = _factor_spectrum(p)
    else:
        p = ONE
        for f in spectrum:
            for _ in range(f.mult):
                p = p * f.poly
    if any(f.cyclotomic_index is not None for f in spectrum):
        raise NotErgodicError("an eigenvalue is a root of unity")
    ns, nc, nu = _modulus_counts(spectrum)
    # unit-modulus roots must be simple for the rotation construction
    if any(f.mult > 1 and f.unitary > 0 for f in spectrum):
        raise OutOfHypothesesError("repeated unit-modulus eigenvalues")
    af = a.to_float()

    def sorted_basis(select) -> tuple[np.ndarray, int]:
        t, z, sdim = scipy.linalg.schur(af, output="real", sort=select)
        return z[:, :sdim], sdim

    bs, ks = sorted_basis(lambda x, y: x * x + y * y < (1 - tol) ** 2)
    bc, kc = sorted_basis(lambda x, y: abs(np.hypot(x, y) - 1) <= tol)
    bu, ku = sorted_basis(lambda x, y: x * x + y * y > (1 + tol) ** 2)
    if (ks, kc, ku) != (ns, nc, nu):
        raise InvariantError(
            f"numeric Schur dims {(ks, kc, ku)} disagree with exact counts {(ns, nc, nu)}"
        )
    if nc == 2:
        bc, mc = _rotation_basis(af, bc)
    else:
        mc = np.linalg.lstsq(bc, af @ bc, rcond=None)[0] if nc else np.zeros((0, 0))
    ms = np.linalg.lstsq(bs, af @ bs, rcond=None)[0] if ns else np.zeros((0, 0))
    mu = np.linalg.lstsq(bu, af @ bu, rcond=None)[0] if nu else np.zeros((0, 0))

    eigendata: list[tuple[complex, int, str]] = []
    for f in spectrum:
        roots = np.roots(list(reversed(f.poly.coeffs)))
        order = np.argsort(np.abs(np.abs(roots) - 1))
        classes = {}
        for idx in order[:f.unitary]:
            if abs(abs(roots[idx]) - 1) > 1e-6:
                raise InvariantError("numeric roots disagree with exact unitary count")
            classes[idx] = "center"
        for idx in order[f.unitary:]:
            classes[idx] = "stable" if abs(roots[idx]) < 1 else "unstable"
        for idx, root in enumerate(roots):
            eigendata.append((complex(root), f.mult, classes[idx]))

    sp = Splitting(
        matrix=a,
        dims=(ns, nc, nu),
        basis_s=bs,
        basis_c=bc,
        basis_u=bu,
        block_s=ms,
        block_c=mc,
        block_u=mu,
        eigendata=eigendata,
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
    theta_s: float
    theta_u: float
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


def _iterate_gram(block: np.ndarray, theta: float, tail: float = 1e-9) -> np.ndarray:
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
        if np.max(np.abs(term)) < tail or j > 5000:
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
        vals = scipy.linalg.eigh(block.T @ gram @ block, gram, eigvals_only=True)
        return float(np.sqrt(max(vals)))

    lam = factor(split.block_s, gram_s)
    muinv = factor(np.linalg.inv(split.block_u), gram_u) if nu else 0.0
    norm = AdaptedNorm(
        splitting=split,
        gram_s=gram_s,
        gram_c=gram_c,
        gram_u=gram_u,
        theta_s=theta_s,
        theta_u=theta_u,
        lambda_s=lam,
        mu_u=1.0 / muinv if muinv else float("inf"),
    )
    if ns and not lam < 1:
        raise InvariantError("stable factor is not a contraction in the adapted norm")
    if nu and not muinv < 1:
        raise InvariantError("unstable factor is not an expansion in the adapted norm")
    return norm
