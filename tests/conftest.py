import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from torusdyn.intmatrix import IntMatrix, bareiss_det
from torusdyn.intpoly import (
    X,
    IntPoly,
    _cayley_basis,
    cyclotomic,
    cyclotomic_indices_up_to_degree,
    divides,
    from_power_sums,
    gcd_z,
    is_reciprocal,
    power_sums,
    _sturm,
    squarefree_decomposition,
)
from torusdyn.lattice import is_cyclic_vector, kernel_lattice
from torusdyn.manifolds import LeafSolver
from torusdyn.perturbed import (
    TWO_PI,
    PerturbedMap,
    ReferenceChain,
    Shear,
    TrigProfile,
    salem_example,
)
from torusdyn.pseudo_anosov import (
    PASubspace,
    _unitary_factor,
    center_containment_residual,
    hypothesis_spectrum,
    pseudo_anosov_subspace,
)
from torusdyn.splitting import (
    _factor_spectrum,
    _modulus_counts,
    _rotation_basis,
    adapted_norm,
    classify,
    classify_poly,
    compute_splitting,
    factor_flags,
    is_ergodic,
    is_pseudo_anosov,
)
from torusdyn.zfactor import _SIEVE_MODULUS, _SIEVE_PRIMES, _mobius, factor_z

SALEM = IntPoly((1, -1, -1, -1, 1))
CAT = IntPoly((1, -3, 1))

# U A U^-1 for the Salem companion A and a unimodular U: a dense integer matrix,
# whose matmuls round differently through gemv (one row) and gemm (several).
# The leaf solver's results must not depend on the batch a row comes in, nor
# the lattice scan's norms, which are summed per row without BLAS.
SALEM_CONJUGATE = [[0, 8, 6, 5], [1, -2, 2, -1], [0, -5, -4, -3], [-2, 12, 3, 7]]


def reference_report(p):
    """The classification report of char poly p built field by field as a
    dict from the predicates it states, not from the text of
    ``splitting.report_json``: the oracle for that text."""
    spectrum = _factor_spectrum(p)
    factors = [{"coeffs": list(f.poly.coeffs), "degree": f.poly.degree, "multiplicity": f.mult,
                "unitary_roots": f.unitary, "reciprocal": reciprocal,
                "cyclotomic_index": f.cyclotomic_index, "salem": salem}
               for f in spectrum for reciprocal, salem in (factor_flags(f),)]
    dim_s, dim_c, dim_u = _modulus_counts(spectrum)
    return {"n": p.degree, "char_poly": list(p.coeffs), "ergodic": is_ergodic(spectrum),
            "anosov": dim_c == 0, "dim_center": dim_c, "dim_stable": dim_s,
            "dim_unstable": dim_u, "factors": factors,
            "salem_flags": [f["salem"] for f in factors],
            "pseudo_anosov": is_pseudo_anosov(p, spectrum)}


def shipped_schema_validator(name):
    """A validator for the shipped schema ``schemas/<name>``; a ``$ref``
    names another shipped schema by its file name."""
    import importlib.resources as res

    import jsonschema
    from referencing import Registry, Resource

    schemas = {f.name: json.loads(f.read_text())
               for f in res.files("torusdyn").joinpath("schemas").iterdir() if f.name.endswith(".json")}
    registry = Registry().with_resources((n, Resource.from_contents(s)) for n, s in schemas.items())
    return jsonschema.Draft7Validator(schemas[name], registry=registry)


@pytest.fixture(scope="session")
def salem_matrix():
    return IntMatrix.companion(SALEM)


@pytest.fixture(scope="session")
def cat_matrix():
    return IntMatrix([[2, 1], [1, 1]])


@pytest.fixture(scope="session")
def block6_matrix(salem_matrix, cat_matrix):
    return IntMatrix.block_diag(salem_matrix, cat_matrix)


@pytest.fixture(scope="session")
def salem_split(salem_matrix):
    return compute_splitting(salem_matrix)


@pytest.fixture(scope="session")
def salem_norm(salem_split):
    return adapted_norm(salem_split)


@pytest.fixture(scope="session")
def salem_pa(salem_matrix, salem_split):
    return pseudo_anosov_subspace(salem_matrix, 8, split=salem_split)


@pytest.fixture(scope="session")
def solver_linear(salem_split, salem_norm):
    return LeafSolver(salem_example(0.0), salem_split, salem_norm)


@pytest.fixture(scope="session")
def solver_small(salem_split, salem_norm):
    return LeafSolver(salem_example(0.01), salem_split, salem_norm)


def chained_shears_map():
    """Salem map whose second shear reads the coordinate the first one moved."""
    f = salem_example(1e-2)
    back = Shear(target=1, source=0, profile=TrigProfile(cos_coeffs=(0.1,), sin_coeffs=(0.05,)),
                 amplitude=1e-2)
    return PerturbedMap(f.matrix, (f.shears[0], back, f.shears[1]))


def harmonics_map():
    """Salem map with three shears whose profiles have several cos and sin
    harmonics with zero gaps."""
    a = IntMatrix.companion(SALEM)
    return PerturbedMap(a, (
        Shear(0, 1, TrigProfile(cos_coeffs=(0.1, 0.0, 0.05), sin_coeffs=(0.0, 0.2, 0.03)), 5e-3),
        Shear(2, 3, TrigProfile(cos_coeffs=(0.0, 0.08, 0.0, -0.02), sin_coeffs=(0.12, 0.0, -0.04)), 5e-3),
        Shear(1, 0, TrigProfile(cos_coeffs=(-0.06, 0.03), sin_coeffs=(0.0, 0.0, 0.05)), 5e-3),
    ))


def trig_value_oracle(profile, t):
    """TrigProfile.value as the package first wrote it: each nonzero term,
    cos terms first, added to a zero array.  The oracle for the terms the
    profile now builds once."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    for m, a in enumerate(profile.cos_coeffs, start=1):
        if a:
            out += a * (np.cos(TWO_PI * m * t) - 1.0)
    for m, b in enumerate(profile.sin_coeffs, start=1):
        if b:
            out += b * np.sin(TWO_PI * m * t)
    return out


def reference_chain(f, ref, inverse=False):
    """The shear chain of F (or of F^-1 if ``inverse``) evaluated along a
    fixed reference orbit ref (steps, ..., n), every step at once, for
    diff_apply (or diff_apply_inverse)."""
    if inverse:
        r = np.asarray(ref, dtype=float) @ f.a_inv_float.T
        shears, sign = reversed(f.shears), -1.0
    else:
        r = np.array(ref, dtype=float, copy=True)
        shears, sign = f.shears, 1.0
    sources, values = [], []
    for s in shears:
        rs = r[..., s.source].copy()
        v = s.profile.value(rs)
        r[..., s.target] += sign * s.amplitude * v
        sources.append(rs)
        values.append(v)
    return ReferenceChain(inverse, tuple(sources), tuple(values))


def apply_inverse(f, y):
    """F^-1(y) for a PerturbedMap f: A^-1, then the shears undone in reverse
    order, each in closed form, since a shear leaves its source coordinate
    untouched."""
    x = np.asarray(y, dtype=float) @ f.a_inv_float.T
    for s in reversed(f.shears):
        x[..., s.target] -= s.amplitude * s.profile.value(x[..., s.source])
    return x


def march_oracle(f, r, direction, steps):
    """A segment's reference chain the two-pass way: march the orbit of the
    reduced points r with F (fwd) or F^-1 (bwd), then pass it through the
    shear chain."""
    refs = np.empty((steps,) + np.shape(r))
    refs[0] = r
    for t in range(steps - 1):
        refs[t + 1] = (f.apply(refs[t]) if direction == "fwd" else apply_inverse(f, refs[t])) % 1.0
    return reference_chain(f, refs, inverse=direction == "bwd")


def random_unimodular(rng, n, ops=8, cap=6):
    """Product of elementary integer row operations; |det| = 1 by construction."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]

    def add(i, j, c):
        for k in range(n):
            m[i][k] += c * m[j][k]

    for _ in range(ops):
        i, j = rng.sample(range(n), 2)
        add(i, j, rng.choice([-2, -1, 1, 2]))
        if max(abs(v) for row in m for v in row) > cap:
            break
    return IntMatrix(m)


def powers_irreducible(a, k_max):
    """Whether the char poly of A^k is irreducible for every k <= k_max
    (brute force: one factorization per power)."""
    ak = IntMatrix.identity(a.n)
    for _ in range(k_max):
        ak = ak * a
        fs = factor_z(ak.char_poly())
        if len(fs) != 1 or fs[0][1] != 1:
            return False
    return True


def cyclotomic_free(p):
    """True iff no cyclotomic polynomial divides p (no root of unity among
    its roots), by trial division."""
    if p(1) == 0 or p(-1) == 0:
        return False
    return not any(divides(cyclotomic(m), p)
                   for m in cyclotomic_indices_up_to_degree(p.degree) if m > 2)


def per_degree_masks(coeffs, p):
    """The degree sieve's kernel on rows of one degree n (the ascending
    a_0..a_{n-1} of monic f, shape (B, n)): whether f is squarefree mod p,
    and the bit mask of the subset sums of its factor degrees mod p.  One
    matrix power per trace and Newton's identities term by term."""
    b, n = coeffs.shape
    comp = np.zeros((b, n, n), dtype=np.int64)
    comp[:, np.arange(1, n), np.arange(n - 1)] = 1
    comp[:, :, n - 1] = (-coeffs) % p
    power, base, e = None, comp, p
    while e:
        if e & 1:
            power = base if power is None else power @ base % p
        e >>= 1
        if e:
            base = base @ base % p
    frob = np.empty((b, n, n), dtype=np.int64)
    col = np.zeros((b, n, 1), dtype=np.int64)
    col[:, 0, 0] = 1
    for i in range(n):
        frob[:, :, i] = col[:, :, 0]
        col = power @ col % p
    traces = np.empty((b, n), dtype=np.int64)
    qk = frob
    for k in range(n):
        traces[:, k] = np.trace(qk, axis1=1, axis2=2) % p
        if k + 1 < n:
            qk = qk @ frob % p
    elem = [np.ones(b, dtype=np.int64)]
    for k in range(1, n + 1):
        acc = np.zeros(b, dtype=np.int64)
        for i in range(1, k + 1):
            term = elem[k - i] * traces[:, i - 1]
            acc = (acc + term if i % 2 else acc - term) % p
        elem.append(acc * pow(k, -1, p) % p)
    squarefree = elem[n] != 0
    mob = np.array([[_mobius(d // e) if d % e == 0 else 0 for e in range(1, n + 1)]
                    for d in range(1, n + 1)], dtype=np.int64)
    weighted = traces @ mob.T
    degrees = np.arange(1, n + 1)
    counts = weighted // degrees
    if np.any(squarefree & ((weighted != counts * degrees).any(axis=1)
                            | (counts < 0).any(axis=1)
                            | (weighted.sum(axis=1) != n))):
        raise ArithmeticError("Frobenius traces do not describe a factorization")
    counts[~squarefree] = 0
    masks = np.ones(b, dtype=np.int64)
    for d in range(1, n + 1):
        for j in range(n // d):
            masks = np.where(counts[:, d - 1] > j, masks | (masks << d), masks)
    return squarefree, masks


def per_degree_certify(polys):
    """The degree sieve's verdicts (``zfactor.certify_irreducible``) with
    the rows grouped by degree: one kernel call per (degree, prime)."""
    out = [False] * len(polys)
    by_degree = {}
    for i, f in enumerate(polys):
        by_degree.setdefault(f.degree, []).append(i)
    for n, rows in by_degree.items():
        if n < 2 or n >= _SIEVE_PRIMES[-1]:
            for i in rows:
                out[i] = n == 1
            continue
        coeffs = np.array([[c % _SIEVE_MODULUS for c in polys[i].coeffs[:n]] for i in rows],
                          dtype=np.int64)
        live = np.arange(len(rows))
        proper = ((1 << n) - 1) & ~1
        alive = np.full(len(rows), proper, dtype=np.int64)
        for p in _SIEVE_PRIMES:
            if p <= n:
                continue
            squarefree, masks = per_degree_masks(coeffs[live] % p, p)
            alive[live] &= np.where(squarefree, masks, proper)
            live = live[alive[live] != 0]
            if live.size == 0:
                break
        for i, a in zip(rows, alive):
            out[i] = bool(a == 0)
    return out


def lattice_index(sub, sup):
    """[sup : sub] for a sublattice of equal rank: |det| of sub's basis in
    sup's basis coordinates."""
    assert sub.rank == sup.rank
    coords = [sup.coordinates(row) for row in sub.basis]
    assert all(c is not None for c in coords), "not a sublattice"
    return abs(bareiss_det([list(c) for c in coords]))


# -- reference root counts against the unit circle --------------------------------
# The two exact counts the package used before ``circle_root_counts``: a Sturm
# count through the x + 1/x substitution for roots on the circle, and a
# Routh-Hurwitz count for factors without them.  They are the differential
# oracle for the single remainder sequence.  The Routh-Hurwitz count keeps its
# own IntPoly remainder sequence (``pseudo_rem`` to ``_index_over_line``
# below, the package's code before its remainder kernel moved to coefficient
# lists), so the oracle does not follow the kernel it checks.


def crown_transform(r):
    """For palindromic r of even degree 2m return q with r(x) = x^m q(x + 1/x).

    Uses the basis D_0 = 2, D_1 = z, D_j = z*D_{j-1} - D_{j-2}, which
    satisfies D_j(x + 1/x) = x^j + x^-j.  Roots of modulus one of r map
    to real roots of q in (-2, 2), one per conjugate pair.
    """
    d = r.degree
    if d % 2 != 0 or r.coeffs != tuple(reversed(r.coeffs)):
        raise ValueError("expected a palindromic polynomial of even degree")
    m = d // 2
    dick = [IntPoly((2,)), X]
    while len(dick) <= m:
        dick.append(X * dick[-1] - dick[-2])
    q = IntPoly((r.coeffs[m],))
    for j in range(1, m + 1):
        q = q + r.coeffs[m + j] * dick[j]
    return q


def _sign_at_fraction(p, x):
    """Sign of p at the rational x, by homogenized integer evaluation."""
    a, b = x.numerator, x.denominator
    n = p.degree
    v = sum(c * a ** k * b ** (n - k) for k, c in enumerate(p.coeffs))
    return (v > 0) - (v < 0)


def sturm_chain(p):
    """Integer Sturm chain of the squarefree part of p."""
    return [IntPoly(c) for c in _sturm(list(p.coeffs))]


def sturm_count_between(p, lo, hi):
    """Distinct real roots of p in (lo, hi] for rationals lo < hi, by Sturm."""
    if p.degree < 1:
        return 0
    chain = sturm_chain(p)

    def variations(x):
        signs = [s for s in (_sign_at_fraction(f, x) for f in chain) if s]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return variations(Fraction(lo)) - variations(Fraction(hi))


def count_real_roots(p):
    """Distinct real roots of p, by Sturm between the ends of Cauchy's
    bound 1 + max |a_i / a_n|, which every root lies strictly inside."""
    if p.degree < 1:
        return 0
    bound = 1 + max(abs(Fraction(c, p.coeffs[-1])) for c in p.coeffs[:-1])
    return sturm_count_between(p, -bound, bound)


def reference_unitary_roots(p):
    """Roots of monic p of modulus one, with multiplicity: per squarefree
    factor, the roots paired with their inverses live in gcd(f, reverse(f));
    rewrite that part as x^m q(x + 1/x) and count real roots of q in (-2, 2)."""
    total = 0
    for factor, mult in squarefree_decomposition(p):
        r = gcd_z(factor, IntPoly(factor.coeffs[::-1]))
        if r.degree >= 2:
            total += 2 * mult * sturm_count_between(crown_transform(r), -2, 2)
    return total


def pseudo_rem(f: IntPoly, g: IntPoly) -> tuple[IntPoly, int]:
    """Pseudo-remainder of f by g and the sign of the applied multiplier.

    Returns (r, s) with lc(g)^(deg f - deg g + 1) * f = q*g + r and
    s the sign of that power, so r/s is a positive multiple of the true
    rational remainder.
    """
    if g.is_zero:
        raise ZeroDivisionError("pseudo-division by zero")
    d, lc = g.degree, g.coeffs[-1]
    steps = f.degree - d + 1
    if steps <= 0:
        return f, 1
    rem = list(f.coeffs)
    for k in range(steps - 1, -1, -1):
        for i in range(len(rem)):
            if i != k + d:
                rem[i] *= lc
        c = rem[k + d]
        rem[k + d] = 0
        for i, gc in enumerate(g.coeffs[:-1]):
            rem[k + i] -= c * gc
    sign = 1 if (lc > 0 or steps % 2 == 0) else -1
    return IntPoly(rem), sign


def _neg_rem_primitive(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive polynomial equal to a positive multiple of -rem(a, b)."""
    r, sign = pseudo_rem(a, b)
    if r.is_zero:
        return r
    g = math.gcd(*r.coeffs)
    return IntPoly(tuple((-sign * c) // g for c in r.coeffs))


def _sign_at_inf(p: IntPoly, positive: bool) -> int:
    if p.is_zero:
        return 0
    lc = p.coeffs[-1]
    s = (lc > 0) - (lc < 0)
    if not positive and p.degree % 2 == 1:
        s = -s
    return s


def _variations(signs: list[int]) -> int:
    v, prev = 0, 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            v += 1
        prev = s
    return v


def _index_over_line(seq: list[IntPoly]) -> int:
    """Sign variations of a signed remainder sequence at -inf minus those at +inf."""
    return (_variations([_sign_at_inf(f, False) for f in seq])
            - _variations([_sign_at_inf(f, True) for f in seq]))


def reference_disk_count(p):
    """Roots of p strictly inside the unit circle, for p without roots on it:
    the left half-plane roots of q(w) = (w-1)^n p((w+1)/(w-1)), (n + d)/2 with
    d a Cauchy index.  Raises ValueError on a root of modulus one."""
    n = p.degree
    if n == 0:
        return 0
    if p(1) == 0 or p(-1) == 0:
        raise ValueError("root at +-1")
    acc = [0] * (n + 1)
    for c, term in zip(p.coeffs, _cayley_basis(n)):
        for j, t in enumerate(term):
            acc[j] += c * t
    re = IntPoly(c if j % 4 == 0 else -c if j % 4 == 2 else 0 for j, c in enumerate(acc))
    im = IntPoly(c if j % 4 == 1 else -c if j % 4 == 3 else 0 for j, c in enumerate(acc))
    den, num, sign = (re, im, -1) if n % 2 == 0 else (im, re, 1)
    seq = [den, num]
    while seq[-1].degree > 0:
        seq.append(_neg_rem_primitive(seq[-2], seq[-1]))
    if count_real_roots(seq[-2] if seq[-1].is_zero else seq[-1]) > 0:
        raise ValueError("root of modulus one")
    return (n + sign * _index_over_line(seq)) // 2


def reference_circle_counts(q):
    """(inside, on) for an irreducible non-cyclotomic factor q, as the package
    located factors before: a factor with a root a on the circle is
    palindromic (1/a = conj(a) is a root too), so a palindromic factor takes
    the Sturm count and splits its other roots evenly; the rest take the
    Routh-Hurwitz count."""
    on = reference_unitary_roots(q) if is_reciprocal(q) else 0
    if on:
        return (q.degree - on) // 2, on
    return reference_disk_count(q), 0


def schur_splitting_bases(a):
    """The stable, center and unstable bases of the sorted real Schur forms
    of A: the three Schur vectors leading a form sorted by |lambda| < 1 -
    1e-8, |lambda| within 1e-8 of 1 and |lambda| > 1 + 1e-8, and a
    two-dimensional center rescaled by ``_rotation_basis``.  None when the
    sorted dimensions differ from the exact counts."""
    import scipy.linalg

    af = a.to_float()
    tol = 1e-8
    bases = []
    for select in (lambda x, y: x * x + y * y < (1 - tol) ** 2,
                   lambda x, y: abs(np.hypot(x, y) - 1) <= tol,
                   lambda x, y: x * x + y * y > (1 + tol) ** 2):
        _, z, sdim = scipy.linalg.schur(af, output="real", sort=select)
        bases.append(z[:, :sdim])
    r = classify(a)
    if tuple(b.shape[1] for b in bases) != (r["dim_stable"], r["dim_center"], r["dim_unstable"]):
        return None
    if bases[1].shape[1] == 2:
        bases[1] = _rotation_basis(af, bases[1])[0]
    return tuple(bases)


def sampled_cyclic_condition(a, k_max=6, trials=100, seed=0):
    """(ok, witness k, witness vector) of all-power cyclicity, falsified by
    sampling: for each k <= k_max, the basis vectors of the kernel lattices
    of the proper factors of the char poly of A^k, topped up with random
    nonzero integer vectors (entries in [-5, 5]) to ``trials`` vectors, each
    tested by its Krylov rank."""
    rng = random.Random(seed)
    n = a.n
    s = power_sums(a.char_poly(), n * k_max)
    ak = IntMatrix.identity(n)
    for k in range(1, k_max + 1):
        ak = ak * a
        candidates = []
        for q, _mult in factor_z(from_power_sums(s[k - 1:n * k:k])):
            if q.degree < n:
                candidates.extend(kernel_lattice(ak.apply_poly(q)).basis)
        while len(candidates) < trials:
            v = tuple(rng.randint(-5, 5) for _ in range(n))
            if any(v):
                candidates.append(v)
        for v in candidates:
            if not is_cyclic_vector(ak, v):
                return False, k, tuple(v)
    return True, None, None


def power_search_subspace(a, k_max):
    """(X, L) by the power search that Lemma A (k = 1) replaced: factor the
    char poly p_k of A^k for every k <= k_max, order the unitary factors by
    (degree, k) and build X = ker f_k(A^k) from the first that is
    pseudo-Anosov (irreducible and no polynomial in x^m).  None when no
    power passes."""
    split = compute_splitting(a, spectrum=hypothesis_spectrum(a))
    n = a.n
    s = power_sums(split.char_poly, n * k_max)
    candidates = sorted(
        (f.degree, k, f) for k in range(1, k_max + 1)
        for f in (_unitary_factor(_factor_spectrum(from_power_sums(s[k - 1:n * k:k]))),))
    for d, k, f in candidates:
        if classify_poly(f)["pseudo_anosov"]:
            lam = kernel_lattice((a ** k).apply_poly(f))
            return PASubspace(k=k, dim_x=d, p_k=f, lam=lam,
                              center_residual=center_containment_residual(lam, split))
    return None
