"""Exact factorization of monic integer polynomials.

Two paths, one answer.  ``factor_z`` is the factorizer: it factors the
squarefree part modulo a good small prime (Berlekamp), Hensel-lifts the
modular factors above twice the Landau-Mignotte coefficient bound, then
recombines subsets with exact trial division over Z.  When a good prime
already shows f squarefree mod p, the squarefree decomposition over Z
is skipped.

``factor_z_many`` factors a batch and equals ``[factor_z(p) for p in
polys]`` entry by entry.  It divides every cyclotomic factor Phi_m with
phi(m) <= deg p out of each row, with multiplicity, by exact division
after the necessary tests Phi_m(2) | p(2) and Phi_m(3) | p(3).  One
batched degree sieve (Musser's degree-set test) then proves most
cofactors irreducible, and every unproven cofactor goes to
``factor_z``.  The sieve makes one stacked pass per prime p over every
live cofactor of degree below p, whatever its degree: each sits
zero-padded in the top-left block of the pass's matrices.  For a monic
cofactor f of degree n and a prime p > n the pass forms the companion
C mod p, C^p by square-and-multiply, and the Frobenius matrix Q with
columns (C^p)^i e_0, the matrix of h -> h^p on F_p[x]/(f).  That ring
is reduced, so Q is invertible, exactly when f is squarefree mod p;
det Q comes from tr(Q^k), k = 1..n, by Newton's identities mod p.  The
matrices hold residues as float64 integers, whose products stay exact
below 2^53.  If f mod p = prod g_j with distinct
irreducible g_j of degree d_j, Frobenius permutes a normal basis of each
F_{p^d_j}, so tr(Q^k) = sum of the d_j dividing k, an integer at most
n < p, and Moebius inversion yields the multiset of the d_j.  The degree
of a factor of f over Z is a subset sum of that multiset.  Intersecting
the subset sums over several primes and finding no degree in 1..n-1
proves f irreducible; no lifting is done.  Deterministic throughout;
meant for the desk scale of degree <= 16.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .intpoly import (IntPoly, cyclotomic, cyclotomic_indices_up_to_degree, div_exact, divides,
                      squarefree_decomposition)

# -- dense polynomials over Z/m ----------------------------------------------
# represented as tuples, ascending degree, trimmed, coefficients in [0, m)


def _pm(coeffs: Sequence[int], m: int) -> tuple[int, ...]:
    c = [x % m for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _pm_add(a, b, m):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % m
    return _pm(out, m)


def _pm_sub(a, b, m):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % m
    return _pm(out, m)


def _pm_mul(a, b, m):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ci in enumerate(a):
        if ci:
            for j, cj in enumerate(b):
                out[i + j] += ci * cj
    return _pm(out, m)


def _pm_divmod(a, b, m):
    """Division in (Z/m)[x]; the leading coefficient of b must be invertible."""
    if not b:
        raise ZeroDivisionError
    inv = pow(b[-1], -1, m)
    rem = list(a)
    db = len(b) - 1
    q = [0] * max(0, len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        c = (rem[k + db] * inv) % m
        q[k] = c
        if c:
            for i, bc in enumerate(b):
                rem[k + i] = (rem[k + i] - c * bc) % m
    return _pm(q, m), _pm(rem, m)


def _pm_monic(a, m):
    if not a:
        return a
    inv = pow(a[-1], -1, m)
    return _pm([c * inv for c in a], m)


def _pm_gcd(a, b, p):
    while b:
        _, r = _pm_divmod(a, b, p)
        a, b = b, r
    return _pm_monic(a, p)


def _pm_powmod(base, e, mod_poly, p):
    result = (1,)
    b = _pm_divmod(base, mod_poly, p)[1]
    while e:
        if e & 1:
            result = _pm_divmod(_pm_mul(result, b, p), mod_poly, p)[1]
        b = _pm_divmod(_pm_mul(b, b, p), mod_poly, p)[1]
        e >>= 1
    return result


# -- Berlekamp over F_p -------------------------------------------------------


def _nullspace_mod_p(mat: list[list[int]], p: int) -> list[list[int]]:
    """Basis of the right nullspace of mat over F_p."""
    n = len(mat)
    a = [row[:] for row in mat]
    pivots: dict[int, int] = {}
    row = 0
    for col in range(n):
        pr = next((r for r in range(row, n) if a[r][col] % p), None)
        if pr is None:
            continue
        a[row], a[pr] = a[pr], a[row]
        inv = pow(a[row][col], -1, p)
        a[row] = [(x * inv) % p for x in a[row]]
        for r in range(n):
            if r != row and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[row])]
        pivots[col] = row
        row += 1
    basis = []
    for col in range(n):
        if col in pivots:
            continue
        v = [0] * n
        v[col] = 1
        for pc, pr in pivots.items():
            v[pc] = (-a[pr][col]) % p
        basis.append(v)
    return basis


def _berlekamp(f: tuple[int, ...], p: int) -> list[tuple[int, ...]]:
    """Monic irreducible factors of a squarefree monic f over F_p."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    xp = _pm_powmod((0, 1), p, f, p)
    # rows of Q: x^(p*i) mod f
    cur = (1,)
    q_rows = []
    for _ in range(n):
        q_rows.append(list(cur) + [0] * (n - len(cur)))
        cur = _pm_divmod(_pm_mul(cur, xp, p), f, p)[1]
    qmi = [[(q_rows[i][j] - (1 if i == j else 0)) % p for j in range(n)] for i in range(n)]
    # v·(Q - I) = 0  <=>  (Q - I)^T v = 0
    qmi_t = [[qmi[i][j] for i in range(n)] for j in range(n)]
    basis = _nullspace_mod_p(qmi_t, p)
    r = len(basis)
    factors = [f]
    if r == 1:
        return factors
    for v in basis:
        if len(factors) == r:
            break
        vpoly = _pm(v, p)
        if len(vpoly) <= 1:
            continue
        new: list[tuple[int, ...]] = []
        for g in factors:
            parts = []
            rem = g
            for c in range(p):
                if len(rem) - 1 <= 0:
                    break
                d = _pm_gcd(rem, _pm_sub(vpoly, (c,), p), p)
                if 0 < len(d) - 1 < len(rem) - 1:
                    parts.append(d)
                    rem = _pm_divmod(rem, d, p)[0]
                elif len(d) - 1 == len(rem) - 1:
                    break
            if len(rem) - 1 > 0:
                parts.append(rem)
            new.extend(parts if parts else [g])
        factors = new
    if len(factors) != r:
        raise ArithmeticError("modular factor separation failed")
    return sorted(factors)


# -- Hensel lifting -----------------------------------------------------------


def _pm_xgcd(a, b, p):
    """(g, s, t) with s*a + t*b = g over F_p, g monic."""
    r0, r1 = _pm(a, p), _pm(b, p)
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = _pm_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _pm_sub(s0, _pm_mul(q, s1, p), p)
        t0, t1 = t1, _pm_sub(t0, _pm_mul(q, t1, p), p)
    inv = pow(r0[-1], -1, p)
    return _pm_monic(r0, p), _pm([c * inv for c in s0], p), _pm([c * inv for c in t0], p)


def _hensel_step(m, f, g, h, s, t):
    """One quadratic Hensel step: from mod m to mod m^2.

    Input satisfies f = g*h and s*g + t*h = 1 (mod m) with h monic;
    output satisfies the same mod m^2.
    """
    mm = m * m
    f = _pm(f, mm)
    e = _pm_sub(f, _pm_mul(g, h, mm), mm)
    q, r = _pm_divmod(_pm_mul(s, e, mm), h, mm)
    g1 = _pm_add(g, _pm_add(_pm_mul(t, e, mm), _pm_mul(q, g, mm), mm), mm)
    h1 = _pm_add(h, r, mm)
    b = _pm_sub(_pm_add(_pm_mul(s, g1, mm), _pm_mul(t, h1, mm), mm), (1,), mm)
    c, d = _pm_divmod(_pm_mul(s, b, mm), h1, mm)
    s1 = _pm_sub(s, d, mm)
    t1 = _pm_sub(t, _pm_add(_pm_mul(t, b, mm), _pm_mul(c, g1, mm), mm), mm)
    return g1, h1, s1, t1


def _lift_factors(f_int: tuple[int, ...], modular: list[tuple[int, ...]], p: int, target: int) -> tuple[list[tuple[int, ...]], int]:
    """Lift monic modular factors of monic f to a modulus >= target.

    Returns (factors, modulus); the product of the factors is f mod modulus.
    """
    if len(modular) == 1:
        m = p
        while m < target:
            m *= m
        return [_pm(f_int, m)], m
    half = len(modular) // 2
    g0 = (1,)
    for q in modular[:half]:
        g0 = _pm_mul(g0, q, p)
    h0 = (1,)
    for q in modular[half:]:
        h0 = _pm_mul(h0, q, p)
    gcd1, s, t = _pm_xgcd(g0, h0, p)
    if gcd1 != (1,):
        raise ArithmeticError("modular factors not coprime")
    m = p
    g, h = g0, h0
    while m < target:
        g, h, s, t = _hensel_step(m, f_int, g, h, s, t)
        m *= m
    left, ml = _lift_factors(g, modular[:half], p, target)
    right, mr = _lift_factors(h, modular[half:], p, target)
    mfin = min(m, ml, mr)
    return [_pm(q, mfin) for q in left + right], mfin


# -- Zassenhaus ---------------------------------------------------------------

_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
           71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
           149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211]


def _centered(c: int, m: int) -> int:
    return c - m if 2 * c > m else c


def _mignotte_bound(f: IntPoly) -> int:
    """Upper bound on |coefficient| of any monic divisor of monic f."""
    n = f.degree
    norm2 = math.isqrt(sum(c * c for c in f.coeffs)) + 1
    return math.comb(n, n // 2) * norm2


def _good_prime(f: IntPoly, primes: Sequence[int] = _PRIMES) -> Optional[int]:
    """First p in primes with f squarefree of full degree mod p, or None."""
    df = f.derivative().coeffs
    for p in primes:
        fp = _pm(f.coeffs, p)
        if len(fp) - 1 != f.degree:
            continue
        if _pm_gcd(fp, _pm(df, p), p) == (1,):
            return p
    return None


# A good prime among the first few proves f squarefree over Z without the
# gcds of Yun's decomposition; a squarefree f rarely fails them all.
_QUICK_PRIMES = _PRIMES[:4]


def _factor_squarefree_monic(f: IntPoly, p: Optional[int] = None) -> list[IntPoly]:
    """Irreducible monic factors of a squarefree monic f, deg f >= 1.

    p, when given, is a prime with f squarefree of full degree mod p.
    """
    if f.degree == 1:
        return [f]
    if p is None:
        p = _good_prime(f)
        if p is None:
            raise ArithmeticError("no good prime found (degree too large for the prime table?)")
    modular = _berlekamp(_pm_monic(_pm(f.coeffs, p), p), p)
    if len(modular) == 1:
        return [f]
    bound = 2 * _mignotte_bound(f) + 1
    lifted, modulus = _lift_factors(f.coeffs, modular, p, bound)
    found: list[IntPoly] = []
    remaining = list(range(len(lifted)))
    current = f
    size = 1
    while 2 * size <= len(remaining):
        hit = False
        for combo in itertools.combinations(remaining, size):
            prod = (1,)
            for i in combo:
                prod = _pm_mul(prod, lifted[i], modulus)
            cand = IntPoly(tuple(_centered(c, modulus) for c in prod))
            if not cand.is_monic:
                continue
            if divides(cand, current):
                found.append(cand)
                current = div_exact(current, cand)
                remaining = [i for i in remaining if i not in combo]
                hit = True
                break
        if not hit:
            size += 1
    if current.degree > 0:
        found.append(current)
    return sorted(found, key=lambda q: (q.degree, q.coeffs))


def _check_monic(p: IntPoly) -> None:
    if p.is_zero:
        raise ValueError("zero polynomial")
    if not p.is_monic:
        raise ValueError("expected a monic polynomial")


def _sort_factors(factors: list[tuple[IntPoly, int]]) -> list[tuple[IntPoly, int]]:
    return sorted(factors, key=lambda t: (t[0].degree, t[0].coeffs))


def factor_z(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """Factor a monic integer polynomial into monic irreducibles over Z.

    Returns [(factor, multiplicity)] sorted by (degree, coefficients).
    """
    _check_monic(p)
    out: list[tuple[IntPoly, int]] = []
    work = p
    k = 0
    while work.degree > 0 and work.coeffs[0] == 0:
        work = IntPoly(work.coeffs[1:])
        k += 1
    if k:
        out.append((IntPoly((0, 1)), k))
    if work.degree < 1:
        return out
    good = _good_prime(work, _QUICK_PRIMES)
    if good is not None:
        out.extend((q, 1) for q in _factor_squarefree_monic(work, good))
    else:
        for sq, mult in squarefree_decomposition(work):
            for q in _factor_squarefree_monic(sq):
                out.append((q, mult))
    return _sort_factors(out)


def is_irreducible_z(p: IntPoly) -> bool:
    """Exact irreducibility over Z for monic p of degree >= 1."""
    _check_monic(p)
    if p.degree == 0:
        raise ValueError("degree 0 input")
    return factor_z(p) == [(p, 1)]


# -- batched degree sieve -------------------------------------------------------

# Primes for the sieve; a cofactor of degree n uses those above n.  Their
# product is below 2^63, so coefficients reduced mod it fit int64.
_SIEVE_PRIMES = (11, 13, 17, 19, 23, 29, 31, 37)
_SIEVE_MODULUS = math.prod(_SIEVE_PRIMES)


def _mobius(m: int) -> int:
    out, d = 1, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            out = -out
        d += 1
    return -out if m > 1 else out


@lru_cache(maxsize=None)
def _kernel_tables(n: int, p: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The read-only Moebius matrix mu(d/e) [e | d] for d, e in 1..n, and
    the inverses of 1..n mod p."""
    mob = np.array([[_mobius(d // e) if d % e == 0 else 0 for e in range(1, n + 1)]
                    for d in range(1, n + 1)], dtype=np.int64)
    mob.setflags(write=False)
    return mob, tuple(pow(k, -1, p) for k in range(1, n + 1))


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for float64 integers below 2^53, where the
    quotient's floor is exact.  The kernel's products of residues below
    p <= 37 over at most 36 terms stay far below, in any summation order."""
    x -= np.floor(x / p) * p
    return x


def _degree_masks(coeffs: np.ndarray, degrees: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row r of ascending coefficients (a_0..a_{d_r-1} of a monic f_r of
    degree d_r = degrees[r], zero-padded to shape (B, n), every d_r < p):
    whether f_r is squarefree mod p, and the bit mask of the subset sums of
    its factor degrees mod p (meaningful where squarefree).

    Row r's companion sits in the top-left d_r x d_r block of an n x n zero
    matrix, so every matrix below is zero in rows d_r..n-1.  Its Frobenius
    matrix is then block upper triangular with f_r's own in the top-left
    block and zero in the bottom-right one: its traces and its e_k with
    k <= d_r are f_r's own."""
    b, n = coeffs.shape
    rows = np.arange(b)[:, None]
    steps = np.arange(n)
    comp = np.zeros((b, n, n))
    comp[:, steps[1:], steps[:-1]] = steps[:-1] < (degrees[:, None] - 1)
    comp[rows, steps, degrees[:, None] - 1] = (-coeffs) % p
    # C^p by square-and-multiply
    power, base, e = None, comp, p
    while e:
        if e & 1:
            power = base if power is None else _mod(power @ base, p)
        e >>= 1
        if e:
            base = _mod(base @ base, p)
    # Frobenius matrix: column i holds (C^p)^i e_0, which is x^(p i) mod f for i < d_r
    frob = np.empty((b, n, n))
    col = np.zeros((b, n))
    col[:, 0] = 1
    for i in range(n):
        frob[:, :, i] = col
        if i + 1 < n:
            col = _mod(np.einsum("bij,bj->bi", power, col), p)
    # tr(Q^k): Q^1..Q^h by products, and for k > h tr(Q^h Q^(k-h)) as the
    # elementwise product-sum of Q^h and the transpose of Q^(k-h)
    half = (n + 1) // 2
    powers = [frob]
    for _ in range(half - 1):
        powers.append(_mod(powers[-1] @ frob, p))
    traces = np.stack([np.trace(q, axis1=1, axis2=2) for q in powers]
                      + [np.einsum("bij,bji->b", powers[-1], q) for q in powers[:n - half]],
                      axis=1).astype(np.int64) % p
    # Newton's identities mod p: k e_k = sum_i (-1)^(i-1) e_(k-i) tr(Q^i)
    mob, inverses = _kernel_tables(n, p)
    signed = traces * np.where(steps % 2 == 0, 1, -1)
    elem = np.zeros((b, n + 1), dtype=np.int64)
    elem[:, 0] = 1
    for k in range(1, n + 1):
        acc = np.einsum("bi,bi->b", elem[:, k - 1::-1], signed[:, :k])
        elem[:, k] = acc * inverses[k - 1] % p
    squarefree = elem[np.arange(b), degrees] != 0
    # Moebius inversion of tr(Q^k) = sum_{d | k} d r_d gives r_d, the number
    # of irreducible factors of degree d mod p
    weighted = traces @ mob.T
    counts, rest = np.divmod(weighted, steps + 1)
    if np.any(squarefree & (((rest != 0) | (counts < 0)).any(axis=1)
                            | (weighted.sum(axis=1) != degrees))):
        raise ArithmeticError("Frobenius traces do not describe a factorization")
    counts[~squarefree] = 0
    masks = (1 << (counts[:, 0] + 1)) - 1  # r_1 linear factors: the sums 0..r_1
    for d in range(2, n + 1):
        for j in range(int(counts[:, d - 1].max())):
            masks = np.where(counts[:, d - 1] > j, masks | (masks << d), masks)
    return squarefree, masks


def certify_irreducible(polys: Sequence[IntPoly]) -> list[bool]:
    """For monic polys: True where the factor degrees mod the sieve primes
    prove the polynomial irreducible over Z.

    False only means unproven, as it always is from degree 37 on, where no
    sieve prime exceeds the degree.  Degree 1 is irreducible; degree 0 is not.
    One kernel call per sieve prime takes every live row of degree below it.
    """
    for f in polys:
        _check_monic(f)
    out = [f.degree == 1 for f in polys]
    sieved = [i for i, f in enumerate(polys) if 2 <= f.degree < _SIEVE_PRIMES[-1]]
    if not sieved:
        return out
    degrees = np.array([polys[i].degree for i in sieved], dtype=np.int64)
    coeffs = np.zeros((len(sieved), int(degrees.max())), dtype=np.int64)
    coeffs[np.arange(coeffs.shape[1]) < degrees[:, None]] = [
        c % _SIEVE_MODULUS for i in sieved for c in polys[i].coeffs[:-1]]
    # bits 1..d-1: the degrees of a proper factor
    alive = ((np.int64(1) << degrees) - 1) & ~1
    live = np.arange(len(sieved))
    for p in _SIEVE_PRIMES:
        rows = live[degrees[live] < p]
        if rows.size == 0:
            continue
        n = int(degrees[rows].max())
        squarefree, masks = _degree_masks(coeffs[rows, :n] % p, degrees[rows], p)
        alive[rows[squarefree]] &= masks[squarefree]
        live = live[alive[live] != 0]
        if live.size == 0:
            break
    for i, a in zip(sieved, alive):
        out[i] = bool(a == 0)
    return out


@lru_cache(maxsize=None)
def _cyclotomic_at_2_3(m: int) -> tuple[IntPoly, int, int]:
    phi = cyclotomic(m)
    return phi, phi(2), phi(3)


def _strip_cyclotomic(p: IntPoly) -> tuple[IntPoly, list[tuple[IntPoly, int]]]:
    """(g, [(Phi_m, k), ...]) with p = g * prod Phi_m^k and no Phi_m dividing
    g, over every m with phi(m) <= deg p, by exact division.

    Phi_m | p forces Phi_m(2) | p(2) and Phi_m(3) | p(3); these integer tests
    skip the trial division for most m.
    """
    g, at2, at3 = p, p(2), p(3)
    found = []
    for m in cyclotomic_indices_up_to_degree(p.degree):
        phi, phi2, phi3 = _cyclotomic_at_2_3(m)
        k = 0
        while at2 % phi2 == 0 and at3 % phi3 == 0 and divides(phi, g):
            g, at2, at3, k = div_exact(g, phi), at2 // phi2, at3 // phi3, k + 1
        if k:
            found.append((phi, k))
    return g, found


def factor_z_many(polys: Sequence[IntPoly]) -> list[list[tuple[IntPoly, int]]]:
    """``[factor_z(p) for p in polys]``, with most rows settled by one
    batched degree sieve in place of Berlekamp and Hensel lifting: every
    cyclotomic factor is divided out first, and a cofactor the sieve leaves
    unproven goes to ``factor_z``."""
    stripped = [_strip_cyclotomic(p) for p in polys]
    # the cofactors are monic exactly when the polys are; certify checks them
    proven = certify_irreducible([g for g, _ in stripped])
    out = []
    for (g, factors), ok in zip(stripped, proven):
        if ok:
            factors.append((g, 1))
        elif g.degree > 0:  # a monic cofactor of degree 0 is 1
            factors += factor_z(g)
        out.append(_sort_factors(factors))
    return out
