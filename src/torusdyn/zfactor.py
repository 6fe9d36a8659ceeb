"""Exact factorization of monic integer polynomials.

Two paths, one answer.  ``factor_z`` is the factorizer: it factors the
squarefree part modulo a good small prime (Berlekamp), Hensel-lifts the
modular factors above twice the Landau-Mignotte coefficient bound, then
recombines subsets with exact trial division over Z.  When a good prime
already shows f squarefree mod p, the squarefree decomposition over Z
is skipped.

``factor_z_many`` factors a batch and equals ``[factor_z(p) for p in
polys]`` entry by entry.  It strips the roots +-1 by synthetic division
and proves most cofactors irreducible with a batched degree sieve
(Musser's degree-set test), then sends every unproven row to
``factor_z``.  For a monic cofactor f of degree n and a prime p > n the
sieve stacks the companions C mod p, forms C^p by square-and-multiply,
and takes the Frobenius matrix Q with columns (C^p)^i e_0, the matrix of
h -> h^p on F_p[x]/(f).  That ring is reduced, so Q is invertible,
exactly when f is squarefree mod p; det Q comes from tr(Q^k), k = 1..n,
by Newton's identities mod p.  If f mod p = prod g_j with distinct
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
from typing import Optional, Sequence

import numpy as np

from .intpoly import IntPoly, div_exact, divides, gcd_z, squarefree_decomposition

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
    if p.degree == 1:
        return True
    if p.coeffs[0] == 0:
        return False
    good = _good_prime(p, _QUICK_PRIMES)
    if good is None and gcd_z(p, p.derivative()).degree > 0:
        return False
    factors = _factor_squarefree_monic(p, good)
    return len(factors) == 1


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


def _degree_masks(coeffs: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ascending coefficients (a_0..a_{n-1} of monic f, shape
    (B, n)): whether f is squarefree mod p, and the bit mask of the subset
    sums of its factor degrees mod p (meaningful where squarefree)."""
    b, n = coeffs.shape
    comp = np.zeros((b, n, n), dtype=np.int64)
    comp[:, np.arange(1, n), np.arange(n - 1)] = 1
    comp[:, :, n - 1] = (-coeffs) % p
    # C^p by square-and-multiply
    power, base, e = None, comp, p
    while e:
        if e & 1:
            power = base if power is None else power @ base % p
        e >>= 1
        if e:
            base = base @ base % p
    # Frobenius matrix: column i holds x^(p i) mod f = (C^p)^i e_0
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
    # Newton's identities mod p: k e_k = sum_i (-1)^(i-1) e_(k-i) tr(Q^i)
    elem = [np.ones(b, dtype=np.int64)]
    for k in range(1, n + 1):
        acc = np.zeros(b, dtype=np.int64)
        for i in range(1, k + 1):
            term = elem[k - i] * traces[:, i - 1]
            acc = (acc + term if i % 2 else acc - term) % p
        elem.append(acc * pow(k, -1, p) % p)
    squarefree = elem[n] != 0
    # Moebius inversion of tr(Q^k) = sum_{d | k} d r_d gives r_d, the number
    # of irreducible factors of degree d mod p
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


def certify_irreducible(polys: Sequence[IntPoly]) -> list[bool]:
    """For monic polys: True where the factor degrees mod the sieve primes
    prove the polynomial irreducible over Z.

    False only means unproven, as it always is from degree 37 on, where no
    sieve prime exceeds the degree.  Degree 1 is irreducible; degree 0 is not.
    """
    out = [False] * len(polys)
    by_degree: dict[int, list[int]] = {}
    for i, f in enumerate(polys):
        _check_monic(f)
        by_degree.setdefault(f.degree, []).append(i)
    for n, rows in by_degree.items():
        if n < 2 or n >= _SIEVE_PRIMES[-1]:
            for i in rows:
                out[i] = n == 1
            continue
        coeffs = np.array([[c % _SIEVE_MODULUS for c in polys[i].coeffs[:n]] for i in rows],
                          dtype=np.int64)
        live = np.arange(len(rows))
        proper = ((1 << n) - 1) & ~1  # bits 1..n-1: degrees of a proper factor
        alive = np.full(len(rows), proper, dtype=np.int64)
        for p in _SIEVE_PRIMES:
            if p <= n:
                continue
            squarefree, masks = _degree_masks(coeffs[live] % p, p)
            alive[live] &= np.where(squarefree, masks, proper)
            live = live[alive[live] != 0]
            if live.size == 0:
                break
        for i, a in zip(rows, alive):
            out[i] = bool(a == 0)
    return out


def _strip_unit_roots(p: IntPoly) -> tuple[IntPoly, int, int]:
    """(g, k1, k2) with p = (x - 1)^k1 (x + 1)^k2 g and g(+-1) != 0, by
    synthetic division."""
    coeffs = list(p.coeffs)
    mults = []
    for r in (1, -1):
        k = 0
        while len(coeffs) > 1 and sum(c * r ** i for i, c in enumerate(coeffs)) == 0:
            acc = 0
            quot = [0] * (len(coeffs) - 1)
            for i in range(len(coeffs) - 1, 0, -1):
                acc = acc * r + coeffs[i]
                quot[i - 1] = acc
            coeffs = quot
            k += 1
        mults.append(k)
    return IntPoly(coeffs), mults[0], mults[1]


def factor_z_many(polys: Sequence[IntPoly]) -> list[list[tuple[IntPoly, int]]]:
    """``[factor_z(p) for p in polys]``, with most rows settled by one
    batched degree sieve in place of Berlekamp and Hensel lifting; the
    other rows factor their cofactor of the roots +-1 with ``factor_z``."""
    stripped = [_strip_unit_roots(p) for p in polys]
    # the cofactors are monic exactly when the polys are; certify checks them
    proven = certify_irreducible([g for g, _, _ in stripped])
    out = []
    for (g, k1, k2), ok in zip(stripped, proven):
        factors = [(g, 1)] if ok else factor_z(g)
        if k1:
            factors.append((IntPoly((-1, 1)), k1))
        if k2:
            factors.append((IntPoly((1, 1)), k2))
        out.append(_sort_factors(factors))
    return out
