"""Dense integer polynomials with exact arithmetic.

A polynomial is stored as a tuple of coefficients in ascending degree,
with no trailing zeros, so ``IntPoly((1, -3, 1))`` is ``x^2 - 3x + 1``.
Everything in this module is exact: coefficients are Python ints and no
floating point is used.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Iterable, Optional, Sequence


def _trim(coeffs: Iterable[int]) -> list[int]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


@dataclass(frozen=True)
class IntPoly:
    """Integer-coefficient polynomial; ``coeffs[k]`` multiplies ``x^k``."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int]):
        object.__setattr__(self, "coeffs", tuple(_trim(coeffs)))

    # -- basics ------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, x):
        y = 0
        for c in reversed(self.coeffs):
            y = y * x + c
        return y

    def __repr__(self) -> str:
        if not self.coeffs:
            return "IntPoly(0)"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            term = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
            mag = abs(c)
            body = f"{mag}{term}" if (mag != 1 or k == 0) else term
            parts.append(("-" if c < 0 else ("+" if parts else "")) + body)
        return f"IntPoly({''.join(parts)})"

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ci in enumerate(a):
            if ci:
                for j, cj in enumerate(b):
                    out[i + j] += ci * cj
        return IntPoly(out)

    __rmul__ = __mul__

    def derivative(self) -> "IntPoly":
        return IntPoly(_derivative(self.coeffs))

    def primitive(self) -> "IntPoly":
        """Primitive part with positive leading coefficient."""
        return IntPoly(_primitive(list(self.coeffs)))


X = IntPoly((0, 1))
ONE = IntPoly((1,))


# -- division ---------------------------------------------------------------
# The kernel runs on plain ascending coefficient lists, trimmed, with [] for
# zero, so a remainder sequence builds no IntPoly per step: ``_prem`` is the
# one pseudo-remainder, for ``gcd_z``, the Sturm chain and the circle count.


def _quo(num: list[int], den: list[int]) -> list[int]:
    """num / den for nonzero den, raising if the division is not exact over Z."""
    if not num:
        return num
    d, lc = len(den) - 1, den[-1]
    if len(num) <= d:
        raise ArithmeticError("inexact polynomial division")
    rem = list(num)
    q = [0] * (len(num) - d)
    for k in range(len(q) - 1, -1, -1):
        c, r = divmod(rem[k + d], lc)
        if r:
            raise ArithmeticError("inexact polynomial division")
        q[k] = c
        if c:
            for i, dc in enumerate(den):
                rem[k + i] -= c * dc
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return q


def _prem(f: list[int], g: list[int]) -> tuple[list[int], int]:
    """Pseudo-remainder of f by nonzero g and the sign of the multiplier.

    Returns (r, s) with lc(g)^(deg f - deg g + 1) * f = q*g + r and s the
    sign of that power, so r/s is a positive multiple of the true rational
    remainder.
    """
    d, lc = len(g) - 1, g[-1]
    steps = len(f) - d
    if steps <= 0:
        return list(f), 1
    rem = list(f)
    for k in range(steps - 1, -1, -1):
        c = rem[k + d]
        if k and lc != 1:
            rem[:k] = [x * lc for x in rem[:k]]
        rem[k:k + d] = [x * lc - c * y for x, y in zip(rem[k:k + d], g)]
    del rem[d:]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem, (1 if lc > 0 or steps % 2 == 0 else -1)


def _primitive(c: list[int]) -> list[int]:
    """Primitive part with positive leading coefficient."""
    if not c:
        return c
    g = math.gcd(*c)
    return [x // (g if c[-1] > 0 else -g) for x in c]


def _derivative(c: Sequence[int]) -> list[int]:
    return [k * x for k, x in enumerate(c)][1:]


def _gcd(f: list[int], g: list[int]) -> list[int]:
    """Primitive gcd over Z (primitive PRS), positive leading coefficient."""
    a, b = _primitive(f), _primitive(g)
    if not a:
        return b
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_prem(a, b)[0])
    return a


def divides(den: IntPoly, num: IntPoly) -> bool:
    """Exact divisibility test over Z."""
    if den.is_zero:
        return num.is_zero
    try:
        _quo(list(num.coeffs), list(den.coeffs))
    except ArithmeticError:
        return False
    return True


def div_exact(num: IntPoly, den: IntPoly) -> IntPoly:
    """num / den, raising if the division is not exact over Z."""
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    return IntPoly(_quo(list(num.coeffs), list(den.coeffs)))


def gcd_z(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd over Z (primitive PRS), positive leading coefficient."""
    return IntPoly(_gcd(list(f.coeffs), list(g.coeffs)))


def squarefree_decomposition(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun decomposition of the primitive part: [(factor, multiplicity)]."""
    if p.degree < 1:
        return []
    f = p.primitive()
    a = gcd_z(f, f.derivative())
    if a.degree == 0:
        return [(f, 1)]
    b = div_exact(f, a)
    c = div_exact(f.derivative(), a)
    d = c - b.derivative()
    out: list[tuple[IntPoly, int]] = []
    i = 1
    while b.degree > 0:
        ai = gcd_z(b, d)
        if ai.degree > 0:
            out.append((ai, i))
            b = div_exact(b, ai)
            c = div_exact(d, ai)
        else:
            c = d
        d = c - b.derivative()
        i += 1
    return out


# -- power sums (Newton's identities) ------------------------------------------


def power_sums(p: IntPoly, m: int) -> list[int]:
    """[s_1, ..., s_m], s_j the sum of the j-th powers of the roots of monic p.

    The k-th powers of the roots have power sums s_k, s_2k, ..., so for p
    the char poly of A, ``from_power_sums(power_sums(p, n * k)[k - 1::k])``
    is the char poly of A^k (Newton's identities; Cohen, GTM 138).
    """
    if not p.is_monic:
        raise ValueError("expected a monic polynomial")
    n = p.degree
    a = p.coeffs[::-1]  # a[i] multiplies x^(n-i)
    s: list[int] = []
    for k in range(1, m + 1):
        t = -k * a[k] if k <= n else 0
        for i in range(1, min(k - 1, n) + 1):
            t -= a[i] * s[k - i - 1]
        s.append(t)
    return s


def from_power_sums(s: Sequence[int]) -> IntPoly:
    """The monic polynomial of degree len(s) whose roots have power sums s.

    Every division of Newton's identities must be exact; an inexact one
    raises ArithmeticError.
    """
    a = [1]
    for k in range(1, len(s) + 1):
        c, r = divmod(-sum(a[i] * s[k - i - 1] for i in range(k)), k)
        if r:
            raise ArithmeticError("Newton's identities gave a non-integer coefficient")
        a.append(c)
    return IntPoly(a[::-1])


# -- cyclotomic detection -----------------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> IntPoly:
    """m-th cyclotomic polynomial, by exact division of x^m - 1."""
    if m < 1:
        raise ValueError("cyclotomic index must be positive")
    p = IntPoly((-1,) + (0,) * (m - 1) + (1,))
    for d in range(1, m):
        if m % d == 0:
            p = div_exact(p, cyclotomic(d))
    return p


def _euler_phi(m: int) -> int:
    out, n, p = 1, m, 2
    while p * p <= n:
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            out *= (p - 1) * p ** (k - 1)
        p += 1
    if n > 1:
        out *= n - 1
    return out


@lru_cache(maxsize=None)
def cyclotomic_indices_up_to_degree(d: int) -> tuple[int, ...]:
    """All m with Euler phi(m) <= d; phi(m) >= sqrt(m/2) bounds the search."""
    return tuple(m for m in range(1, 2 * d * d + 2) if _euler_phi(m) <= d)


# -- reciprocal structure -----------------------------------------------------


def is_reciprocal(p: IntPoly) -> bool:
    """True iff the coefficient sequence is palindromic."""
    if not p.is_monic:
        raise ValueError("reciprocal test expects a monic polynomial")
    return p.coeffs == p.coeffs[::-1]


def is_poly_in_xm(p: IntPoly) -> Optional[int]:
    """Smallest m > 1 with p(x) = q(x^m), or None.

    Equals the gcd of the exponents of the nonzero coefficients when > 1.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    g = 0
    for k, c in enumerate(p.coeffs):
        if c and k > 0:
            g = math.gcd(g, k)
    return g if g > 1 else None


# -- Sturm machinery ----------------------------------------------------------
# Signed remainder sequences of coefficient lists, by the kernel's ``_prem``.


def _neg_rem(a: list[int], b: list[int]) -> list[int]:
    """Primitive list equal to a positive multiple of -rem(a, b)."""
    r, sign = _prem(a, b)
    if not r:
        return r
    g = -sign * math.gcd(*r)
    return [c // g for c in r]


def _sturm(c: list[int]) -> list[list[int]]:
    """Integer Sturm chain of the squarefree part of c."""
    f = _primitive(c)
    g = _gcd(f, _derivative(f))
    if len(g) > 1:
        f = _primitive(_quo(f, g))
    chain = [f, _primitive(_derivative(f))]
    if not chain[1]:
        return chain[:1]
    while len(chain[-1]) > 1:
        nxt = _neg_rem(chain[-2], chain[-1])
        if not nxt:
            break
        chain.append(nxt)
    return chain


def _variations(signs: list[int]) -> int:
    """Sign changes along a sequence of nonzero signs."""
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _index_over_line(seq: list[list[int]]) -> int:
    """Sign variations of a signed remainder sequence at -inf minus those at +inf."""
    nonzero = [c for c in seq if c]
    at_plus = [1 if c[-1] > 0 else -1 for c in nonzero]
    at_minus = [s if len(c) % 2 else -s for s, c in zip(at_plus, nonzero)]
    return _variations(at_minus) - _variations(at_plus)


def _real_root_count(c: list[int]) -> int:
    return _index_over_line(_sturm(c)) if len(c) > 1 else 0


# -- roots against the unit circle ----------------------------------------------


@lru_cache(maxsize=64)
def _cayley_basis(n: int) -> tuple[tuple[int, ...], ...]:
    """Ascending coefficients of (w+1)^k (w-1)^(n-k) for k = 0..n."""
    plus, minus = [ONE], [ONE]
    for _ in range(n):
        plus.append(plus[-1] * IntPoly((1, 1)))
        minus.append(minus[-1] * IntPoly((-1, 1)))
    return tuple((plus[k] * minus[n - k]).coeffs for k in range(n + 1))


def circle_root_counts(p: IntPoly) -> tuple[int, int]:
    """(inside, on): roots of p strictly inside and on the unit circle.

    Requires p(1) != 0 and p(-1) != 0.  Roots count with multiplicity, except
    that ``on`` counts a repeated root on the circle once, so both counts are
    exact for squarefree p and for any p without roots on the circle.

    One signed remainder sequence (Routh-Hurwitz; Gantmacher, Theory of
    Matrices II, ch. XV), run on coefficient lists by the module's
    pseudo-remainder kernel: z = (w+1)/(w-1) maps the disk onto the left
    half-plane and the circle onto the imaginary axis, so the roots are
    those of q(w) = (w-1)^n p((w+1)/(w-1)), which has degree n and
    q(0) != 0.  Write q(iy) = R(y) + i I(y).  The last element G of the
    sequence is gcd(R, I), whose real roots are the roots of q on the axis:
    ``on`` counts them.  G is even in y, so its other roots pair off across
    the axis, one on each side, and ``inside`` is (n - on + d)/2, with d the
    change of arg q(iy) over the real line in units of pi: the Cauchy index
    -Ind(I/R) for even n and Ind(R/I) for odd n, read from the signs at -inf
    and +inf.  For palindromic p, q is even, I is 0 and G = R.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    n = p.degree
    if n == 0:
        return 0, 0
    if p(1) == 0 or p(-1) == 0:
        raise ValueError("root at +-1")
    acc = [sum(map(mul, p.coeffs, column)) for column in zip(*_cayley_basis(n))]
    # i^j runs through 1, i, -1, -i
    re = _trim(c if j % 4 == 0 else -c if j % 4 == 2 else 0 for j, c in enumerate(acc))
    im = _trim(c if j % 4 == 1 else -c if j % 4 == 3 else 0 for j, c in enumerate(acc))
    den, num, sign = (re, im, -1) if n % 2 == 0 else (im, re, 1)
    seq = [den, num]
    while len(seq[-1]) > 1:
        seq.append(_neg_rem(seq[-2], seq[-1]))
    on = _real_root_count(seq[-1] or seq[-2])
    return (n - on + sign * _index_over_line(seq)) // 2, on


def count_unitary_roots(p: IntPoly) -> int:
    """Number of roots of modulus one, with multiplicity.

    Exact: ``circle_root_counts`` on each squarefree factor.
    """
    if not p.is_monic:
        raise ValueError("expected a monic polynomial")
    if p(1) == 0 or p(-1) == 0:
        raise ValueError("polynomial has a root at +-1")
    return sum(mult * circle_root_counts(f)[1] for f, mult in squarefree_decomposition(p))
