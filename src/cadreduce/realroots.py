"""Exact real root isolation for univariate polynomials over the rationals.

Polynomials are dense coefficient tuples (low degree first, trailing
coefficient nonzero).  Roots are isolated with Sturm sequences and rational
bisection, and represented by :class:`AlgebraicNumber` values that can be
refined on demand and compared exactly.  Signs at rational points are
computed in integer arithmetic (:func:`sign_at`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


class ZeroPolynomial(ValueError):
    """Raised when an operation needs a nonzero polynomial."""


UniPoly = tuple[Fraction, ...]

ZERO: UniPoly = ()


def poly(coeffs: Sequence[Fraction | int]) -> UniPoly:
    """Normalize a coefficient sequence (low degree first) to a UniPoly."""
    cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p: UniPoly) -> int:
    """Degree of ``p``; -1 for the zero polynomial."""
    return len(p) - 1


def is_zero(p: UniPoly) -> bool:
    return not p


def sign_at(p: UniPoly, x: Fraction) -> int:
    """Sign of p(x), in integers.

    With x = n/d (d > 0), deg p = k and L > 0 the least common denominator
    of the coefficients, L * d^k * p(x) is the integer sum of
    L*c_i * n^i * d^(k-i) (Horner's rule in n), which has the sign of p(x).
    """
    n, d = x.numerator, x.denominator
    den = lcm(*[c.denominator for c in p])
    acc = 0
    dpow = 1
    for c in reversed(p):
        acc = acc * n + c.numerator * (den // c.denominator) * dpow
        dpow *= d
    return (acc > 0) - (acc < 0)


def derivative(p: UniPoly) -> UniPoly:
    return poly([i * c for i, c in enumerate(p)][1:])


def negate(p: UniPoly) -> UniPoly:
    return tuple(-c for c in p)


def scale(p: UniPoly, c: Fraction) -> UniPoly:
    if c == 0:
        return ZERO
    return tuple(a * c for a in p)


def divmod_poly(p: UniPoly, q: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Exact polynomial division with remainder over the rationals."""
    if is_zero(q):
        raise ZeroPolynomial("division by the zero polynomial")
    rem = list(p)
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    lead = q[-1]
    while len(rem) >= len(q):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(q):
            break
        k = len(rem) - len(q)
        c = rem[-1] / lead
        quo[k] = c
        for i, b in enumerate(q):
            rem[k + i] -= c * b
        rem.pop()
    return poly(quo), poly(rem)


def rem_poly(p: UniPoly, q: UniPoly) -> UniPoly:
    return divmod_poly(p, q)[1]


def monic(p: UniPoly) -> UniPoly:
    if is_zero(p):
        return ZERO
    return scale(p, 1 / p[-1])


def gcd_poly(p: UniPoly, q: UniPoly) -> UniPoly:
    """Monic greatest common divisor."""
    a, b = p, q
    while not is_zero(b):
        a, b = b, rem_poly(a, b)
    return monic(a)


def primitive(p: UniPoly) -> UniPoly:
    """Scale so coefficients are coprime integers with positive leading one."""
    if is_zero(p):
        return ZERO
    den = lcm(*[c.denominator for c in p])
    ints = [int(c * den) for c in p]
    g = 0
    for c in ints:
        g = gcd(g, c)
    ints = [c // g for c in ints]
    if ints[-1] < 0:
        ints = [-c for c in ints]
    return tuple(Fraction(c) for c in ints)


def squarefree_part(p: UniPoly) -> UniPoly:
    """The product of the distinct irreducible factors of ``p``."""
    if is_zero(p):
        raise ZeroPolynomial("squarefree part of the zero polynomial")
    if degree(p) == 0:
        return (Fraction(1),)
    g = gcd_poly(p, derivative(p))
    q, r = divmod_poly(p, g)
    assert is_zero(r)
    return primitive(q)


def sturm_sequence(p: UniPoly) -> list[UniPoly]:
    """Sturm chain of ``p``: (p, p', -rem(...), ...) with no normalization.

    The difference of sign variations of the chain at a < b counts the
    distinct real roots of the squarefree part in the half-open interval
    (a, b].
    """
    if is_zero(p):
        raise ZeroPolynomial("Sturm sequence of the zero polynomial")
    chain = [p, derivative(p)]
    while not is_zero(chain[-1]) and degree(chain[-1]) > 0:
        chain.append(negate(rem_poly(chain[-2], chain[-1])))
    if is_zero(chain[-1]):
        chain.pop()
    return chain


def _variations_at(chain: Sequence[UniPoly], x: Fraction) -> int:
    signs = [s for s in (sign_at(f, x) for f in chain) if s]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def count_roots(p: UniPoly, a: Fraction, b: Fraction, chain: Sequence[UniPoly] | None = None) -> int:
    """Number of distinct real roots of ``p`` in the half-open interval (a, b].

    ``chain`` is the Sturm chain of the squarefree part of ``p``; pass
    ``sturm_sequence(p)`` when ``p`` is already squarefree.
    """
    if is_zero(p):
        raise ZeroPolynomial("root count of the zero polynomial")
    if a >= b:
        return 0
    if chain is None:
        chain = sturm_sequence(squarefree_part(p))
    return _variations_at(chain, a) - _variations_at(chain, b)


def _vanishes_inside(g: UniPoly, lo: Fraction, hi: Fraction) -> bool:
    """Whether ``g`` has a root in (lo, hi), where g divides the defining
    polynomial of an algebraic number, (lo, hi) lies inside its isolating
    interval and neither lo nor hi is a root of g.  That root can only be
    the number.

    g is squarefree, as the defining polynomial is, so it has at most that
    one root in (lo, hi) and the root is simple: g has it exactly when it
    changes sign between lo and hi.  No Sturm chain is needed.
    """
    return degree(g) >= 1 and sign_at(g, lo) != sign_at(g, hi)


def root_bound(p: UniPoly) -> Fraction:
    """Cauchy bound: all real roots lie strictly inside (-M, M)."""
    lead = abs(p[-1])
    return 1 + max(abs(c) for c in p) / lead


@dataclass(frozen=True)
class AlgebraicNumber:
    """A real algebraic number: a squarefree primitive defining polynomial
    together with a rational isolating interval containing exactly one of
    its roots.

    ``lo == hi`` encodes an exact rational root.  Otherwise ``lo < hi``, the
    number lies in the open interval and neither endpoint is a root of
    ``defining``.  Every constructor in the package keeps these invariants,
    and :meth:`sign_of` and :meth:`compare` rely on them.  Instances are
    immutable; :meth:`refine` returns a narrower copy for the same root.
    """

    defining: UniPoly
    lo: Fraction
    hi: Fraction

    @staticmethod
    def from_rational(r: Fraction | int) -> AlgebraicNumber:
        r = Fraction(r)
        return AlgebraicNumber(poly([-r.numerator, r.denominator]), r, r)

    @property
    def is_rational(self) -> bool:
        return self.lo == self.hi

    @property
    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("not an exact rational root")
        return self.lo

    def width(self) -> Fraction:
        return self.hi - self.lo

    def refine(self, width: Fraction) -> AlgebraicNumber:
        """Same root, isolating interval of width <= ``width``."""
        lo, hi = self.lo, self.hi
        if lo == hi:
            return self
        p = self.defining
        slo = sign_at(p, lo)
        while hi - lo > width:
            mid = (lo + hi) / 2
            s = sign_at(p, mid)
            if s == 0:
                return AlgebraicNumber(p, mid, mid)
            if s == slo:
                lo = mid
            else:
                hi = mid
        return AlgebraicNumber(p, lo, hi)

    def approx(self, width: Fraction) -> tuple[Fraction, Fraction]:
        r = self.refine(width)
        return (r.lo, r.hi)

    def sign_of(self, q: UniPoly) -> int:
        """Exact sign of q at this number."""
        if is_zero(q):
            return 0
        if self.is_rational:
            return sign_at(q, self.lo)
        # q(a) = r(a), as `defining` vanishes at a.
        r = rem_poly(q, self.defining)
        if degree(r) <= 0:
            return 0 if is_zero(r) else (1 if r[0] > 0 else -1)
        a = self
        zero_tested = False
        while True:
            lo, hi = interval_eval(r, a.lo, a.hi)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            if not zero_tested:
                # q(a) = 0 iff a is a root of gcd(defining, r).
                if _vanishes_inside(gcd_poly(a.defining, r), a.lo, a.hi):
                    return 0
                zero_tested = True
            a = a.refine(a.width() / 2)

    def compare_rational(self, r: Fraction) -> int:
        return self.sign_of(poly([-r, 1]))

    def compare(self, other: AlgebraicNumber) -> int:
        """Exact three-way comparison with another algebraic number."""
        if self.is_rational:
            return -other.compare_rational(self.lo)
        if other.is_rational:
            return self.compare_rational(other.lo)
        a, b = self, other
        equality_tested = False
        while True:
            # A number lies strictly inside its interval or is its point,
            # and a != b once refinement starts, so intervals that only
            # touch are ordered.
            if a.hi <= b.lo:
                return -1
            if b.hi <= a.lo:
                return 1
            if not equality_tested:
                # a = b iff their gcd g has a root in the intersection of the
                # intervals: such a root is the one root of each defining
                # polynomial there, and a common root is a root of g.
                g = gcd_poly(a.defining, b.defining)
                if _vanishes_inside(g, max(a.lo, b.lo), min(a.hi, b.hi)):
                    return 0
                equality_tested = True
            a = a.refine(a.width() / 2)
            b = b.refine(b.width() / 2)

    def negated(self) -> AlgebraicNumber:
        """The additive inverse, as a root of p(-x)."""
        # p(-x) has the coefficients of p up to sign, so it is primitive
        # once its leading coefficient is positive.
        flipped = [c if i % 2 == 0 else -c for i, c in enumerate(self.defining)]
        if flipped[-1] < 0:
            flipped = [-c for c in flipped]
        return AlgebraicNumber(tuple(flipped), -self.hi, -self.lo)

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.lo)
        return f"root of {self.defining} in ({self.lo}, {self.hi})"


def make_algebraic(p: UniPoly, lo: Fraction, hi: Fraction) -> AlgebraicNumber:
    """Validated construction from untrusted data (e.g. parsed documents)."""
    if is_zero(p):
        raise ZeroPolynomial("algebraic number needs a nonzero defining polynomial")
    sf = squarefree_part(p)
    if lo == hi:
        if sign_at(sf, lo) != 0:
            raise ValueError(f"{lo} is not a root of {p}")
        return AlgebraicNumber.from_rational(lo)
    if lo > hi:
        raise ValueError("empty isolating interval")
    if sign_at(sf, lo) == 0 or sign_at(sf, hi) == 0:
        raise ValueError("isolating interval endpoints must not be roots")
    if count_roots(sf, lo, hi, sturm_sequence(sf)) != 1:
        raise ValueError(f"interval ({lo}, {hi}) does not isolate one root of {p}")
    return AlgebraicNumber(sf, lo, hi)


def interval_eval(p: UniPoly, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Interval extension of polynomial evaluation on [lo, hi]."""
    alo = ahi = Fraction(0)
    for c in reversed(p):
        # [alo, ahi] * [lo, hi] + c
        prods = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(prods) + c, max(prods) + c
    return alo, ahi


def isolate_roots(p: UniPoly) -> list[AlgebraicNumber]:
    """Isolate the distinct real roots of ``p``, sorted increasingly.

    Intervals are pairwise disjoint and each contains exactly one root of
    the squarefree part.  Rational roots collapse to exact points.
    """
    if is_zero(p):
        raise ZeroPolynomial("cannot isolate roots of the zero polynomial")
    sf = squarefree_part(p)
    if degree(sf) == 0:
        return []
    chain = sturm_sequence(sf)
    bound = root_bound(sf)
    roots: list[AlgebraicNumber] = []

    def explore(a: Fraction, b: Fraction, count: int) -> None:
        # Invariant: `count` roots of sf in (a, b], endpoints a with sf(a) != 0.
        if count == 0:
            return
        sb = sign_at(sf, b)
        if count == 1:
            if sb == 0:
                roots.append(AlgebraicNumber(sf, b, b))
                return
            lo, hi = a, b
            # Shrink until the endpoints are off the root and have opposite
            # signs (then plain sign bisection refines the root later).
            while True:
                sa = sign_at(sf, lo)
                if sa != 0 and sa != sb:
                    break
                mid = (lo + hi) / 2
                sm = sign_at(sf, mid)
                if sm == 0:
                    roots.append(AlgebraicNumber(sf, mid, mid))
                    return
                if count_roots(sf, mid, hi, chain) == 1:
                    lo = mid
                else:
                    hi, sb = mid, sm
            roots.append(AlgebraicNumber(sf, lo, hi))
            return
        mid = (a + b) / 2
        left = count_roots(sf, a, mid, chain)
        explore(a, mid, left)
        explore(mid, b, count - left)

    total = count_roots(sf, -bound, bound, chain)
    explore(-bound, bound, total)
    # Tighten: narrow intervals read better and rational roots that the
    # bisection grid can hit (halves of integers) collapse to exact points.
    roots = [r.refine(Fraction(1, 2)) for r in roots]
    roots.sort(key=lambda r: (r.lo, r.hi))
    return roots
