"""Exact real root isolation for univariate polynomials over the rationals.

Polynomials are dense coefficient tuples (low degree first, trailing
coefficient nonzero).  Roots are isolated with Sturm sequences and rational
bisection, and represented by :class:`AlgebraicNumber` values that can be
refined on demand and compared exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


class ZeroPolynomial(ValueError):
    """Raised when an operation needs a nonzero polynomial."""


UniPoly = tuple[Fraction, ...]

ZERO: UniPoly = ()


def poly(coeffs: Sequence[Fraction | int]) -> UniPoly:
    """Normalize a coefficient sequence (low degree first) to a UniPoly."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p: UniPoly) -> int:
    """Degree of ``p``; -1 for the zero polynomial."""
    return len(p) - 1


def is_zero(p: UniPoly) -> bool:
    return not p


def evaluate(p: UniPoly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p: UniPoly) -> UniPoly:
    return poly([i * c for i, c in enumerate(p)][1:])


def negate(p: UniPoly) -> UniPoly:
    return tuple(-c for c in p)


def add(p: UniPoly, q: UniPoly) -> UniPoly:
    n = max(len(p), len(q))
    return poly([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def sub(p: UniPoly, q: UniPoly) -> UniPoly:
    return add(p, negate(q))


def mul(p: UniPoly, q: UniPoly) -> UniPoly:
    if not p or not q:
        return ZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly(out)


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
    from math import gcd, lcm

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


def sign_variations(values: Sequence[Fraction]) -> int:
    count = 0
    prev = 0
    for v in values:
        if v == 0:
            continue
        s = 1 if v > 0 else -1
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _variations_at(chain: Sequence[UniPoly], x: Fraction) -> int:
    return sign_variations([evaluate(f, x) for f in chain])


def count_roots(p: UniPoly, a: Fraction, b: Fraction, chain: Sequence[UniPoly] | None = None) -> int:
    """Number of distinct real roots of ``p`` in the half-open interval (a, b]."""
    if is_zero(p):
        raise ZeroPolynomial("root count of the zero polynomial")
    if a >= b:
        return 0
    if chain is None:
        chain = sturm_sequence(squarefree_part(p))
    return _variations_at(chain, a) - _variations_at(chain, b)


def root_bound(p: UniPoly) -> Fraction:
    """Cauchy bound: all real roots lie strictly inside (-M, M)."""
    lead = abs(p[-1])
    return 1 + max(abs(c) for c in p) / lead


@dataclass(frozen=True)
class AlgebraicNumber:
    """A real algebraic number: a squarefree defining polynomial together
    with a rational isolating interval containing exactly one of its roots.

    ``lo == hi`` encodes an exact rational root.  Instances are immutable;
    :meth:`refine` returns a narrower copy for the same root.
    """

    defining: UniPoly
    lo: Fraction
    hi: Fraction

    @staticmethod
    def from_rational(r: Fraction | int) -> AlgebraicNumber:
        r = Fraction(r)
        return AlgebraicNumber(poly([-r, 1]), r, r)

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
        flo = evaluate(p, lo)
        slo = 1 if flo > 0 else -1
        while hi - lo > width:
            mid = (lo + hi) / 2
            fm = evaluate(p, mid)
            if fm == 0:
                return AlgebraicNumber(p, mid, mid)
            if (1 if fm > 0 else -1) == slo:
                lo = mid
            else:
                hi = mid
        return AlgebraicNumber(p, lo, hi)

    def approx(self, width: Fraction) -> tuple[Fraction, Fraction]:
        r = self.refine(width)
        return (r.lo, r.hi)

    def sign(self) -> int:
        if self.is_rational:
            v = self.lo
            return 0 if v == 0 else (1 if v > 0 else -1)
        a = self
        while a.lo < 0 < a.hi:
            if evaluate(a.defining, Fraction(0)) == 0:
                return 0
            a = a.refine(a.width() / 2)
        return 1 if a.lo > 0 else -1

    def sign_of(self, q: UniPoly) -> int:
        """Exact sign of q at this number."""
        if is_zero(q):
            return 0
        if self.is_rational:
            v = evaluate(q, self.lo)
            return 0 if v == 0 else (1 if v > 0 else -1)
        g = gcd_poly(self.defining, squarefree_part(q))
        if degree(g) >= 1 and count_roots(g, self.lo, self.hi) >= 1:
            # The only root of `defining` in the interval is this number,
            # and every root of g is a root of `defining`.
            return 0
        a = self
        while True:
            lo, hi = interval_eval(q, a.lo, a.hi)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
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
        g = gcd_poly(a.defining, b.defining)
        # Equality is possible only if both numbers are roots of the gcd.
        may_be_equal = (
            degree(g) >= 1
            and count_roots(g, a.lo, a.hi) >= 1
            and count_roots(g, b.lo, b.hi) >= 1
        )
        while True:
            if a.hi < b.lo:
                return -1
            if b.hi < a.lo:
                return 1
            if may_be_equal:
                hull_lo, hull_hi = min(a.lo, b.lo), max(a.hi, b.hi)
                if count_roots(g, hull_lo, hull_hi) == 1:
                    return 0
            a = a.refine(a.width() / 2)
            b = b.refine(b.width() / 2)

    def negated(self) -> AlgebraicNumber:
        """The additive inverse, as a root of p(-x)."""
        flipped = primitive(tuple(c if i % 2 == 0 else -c for i, c in enumerate(self.defining)))
        return AlgebraicNumber(flipped, -self.hi, -self.lo)

    def shifted(self, delta: Fraction) -> AlgebraicNumber:
        """This number plus ``delta``, as a root of p(x - delta)."""
        x_minus_d = poly([-delta, 1])
        acc: UniPoly = ZERO
        power: UniPoly = (Fraction(1),)
        for c in self.defining:
            acc = add(acc, scale(power, c))
            power = mul(power, x_minus_d)
        return AlgebraicNumber(primitive(acc), self.lo + delta, self.hi + delta)

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
        if evaluate(sf, lo) != 0:
            raise ValueError(f"{lo} is not a root of {p}")
        return AlgebraicNumber.from_rational(lo)
    if lo > hi:
        raise ValueError("empty isolating interval")
    if evaluate(sf, lo) == 0 or evaluate(sf, hi) == 0:
        raise ValueError("isolating interval endpoints must not be roots")
    if count_roots(sf, lo, hi) != 1:
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
        vb = evaluate(sf, b)
        if count == 1:
            if vb == 0:
                roots.append(AlgebraicNumber(sf, b, b))
                return
            lo, hi = a, b
            # Shrink until the endpoints are off the root and have opposite
            # signs (then plain sign bisection refines the root later).
            while True:
                va = evaluate(sf, lo)
                if va != 0 and va * vb < 0:
                    break
                mid = (lo + hi) / 2
                vm = evaluate(sf, mid)
                if vm == 0:
                    roots.append(AlgebraicNumber(sf, mid, mid))
                    return
                if count_roots(sf, mid, hi, chain) == 1:
                    lo = mid
                else:
                    hi, vb = mid, vm
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
