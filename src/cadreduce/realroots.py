"""Exact real algebraic numbers: root isolation for univariate polynomials
over the rationals, and the field operations on their roots.

Polynomials are dense tuples of ints (low degree first, trailing
coefficient nonzero): a rational polynomial is kept as a positive
multiple, with its signs and roots.  Roots are isolated with Sturm
sequences and rational bisection, and represented by
:class:`AlgebraicNumber` values: a defining polynomial and an isolating
interval, which pin the number exactly, so every sign and comparison is
decided, zero included.  Sums, products, inverses, powers and square roots
of algebraic numbers are algebraic numbers again (``Real``: a
``Fraction`` or an ``AlgebraicNumber``).  Signs at rational points
(:func:`sign_at`, by :func:`horner`), remainders (:func:`pseudo_rem`) and
gcds are computed in integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt
from operator import add, mul
from typing import Callable, Sequence, Union

from cadreduce.poly import IntPoly, clear_denominators, primitive


class ZeroPolynomial(ValueError):
    """Raised when an operation needs a nonzero polynomial."""


def degree(p: Sequence[int]) -> int:
    """Degree of ``p``; -1 for the zero polynomial."""
    return len(p) - 1


def sign_at(p: Sequence[int], x: Fraction) -> int:
    """Sign of p(x): the sign of ``horner(p, n, d)`` for x = n/d."""
    v = horner(p, x.numerator, x.denominator)
    return (v > 0) - (v < 0)


def horner(p: Sequence[int], n: int, d: int) -> int:
    """d^k * p(n/d) for deg p = k, the sum of c_i * n^i * d^(k-i) by
    Horner's rule in n: an integer, with the sign of p(n/d) when d > 0.
    n/d need not be in lowest terms."""
    acc = 0
    dpow = 1
    for c in reversed(p):
        acc = acc * n + c * dpow
        dpow *= d
    return acc


def derivative(p: Sequence[int]) -> IntPoly:
    return tuple(i * c for i, c in enumerate(p))[1:]


def pseudo_rem(p: Sequence[int], q: Sequence[int]) -> list[int]:
    """A positive multiple of the remainder of p by q, for q with a
    positive leading coefficient c: each reduction step scales by c
    instead of dividing by it, so the arithmetic stays in integers."""
    assert q and q[-1] > 0 and all(type(b) is int for b in q), f"not an integer q with c > 0: {q}"
    rem = list(p)
    lead, lower = q[-1], q[:-1]
    while len(rem) >= len(q):
        top = rem.pop()
        if top:
            k = len(rem) - len(lower)
            rem = [lead * c for c in rem]
            for i, b in enumerate(lower):
                rem[k + i] -= top * b
    while rem and not rem[-1]:
        rem.pop()
    return rem


def gcd_poly(p: Sequence[int], q: Sequence[int]) -> IntPoly:
    """The greatest common divisor, primitive with a positive leading
    coefficient, by a primitive pseudo-remainder sequence."""
    a, b = primitive(p), primitive(q)
    while b:
        a, b = b, primitive(pseudo_rem(a, b))
    return a


def _exact_quotient(p: Sequence[int], g: IntPoly) -> list[int]:
    """p / g for a primitive g that divides p: by Gauss's lemma the
    quotient has integer coefficients, so every step divides exactly."""
    rem = list(p)
    quo = [0] * (len(p) - len(g) + 1)
    for k in reversed(range(len(quo))):
        c, r = divmod(rem[k + len(g) - 1], g[-1])
        assert not r, (p, g)
        quo[k] = c
        for i, b in enumerate(g):
            rem[k + i] -= c * b
    assert not any(rem), (p, g)
    return quo


def squarefree_part(p: Sequence[int]) -> IntPoly:
    """The product of the distinct irreducible factors of ``p``, primitive
    with a positive leading coefficient."""
    if not p:
        raise ZeroPolynomial("squarefree part of the zero polynomial")
    return primitive(_exact_quotient(p, gcd_poly(p, derivative(p))))


def sturm_sequence(p: Sequence[int]) -> list[IntPoly]:
    """Sturm chain of ``p``: p, p', then the negated remainders, each
    scaled by a positive constant, which keeps every sign: |lc|^k
    (``pseudo_rem`` by the divisor with a positive leading coefficient)
    over its content, which keeps the coefficients from growing
    exponentially along the chain.

    The difference of sign variations of the chain at a < b counts the
    distinct real roots of the squarefree part in the half-open interval
    (a, b].
    """
    if not p:
        raise ZeroPolynomial("Sturm sequence of the zero polynomial")
    chain = [tuple(p), derivative(p)]
    while degree(chain[-1]) > 0:
        b = chain[-1]
        rem = pseudo_rem(chain[-2], b if b[-1] > 0 else tuple(-c for c in b))
        # primitive() makes the leading coefficient positive; -rem's sign is kept.
        scaled = primitive(rem)
        chain.append(tuple(-c for c in scaled) if rem and rem[-1] > 0 else scaled)
    if not chain[-1]:
        chain.pop()
    return chain


def _variations_at(chain: Sequence[Sequence[int]], x: Fraction) -> int:
    signs = [s for s in (sign_at(f, x) for f in chain) if s]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def count_roots(p: Sequence[int], a: Fraction, b: Fraction, chain: Sequence[IntPoly] | None = None) -> int:
    """Number of distinct real roots of ``p`` in the half-open interval (a, b].

    ``chain`` is the Sturm chain of the squarefree part of ``p``; pass
    ``sturm_sequence(p)`` when ``p`` is already squarefree.
    """
    if a >= b:
        return 0
    if chain is None:
        chain = sturm_sequence(squarefree_part(p))
    return _variations_at(chain, a) - _variations_at(chain, b)


def _vanishes_inside(g: IntPoly, lo: Fraction, hi: Fraction) -> bool:
    """Whether ``g`` has a root in (lo, hi), where g divides the defining
    polynomial of an algebraic number, (lo, hi) lies inside its isolating
    interval and neither lo nor hi is a root of g.  That root can only be
    the number.

    g is squarefree, as the defining polynomial is, so it has at most that
    one root in (lo, hi) and the root is simple: g has it exactly when it
    changes sign between lo and hi.  No Sturm chain is needed.
    """
    if degree(g) < 1:
        return False
    return sign_at(g, lo) != sign_at(g, hi)


def root_bound(p: IntPoly) -> Fraction:
    """Cauchy bound: all real roots lie strictly inside (-M, M)."""
    return 1 + Fraction(max(abs(c) for c in p), abs(p[-1]))


@dataclass(frozen=True)
class AlgebraicNumber:
    """A real algebraic number: a squarefree defining polynomial, primitive
    with a positive leading coefficient, together with a rational isolating interval containing exactly one of
    its roots.

    ``lo == hi`` encodes an exact rational root.  Otherwise ``lo < hi``, the
    number lies in the open interval and neither endpoint is a root of
    ``defining``.  Every constructor in the package keeps these invariants,
    and :meth:`sign_of` and :meth:`compare` rely on them.  Instances are
    immutable; :meth:`refine` returns a narrower copy for the same root.
    """

    defining: IntPoly
    lo: Fraction
    hi: Fraction

    @staticmethod
    def from_rational(r: Fraction | int) -> AlgebraicNumber:
        r = Fraction(r)
        return AlgebraicNumber((-r.numerator, r.denominator), r, r)

    @property
    def is_rational(self) -> bool:
        lo, hi = self.lo, self.hi  # by parts: ``Fraction.__eq__`` makes an ABC check first
        return lo is hi or (lo.numerator == hi.numerator and lo.denominator == hi.denominator)

    @property
    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("not an exact rational root")
        return self.lo

    def width(self) -> Fraction:
        return self.hi - self.lo

    def refine(self, width: Fraction) -> AlgebraicNumber:
        """Same root, isolating interval of width <= ``width``: ``self``
        when its interval is that narrow already (no sign is computed),
        otherwise bisected exactly, k halvings, over the one denominator e
        of lo and hi times 2^k: each midpoint m/e is signed by ``horner``."""
        lo, hi = self.lo, self.hi
        # hi - lo <= width (also when lo == hi), over e.
        e = lo.denominator * hi.denominator
        low, span = lo.numerator * hi.denominator, hi.numerator * lo.denominator
        span -= low
        excess = span * width.denominator
        if excess <= width.numerator * e:
            return self
        # The least k with span / 2^k <= width * e.
        k = (-(-excess // (width.numerator * e)) - 1).bit_length()
        low, span, e = low << k, span << k, e << k
        p = self.defining
        slo = horner(p, low, e) > 0
        for _ in range(k):
            span >>= 1
            mid = low + span
            v = horner(p, mid, e)
            if not v:
                m = Fraction(mid, e)
                return AlgebraicNumber(self.defining, m, m)
            if (v > 0) == slo:
                low = mid
        return AlgebraicNumber(self.defining, Fraction(low, e), Fraction(low + span, e))

    def approx(self, width: Fraction) -> tuple[Fraction, Fraction]:
        r = self.refine(width)
        return (r.lo, r.hi)

    def sign_of(self, q: Sequence[int]) -> int:
        """Exact sign of q at this number."""
        if self.is_rational:
            return sign_at(q, self.lo)
        return self.sign_of_remainder(pseudo_rem(q, self.defining))

    def sign_of_remainder(self, r: list[int]) -> int:
        """``sign_of(q)`` at an irrational number from ``pseudo_rem(q,
        defining)``, which numbers sharing ``defining`` can share."""
        # q(a) = r(a) times a positive constant, r the pseudo-remainder by
        # `defining`, which vanishes at a and is primitive with a positive
        # leading coefficient (``pseudo_rem`` asserts what it needs of that).
        if len(r) <= 1:
            return 0 if not r else (1 if r[0] > 0 else -1)
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
        return self.sign_of((-r.numerator, r.denominator))

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
        """The additive inverse, as a root of p(-x): p itself when p is
        even, such as the q*y^2 - p of a square root."""
        p = self.defining
        if any(p[1::2]):
            # p(-x) has the coefficients of p up to sign, so it is
            # primitive once its leading coefficient is positive.
            p = [c if i % 2 == 0 else -c for i, c in enumerate(p)]
            p = tuple(p) if p[-1] > 0 else tuple(-c for c in p)
        return AlgebraicNumber(p, -self.hi, -self.lo)

    __neg__ = negated

    def __add__(self, other: Real) -> Real:
        return _compose(self, other, add)

    __radd__ = __add__

    def __sub__(self, other: Real) -> Real:
        return _compose(self, -other, add)

    def __rsub__(self, other: Real) -> Real:
        return _compose(other, self.negated(), add)

    def __mul__(self, other: Real) -> Real:
        return _compose(self, other, mul)

    __rmul__ = __mul__

    def __truediv__(self, other: Real) -> Real:
        return _compose(self, _inverse(other), mul)

    def __rtruediv__(self, other: Real) -> Real:
        return _compose(other, _inverse(self), mul)

    def __pow__(self, k: int) -> Real:
        return _power(self, k)

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.lo)
        return f"root of {self.defining} in ({self.lo}, {self.hi})"


def make_algebraic(p: Sequence[int], lo: Fraction, hi: Fraction) -> AlgebraicNumber:
    """Validated construction from untrusted data (e.g. parsed documents)."""
    if not p:
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


def interval_eval(p: Sequence[int], lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Interval extension of polynomial evaluation on [lo, hi]."""
    alo = ahi = Fraction(0)
    for c in reversed(p):
        # [alo, ahi] * [lo, hi] + c
        prods = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(prods) + c, max(prods) + c
    return alo, ahi


def isolate_roots(p: Sequence[int]) -> list[AlgebraicNumber]:
    """Isolate the distinct real roots of ``p``, sorted increasingly.

    Intervals are pairwise disjoint and each contains exactly one root of
    the squarefree part.  Rational roots collapse to exact points.
    """
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


# ---------------------------------------------------------------------------
# Arithmetic
#
# a + b is a root of prod (y - a_i - b_j) and a * b of prod (y - a_i b_j),
# over the roots a_i of a's defining polynomial m_a and b_j of m_b: up to
# a constant these are Res_x(m_a(x), m_b(y - x)) and
# Res_x(m_a(x), x^d m_b(y/x)), the characteristic polynomials of the
# Kronecker sum and product of the two companion matrices.  They are built
# from power sums by Newton's identities: those of a sum are binomial
# convolutions of the operands' power sums, those of a product their
# products, and those of a^k every k-th power sum of a.  The result is the
# root that stays in an interval enclosure of it as the operands are
# refined (Loos, "Computing in algebraic extensions", 1982).

Real = Union[Fraction, AlgebraicNumber]


def sign(v: Real) -> int:
    """The exact sign of a rational or algebraic number."""
    if isinstance(v, AlgebraicNumber):
        return v.sign_of((0, 1))
    return (v.numerator > 0) - (v.numerator < 0)


def enclosure(v: Real, width: Fraction) -> tuple[Fraction, Fraction]:
    """A closed rational interval around v, of width <= ``width``."""
    return (v, v) if isinstance(v, Fraction) else v.approx(width)


def _power_sums(p: Sequence[int], count: int) -> list[Fraction]:
    """s_0 .. s_count, s_k the sum of the k-th powers of the roots of p,
    counted with multiplicity (Newton's identities)."""
    d = len(p) - 1
    c = [Fraction(x, p[-1]) for x in p]
    s = [Fraction(d)]
    for k in range(1, count + 1):
        t = k * c[d - k] if k <= d else 0
        s.append(-t - sum(c[d - i] * s[k - i] for i in range(1, min(k - 1, d) + 1)))
    return s


def _from_power_sums(s: Sequence[Fraction]) -> list[int]:
    """The polynomial of degree len(s) - 1 whose roots have the power sums s,
    in integers (Newton's identities, the other way)."""
    n = len(s) - 1
    e = [Fraction(1)]
    for k in range(1, n + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * s[i] for i in range(1, k + 1)) / k)
    return clear_denominators([(-1) ** k * e[k] for k in reversed(range(n + 1))])


def _defining(v: Real) -> IntPoly:
    return v.defining if isinstance(v, AlgebraicNumber) else (-v.numerator, v.denominator)


def _exact(r: AlgebraicNumber) -> Real:
    """r, as a Fraction when it is rational.  A rational root of the
    primitive defining polynomial has a denominator that divides its
    leading coefficient L, so L * r is then the one integer in L times an
    isolating interval narrower than 1/(2L), which the polynomial is
    signed at."""
    lead = r.defining[-1]
    r = r.refine(Fraction(1, 2 * lead))
    if r.is_rational:
        return r.lo
    c = Fraction((r.hi.numerator * lead) // r.hi.denominator, lead)
    return c if r.lo < c and sign_at(r.defining, c) == 0 else r


def _pick(p: Sequence[int], enclose: Callable[[Fraction], tuple[Fraction, Fraction]]) -> Real:
    """The root of p that lies in ``enclose(w)`` for every width w: the
    enclosures are narrowed until they hold one root of p's squarefree
    part, which the Sturm chain counts."""
    sf = squarefree_part(p)
    chain = sturm_sequence(sf)
    width = Fraction(1, 4)
    while True:
        lo, hi = enclose(width)
        # The roots in [lo, hi]: those in (lo, hi], and lo.
        on_lo = sign_at(sf, lo) == 0
        if count_roots(sf, lo, hi, chain) + on_lo == 1:
            break
        width /= 16
    if on_lo or sign_at(sf, hi) == 0:
        return lo if on_lo else hi
    return _exact(AlgebraicNumber(sf, lo, hi))


def _compose(a: Real, b: Real, op: Callable[[Fraction, Fraction], Fraction]) -> Real:
    """a + b or a * b, for ``op`` ``operator.add`` or ``operator.mul``."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return op(a, b)
    pa, pb = _defining(a), _defining(b)
    n = degree(pa) * degree(pb)
    sa, sb = _power_sums(pa, n), _power_sums(pb, n)
    if op is add:
        sums = [sum(comb(k, j) * sa[j] * sb[k - j] for j in range(k + 1)) for k in range(n + 1)]
    else:
        sums = [x * y for x, y in zip(sa, sb)]

    def enclose(w: Fraction) -> tuple[Fraction, Fraction]:
        (alo, ahi), (blo, bhi) = enclosure(a, w), enclosure(b, w)
        ends = (op(alo, blo), op(alo, bhi), op(ahi, blo), op(ahi, bhi))
        return min(ends), max(ends)

    return _pick(_from_power_sums(sums), enclose)


def _inverse(a: Real) -> Real:
    """1/a for a != 0, as a root of the reversed defining polynomial: the
    roots of p other than 0, inverted.  x -> 1/x maps a's isolating
    interval, once it excludes 0, onto one for 1/a."""
    if isinstance(a, Fraction):
        return 1 / a
    if a.is_rational:
        return 1 / a.lo
    if not sign(a):
        raise ZeroDivisionError("division by an algebraic zero")
    p = a.defining[1:] if not a.defining[0] else a.defining
    while a.lo <= 0 <= a.hi:
        a = a.refine(a.width() / 2)
    return _exact(AlgebraicNumber(primitive(p[::-1]), 1 / a.hi, 1 / a.lo))


def _power(a: AlgebraicNumber, k: int) -> Real:
    """a^k for an integer k >= 0: a root of the polynomial whose roots are
    the k-th powers of the roots of a's, of the same degree."""
    if k < 2:
        return Fraction(1) if k == 0 else a
    d = degree(a.defining)

    def enclose(w: Fraction) -> tuple[Fraction, Fraction]:
        lo, hi = a.approx(w)
        ends = (lo**k, hi**k)
        if k % 2 == 0 and lo < 0 < hi:
            return Fraction(0), max(ends)
        return min(ends), max(ends)

    return _pick(_from_power_sums(_power_sums(a.defining, d * k)[::k]), enclose)


def _sqrt_bounds(c: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Rational enclosure of sqrt(c) of width <= ``width`` (c >= 0)."""
    if c == 0:
        return (Fraction(0), Fraction(0))
    # The least power of two m with 1/m <= width, i.e. m >= ceil(1/width).
    m = 1 << (-(-width.denominator // width.numerator) - 1).bit_length()
    n = (c.numerator * m * m) // c.denominator
    s = isqrt(n)
    return (Fraction(s, m), Fraction(s + 1, m))


def _algebraic_sqrt(c: Fraction) -> AlgebraicNumber:
    """sqrt(c) for positive non-square c, as an exact algebraic number."""
    lo, hi = _sqrt_bounds(c, Fraction(1, 4))
    # For c = p/q in lowest terms, q*x^2 - p is primitive and squarefree.
    defining = (-c.numerator, 0, c.denominator)
    # c is not a perfect square, so the rational bounds are never roots.
    return AlgebraicNumber(defining, lo, hi)


def sqrt(v: Real) -> Real:
    """The square root of v >= 0: rational for the square of a rational,
    else a root of m(y^2) for v's defining polynomial m."""
    if isinstance(v, Fraction):
        n, d = isqrt(v.numerator), isqrt(v.denominator)
        return Fraction(n, d) if n * n == v.numerator and d * d == v.denominator else _algebraic_sqrt(v)
    if v.is_rational:
        return sqrt(v.lo)
    q = [0] * (2 * len(v.defining) - 1)
    q[::2] = v.defining

    def enclose(w: Fraction) -> tuple[Fraction, Fraction]:
        lo, hi = v.approx(w)
        return _sqrt_bounds(max(lo, Fraction(0)), w)[0], _sqrt_bounds(hi, w)[1]

    return _pick(q, enclose)
