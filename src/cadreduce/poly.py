"""One polynomial ring over Q, and its univariate view in integers.

A :class:`Polynomial` is sparse, in variables x_i and opaque atoms (which
``expr`` names).  It is stored as integer coefficients over one positive
common denominator, in lowest terms (the layout of FLINT's ``fmpq_poly``),
so equal polynomials are stored alike.  Elements are immutable:
``expr.to_polynomial`` hands one to every caller.  The univariate view,
which ``integer_coeffs`` makes and ``realroots`` takes, is a tuple of ints,
low degree first, with no trailing zero.  Contents and common denominators
are taken here and nowhere else.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

# A generator: (0, i, "") for x_i, (1, 0, sexpr) for an atom.
GenKey = tuple[int, int, str]
# Generators with their positive exponents, sorted by generator.
Monomial = tuple[tuple[GenKey, int], ...]
IntPoly = tuple[int, ...]


def monomial_product(m1: Monomial, m2: Monomial) -> Monomial:
    exps: dict[GenKey, int] = {}
    for g, e in m1:
        exps[g] = exps.get(g, 0) + e
    for g, e in m2:
        exps[g] = exps.get(g, 0) + e
    return tuple(sorted(exps.items()))


class Polynomial:
    """The sum of ``terms[m] * m`` (nonzero ints) over ``den`` > 0, with
    ``gcd(den, *terms.values()) == 1``."""

    __slots__ = ("terms", "den", "_top")

    def __init__(self, terms: dict[Monomial, int], den: int = 1):
        g = gcd(den, *terms.values())
        if g != 1:
            terms = {m: c // g for m, c in terms.items()}
            den //= g
        self.terms = terms
        self.den = den
        self._top: dict[int, int] | None = None

    @staticmethod
    def constant(c: Fraction) -> Polynomial:
        return Polynomial({(): c.numerator} if c else {}, c.denominator)

    @staticmethod
    def generator(key: GenKey) -> Polynomial:
        return Polynomial({((key, 1),): 1})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __neg__(self) -> Polynomial:
        return Polynomial({m: -c for m, c in self.terms.items()}, self.den)

    def __add__(self, other: Polynomial) -> Polynomial:
        out = {m: c * other.den for m, c in self.terms.items()}
        for m, c in other.terms.items():
            s = out.get(m, 0) + c * self.den
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial(out, self.den * other.den)

    def __mul__(self, other: Polynomial) -> Polynomial:
        out: dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_product(m1, m2)
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return Polynomial(out, self.den * other.den)

    def __pow__(self, k: int) -> Polynomial:
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    def content(self) -> Fraction:
        """The Gauss content, with the sign of the leading coefficient (at
        the greatest monomial): the polynomial over it is primitive, with
        coprime integer coefficients and a positive leading one."""
        g = gcd(*self.terms.values())
        return Fraction(-g if self.terms[max(self.terms)] < 0 else g, self.den)

    def degrees(self) -> dict[int, int]:
        """The top degree of each variable, in the order the terms first
        use it; made once."""
        top = self._top
        if top is None:
            top = self._top = {}
            for mon in self.terms:
                for (_, i, _), k in mon:
                    if k > top.get(i, 0):
                        top[i] = k
        return top

    @property
    def variables(self) -> tuple[int, ...]:
        """The variables, in a set's order, in which ``expr.atom_sign``
        names a missing coordinate."""
        return tuple(set(self.degrees()))


ONE = Polynomial({(): 1})


def integer_coeffs(p: Polynomial, values: dict[int, Fraction], index: int | None) -> tuple[list[int], int]:
    """The dense coefficients in x_index of ``p``, a polynomial in
    variables, with the rational ``values`` substituted for every other
    variable (a constant when ``index`` is None), summed in integers:
    integers a_d, trailing zeros dropped, and a scale s > 0 with a_d / s the
    coefficient of x_index^d.  A variable that is neither ``index`` nor
    given a value raises ``ValueError``: the point has no such coordinate.

    With L = ``p.den``, x_i = n_i/d_i and K_i the top degree of x_i in p,
    s = L * prod d_i^K_i, and a term c * prod x_i^k_i contributes
    L*c * prod n_i^k_i * d_i^(K_i - k_i) to a_{k_index} (a_0 when ``index``
    is None).  As s > 0, the a_d give every sign the exact ones give."""
    top = p.degrees()
    common = 1
    parts: dict[int, tuple[int, int]] = {}
    for i, k in top.items():
        if i != index:
            v = values.get(i)
            if v is None:
                raise ValueError(f"point has no coordinate {i}")
            parts[i] = v.numerator, v.denominator
            common *= v.denominator**k
    out = [0] * (top.get(index, 0) + 1)
    for mon, term in p.terms.items():
        rest, degree = common, 0
        for (_, i, _), k in mon:
            if i == index:
                degree = k
            else:
                n, d = parts[i]
                term *= n**k
                rest //= d**k
        out[degree] += term * rest
    while out and not out[-1]:
        out.pop()
    return out, p.den * common


def clear_denominators(coeffs: Sequence[Fraction]) -> list[int]:
    """L * coeffs for L > 0 the least common denominator: integers with the
    signs and roots of the rational polynomial, trailing zeros dropped."""
    den = lcm(*[c.denominator for c in coeffs])
    out = [c.numerator * (den // c.denominator) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


def primitive(p: Sequence[int]) -> IntPoly:
    """``p`` over its content, with a positive leading coefficient."""
    if not p:
        return ()
    g = gcd(*p)
    if p[-1] < 0:
        g = -g
    return tuple(c // g for c in p)
