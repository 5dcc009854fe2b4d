"""The polynomial ring and its univariate view, against sympy as an
independent oracle: products and powers, content and primitive part,
pseudo-remainders and gcds, and Sturm root counts, on seeded corpora."""

import random
from fractions import Fraction
from math import gcd

import sympy

from cadreduce.poly import ONE, Polynomial, clear_denominators, primitive
from cadreduce.realroots import count_roots, gcd_poly, isolate_roots, pseudo_rem, sign_at, squarefree_part
from tests.oracles import mul, trimmed

F = Fraction

# x1, x2, x3 and one opaque atom, as the ring keys them and as sympy symbols.
GENERATORS = [(0, 1, ""), (0, 2, ""), (0, 3, ""), (1, 0, "(sqrt x1)")]
SYMBOLS = sympy.symbols("x1 x2 x3 a")
X = sympy.Symbol("x")


def random_rational(rng: random.Random) -> Fraction:
    kind = rng.randrange(3)
    if kind == 0:
        return F(rng.randint(-5, 5))
    if kind == 1:
        return F(rng.randint(-9, 9), rng.randint(1, 12))
    return F(rng.randint(-(2**40), 2**40), rng.randint(1, 2**40))


def random_polynomial(rng: random.Random) -> tuple[Polynomial, sympy.Expr]:
    """The same random polynomial in the ring and in sympy, built by the
    ring's own operations."""
    ours, theirs = Polynomial.constant(F(0)), sympy.Integer(0)
    for _ in range(rng.randint(0, 4)):
        c = random_rational(rng)
        term, expr = Polynomial.constant(c), sympy.Rational(c.numerator, c.denominator)
        for j in rng.sample(range(len(GENERATORS)), rng.randint(0, 3)):
            k = rng.randint(1, 3)
            term = term * Polynomial.generator(GENERATORS[j]) ** k
            expr *= SYMBOLS[j] ** k
        ours, theirs = ours + term, theirs + expr
    return ours, theirs


def as_sympy(p: Polynomial) -> sympy.Expr:
    out = sympy.Integer(0)
    for mon, c in p.terms.items():
        term = sympy.Rational(c, p.den)
        for key, k in mon:
            term *= SYMBOLS[GENERATORS.index(key)] ** k
        out += term
    return out


def same(p: Polynomial, expr: sympy.Expr) -> bool:
    return sympy.expand(as_sympy(p) - expr) == 0


def stored_alike(p: Polynomial) -> bool:
    """The ring's invariants: lowest terms, no zero term, sorted monomials."""
    return (
        p.den > 0
        and gcd(p.den, *p.terms.values()) == 1
        and all(p.terms.values())
        and all(list(mon) == sorted(mon) and all(k > 0 for _, k in mon) for mon in p.terms)
    )


def test_products_sums_and_powers_match_sympy():
    rng = random.Random(3001)
    zeros = 0
    for _ in range(100):
        (p, ep), (q, eq) = random_polynomial(rng), random_polynomial(rng)
        k = rng.randint(0, 3)
        for got, want in ((p + q, ep + eq), (-p, -ep), (p * q, ep * eq), (p**k, ep**k)):
            assert stored_alike(got) and same(got, want), (as_sympy(p), as_sympy(q), k)
        # Stored alike: equal polynomials compare equal, as canonicalize needs.
        assert p * q == q * p and (p + q) + -q == p and p * ONE == p
        zeros += not (p + -p).terms
    assert zeros == 100


def test_content_and_primitive_part_match_sympy():
    rng = random.Random(3002)
    for _ in range(150):
        p, ep = random_polynomial(rng)
        if not p.terms:
            continue
        cont, prim = sympy.Poly(ep, *SYMBOLS, domain="QQ").primitive()
        t = p.content()
        assert abs(t) == F(int(cont.p), int(cont.q)), as_sympy(p)
        scaled = p * Polynomial.constant(1 / t)
        assert scaled.den == 1 and scaled.terms[max(scaled.terms)] > 0
        assert same(scaled, (1 if t > 0 else -1) * prim.as_expr()), as_sympy(p)
    # The univariate view: clearing denominators, and the primitive part.
    for _ in range(150):
        coeffs = trimmed(random_rational(rng) for _ in range(rng.randint(1, 6)))
        if not coeffs:
            continue
        theirs = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], X, domain="QQ")
        den, cleared = theirs.clear_denoms()
        assert clear_denominators(coeffs) == [int(c) for c in reversed(cleared.all_coeffs())]
        ints = clear_denominators(coeffs)
        prim = sympy.Poly(list(reversed(ints)), X).primitive()[1]
        sign = 1 if prim.LC() > 0 else -1
        assert primitive(ints) == tuple(sign * int(c) for c in reversed(prim.all_coeffs()))


def random_ints(rng: random.Random, max_degree: int) -> tuple:
    while True:
        p = trimmed(rng.randint(-9, 9) for _ in range(rng.randint(1, max_degree + 1)))
        if p:
            return p


def sympy_of(p) -> sympy.Poly:
    return sympy.Poly(list(reversed(p)), X, domain="ZZ")


def test_pseudo_remainders_gcds_and_squarefree_parts_match_sympy():
    rng = random.Random(3004)
    shared = 0
    for _ in range(200):
        p, q = random_ints(rng, 6), random_ints(rng, 3)
        if rng.random() < 0.4:
            # A common factor, and now and then a repeated one.
            f = random_ints(rng, 2)
            p, q = mul(p, f), mul(q, f if rng.random() < 0.5 else mul(f, f))
            shared += len(f) > 1
        # pseudo_rem divides by q with a positive leading coefficient.
        divisor = q if q[-1] > 0 else tuple(-c for c in q)
        got, want = pseudo_rem(p, divisor), sympy.prem(sympy_of(p), sympy_of(divisor))
        want = [int(c) for c in reversed(want.all_coeffs())] if not want.is_zero else []
        assert len(got) == len(want), (p, q)
        if want:
            ratio = F(got[-1], want[-1])
            assert ratio > 0 and [F(c) for c in got] == [ratio * c for c in want], (p, q)
        # gcd and squarefree part: primitive, with a positive leading coefficient.
        g = sympy.gcd(sympy_of(p), sympy_of(q)).primitive()[1]
        assert gcd_poly(p, q) == primitive([int(c) for c in reversed(g.all_coeffs())]), (p, q)
        sf = sympy_of(p).sqf_part().primitive()[1]
        assert squarefree_part(p) == primitive([int(c) for c in reversed(sf.all_coeffs())]), p
    assert shared > 30


def test_sturm_root_counts_match_sympy():
    rng = random.Random(3005)
    roots_met = 0
    for _ in range(150):
        p = random_ints(rng, 4)
        if rng.random() < 0.5:
            # Rational roots, some repeated, and a negative leading coefficient.
            r = (-rng.randint(-4, 4), rng.randint(1, 3))
            p = mul(p, mul(r, r) if rng.random() < 0.5 else r)
        theirs = sympy_of(p)
        if len(p) > 1:
            assert len(isolate_roots(p)) == theirs.count_roots(), p
        for _ in range(4):
            a, b = sorted(F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(2))
            # sympy counts the roots in [a, b], count_roots in (a, b].
            at_a = sign_at(p, a) == 0
            want = theirs.count_roots(sympy.Rational(a.numerator, a.denominator), sympy.Rational(b.numerator, b.denominator))
            assert count_roots(p, a, b) == (want - at_a if a < b else 0), (p, a, b)
            roots_met += at_a
    assert roots_met > 5
