import random
from fractions import Fraction

import pytest

from cadreduce import realroots
from cadreduce.expr import _algebraic_sqrt
from cadreduce.realroots import (
    ZERO,
    AlgebraicNumber,
    ZeroPolynomial,
    count_roots,
    degree,
    derivative,
    gcd_poly,
    interval_eval,
    isolate_roots,
    make_algebraic,
    poly,
    primitive,
    scale,
    sign_at,
    squarefree_part,
    sturm_sequence,
)
from tests.oracles import add, mul

F = Fraction


def shifted(a: AlgebraicNumber, delta: Fraction) -> AlgebraicNumber:
    """a + delta, as a root of p(x - delta) for the defining polynomial p."""
    x_minus_d = poly([-delta, 1])
    acc, power = ZERO, (F(1),)
    for c in a.defining:
        acc = add(acc, scale(power, c))
        power = mul(power, x_minus_d)
    return AlgebraicNumber(primitive(acc), a.lo + delta, a.hi + delta)


# ---------------------------------------------------------------------------
# Oracles: Fraction evaluation, and the sign test and comparison that build
# the squarefree part and a Sturm chain for every zero or equality test and
# refine by Fraction bisection.


def evaluate(p, x):
    acc = F(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _sign(v) -> int:
    return (v > 0) - (v < 0)


def _oracle_count(p, a, b) -> int:
    if a >= b:
        return 0
    chain = sturm_sequence(squarefree_part(p))

    def variations(x):
        values = [v for v in (evaluate(f, x) for f in chain) if v]
        return sum((u > 0) != (v > 0) for u, v in zip(values, values[1:]))

    return variations(a) - variations(b)


def _oracle_halve(p, lo, hi):
    if lo == hi:
        return lo, hi
    mid = (lo + hi) / 2
    fm = evaluate(p, mid)
    if fm == 0:
        return mid, mid
    return (mid, hi) if _sign(fm) == _sign(evaluate(p, lo)) else (lo, mid)


def oracle_sign_of(a: AlgebraicNumber, q) -> int:
    if not q:
        return 0
    p, lo, hi = a.defining, a.lo, a.hi
    if lo == hi:
        return _sign(evaluate(q, lo))
    g = gcd_poly(p, squarefree_part(q))
    if degree(g) >= 1 and _oracle_count(g, lo, hi) >= 1:
        return 0
    while True:
        vlo, vhi = interval_eval(q, lo, hi)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        lo, hi = _oracle_halve(p, lo, hi)


def oracle_compare(a: AlgebraicNumber, b: AlgebraicNumber) -> int:
    if a.is_rational:
        return -oracle_sign_of(b, poly([-a.lo, 1]))
    if b.is_rational:
        return oracle_sign_of(a, poly([-b.lo, 1]))
    g = gcd_poly(a.defining, b.defining)
    may_be_equal = degree(g) >= 1 and _oracle_count(g, a.lo, a.hi) >= 1 and _oracle_count(g, b.lo, b.hi) >= 1
    alo, ahi, blo, bhi = a.lo, a.hi, b.lo, b.hi
    while True:
        if ahi < blo:
            return -1
        if bhi < alo:
            return 1
        if may_be_equal and _oracle_count(g, min(alo, blo), max(ahi, bhi)) == 1:
            return 0
        alo, ahi = _oracle_halve(a.defining, alo, ahi)
        blo, bhi = _oracle_halve(b.defining, blo, bhi)


def random_poly(rng, max_degree=4):
    """Fraction coefficients with mixed denominators; any sign of the
    leading coefficient."""
    while True:
        p = poly([F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, max_degree + 1))])
        if p:
            return p


def corpus() -> list[AlgebraicNumber]:
    """Seeded algebraic numbers, with equal numbers of different defining
    polynomials among them."""
    rng = random.Random(20261018)
    x2_minus_2 = poly([-2, 0, 1])
    numbers = isolate_roots(x2_minus_2) + isolate_roots(mul(x2_minus_2, poly([-3, 1])))
    # Rational roots left as intervals with a linear defining polynomial.
    numbers += isolate_roots(poly([1, 3])) + [make_algebraic(poly([-1, 3]), F(0), F(1))]
    numbers += isolate_roots(mul(poly([-1, 3]), poly([-5, 0, 1])))
    # +-sqrt(c), c < 1/16: their first intervals touch at 0.
    for c in (F(1, 20), F(3, 50), F(1, 17)):
        numbers += [_algebraic_sqrt(c), _algebraic_sqrt(c).negated()]
        numbers += isolate_roots(poly([-c.numerator, 0, c.denominator]))
    # Random polynomials; products share the roots of their factors.
    factors = [random_poly(rng, 3) for _ in range(8)]
    for _ in range(10):
        numbers += isolate_roots(mul(rng.choice(factors), rng.choice(factors)))
    numbers += [n.refine(F(1, 64)) for n in numbers[::3]]
    numbers += [n.negated() for n in numbers[::4]] + [shifted(n, F(1, 3)) for n in numbers[1::5]]
    return numbers


@pytest.fixture
def bounded_work(monkeypatch):
    """Fail, rather than hang, when a search of the kernel does not end:
    every bisection, refinement and Sturm count evaluates signs through
    ``sign_at``.  The tests below need at most about 12k evaluations."""
    calls = [0]

    def counted(p, x):
        calls[0] += 1
        if calls[0] > 50_000:
            raise AssertionError("the exact search does not terminate")
        return sign_at(p, x)

    monkeypatch.setattr(realroots, "sign_at", counted)


def test_sturm_chain_of_x2_minus_2():
    # Hand computation: p = x^2 - 2, p' = 2x, -rem(p, p') = 2.
    chain = sturm_sequence(poly([-2, 0, 1]))
    assert chain == [poly([-2, 0, 1]), poly([0, 2]), poly([2])]
    assert count_roots(poly([-2, 0, 1]), F(-2), F(2)) == 2


def test_sturm_no_real_roots():
    p = poly([1, 0, 1])  # x^2 + 1
    assert count_roots(p, F(-100), F(100)) == 0
    assert isolate_roots(p) == []


def test_sturm_linear():
    assert count_roots(poly([-1, 1]), F(0), F(2)) == 1


def test_sturm_zero_poly_rejected():
    with pytest.raises(ZeroPolynomial):
        sturm_sequence(poly([]))


def test_isolate_sqrt2():
    roots = isolate_roots(poly([-2, 0, 1]))
    assert len(roots) == 2
    neg, pos = roots
    assert F(-2) <= neg.lo and neg.hi <= F(-1)
    assert F(1) <= pos.lo and pos.hi <= F(2)


def test_isolate_multiple_root_collapses():
    # (x - 1)^2 has the single distinct root 1.
    roots = isolate_roots(poly([1, -2, 1]))
    assert len(roots) == 1
    assert roots[0].is_rational and roots[0].rational_value == 1
    assert squarefree_part(poly([1, -2, 1])) == poly([-1, 1])


def test_isolate_rational_and_irrational_mix():
    # x(x^2 - 2) = -2x + x^3: roots -sqrt2, 0, sqrt2.
    roots = isolate_roots(poly([0, -2, 0, 1]))
    assert len(roots) == 3
    assert roots[1].is_rational and roots[1].rational_value == 0
    assert roots[0].compare(roots[1]) == -1
    assert roots[1].compare(roots[2]) == -1


def test_refine_narrows_and_keeps_root():
    pos = isolate_roots(poly([-2, 0, 1]))[1]
    fine = pos.refine(F(1, 100))
    assert fine.width() <= F(1, 100)
    assert fine.lo <= F(141421, 100000) <= fine.hi
    # Refining with a larger width is a no-op.
    assert fine.refine(F(1)) == fine


def test_refine_exact_root_is_point():
    one = isolate_roots(poly([-1, 1]))[0]
    assert one.is_rational and one.refine(F(1, 10)) == one


def test_compare_distinct_roots_of_same_poly():
    a, b = isolate_roots(poly([-2, 0, 1]))
    assert a.compare(b) == -1 and b.compare(a) == 1
    assert a.compare(a) == 0


def test_compare_equal_roots_of_different_polys():
    # sqrt2 as a root of x^2-2 and of x^4-4 must compare equal.
    r1 = isolate_roots(poly([-2, 0, 1]))[1]
    r2 = [r for r in isolate_roots(poly([-4, 0, 0, 0, 1])) if r.lo > 0][0]
    assert r1.compare(r2) == 0
    # ... and sqrt3 differs from sqrt2.
    r3 = [r for r in isolate_roots(poly([-3, 0, 1])) if r.lo > 0][0]
    assert r1.compare(r3) == -1


def test_sign_of_polynomial_at_algebraic_point():
    sqrt2 = isolate_roots(poly([-2, 0, 1]))[1]
    assert sqrt2.sign_of(poly([-2, 0, 1])) == 0
    assert sqrt2.sign_of(poly([-1, 1])) == 1  # x - 1 > 0 at sqrt2
    assert sqrt2.sign_of(poly([2, -1])) == 1  # 2 - x > 0 at sqrt2 (3.41 > 0 is wrong; 2-1.41>0)
    assert sqrt2.sign_of(poly([-3, 0, 1])) == -1  # x^2 - 3 < 0


def test_compare_rational():
    sqrt2 = isolate_roots(poly([-2, 0, 1]))[1]
    assert sqrt2.compare_rational(F(1)) == 1
    assert sqrt2.compare_rational(F(3, 2)) == -1
    one = AlgebraicNumber.from_rational(1)
    assert one.compare_rational(F(1)) == 0


def test_sign_chart_consistency_at_rational_probes():
    # Signs of the squarefree part at rational probes must match the product
    # of (x - root) signs, for a batch of seeded random polynomials.
    import random

    rng = random.Random(20240911)
    for _ in range(60):
        coeffs = [F(rng.randint(-10, 10)) for _ in range(rng.randint(2, 5))]
        p = poly(coeffs)
        if len(p) < 2:
            continue
        sf = squarefree_part(p)
        roots = isolate_roots(p)
        probes = [F(k, 3) for k in range(-40, 41)]
        for q in probes:
            if any(r.compare_rational(q) == 0 for r in roots):
                continue
            expected = 1 if sf[-1] > 0 else -1
            for r in roots:
                if r.compare_rational(q) == 1:  # root > q
                    expected = -expected
            got = evaluate(sf, q)
            assert (got > 0) == (expected > 0), (p, q)


def test_make_algebraic_validates():
    p = poly([-2, 0, 1])
    a = make_algebraic(p, F(1), F(2))
    assert a.defining == p
    with pytest.raises(ValueError):
        make_algebraic(p, F(-2), F(2))  # two roots
    with pytest.raises(ValueError):
        make_algebraic(p, F(1), F(1))  # 1 is not a root
    exact = make_algebraic(poly([-1, 1]), F(1), F(1))
    assert exact.is_rational


def test_gcd_poly():
    p = poly([-1, 0, 1])  # x^2 - 1
    q = poly([-1, 1])  # x - 1
    assert gcd_poly(p, q) == poly([-1, 1])


def test_sign_at_matches_fraction_evaluation():
    rng = random.Random(7)
    checked = zeros = 0
    for _ in range(300):
        p = random_poly(rng, 5)
        # A rational root now and then, so that zero signs occur.
        r = F(rng.randint(-7, 7), rng.randint(1, 5))
        if rng.random() < 0.3:
            p = mul(p, poly([-r, 1]))
        for x in [r, F(0)] + [F(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(6)]:
            want = _sign(evaluate(p, x))
            assert sign_at(p, x) == want, (p, x)
            checked += 1
            zeros += want == 0
    assert checked > 2000 and zeros > 50


def test_compare_matches_oracle(bounded_work):
    numbers = corpus()
    equal = 0
    for a in numbers:
        for b in numbers:
            got = a.compare(b)
            assert got == oracle_compare(a, b) == -b.compare(a), (a, b)
            equal += got == 0 and a.defining != b.defining
    assert equal > 20


def test_sign_of_matches_oracle(bounded_work):
    rng = random.Random(11)
    numbers = corpus()
    zeros = 0
    for a in numbers:
        qs = [random_poly(rng) for _ in range(3)]
        # Multiples of the defining polynomial, of a factor of it, and of
        # another number's, plus a rational constant.
        qs += [mul(a.defining, random_poly(rng, 2)), mul(rng.choice(numbers).defining, random_poly(rng, 1))]
        qs += [poly([-c for c in q]) for q in qs[:2]]
        qs += [add(mul(a.defining, random_poly(rng, 2)), poly([F(rng.randint(-5, 5), 7)]))]
        for q in qs:
            got = a.sign_of(q)
            assert got == oracle_sign_of(a, q), (a, q)
            zeros += got == 0
    assert zeros > len(numbers)


def test_equal_numbers_are_decided_before_any_refinement(bounded_work, monkeypatch):
    # sqrt2 from x^2 - 2 and from (x^2 - 2)(x - 3); 1/3 from 3x - 1 and from
    # (3x - 1)(x^2 - 5), both left as intervals; sqrt(1/20) from two
    # constructions.
    sqrt2 = isolate_roots(poly([-2, 0, 1]))[1]
    sqrt2_cubic = isolate_roots(poly([6, -2, -3, 1]))[1]
    third = make_algebraic(poly([-1, 3]), F(0), F(1))
    third_cubic = isolate_roots(mul(poly([-1, 3]), poly([-5, 0, 1])))[1]
    small = _algebraic_sqrt(F(1, 20))
    small_other = isolate_roots(poly([-1, 0, 20]))[1]
    assert sqrt2_cubic.defining != sqrt2.defining and third_cubic.defining != third.defining
    assert not third.is_rational and not third_cubic.is_rational

    monkeypatch.setattr(AlgebraicNumber, "refine", forbidden)
    for a, b in ((sqrt2, sqrt2_cubic), (third, third_cubic), (small, small_other)):
        assert a.compare(b) == 0 and b.compare(a) == 0
    # A zero that the remainder does not show: x^2 - 2 at sqrt2 as a root
    # of the cubic.
    assert sqrt2_cubic.sign_of(poly([-2, 0, 1])) == 0


def forbidden(*_args):
    raise AssertionError("not needed for this decision")


def test_touching_intervals_are_ordered_without_a_gcd(monkeypatch):
    pairs = [(_algebraic_sqrt(c).negated(), _algebraic_sqrt(c)) for c in (F(1, 20), F(3, 50), F(1, 17))]
    monkeypatch.setattr(realroots, "gcd_poly", forbidden)
    for neg, pos in pairs:
        assert neg.hi == pos.lo == 0
        assert neg.compare(pos) == -1 and pos.compare(neg) == 1


def test_sign_of_decides_on_the_remainder_without_a_gcd(bounded_work, monkeypatch):
    rng = random.Random(13)
    numbers = [a for a in corpus() if not a.is_rational]
    cases = []
    for a in numbers:
        for c in (F(0), F(3, 2), F(-2, 7)):
            q = add(mul(a.defining, random_poly(rng, 3)), poly([c]))
            cases.append((a, q, _sign(c)))
    # q(a) = r(a) with r = q mod defining; a constant r decides at once.
    monkeypatch.setattr(realroots, "gcd_poly", forbidden)
    monkeypatch.setattr(realroots, "interval_eval", forbidden)
    for a, q, want in cases:
        assert a.sign_of(q) == want, (a, q)


def test_defining_polynomials_are_squarefree_and_primitive(bounded_work):
    rng = random.Random(17)
    numbers = [AlgebraicNumber.from_rational(r) for r in (F(0), F(3), F(-1, 3), F(22, 7))]
    numbers += [make_algebraic(poly([-2, 0, 1]), F(1), F(2)), make_algebraic(poly([1, -2, 1]), F(1), F(1))]
    # Squared, Fraction and negatively led inputs.
    numbers += [make_algebraic(poly([F(-4, 3), 0, F(2, 3)]), F(1), F(2))]
    numbers += [make_algebraic(mul(poly([2, 0, -1]), poly([2, 0, -1])), F(-2), F(-1))]
    for _ in range(30):
        f = random_poly(rng, 3)
        numbers += isolate_roots(mul(f, mul(f, random_poly(rng, 2))))
    numbers += [_algebraic_sqrt(c) for c in (F(2), F(1, 20), F(50, 3), F(7, 4))]
    numbers += [a.negated() for a in numbers] + [shifted(a, F(-5, 3)) for a in numbers]
    numbers += [a.refine(F(1, 1000)) for a in numbers]
    for a in numbers:
        p = a.defining
        assert p == primitive(p) and degree(gcd_poly(p, derivative(p))) == 0, a
        # The interval invariants the exact tests rely on.
        if a.is_rational:
            assert evaluate(p, a.lo) == 0, a
        else:
            assert a.lo < a.hi and evaluate(p, a.lo) != 0 and evaluate(p, a.hi) != 0, a
            assert _oracle_count(p, a.lo, a.hi) == 1, a
