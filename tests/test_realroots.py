import random
from fractions import Fraction

import pytest

from cadreduce import realroots
from cadreduce.expr import compare_coords, sqrt_coord
from cadreduce.poly import clear_denominators, primitive
from cadreduce.realroots import (
    AlgebraicNumber,
    Real,
    _algebraic_sqrt,
    _defining,
    ZeroPolynomial,
    count_roots,
    degree,
    derivative,
    gcd_poly,
    horner,
    interval_eval,
    isolate_roots,
    make_algebraic,
    pseudo_rem,
    sign_at,
    squarefree_part,
    sturm_sequence,
)
from tests.oracles import add, mul, refine_by_fractions, trimmed

F = Fraction


def shifted(a: Real, delta: Fraction) -> Real:
    """a + delta, as a root of p(x - delta) for the defining polynomial p."""
    if isinstance(a, Fraction):
        return a + delta
    x_minus_d = (-delta, F(1))
    acc, power = (), (F(1),)
    for c in a.defining:
        acc = add(acc, tuple(c * b for b in power))
        power = mul(power, x_minus_d)
    return AlgebraicNumber(primitive(clear_denominators(acc)), a.lo + delta, a.hi + delta)


def fraction_rem(p, q) -> tuple:
    """The remainder of p by q, by long division over the rationals."""
    rem = [F(c) for c in p]
    while len(rem) >= len(q):
        c = rem[-1] / q[-1]
        k = len(rem) - len(q)
        for i, b in enumerate(q):
            rem[k + i] -= c * b
        rem = list(trimmed(rem))
    return tuple(rem)


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
    mid = (lo + hi) / 2
    return (mid, hi) if _sign(evaluate(p, mid)) == _sign(evaluate(p, lo)) else (lo, mid)


def oracle_sign_of(a: Real, q) -> int:
    if isinstance(a, Fraction):
        return _sign(evaluate(q, a))
    if not q:
        return 0
    p, lo, hi = a.defining, a.lo, a.hi
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


def oracle_compare(a: Real, b: Real) -> int:
    if isinstance(a, Fraction):
        return -oracle_sign_of(b, (-a.numerator, a.denominator))
    if isinstance(b, Fraction):
        return oracle_sign_of(a, (-b.numerator, b.denominator))
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


def random_fraction_poly(rng, max_degree=4):
    """Fraction coefficients with mixed denominators; any sign of the
    leading coefficient."""
    while True:
        p = trimmed(F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(rng.randint(1, max_degree + 1)))
        if p:
            return p


def random_poly(rng, max_degree=4):
    """``random_fraction_poly`` in integers (``clear_denominators``)."""
    return clear_denominators(random_fraction_poly(rng, max_degree))


def sign_of(a: Real, q) -> int:
    """The sign of q at a rational or an algebraic number, as the check
    phase takes it (``cadmodel._Fiber.sign``)."""
    return sign_at(q, a) if isinstance(a, Fraction) else a.sign_of(q)


def corpus() -> list[Real]:
    """Seeded real algebraic numbers, rational ones as ``Fraction`` values,
    with equal numbers of different defining polynomials among them."""
    rng = random.Random(20261018)
    x2_minus_2 = (-2, 0, 1)
    # +-sqrt2 as roots of x^2 - 2, (x^2 - 2)(x - 3) and (x^2 - 2)(x^2 + 2).
    numbers = isolate_roots(x2_minus_2) + isolate_roots(mul(x2_minus_2, (-3, 1)))
    numbers += isolate_roots(mul(x2_minus_2, (2, 0, 1)))
    # -1/3 and 1/3, which no bisection midpoint hits, made Fractions all the same.
    numbers += isolate_roots((1, 3)) + [make_algebraic((-1, 3), F(0), F(1))]
    numbers += isolate_roots(mul((-1, 3), (-5, 0, 1)))
    # +-sqrt(c), c < 1/16: their first intervals touch at 0.
    for c in (F(1, 20), F(3, 50), F(1, 17)):
        numbers += [_algebraic_sqrt(c), _algebraic_sqrt(c).negated()]
        numbers += isolate_roots((-c.numerator, 0, c.denominator))
    # Random polynomials; products share the roots of their factors.
    factors = [random_poly(rng, 3) for _ in range(8)]
    for _ in range(10):
        numbers += isolate_roots(mul(rng.choice(factors), rng.choice(factors)))
    numbers += [n.refine(F(1, 64)) for n in numbers[::3] if isinstance(n, AlgebraicNumber)]
    numbers += [-n for n in numbers[::4]] + [shifted(n, F(1, 3)) for n in numbers[1::5]]
    return numbers


@pytest.fixture
def bounded_work(monkeypatch):
    """Fail, rather than hang, when a search of the kernel does not end:
    every bisection, refinement and Sturm count evaluates signs through
    ``horner``.  The tests below need at most about 12k evaluations."""
    calls = [0]

    def counted(p, n, d):
        calls[0] += 1
        if calls[0] > 50_000:
            raise AssertionError("the exact search does not terminate")
        return horner(p, n, d)

    monkeypatch.setattr(realroots, "horner", counted)


def test_sturm_chain_of_x2_minus_2():
    # Hand computation: p = x^2 - 2, p' = 2x, -rem(p, p') = 2, kept as
    # lc(p')^1 * 2 = 4 over its content 4 (a positive multiple, which keeps
    # every sign).
    chain = sturm_sequence((-2, 0, 1))
    assert chain == [(-2, 0, 1), (0, 2), (1,)]
    assert count_roots((-2, 0, 1), F(-2), F(2)) == 2


def test_sturm_no_real_roots():
    p = (1, 0, 1)  # x^2 + 1
    assert count_roots(p, F(-100), F(100)) == 0
    assert isolate_roots(p) == []


def test_sturm_linear():
    assert count_roots((-1, 1), F(0), F(2)) == 1


def test_sturm_zero_poly_rejected():
    with pytest.raises(ZeroPolynomial):
        sturm_sequence(())


def test_isolate_sqrt2():
    roots = isolate_roots((-2, 0, 1))
    assert len(roots) == 2
    neg, pos = roots
    assert F(-2) <= neg.lo and neg.hi <= F(-1)
    assert F(1) <= pos.lo and pos.hi <= F(2)


def test_isolate_multiple_root_collapses():
    # (x - 1)^2 has the single distinct root 1.
    roots = isolate_roots((1, -2, 1))
    assert roots == [1] and type(roots[0]) is Fraction
    assert squarefree_part((1, -2, 1)) == (-1, 1)


def test_isolate_rational_and_irrational_mix():
    # x(x^2 - 2) = -2x + x^3: roots -sqrt2, 0, sqrt2.
    roots = isolate_roots((0, -2, 0, 1))
    assert len(roots) == 3
    assert roots[1] == 0 and type(roots[1]) is Fraction
    assert roots[0].compare_rational(roots[1]) == -1
    assert roots[2].compare_rational(roots[1]) == 1


def test_refine_narrows_and_keeps_root():
    pos = isolate_roots((-2, 0, 1))[1]
    fine = pos.refine(F(1, 100))
    assert fine.width() <= F(1, 100)
    assert fine.lo <= F(141421, 100000) <= fine.hi
    # Refining with a larger width is a no-op.
    assert fine.refine(F(1)) == fine


def test_refine_returns_itself_when_narrow_enough_and_bisects_otherwise():
    rationals = 0
    for a in corpus():
        if isinstance(a, Fraction):
            rationals += 1
            continue
        w = a.width()
        for width in (w, 2 * w, w + 1):
            assert a.refine(width) is a
        for width in (w / 2, w / 3, w / 1000, F(1, 2**40)):
            assert a.refine(width) == refine_by_fractions(a, width)
    assert rationals > 0


def refine_corpus() -> list[AlgebraicNumber]:
    """The irrational roots of seeded random integer polynomials, and
    seeded square roots and their negations, over dyadic and other
    denominators."""
    rng = random.Random(2411)
    numbers = []
    for _ in range(25):
        p = trimmed(rng.randint(-20, 20) for _ in range(rng.randint(2, 6)))
        if degree(p) >= 1:
            numbers += [r for r in isolate_roots(p) if isinstance(r, AlgebraicNumber)]
    for _ in range(20):
        root = sqrt_coord(F(rng.randint(1, 10**6), rng.randint(1, 10**4)))
        if isinstance(root, AlgebraicNumber):
            numbers += [root, root.negated()]
    return numbers


def test_refine_matches_fraction_bisection():
    # The differential test of bisecting in integers over one denominator:
    # every interval is the one that Fraction bisection from the same
    # interval gives.
    numbers = refine_corpus()
    assert len(numbers) > 60
    widths = [F(1, 2**k) for k in (1, 2, 5, 13, 30, 47, 60)] + [F(1, 3), F(2, 7)]
    for a in numbers:
        for width in widths + [a.width() / 3]:
            assert a.refine(width) == refine_by_fractions(a, width), (a, width)
    # A root that a bisection midpoint would meet is rational, and is made
    # a Fraction: 1/2 and 2/3 are the first midpoints, 1/4 the second.
    made = [make_algebraic((-1, 2), F(0), F(1)), make_algebraic((-2, 3), F(1, 3), F(1))]
    made.append(make_algebraic(mul((-1, 4), (-3, 0, 1)), F(0), F(1)))
    assert made == [F(1, 2), F(2, 3), F(1, 4)] and all(type(r) is Fraction for r in made)


def test_isolate_exact_root_is_a_fraction():
    for p, root in (((-1, 1), F(1)), ((-1, 3), F(1, 3))):
        roots = isolate_roots(p)
        assert roots == [root] and type(roots[0]) is Fraction


def test_compare_distinct_roots_of_same_poly():
    a, b = isolate_roots((-2, 0, 1))
    assert a.compare(b) == -1 and b.compare(a) == 1
    assert a.compare(a) == 0


def test_compare_equal_roots_of_different_polys():
    # sqrt2 as a root of x^2-2 and of x^4-4 must compare equal.
    r1 = isolate_roots((-2, 0, 1))[1]
    r2 = [r for r in isolate_roots((-4, 0, 0, 0, 1)) if r.lo > 0][0]
    assert r1.compare(r2) == 0
    # ... and sqrt3 differs from sqrt2.
    r3 = [r for r in isolate_roots((-3, 0, 1)) if r.lo > 0][0]
    assert r1.compare(r3) == -1


def test_sign_of_polynomial_at_algebraic_point():
    sqrt2 = isolate_roots((-2, 0, 1))[1]
    assert sqrt2.sign_of((-2, 0, 1)) == 0
    assert sqrt2.sign_of((-1, 1)) == 1  # x - 1 > 0 at sqrt2
    assert sqrt2.sign_of((2, -1)) == 1  # 2 - x > 0 at sqrt2 (3.41 > 0 is wrong; 2-1.41>0)
    assert sqrt2.sign_of((-3, 0, 1)) == -1  # x^2 - 3 < 0


def test_compare_rational():
    sqrt2 = isolate_roots((-2, 0, 1))[1]
    assert sqrt2.compare_rational(F(1)) == 1
    assert sqrt2.compare_rational(F(3, 2)) == -1
    one = make_algebraic((-1, 1), F(0), F(2))
    assert one == 1 and type(one) is Fraction


def test_sign_chart_consistency_at_rational_probes():
    # Signs of the squarefree part at rational probes must match the product
    # of (x - root) signs, for a batch of seeded random polynomials.
    import random

    rng = random.Random(20240911)
    for _ in range(60):
        p = trimmed(rng.randint(-10, 10) for _ in range(rng.randint(2, 5)))
        if len(p) < 2:
            continue
        sf = squarefree_part(p)
        roots = isolate_roots(p)
        probes = [F(k, 3) for k in range(-40, 41)]
        for q in probes:
            if any(compare_coords(r, q) == 0 for r in roots):
                continue
            expected = 1 if sf[-1] > 0 else -1
            for r in roots:
                if compare_coords(r, q) == 1:  # root > q
                    expected = -expected
            got = evaluate(sf, q)
            assert (got > 0) == (expected > 0), (p, q)


def test_make_algebraic_validates():
    p = (-2, 0, 1)
    a = make_algebraic(p, F(1), F(2))
    assert a.defining == p
    with pytest.raises(ValueError):
        make_algebraic(p, F(-2), F(2))  # two roots
    with pytest.raises(ValueError):
        make_algebraic(p, F(1), F(1))  # 1 is not a root
    exact = make_algebraic((-1, 1), F(1), F(1))
    assert exact == 1 and type(exact) is Fraction


def test_gcd_poly():
    p = (-1, 0, 1)  # x^2 - 1
    q = (-1, 1)  # x - 1
    assert gcd_poly(p, q) == (-1, 1)
    # Primitive with a positive leading coefficient, whatever the inputs' scale.
    assert gcd_poly((2, 0, -2), (3, -3)) == (-1, 1)


def test_sign_at_matches_fraction_evaluation():
    rng = random.Random(7)
    checked = zeros = 0
    for _ in range(300):
        p = random_fraction_poly(rng, 5)
        # A rational root now and then, so that zero signs occur.
        r = F(rng.randint(-7, 7), rng.randint(1, 5))
        if rng.random() < 0.3:
            p = mul(p, (-r, 1))
        for x in [r, F(0)] + [F(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(6)]:
            want = _sign(evaluate(p, x))
            assert sign_at(clear_denominators(p), x) == want, (p, x)
            checked += 1
            zeros += want == 0
    assert checked > 2000 and zeros > 50


def test_compare_matches_oracle(bounded_work):
    numbers = corpus()
    equal = 0
    for a in numbers:
        for b in numbers:
            got = compare_coords(a, b)
            assert got == oracle_compare(a, b) == -compare_coords(b, a), (a, b)
            equal += got == 0 and _defining(a) != _defining(b)
    assert equal > 20


def test_sign_of_matches_oracle(bounded_work):
    rng = random.Random(11)
    numbers = corpus()
    zeros = 0
    for a in numbers:
        qs = [random_poly(rng) for _ in range(3)]
        # Multiples of the defining polynomial, of a factor of it, and of
        # another number's, plus a rational constant.
        qs += [mul(_defining(a), random_poly(rng, 2)), mul(_defining(rng.choice(numbers)), random_poly(rng, 1))]
        qs += [tuple(-c for c in q) for q in qs[:2]]
        qs += [clear_denominators(add(mul(_defining(a), random_poly(rng, 2)), (F(rng.randint(-5, 5), 7),)))]
        for q in qs:
            got = sign_of(a, q)
            assert got == oracle_sign_of(a, q), (a, q)
            zeros += got == 0
    assert zeros > len(numbers)


def test_equal_numbers_are_decided_before_any_refinement(bounded_work, monkeypatch):
    # sqrt2 from x^2 - 2 and from (x^2 - 2)(x - 3), and sqrt(1/20) from two
    # constructions.  1/3 from 3x - 1 and from (3x - 1)(x^2 - 5) is made a
    # Fraction by both.
    sqrt2 = isolate_roots((-2, 0, 1))[1]
    sqrt2_cubic = isolate_roots((6, -2, -3, 1))[1]
    third = make_algebraic((-1, 3), F(0), F(1))
    third_cubic = isolate_roots(mul((-1, 3), (-5, 0, 1)))[1]
    small = _algebraic_sqrt(F(1, 20))
    small_other = isolate_roots((-1, 0, 20))[1]
    assert sqrt2_cubic.defining != sqrt2.defining
    assert third == third_cubic == F(1, 3) and type(third) is type(third_cubic) is Fraction

    monkeypatch.setattr(AlgebraicNumber, "refine", forbidden)
    for a, b in ((sqrt2, sqrt2_cubic), (small, small_other)):
        assert a.compare(b) == 0 and b.compare(a) == 0
    # A zero that the remainder does not show: x^2 - 2 at sqrt2 as a root
    # of the cubic.
    assert sqrt2_cubic.sign_of((-2, 0, 1)) == 0


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
    numbers = [a for a in corpus() if isinstance(a, AlgebraicNumber)]
    cases = []
    for a in numbers:
        for c in (F(0), F(3, 2), F(-2, 7)):
            q = clear_denominators(add(mul(a.defining, random_poly(rng, 3)), (c,)))
            cases.append((a, q, _sign(c)))
    # q(a) = r(a) with r = q mod defining; a constant r decides at once.
    monkeypatch.setattr(realroots, "gcd_poly", forbidden)
    monkeypatch.setattr(realroots, "interval_eval", forbidden)
    for a, q, want in cases:
        assert a.sign_of(q) == want, (a, q)


def test_pseudo_rem_is_a_positive_multiple_of_the_remainder():
    rng = random.Random(19)
    zero = 0
    for _ in range(300):
        q = primitive(random_poly(rng, 3))
        p = random_poly(rng, 6)
        if rng.random() < 0.2:
            p = mul(p, q)
        got, want = pseudo_rem(p, q), fraction_rem(p, q)
        assert all(type(c) is int for c in got) and len(got) == len(want), (p, q)
        if want:
            ratio = got[-1] / want[-1]
            assert ratio > 0 and [F(c) for c in got] == [ratio * c for c in want], (p, q)
        zero += not want
    assert zero > 30
    # Valid only for an integer divisor with a positive leading coefficient.
    for q in ((1, -1), (F(1, 2), 1)):
        with pytest.raises(AssertionError):
            pseudo_rem((1, 2, 3), q)


def test_defining_polynomials_are_squarefree_and_primitive(bounded_work):
    rng = random.Random(17)
    rationals = [make_algebraic((-r.numerator, r.denominator), r, r) for r in (F(0), F(3), F(-1, 3), F(22, 7))]
    rationals.append(make_algebraic((1, -2, 1), F(1), F(1)))
    assert rationals == [0, 3, F(-1, 3), F(22, 7), 1] and all(type(r) is Fraction for r in rationals)
    numbers = [make_algebraic((-2, 0, 1), F(1), F(2))]
    # Squared, non-primitive (from Fractions) and negatively led inputs.
    numbers += [make_algebraic(clear_denominators((F(-4, 3), 0, F(2, 3))), F(1), F(2))]
    numbers += [make_algebraic(mul((2, 0, -1), (2, 0, -1)), F(-2), F(-1))]
    for _ in range(30):
        f = random_poly(rng, 3)
        numbers += [r for r in isolate_roots(mul(f, mul(f, random_poly(rng, 2)))) if isinstance(r, AlgebraicNumber)]
    numbers += [_algebraic_sqrt(c) for c in (F(2), F(1, 20), F(50, 3), F(7, 4))]
    numbers += [a.negated() for a in numbers] + [shifted(a, F(-5, 3)) for a in numbers]
    numbers += [a.refine(F(1, 1000)) for a in numbers]
    for a in numbers:
        p = a.defining
        assert p == primitive(p) and degree(gcd_poly(p, derivative(p))) == 0, a
        # The interval invariants the exact tests rely on.
        assert a.lo < a.hi and evaluate(p, a.lo) != 0 and evaluate(p, a.hi) != 0, a
        assert _oracle_count(p, a.lo, a.hi) == 1, a


def test_refine_keeps_an_interval_exactly_as_wide_as_asked(bounded_work):
    # The width test is cross-multiplied in integers: hi - lo == width
    # keeps the number, any narrower width bisects it.
    sqrt2 = make_algebraic((-2, 0, 1), F(4, 3), F(3, 2))
    exact = F(3, 2) - F(4, 3)
    assert sqrt2.refine(exact) is sqrt2 and sqrt2.refine(F(1, 3)) is sqrt2
    narrower = sqrt2.refine(exact - F(1, 10**9))
    assert narrower is not sqrt2 and narrower.hi - narrower.lo <= exact / 2
    assert narrower.lo < narrower.hi and narrower.compare(sqrt2) == 0
    third = make_algebraic((-1, 3), F(1, 3), F(1, 3))
    assert third == F(1, 3) and type(third) is Fraction


def test_sign_of_integer_coefficients_matches_fractions(bounded_work):
    # ``atom_sign`` hands ``integer_coeffs``' integers, a list, to
    # ``sign_of``: as a list and as a tuple they give the sign of the
    # Fraction oracle.
    rng = random.Random(23)
    numbers = corpus()
    signs = []
    for a in numbers:
        qs = [[rng.randint(-9, 9) for _ in range(rng.randint(1, 5))] for _ in range(4)]
        qs.append(list(mul(_defining(a), (5, rng.randint(-3, 3)))))
        for ints in qs:
            while ints and not ints[-1]:
                ints.pop()
            got = sign_of(a, tuple(ints))
            assert got == sign_of(a, ints) == oracle_sign_of(a, tuple(ints)), (a, ints)
            signs.append(got)
    assert set(signs) == {-1, 0, 1} and signs.count(0) > len(numbers)
