from fractions import Fraction

import pytest

from cadreduce.realroots import (
    AlgebraicNumber,
    ZeroPolynomial,
    count_roots,
    evaluate,
    gcd_poly,
    isolate_roots,
    make_algebraic,
    poly,
    squarefree_part,
    sturm_sequence,
)

F = Fraction


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
