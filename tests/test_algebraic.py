"""The exact algebraic arithmetic of ``realroots``, through ``expr``'s
evaluator, against sympy as an independent oracle: sums, products,
quotients and square roots over small rationals at rational and algebraic
points, and the exact zeros that interval arithmetic could not decide."""

import random
from fractions import Fraction
from functools import cache

import sympy

from cadreduce.errors import DivisionByZero, GuardUndecidable, SqrtOfNegative
from cadreduce.expr import (
    Add,
    AlgebraicConst,
    And,
    Atom,
    Const,
    Div,
    FalseFormula,
    Mul,
    Neg,
    Not,
    Or,
    Piecewise,
    Pow,
    Sqrt,
    Sub,
    TrueFormula,
    Var,
    atom_sign,
    compare_coords,
    eval_coord,
    parse_expr,
    sexpr_of_expr,
)
from cadreduce.realroots import AlgebraicNumber, sign

F = Fraction
X = sympy.Symbol("x")


@cache
def sympy_number(v) -> sympy.Expr:
    """A rational or an algebraic number as sympy's exact number: for an
    algebraic one, the real root of its defining polynomial that sympy
    finds in its interval."""
    if isinstance(v, Fraction):
        return sympy.Rational(v.numerator, v.denominator)
    roots = sympy.Poly(v.defining[::-1], X).real_roots()
    inside = [r for r in roots if (v.lo < r < v.hi if v.lo != v.hi else r == v.lo)]
    assert len(inside) == 1, v
    return inside[0]


def sympy_sign(s: sympy.Expr) -> int:
    """The exact sign of a real algebraic sympy number: read off 50 digits
    when it is far from 0, else decided by its minimal polynomial."""
    if s.is_Rational:
        return int(sympy.sign(s))
    x = sympy.N(s, 50)
    if abs(x) > sympy.Rational(1, 10**30):
        return 1 if x > 0 else -1
    if sympy.minimal_polynomial(s, X) == X:
        return 0
    return 1 if sympy.N(s, 200) > 0 else -1


_OP_TEST = {
    "lt": lambda s: s < 0,
    "le": lambda s: s <= 0,
    "eq": lambda s: s == 0,
    "ge": lambda s: s >= 0,
    "gt": lambda s: s > 0,
}


def sympy_holds(f, point) -> bool:
    if isinstance(f, (TrueFormula, FalseFormula)):
        return isinstance(f, TrueFormula)
    if isinstance(f, Atom):
        return _OP_TEST[f.op](sympy_sign(sympy_value(f.lhs, point)))
    if isinstance(f, Not):
        return not sympy_holds(f.arg, point)
    if isinstance(f, And):
        return all(sympy_holds(a, point) for a in f.args)
    assert isinstance(f, Or)
    return any(sympy_holds(a, point) for a in f.args)


def sympy_value(e, point) -> sympy.Expr:
    """The value of ``e`` at a point of sympy numbers, computed by sympy,
    raising the error ``eval_coord`` raises where the value is undefined."""
    if isinstance(e, (Const, AlgebraicConst)):
        return sympy_number(e.value)
    if isinstance(e, Var):
        if e.index > len(point):
            raise ValueError(f"point has no coordinate {e.index}")
        return point[e.index - 1]
    if isinstance(e, Add):
        return sympy_value(e.left, point) + sympy_value(e.right, point)
    if isinstance(e, Sub):
        return sympy_value(e.left, point) - sympy_value(e.right, point)
    if isinstance(e, Mul):
        return sympy_value(e.left, point) * sympy_value(e.right, point)
    if isinstance(e, Div):
        num, den = sympy_value(e.left, point), sympy_value(e.right, point)
        if sympy_sign(den) == 0:
            raise DivisionByZero("division by zero")
        return num / den
    if isinstance(e, Neg):
        return -sympy_value(e.arg, point)
    if isinstance(e, Pow):
        return sympy_value(e.base, point) ** e.exponent
    if isinstance(e, Sqrt):
        arg = sympy_value(e.arg, point)
        if sympy_sign(arg) < 0:
            raise SqrtOfNegative("sqrt of a negative number")
        return sympy.sqrt(arg)
    assert isinstance(e, Piecewise)
    for guard, branch in e.pieces:
        if sympy_holds(guard, point):
            return sympy_value(branch, point)
    if e.default is not None:
        return sympy_value(e.default, point)
    raise GuardUndecidable("no piecewise branch applies at the point")


def outcome(fn, *args):
    try:
        return fn(*args)
    except (DivisionByZero, SqrtOfNegative, GuardUndecidable, ValueError) as exc:
        return type(exc)


def assert_is_the_number(v, s: sympy.Expr) -> None:
    """``v`` is the number ``s``: its defining polynomial vanishes at s (a
    rational's is x - v), its interval holds s and its sign is s's."""
    if s.is_Rational and isinstance(v, Fraction):
        assert s == sympy_number(v), (v, s)
        return
    m = sympy.Poly(sympy.minimal_polynomial(s, X), X)
    if isinstance(v, Fraction):
        assert m.monic().as_expr() == X - sympy_number(v), (v, s)
    else:
        assert sympy.rem(sympy.Poly(v.defining[::-1], X), m).is_zero, (v, s)
        if v.lo == v.hi:
            assert m.degree() == 1 and s == sympy_number(v.lo), (v, s)
        else:
            assert sympy_sign(s - sympy_number(v.lo)) > 0 and sympy_sign(sympy_number(v.hi) - s) > 0, (v, s)
    assert sign(v) == sympy_sign(s), (v, s)


# Coordinates, each an expression that the kernel and sympy evaluate on
# their own: rationals, square roots, a sum of two, a cube root.
COORDINATES = [
    "3/4",
    "-1",
    "(sqrt 2)",
    "(sqrt 3)",
    "(neg (sqrt 1/2))",
    "(add (sqrt 2) (sqrt 3))",
    "(root (-2 0 0 1) 1 2)",
]


def random_term(rng: random.Random, depth: int):
    """+, -, *, / and sqrt over small rationals and x1, x2."""
    if depth == 0:
        if rng.random() < 0.5:
            return Var(rng.randint(1, 2))
        return Const(F(rng.randint(-3, 3), rng.randint(1, 3)))
    k = rng.randrange(5)
    if k == 4:
        return Sqrt(random_term(rng, depth - 1))
    ctor = (Add, Sub, Mul, Div)[k]
    return ctor(random_term(rng, depth - 1), random_term(rng, depth - 1))


def test_arithmetic_agrees_with_sympy_on_seeded_corpus():
    rng = random.Random(3101)
    coords = [(eval_coord(parse_expr(c), ()), sympy_value(parse_expr(c), ())) for c in COORDINATES]
    assert [isinstance(ours, Fraction) for ours, _theirs in coords] == [True, True] + [False] * 5
    for ours, theirs in coords:
        assert_is_the_number(ours, theirs)
    kinds = []
    for _ in range(70):
        e = random_term(rng, rng.randint(1, 3))
        (a, sa), (b, sb) = rng.choice(coords), rng.choice(coords)
        got = outcome(eval_coord, e, (a, b))
        want = outcome(sympy_value, e, (sa, sb))
        if isinstance(got, type):
            assert got is want, sexpr_of_expr(e)
            kinds.append(got)
            continue
        assert not isinstance(want, type), sexpr_of_expr(e)
        assert_is_the_number(got, want)
        if isinstance(got, Fraction):
            kinds.append("zero" if not got else Fraction)
        else:
            kinds.append("degree 4 or more" if len(got.defining) > 4 else AlgebraicNumber)
    assert set(kinds) == {Fraction, "zero", AlgebraicNumber, "degree 4 or more", DivisionByZero, SqrtOfNegative}


def test_the_two_exact_zeros_sign_zero():
    # x1^2 - x2^2 + 1 at (sqrt2, sqrt3), and x1^2 - 5 - 2 x2 x3 at
    # (sqrt2 + sqrt3, sqrt2, sqrt3): no interval excludes 0 from either.
    texts = ("(sqrt 2)", "(sqrt 3)", "(add (sqrt 2) (sqrt 3))")
    sqrt2, sqrt3, both = (eval_coord(parse_expr(c), ()) for c in texts)
    s2, s3, s_both = (sympy_value(parse_expr(c), ()) for c in texts)
    zeros = [
        (parse_expr("(add (sub (pow x1 2) (pow x2 2)) 1)"), (sqrt2, sqrt3), (s2, s3)),
        (parse_expr("(sub (sub (pow x1 2) 5) (mul 2 (mul x2 x3)))"), (both, sqrt2, sqrt3), (s_both, s2, s3)),
    ]
    for lhs, point, theirs in zeros:
        assert atom_sign(lhs, point, {}) == 0
        value = eval_coord(lhs, point)
        assert value == 0 and isinstance(value, Fraction)
        assert sympy_sign(sympy_value(lhs, theirs)) == 0


def test_compare_coords_orders_values_2_to_the_minus_183_apart_and_finds_equal_ones_equal():
    f = "(add (sqrt 2) (sqrt 3))"
    value = eval_coord(parse_expr(f), ())
    for k in (182, 183, 200):
        above = eval_coord(parse_expr(f"(add {f} {F(1, 2**k)})"), ())
        assert compare_coords(value, above) == -1 and compare_coords(above, value) == 1
    nested = eval_coord(parse_expr("(sqrt (add 5 (mul 2 (sqrt 6))))"), ())
    assert compare_coords(nested, value) == compare_coords(value, nested) == 0
