import hashlib
import pickle
import random
from fractions import Fraction

import pytest

from cadreduce import expr, realroots
from cadreduce.errors import DivisionByZero, GuardUndecidable, ParseError, SqrtOfNegative
from cadreduce.expr import (
    Add,
    AlgebraicConst,
    Atom,
    Const,
    Div,
    FALSE,
    Mul,
    Neg,
    Piecewise,
    Pow,
    Sqrt,
    Sub,
    TRUE,
    Var,
    any_node,
    as_coord,
    atom_sign,
    canonical_formula,
    canonicalize,
    compare_coords,
    eval_coord,
    formula_holds,
    parse_expr,
    parse_formula,
    sexpr_of_expr,
    sexpr_of_formula,
    to_polynomial,
)
from cadreduce.gallery import gallery_names, load_entry
from cadreduce.poly import Polynomial, integer_coeffs
from cadreduce.realroots import AlgebraicNumber, interval_eval, isolate_roots, make_algebraic
from tests.oracles import trimmed
from tests.test_algebraic import assert_is_the_number, sympy_number, sympy_value
from tests.test_packaging import load_perfbench

F = Fraction


def test_parse_print_roundtrip():
    for text in [
        "(div (neg x1) 2)",
        "(sqrt (sub 1 (pow x1 2)))",
        "(piecewise ((and (gt x1 0) (gt x2 0)) (div (neg x1) 2)) (else 0))",
        "(sub 1 (div 1 (mul 2 (sub (pow x1 2) 1))))",
        "5/2",
        "-3",
    ]:
        e = parse_expr(text)
        assert parse_expr(sexpr_of_expr(e)) == e


def test_parse_formula_roundtrip():
    for text in [
        "(le (sub (add (pow x1 2) (pow x2 2)) 1) 0)",
        "(or (and (or (le x1 0) (le x2 0)) (eq x3 0)) (and (gt x1 0) (gt x2 0) (eq (add x3 (div x1 2)) 0)))",
        "(true)",
        "(not (lt x1 0))",
    ]:
        f = parse_formula(text)
        assert parse_formula(sexpr_of_formula(f)) == f


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_expr("(add x1)")
    with pytest.raises(ParseError):
        parse_expr("(frobnicate 1 2)")
    with pytest.raises(ParseError):
        parse_expr("(add 1 2))")
    with pytest.raises(ParseError):
        parse_formula("(lt (sqrt x1) 0)")  # non-polynomial atom
    # Only ASCII digits are digits; a formula's head must be an operator.
    for text in ("(pow x1 ²)", "x²", "(add x1 ١)"):
        with pytest.raises(ParseError):
            parse_expr(text)
    with pytest.raises(ParseError):
        parse_formula("((lt x1 0))")


def _canonical_atom(text: str):
    """``canonical_formula`` of ``(gt text 0)``, built past the parser,
    which refuses a non-polynomial side itself."""
    return canonical_formula(Atom(parse_expr(text), "gt"))


# Malformed input, the reader it is given to, and the start of the message
# of the ParseError it raises: one row per ``raise ParseError`` of the
# reader, the expression and formula parsers and ``canonical_formula``.
MALFORMED = [
    (parse_expr, "", "unexpected end of input"),
    (parse_expr, "(add 1 2", "missing closing parenthesis"),
    (parse_expr, ")", "unexpected ')'"),
    (parse_expr, "x0", "variable index must be >= 1: x0"),
    (parse_expr, "()", "empty expression list"),
    (parse_expr, "((add 1 2) 3)", "expected operator, got ['add', '1', '2']"),
    (parse_expr, "(sub 1)", "(sub ...) needs exactly two operands"),
    (parse_expr, "(div 1 2 3)", "(div ...) needs exactly two operands"),
    (parse_expr, "(neg 1 2)", "(neg ...) needs one operand"),
    (parse_expr, "(sqrt)", "(sqrt ...) needs one operand"),
    (parse_expr, "(piecewise x1)", "piecewise items are (guard expr) or (else expr)"),
    (parse_expr, "(piecewise ((gt x1 0) 1) (else 1) (else 2))", "duplicate (else ...) branch"),
    (parse_expr, "(piecewise (else 1))", "piecewise needs at least one guarded branch"),
    (parse_formula, "x1", "formula must be a list: 'x1'"),
    (parse_formula, "()", "empty formula list"),
    (parse_formula, "(gt x1)", "(gt lhs rhs) needs two operands"),
    (parse_formula, "(and)", "(and) needs operands"),
    (parse_formula, "(not (gt x1 0) (gt x1 1))", "(not ...) needs one operand"),
    (parse_formula, "(xor (gt x1 0) (gt x1 1))", "unknown formula operator: 'xor'"),
    (_canonical_atom, "(sqrt x1)", "formula atoms must be polynomial"),
]


@pytest.mark.parametrize("read, text, message", MALFORMED)
def test_malformed_input_raises_its_own_parse_error(read, text, message):
    with pytest.raises(ParseError) as refused:
        read(text)
    assert str(refused.value).startswith(message)


def test_parse_root_roundtrips_and_rejects_what_is_no_isolated_root():
    for text in ("(root (-2 0 1) 1 2)", "(add x1 (root (1 -3 0 1) 0 1))", "(root (-1 1) 1 1)"):
        e = parse_expr(text)
        assert sexpr_of_expr(e) == text and parse_expr(sexpr_of_expr(e)) == e
    assert parse_expr("(root (-2 0 1) 1 2)").value.compare(isolate_roots((-2, 0, 1))[1]) == 0
    for text in (
        "(root (-2 a 1) 1 2)",  # a coefficient that is no rational
        "(root (-2 (add 1 1) 1) 1 2)",
        "(root (-2 0 1) x1 2)",  # a bound that is no rational
        "(root (-2 0 1) 1 (add 1 1))",
        "(root (-2 0 1) 2 1)",  # an empty interval
        "(root (-2 0 1) 2 3)",  # no root inside
        "(root (-2 0 1) -2 2)",  # two roots inside
        "(root (-1 0 1) 1 2)",  # an endpoint that is a root
        "(root (-2 0 1) 1 1)",  # a point that is no root
        "(root (0 0) 1 2)",  # the zero polynomial
        "(root () 1 2)",
        "(root (-2 0 1) 1)",
        "(root -2 1 2)",
    ):
        with pytest.raises(ParseError):
            parse_expr(text)


def test_parse_formula_rejects_operands_of_true_and_false():
    # Like every other operator, a constant given the wrong operand count is
    # an error, not a formula with its operands dropped.
    assert parse_formula("(true)") == TRUE and parse_formula("(false)") == FALSE
    for text in ("(true 1)", "(false x1)", "(true (lt x1 0))"):
        with pytest.raises(ParseError):
            parse_formula(text)


def test_parse_formula_rejects_division_by_identically_zero():
    for text in ("(lt (div 1 (sub x1 x1)) 0)", "(lt (div (div 1 x1) (sub x2 x2)) 0)"):
        with pytest.raises(ParseError):
            parse_formula(text)


def test_node_hash_is_kept_but_not_pickled():
    f = parse_formula("(lt (add x1 (pow x2 2)) 0)")
    h = hash(f)
    assert hash(f) == h == hash(parse_formula("(lt (add x1 (pow x2 2)) 0)"))
    g = pickle.loads(pickle.dumps(f))
    assert g == f and "_hash" not in vars(g) and "_hash" not in vars(g.lhs)
    assert hash(g) == h


def test_eval_trousers_section_at_positive_quadrant():
    # The guarded section -x/2 on {x>0, y>0}, 0 elsewhere, at (1, 1).
    e = parse_expr("(piecewise ((and (gt x1 0) (gt x2 0)) (div (neg x1) 2)) (else 0))")
    assert eval_coord(e, [F(1), F(1)]) == F(-1, 2)
    assert eval_coord(e, [F(-1), F(2)]) == 0
    assert eval_coord(e, [F(0), F(5)]) == 0


def test_eval_disk_upper_section_identity():
    e = parse_expr("(sqrt (sub 1 (pow x1 2)))")
    assert eval_coord(e, [F(0)]) == 1


def test_eval_hyperbola_like_function_at_zero():
    # 1 - (2(x^2-1))^{-1} at x = 0 evaluates to 3/2.
    e = parse_expr("(sub 1 (div 1 (mul 2 (sub (pow x1 2) 1))))")
    assert eval_coord(e, [F(0)]) == F(3, 2)


def test_eval_interval_for_irrational():
    e = parse_expr("(sqrt (sub 1 (pow x1 2)))")
    lo, hi = eval_coord(e, (F(1, 2),)).approx(F(1, 1000))
    assert hi - lo <= F(1, 1000)
    # sqrt(3)/2 = 0.8660...
    assert lo < F(8661, 10000) and hi > F(8659, 10000)


def test_eval_monotone_in_precision():
    value = eval_coord(parse_expr("(sqrt 2)"), ())
    coarse = value.approx(F(1, 2**10))
    fine = value.approx(F(1, 2**30))
    assert coarse[0] <= fine[0] and fine[1] <= coarse[1]
    again = value.approx(F(1, 2**10))
    assert again == coarse  # deterministic


def test_eval_division_by_zero():
    e = parse_expr("(div 1 (sub (pow x1 2) 1))")
    with pytest.raises(DivisionByZero):
        eval_coord(e, [F(1)])


def test_eval_sqrt_of_negative():
    e = parse_expr("(sqrt (sub 1 (pow x1 2)))")
    with pytest.raises(SqrtOfNegative):
        eval_coord(e, [F(2)])


def test_eval_guard_undecidable_without_else():
    e = parse_expr("(piecewise ((gt x1 0) 1))")
    with pytest.raises(GuardUndecidable):
        eval_coord(e, [F(-1)])


def test_canonicalize_collects_terms():
    e = parse_expr("(sub (mul x1 2) x1)")
    assert canonicalize(e) == Var(1)


def test_canonicalize_no_pole_cancellation():
    e = parse_expr("(div (sub (pow x1 2) 1) (sub x1 1))")
    c = canonicalize(e)
    assert isinstance(c, Div)
    # Both sides keep their degrees: no cancellation across the pole at 1.
    assert canonicalize(c) == c
    # (x1 + 1) / (1 / (x1^2 + 2)) is 2 at x1 = 0: the divisor's pole stays
    # in the denominator and out of the value.
    e = parse_expr("(div (add x1 1) (div 1 (add (pow x1 2) 2)))")
    assert eval_coord(canonicalize(e), [F(0)]) == eval_coord(e, [F(0)]) == 2
    # (1/x1)^0 is 1 where it is defined, and undefined at x1 = 0.
    e = parse_expr("(pow (div 1 x1) 0)")
    assert eval_coord(canonicalize(e), [F(3)]) == 1
    with pytest.raises(DivisionByZero):
        eval_coord(canonicalize(e), [F(0)])
    assert to_polynomial(e) is None


def test_canonicalize_combines_fractions_domain_preserving():
    e1 = parse_expr("(sub 1 (div 1 (mul 2 (sub (pow x1 2) 1))))")
    e2 = parse_expr("(div (sub (mul 2 (pow x1 2)) 3) (sub (mul 2 (pow x1 2)) 2))")
    assert canonicalize(e1) == canonicalize(e2)


def test_canonicalize_piecewise_keeps_guard():
    e = parse_expr("(piecewise ((gt x1 0) (div (neg x1) 2)) (else 0))")
    c = canonicalize(e)
    assert isinstance(c, Piecewise)
    assert c.default is not None


# sqrt(2), and 3/2 as an algebraic number.
_ALGEBRAIC_CONSTS = (
    AlgebraicConst(isolate_roots((-2, 0, 1))[1]),
    AlgebraicConst(make_algebraic((-3, 2), F(1), F(2))),
)


def _random_expr(rng: random.Random, depth: int, atoms: bool = False):
    """A random expression; with ``atoms`` it may hold square roots,
    piecewise definitions and algebraic constants as well."""
    if depth == 0:
        k = rng.randrange(5 if atoms else 3)
        if k == 0:
            return Const(F(rng.randint(-5, 5)))
        if k == 1:
            return Var(rng.randint(1, 3))
        if k == 2:
            return Const(F(rng.randint(1, 7), rng.randint(1, 7)))
        return _ALGEBRAIC_CONSTS[k - 3]
    k = rng.randrange(10 if atoms else 8)
    if k < 2:
        return Add(_random_expr(rng, depth - 1, atoms), _random_expr(rng, depth - 1, atoms))
    if k < 4:
        return Mul(_random_expr(rng, depth - 1, atoms), _random_expr(rng, depth - 1, atoms))
    if k == 4:
        return Sub(_random_expr(rng, depth - 1, atoms), _random_expr(rng, depth - 1, atoms))
    if k == 5:
        return Neg(_random_expr(rng, depth - 1, atoms))
    if k == 6:
        return Pow(_random_expr(rng, depth - 1, atoms), rng.randrange(4))
    if k == 7:
        return Div(_random_expr(rng, depth - 1, atoms), _random_expr(rng, depth - 1, atoms))
    if k == 8:
        return Sqrt(_random_expr(rng, depth - 1, atoms))
    guard = Atom(Sub(Var(rng.randint(1, 3)), Const(F(rng.randint(-2, 2)))), "gt")
    return Piecewise(((guard, _random_expr(rng, depth - 1, atoms)),), _random_expr(rng, depth - 1, atoms))


def _value_or_pole(e, point):
    try:
        return eval_coord(e, point)
    except DivisionByZero:
        return DivisionByZero


def test_canonicalize_idempotent_on_random_corpus():
    # The canonical form is a fixed point, and at sample points it has the
    # value of the expression and divides by zero exactly where it does.
    rng = random.Random(421)
    points_rng = random.Random(422)
    checked = poles = 0
    for _ in range(200):
        e = _random_expr(rng, 3)
        try:
            c = canonicalize(e)
        except DivisionByZero:
            continue
        assert canonicalize(c) == c
        checked += 1
        for _ in range(4):
            point = [F(points_rng.randint(-2, 2)) for _ in range(3)]
            value = _value_or_pole(e, point)
            assert _value_or_pole(c, point) == value, (sexpr_of_expr(e), point)
            poles += value is DivisionByZero
    assert checked > 100
    assert poles > 0


def terms_of(p: Polynomial) -> dict:
    """A polynomial in variables as {((i, k), ...): rational coefficient}."""
    return {tuple((i, k) for (_, i, _), k in mon): F(c, p.den) for mon, c in p.terms.items()}


def _polynomial_text(p) -> str:
    """``to_polynomial``'s result as text: its terms as (variable monomial,
    coefficient), sorted, None, or a pole."""
    if p is None or p is DivisionByZero:
        return str(p)
    return repr(sorted((mon, str(c)) for mon, c in terms_of(p).items()))


def _normal_form_lines(e) -> list[str]:
    try:
        canonical = sexpr_of_expr(canonicalize(e))
    except DivisionByZero:
        canonical = "pole"
    return [canonical, _polynomial_text(_polynomial_or_pole(to_polynomial, e))]


def test_normal_form_digest(monkeypatch):
    # One sha256 over the normal forms and polynomials of test_expr's seeded
    # corpus, with and without square roots, piecewise definitions and
    # algebraic constants, of every gallery stack function and formula, and
    # of disk-lines(7)'s formula: a change to the polynomial arithmetic
    # behind them must leave every one as it is.
    lines = []
    for seed, atoms in ((421, False), (7, True)):
        rng = random.Random(seed)
        for _ in range(400):
            lines += _normal_form_lines(_random_expr(rng, rng.randint(1, 3), atoms))
    for name in gallery_names():
        entry = load_entry(name)
        for cell in sorted(entry.cad.stacks):
            for f in entry.cad.stacks[cell].functions:
                lines += _normal_form_lines(f)
        lines.append(sexpr_of_formula(canonical_formula(entry.formula)))
    disk = load_perfbench("workloads", monkeypatch).disk_lines(7, 0)
    lines.append(sexpr_of_formula(canonical_formula(disk.formula)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "6b5d14386b1c22280f56fb07ff19c979a933d6174c7e841c9ce6228568ab9bc7"


def _to_polynomial_oracle(e):
    """``to_polynomial`` as it was written before it read the normal form:
    a walk of its own, with division only by nonzero constants."""

    def go(e):
        if isinstance(e, Const):
            return {(): e.value} if e.value else {}
        if isinstance(e, AlgebraicConst):
            if e.value.is_rational:
                v = e.value.rational_value
                return {(): v} if v else {}
            return None
        if isinstance(e, Var):
            return {((e.index, 1),): F(1)}
        if isinstance(e, (Add, Sub)):
            a, b = go(e.left), go(e.right)
            if a is None or b is None:
                return None
            out = dict(a)
            for m, c in b.items():
                s = out.get(m, F(0)) + (c if isinstance(e, Add) else -c)
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
            return out
        if isinstance(e, Mul):
            a, b = go(e.left), go(e.right)
            if a is None or b is None:
                return None
            return _oracle_mul(a, b)
        if isinstance(e, Div):
            a, b = go(e.left), go(e.right)
            if a is None or b is None or list(b) not in ([], [()]):
                return None
            if not b:
                raise DivisionByZero("division by zero constant")
            c = b[()]
            return {m: v / c for m, v in a.items()}
        if isinstance(e, Neg):
            a = go(e.arg)
            return None if a is None else {m: -c for m, c in a.items()}
        if isinstance(e, Pow):
            a = go(e.base)
            if a is None:
                return None
            out = {(): F(1)}
            for _ in range(e.exponent):
                out = _oracle_mul(out, a)
            return out
        return None

    return go(e)


def _oracle_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            exps = {}
            for i, k in m1 + m2:
                exps[i] = exps.get(i, 0) + k
            m = tuple(sorted(exps.items()))
            s = out.get(m, F(0)) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _polynomial_or_pole(fn, e):
    try:
        return fn(e)
    except DivisionByZero:
        return DivisionByZero


def _divides_by_zero(e) -> bool:
    """Whether some division in ``e`` (outside piecewise branches) has an
    identically zero divisor."""

    def zero_divisor(node) -> bool:
        if not isinstance(node, Div):
            return False
        try:
            c = canonicalize(node.right)
        except DivisionByZero:
            return False  # the nested division is found on its own
        return c == Const(F(0)) or (isinstance(c, Div) and c.left == Const(F(0)))

    return any_node(e, zero_divisor)


def test_to_polynomial_agrees_with_its_own_walk():
    # Where the two differ, both reject an expression that divides by an
    # identically zero subexpression: one returns None, the other raises.
    rng = random.Random(7)
    polynomials = rejected = 0
    for _ in range(10_000):
        e = _random_expr(rng, rng.randint(1, 3), atoms=True)
        old = _polynomial_or_pole(_to_polynomial_oracle, e)
        new = _polynomial_or_pole(to_polynomial, e)
        if isinstance(new, Polynomial):
            new = terms_of(new)
        if old != new:
            assert old in (None, DivisionByZero) and new in (None, DivisionByZero), sexpr_of_expr(e)
            assert _divides_by_zero(e), sexpr_of_expr(e)
            rejected += 1
        polynomials += isinstance(new, dict)
    assert polynomials > 1000
    assert rejected > 0


def test_formula_holds_exact():
    disk = parse_formula("(le (sub (add (pow x1 2) (pow x2 2)) 1) 0)")
    assert formula_holds(disk, [F(0), F(0)])
    assert formula_holds(disk, [F(1), F(0)])
    assert not formula_holds(disk, [F(1), F(1)])


def test_formula_holds_at_algebraic_point():
    # x^2 - 2 <= 0 exactly at sqrt(2).
    f = parse_formula("(le (sub (pow x1 2) 2) 0)")
    sqrt2 = isolate_roots((-2, 0, 1))[1]
    assert formula_holds(f, [sqrt2])
    g = parse_formula("(lt (sub (pow x1 2) 2) 0)")
    assert not formula_holds(g, [sqrt2])


def test_atom_sign_with_algebraic_coordinate():
    sqrt2 = isolate_roots((-2, 0, 1))[1]
    lhs = parse_expr("(sub (pow x2 2) (mul 2 (pow x1 2)))")  # y^2 - 2x^2
    assert atom_sign(lhs, [F(1), sqrt2], {}) == 0
    assert atom_sign(lhs, [F(1), F(3, 2)], {}) == 1


def test_atom_sign_classifies_only_the_variables_the_polynomial_uses():
    # The one-algebraic path reads integer coefficients, whatever the
    # coordinates the polynomial does not use hold.
    sqrt2, sqrt3 = (isolate_roots((-c, 0, 1))[1] for c in (2, 3))
    both = eval_coord(parse_expr("(add (sqrt 2) (sqrt 3))"), ())
    assert isinstance(both, AlgebraicNumber)
    lhs = parse_expr("(sub (pow x1 2) 2)")
    for point in ((sqrt2, sqrt3), (sqrt2, both), (sqrt2, sqrt3, both), (F(1), both)):
        assert atom_sign(lhs, point, {}) == (0 if point[0] is sqrt2 else -1)
    assert atom_sign(parse_expr("(sub x3 1)"), (both, sqrt3, F(2)), {}) == 1
    with pytest.raises(ValueError, match="no coordinate 3"):
        atom_sign(parse_expr("(sub x3 x1)"), (sqrt2, both), {})


def test_atom_sign_is_exact_at_two_algebraic_coordinates():
    sqrt2, sqrt3 = (isolate_roots((-c, 0, 1))[1] for c in (2, 3))
    both = eval_coord(parse_expr("(add (sqrt 2) (sqrt 3))"), ())  # 3.146...
    assert atom_sign(parse_expr("(sub x1 x2)"), (sqrt2, sqrt3), {}) == -1
    assert atom_sign(parse_expr("(sub (mul x1 x2) 2)"), (sqrt2, sqrt3), {}) == 1
    assert atom_sign(parse_expr("(sub x1 3)"), (both,), {}) == 1
    assert atom_sign(parse_expr("(sub x1 (mul 2 x2))"), (both, F(8, 5)), {}) == -1
    # Exact zeros: sqrt2^2 - sqrt3^2 + 1 = 0, and (sqrt2 + sqrt3)^2 - 5 -
    # 2 sqrt6 = 0 read as x1^2 - 5 - 2 x2 x3.
    assert atom_sign(parse_expr("(add (sub (pow x1 2) (pow x2 2)) 1)"), (sqrt2, sqrt3), {}) == 0
    assert atom_sign(parse_expr("(sub (sub (pow x1 2) 5) (mul 2 (mul x2 x3)))"), (both, sqrt2, sqrt3), {}) == 0
    assert atom_sign(parse_expr("(sub (sub (pow x1 2) 5) (mul 2 (mul x2 x3)))"), (both, sqrt2, sqrt2), {}) == 1


def test_eval_reads_algebraic_coordinates():
    sqrt2 = isolate_roots((-2, 0, 1))[1]
    half = AlgebraicNumber.from_rational(F(1, 2))
    e = parse_expr("(add x1 1)")
    # A rational algebraic coordinate is read exactly.
    assert eval_coord(e, (half,)) == F(3, 2)
    # An irrational one makes the value algebraic, of the coordinate's degree.
    at_sqrt2 = eval_coord(e, (sqrt2,))
    assert isinstance(at_sqrt2, AlgebraicNumber) and at_sqrt2.defining == (-1, -2, 1)
    lo, hi = at_sqrt2.approx(F(1, 2**20))
    assert lo < F(24142136, 10**7) < hi and hi - lo <= F(1, 2**20)
    # An algebraic coordinate that is itself a value is read as any other.
    again = eval_coord(e, (at_sqrt2,))
    assert isinstance(again, AlgebraicNumber)
    lo, hi = again.approx(F(1, 2**20))
    assert lo < F(34142136, 10**7) < hi and hi - lo <= F(1, 2**20)
    assert compare_coords(again, F(3)) == 1 and compare_coords(again, sqrt2) == 1


def test_compare_coords_finds_equal_algebraic_values_equal():
    a = eval_coord(parse_expr("(add (sqrt 2) (sqrt 3))"), ())
    b = eval_coord(parse_expr("(add (sqrt 3) (sqrt 2))"), ())
    assert isinstance(a, AlgebraicNumber) and isinstance(b, AlgebraicNumber)
    assert compare_coords(a, b) == compare_coords(b, a) == 0
    # At another point, or with another expression, equal values are equal.
    c = eval_coord(parse_expr("(add (sqrt x1) (sqrt 3))"), (F(2),))
    assert compare_coords(a, c) == 0
    e = eval_coord(parse_expr("(sqrt (add 5 (mul 2 (sqrt 6))))"), ())
    assert compare_coords(a, e) == compare_coords(e, a) == 0
    d = eval_coord(parse_expr("(add (sqrt 2) (sqrt 5))"), ())
    assert compare_coords(a, d) == -1 and compare_coords(d, b) == 1


def univariate_coeffs(p, values, index):
    """The coefficients that ``integer_coeffs`` stands for: each a_d / s."""
    coeffs, scale = integer_coeffs(p, values, index)
    return tuple(F(a, scale) for a in coeffs)


def test_univariate_coeffs_substitutes_every_variable_but_one():
    p = to_polynomial(parse_expr("(add (mul 3 x1 (pow x2 2)) (mul x1 x3) (neg x3) 5)"))
    # All rational: a constant, 3*2*4 + 2*(-1) + 1 + 5.
    assert univariate_coeffs(p, {1: F(2), 2: F(2), 3: F(-1)}, None) == (F(28),)
    assert univariate_coeffs(p, {1: F(1), 2: F(0), 3: F(7)}, None) == (F(5),)
    assert univariate_coeffs(p, {1: F(-5, 3), 2: F(1), 3: F(0)}, None) == ()
    # One coordinate left: in x2 at x1 = 2, x3 = -1, 4 + 6 x2^2.
    assert univariate_coeffs(p, {1: F(2), 3: F(-1)}, 2) == (F(4), F(0), F(6))
    # A variable that is neither kept nor given a value is a coordinate the
    # point lacks.
    with pytest.raises(ValueError, match="no coordinate 3"):
        univariate_coeffs(p, {1: F(0), 2: F(1)}, None)
    with pytest.raises(ValueError, match="no coordinate 3"):
        univariate_coeffs(p, {1: F(1)}, 2)


def test_atom_sign_one_substitution_pass_at_rational_and_algebraic_points():
    sqrt2 = isolate_roots((-2, 0, 1))[1]
    lhs = parse_expr("(sub (mul x1 (pow x2 2)) (mul 2 x3))")  # x y^2 - 2 z
    assert atom_sign(lhs, [F(1), sqrt2, F(1)], {}) == 0
    assert atom_sign(lhs, [F(3), sqrt2, F(1)], {}) == 1
    assert atom_sign(lhs, [F(1), F(1), F(1)], {}) == -1
    with pytest.raises(ValueError, match="no coordinate 3"):
        atom_sign(lhs, [F(1), sqrt2], {})
    with pytest.raises(ValueError, match="no coordinate 3"):
        atom_sign(lhs, [F(1), F(2)], {})


def _univariate_coeffs_oracle(p, values, index):
    """The coefficients as they were computed before they were summed in
    integers: term by term, in ``Fraction`` arithmetic."""
    coeffs = {}
    for mon, c in p.items():
        degree = 0
        for i, k in mon:
            if i == index:
                degree = k
            elif i in values:
                c *= values[i] ** k
            else:
                raise ValueError(f"point has no coordinate {i}")
        coeffs[degree] = coeffs.get(degree, F(0)) + c
    return trimmed(coeffs.get(d, F(0)) for d in range(max(coeffs, default=0) + 1))


def _random_rational(rng: random.Random) -> Fraction:
    """Zero, a small integer, a small fraction or one with a large
    denominator, of either sign."""
    kind = rng.randrange(4)
    if kind == 0:
        return F(0)
    if kind == 1:
        return F(rng.randint(-3, 3))
    if kind == 2:
        return F(rng.randint(-9, 9), rng.randint(1, 9))
    return F(rng.randint(-(2**70), 2**70), rng.randint(1, 2**70))


def _random_varpoly(rng: random.Random, n: int) -> dict:
    """A polynomial in x1..xn, with zero, negative and large-denominator
    coefficients among its terms."""
    p = {}
    for _ in range(rng.randint(0, 5)):
        variables = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
        p[tuple((i, rng.randint(1, 3)) for i in variables)] = _random_rational(rng)
    return p


def _expr_of(p: dict):
    """An expression whose polynomial is ``p``."""
    terms = []
    for mon, c in p.items():
        term = Const(c)
        for i, k in mon:
            term = Mul(term, Pow(Var(i), k))
        terms.append(term)
    out = Const(F(0))
    for term in terms:
        out = Add(out, term)
    return out


def _sign_by_refinement(q, a: AlgebraicNumber):
    """The sign of q at a, by interval evaluation on ever narrower
    isolating intervals; None when 2^-200 does not separate it from 0."""
    if not q:
        return 0
    for k in range(1, 201):
        lo, hi = interval_eval(q, *a.approx(F(1, 2**k)))
        if lo > 0:
            return 1
        if hi < 0:
            return -1
    return None


def test_integer_kernel_agrees_with_the_fraction_oracle_on_random_corpus():
    rng = random.Random(1709)
    seen = set()
    for _ in range(600):
        n = rng.randint(1, 4)
        # The oracle reads the polynomial as the ring holds it: no zero terms.
        q = to_polynomial(_expr_of(_random_varpoly(rng, n)))
        p = terms_of(q)
        index = rng.choice([None, *range(1, n + 1)])
        values = {i: _random_rational(rng) for i in range(1, n + 1) if i != index}
        if values and rng.random() < 0.2:
            # A coordinate the point lacks.
            del values[rng.choice(sorted(values))]
        want = _outcome(_univariate_coeffs_oracle, p, values, index)
        assert _outcome(univariate_coeffs, q, values, index) == want, (p, values, index)
        if want and want[0] is ValueError:
            seen.add("missing")
            continue
        coeffs, scale = integer_coeffs(q, values, index)
        assert scale > 0 and tuple(F(a, scale) for a in coeffs) == want
        seen.add("zero" if not want else ("constant" if index is None else "in x_index"))
        if any(v.denominator > 2**40 for v in values.values()):
            seen.add("large denominator")
    assert seen == {"missing", "zero", "constant", "in x_index", "large denominator"}


def test_atom_sign_agrees_with_the_fraction_oracle_on_random_corpus():
    # Rational points against the oracle's constant; points with one
    # algebraic coordinate against interval refinement of the oracle's
    # coefficients, and against 0 where the polynomial is a multiple of
    # that coordinate's defining polynomial.
    rng = random.Random(1710)
    algebraic = isolate_roots((-2, 0, 1)) + isolate_roots((1, -3, 0, 1))
    algebraic += [realroots._algebraic_sqrt(F(rng.randint(1, 2**40), rng.randint(2, 2**40) | 1)) for _ in range(4)]
    assert not any(a.is_rational for a in algebraic)
    counts = {"rational": 0, "rational zero": 0, "missing": 0, "algebraic": 0, "algebraic zero": 0}
    for _ in range(500):
        n = rng.randint(1, 3)
        p = _random_varpoly(rng, n)
        point = [_random_rational(rng) for _ in range(n)]
        if rng.random() < 0.5:
            j = rng.randrange(n)
            a = point[j] = rng.choice(algebraic)
            if rng.random() < 0.3:
                p = terms_of(to_polynomial(Mul(_expr_of(p), _expr_of({((j + 1, k),): F(c) for k, c in enumerate(a.defining)}))))
                counts["algebraic zero"] += 1
                assert atom_sign(_expr_of(p), point, {}) == 0
                continue
        elif rng.random() < 0.3:
            # Shift the constant term so the value at the point is exactly 0.
            value = _univariate_coeffs_oracle(p, dict(enumerate(point, start=1)), None)
            p = terms_of(to_polynomial(_expr_of({**p, (): p.get((), F(0)) - (value[0] if value else 0)})))
            counts["rational zero"] += 1
        elif rng.random() < 0.2:
            # A coordinate the point lacks.
            p = {**p, ((n, 1),): F(1)}
            point.pop()
        lhs = _expr_of(p)
        got = _outcome(atom_sign, lhs, point, {})
        rationals = {i: v for i, v in enumerate(point, start=1) if isinstance(v, Fraction)}
        index = next((i for i, v in enumerate(point, start=1) if not isinstance(v, Fraction)), None)
        q = _outcome(_univariate_coeffs_oracle, terms_of(to_polynomial(lhs)), rationals, index)
        if q and q[0] is ValueError:
            assert got == q
            counts["missing"] += 1
        elif index is None:
            assert got == (0 if not q else (1 if q[0] > 0 else -1)), (p, point)
            counts["rational"] += 1
        else:
            want = _sign_by_refinement(q, point[index - 1])
            assert want is not None and got == want, (p, point)
            counts["algebraic"] += 1
    assert min(counts.values()) >= 20, counts


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (DivisionByZero, SqrtOfNegative, GuardUndecidable, ValueError) as exc:
        return type(exc), str(exc)


def test_eval_coord_agrees_with_sympy_on_random_corpus():
    # Every value is the number sympy computes (``assert_is_the_number``),
    # and every error the one sympy's value raises.
    rng = random.Random(431)
    points_rng = random.Random(432)
    kinds = set()
    for _ in range(300):
        e = _random_expr(rng, 3, atoms=True)
        # A square root, negated or not, at the top.
        e = rng.choice([e, Sqrt(e), Neg(Sqrt(e))])
        for _ in range(3):
            point = [F(points_rng.randint(-2, 2), points_rng.randint(1, 3)) for _ in range(points_rng.randint(2, 3))]
            got = _outcome(eval_coord, e, point)
            want = _outcome(sympy_value, e, [sympy_number(c) for c in point])
            if isinstance(got, tuple):
                assert isinstance(want, tuple) and got[0] is want[0], (sexpr_of_expr(e), point)
            else:
                assert_is_the_number(got, want)
            kinds.add(got[0] if isinstance(got, tuple) else type(got))
    assert {Fraction, AlgebraicNumber, SqrtOfNegative, DivisionByZero, ValueError} <= kinds


def test_eval_coord_evaluates_a_square_roots_argument_once(monkeypatch):
    e = parse_expr("(neg (sqrt (sub 1 (pow x1 2))))")
    want = realroots._algebraic_sqrt(F(8, 9)).negated()
    calls = []
    evaluate = expr._eval
    monkeypatch.setattr(expr, "_eval", lambda node, *rest: calls.append(node) or evaluate(node, *rest))
    v = eval_coord(e, [F(1, 3)])
    assert isinstance(v, AlgebraicNumber) and v == want
    assert calls.count(e.arg.arg) == 1


def test_eval_coord_returns_algebraic_for_sqrt():
    e = parse_expr("(sqrt (sub 1 (pow x1 2)))")
    v = eval_coord(e, [F(1, 2)])
    assert isinstance(v, AlgebraicNumber)
    neg = eval_coord(parse_expr("(neg (sqrt (sub 1 (pow x1 2))))"), [F(1, 2)])
    assert isinstance(neg, AlgebraicNumber)
    assert compare_coords(neg, v) == -1


def test_canonical_formula_scales_and_flips():
    f1 = parse_formula("(lt (neg x1) 0)")
    f2 = parse_formula("(gt (mul 2 x1) 0)")
    assert canonical_formula(f1) == canonical_formula(f2)


def test_canonical_formula_flattens_and_sorts():
    f1 = parse_formula("(and (gt x1 0) (and (gt x2 0) (gt x1 0)))")
    f2 = parse_formula("(and (gt x2 0) (gt x1 0))")
    assert canonical_formula(f1) == canonical_formula(f2)


def test_as_coord_keeps_fractions_and_converts_ints():
    q = F(3, 7)
    assert as_coord(q) is q
    assert as_coord(5) == F(5) and type(as_coord(5)) is F
    root = isolate_roots((-2, 0, 1))[1]
    assert as_coord(root) is root
    for bad in (0.5, "1", None):
        with pytest.raises(TypeError):
            as_coord(bad)
