"""Exact expression language for section functions and set-defining formulas.

Expressions are immutable ASTs over rational constants, variables ``x1..xk``,
field operations, integer powers, square roots and guarded piecewise
definitions.  Values at points are exact: a ``Fraction`` while the
arithmetic stays rational, and otherwise a ``realroots.AlgebraicNumber``,
so every sign and comparison at a point is decided, zero included.  The
normal form (``canonicalize``) and the polynomial view (``to_polynomial``)
are computed in the ring of ``cadreduce.poly``.

Formulas are boolean combinations of polynomial sign conditions ``p sigma 0``
and define the semi-algebraic sets that CADs are adapted to.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Union

from cadreduce.errors import DivisionByZero, GuardUndecidable, ParseError, SqrtOfNegative, UnknownOrder
from cadreduce.poly import ONE, GenKey, Polynomial, clear_denominators, integer_coeffs
from cadreduce.realroots import AlgebraicNumber, Real, enclosure, make_algebraic, sign, sqrt


# ---------------------------------------------------------------------------
# AST


def _node(cls):
    """A frozen dataclass that hashes its subtree once, not on every
    ``lru_cache`` lookup (Filliatre & Conchon, "Type-safe modular
    hash-consing", 2006).  The kept hash is not pickled: ``str`` hashes
    (``Atom.op``) differ from process to process."""
    cls = dataclass(frozen=True)(cls)
    field_hash = cls.__hash__

    def __hash__(self):
        if "_hash" not in self.__dict__:
            self.__dict__["_hash"] = field_hash(self)
        return self.__dict__["_hash"]

    cls.__hash__ = __hash__
    cls.__getstate__ = lambda self: {k: v for k, v in vars(self).items() if k != "_hash"}
    return cls


@_node
class Const:
    value: Fraction


@_node
class AlgebraicConst:
    """An irrational constant; a rational ``(root ...)`` parses to ``Const``."""

    value: AlgebraicNumber


@_node
class Var:
    index: int  # 1-based


@_node
class Add:
    left: "Expr"
    right: "Expr"


@_node
class Sub:
    left: "Expr"
    right: "Expr"


@_node
class Mul:
    left: "Expr"
    right: "Expr"


@_node
class Div:
    left: "Expr"
    right: "Expr"


@_node
class Neg:
    arg: "Expr"


@_node
class Pow:
    base: "Expr"
    exponent: int  # nonnegative


@_node
class Sqrt:
    arg: "Expr"


@_node
class Piecewise:
    pieces: tuple[tuple["Formula", "Expr"], ...]
    default: "Expr | None" = None


Expr = Union[Const, AlgebraicConst, Var, Add, Sub, Mul, Div, Neg, Pow, Sqrt, Piecewise]


@_node
class TrueFormula:
    pass


@_node
class FalseFormula:
    pass


@_node
class Atom:
    """A polynomial sign condition ``lhs op 0`` with op in lt/le/eq/ge/gt."""

    lhs: Expr
    op: str


@_node
class And:
    args: tuple["Formula", ...]


@_node
class Or:
    args: tuple["Formula", ...]


@_node
class Not:
    arg: "Formula"


Formula = Union[TrueFormula, FalseFormula, Atom, And, Or, Not]

TRUE = TrueFormula()
FALSE = FalseFormula()


def const(v: Fraction | int) -> Const:
    return Const(Fraction(v))


def max_var_index(e: Expr | Formula) -> int:
    if isinstance(e, Var):
        return e.index
    if isinstance(e, (Const, AlgebraicConst, TrueFormula, FalseFormula)):
        return 0
    if isinstance(e, (Add, Sub, Mul, Div)):
        return max(max_var_index(e.left), max_var_index(e.right))
    if isinstance(e, (Neg, Sqrt, Not)):
        return max_var_index(e.arg)
    if isinstance(e, Pow):
        return max_var_index(e.base)
    if isinstance(e, Piecewise):
        parts = [max_var_index(g) for g, _ in e.pieces] + [max_var_index(x) for _, x in e.pieces]
        if e.default is not None:
            parts.append(max_var_index(e.default))
        return max(parts, default=0)
    if isinstance(e, Atom):
        return max_var_index(e.lhs)
    if isinstance(e, (And, Or)):
        return max((max_var_index(a) for a in e.args), default=0)
    raise TypeError(f"unknown node {e!r}")


def is_piecewise(e: Expr) -> bool:
    return isinstance(e, Piecewise)


def any_node(e: Expr, pred) -> bool:
    """Whether ``pred`` holds at some node of ``e``.

    The walk descends through the arithmetic nodes; a ``Piecewise`` is a
    single node whose guards and branches are not entered.
    """
    if pred(e):
        return True
    if isinstance(e, (Add, Sub, Mul, Div)):
        return any_node(e.left, pred) or any_node(e.right, pred)
    if isinstance(e, (Neg, Sqrt)):
        return any_node(e.arg, pred)
    if isinstance(e, Pow):
        return any_node(e.base, pred)
    return False


def substitute(e: Expr, values: dict[int, Expr]) -> Expr:
    """``e`` with every variable x_i that ``values`` names replaced by
    ``values[i]``.  A ``Piecewise`` (whose guards are formulas) is refused."""
    if isinstance(e, Var):
        return values.get(e.index, e)
    if isinstance(e, (Const, AlgebraicConst)):
        return e
    if isinstance(e, (Add, Sub, Mul, Div)):
        return type(e)(substitute(e.left, values), substitute(e.right, values))
    if isinstance(e, (Neg, Sqrt)):
        return type(e)(substitute(e.arg, values))
    if isinstance(e, Pow):
        return Pow(substitute(e.base, values), e.exponent)
    raise TypeError(f"cannot substitute into {e!r}")


# ---------------------------------------------------------------------------
# S-expressions


def _tokenize(text: str) -> list[str]:
    out: list[str] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            out.append(c)
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            out.append(text[i:j])
            i = j
    return out


def _read(tokens: list[str], pos: int):
    if pos >= len(tokens):
        raise ParseError("unexpected end of input")
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _read(tokens, pos)
            items.append(item)
        if pos >= len(tokens):
            raise ParseError("missing closing parenthesis")
        return items, pos + 1
    if tok == ")":
        raise ParseError("unexpected ')'")
    return tok, pos + 1


def parse_sexpr(text: str):
    tokens = _tokenize(text)
    tree, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise ParseError(f"trailing input after s-expression: {tokens[pos:]}")
    return tree


def _is_digits(tok: str) -> bool:
    """ASCII digits only: ``str.isdigit`` also accepts superscripts."""
    return tok.isascii() and tok.isdigit()


def _fraction_atom(tok: str) -> Fraction | None:
    if not tok.isascii():
        return None
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        return None


def expr_from_sexpr(tree) -> Expr:
    if isinstance(tree, str):
        if tree.startswith("x") and _is_digits(tree[1:]):
            idx = int(tree[1:])
            if idx < 1:
                raise ParseError(f"variable index must be >= 1: {tree}")
            return Var(idx)
        v = _fraction_atom(tree)
        if v is not None:
            return Const(v)
        raise ParseError(f"unknown expression atom: {tree!r}")
    if not tree:
        raise ParseError("empty expression list")
    head, *args = tree
    if not isinstance(head, str):
        raise ParseError(f"expected operator, got {head!r}")
    if head in ("add", "mul"):
        if len(args) < 2:
            raise ParseError(f"({head} ...) needs at least two operands")
        node = expr_from_sexpr(args[0])
        ctor = Add if head == "add" else Mul
        for a in args[1:]:
            node = ctor(node, expr_from_sexpr(a))
        return node
    if head in ("sub", "div"):
        if len(args) != 2:
            raise ParseError(f"({head} ...) needs exactly two operands")
        ctor = Sub if head == "sub" else Div
        return ctor(expr_from_sexpr(args[0]), expr_from_sexpr(args[1]))
    if head == "neg":
        if len(args) != 1:
            raise ParseError("(neg ...) needs one operand")
        return Neg(expr_from_sexpr(args[0]))
    if head == "pow":
        if len(args) != 2 or not isinstance(args[1], str) or not _is_digits(args[1]):
            raise ParseError("(pow e k) needs a nonnegative integer exponent")
        return Pow(expr_from_sexpr(args[0]), int(args[1]))
    if head == "sqrt":
        if len(args) != 1:
            raise ParseError("(sqrt ...) needs one operand")
        return Sqrt(expr_from_sexpr(args[0]))
    if head == "root":
        if len(args) != 3 or not isinstance(args[0], list):
            raise ParseError("(root (c0 c1 ...) lo hi) expected")
        coeffs = []
        for c in args[0]:
            v = _fraction_atom(c) if isinstance(c, str) else None
            if v is None:
                raise ParseError(f"bad coefficient {c!r}")
            coeffs.append(v)
        lo = _fraction_atom(args[1]) if isinstance(args[1], str) else None
        hi = _fraction_atom(args[2]) if isinstance(args[2], str) else None
        if lo is None or hi is None:
            raise ParseError("(root ...) bounds must be rational")
        try:
            v = make_algebraic(clear_denominators(coeffs), lo, hi)
            return Const(v) if isinstance(v, Fraction) else AlgebraicConst(v)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    if head == "piecewise":
        pieces: list[tuple[Formula, Expr]] = []
        default: Expr | None = None
        for item in args:
            if not isinstance(item, list) or len(item) != 2:
                raise ParseError("piecewise items are (guard expr) or (else expr)")
            g, e = item
            if g == "else":
                if default is not None:
                    raise ParseError("duplicate (else ...) branch")
                default = expr_from_sexpr(e)
            else:
                pieces.append((formula_from_sexpr(g), expr_from_sexpr(e)))
        if not pieces:
            raise ParseError("piecewise needs at least one guarded branch")
        return Piecewise(tuple(pieces), default)
    raise ParseError(f"unknown expression operator: {head!r}")


def formula_from_sexpr(tree) -> Formula:
    if isinstance(tree, str):
        raise ParseError(f"formula must be a list: {tree!r}")
    if not tree:
        raise ParseError("empty formula list")
    head, *args = tree
    if not isinstance(head, str):
        raise ParseError(f"expected operator, got {head!r}")
    if head in ("true", "false"):
        if args:
            raise ParseError(f"({head}) takes no operands")
        return TRUE if head == "true" else FALSE
    if head in _OP_TEST:
        if len(args) != 2:
            raise ParseError(f"({head} lhs rhs) needs two operands")
        lhs = expr_from_sexpr(args[0])
        rhs = expr_from_sexpr(args[1])
        if rhs != Const(Fraction(0)):
            lhs = Sub(lhs, rhs)
        atom = Atom(lhs, head)
        try:
            polynomial = to_polynomial(atom.lhs)
        except DivisionByZero as exc:
            raise ParseError(f"comparison divides by zero: {sexpr_of_formula(atom)}") from exc
        if polynomial is None:
            raise ParseError(f"comparison sides must be polynomial: {sexpr_of_formula(atom)}")
        return atom
    if head in ("and", "or"):
        if not args:
            raise ParseError(f"({head}) needs operands")
        parts = tuple(formula_from_sexpr(a) for a in args)
        return And(parts) if head == "and" else Or(parts)
    if head == "not":
        if len(args) != 1:
            raise ParseError("(not ...) needs one operand")
        return Not(formula_from_sexpr(args[0]))
    raise ParseError(f"unknown formula operator: {head!r}")


def parse_expr(text: str) -> Expr:
    return expr_from_sexpr(parse_sexpr(text))


def parse_formula(text: str) -> Formula:
    return formula_from_sexpr(parse_sexpr(text))


def sexpr_of_expr(e: Expr) -> str:
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, AlgebraicConst):
        a = e.value
        coeffs = " ".join(str(c) for c in a.defining)
        return f"(root ({coeffs}) {a.lo} {a.hi})"
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Add):
        return f"(add {sexpr_of_expr(e.left)} {sexpr_of_expr(e.right)})"
    if isinstance(e, Sub):
        return f"(sub {sexpr_of_expr(e.left)} {sexpr_of_expr(e.right)})"
    if isinstance(e, Mul):
        return f"(mul {sexpr_of_expr(e.left)} {sexpr_of_expr(e.right)})"
    if isinstance(e, Div):
        return f"(div {sexpr_of_expr(e.left)} {sexpr_of_expr(e.right)})"
    if isinstance(e, Neg):
        return f"(neg {sexpr_of_expr(e.arg)})"
    if isinstance(e, Pow):
        return f"(pow {sexpr_of_expr(e.base)} {e.exponent})"
    if isinstance(e, Sqrt):
        return f"(sqrt {sexpr_of_expr(e.arg)})"
    if isinstance(e, Piecewise):
        parts = [f"({sexpr_of_formula(g)} {sexpr_of_expr(x)})" for g, x in e.pieces]
        if e.default is not None:
            parts.append(f"(else {sexpr_of_expr(e.default)})")
        return "(piecewise " + " ".join(parts) + ")"
    raise TypeError(f"unknown expression node {e!r}")


def sexpr_of_formula(f: Formula) -> str:
    if isinstance(f, TrueFormula):
        return "(true)"
    if isinstance(f, FalseFormula):
        return "(false)"
    if isinstance(f, Atom):
        return f"({f.op} {sexpr_of_expr(f.lhs)} 0)"
    if isinstance(f, And):
        return "(and " + " ".join(sexpr_of_formula(a) for a in f.args) + ")"
    if isinstance(f, Or):
        return "(or " + " ".join(sexpr_of_formula(a) for a in f.args) + ")"
    if isinstance(f, Not):
        return f"(not {sexpr_of_formula(f.arg)})"
    raise TypeError(f"unknown formula node {f!r}")


# ---------------------------------------------------------------------------
# Normal form
#
# A canonical value is a pair (num, den) of polynomials (``poly.Polynomial``)
# whose generators are either variables or opaque "atoms" (sqrt / piecewise /
# irrational constants).  Denominators are accumulated multiplicatively and
# never cancelled against numerators, so the domain of definition of the
# original expression is preserved exactly.


class _Pair:
    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Polynomial):
        self.num = num
        self.den = den


def _pair_add(a: _Pair, b: _Pair, sign: int = 1) -> _Pair:
    num_b = b.num if sign > 0 else -b.num
    if a.den == b.den:
        return _Pair(a.num + num_b, a.den)
    return _Pair(a.num * b.den + num_b * a.den, a.den * b.den)


def _pair_mul(a: _Pair, b: _Pair) -> _Pair:
    return _Pair(a.num * b.num, a.den * b.den)


def _pair_div(a: _Pair, b: _Pair) -> _Pair:
    # Value: (a.num * b.den) / (a.den * b.num).  Both sides carry one more
    # b.den factor, which keeps the domain of definition identical to the
    # original expression (defined iff a.den != 0, b.den != 0 and b.num != 0).
    if not b.num.terms:
        raise DivisionByZero("division by an expression that is identically zero")
    return _Pair(a.num * b.den * b.den, a.den * b.num * b.den)


_atom_registry: dict[GenKey, Expr] = {}


def _atom_key(e: Expr) -> GenKey:
    key = (1, 0, sexpr_of_expr(e))
    _atom_registry[key] = e
    return key


def _to_pair(e: Expr) -> _Pair:
    if isinstance(e, Const):
        return _Pair(Polynomial.constant(e.value), ONE)
    if isinstance(e, AlgebraicConst):
        return _Pair(Polynomial.generator(_atom_key(e)), ONE)
    if isinstance(e, Var):
        return _Pair(Polynomial.generator((0, e.index, "")), ONE)
    if isinstance(e, Add):
        return _pair_add(_to_pair(e.left), _to_pair(e.right))
    if isinstance(e, Sub):
        return _pair_add(_to_pair(e.left), _to_pair(e.right), sign=-1)
    if isinstance(e, Mul):
        return _pair_mul(_to_pair(e.left), _to_pair(e.right))
    if isinstance(e, Div):
        return _pair_div(_to_pair(e.left), _to_pair(e.right))
    if isinstance(e, Neg):
        p = _to_pair(e.arg)
        return _Pair(-p.num, p.den)
    if isinstance(e, Pow):
        p = _to_pair(e.base)
        if e.exponent == 0:
            # The value is 1 wherever the base is defined, and undefined at its poles.
            return _Pair(p.den, p.den)
        return _Pair(p.num**e.exponent, p.den**e.exponent)
    if isinstance(e, Sqrt):
        inner = canonicalize(e.arg)
        if isinstance(inner, Const) and inner.value >= 0:
            r = sqrt(inner.value)
            if isinstance(r, Fraction):
                return _Pair(Polynomial.constant(r), ONE)
        # The root of a negative constant is kept symbolic too: the error
        # surfaces at evaluation time.
        return _Pair(Polynomial.generator(_atom_key(Sqrt(inner))), ONE)
    if isinstance(e, Piecewise):
        pieces = tuple((canonical_formula(g), canonicalize(x)) for g, x in e.pieces)
        default = canonicalize(e.default) if e.default is not None else None
        return _Pair(Polynomial.generator(_atom_key(Piecewise(pieces, default))), ONE)
    raise TypeError(f"unknown expression node {e!r}")


def _normalize_pair(p: _Pair) -> _Pair:
    """Scale so the denominator is primitive with a positive leading coefficient.

    Numerator and denominator are divided by the same constant, so the value
    and the domain of definition are unchanged.
    """
    if not p.den.terms:
        raise DivisionByZero("denominator is identically zero")
    scale = Polynomial.constant(1 / p.den.content())
    return _Pair(p.num * scale, p.den * scale)


def _gen_expr(key: GenKey) -> Expr:
    kind, idx, s = key
    if kind == 0:
        return Var(idx)
    return _atom_registry[key]


def _render_poly(p: Polynomial) -> Expr:
    if not p.terms:
        return Const(Fraction(0))
    terms = []
    for mon in sorted(p.terms):
        c = Fraction(p.terms[mon], p.den)
        factors: list[Expr] = []
        for key, exp in mon:
            base = _gen_expr(key)
            factors.append(Pow(base, exp) if exp > 1 else base)
        if not factors:
            terms.append(Const(c))
            continue
        node: Expr | None = None
        for f in factors:
            node = f if node is None else Mul(node, f)
        if c != 1:
            node = Mul(Const(c), node)
        terms.append(node)
    out = terms[0]
    for t in terms[1:]:
        out = Add(out, t)
    return out


@lru_cache(maxsize=None)
def canonicalize(e: Expr) -> Expr:
    """Expanded normal form ``num`` or ``(div num den)``; idempotent.

    Nothing cancels across poles: the denominator is the product of every
    denominator met, so where the arithmetic of ``e`` is defined the normal
    form is defined and has the same value, and it divides by zero exactly
    where ``e`` does.  Square roots, piecewise definitions and irrational
    constants are opaque generators (their arguments in normal form), whose
    own domains are not tracked.
    """
    pair = _normalize_pair(_to_pair(e))
    num = _render_poly(pair.num)
    if pair.den == ONE:
        return num
    return Div(num, _render_poly(pair.den))


_OP_FLIP = {"lt": "gt", "gt": "lt", "le": "ge", "ge": "le", "eq": "eq"}


@lru_cache(maxsize=None)
def canonical_formula(f: Formula) -> Formula:
    if isinstance(f, (TrueFormula, FalseFormula)):
        return f
    if isinstance(f, Atom):
        p = to_polynomial(canonicalize(f.lhs))
        if p is None:
            raise ParseError("formula atoms must be polynomial")
        if not p.terms:
            truth = f.op in ("le", "eq", "ge")
            return TRUE if truth else FALSE
        # Scale to primitive integer coefficients; flip on negative leading.
        t = p.content()
        return Atom(_render_poly(p * Polynomial.constant(1 / t)), _OP_FLIP[f.op] if t < 0 else f.op)
    if isinstance(f, (And, Or)):
        ctor = type(f)
        flat: list[Formula] = []
        for a in f.args:
            ca = canonical_formula(a)
            if isinstance(ca, ctor):
                flat.extend(ca.args)
            else:
                flat.append(ca)
        unit, killer = (TRUE, FALSE) if isinstance(f, And) else (FALSE, TRUE)
        flat = [a for a in flat if a != unit]
        if any(a == killer for a in flat):
            return killer
        seen: dict[str, Formula] = {}
        for a in flat:
            seen.setdefault(sexpr_of_formula(a), a)
        args = tuple(seen[k] for k in sorted(seen))
        if not args:
            return unit
        if len(args) == 1:
            return args[0]
        return ctor(args)
    if isinstance(f, Not):
        inner = canonical_formula(f.arg)
        if isinstance(inner, TrueFormula):
            return FALSE
        if isinstance(inner, FalseFormula):
            return TRUE
        return Not(inner)
    raise TypeError(f"unknown formula node {f!r}")


# ---------------------------------------------------------------------------
# Pure polynomial view (for formula atoms)


def _is_atom(e: Expr) -> bool:
    return isinstance(e, (Sqrt, Piecewise, AlgebraicConst))


@lru_cache(maxsize=None)
def to_polynomial(e: Expr) -> Polynomial | None:
    """The expression as a polynomial in x1..xn, or None if it is not one.

    This is the numerator of the normal form when ``e`` has no square root,
    piecewise definition or irrational constant, and its denominator is 1,
    so division is only admitted by nonzero constants.
    """
    if any_node(e, _is_atom):
        return None
    pair = _normalize_pair(_to_pair(e))
    return pair.num if pair.den == ONE else None


# ---------------------------------------------------------------------------
# Evaluation

CoordValue = Real
Point = tuple[CoordValue, ...]


def as_coord(v) -> CoordValue:
    """A coordinate of a caller's point, checked at the boundary: an
    ``AlgebraicNumber`` must have an isolating interval with lo < hi."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, AlgebraicNumber):
        if v.lo >= v.hi:
            raise ValueError(f"an algebraic coordinate needs lo < hi: {v!r}")
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"not a coordinate value: {v!r}")


def as_point(values) -> Point:
    return tuple(as_coord(v) for v in values)


def _eval(e: Expr, point: Point) -> CoordValue:
    """The exact value at a point: ``Fraction`` arithmetic while it stays
    rational, the algebraic arithmetic of ``realroots`` once an irrational
    value enters."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        if e.index > len(point):
            raise ValueError(f"point has no coordinate {e.index}")
        return point[e.index - 1]
    if isinstance(e, AlgebraicConst):
        return e.value
    if isinstance(e, Add):
        return _eval(e.left, point) + _eval(e.right, point)
    if isinstance(e, Sub):
        return _eval(e.left, point) - _eval(e.right, point)
    if isinstance(e, Mul):
        return _eval(e.left, point) * _eval(e.right, point)
    if isinstance(e, Div):
        num, den = _eval(e.left, point), _eval(e.right, point)
        if not sign(den):
            raise DivisionByZero("division by zero")
        return num / den
    if isinstance(e, Neg):
        return -_eval(e.arg, point)
    if isinstance(e, Pow):
        return _eval(e.base, point) ** e.exponent
    if isinstance(e, Sqrt):
        return sqrt_coord(_eval(e.arg, point))
    if isinstance(e, Piecewise):
        for guard, branch in e.pieces:
            if formula_holds(guard, point):
                return _eval(branch, point)
        if e.default is not None:
            return _eval(e.default, point)
        raise GuardUndecidable("no piecewise branch applies at the point")
    raise TypeError(f"unknown expression node {e!r}")


def eval_coord(e: Expr, point) -> CoordValue:
    """The exact value at the point as a coordinate: a rational when the
    arithmetic stays rational, and otherwise an exact algebraic number."""
    return _eval(e, as_point(point))


def sqrt_coord(c: CoordValue) -> CoordValue:
    """sqrt(c) as a coordinate: rational for the square of a rational,
    else an algebraic number (``realroots.sqrt``)."""
    if sign(c) < 0:
        raise SqrtOfNegative(f"sqrt of {c}")
    return sqrt(c)


# ---------------------------------------------------------------------------
# Rational points inside an interval

# The coordinates in a fiber with no bounds.
_UNBOUNDED_COORDS = (Fraction(0), Fraction(1), Fraction(-1))
# Where the coordinates in a bounded fiber sit in its window, as fractions
# of its width.
_WINDOW_FRACTIONS = (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4))
# The width a bound is first approximated to.
_QUARTER = Fraction(1, 4)


def _window_between(lo: CoordValue, hi: CoordValue) -> tuple[Fraction, Fraction]:
    """A rational open window strictly inside (lo, hi).  Enclosures that
    part prove lo < hi; where those of width 1/4 do not, lo < hi is proven
    exactly, and both are refined, each time to 2^-12 of the width before,
    until their enclosures part."""
    w = _QUARTER
    while True:
        lhi, hlo = enclosure(lo, w)[1], enclosure(hi, w)[0]
        if lhi < hlo:
            return lhi, hlo
        if w == _QUARTER and compare_coords(lo, hi) >= 0:
            raise UnknownOrder(f"cannot separate section values {lo} and {hi}")
        w /= 2**12


def sector_coords(lo: CoordValue | None, hi: CoordValue | None, count: int) -> list[Fraction]:
    """``count`` (at most three: a probe set is 1 or ``cadmodel.PROBES``
    points) rational coordinates strictly inside a sector fiber, from integers."""
    if lo is None and hi is None:
        return list(_UNBOUNDED_COORDS[:count])
    if lo is None:
        top = enclosure(hi, _QUARTER)[0]
        return [Fraction(top.numerator - k * top.denominator, top.denominator) for k in range(1, count + 1)]
    if hi is None:
        bot = enclosure(lo, _QUARTER)[1]
        return [Fraction(bot.numerator + k * bot.denominator, bot.denominator) for k in range(1, count + 1)]
    a, b = _window_between(lo, hi)
    # a + t * (b - a) for a = p/q, b = r/s and t = u/v, summed in integers.
    p, q, r, s = a.numerator, a.denominator, b.numerator, b.denominator
    gap = r * q - p * s
    fracs = _WINDOW_FRACTIONS[:count]
    return [Fraction(p * s * t.denominator + t.numerator * gap, q * s * t.denominator) for t in fracs]


# ---------------------------------------------------------------------------
# Signs and comparisons


def polynomial_of(lhs: Expr, polys: dict[Expr, Polynomial]) -> Polynomial:
    """``lhs`` as a polynomial, read from ``polys`` or converted into it once
    (``to_polynomial``).  A ``lhs`` that is not a polynomial raises
    ``ParseError`` here, when a sign of it is first needed."""
    q = polys.get(lhs)
    if q is None:
        q = to_polynomial(lhs)
        if q is None:
            raise ParseError(f"not a polynomial: {sexpr_of_expr(lhs)}")
        polys[lhs] = q
    return q


def atom_sign(lhs: Expr, point: Point, polys: dict[Expr, Polynomial]) -> int:
    """Exact sign of a polynomial at a point, with ``lhs`` converted through
    ``polys`` (``polynomial_of``).

    When the coordinates of the variables the polynomial uses are rational
    but for at most one algebraic one, the sign is read off the integer
    coefficients of ``integer_coeffs``, which are the exact ones times a
    positive scale and so keep it.  Otherwise ``lhs`` is evaluated exactly,
    in the algebraic arithmetic of ``realroots``.
    """
    q = polynomial_of(lhs, polys)
    rationals: dict[int, Fraction] = {}
    algebraic: list[tuple[int, AlgebraicNumber]] = []
    for i in q.variables:
        if i > len(point):
            raise ValueError(f"point has no coordinate {i}")
        cv = point[i - 1]
        if isinstance(cv, Fraction):
            rationals[i] = cv
        else:
            algebraic.append((i, cv))
    if not algebraic:
        c, _scale = integer_coeffs(q, rationals, None)
        return 0 if not c else (1 if c[0] > 0 else -1)
    if len(algebraic) == 1:
        idx, a = algebraic[0]
        return a.sign_of(integer_coeffs(q, rationals, idx)[0])
    return sign(_eval(lhs, point))


_OP_TEST = {
    "lt": lambda s: s < 0,
    "le": lambda s: s <= 0,
    "eq": lambda s: s == 0,
    "ge": lambda s: s >= 0,
    "gt": lambda s: s > 0,
}


def holds(f: Formula, sign: Callable[[Expr], int]) -> bool:
    """Truth of a formula, the left side of each atom it reaches signed by
    ``sign``: the one formula evaluator, at a point (``formula_holds``) or
    over the fiber tables of ``check_adapted``.  An atom that a decided
    ``And``/``Or`` short-circuits away is not signed."""
    if isinstance(f, TrueFormula):
        return True
    if isinstance(f, FalseFormula):
        return False
    if isinstance(f, Atom):
        return _OP_TEST[f.op](sign(f.lhs))
    if isinstance(f, Not):
        return not holds(f.arg, sign)
    if isinstance(f, (And, Or)):
        want = isinstance(f, Or)  # short-circuit value
        for a in f.args:
            if holds(a, sign) == want:
                return want
        return not want
    raise TypeError(f"unknown formula node {f!r}")


def formula_holds(f: Formula, point) -> bool:
    """``holds`` at one point, each atom signed by ``atom_sign`` with a
    table of its own: for formulas evaluated once at a point, such as
    piecewise guards."""
    pt, polys = as_point(point), {}
    return holds(f, lambda lhs: atom_sign(lhs, pt, polys))


def compare_coords(a: CoordValue, b: CoordValue) -> int:
    """Exact three-way comparison of two coordinate values."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return (a > b) - (a < b)
    if isinstance(a, AlgebraicNumber) and isinstance(b, AlgebraicNumber):
        return a.compare(b)
    if isinstance(a, AlgebraicNumber):
        return a.compare_rational(b)
    return -b.compare_rational(a)
