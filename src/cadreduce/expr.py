"""Exact expression language for section functions and set-defining formulas.

Expressions are immutable ASTs over rational constants, variables ``x1..xk``,
field operations, integer powers, square roots and guarded piecewise
definitions.  Values at exact rational points are computed exactly whenever
the arithmetic stays rational; irrational values are represented by rational
intervals that can be refined on demand.

Formulas are boolean combinations of polynomial sign conditions ``p sigma 0``
and define the semi-algebraic sets that CADs are adapted to.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Iterable, Union

from cadreduce.errors import DivisionByZero, GuardUndecidable, ParseError, SqrtOfNegative, UnknownOrder
from cadreduce.realroots import AlgebraicNumber, make_algebraic, poly as upoly


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
    """An exact real algebraic constant (used for 1-D section points)."""

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

_FORMULA_OPS = {"lt": "lt", "le": "le", "eq": "eq", "ge": "ge", "gt": "gt"}


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
            return AlgebraicConst(make_algebraic(upoly(coeffs), lo, hi))
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
    if head in _FORMULA_OPS:
        if len(args) != 2:
            raise ParseError(f"({head} lhs rhs) needs two operands")
        lhs = expr_from_sexpr(args[0])
        rhs = expr_from_sexpr(args[1])
        if rhs != Const(Fraction(0)):
            lhs = Sub(lhs, rhs)
        atom = Atom(lhs, _FORMULA_OPS[head])
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
# Polynomial normal form over an atom-extended ring.
#
# A canonical value is a pair (num, den) of expanded polynomials whose
# generators are either variables or opaque "atoms" (sqrt / piecewise /
# irrational constants).  Denominators are accumulated multiplicatively and
# never cancelled against numerators, so the domain of definition of the
# original expression is preserved exactly.

# generator key: (0, index, "") for variables, (1, 0, sexpr) for atoms
GenKey = tuple[int, int, str]
Monomial = tuple[tuple[GenKey, int], ...]
Poly = dict[Monomial, Fraction]

_ONE_POLY: Poly = {(): Fraction(1)}


def _pconst(c: Fraction) -> Poly:
    return {(): c} if c else {}


def _pgen(key: GenKey) -> Poly:
    return {((key, 1),): Fraction(1)}


def _padd(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m, Fraction(0)) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _pneg(a: Poly) -> Poly:
    return {m: -c for m, c in a.items()}


def _mon_mul(m1: Monomial, m2: Monomial) -> Monomial:
    exps: dict[GenKey, int] = {}
    for g, e in m1:
        exps[g] = exps.get(g, 0) + e
    for g, e in m2:
        exps[g] = exps.get(g, 0) + e
    return tuple(sorted(exps.items()))


def _pmul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mon_mul(m1, m2)
            s = out.get(m, Fraction(0)) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _ppow(a: Poly, k: int) -> Poly:
    out = _ONE_POLY
    for _ in range(k):
        out = _pmul(out, a)
    return out


def _perfect_sqrt(c: Fraction) -> Fraction | None:
    if c < 0:
        return None
    np, dp = isqrt(c.numerator), isqrt(c.denominator)
    if np * np == c.numerator and dp * dp == c.denominator:
        return Fraction(np, dp)
    return None


class _Pair:
    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        self.num = num
        self.den = den


def _pair_add(a: _Pair, b: _Pair, sign: int = 1) -> _Pair:
    num_b = b.num if sign > 0 else _pneg(b.num)
    if a.den == b.den:
        return _Pair(_padd(a.num, num_b), a.den)
    return _Pair(_padd(_pmul(a.num, b.den), _pmul(num_b, a.den)), _pmul(a.den, b.den))


def _pair_mul(a: _Pair, b: _Pair) -> _Pair:
    return _Pair(_pmul(a.num, b.num), _pmul(a.den, b.den))


def _pair_div(a: _Pair, b: _Pair) -> _Pair:
    # Value: (a.num * b.den) / (a.den * b.num).  Both sides carry one more
    # b.den factor, which keeps the domain of definition identical to the
    # original expression (defined iff a.den != 0, b.den != 0 and b.num != 0).
    if not b.num:
        raise DivisionByZero("division by an expression that is identically zero")
    num = _pmul(_pmul(a.num, b.den), b.den)
    den = _pmul(_pmul(a.den, b.num), b.den)
    return _Pair(num, den)


_atom_registry: dict[GenKey, Expr] = {}


def _atom_key(e: Expr) -> GenKey:
    key = (1, 0, sexpr_of_expr(e))
    _atom_registry[key] = e
    return key


def _to_pair(e: Expr) -> _Pair:
    if isinstance(e, Const):
        return _Pair(_pconst(e.value), _ONE_POLY)
    if isinstance(e, AlgebraicConst):
        if e.value.is_rational:
            return _Pair(_pconst(e.value.rational_value), _ONE_POLY)
        return _Pair(_pgen(_atom_key(e)), _ONE_POLY)
    if isinstance(e, Var):
        return _Pair(_pgen((0, e.index, "")), _ONE_POLY)
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
        return _Pair(_pneg(p.num), p.den)
    if isinstance(e, Pow):
        p = _to_pair(e.base)
        if e.exponent == 0:
            # The value is 1 wherever the base is defined, and undefined at its poles.
            return _Pair(p.den, p.den)
        return _Pair(_ppow(p.num, e.exponent), _ppow(p.den, e.exponent))
    if isinstance(e, Sqrt):
        inner = canonicalize(e.arg)
        if isinstance(inner, Const):
            if inner.value < 0:
                # Kept symbolic: the error surfaces at evaluation time.
                return _Pair(_pgen(_atom_key(Sqrt(inner))), _ONE_POLY)
            r = _perfect_sqrt(inner.value)
            if r is not None:
                return _Pair(_pconst(r), _ONE_POLY)
        return _Pair(_pgen(_atom_key(Sqrt(inner))), _ONE_POLY)
    if isinstance(e, Piecewise):
        pieces = tuple((canonical_formula(g), canonicalize(x)) for g, x in e.pieces)
        default = canonicalize(e.default) if e.default is not None else None
        return _Pair(_pgen(_atom_key(Piecewise(pieces, default))), _ONE_POLY)
    raise TypeError(f"unknown expression node {e!r}")


def _content(values: Iterable[Fraction], leading: Fraction) -> Fraction:
    """Gauss content (with the sign of the leading coefficient)."""
    from math import gcd, lcm

    vals = list(values)
    den = lcm(*[c.denominator for c in vals])
    g = 0
    for c in vals:
        g = gcd(g, abs(c.numerator) * (den // c.denominator))
    content = Fraction(g, den)
    return -content if leading < 0 else content


def _normalize_pair(p: _Pair) -> _Pair:
    """Scale so the denominator is primitive with a positive leading coefficient.

    Numerator and denominator are divided by the same constant, so the value
    and the domain of definition are unchanged.
    """
    if not p.den:
        raise DivisionByZero("denominator is identically zero")
    t = _content(p.den.values(), p.den[max(p.den)])
    return _Pair({m: c / t for m, c in p.num.items()}, {m: c / t for m, c in p.den.items()})


def _gen_expr(key: GenKey) -> Expr:
    kind, idx, s = key
    if kind == 0:
        return Var(idx)
    return _atom_registry[key]


def _render_poly(p: Poly) -> Expr:
    if not p:
        return Const(Fraction(0))
    terms = []
    for mon in sorted(p):
        c = p[mon]
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
    if pair.den == _ONE_POLY:
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
        if not p:
            truth = f.op in ("le", "eq", "ge")
            return TRUE if truth else FALSE
        # Scale to primitive integer coefficients; flip on negative leading.
        t = _content(p.values(), p[max(p)])
        op = _OP_FLIP[f.op] if t < 0 else f.op
        scaled: Poly = {
            tuple(((0, i, ""), k) for i, k in mon): c / t for mon, c in p.items()
        }
        return Atom(_render_poly(scaled), op)
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

VarMonomial = tuple[tuple[int, int], ...]  # ((var index, exponent), ...) sorted
VarPoly = dict[VarMonomial, Fraction]


def _is_atom(e: Expr) -> bool:
    return isinstance(e, (Sqrt, Piecewise)) or (isinstance(e, AlgebraicConst) and not e.value.is_rational)


@lru_cache(maxsize=None)
def to_polynomial(e: Expr) -> "VarPoly | None":
    """The expression as a polynomial in x1..xn, or None if it is not one.

    This is the numerator of the normal form when ``e`` has no square root,
    piecewise definition or irrational constant, and its denominator is 1,
    so division is only admitted by nonzero constants.
    """
    if any_node(e, _is_atom):
        return None
    pair = _normalize_pair(_to_pair(e))
    if pair.den != _ONE_POLY:
        return None
    return {tuple((idx, k) for (_, idx, _), k in mon): c for mon, c in pair.num.items()}


def substitute_rationals(p: VarPoly, values: dict[int, Fraction]) -> VarPoly:
    """Substitute exact rational values for some variables."""
    out: VarPoly = {}
    for mon, c in p.items():
        coeff = c
        rest: dict[int, int] = {}
        for i, k in mon:
            if i in values:
                coeff *= values[i] ** k
            else:
                rest[i] = rest.get(i, 0) + k
        if not coeff:
            continue
        m = tuple(sorted(rest.items()))
        s = out.get(m, Fraction(0)) + coeff
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def univariate_coeffs(p: VarPoly, index: int):
    """Dense coefficient list when ``p`` involves only variable ``index``."""
    coeffs: dict[int, Fraction] = {}
    for mon, c in p.items():
        if not mon:
            coeffs[0] = coeffs.get(0, Fraction(0)) + c
        elif len(mon) == 1 and mon[0][0] == index:
            coeffs[mon[0][1]] = coeffs.get(mon[0][1], Fraction(0)) + c
        else:
            return None
    top = max(coeffs, default=0)
    return upoly([coeffs.get(i, Fraction(0)) for i in range(top + 1)])


# ---------------------------------------------------------------------------
# Evaluation

_FIRST_WIDTH = Fraction(1, 2**40)
_MAX_DEEPEN = 12
_DEEPEN_FACTOR = Fraction(1, 2**12)


def _widths(start: Fraction):
    """The one refinement schedule: the interval widths to try, ``start``
    and then each ``_DEEPEN_FACTOR`` times the one before, ``_MAX_DEEPEN``
    in all.  Every answer that interval arithmetic decides is decided
    within it, so it depends on the input alone."""
    w = start
    for _ in range(_MAX_DEEPEN):
        yield w
        w *= _DEEPEN_FACTOR


@dataclass(frozen=True)
class LazyValue:
    """The exact value of an expression at a point, refinable on demand."""

    expr: Expr
    point: tuple["CoordValue", ...]


CoordValue = Union[Fraction, AlgebraicNumber, LazyValue]
Point = tuple[CoordValue, ...]


class _Inexact(Exception):
    """Internal: an irrational value entered the exact evaluation path."""


class _Imprecise(Exception):
    """Internal: the current interval width is too coarse for an operation."""


def as_coord(v) -> CoordValue:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, (AlgebraicNumber, LazyValue)):
        return v
    raise TypeError(f"not a coordinate value: {v!r}")


def as_point(values) -> Point:
    return tuple(as_coord(v) for v in values)


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
    defining = upoly([-c.numerator, 0, c.denominator])
    # c is not a perfect square, so the rational bounds are never roots.
    return AlgebraicNumber(defining, lo, hi)


_IV = tuple[Fraction, Fraction]
_Val = Union[Fraction, _IV]


def _promote(v: _Val) -> _IV:
    return v if isinstance(v, tuple) else (v, v)


def _iv_add(a: _Val, b: _Val, sign: int = 1) -> _Val:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + sign * b
    (alo, ahi), (blo, bhi) = _promote(a), _promote(b)
    if sign > 0:
        return (alo + blo, ahi + bhi)
    return (alo - bhi, ahi - blo)


def _iv_mul(a: _Val, b: _Val) -> _Val:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a * b
    (alo, ahi), (blo, bhi) = _promote(a), _promote(b)
    ps = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return (min(ps), max(ps))


def _iv_neg(a: _Val) -> _Val:
    if isinstance(a, Fraction):
        return -a
    return (-a[1], -a[0])


def _iv_div(a: _Val, b: _Val) -> _Val:
    if isinstance(b, Fraction):
        if b == 0:
            raise DivisionByZero("division by zero")
        if isinstance(a, Fraction):
            return a / b
        lo, hi = a
        return (lo / b, hi / b) if b > 0 else (hi / b, lo / b)
    blo, bhi = b
    if blo <= 0 <= bhi:
        raise _Imprecise("denominator interval straddles zero")
    alo, ahi = _promote(a)
    qs = (alo / blo, alo / bhi, ahi / blo, ahi / bhi)
    return (min(qs), max(qs))


def _eval(e: Expr, point: Point, w: Fraction | None) -> _Val:
    """Evaluate at a point; ``w=None`` demands an exact rational result."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, AlgebraicConst):
        a = e.value
        if a.is_rational:
            return a.rational_value
        if w is None:
            raise _Inexact
        return a.approx(w)
    if isinstance(e, Var):
        if e.index > len(point):
            raise ValueError(f"point has no coordinate {e.index}")
        cv = point[e.index - 1]
        if isinstance(cv, Fraction):
            return cv
        if isinstance(cv, AlgebraicNumber):
            if cv.is_rational:
                return cv.rational_value
            if w is None:
                raise _Inexact
            return cv.approx(w)
        return _eval(cv.expr, cv.point, w)
    if isinstance(e, Add):
        return _iv_add(_eval(e.left, point, w), _eval(e.right, point, w))
    if isinstance(e, Sub):
        return _iv_add(_eval(e.left, point, w), _eval(e.right, point, w), sign=-1)
    if isinstance(e, Mul):
        return _iv_mul(_eval(e.left, point, w), _eval(e.right, point, w))
    if isinstance(e, Div):
        return _iv_div(_eval(e.left, point, w), _eval(e.right, point, w))
    if isinstance(e, Neg):
        return _iv_neg(_eval(e.arg, point, w))
    if isinstance(e, Pow):
        v = _eval(e.base, point, w)
        out: _Val = Fraction(1)
        for _ in range(e.exponent):
            out = _iv_mul(out, v)
        return out
    if isinstance(e, Sqrt):
        v = _eval(e.arg, point, w)
        if isinstance(v, Fraction):
            if v < 0:
                raise SqrtOfNegative(f"sqrt of {v}")
            r = _perfect_sqrt(v)
            if r is not None:
                return r
            if w is None:
                raise _Inexact
            return _sqrt_bounds(v, w)
        lo, hi = v
        if hi < 0:
            raise SqrtOfNegative(f"sqrt of interval ({lo}, {hi})")
        if lo < 0:
            raise _Imprecise("sqrt argument interval straddles zero")
        assert w is not None
        return (_sqrt_bounds(lo, w)[0], _sqrt_bounds(hi, w)[1])
    if isinstance(e, Piecewise):
        for guard, branch in e.pieces:
            if formula_holds(guard, point):
                return _eval(branch, point, w)
        if e.default is not None:
            return _eval(e.default, point, w)
        raise GuardUndecidable("no piecewise branch applies at the point")
    raise TypeError(f"unknown expression node {e!r}")


def _eval_refining(e: Expr, point: Point, width: Fraction) -> _Val:
    for w in _widths(width):
        try:
            v = _eval(e, point, w)
        except _Imprecise:
            continue
        if isinstance(v, Fraction) or v[1] - v[0] <= width:
            return v
    raise GuardUndecidable(f"cannot evaluate to width {width} at {point}")


def eval_coord(e: Expr, point) -> CoordValue:
    """The exact value at the point as a coordinate: a rational when the
    arithmetic stays rational, an algebraic number for simple square roots,
    and otherwise a lazily refinable value."""
    pt = as_point(point)
    try:
        v = _eval(e, pt, None)
        assert isinstance(v, Fraction)
        return v
    except _Inexact:
        pass
    core, negate = (e.arg, True) if isinstance(e, Neg) else (e, False)
    if isinstance(core, AlgebraicConst):
        return core.value.negated() if negate else core.value
    if isinstance(core, Sqrt):
        try:
            c = _eval(core.arg, pt, None)
        except (_Inexact, GuardUndecidable):
            c = None
        if isinstance(c, Fraction):
            if c < 0:
                raise SqrtOfNegative(f"sqrt of {c}")
            a = _algebraic_sqrt(c)
            return a.negated() if negate else a
    return LazyValue(e, pt)


def coord_approx(cv: CoordValue, width: Fraction) -> _Val:
    if isinstance(cv, Fraction):
        return cv
    if isinstance(cv, AlgebraicNumber):
        if cv.is_rational:
            return cv.rational_value
        return cv.approx(width)
    return _eval_refining(cv.expr, cv.point, width)


# ---------------------------------------------------------------------------
# Rational points inside an interval

_OFFSET_STEPS = 8


def _window_between(lo: CoordValue, hi: CoordValue) -> tuple[Fraction, Fraction]:
    """A rational open window strictly inside (lo, hi)."""
    for w in _widths(Fraction(1, 4)):
        llo, lhi = _promote(coord_approx(lo, w))
        hlo, hhi = _promote(coord_approx(hi, w))
        if lhi < hlo:
            return lhi, hlo
    raise UnknownOrder(f"cannot separate section values {lo} and {hi}")


def sector_coords(lo: CoordValue | None, hi: CoordValue | None, count: int) -> list[Fraction]:
    """Deterministic rational coordinates strictly inside a sector fiber."""
    if lo is None and hi is None:
        pool = [Fraction(0)]
        for k in range(1, _OFFSET_STEPS):
            pool += [Fraction(k), Fraction(-k)]
        return pool[:count]
    if lo is None:
        assert hi is not None
        top = _promote(coord_approx(hi, Fraction(1, 4)))[0]
        return [top - k for k in range(1, count + 1)]
    if hi is None:
        bot = _promote(coord_approx(lo, Fraction(1, 4)))[1]
        return [bot + k for k in range(1, count + 1)]
    a, b = _window_between(lo, hi)
    gap = b - a
    fracs = [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(1, 8), Fraction(3, 8), Fraction(5, 8), Fraction(7, 8)]
    while len(fracs) < count:
        fracs.append(Fraction(1, 2) ** (len(fracs) - 3))
    return [a + t * gap for t in fracs[:count]]


# ---------------------------------------------------------------------------
# Signs and comparisons


def atom_sign(lhs: Expr, point) -> int:
    """Exact sign of a polynomial at a point.

    Exact for all-rational points and for points with a single algebraic
    coordinate; otherwise decided by interval refinement, which can prove
    a nonzero sign but raises GuardUndecidable on a (potential) zero.
    """
    pt = as_point(point)
    p = to_polynomial(lhs)
    if p is None:
        raise ParseError(f"not a polynomial: {sexpr_of_expr(lhs)}")
    rationals: dict[int, Fraction] = {}
    algebraic: list[tuple[int, AlgebraicNumber]] = []
    lazies = 0
    for i, cv in enumerate(pt, start=1):
        if isinstance(cv, Fraction):
            rationals[i] = cv
        elif isinstance(cv, AlgebraicNumber):
            if cv.is_rational:
                rationals[i] = cv.rational_value
            else:
                algebraic.append((i, cv))
        else:
            lazies += 1
    if not algebraic and not lazies:
        q = substitute_rationals(p, rationals)
        if len(q) > (() in q):  # a monomial keeps a variable the point lacks
            raise ValueError(f"point has no coordinate {min(i for mon in q for i, _k in mon)}")
        c = q.get((), Fraction(0))
        return 0 if c == 0 else (1 if c > 0 else -1)
    if len(algebraic) == 1 and not lazies:
        idx, a = algebraic[0]
        q = substitute_rationals(p, rationals)
        coeffs = univariate_coeffs(q, idx)
        if coeffs is not None:
            return a.sign_of(coeffs)
    for w in _widths(_FIRST_WIDTH):
        try:
            v = _eval(lhs, pt, w)
        except _Imprecise:
            continue
        if isinstance(v, Fraction):
            return 0 if v == 0 else (1 if v > 0 else -1)
        lo, hi = v
        if lo > 0:
            return 1
        if hi < 0:
            return -1
    raise GuardUndecidable(f"sign of {sexpr_of_expr(lhs)} undecided at {pt}")


_OP_TEST = {
    "lt": lambda s: s < 0,
    "le": lambda s: s <= 0,
    "eq": lambda s: s == 0,
    "ge": lambda s: s >= 0,
    "gt": lambda s: s > 0,
}


def formula_holds(f: Formula, point) -> bool:
    """Truth of a formula at a point; raises GuardUndecidable when the sign
    of some needed atom cannot be resolved."""
    if isinstance(f, TrueFormula):
        return True
    if isinstance(f, FalseFormula):
        return False
    if isinstance(f, Atom):
        return _OP_TEST[f.op](atom_sign(f.lhs, point))
    if isinstance(f, Not):
        return not formula_holds(f.arg, point)
    if isinstance(f, (And, Or)):
        want = isinstance(f, Or)  # short-circuit value
        undecided = False
        for a in f.args:
            try:
                if formula_holds(a, point) == want:
                    return want
            except GuardUndecidable:
                undecided = True
        if undecided:
            raise GuardUndecidable("formula undecided at the point")
        return not want
    raise TypeError(f"unknown formula node {f!r}")


def compare_coords(a: CoordValue, b: CoordValue) -> int:
    """Exact three-way comparison of coordinate values where possible;
    interval separation otherwise.  Raises UnknownOrder when inconclusive."""
    if isinstance(a, LazyValue) or isinstance(b, LazyValue):
        if (
            isinstance(a, LazyValue)
            and isinstance(b, LazyValue)
            and a.point == b.point
            and canonicalize(a.expr) == canonicalize(b.expr)
        ):
            return 0
        # A lazy value may still turn out to be exactly rational.
        ra = coord_approx(a, Fraction(1, 2))
        rb = coord_approx(b, Fraction(1, 2))
        if isinstance(ra, Fraction) and isinstance(rb, Fraction):
            return (ra > rb) - (ra < rb)
        for w in _widths(_FIRST_WIDTH):
            alo, ahi = _promote(coord_approx(a, w))
            blo, bhi = _promote(coord_approx(b, w))
            if ahi < blo:
                return -1
            if bhi < alo:
                return 1
        raise UnknownOrder(f"cannot order {a} and {b}")
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return (a > b) - (a < b)
    if isinstance(a, AlgebraicNumber) and isinstance(b, AlgebraicNumber):
        return a.compare(b)
    if isinstance(a, AlgebraicNumber):
        assert isinstance(b, Fraction)
        return a.compare_rational(b)
    assert isinstance(b, AlgebraicNumber) and isinstance(a, Fraction)
    return -b.compare_rational(a)

