"""The CAD data model: level stacks, cells, samples, and structural checks.

A CAD of R^n is stored as its stack structure: for every cell of level
k < n (level 0 is the one-point base cell with the empty index), the ordered
list of section functions that slice the cylinder above it.  Every sample
point is derived from the stacks.  Cells are named by index words; a cell
of level k has index (i_1, ..., i_k), where an even last letter names a
section (the graph of a stack function) and an odd last letter names a
sector (the open band between consecutive sections).

A ``Cad`` is a *root*: it owns its stacks and all the geometry derived from
them.  A coarsening of a root, obtained by cell merges, is a
``tree.CadTree``: a tree of cells, each the union of some root cells, read
by the same index words, stack counts and root cells (``root_cells``).  Its
geometry (probes, stack order, adaptedness) is decided on the root: it has
no probes, and its ``validate_cad`` report is the root's.  A root derives
one fixed probe set per cell, once (``Cad.cell_points``): a section's value
at each probe of its base, where sqrt(g) and -sqrt(g) share one root of g,
taken in integers at a rational probe.  The root also keeps the lift
verdicts, one per slot of a glued stack (``reduction``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from cadreduce.errors import (
    DivisionByZero,
    GuardUndecidable,
    NotAdapted,
    SqrtOfNegative,
    UnknownOrder,
)
from cadreduce.expr import (
    Const,
    CoordValue,
    Div,
    Expr,
    Formula,
    Neg,
    Piecewise,
    Point,
    ScaledPoly,
    Sqrt,
    Sub,
    any_node,
    canonicalize,
    compare_coords,
    const,
    eval_coord,
    formula_holds,
    holds,
    integer_coeffs,
    is_piecewise,
    max_var_index,
    negated_coord,
    sector_coords,
    sexpr_of_expr,
    sqrt_coord,
    substitute,
    to_polynomial,
)
from cadreduce.realroots import isolate_roots, poly

CellIndex = tuple[int, ...]

# Probes per root cell that is not a point; the first is its sample (``Cad.cell_points``).
PROBES = 3

ROOT_INDEX: CellIndex = ()


def word_of(index: CellIndex) -> str:
    return ".".join(str(i) for i in index)


def parse_word(word: str) -> CellIndex:
    if word == "":
        return ()
    try:
        letters = tuple(int(p) for p in word.split("."))
    except ValueError as exc:
        raise ValueError(f"bad cell index word: {word!r}") from exc
    if any(i < 1 for i in letters):
        raise ValueError(f"cell index letters must be positive: {word!r}")
    return letters


@dataclass(frozen=True)
class SectionStack:
    """The ordered section functions slicing the cylinder above one cell."""

    functions: tuple[Expr, ...]

    @property
    def count(self) -> int:
        return len(self.functions)


LeafLabeling = dict[CellIndex, int]


class Cad:
    """A root CAD of R^n, given by its stacks; it owns its geometry.  Its
    coarsenings are ``tree.CadTree``s."""

    is_root = True

    def __init__(self, n: int, stacks: dict[CellIndex, SectionStack]):
        self.n = n
        self.root = self
        self.stacks = stacks
        self._point_cache: dict[CellIndex, list[Point]] = {}
        # Shared roots, and their arguments in integers with their top
        # variable, or None for no polynomial (``_section_value``).
        self._roots: dict[tuple, CoordValue] = {}
        self._sqrt_polys: dict[Expr, tuple[ScaledPoly, int] | None] = {}
        # The root's ``validate_cad`` report, made on first use.
        self._validation: ValidationReport | None = None
        # Lift verdicts (see ``reduction._lift_allowed``): one per slot
        # of a glued stack, keyed by the merge level and the root cells
        # of the slot's three section cells.
        self._lift_cache: dict[tuple, bool] = {}

    # -- structure ---------------------------------------------------------

    def stack_count(self, cell: CellIndex) -> int:
        return self.stacks[cell].count

    def children(self, cell: CellIndex) -> list[CellIndex]:
        return [cell + (j,) for j in range(1, 2 * self.stack_count(cell) + 2)]

    def cells_of_level(self, k: int) -> list[CellIndex]:
        cells: list[CellIndex] = [ROOT_INDEX]
        for _ in range(k):
            cells = [c for parent in cells for c in self.children(parent)]
        return cells

    def leaves(self) -> list[CellIndex]:
        return self.cells_of_level(self.n)

    def leaf_count(self) -> int:
        return len(self.leaves())

    def root_cells(self, cell: CellIndex) -> tuple[CellIndex, ...]:
        """The root cells whose union this cell is: the cell itself."""
        return (cell,)

    # -- geometry ----------------------------------------------------------

    def cell_points(self, cell: CellIndex) -> list[Point]:
        """The probe points of a root cell, derived once and kept: one for a
        point cell (every letter even) and ``PROBES`` for any other, the
        first being the cell's sample.  A coarsening has no probes of its
        own: its cells are unions of root cells, which the root's probes
        cover (``validate_cad``).

        The probes of a section cell are aligned with its base's: the i-th
        is the base's i-th with the section's value there appended.  So the
        value of section s at the i-th probe of ``cell`` is the last
        coordinate of the i-th probe of ``cell + (2s,)``, taken once, with
        one root for sqrt(g) and -sqrt(g) (``_section_value``): validation,
        the zero test and the sectors read it off that section cell, a
        sector ``cell + (2s+1,)`` its bounds s and s+1.  A base has 1 or
        ``PROBES`` probes, so a sector takes ``PROBES // len(bases)``
        coordinates at each."""
        pts = self._point_cache.get(cell)
        if pts is None:
            pts = self._point_cache[cell] = self._root_points(cell)
        return pts

    def _root_points(self, cell: CellIndex) -> list[Point]:
        if cell == ROOT_INDEX:
            return [()]
        parent, letter = cell[:-1], cell[-1]
        bases = self.cell_points(parent)
        if letter % 2 == 0:
            f = self.stacks[parent].functions[letter // 2 - 1]
            return [base + (self._section_value(f, parent, b, base),) for b, base in enumerate(bases)]
        j = (letter - 1) // 2
        unbounded: list[CoordValue | None] = [None] * len(bases)
        lo = self._section_values(parent + (2 * j,)) if j >= 1 else unbounded
        hi = self._section_values(parent + (2 * j + 2,)) if j < self.stacks[parent].count else unbounded
        per_base = PROBES // len(bases)
        return [base + (c,) for b, base in enumerate(bases) for c in sector_coords(lo[b], hi[b], per_base)]

    def _section_value(self, f: Expr, cell: CellIndex, b: int, base: Point) -> CoordValue:
        """``eval_coord(f, base)`` at the b-th probe of ``cell``, but sqrt(g)
        and -sqrt(g) read one root of g, kept on the root.  At a rational
        probe a polynomial g is summed in integers (``integer_coeffs``) and
        its root taken as ``eval_coord`` takes it (``sqrt_coord``)."""
        core = f.arg if isinstance(f, Neg) and isinstance(f.arg, Sqrt) else f
        if not isinstance(core, Sqrt):
            return eval_coord(f, base)
        key = (core, cell, b)
        r = self._roots.get(key)
        if r is None:
            g = core.arg
            if g not in self._sqrt_polys:
                # A g that divides falls back, to raise eval_coord's errors.
                p = None if any_node(g, lambda e: isinstance(e, Div)) else to_polynomial(g)
                self._sqrt_polys[g] = None if p is None else (ScaledPoly(p), max_var_index(g))
            kept = self._sqrt_polys[g]
            if kept is None or kept[1] > len(base) or not all(isinstance(c, Fraction) for c in base):
                r = eval_coord(core, base)
            else:
                c, scale = integer_coeffs(kept[0], dict(enumerate(base, start=1)), None)
                r = sqrt_coord(Fraction(c[0], scale) if c else Fraction(0))
            self._roots[key] = r
        return r if core is f else negated_coord(r)

    def _section_values(self, section: CellIndex) -> list[CoordValue]:
        return [p[-1] for p in self.cell_points(section)]

    # -- partitions --------------------------------------------------------

    def partition_blocks(self) -> frozenset[frozenset[CellIndex]]:
        """The partition of root leaves induced by this CAD's leaves."""
        return frozenset(frozenset((leaf,)) for leaf in self.leaves())

    def canonical_key(self):
        """Structural identity for root CADs (used by round-trip tests)."""
        stacks = tuple(
            (word_of(cell), tuple(sexpr_of_expr(canonicalize(f)) for f in self.stacks[cell].functions))
            for cell in sorted(self.stacks)
        )
        return (self.n, stacks)


# ---------------------------------------------------------------------------
# Zeros on a root cell


_ZERO = const(0)


def _section_substitution(root: Cad, cell: CellIndex) -> dict[int, Expr] | None:
    """x_i -> the root section function over ``cell[:i-1]``, composed, for
    every section letter ``cell[i-1]`` of the root cell; None when one of
    those functions is piecewise."""
    values: dict[int, Expr] = {}
    for i, letter in enumerate(cell, start=1):
        if letter % 2 == 0:
            f = root.stacks[cell[: i - 1]].functions[letter // 2 - 1]
            if any_node(f, is_piecewise):
                return None
            values[i] = substitute(f, values)
    return values


def restrict(root: Cad, cell: CellIndex, e: Expr) -> Expr | None:
    """The normal form (``canonicalize``) of ``e`` restricted to the root
    cell: every section coordinate of the cell replaced by its root section
    function, so the result is in the cell's sector coordinates.  None when
    ``e`` or a section function substituted into it is piecewise; raises
    ``DivisionByZero`` when ``e`` divides by zero on the whole cell."""
    values = _section_substitution(root, cell)
    return None if values is None else _substituted(e, values)


def _substituted(e: Expr, values: dict[int, Expr]) -> Expr | None:
    """``restrict`` with the cell's section substitution made."""
    if any_node(e, is_piecewise):
        return None
    return canonicalize(substitute(e, values))


def vanishes_on(root: Cad, cell: CellIndex, e: Expr) -> bool:
    """Whether ``e`` is proven zero on the whole root cell: restricted to it,
    its numerator is zero and its denominator, which collects every
    denominator met, is proven to have no zero there."""
    try:
        restricted = restrict(root, cell, e)
    except DivisionByZero:
        return False
    if restricted == _ZERO:
        return True
    if not isinstance(restricted, Div) or restricted.left != _ZERO:
        return False
    return zero_in_cell(root, cell, restricted.right) is False


def zero_in_cell(root: Cad, cell: CellIndex, den: Expr) -> bool | None:
    """Whether a polynomial whose variables are sector coordinates of the
    root cell has a zero on it: True or False when that is proven, None
    when it is not decided.

    Decided for a polynomial in one coordinate x_t whose sector ``cell[t-1]``
    is one interval over the whole base ``cell[:t-1]``: the base is a point,
    or the sector's bounding sections are constants on the base.  It has a
    zero on the cell when one of its real roots lies in that interval.
    """
    p = to_polynomial(den)
    if p is None:
        return None
    q = ScaledPoly(p)
    if len(q.variables) != 1:
        return None
    (t,) = q.variables
    base = cell[: t - 1]
    stack = root.stacks[base]
    j = (cell[t - 1] - 1) // 2
    bounds = [stack.functions[j - 1] if j >= 1 else None, stack.functions[j] if j < stack.count else None]
    try:
        if all(letter % 2 == 0 for letter in base):
            # A point base has one probe; the bounds' values there are the
            # section cells' probes, which validation derives anyway.
            lo = root._section_values(base + (2 * j,))[0] if j >= 1 else None
            hi = root._section_values(base + (2 * j + 2,))[0] if j < stack.count else None
        else:
            restricted = [None if f is None else restrict(root, base, f) for f in bounds]
            if any(f is not None and not isinstance(r, Const) for f, r in zip(bounds, restricted)):
                return None
            lo, hi = (None if r is None else r.value for r in restricted)
        return any(
            (lo is None or compare_coords(lo, r) < 0) and (hi is None or compare_coords(r, hi) < 0)
            for r in isolate_roots(poly(integer_coeffs(q, {}, t)[0]))
        )
    except (GuardUndecidable, UnknownOrder, DivisionByZero, SqrtOfNegative):
        return None


# ---------------------------------------------------------------------------
# Validation


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)
    undecided: list[str] = field(default_factory=list)
    # Whether an undecided line leaves the order of a stack open.
    order_open: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def admits_reduction(self) -> bool:
        """Whether ``minimize`` and ``explore`` may start from the root."""
        return self.ok and not self.order_open

    def leave_open(self, line: str) -> None:
        self.undecided.append(line)
        self.order_open = True

    def __str__(self) -> str:
        if self.ok and not self.undecided:
            return "valid"
        lines = [f"violation: {v}" for v in self.violations]
        lines += [f"undecided: {u}" for u in self.undecided]
        return "\n".join(lines)


def validate_cad(cad: Cad) -> ValidationReport:
    """Structural validation of a root: stack keys, variable arity, poles of
    stack functions, strict stack order, guard disjointness.

    Each adjacent pair f_i, f_{i+1} of a stack is first decided exactly
    (``_exact_orders``); every other pair is compared at the probes of its
    cell (``Cad.cell_points``).  A root is immutable, so its report is made
    once and kept on it.

    The report is the gate of reduction: ``tree.build_tree`` raises
    ``ValidationFailed`` unless ``admits_reduction``, that is, unless there
    is no violation and the probes leave no stack order open (an order or a
    section value that cannot be decided, or probes that cannot be derived).
    Past the gate, no merge checks an order again (see ``reduction``).  An
    undecided pole does not refuse: the pole test decides only denominators
    in one coordinate over a point or between constant sections
    (``zero_in_cell``); it decides every gallery input, but refusing what it
    leaves open would refuse sections with no pole, such as 1/(x1 - sqrt 2)
    over x1 < 0.

    A coarsening's report is its root's, the same object.  Over each root
    cell, the sections of a coarsening's stack are root sections over that
    cell, their letters increasing with the slot, and their guards are root
    guards checked at that cell's probes; so the root's report covers them.
    """
    root = cad.root
    if root._validation is None:
        root._validation = _validate_root(root)
    return root._validation


def _validate_root(cad: Cad) -> ValidationReport:
    report = ValidationReport()
    expected = {c for k in range(cad.n) for c in cad.cells_of_level(k)}
    actual = set(cad.stacks)
    for missing in sorted(expected - actual):
        report.violations.append(f"cell {word_of(missing)} has no stack")
    for extra in sorted(actual - expected):
        report.violations.append(f"stack for nonexistent cell {word_of(extra)}")
    if not report.ok:
        return report
    # Stacks share functions, so each is scanned once (also in _check_poles).
    arity: dict[Expr, int] = {}
    for cell, stack in cad.stacks.items():
        for i, f in enumerate(stack.functions, start=1):
            if f not in arity:
                arity[f] = max_var_index(f)
            if arity[f] > len(cell):
                report.violations.append(
                    f"section {i} above {word_of(cell)!r} uses variables beyond level {len(cell)}"
                )
    if not report.ok:
        return report
    _check_poles(cad, report)
    if not report.ok:
        return report
    _check_at_probes(cad, report, _exact_orders(cad, report))
    return report


def _exact_orders(cad: Cad, report: ValidationReport) -> set[tuple[CellIndex, int]]:
    """The pairs (cell, i) of adjacent root sections f_i, f_{i+1} whose
    order f_{i+1} - f_i, restricted to the cell, decides on the whole cell:
    a positive constant proves the pair ordered, a constant <= 0 is a
    violation, and so is a polynomial with a zero in the cell."""
    decided = set()
    # A pair is restricted once per section substitution: cells that share a
    # stack and have no section letter, such as the inner sectors of
    # disk-lines, share its restriction.  The zero test stays per cell.
    restricted: dict[tuple, Expr | None] = {}
    for cell, stack in cad.stacks.items():
        if stack.count < 2:
            continue
        values = _section_substitution(cad, cell)
        if values is None:
            continue
        substitution = tuple(values.items())
        pairs = zip(stack.functions, stack.functions[1:])
        for i, (lower, upper) in enumerate(pairs, start=1):
            key = (lower, upper, substitution)
            if key not in restricted:
                restricted[key] = _substituted(Sub(upper, lower), values)
            diff = restricted[key]
            if diff is None:
                continue
            where = f"sections {i},{i + 1} above {word_of(cell)}"
            if isinstance(diff, Const):
                if diff.value <= 0:
                    report.violations.append(f"{where} are not strictly ordered on the cell")
            elif zero_in_cell(cad, cell, diff):
                report.violations.append(f"{where} cross inside the cell")
            else:
                continue
            decided.add((cell, i))
    return decided


def _check_at_probes(cad: Cad, report: ValidationReport, decided: set[tuple[CellIndex, int]]) -> None:
    """Strict order of every stack, but the ``decided`` pairs, and guard
    disjointness, at the probes of each cell.  Section values are read off
    the section cells' probes (``Cad.cell_points``)."""
    for k in range(cad.n):
        for cell in cad.cells_of_level(k):
            try:
                points = cad.cell_points(cell)
            except (UnknownOrder, GuardUndecidable) as exc:
                report.leave_open(f"cannot derive probes in {word_of(cell)}: {exc}")
                continue
            except (DivisionByZero, SqrtOfNegative) as exc:
                report.violations.append(f"cannot derive probes in {word_of(cell)}: {exc}")
                continue
            columns = []
            for slot in range(1, cad.stacks[cell].count + 1):
                try:
                    columns.append((slot, cad._section_values(cell + (2 * slot,))))
                except GuardUndecidable as exc:
                    report.leave_open(f"section {slot} above {word_of(cell)} undecided at a probe: {exc}")
                except (DivisionByZero, SqrtOfNegative) as exc:
                    report.violations.append(f"section {slot} above {word_of(cell)} is undefined at a probe: {exc}")
            for (s1, values1), (s2, values2) in zip(columns, columns[1:]):
                if s2 == s1 + 1 and (cell, s1) in decided:
                    continue
                for point, v1, v2 in zip(points, values1, values2):
                    try:
                        c = compare_coords(v1, v2)
                    except (UnknownOrder, GuardUndecidable) as exc:
                        report.leave_open(f"order of sections {s1},{s2} above {word_of(cell)} undecided: {exc}")
                        continue
                    if c >= 0:
                        report.violations.append(
                            f"sections {s1},{s2} above {word_of(cell)} are not strictly ordered at {point}"
                        )
            _check_guard_disjointness(cad.stacks[cell], cell, points, report)


def _check_poles(cad: Cad, report: ValidationReport) -> None:
    """Every root stack function that divides must be defined on its whole
    cell: restricted to the cell, its normal form's denominator, which
    collects every denominator met, has no zero there."""
    divides: dict[Expr, bool] = {}
    for cell, stack in cad.stacks.items():
        for i, f in enumerate(stack.functions, start=1):
            if f not in divides:
                divides[f] = any_node(f, lambda e: isinstance(e, Div))
            if not divides[f]:
                continue
            where = f"section {i} above {word_of(cell)}"
            try:
                restricted = restrict(cad, cell, f)
            except DivisionByZero:
                report.violations.append(f"{where} divides by zero on the whole cell")
                continue
            if restricted is None:
                report.undecided.append(f"poles of {where}: a piecewise function is involved")
                continue
            zero = zero_in_cell(cad, cell, restricted.right) if isinstance(restricted, Div) else False
            if zero:
                report.violations.append(f"{where} has a pole inside the cell")
            elif zero is None:
                report.undecided.append(f"poles of {where} not decided")


def _check_guard_disjointness(
    stack: SectionStack, cell: CellIndex, points: list[Point], report: ValidationReport
) -> None:
    for point in points:
        for f in stack.functions:
            if not isinstance(f, Piecewise):
                continue
            true_guards = 0
            for guard, _ in f.pieces:
                try:
                    if formula_holds(guard, point):
                        true_guards += 1
                except GuardUndecidable:
                    report.undecided.append(f"piecewise guard above {word_of(cell)} undecided at {point}")
            if true_guards > 1:
                report.violations.append(f"piecewise guards above {word_of(cell)} overlap at {point}")


# ---------------------------------------------------------------------------
# Adaptedness


def check_adapted(cad: Cad, formula: Formula) -> LeafLabeling:
    """Label every leaf of a root by set membership of its sample; the
    leaf's probes must agree, otherwise the CAD is not adapted to the set.
    A formula in more variables than the CAD has is a ``ValueError``, and so
    is a coarsening (``tree.CadTree``), which has no probes.

    Each atom of the formula is converted to integers (``ScaledPoly``) once
    per call, when its sign is first needed, in a table kept for this call
    only; every probe then signs it exactly as ``formula_holds`` would."""
    if not cad.is_root:
        raise ValueError("probes belong to root cells; a coarsening's cells are unions of them")
    top = max_var_index(formula)
    if top > cad.n:
        raise ValueError(f"formula has variable x{top}, the CAD is of R^{cad.n}")
    polys: dict[Expr, ScaledPoly] = {}
    labels: LeafLabeling = {}
    for leaf in cad.leaves():
        points = cad.cell_points(leaf)
        truths = [holds(formula, p, polys) for p in points]
        if len(set(truths)) > 1:
            raise NotAdapted(leaf, points[truths.index(True)], points[truths.index(False)])
        labels[leaf] = 1 if truths[0] else 0
    return labels
