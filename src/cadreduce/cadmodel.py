"""The CAD data model: level stacks, cells, samples, and structural checks.

A CAD of R^n is stored as its stack structure: for every cell of level
k < n (level 0 is the one-point base cell with the empty index), the ordered
list of section functions that slice the cylinder above it.  Every sample
point is derived from the stacks.  Cells are named by index words; a cell
of level k has index (i_1, ..., i_k), where an even last letter names a
section (the graph of a stack function) and an odd last letter names a
sector (the open band between consecutive sections).

A CAD object either owns its geometry (a *root*), or is a coarsening of a
root obtained by cell merges.  A coarsening is a view of its cell tree
(``tree.CadTree``): each cell holds the sorted root cells whose union it is,
its 2u+1 children, and, made once with it, its label, its structural key and
the applicable pivots below it; its index word is its path from the top, and
all numeric data is read off the root.  A coarsening's probe points are its
first root cells' (``Cad.cell_points``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

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
    Piecewise,
    Point,
    Sub,
    any_node,
    as_point,
    canonicalize,
    compare_coords,
    eval_coord,
    formula_holds,
    is_piecewise,
    max_var_index,
    sector_coords,
    sexpr_of_expr,
    substitute,
    to_polynomial,
    univariate_coeffs,
)
from cadreduce.realroots import isolate_roots

if TYPE_CHECKING:
    from cadreduce.tree import CadTree

CellIndex = tuple[int, ...]

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

# A probe point together with the root cell it was generated in.
TaggedPoint = tuple[Point, CellIndex]


def _interleave(lists: list[list]) -> list:
    out = []
    i = 0
    while True:
        added = False
        for lst in lists:
            if i < len(lst):
                out.append(lst[i])
                added = True
        if not added:
            return out
        i += 1


class Cad:
    """A CAD of R^n, either owning its geometry or viewing a root through a
    coarsening's cell tree."""

    def __init__(
        self,
        n: int,
        stacks: dict[CellIndex, SectionStack] | None = None,
        *,
        root: "Cad | None" = None,
        tree: "CadTree | None" = None,
    ):
        self.n = n
        if root is None:
            if stacks is None:
                raise ValueError("a root CAD needs stacks")
            self.root: Cad = self
            self.stacks = stacks
            self.tree = None
            self._point_cache: dict[tuple[CellIndex, int], list[TaggedPoint]] = {}
            # The root's ``validate_cad`` report, made on first use.
            self._validation: ValidationReport | None = None
            # Lift verdicts (see ``reduction._lift_allowed``): one per
            # grouping of root cells into three merged subtrees.
            self._lift_cache: dict[tuple, bool] = {}
        else:
            if tree is None:
                raise ValueError("a coarsening needs its cell tree")
            self.root = root
            self.stacks = None
            self.tree = tree

    # -- structure ---------------------------------------------------------

    @property
    def is_root(self) -> bool:
        return self.root is self

    def stack_count(self, cell: CellIndex) -> int:
        if self.tree is None:
            return self.stacks[cell].count
        return len(self.tree.cell(cell).children) // 2

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
        """The root cells whose union this cell is."""
        if self.tree is None:
            return (cell,)
        return self.tree.cell(cell).roots

    # -- geometry ----------------------------------------------------------

    def section_piece(self, cell: CellIndex, slot: int, root_parent: CellIndex) -> Expr:
        """The root stack function realizing section ``slot`` of the stack
        above ``cell``, over the given root cell of ``cell``."""
        section = cell + (2 * slot,)
        for q in self.root_cells(section):
            if q[:-1] == root_parent:
                return self.root.stacks[root_parent].functions[q[-1] // 2 - 1]
        raise KeyError(f"no piece of section {section} over root cell {root_parent}")

    def section_pieces(self, cell: CellIndex, slot: int) -> list[tuple[CellIndex, Expr]]:
        """All (root parent cell, expression) pieces of one stack function."""
        section = cell + (2 * slot,)
        return [
            (q[:-1], self.root.stacks[q[:-1]].functions[q[-1] // 2 - 1])
            for q in self.root_cells(section)
        ]

    def sample(self, cell: CellIndex) -> Point:
        """A witness point inside the cell (the root cell's derived sample)."""
        if not self.is_root:
            return self.root.sample(self.root_cells(cell)[0])
        return self.cell_points(cell, 1)[0][0]

    def cell_points(self, cell: CellIndex, count: int) -> list[TaggedPoint]:
        """Deterministic probe points inside the cell, tagged with the root
        cell each point lies in.  The first point is the cell's sample."""
        if not self.is_root:
            # Every root cell has a point, so the first ``count`` root cells
            # give all the points kept.
            per_root = [self.root.cell_points(r, count) for r in self.root_cells(cell)[:count]]
            return _interleave(per_root)[:count]
        key = (cell, count)
        cached = self._point_cache.get(key)
        if cached is not None:
            return cached
        pts = self._root_points(cell, count)
        self._point_cache[key] = pts
        return pts

    def _root_points(self, cell: CellIndex, count: int) -> list[TaggedPoint]:
        if cell == ROOT_INDEX:
            return [((), ROOT_INDEX)]
        parent, letter = cell[:-1], cell[-1]
        bases = self.cell_points(parent, count)
        stack = self.stacks[parent]
        per_base: list[list[Point]] = []
        for base, _tag in bases:
            if letter % 2 == 0:
                coords: list[CoordValue] = [eval_coord(stack.functions[letter // 2 - 1], base)]
            else:
                j = (letter - 1) // 2
                lo = eval_coord(stack.functions[j - 1], base) if j >= 1 else None
                hi = eval_coord(stack.functions[j], base) if j < stack.count else None
                coords = list(sector_coords(lo, hi, count))
            per_base.append([base + (c,) for c in coords])
        return [(p, cell) for p in _interleave(per_base)[:count]]

    # -- partitions --------------------------------------------------------

    def partition_blocks(self) -> frozenset[frozenset[CellIndex]]:
        """The partition of root leaves induced by this CAD's leaves."""
        if self.tree is None:
            return frozenset(frozenset((leaf,)) for leaf in self.leaves())
        cells = [self.tree.top]
        for _ in range(self.n):
            cells = [child for cell in cells for child in cell.children]
        return frozenset(cell.block for cell in cells)

    def canonical_key(self):
        """Structural identity for root CADs (used by round-trip tests)."""
        if not self.is_root:
            raise ValueError("canonical_key is for root CADs")
        stacks = tuple(
            (word_of(cell), tuple(sexpr_of_expr(canonicalize(f)) for f in self.stacks[cell].functions))
            for cell in sorted(self.stacks)
        )
        return (self.n, stacks)


# ---------------------------------------------------------------------------
# Zeros on a root cell


def section_substitution(root: Cad, cell: CellIndex) -> dict[int, Expr] | None:
    """x_i -> the root section function over ``cell[:i-1]``, composed, for
    every section letter ``cell[i-1]`` of the root cell; None when one of
    those functions is piecewise.  A function substituted this way is its
    restriction to the cell, in the cell's sector coordinates."""
    values: dict[int, Expr] = {}
    for i, letter in enumerate(cell, start=1):
        if letter % 2 == 0:
            f = root.stacks[cell[: i - 1]].functions[letter // 2 - 1]
            if any_node(f, is_piecewise):
                return None
            values[i] = substitute(f, values)
    return values


def zero_in_cell(root: Cad, cell: CellIndex, den: Expr) -> bool | None:
    """Whether a polynomial whose variables are sector coordinates of the
    root cell has a zero on it: True or False when that is proven, None
    when it is not decided.

    Decided for a polynomial in one coordinate x_t whose base ``cell[:t-1]``
    is a point: it has a zero on the cell when one of its real roots lies
    in the open sector ``cell[t-1]`` over that point.
    """
    p = to_polynomial(den)
    if p is None:
        return None
    variables = {i for mon in p for i, _ in mon}
    if len(variables) != 1:
        return None
    (t,) = variables
    base = cell[: t - 1]
    if any(letter % 2 for letter in base):
        return None
    stack = root.stacks[base]
    j = (cell[t - 1] - 1) // 2
    try:
        point = root.cell_points(base, 1)[0][0]
        lo = eval_coord(stack.functions[j - 1], point) if j >= 1 else None
        hi = eval_coord(stack.functions[j], point) if j < stack.count else None
        return any(
            (lo is None or compare_coords(lo, r) < 0) and (hi is None or compare_coords(r, hi) < 0)
            for r in isolate_roots(univariate_coeffs(p, t))
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
    """Structural validation: stack keys, variable arity, poles of root stack
    functions, strict stack order, guard disjointness.

    On a root, each adjacent pair f_i, f_{i+1} of a stack is first decided
    exactly (``_exact_orders``); every other pair is compared at two probe
    points per cell.  A root is immutable, so its report is made once and
    kept on it.

    The root's report is the gate of reduction: ``Coarsening.of`` raises
    ``ValidationFailed`` unless ``admits_reduction``, that is, unless there
    is no violation and the probes leave no stack order open (an order or a
    section value that cannot be decided, or probes that cannot be derived).
    Past the gate, no merge checks an order again (see ``reduction``).  An
    undecided pole does not refuse: the pole test decides few denominators
    (``zero_in_cell``), and refusing those it leaves open would refuse
    ushape-Cp and ushape-Cbar, gallery inputs whose sections have no pole.
    """
    if not cad.is_root:
        report = ValidationReport()
        _check_at_probes(cad, report, set())
        return report
    if cad._validation is None:
        cad._validation = _validate_root(cad)
    return cad._validation


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
    for cell, stack in cad.stacks.items():
        for i, f in enumerate(stack.functions, start=1):
            if max_var_index(f) > len(cell):
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
    for cell, stack in cad.stacks.items():
        values = section_substitution(cad, cell)
        if values is None:
            continue
        pairs = zip(stack.functions, stack.functions[1:])
        for i, (lower, upper) in enumerate(pairs, start=1):
            diff = Sub(upper, lower)
            if any_node(diff, is_piecewise):
                continue
            diff = canonicalize(substitute(diff, values))
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
    disjointness, at two probe points per cell."""
    for k in range(cad.n):
        for cell in cad.cells_of_level(k):
            u = cad.stack_count(cell)
            try:
                points = cad.cell_points(cell, 2)
            except (UnknownOrder, GuardUndecidable) as exc:
                report.leave_open(f"cannot derive probes in {word_of(cell)}: {exc}")
                continue
            except (DivisionByZero, SqrtOfNegative) as exc:
                report.violations.append(f"cannot derive probes in {word_of(cell)}: {exc}")
                continue
            for point, tag in points:
                values = []
                for slot in range(1, u + 1):
                    try:
                        f = cad.section_piece(cell, slot, tag)
                        values.append((slot, eval_coord(f, point)))
                    except GuardUndecidable as exc:
                        report.leave_open(f"section {slot} above {word_of(cell)} undecided at {point}: {exc}")
                    except (DivisionByZero, SqrtOfNegative) as exc:
                        report.violations.append(f"section {slot} above {word_of(cell)} is undefined at {point}: {exc}")
                for (s1, v1), (s2, v2) in zip(values, values[1:]):
                    if s2 == s1 + 1 and (cell, s1) in decided:
                        continue
                    try:
                        c = compare_coords(v1, v2)
                    except (UnknownOrder, GuardUndecidable) as exc:
                        report.leave_open(f"order of sections {s1},{s2} above {word_of(cell)} undecided: {exc}")
                        continue
                    if c >= 0:
                        report.violations.append(
                            f"sections {s1},{s2} above {word_of(cell)} are not strictly ordered at {point}"
                        )
                _check_guard_disjointness(cad, cell, point, tag, report)


def _check_poles(cad: Cad, report: ValidationReport) -> None:
    """Every root stack function that divides must be defined on its whole
    cell: restricted to the cell, its normal form's denominator, which
    collects every denominator met, has no zero there."""
    for cell, stack in cad.stacks.items():
        for i, f in enumerate(stack.functions, start=1):
            if not any_node(f, lambda e: isinstance(e, Div)):
                continue
            where = f"section {i} above {word_of(cell)}"
            values = section_substitution(cad, cell)
            if values is None or any_node(f, is_piecewise):
                report.undecided.append(f"poles of {where}: a piecewise function is involved")
                continue
            try:
                restricted = canonicalize(substitute(f, values))
            except DivisionByZero:
                report.violations.append(f"{where} divides by zero on the whole cell")
                continue
            zero = zero_in_cell(cad, cell, restricted.right) if isinstance(restricted, Div) else False
            if zero:
                report.violations.append(f"{where} has a pole inside the cell")
            elif zero is None:
                report.undecided.append(f"poles of {where} not decided")


def _check_guard_disjointness(cad, cell, point, tag, report):
    u = cad.stack_count(cell)
    for slot in range(1, u + 1):
        try:
            f = cad.section_piece(cell, slot, tag)
        except KeyError:
            continue
        if not isinstance(f, Piecewise):
            continue
        true_guards = 0
        for guard, _ in f.pieces:
            try:
                if formula_holds(guard, point):
                    true_guards += 1
            except GuardUndecidable:
                report.undecided.append(
                    f"piecewise guard above {word_of(cell)} undecided at {point}"
                )
        if true_guards > 1:
            report.violations.append(
                f"piecewise guards above {word_of(cell)} overlap at {point}"
            )


# ---------------------------------------------------------------------------
# Adaptedness and location


_ADAPTED_PROBES = 3


def check_adapted(cad: Cad, formula: Formula) -> LeafLabeling:
    """Label every leaf by set membership of its sample; ``_ADAPTED_PROBES``
    points per leaf must agree, otherwise the CAD is not adapted to the set.
    A formula in more variables than the CAD has is a ``ValueError``."""
    top = max_var_index(formula)
    if top > cad.n:
        raise ValueError(f"formula has variable x{top}, the CAD is of R^{cad.n}")
    labels: LeafLabeling = {}
    for leaf in cad.leaves():
        points = cad.cell_points(leaf, _ADAPTED_PROBES)
        verdicts = [(formula_holds(formula, p), p) for p, _tag in points]
        first = verdicts[0][0]
        for truth, point in verdicts[1:]:
            if truth != first:
                inside = next(p for t, p in verdicts if t)
                outside = next(p for t, p in verdicts if not t)
                raise NotAdapted(leaf, inside, outside)
        labels[leaf] = 1 if first else 0
    return labels


def locate(cad: Cad, point) -> CellIndex:
    """The index of the cell of a root CAD containing the point.

    Points of arity k < n are located in the level-k decomposition.
    """
    if not cad.is_root:
        raise ValueError("locate works on root CADs")
    pt = as_point(point)
    if len(pt) > cad.n:
        raise ValueError(f"point has arity {len(pt)}, expected at most {cad.n}")
    cell: CellIndex = ROOT_INDEX
    for k in range(len(pt)):
        base = pt[:k]
        y = pt[k]
        stack = cad.stacks[cell]
        letter = 2 * stack.count + 1
        for j, f in enumerate(stack.functions, start=1):
            v = eval_coord(f, base)
            c = compare_coords(y, v)
            if c == 0:
                letter = 2 * j
                break
            if c < 0:
                letter = 2 * j - 1
                break
        cell = cell + (letter,)
    return cell
