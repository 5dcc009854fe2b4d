"""Lifting combinatorial tree merges to geometric CAD merges.

A merge at a pivot of level k < n is a genuine CAD operation only when the
section functions above the three merged cells glue to continuous functions
over the union.  That condition is verified either by a continuity
certificate shipped with the document, or by exact sampling: probe points on
the seam (the middle cell) are compared with evaluations at approach points
inside the flanking cells.  Inconclusive evidence rejects the merge, so the
procedure is sound but not complete.

Merges at leaf level (k = n) just drop a section from one stack and are
always valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from cadreduce.cadmodel import (
    Cad,
    CellIndex,
    LeafLabeling,
    _sector_coords,
    word_of,
)
from cadreduce.errors import (
    GuardUndecidable,
    RuleNotApplicable,
    SectionOutOfRange,
    UnknownOrder,
)
from cadreduce.expr import (
    DEFAULT_PRECISION,
    Expr,
    Point,
    any_node,
    approx_equal,
    canonicalize,
    compare_coords,
    coord_shift,
    eval_coord,
    is_piecewise,
)
from cadreduce.tree import (
    CadTree,
    applicable_pivots,
    apply_merge,
    build_tree,
    is_applicable,
    sibling,
    walk,
)

# Probe points per seam, and how close a side value must come to the seam value.
BOUNDARY_SAMPLES = 3
TOLERANCE = Fraction(1, 2**20)


def pivot_order(pivot: CellIndex):
    """The order in which pivots are tried: deepest first, then lexicographic."""
    return (-len(pivot), pivot)


@dataclass(frozen=True)
class LiftConfig:
    """How merge conditions are decided."""

    mode: str = "sampled"  # "sampled" | "certificate"
    precision: Fraction = DEFAULT_PRECISION

    def __post_init__(self):
        if self.mode not in ("sampled", "certificate"):
            raise ValueError(f"unknown lift mode {self.mode!r}")
        if self.precision <= 0:
            raise ValueError("precision must be positive")


_tree_of = build_tree  # perfbench builds trees under this name

Blocks = frozenset[frozenset[CellIndex]]


@dataclass(frozen=True, eq=False)
class Coarsening:
    """A labelled coarsening of a root CAD and the pivots merged to reach it
    (in ``minimize`` or ``explore``).

    The coarsening is its cell tree: ``cad`` is the root itself or a view of
    the tree, and the leaf labels, the applicable pivots and the partition
    are read off the tree.  A merge shares every cell but the
    glued one and the path above it with its parent (``tree.apply_merge``).
    """

    cad: Cad
    tree: CadTree
    history: tuple[CellIndex, ...] = ()

    @classmethod
    def of(cls, cad: Cad, labels: LeafLabeling) -> Coarsening:
        """A CAD (a root or a coarsening) with a total leaf labelling."""
        return cls(cad, build_tree(cad, labels))

    @property
    def labels(self) -> LeafLabeling:
        return {leaf: cell.label for leaf, cell in self.tree.leaves()}

    @cached_property
    def pivots(self) -> list[CellIndex]:
        """The applicable pivots, in ``pivot_order``."""
        return sorted(applicable_pivots(self.tree), key=pivot_order)

    @cached_property
    def blocks(self) -> Blocks:
        """The partition of the root's leaves; it identifies the coarsening."""
        return self.cad.partition_blocks()

    @property
    def leaf_count(self) -> int:
        return len(self.blocks)

    @property
    def applied(self) -> tuple[CellIndex, ...]:  # the merges of ``minimize``, in order
        return self.history


def try_lift(node: Coarsening, pivot: CellIndex, cfg: LiftConfig = LiftConfig()) -> Coarsening | None:
    """The merged coarsening of the same root (labels transported, pivot
    appended to the history), or None when the merge at an applicable pivot
    cannot be verified to be a CAD.  The child's tree shares all but the
    glued cell and the path above it with the parent's."""
    cad, tree = node.cad, node.tree
    if not is_applicable(tree, pivot):
        raise RuleNotApplicable(f"pivot {word_of(pivot)} is not applicable")
    if not _lift_allowed(cad, tree, pivot, cfg):
        return None
    reduced = apply_merge(tree, pivot)
    lifted = Cad(cad.n, root=cad.root, tree=reduced, history=cad.history + (pivot,))
    return Coarsening(lifted, reduced, node.history + (pivot,))


def _lift_allowed(cad: Cad, tree: CadTree, pivot: CellIndex, cfg: LiftConfig) -> bool:
    k = len(pivot)
    if k == cad.n:
        # Dropping a section from a leaf-level stack: the union of the three
        # cells is again a sector of the same stack.
        return True
    if cfg.mode == "certificate":
        # Certificates name pivots of the root document.  They remain valid
        # after leaf-level merges only (those neither move the index words of
        # pivots of lower level nor change which base cells the merge glues).
        if any(len(h) < cad.n for h in cad.history):
            return False
        return pivot in cad.root.certificates
    # The sampled check reads the root, the configuration and, in each of the
    # three merged subtrees, the root cells of the cell at each suffix; its
    # verdict is kept under exactly that key.
    key = (cfg,) + tuple(
        tuple((suffix, cell.roots) for suffix, cell in walk(tree.cell(top), cad.n - k))
        for top in (sibling(pivot, -1), pivot, sibling(pivot, +1))
    )
    cache = cad.root._lift_cache
    if key not in cache:
        cache[key] = _glued_stacks_valid(cad, tree, pivot, cfg)
    return cache[key]


def _glued_stacks_valid(cad: Cad, tree: CadTree, pivot: CellIndex, cfg: LiftConfig) -> bool:
    """Sampled evidence that the stacks above the three subtrees glue."""
    k = len(pivot)
    left, right = sibling(pivot, -1), sibling(pivot, +1)
    for suffix, cell in walk(tree.cell(pivot), cad.n - 1 - k):
        mid_cell = pivot + suffix
        left_cell = left + suffix
        right_cell = right + suffix
        u = len(cell.children) // 2
        for slot in range(1, u + 1):
            if not _glues_continuously(cad, pivot, left_cell, mid_cell, right_cell, slot, cfg):
                return False
        if not _merged_stack_ordered(cad, (left_cell, mid_cell, right_cell), u, cfg):
            return False
    return True


def _glues_continuously(
    cad: Cad,
    pivot: CellIndex,
    left_cell: CellIndex,
    mid_cell: CellIndex,
    right_cell: CellIndex,
    slot: int,
    cfg: LiftConfig,
) -> bool:
    pieces = (
        cad.section_pieces(left_cell, slot)
        + cad.section_pieces(mid_cell, slot)
        + cad.section_pieces(right_cell, slot)
    )
    canon = {canonicalize(e) for _, e in pieces}
    if len(canon) == 1 and not any_node(next(iter(canon)), is_piecewise):
        # One guard-free expression defined on all three cells (their stacks
        # are valid) is continuous on the union.
        return True
    k = len(pivot)
    try:
        probes = cad.cell_points(mid_cell, BOUNDARY_SAMPLES)
    except (UnknownOrder, GuardUndecidable):
        return False
    for point, root_cell in probes:
        try:
            mid_expr = cad.section_piece(mid_cell, slot, root_cell)
            v_mid = eval_coord(mid_expr, point, cfg.precision)
        except GuardUndecidable:
            return False
        for side_cell, direction in ((left_cell, -1), (right_cell, +1)):
            ok = _side_matches(
                cad, side_cell, slot, point, root_cell, k, direction, v_mid, cfg
            )
            if not ok:
                return False
    return True


def _side_matches(
    cad: Cad,
    side_cell: CellIndex,
    slot: int,
    seam_point: Point,
    seam_root_cell: CellIndex,
    k: int,
    direction: int,
    v_mid,
    cfg: LiftConfig,
) -> bool:
    """Evaluate the side's section at an approach point next to the seam and
    compare with the seam value within the tolerance."""
    try:
        approach, side_root = _approach_point(
            cad, side_cell, seam_point, seam_root_cell, k, direction, cfg
        )
        side_expr = cad.section_piece(side_cell, slot, side_root)
        v_side = eval_coord(side_expr, approach, cfg.precision)
    except (GuardUndecidable, UnknownOrder, KeyError):
        return False
    verdict = approx_equal(v_side, v_mid, TOLERANCE, cfg.precision)
    return verdict is True


def _approach_point(
    cad: Cad,
    side_cell: CellIndex,
    seam_point: Point,
    seam_root_cell: CellIndex,
    k: int,
    direction: int,
    cfg: LiftConfig,
) -> tuple[Point, CellIndex]:
    """A point of ``side_cell`` close to the seam point.

    The seam point's level-k coordinate sits on a root section; step off it
    by a small delta (staying inside the adjacent root sector), then descend
    the side lineage, re-deriving the higher coordinates.
    """
    root = cad.root
    rk = seam_root_cell[:k]
    if rk[-1] % 2 != 0:
        raise KeyError(f"seam root cell {rk} is not a section")
    base = seam_point[: k - 1]
    y0 = seam_point[k - 1]
    # Gap to the neighbouring root section on this side (infinity if none).
    stack = root.stacks[rk[:-1]]
    j0 = rk[-1] // 2
    neighbour = j0 + direction
    delta_cap = Fraction(1)
    if 1 <= neighbour <= stack.count:
        bound = eval_coord(stack.functions[neighbour - 1], base, cfg.precision)
        gap = _positive_gap(y0, bound, direction, cfg)
        delta_cap = min(delta_cap, gap / 2)
    delta = min(delta_cap, TOLERANCE / 4)
    point = base + (coord_shift(y0, direction * delta),)
    r = rk[:-1] + (rk[-1] + direction,)
    for level in range(k, len(side_cell)):
        node_child = side_cell[: level + 1]
        candidates = sorted(q for q in cad.root_cells(node_child) if q[:-1] == r)
        if not candidates:
            raise KeyError(f"no root cell of {node_child} above {r}")
        q = candidates[0]
        letter = q[-1]
        rstack = root.stacks[r]
        if letter % 2 == 0:
            coord = eval_coord(rstack.functions[letter // 2 - 1], point, cfg.precision)
        else:
            j = (letter - 1) // 2
            lo = eval_coord(rstack.functions[j - 1], point, cfg.precision) if j >= 1 else None
            hi = eval_coord(rstack.functions[j], point, cfg.precision) if j < rstack.count else None
            coord = _sector_coords(lo, hi, 1)[0]
        point = point + (coord,)
        r = q
    return point, r


def _positive_gap(y0, bound, direction, cfg: LiftConfig) -> Fraction:
    """A rational lower bound on |bound - y0| (they are strictly ordered)."""
    from cadreduce.expr import _promote, coord_approx

    w = Fraction(1, 4)
    for _ in range(24):
        ylo, yhi = _promote(coord_approx(y0, w))
        blo, bhi = _promote(coord_approx(bound, w))
        if direction > 0 and blo > yhi:
            return blo - yhi
        if direction < 0 and bhi < ylo:
            return ylo - bhi
        w /= 2**8
    raise UnknownOrder("cannot separate the seam coordinate from its neighbour")


def _merged_stack_ordered(cad: Cad, triple, u: int, cfg: LiftConfig) -> bool:
    """Strict ordering of the glued stack at the member cells' samples.

    The sample of a member cell is the first probe of its first root cell
    ``tag``, and there the section in each slot is the root section over
    ``tag`` whose letter the glued stack selects.  The verdict therefore
    depends on ``tag``, those letters and the precision only, all of them
    data of the immutable root, and ``Cad.sections_ordered`` keeps it per
    exactly that key.
    """
    for cell in triple:
        for _point, tag in cad.cell_points(cell, 1):
            try:
                letters = tuple(cad.section_letter(cell, slot, tag) for slot in range(1, u + 1))
            except KeyError:
                return False
            if not cad.sections_ordered(tag, letters, cfg.precision):
                return False
    return True


# ---------------------------------------------------------------------------
# Minimization (the reduction loop)


def minimize(cad: Cad, labels: LeafLabeling, cfg: LiftConfig = LiftConfig()) -> Coarsening:
    """Greedy reduction to a coarsening admitting no liftable merge.

    Pivots are attempted in ``pivot_order``; the first lift that succeeds is
    applied and the search restarts on the result.  The result's ``applied``
    lists the merges in order.
    """
    node = Coarsening.of(cad, labels)
    while True:
        for pivot in node.pivots:
            child = try_lift(node, pivot, cfg)
            if child is not None:
                node = child
                break
        else:
            return node


# ---------------------------------------------------------------------------
# Section insertion (refinement by slicing one sector)


def insert_section(
    cad: Cad,
    labels: LeafLabeling,
    base: CellIndex,
    sector_letter: int,
    section_function: Expr,
    probes: int = 4,
    precision: Fraction = DEFAULT_PRECISION,
) -> tuple[Cad, LeafLabeling]:
    """Split the sector above ``base`` with the graph of a new section
    function, duplicating everything above it; returns a finer root CAD.

    The function must be strictly between the sector's bounding sections at
    all probe points of the base cell.
    """
    if not cad.is_root:
        raise ValueError("insert_section expects a root CAD")
    p = len(base) + 1
    if p > cad.n:
        raise ValueError("cannot insert a section below leaf level")
    stack = cad.stacks[base]
    if sector_letter % 2 != 1 or not (1 <= sector_letter <= 2 * stack.count + 1):
        raise ValueError(f"{sector_letter} is not a sector letter of the stack above {word_of(base)}")
    j = (sector_letter - 1) // 2  # insert after section j
    for point, _tag in cad.cell_points(base, probes):
        v = eval_coord(section_function, point, precision)
        if j >= 1:
            lo = eval_coord(stack.functions[j - 1], point, precision)
            if compare_coords(v, lo, precision) <= 0:
                raise SectionOutOfRange(
                    f"new section is not strictly above section {j} at {point}"
                )
        if j < stack.count:
            hi = eval_coord(stack.functions[j], point, precision)
            if compare_coords(v, hi, precision) >= 0:
                raise SectionOutOfRange(
                    f"new section is not strictly below section {j + 1} at {point}"
                )

    def images(cell: CellIndex) -> list[CellIndex]:
        if len(cell) < p or cell[: p - 1] != base:
            return [cell]
        m = cell[p - 1]
        if m < sector_letter:
            return [cell]
        if m > sector_letter:
            return [cell[: p - 1] + (m + 2,) + cell[p:]]
        return [cell[: p - 1] + (sector_letter + d,) + cell[p:] for d in (0, 1, 2)]

    new_stacks = {}
    for cell, s in cad.stacks.items():
        for image in images(cell):
            new_stacks[image] = s
    new_stacks[base] = type(stack)(
        stack.functions[:j] + (section_function,) + stack.functions[j:]
    )
    new_samples = {}
    for cell, pt in cad.sample_overrides.items():
        img = images(cell)
        if len(img) == 1:
            # Renamed but geometrically unchanged cells keep their witness;
            # the split sector's witnesses are recomputed.
            new_samples[img[0]] = pt
    new_labels: LeafLabeling = {}
    for leaf, bit in labels.items():
        for image in images(leaf):
            new_labels[image] = bit
    refined = Cad(cad.n, new_stacks, samples=new_samples)
    return refined, new_labels
