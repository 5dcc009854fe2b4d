"""Lifting combinatorial tree merges to geometric CAD merges.

A merge at a pivot of level k < n is a genuine CAD operation only when the
section functions above the three merged cells glue to continuous functions
over the union and the glued stacks are ordered.  The only evidence of
continuity is an exact identity on the seam.

The order is not checked per merge.  Over each root cell below a merged
cell, the sections of the glued stack are root sections whose letters
strictly increase with the slot, so it is ordered wherever the root's
stacks are.  ``Coarsening.of`` admits only a root whose stacks
``validate_cad`` found ordered: each adjacent pair proven on its whole cell,
or compared at two probes per root cell, the first of them the cell's
sample (``Cad.cell_points`` is prefix-consistent), which is where a check
per merge would compare the glued stack.

The identity, per slot of each glued stack.  The section's pieces are root
stack functions, one per root cell below it; if they share one guard-free
normal form, the section is that function.  Otherwise, for each piece f_m
over a root cell m of the seam (the middle cell), sigma_m replaces every
section coordinate of m by its root section function, composed down the
levels, so sigma_m(f) is f on m.  A flank piece f_p glues with f_m when the
normal form (``expr.canonicalize``) of sigma_m(f_p) - sigma_m(f_m) has a zero
numerator and a denominator, which collects every denominator met, with no
zero on m: then f_p is continuous around each point of m and equals f_m
there.  The flank pieces are those over the root sector next to m over m's
own base root cell, and every flank piece over another root cell of the
merged base, which may reach m through m's boundary.

Inconclusive evidence rejects the merge, so the procedure is sound but not
complete.  It is incomplete where:

- a denominator counts as vanishing on m unless it is a constant or a
  polynomial in one sector coordinate x_t of m whose base m[:t-1] is a point;
- square roots are opaque in the normal form, so equal forms that are not
  identical there, such as sqrt(4 x1^2) and 2 x1 for x1 > 0, differ;
- a piece is piecewise and the fast path does not take it;
- a flank piece over another base root cell never meets m.

Merges at leaf level (k = n) just drop a section from one stack and are
always valid.
"""

from __future__ import annotations

from functools import cached_property

from cadreduce.cadmodel import (
    Cad,
    CellIndex,
    LeafLabeling,
    section_substitution,
    validate_cad,
    word_of,
    zero_in_cell,
)
from cadreduce.errors import DivisionByZero, RuleNotApplicable, SectionOutOfRange, ValidationFailed
from cadreduce.expr import (
    Div,
    Expr,
    Sub,
    any_node,
    canonicalize,
    compare_coords,
    const,
    eval_coord,
    is_piecewise,
    substitute,
)
from cadreduce.tree import (
    CadTree,
    applicable_pivots,
    apply_merge,
    build_tree,
    is_applicable,
    merged_blocks,
    sibling,
    walk,
)

def pivot_order(pivot: CellIndex):
    """The order in which pivots are tried: deepest first, then lexicographic."""
    return (-len(pivot), pivot)


_tree_of = build_tree  # perfbench builds trees under this name

_ZERO = const(0)

Blocks = frozenset[frozenset[CellIndex]]


class Coarsening:
    """A labelled coarsening of a root CAD and the pivots merged to reach it
    (in ``minimize`` or ``explore``), in order, in ``applied``.

    The coarsening is its cell tree: ``cad`` is the root itself or a view of
    the tree, and the leaf labels, the applicable pivots and the partition
    are read off the tree.  A merge shares every cell but the glued one and
    the path above it with its parent (``tree.apply_merge``).  A child made
    by ``try_lift`` makes its tree and its CAD view on first use, and until
    then it reads its partition off its parent's (``tree.merged_blocks``),
    so a child whose partition ``explore`` has seen makes no cell.
    """

    def __init__(self, cad: Cad, tree: CadTree, applied: tuple[CellIndex, ...] = ()):
        # Stored in the instance, these shadow the lazy ``cad`` and ``tree``.
        self.cad = cad
        self.tree = tree
        self.applied = applied

    @classmethod
    def of(cls, cad: Cad, labels: LeafLabeling) -> Coarsening:
        """A CAD (a root or a coarsening) with a total leaf labelling; raises
        ``ValidationFailed`` unless ``validate_cad`` admits its root."""
        report = validate_cad(cad.root)
        if not report.admits_reduction:
            raise ValidationFailed(report)
        return cls(cad, build_tree(cad, labels))

    @classmethod
    def _lifted(cls, parent: Coarsening, pivot: CellIndex) -> Coarsening:
        child = cls.__new__(cls)
        child.applied = parent.applied + (pivot,)
        child._root, child._parent = parent.cad.root, parent
        return child

    @cached_property
    def tree(self) -> CadTree:
        # Only a child of ``_lifted`` gets here, once; it then lets go of
        # its parent.
        return apply_merge(self.__dict__.pop("_parent").tree, self.applied[-1])

    @cached_property
    def cad(self) -> Cad:
        return Cad(self.tree.depth, root=self._root, tree=self.tree)

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
        parent = self.__dict__.get("_parent")
        if parent is None:
            return self.cad.partition_blocks()
        return merged_blocks(parent.tree, self.applied[-1], parent.blocks)

    @property
    def leaf_count(self) -> int:
        return len(self.blocks)


def try_lift(node: Coarsening, pivot: CellIndex) -> Coarsening | None:
    """The merged coarsening of the same root (labels transported, pivot
    appended to ``applied``), or None when the merge at an applicable pivot
    cannot be verified to be a CAD.  The child's tree, which shares all but
    the glued cell and the path above it with the parent's, is made on first
    use."""
    cad, tree = node.cad, node.tree
    if not is_applicable(tree, pivot):
        raise RuleNotApplicable(f"pivot {word_of(pivot)} is not applicable")
    if not _lift_allowed(cad, tree, pivot):
        return None
    return Coarsening._lifted(node, pivot)


def lift_key(tree: CadTree, pivot: CellIndex) -> tuple:
    """The structural keys of the three cells merged at the pivot.

    The seam check reads the root and, in each of the three merged
    subtrees, the root cells of the cell at each place; two lifts of one
    root with equal keys read the same, so the verdict is kept per key.
    """
    letter = pivot[-1]
    return tuple(cell.key for cell in tree.cell(pivot[:-1]).children[letter - 2 : letter + 1])


def _lift_allowed(cad: Cad, tree: CadTree, pivot: CellIndex) -> bool:
    if len(pivot) == cad.n:
        # Dropping a section from a leaf-level stack: the union of the three
        # cells is again a sector of the same stack.
        return True
    key = lift_key(tree, pivot)
    cache = cad.root._lift_cache
    verdict = cache.get(key)
    if verdict is None:
        verdict = cache[key] = _glued_stacks_valid(cad, tree, pivot)
    return verdict


def _glued_stacks_valid(cad: Cad, tree: CadTree, pivot: CellIndex) -> bool:
    """Whether the stacks above the three subtrees glue to continuous
    sections."""
    k = len(pivot)
    left, right = sibling(pivot, -1), sibling(pivot, +1)
    normal_forms: dict[int, Expr] = {}  # root stack function's id -> its canonical form
    for suffix, cell in walk(tree.cell(pivot), cad.n - 1 - k):
        mid_cell = pivot + suffix
        left_cell = left + suffix
        right_cell = right + suffix
        u = len(cell.children) // 2
        for slot in range(1, u + 1):
            if not _glues_continuously(cad, pivot, left_cell, mid_cell, right_cell, slot, normal_forms):
                return False
    return True


def _glues_continuously(
    cad: Cad,
    pivot: CellIndex,
    left_cell: CellIndex,
    mid_cell: CellIndex,
    right_cell: CellIndex,
    slot: int,
    normal_forms: dict[int, Expr],
) -> bool:
    middle = cad.section_pieces(mid_cell, slot)
    sides = (cad.section_pieces(left_cell, slot), cad.section_pieces(right_cell, slot))
    pieces = [e for _, e in middle] + [e for side in sides for _, e in side]
    # A root stack function recurs over many root cells; it is put in normal
    # form once per lift, not compared with the canonicalize cache each time.
    distinct = {id(e): e for e in pieces}
    for key, e in distinct.items():
        if key not in normal_forms:
            normal_forms[key] = canonicalize(e)
    canon = {normal_forms[key] for key in distinct}
    if len(canon) == 1 and not any_node(next(iter(canon)), is_piecewise):
        # One guard-free expression defined on all three cells (their stacks
        # are valid) is continuous on the union.
        return True
    if any(any_node(e, is_piecewise) for e in pieces):
        return False
    k = len(pivot)
    for m, f_m in middle:
        seam = section_substitution(cad.root, m)
        if seam is None:
            return False
        for side, direction in zip(sides, (-1, +1)):
            # Over m's own base root cell only the sector next to m reaches it.
            flank = [f for p, f in side if p[: k - 1] != m[: k - 1] or p[k - 1] == m[k - 1] + direction]
            if not flank or not all(_identical_on(cad.root, m, seam, f, f_m) for f in flank):
                return False
    return True


def _identical_on(root: Cad, m: CellIndex, seam: dict[int, Expr], f_side: Expr, f_mid: Expr) -> bool:
    """Whether the side piece, restricted to the root cell ``m`` by ``seam``,
    is the middle piece there: their difference has a zero numerator in
    normal form and a denominator that has no zero on ``m``."""
    try:
        diff = canonicalize(substitute(Sub(f_side, f_mid), seam))
    except DivisionByZero:  # a pole along the whole seam
        return False
    if diff == _ZERO:
        return True
    return isinstance(diff, Div) and diff.left == _ZERO and _no_zero_on(root, m, diff.right)


def _no_zero_on(root: Cad, m: CellIndex, den: Expr) -> bool:
    """Whether a normal-form denominator, whose variables are sector
    coordinates of the root cell ``m``, is proven to have no zero on ``m``;
    an undecided one counts as a possible zero."""
    return zero_in_cell(root, m, den) is False


# ---------------------------------------------------------------------------
# Minimization (the reduction loop)


def minimize(cad: Cad, labels: LeafLabeling) -> Coarsening:
    """Greedy reduction to a coarsening admitting no liftable merge.

    Pivots are attempted in ``pivot_order``; the first lift that succeeds is
    applied and the search restarts on the result.  The result's ``applied``
    lists the merges in order.
    """
    node = Coarsening.of(cad, labels)
    while True:
        for pivot in node.pivots:
            child = try_lift(node, pivot)
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
) -> tuple[Cad, LeafLabeling]:
    """Split the sector above ``base`` with the graph of a new section
    function, duplicating everything above it; returns a finer root CAD.

    The function must be strictly between the sector's bounding sections at
    four probe points of the base cell.
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
    for point, _tag in cad.cell_points(base, 4):
        v = eval_coord(section_function, point)
        if j >= 1:
            lo = eval_coord(stack.functions[j - 1], point)
            if compare_coords(v, lo) <= 0:
                raise SectionOutOfRange(
                    f"new section is not strictly above section {j} at {point}"
                )
        if j < stack.count:
            hi = eval_coord(stack.functions[j], point)
            if compare_coords(v, hi) >= 0:
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
    new_labels: LeafLabeling = {}
    for leaf, bit in labels.items():
        for image in images(leaf):
            new_labels[image] = bit
    return Cad(cad.n, new_stacks), new_labels
