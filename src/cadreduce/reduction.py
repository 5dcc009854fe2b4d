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
or compared at that root cell's probes (``Cad.cell_points``).  A coarsening
has no probes of its own, and its report is the root's.

The identity, per slot of each glued stack.  The section's pieces are root
stack functions, one per root cell below it; if they share one guard-free
normal form, the section is that function.  Each section cell keeps that
form of its own pieces (``tree.Cell``), and this fast path compares the
three cells' kept forms.  A cell's form is made from its root cells once,
and a glued cell's comes from its inputs, so along a run of merges a check
lists only the root cells of the seam and the right flank.  Otherwise the
slow path lists the pieces.  For each piece f_m over a root cell m of the
seam (the middle cell), a flank piece f_p glues with f_m when f_p - f_m
vanishes on m (``cadmodel.vanishes_on``): restricted to m
(``cadmodel.restrict``), its normal form has a zero numerator and a
denominator, which collects every denominator met, with no zero on m.  Then
f_p is continuous around each point of m and equals f_m there.  The flank
pieces are those over the root sector next to m over m's own base root
cell, and every flank piece over another root cell of the merged base,
which may reach m through m's boundary.

Both the fast path and the identity assume that each root stack function
is continuous on its own root cell.  ``validate_cad`` proves that only where
it decides a pole line, and the gate admits a root whose pole lines are
undecided, so on such a root a merge may glue a section that has a pole.

Inconclusive evidence rejects the merge, so the procedure is sound but not
complete.  It is incomplete where:

- a denominator counts as vanishing on m unless it is a constant or a
  polynomial in one sector coordinate x_t of m whose sector is one interval
  over the base m[:t-1]: the base is a point, or the sector's bounding
  sections are constants on it;
- square roots are opaque in the normal form, so equal forms that are not
  identical there, such as sqrt(4 x1^2) and 2 x1 for x1 > 0, differ;
- a piece is piecewise and the fast path does not take it;
- a flank piece over another base root cell never meets m.

A lift's verdict is the conjunction of its slots' verdicts.  The root
keeps each slot's verdict (``Cad._lift_cache``) under what it reads: the
merge level and the root cells of the slot's three section cells.

Merges at leaf level (k = n) just drop a section from one stack and are
always valid.
"""

from __future__ import annotations

from functools import cached_property

from cadreduce.cadmodel import Cad, CellIndex, LeafLabeling, validate_cad, vanishes_on, word_of
from cadreduce.errors import RuleNotApplicable, ValidationFailed
from cadreduce.expr import (
    Expr,
    Sub,
    any_node,
    canonicalize,
    eval_coord,  # noqa: F401  (re-exported; perfbench/test_perfbench.py calls it here)
    is_piecewise,
)
from cadreduce.tree import (
    CadTree,
    UNMADE,
    Cell,
    CellTable,
    apply_merge,
    build_tree,
    is_applicable,
    triple,
)


_tree_of = build_tree  # perfbench/test_perfbench.py builds trees under this name

Blocks = frozenset[frozenset[CellIndex]]


class Coarsening:
    """A labelled coarsening of a root CAD and the pivots merged to reach it
    (in ``minimize`` or ``explore``), in order, in ``applied``.

    The coarsening is its cell tree over ``root``: the leaf labels, the
    applicable pivots and the partition are read off the tree.  ``cad``, the
    root itself or a view of the tree, is made only for a caller that asks
    for it; the pipeline does not.  A merge shares every cell but the glued
    one and the path above it with its parent (``tree.apply_merge``).
    ``explore`` sets a new node's ``blocks`` from its parent's
    (``tree.merged_blocks``), so it makes no view either.
    """

    def __init__(self, cad: Cad, tree: CadTree, applied: tuple[CellIndex, ...] = ()):
        self.cad = cad  # stored in the instance, it shadows the lazy ``cad``
        self.root = cad.root
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

    @cached_property
    def cad(self) -> Cad:
        return Cad(self.tree.depth, root=self.root, tree=self.tree)

    @property
    def labels(self) -> LeafLabeling:
        return {leaf: cell.label for leaf, cell in self.tree.leaves()}

    @cached_property
    def pivots(self) -> list[CellIndex]:
        """The applicable pivots in pivot order, deepest first, then
        lexicographic: the top cell keeps them so (``tree.Cell``)."""
        return list(self.tree.top.pivots)

    @cached_property
    def blocks(self) -> Blocks:
        """The partition of the root's leaves; it identifies the coarsening."""
        return self.cad.partition_blocks()

    @property
    def leaf_count(self) -> int:
        return len(self.blocks)


def try_lift(node: Coarsening, pivot: CellIndex, table: CellTable | None = None) -> Coarsening | None:
    """The merged coarsening of the same root (labels transported, pivot
    appended to ``applied``), or None when the merge at an applicable pivot
    cannot be verified to be a CAD.  The child's tree shares all but the
    glued cell and the path above it with the parent's; a ``table``
    hash-conses the cells the merge makes (``tree.apply_merge``)."""
    if not is_applicable(node.tree, pivot):
        raise RuleNotApplicable(f"pivot {word_of(pivot)} is not applicable")
    if not _lift_allowed(node.root, triple(node.tree, pivot)):
        return None
    child = Coarsening.__new__(Coarsening)  # with no ``cad``: its view is made on first read
    child.root, child.tree, child.applied = node.root, apply_merge(node.tree, pivot, table), node.applied + (pivot,)
    return child


def _lift_allowed(root: Cad, cells: tuple[Cell, Cell, Cell]) -> bool:
    """Whether the stacks above the three merged cells glue to continuous
    sections: their subtrees are walked in parallel, as ``tree.glue`` zips
    them, and each slot of each stack is checked on its three section
    cells.  A slot's verdict reads only the root, the merge level k and the
    root cells of its three section cells, so the root keeps it under
    those, for every lift that glues the same slot."""
    k = len(cells[1].roots[0])
    frontier = [cells]
    while frontier:
        left, mid, right = frontier.pop()
        for i in range(1, len(mid.children), 2):  # the section children
            key = (k, left.children[i].roots, mid.children[i].roots, right.children[i].roots)
            verdict = root._lift_cache.get(key)
            if verdict is None:
                sections = (left.children[i], mid.children[i], right.children[i])
                verdict = root._lift_cache[key] = _glues_continuously(root, k, sections)
            if not verdict:
                return False
        # Leaves carry no stack.
        frontier += [below for below in zip(left.children, mid.children, right.children) if below[1].children]
    return True


def _pieces(root: Cad, section: Cell) -> list[tuple[CellIndex, Expr]]:
    """(root base cell, root stack function) for each root cell of a
    section cell."""
    return [(q[:-1], root.stacks[q[:-1]].functions[q[-1] // 2 - 1]) for q in section.roots]


def _form(root: Cad, section: Cell, like: Expr | None = None):
    """The section cell's kept form: the one normal form of its pieces when
    it is guard-free, else None.  It is made here on first read, from the
    root cells; a glued cell has it from its three inputs (``tree.glue``).
    A form that is ``like``, a guard-free form, is not searched for guards
    again."""
    form = section.form
    if form is UNMADE:
        # A root stack function recurs over many root cells; it is put in
        # normal form once per cell.
        forms = {canonicalize(f) for f in {id(f): f for _, f in _pieces(root, section)}.values()}
        form = forms.pop() if len(forms) == 1 else None
        if form is not None and form is not like and any_node(form, is_piecewise):
            form = None
        section.form = form
    return form


def _same(a: Expr, b: Expr | None) -> bool:
    return a is b or a == b


def _glues_continuously(root: Cad, k: int, sections: tuple[Cell, Cell, Cell]) -> bool:
    """Whether one section of the glued stack is continuous: ``sections``
    are its cells above the left flank, the seam and the right flank of a
    merge at level ``k``."""
    left, middle, right = sections
    form = _form(root, left)
    if form is not None and _same(form, _form(root, middle, form)) and _same(form, _form(root, right, form)):
        # One guard-free expression defined on all three cells (their stacks
        # are valid) is continuous on the union.
        return True
    left, middle, right = (_pieces(root, section) for section in sections)
    if any(any_node(e, is_piecewise) for _, e in middle + left + right):
        return False
    for m, f_m in middle:
        for side, direction in ((left, -1), (right, +1)):
            # Over m's own base root cell only the sector next to m reaches it.
            flank = [f for p, f in side if p[: k - 1] != m[: k - 1] or p[k - 1] == m[k - 1] + direction]
            if not flank or not all(vanishes_on(root, m, Sub(f, f_m)) for f in flank):
                return False
    return True


# ---------------------------------------------------------------------------
# Minimization (the reduction loop)


def minimize(cad: Cad, labels: LeafLabeling) -> Coarsening:
    """Greedy reduction to a coarsening admitting no liftable merge.

    Pivots are attempted in pivot order (``Coarsening.pivots``); the first
    lift that succeeds is applied and the search restarts on the result.
    The result's ``applied`` lists the merges in order.
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
