"""Lifting combinatorial tree merges to geometric CAD merges.

A merge at a pivot of level k < n is a genuine CAD operation only when the
section functions above the three merged cells glue to continuous functions
over the union and the glued stacks are ordered.  The only evidence of
continuity is an exact identity on the seam.

The order is not checked per merge.  Over each root cell below a merged
cell, the sections of the glued stack are root sections whose letters
strictly increase with the slot, so it is ordered wherever the root's
stacks are.  ``tree.build_tree`` admits only a root whose stacks
``validate_cad`` found ordered: each adjacent pair proven on its whole cell,
or compared at that root cell's probes (``Cad.cell_points``).  A coarsening
(``tree.CadTree``) has no probes of its own, and its report is the root's.

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
keeps each slot's verdict (``Cad._lift_cache``) under the merge level and
the slot's three section cells.  A cell defines no equality, so the key
compares the cells by identity; the memo holds its keys, so no cell in one
is freed and no id is reused.  A verdict reads only the root, the level and
the three cells' root cells, and a cell is immutable, so a hit is sound.  A
key costs O(1) to make and hash however many root cells the sections hold.
Lifts that glue one slot through shared cells share its verdict: the merges
of one ``poset.explore`` share a ``tree.CellTable``, which makes one cell of
each structure, and the lifts of one ``minimize`` share the cells that its
merges leave in place.

Merges at leaf level (k = n) just drop a section from one stack and are
always valid.
"""

from __future__ import annotations

from cadreduce.cadmodel import Cad, CellIndex, LeafLabeling, vanishes_on, word_of
from cadreduce.errors import RuleNotApplicable
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
    build_tree,
    is_applicable,
    labelled_tree,
    merge_applicable,
    triple,
)


_tree_of = labelled_tree  # perfbench/test_perfbench.py builds trees under this name


def try_lift(node: CadTree, pivot: CellIndex, table: CellTable | None = None) -> CadTree | None:
    """The merged coarsening of the same root (labels transported, pivot
    appended to ``applied``), or None when the merge at an applicable pivot
    cannot be verified to be a CAD.  The pivot is checked once, then merged
    as ``tree.apply_merge`` merges it: the child's tree shares all but the
    glued cell and the path above it with the parent's, and a ``table``
    hash-conses the cells the merge makes."""
    if not is_applicable(node, pivot):
        raise RuleNotApplicable(f"pivot {word_of(pivot)} is not applicable")
    if not _lift_allowed(node.root, len(pivot), triple(node, pivot)):
        return None
    return merge_applicable(node, pivot, table)


def _lift_allowed(root: Cad, k: int, cells: tuple[Cell, Cell, Cell]) -> bool:
    """Whether the stacks above the three cells a merge at level ``k``
    glues glue to continuous sections: their subtrees are walked in
    parallel, as ``tree.glue`` zips them, and each slot of each stack is
    checked on its three section cells.  A slot's verdict reads only the
    root, k and the root cells of its three section cells, which are
    immutable, so the root keeps it under k and the three cells, compared
    by identity, for every lift that glues the same cells."""
    verdicts = root._lift_cache
    frontier = [cells]
    while frontier:
        left, mid, right = frontier.pop()
        for i in range(1, len(mid.children), 2):  # the section children
            sections = left.children[i], mid.children[i], right.children[i]
            key = (k, *sections)
            verdict = verdicts.get(key)
            if verdict is None:
                verdict = verdicts[key] = _glues_continuously(root, k, sections)
            if not verdict:
                return False
        if mid.children and mid.children[0].children:  # leaves carry no stack
            frontier += zip(left.children, mid.children, right.children)
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
        # A root stack function recurs over many root cells; the root puts
        # it in normal form once, and its dict hits by identity, where
        # ``canonicalize``'s cache compares with the first equal function
        # of the process, often another root's, field by field.
        made, forms = root._normal_forms, set()
        for _, f in _pieces(root, section):
            g = made.get(f)
            if g is None:
                g = made[f] = canonicalize(f)
            forms.add(g)
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


def minimize(cad: Cad | CadTree, labels: LeafLabeling) -> CadTree:
    """Greedy reduction to a coarsening admitting no liftable merge.

    Pivots are attempted in pivot order (``CadTree.pivots``); the first
    lift that succeeds is applied and the search restarts on the result.
    The result's ``applied`` lists the merges in order.

    The scan reads the top cell's kept pivots one at a time, so it makes no
    word past the pivot that lifts.  A merge then costs as many Python steps
    at every size of the CAD: the lift check keys each slot by its cells, and
    the merge makes the glued cells and the path copies (``tree``).  What
    grows with the CAD is the root's tree, made once per root and labelling
    (``explore`` starts from it too), and the C-level slices of each copy's
    children, label and own pivots.
    """
    node = build_tree(cad, labels)
    while True:
        for pivot in node.top.each_pivot():
            child = try_lift(node, pivot)
            if child is not None:
                node = child
                break
        else:
            return node
