"""Labelled odd-ary trees that capture the combinatorics of a coarsening of
a CAD together with binary leaf labels recording membership in the defining
set.

A labelled coarsening of a root CAD is one ``CadTree``: the root, one
immutable tree of ``Cell`` objects, and the merges that made it.
``build_tree`` makes the first tree, once the root's validation admits it;
every merge makes a new ``CadTree``.  A cell of depth k < n with branching
count u has exactly 2u+1 children; all leaves sit at depth n.  Every cell
holds the sorted root cells whose union it is, every leaf its label bit,
and every cell, made once with the cell:

- its recursive label (the leaf bit, or the tuple of its children's labels);
- the applicable pivots of its subtree, as index words relative to it, in
  pivot order: deepest first, then lexicographic.  A cell merges its
  children's by depth, so the pivots of a tree, its top cell's, are never
  sorted again.

A section cell also keeps its form: the one guard-free normal form of the
root stack functions over its root cells, or None when they have none.  A
lift check (``reduction``) makes it from the root cells on first read; a
glued cell has it from its three inputs when they have theirs.  A leaf's
block of the partition, the set of its root cells, is made on first read.

Index words, stack counts and leaf labels are read off the cells on demand,
with the names a root ``Cad`` reads them by.  The geometry is the root's:
the probes, the validation report, and the lift verdicts, one per slot of a
glued stack under the root cells of its three section cells
(``reduction``).

A merge at an even *pivot* glues the pivot and its two flanking siblings
into one cell; it applies exactly when the three recursive labels coincide.
The glued cell is new, and so are the cells on the path from the top to the
pivot's parent; every other cell is the same object in both trees.  A copy
on the path splices its label and pivots from the cell it replaces, so a
merge costs the glued cells and the path, not the children along it.

A merge given a ``CellTable`` hash-conses the cells it makes (Filliatre and
Conchon 2006): it looks up each glued cell and each path copy by its
structure before it makes one, so one structure is one cell.  A leaf's
structure is its root cells, an internal cell's its children; a glued triple
is also kept under its three cells.  A cell has no equality of its own, so
these keys compare cells by identity.  A coarsening's partition fixes every
cell of its tree, so two merge paths through one table that reach one
coarsening end at one top cell, which names it, and the later makes no cell.
``poset.explore`` makes one table per call; ``minimize`` merges with none.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import repeat
from typing import Iterator

from cadreduce.cadmodel import Cad, CellIndex, LeafLabeling, validate_cad
from cadreduce.errors import LabelMissing, PivotNotEven, RuleNotApplicable, ValidationFailed

Label = object  # 0 | 1 on leaves, nested tuples on internal nodes

Blocks = frozenset[frozenset[CellIndex]]

# The form of a cell that no lift check has read (see ``Cell``).
UNMADE = object()


class Cell:
    """One cell of a coarsening: the sorted root cells whose union it is,
    its 2u+1 children (none at leaf level), its recursive label, the
    applicable pivots below it in pivot order, and its form (see the module
    docstring).  A leaf also holds its block of the partition, which every
    coarsening that shares the leaf shares too.  A cell defines no equality:
    two cells are equal when they are one object, which is when they have
    one structure and were made through one ``CellTable``.

    A copy on the merge path is made with ``replacing=(cell, lo, hi)``: it
    is ``cell`` with its children lo..hi replaced by its child lo.  Its
    label and pivots are spliced from ``cell``'s, and it keeps ``cell``'s
    form, as it has ``cell``'s root cells."""

    __slots__ = ("roots", "children", "label", "pivots", "form", "_block")

    def __init__(
        self,
        roots: tuple[CellIndex, ...],
        children: tuple[Cell, ...] = (),
        bit: int | None = None,
        replacing: tuple[Cell, int, int] | None = None,
    ):
        self.roots = roots
        self.children = children
        self.form = UNMADE
        if not children:
            self.label, self.pivots, self._block = bit, (), None
        elif replacing is None:
            self.label: Label = tuple([c.label for c in children])
            own = [(letter,) for letter in range(2, len(children), 2) if _glues(children, letter)]
            below = [(j, *p) for j, child in enumerate(children, start=1) for p in child.pivots]
            # Each child's pivots come in pivot order and the children in
            # order, so a stable sort by length, longest first, merges them.
            if below:
                below.sort(key=len, reverse=True)
            self.pivots: tuple[CellIndex, ...] = tuple(below + own)
        else:
            old, lo, hi = replacing
            self.label = old.label[: lo - 1] + (children[lo - 1].label,) + old.label[hi:]
            self.pivots = _spliced_pivots(old.pivots, children, lo, hi)
            self.form = old.form

    @property
    def block(self) -> frozenset[CellIndex]:
        """A leaf's block of the partition, made on first read."""
        if self._block is None:
            self._block = frozenset(self.roots)
        return self._block


class CadTree:
    """A labelled coarsening of a root CAD: its tree of cells below ``top``
    and the pivots merged, in order, since ``build_tree`` made its first
    tree (``applied``).  Its index words, stack counts, root cells, labels,
    pivots and partition are read off the cells; its probes, its
    validation report and the lift verdicts are the root's.  ``blocks``,
    the partition of the root's leaves, is made on first read, or set by
    ``poset.explore`` from the parent's (``merged_blocks``)."""

    is_root = False

    def __init__(self, root: Cad, top: Cell, applied: tuple[CellIndex, ...] = ()):
        self.root = root
        self.top = top
        self.applied = applied
        self.blocks: Blocks | None = None

    @property
    def cad(self) -> CadTree:
        """The coarsening itself; perfbench reads a result's ``cad``."""
        return self

    @property
    def n(self) -> int:
        """The levels below the top cell; every leaf is that deep."""
        cell, n = self.top, 0
        while cell.children:
            cell, n = cell.children[0], n + 1
        return n

    def cell(self, index: CellIndex) -> Cell:
        """The cell with this index word (which must name a cell)."""
        cell = self.top
        for letter in index:
            cell = cell.children[letter - 1]
        return cell

    def nodes(self) -> Iterator[tuple[CellIndex, Cell]]:
        """(index, cell) for every cell, depth first, later children first."""
        frontier = [((), self.top)]
        while frontier:
            index, cell = frontier.pop()
            yield index, cell
            frontier += [(index + (j,), child) for j, child in enumerate(cell.children, start=1)]

    def indexed_leaves(self) -> list[tuple[CellIndex, Cell]]:
        """(index, cell) for every leaf, in the order of ``nodes``."""
        return [(index, cell) for index, cell in self.nodes() if not cell.children]

    def stack_count(self, cell: CellIndex) -> int:
        return len(self.cell(cell).children) // 2

    # Index words are read off the stack counts, as a root reads them.
    children = Cad.children
    cells_of_level = Cad.cells_of_level
    leaves = Cad.leaves

    def root_cells(self, cell: CellIndex) -> tuple[CellIndex, ...]:
        """The root cells whose union this cell is."""
        return self.cell(cell).roots

    @property
    def labels(self) -> LeafLabeling:
        return {leaf: cell.label for leaf, cell in self.indexed_leaves()}

    @property
    def pivots(self) -> tuple[CellIndex, ...]:
        """The applicable pivots in pivot order, deepest first, then
        lexicographic: the top cell keeps them so (``Cell``)."""
        return self.top.pivots

    def partition_blocks(self) -> Blocks:
        """The partition of the root's leaves induced by this coarsening's
        leaves; it identifies the coarsening."""
        if self.blocks is None:
            self.blocks = frozenset(cell.block for cell in _leaves(self.top))
        return self.blocks

    def leaf_count(self) -> int:
        return len(self.partition_blocks())


def build_tree(cad: Cad | CadTree, labels: LeafLabeling) -> CadTree:
    """The coarsening that ``minimize`` and ``explore`` start from: the
    ``labelled_tree`` of a CAD (a root or a coarsening), once
    ``validate_cad`` admits its root; ``ValidationFailed`` otherwise."""
    report = validate_cad(cad.root)
    if not report.admits_reduction:
        raise ValidationFailed(report)
    return labelled_tree(cad, labels)


def labelled_tree(cad: Cad | CadTree, labels: LeafLabeling) -> CadTree:
    """The tree of a CAD (a root or a coarsening) with a total labelling of
    its leaves by 0 and 1; any other labelling is rejected.  It reads the
    CAD's cells only, and passes no gate (``build_tree``)."""
    leaves = cad.leaves()
    missing = [leaf for leaf in leaves if leaf not in labels]
    if missing:
        raise LabelMissing(f"missing labels for {missing[:3]}{'...' if len(missing) > 3 else ''}")
    if len(labels) != len(leaves):
        extra = sorted(set(labels) - set(leaves))
        raise ValueError(f"labels on cells that are not leaves: {extra[:3]}{'...' if len(extra) > 3 else ''}")
    if any(bit not in (0, 1) for bit in labels.values()):
        raise ValueError("leaf labels must be 0 or 1")

    n = cad.n

    def grow(index: CellIndex) -> Cell:
        if len(index) == n:
            return Cell(cad.root_cells(index), bit=labels[index])
        return Cell(cad.root_cells(index), tuple(map(grow, cad.children(index))))

    return CadTree(cad.root, grow(()))


def prefix(index: CellIndex, k: int) -> CellIndex:
    """First k letters (the whole index when shorter); ``relabel_index``
    reads the pivot's level with it."""
    return index if len(index) < k else index[:k]


def relabel_index(pivot: CellIndex, index: CellIndex) -> CellIndex:
    """Where an index moves when the pivot's triple of siblings merges.

    Indices inside the pivot lineage drop by one at the pivot position,
    later siblings' lineages drop by two, everything else is unchanged.
    The merge itself renames nothing; this is the index arithmetic that
    tests check the cell tree's index views against.  It stays in the
    library because perfbench's tracer names it (``tree.relabel_index`` in
    its ``TARGETS``); it moves to ``tests/`` with that target.
    """
    if not pivot or pivot[-1] % 2 != 0:
        raise PivotNotEven(f"pivot {pivot} must be nonempty with even last letter")
    k = len(pivot)
    head = prefix(index, k)
    if len(head) < k:
        return index
    if head == pivot:
        return index[: k - 1] + (index[k - 1] - 1,) + index[k:]
    if head[: k - 1] == pivot[: k - 1] and head[k - 1] > pivot[k - 1]:
        return index[: k - 1] + (index[k - 1] - 2,) + index[k:]
    return index


def _glues(children: tuple[Cell, ...], letter: int) -> bool:
    """Whether the section child ``letter`` and its flanks share one label."""
    return children[letter - 2].label == children[letter - 1].label == children[letter].label


def _spliced_pivots(old: tuple[CellIndex, ...], children: tuple[Cell, ...], lo: int, hi: int) -> tuple[CellIndex, ...]:
    """The pivots of a copy of a cell whose pivots are ``old``, with its
    child lo in place of the children lo..hi: those under earlier children
    are kept and those under later ones renumbered, the new child's are
    prefixed with lo, and only the own pivots whose triple holds the new
    child are decided again."""
    shift = hi - lo
    spliced = [(lo, *p) for p in children[lo - 1].pivots]
    own = old
    if old and len(old[0]) > 1:  # some pivots lie below the children; the own pivots come last
        split = bisect_left(old, -1, key=lambda p: -len(p))
        below, own = old[:split], old[split:]
        spliced = [p for p in below if p[0] < lo] + spliced + [(p[0] - shift, *p[1:]) for p in below if p[0] > hi]
        spliced.sort(key=len, reverse=True)  # merged by depth, as in ``Cell``
    near = (lo,) if lo % 2 == 0 else (lo - 1, lo + 1)  # the even letters next to lo
    return (
        *spliced,
        *own[: bisect_left(own, (lo - 1,))],
        *[(letter,) for letter in near if 2 <= letter < len(children) and _glues(children, letter)],
        *[(letter - shift,) for (letter,) in own[bisect_left(own, (hi + 2,)) :]],
    )


def is_applicable(tree: CadTree, pivot: CellIndex) -> bool:
    """The merge condition at one node: ``pivot`` is a section node of the
    tree (each letter names one of its parent's 2u+1 children, the last
    letter is even) and its two flanking siblings carry the same recursive
    label as it does."""
    if not pivot or pivot[-1] % 2 != 0:
        return False
    cell = tree.top
    for letter in pivot[:-1]:
        if not 1 <= letter <= len(cell.children):
            return False
        cell = cell.children[letter - 1]
    return 2 <= pivot[-1] < len(cell.children) and _glues(cell.children, pivot[-1])


def applicable_pivots(tree: CadTree) -> set[CellIndex]:
    """All nodes that satisfy the merge condition (see ``is_applicable``),
    as kept by the top cell."""
    return set(tree.top.pivots)


class CellTable:
    """The cells that merges given this table made: the one cell of each
    structure (``cells``: a leaf's root cells, or an internal cell's tuple
    of children), and the cell glued from each triple, under the triple
    (``glued``).  The table holds its keys, so no cell in a key is freed
    and its identity stays its own while the table lives."""

    __slots__ = ("cells", "glued")

    def __init__(self):
        self.cells: dict[tuple, Cell] = {}
        self.glued: dict[tuple[Cell, Cell, Cell], Cell] = {}


def glue(left: Cell, mid: Cell, right: Cell, table: CellTable | None) -> Cell:
    """One cell from three of one shape: the union of their root cells,
    their children glued position by position, and their form when all
    three are known.  With a table, the cell is looked up by the triple,
    then by its structure, before it is made."""
    if table is not None:
        cell = table.glued.get((left, mid, right))
        if cell is not None:
            return cell
    # The left flank is the large one along a run of merges: it is copied once.
    roots = left.roots + (mid.roots + right.roots)
    if not (left.roots[-1] < mid.roots[0] and mid.roots[-1] < right.roots[0]):
        roots = tuple(sorted(roots))
    if left.children:
        key = children = tuple(map(glue, left.children, mid.children, right.children, repeat(table)))
    else:
        key, children = roots, ()
    cell = None if table is None else table.cells.get(key)
    if cell is None:
        cell = Cell(roots, children, bit=None if children else left.label)
        cell.form = _glued_form(left.form, mid.form, right.form)
        if table is not None:
            table.cells[key] = cell
    if table is not None:
        table.glued[left, mid, right] = cell
    return cell


def _glued_form(a, b, c):
    """The form of the union of three cells with these forms: their one
    form, None when they differ or one is None, unmade when one is."""
    if a is UNMADE or b is UNMADE or c is UNMADE:
        return UNMADE
    if a is not None and (a is b or a == b) and (a is c or a == c):
        return a
    return None


def apply_merge(tree: CadTree, pivot: CellIndex, table: CellTable | None = None) -> CadTree:
    """The reduced tree after merging at an applicable pivot.

    The three merged cells have one recursive label, hence one shape, and
    ``glue`` zips them into one.  The cells from the top to the pivot's
    parent are copied, each with its root cells and its new child in place,
    so the parent has 2(u-1)+1 children; each copy splices its label and
    pivots from the cell it replaces (``_merged``).  Every other cell is
    shared.  With a table, a cell of a structure made before with the table
    is that cell, not a new one.  The reduced coarsening has the same root,
    and the pivot is appended to its ``applied``.
    """
    if not is_applicable(tree, pivot):
        raise RuleNotApplicable(f"pivot {pivot} does not satisfy the merge condition")
    return merge_applicable(tree, pivot, table)


def merge_applicable(tree: CadTree, pivot: CellIndex, table: CellTable | None) -> CadTree:
    """``apply_merge`` past its check: the caller has found the pivot
    applicable (``reduction.try_lift`` checks it once per lift)."""
    return CadTree(tree.root, _merged(tree.top, pivot, table), tree.applied + (pivot,))


def _merged(cell: Cell, pivot: CellIndex, table: CellTable | None) -> Cell:
    """A copy of ``cell`` with the merge at ``pivot``, an index word relative
    to it, done in its subtree.  The copy's new child replaces the merged
    triple, or the child on the pivot's path; its label and pivots are
    spliced from ``cell``'s (``Cell``), so it reads none of its other
    children.  With a table, the copy is looked up by its children before
    it is made."""
    kids, letter = cell.children, pivot[0]
    if len(pivot) == 1:
        lo, hi, new = letter - 1, letter + 1, glue(*kids[letter - 2 : letter + 1], table)
    else:
        lo, hi, new = letter, letter, _merged(kids[letter - 1], pivot[1:], table)
    children = kids[: lo - 1] + (new,) + kids[hi:]
    copy = None if table is None else table.cells.get(children)
    if copy is None:
        copy = Cell(cell.roots, children, replacing=(cell, lo, hi))
        if table is not None:
            table.cells[children] = copy
    return copy


def triple(tree: CadTree, pivot: CellIndex) -> tuple[Cell, Cell, Cell]:
    """The three cells that the merge at a pivot glues: the pivot and its
    flanking siblings."""
    letter = pivot[-1]
    return tree.cell(pivot[:-1]).children[letter - 2 : letter + 1]


def merged_blocks(tree: CadTree, pivot: CellIndex, blocks: frozenset) -> frozenset:
    """The partition of the root's leaves after the merge at an applicable
    pivot, from ``blocks``, the tree's own: the leaf blocks of the three
    merged subtrees go, and the block of each glued leaf, the union of the
    three leaves at its place, comes in.  ``explore`` reads it once per new
    node."""
    left, mid, right = map(_leaves, triple(tree, pivot))
    gone = [leaf.block for leaf in left + mid + right]
    return blocks.difference(gone).union([a.block.union(b.block, c.block) for a, b, c in zip(left, mid, right)])


def _leaves(cell: Cell) -> list[Cell]:
    """The leaves below a cell, in index order (all leaves have one depth)."""
    cells = [cell]
    while cells[0].children:
        cells = [child for c in cells for child in c.children]
    return cells
