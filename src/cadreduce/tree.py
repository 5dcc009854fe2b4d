"""Labelled odd-ary trees that capture the combinatorics of a coarsening of
a CAD together with binary leaf labels recording membership in the defining
set.

A labelled coarsening of a root CAD is one ``CadTree``: the root, one
immutable tree of ``Cell`` objects, and the merges that made it.
``build_tree`` makes the first tree, once the root's validation admits it,
and the root keeps it for its labels, so ``minimize`` and ``explore`` on one
labelled root start from one tree; every merge makes a new ``CadTree``.  A
cell of depth k < n with branching count u has exactly 2u+1 children; all
leaves sit at depth n.  Every cell holds the root cells whose union it is,
every leaf its label bit, and every cell, made once with the cell:

- its recursive label (the leaf bit, or the tuple of its children's labels);
- the applicable pivots of its subtree, in pivot order: deepest first, then
  lexicographic.  Those below its children are index words relative to it,
  its own are letters counted from its last child.  A cell merges its
  children's by depth, so the pivots of a tree, its top cell's, are never
  sorted again.

A section cell also keeps its form: the one guard-free normal form of the
root stack functions over its root cells, or None when they have none.  A
lift check (``reduction``) makes it from the root cells on first read; a
glued cell has it from its three inputs when they have theirs.

Index words, stack counts and leaf labels are read off the cells on demand,
with the names a root ``Cad`` reads them by.  The geometry is the root's:
the probes, the validation report, and the lift verdicts, one per slot of a
glued stack under its three section cells (``reduction``).

A merge at an even *pivot* glues the pivot and its two flanking siblings
into one cell; it applies exactly when the three recursive labels coincide.
The glued cell is new, and so are the cells on the path from the top to the
pivot's parent; every other cell is the same object in both trees.  A merge
costs the glued cells and the path.  A glued cell made with no table
keeps its inputs' root cells as a ``RootUnion`` until they are read, so a
merge need not walk the root cells it glues (a table lists them, as its
keys are small).  A copy on the path splices its label and pivots from the
cell it replaces.  Its own pivots after the merged children keep their
count from the last child, so only those before them are counted again;
the pivots below its children are filtered and those under later children
renumbered (a copy whose children are leaves has none).  What grows with a
copied cell of u children is done in C: slicing its children, its label and
its own pivots.

A merge given a ``CellTable`` hash-conses the cells it makes (Filliatre and
Conchon 2006): it looks up each glued cell and each path copy by its
structure before it makes one, so one structure is one cell.  A leaf's
structure is its root cells, an internal cell's its children; a glued triple
is also kept under its three cells.  A cell has no equality of its own, so
these keys compare cells by identity.  A coarsening's partition of the
root's leaves fixes every cell of its tree, so two merge paths through one
table that reach one coarsening end at one top cell, which names it, and
the later makes no cell.  ``poset.explore`` makes one table per call and
knows each node by its top cell; ``minimize`` merges with none.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import islice, repeat
from operator import neg
from typing import Iterator

from cadreduce.cadmodel import Cad, CellIndex, LeafLabeling, validate_cad
from cadreduce.errors import LabelMissing, PivotNotEven, RuleNotApplicable, ValidationFailed

Label = object  # 0 | 1 on leaves, nested tuples on internal nodes

Blocks = frozenset[frozenset[CellIndex]]

# The form of a cell that no lift check has read (see ``Cell``).
UNMADE = object()


class Cell:
    """One cell of a coarsening: its root cells, its 2u+1 children (none
    at leaf level), its recursive label, the applicable pivots below it,
    and its form (see the module docstring).  A cell defines no equality:
    two cells are equal when they are one object, which is when they have
    one structure and were made through one ``CellTable``.

    ``roots`` reads the root cells as a sorted tuple; a glued cell made
    with no table keeps them as a ``RootUnion`` until that first read.

    The pivots are kept in two parts: ``below``, the pivots under the
    children as index words relative to the cell, in pivot order; and
    ``own``, the cell's own pivot letters, each as its count from the last
    child (u - letter), in increasing letter.  ``pivots`` lists both in
    pivot order, ``below`` first.

    A copy on the merge path is made with ``replacing=(cell, lo, hi)``: it
    is ``cell`` with its children lo..hi replaced by its child lo.  It has
    ``cell``'s root cells and its form, and its label and pivots are
    spliced from ``cell``'s (``_spliced_pivots``)."""

    __slots__ = ("_roots", "children", "label", "below", "own", "form")

    def __init__(
        self,
        roots: tuple[CellIndex, ...] | RootUnion,
        children: tuple[Cell, ...] = (),
        bit: int | None = None,
        replacing: tuple[Cell, int, int] | None = None,
    ):
        self._roots = roots
        self.children = children
        self.form = UNMADE
        if not children:
            self.label, self.below, self.own = bit, (), ()
        elif replacing is None:
            self.label: Label = tuple([c.label for c in children])
            below = [p for j, child in enumerate(children, start=1) if child.below or child.own for p in _prefixed(j, child)]
            # Each child's pivots come in pivot order and the children in
            # order, so a stable sort by length, longest first, merges them.
            if below:
                below.sort(key=len, reverse=True)
            self.below: tuple[CellIndex, ...] = tuple(below)
            u = len(children)
            self.own: tuple[int, ...] = tuple([u - letter for letter in range(2, u, 2) if _glues(children, letter)])
        else:
            old, lo, hi = replacing
            self.label = old.label[: lo - 1] + (children[lo - 1].label,) + old.label[hi:]
            self.below, self.own = _spliced_pivots(old, children, lo, hi)
            self.form = old.form

    @property
    def roots(self) -> tuple[CellIndex, ...]:
        """The sorted root cells whose union the cell is, listed on first
        read."""
        roots = self._roots
        if type(roots) is not tuple:
            roots = self._roots = _listed(roots)
        return roots

    @property
    def pivots(self) -> tuple[CellIndex, ...]:
        """The applicable pivots below the cell in pivot order, as index
        words relative to it."""
        u = len(self.children)
        return self.below + tuple([(u - d,) for d in self.own])

    def each_pivot(self) -> Iterator[CellIndex]:
        """``pivots``, one at a time: a scan that stops early makes no word
        past where it stops."""
        yield from self.below
        u = len(self.children)
        for d in self.own:
            yield (u - d,)


class RootUnion(tuple):
    """The root cells of a glued cell before they are read: the tuple of
    its three inputs' (each a tuple of root cells or a ``RootUnion``).
    Making one costs O(1); listing it (``_listed``) costs its root cells."""

    __slots__ = ()


def _listed(parts: tuple) -> tuple[CellIndex, ...]:
    """The root cells of disjoint parts (tuples of root cells or
    ``RootUnion``s), as a sorted tuple."""
    a, b, c = parts
    if type(a) is type(b) is type(c) is tuple and a[-1] < b[0] and b[-1] < c[0]:
        return a + b + c
    out: list[CellIndex] = []
    stack = list(parts)
    while stack:
        part = stack.pop()
        if type(part) is RootUnion:
            stack += part
        else:
            out += part
    return tuple(sorted(out))


class CadTree:
    """A labelled coarsening of a root CAD: its tree of cells below ``top``
    and the pivots merged, in order, since ``build_tree`` made its first
    tree (``applied``).  Its index words, stack counts, root cells, labels,
    pivots, leaf count and partition are read off the cells, the partition
    only when asked for; its probes, its validation report and the lift
    verdicts are the root's."""

    is_root = False

    def __init__(self, root: Cad, top: Cell, applied: tuple[CellIndex, ...] = ()):
        self.root = root
        self.top = top
        self.applied = applied

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

    def indexed_leaves(self) -> list[tuple[CellIndex, Cell]]:
        """(index, cell) for every leaf, in index order."""
        level = [((), self.top)]
        while level[0][1].children:  # all leaves have one depth
            level = [(index + (j,), child) for index, cell in level for j, child in enumerate(cell.children, start=1)]
        return level

    def stack_count(self, cell: CellIndex) -> int:
        return len(self.cell(cell).children) // 2

    # Index words are read off the stack counts, as a root reads them.
    children = Cad.children
    cells_of_level = Cad.cells_of_level
    leaves = Cad.leaves

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
        return frozenset(frozenset(cell.roots) for cell in _leaves(self.top))

    def leaf_count(self) -> int:
        return len(_leaves(self.top))


def build_tree(cad: Cad | CadTree, labels: LeafLabeling) -> CadTree:
    """The coarsening that ``minimize`` and ``explore`` start from, once
    ``validate_cad`` admits its root (``ValidationFailed`` otherwise): the
    ``labelled_tree`` of a root, or a coarsening's own cells, with no merge
    applied.  A coarsening is labelled by its own leaves' labels; other
    labels raise ``ValueError``.  A root keeps its last tree with a copy of
    its labels (``Cad._tree``) and gives it again for equal labels: cells
    are immutable, and what they make on first read reads only their root
    cells.  Other labels, or the same dict edited since, get a new tree."""
    report = validate_cad(cad.root)
    if not report.admits_reduction:
        raise ValidationFailed(report)
    if not cad.is_root:
        if not _labels_its_leaves(cad, labels):
            _check_bits(labels)
            raise ValueError("a coarsening's labels are its own leaves' labels")
        return CadTree(cad.root, cad.top)
    if cad._tree is None or cad._tree[0] != labels:
        cad._tree = (dict(labels), labelled_tree(cad, labels))
    return cad._tree[1]


def _check_bits(labels: LeafLabeling) -> None:
    """Only the ints 0 and 1 label a leaf: ``True`` and ``1.0`` do not."""
    bits = labels.values()
    if not ({*map(type, bits)} <= {int} and {*bits} <= {0, 1}):
        raise ValueError("leaf labels must be 0 or 1")


def _labels_its_leaves(tree: CadTree, labels: LeafLabeling) -> bool:
    """Whether ``labels`` are the labels of the tree's leaves: as many, and
    each word names a leaf that carries the word's bit, an int.  Each word
    is walked down from the top cell, so no index word is made."""
    if len(labels) != tree.leaf_count():
        return False
    for word, bit in labels.items():
        cell = tree.top
        for letter in word:
            if not 1 <= letter <= len(cell.children):
                return False
            cell = cell.children[letter - 1]
        if cell.children or cell.label != bit or type(bit) is not int:
            return False
    return True


def labelled_tree(cad: Cad, labels: LeafLabeling) -> CadTree:
    """The tree of a root CAD with a total labelling of its leaves by 0 and
    1; any other labelling is rejected.  It reads the CAD's stacks only, and
    passes no gate (``build_tree``).  The index words are listed level by
    level, each cell's width read off its stack, and the cells made from
    the leaves up, each parent's children sliced from the level below."""
    if not cad.is_root:
        raise ValueError("labelled_tree grows a root CAD; build_tree starts from a coarsening")
    stacks = cad.stacks
    levels: list[list[CellIndex]] = [[()]]
    for _ in range(cad.n):
        levels.append([p + (j,) for p in levels[-1] for j in range(1, 2 * len(stacks[p].functions) + 2)])
    leaves = levels.pop()  # in index order, as ``Cad.leaves`` lists them
    cells = [Cell((leaf,), (), labels.get(leaf)) for leaf in leaves]
    for words in reversed(levels):
        below = iter(cells)
        cells = [Cell((w,), tuple(islice(below, 2 * len(stacks[w].functions) + 1))) for w in words]
    if not all(map(labels.__contains__, leaves)):
        missing = [leaf for leaf in leaves if leaf not in labels]
        raise LabelMissing(f"missing labels for {missing[:3]}{'...' if len(missing) > 3 else ''}")
    if len(labels) != len(leaves):
        extra = sorted(set(labels) - set(leaves))
        raise ValueError(f"labels on cells that are not leaves: {extra[:3]}{'...' if len(extra) > 3 else ''}")
    _check_bits(labels)
    return CadTree(cad, cells[0])


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


def _prefixed(letter: int, child: Cell) -> list[CellIndex]:
    """The pivots of ``child``, the child ``letter`` of a cell, relative
    to that cell, in pivot order."""
    u = len(child.children)
    return [(letter, *p) for p in child.below] + [(letter, u - d) for d in child.own]


def _spliced_pivots(old: Cell, children: tuple[Cell, ...], lo: int, hi: int) -> tuple[tuple[CellIndex, ...], tuple[int, ...]]:
    """The pivots (``below``, ``own``) of a copy of ``old`` with its child lo
    in place of the children lo..hi.  Below: those under earlier children
    are kept, those under later ones renumbered, and the new child's are
    prefixed with lo.  Own: those after the merged children keep their
    count from the last child, those before them are counted again, and
    only those whose triple holds the new child are decided again."""
    shift, u = hi - lo, len(children)
    below = old.below
    new = children[lo - 1]
    if below or new.below or new.own:
        spliced = [p for p in below if p[0] < lo] + _prefixed(lo, new)
        spliced += [(p[0] - shift, *p[1:]) if shift else p for p in below if p[0] > hi]
        spliced.sort(key=len, reverse=True)  # merged by depth, as in ``Cell``
        below = tuple(spliced)
    own, v = old.own, len(old.children)
    # ``own`` counts from the last child, so its letters v - d increase.
    before, after = bisect_left(own, lo - 1 - v, key=neg), bisect_left(own, hi + 2 - v, key=neg)
    near = (lo,) if lo % 2 == 0 else (lo - 1, lo + 1)  # the even letters next to lo
    return below, (
        *[d - shift for d in own[:before]],
        *[u - letter for letter in near if 2 <= letter < u and _glues(children, letter)],
        *own[after:],
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
    # A table looks a leaf up by its listed root cells.
    parts = left._roots, mid._roots, right._roots
    roots = RootUnion(parts) if table is None else _listed(parts)
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
        copy = Cell(cell._roots, children, replacing=(cell, lo, hi))
        if table is not None:
            table.cells[children] = copy
    return copy


def triple(tree: CadTree, pivot: CellIndex) -> tuple[Cell, Cell, Cell]:
    """The three cells that the merge at a pivot glues: the pivot and its
    flanking siblings."""
    letter = pivot[-1]
    return tree.cell(pivot[:-1]).children[letter - 2 : letter + 1]


def _leaves(cell: Cell) -> list[Cell]:
    """The leaves below a cell, in index order (all leaves have one depth)."""
    cells = [cell]
    while cells[0].children:
        cells = [child for c in cells for child in c.children]
    return cells
