"""Labelled odd-ary trees that capture the combinatorics of a coarsening of
a CAD together with binary leaf labels recording membership in the defining
set.

A labelled coarsening is one immutable tree of ``Cell`` objects.  A cell of
depth k < n with branching count u has exactly 2u+1 children; all leaves sit
at depth n.  Every cell holds the sorted root cells whose union it is, every
leaf its label bit, and every cell, computed once when the cell is made from
its children's:

- its recursive label (the leaf bit, or the tuple of its children's labels);
- its structural key, ``(roots, child keys)``: two cells have equal keys
  exactly when their subtrees have one shape and the same root cells at
  every position;
- the applicable pivots of its subtree, as index words relative to it.

Index words, stack counts and leaf labels are read off the cells on demand,
and the pivots of a tree are its top cell's.

A merge at an even *pivot* glues the pivot and its two flanking siblings
into one cell; it applies exactly when the three recursive labels coincide.
The glued cell is new, and so are the cells on the path from the top to the
pivot's parent; every other cell is the same object in both trees.
"""

from __future__ import annotations

from typing import Iterator

from cadreduce.cadmodel import Cad, CellIndex, LeafLabeling
from cadreduce.errors import LabelMissing, PivotNotEven, RuleNotApplicable

Label = object  # 0 | 1 on leaves, nested tuples on internal nodes


class Cell:
    """One cell of a coarsening: the sorted root cells whose union it is,
    its 2u+1 children (none at leaf level), its recursive label, its
    structural key and the applicable pivots below it (see the module
    docstring).  A leaf also holds its block of the partition, the set of
    its root cells, which every coarsening that shares the leaf shares too."""

    __slots__ = ("roots", "children", "label", "key", "pivots", "block")

    def __init__(self, roots: tuple[CellIndex, ...], children: tuple[Cell, ...] = (), bit: int | None = None):
        self.roots = roots
        self.children = children
        if children:
            self.label: Label = tuple([c.label for c in children])
            self.key = (roots, tuple([c.key for c in children]))
            own = [(letter,) for letter in range(2, len(children), 2) if _glues(children, letter)]
            self.pivots: tuple[CellIndex, ...] = tuple(
                own + [(j, *p) for j, child in enumerate(children, start=1) for p in child.pivots]
            )
        else:
            self.label, self.block = bit, frozenset(roots)
            self.key, self.pivots = (roots, ()), ()


class CadTree:
    """Immutable tree of cells, ``depth`` levels below its top cell."""

    def __init__(self, depth: int, top: Cell):
        self.depth = depth
        self.top = top

    def cell(self, index: CellIndex) -> Cell:
        """The cell with this index word (which must name a cell)."""
        cell = self.top
        for letter in index:
            cell = cell.children[letter - 1]
        return cell

    def nodes(self) -> Iterator[tuple[CellIndex, Cell]]:
        """(index, cell) for every cell, depth first."""
        return walk(self.top, self.depth)

    def leaves(self) -> list[tuple[CellIndex, Cell]]:
        return [(index, cell) for index, cell in self.nodes() if not cell.children]


def walk(top: Cell, levels: int) -> Iterator[tuple[CellIndex, Cell]]:
    """(suffix, cell) for ``top`` and every cell at most ``levels`` levels
    below it, depth first, later children first; the suffix is the cell's
    index word relative to ``top``."""
    frontier = [((), top)]
    while frontier:
        suffix, cell = frontier.pop()
        yield suffix, cell
        if len(suffix) < levels:
            frontier += [(suffix + (j,), child) for j, child in enumerate(cell.children, start=1)]


def build_tree(cad: Cad, labels: LeafLabeling) -> CadTree:
    """The tree of a CAD (a root or a coarsening) with a total labelling of
    its leaves by 0 and 1; any other labelling is rejected."""
    leaves = cad.leaves()
    missing = [leaf for leaf in leaves if leaf not in labels]
    if missing:
        raise LabelMissing(f"missing labels for {missing[:3]}{'...' if len(missing) > 3 else ''}")
    if len(labels) != len(leaves):
        extra = sorted(set(labels) - set(leaves))
        raise ValueError(f"labels on cells that are not leaves: {extra[:3]}{'...' if len(extra) > 3 else ''}")
    if any(bit not in (0, 1) for bit in labels.values()):
        raise ValueError("leaf labels must be 0 or 1")

    def grow(index: CellIndex) -> Cell:
        if len(index) == cad.n:
            return Cell(cad.root_cells(index), bit=labels[index])
        return Cell(cad.root_cells(index), tuple(map(grow, cad.children(index))))

    return CadTree(cad.n, grow(()))


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


def glue(left: Cell, mid: Cell, right: Cell) -> Cell:
    """One cell from three of one shape: the union of their root cells, and
    their children glued position by position."""
    roots = tuple(sorted(left.roots + mid.roots + right.roots))
    if not left.children:
        return Cell(roots, bit=left.label)
    return Cell(roots, tuple(map(glue, left.children, mid.children, right.children)))


def apply_merge(tree: CadTree, pivot: CellIndex) -> CadTree:
    """The reduced tree after merging at an applicable pivot.

    The three merged cells have one recursive label, hence one shape, and
    ``glue`` zips them into one.  The cells from the top to the pivot's
    parent are copied, each with its root cells and its new child in place,
    so the parent has 2(u-1)+1 children.  Every other cell is shared.
    """
    if not is_applicable(tree, pivot):
        raise RuleNotApplicable(f"pivot {pivot} does not satisfy the merge condition")
    return CadTree(tree.depth, _merged(tree.top, pivot))


def _merged(cell: Cell, pivot: CellIndex) -> Cell:
    """A copy of ``cell`` with the merge at ``pivot``, an index word relative
    to it, done in its subtree."""
    kids, letter = cell.children, pivot[0]
    if len(pivot) == 1:
        return Cell(cell.roots, kids[: letter - 2] + (glue(*kids[letter - 2 : letter + 1]),) + kids[letter + 1 :])
    return Cell(cell.roots, kids[: letter - 1] + (_merged(kids[letter - 1], pivot[1:]),) + kids[letter:])


def merged_blocks(tree: CadTree, pivot: CellIndex, blocks: frozenset) -> frozenset:
    """The partition of the root's leaves after the merge at an applicable
    pivot, from ``blocks``, the tree's own, without making a cell: the leaf
    blocks of the three merged subtrees go, and the block of each glued
    leaf, the union of the three leaves at its place, comes in."""
    letter = pivot[-1]
    left, mid, right = map(_leaves, tree.cell(pivot[:-1]).children[letter - 2 : letter + 1])
    gone = [leaf.block for leaf in left + mid + right]
    return blocks.difference(gone).union([a.block.union(b.block, c.block) for a, b, c in zip(left, mid, right)])


def _leaves(cell: Cell) -> list[Cell]:
    """The leaves below a cell, in index order (all leaves have one depth)."""
    cells = [cell]
    while cells[0].children:
        cells = [child for c in cells for child in c.children]
    return cells


def sibling(pivot: CellIndex, offset: int) -> CellIndex:
    return pivot[:-1] + (pivot[-1] + offset,)
