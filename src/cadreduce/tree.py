"""Labelled odd-ary trees that capture the combinatorics of a CAD together
with binary leaf labels recording membership in the defining set.

A node of depth k < n with branching count u has exactly 2u+1 children; all
leaves sit at depth n.  Labels are stored only on leaves; the label of an
internal node is the tuple of its children's labels, computed on demand.
A merge at an even *pivot* node collapses the pivot and its two flanking
siblings (and their subtrees) into one lineage; it applies exactly when the
three recursive labels coincide.
"""

from __future__ import annotations

from cadreduce.cadmodel import Cad, CellIndex, LeafLabeling
from cadreduce.errors import LabelMissing, PivotNotEven, RuleNotApplicable

Label = object  # 0 | 1 on leaves, nested tuples on internal nodes


class CadTree:
    """Immutable tree: depth, per-node branching counts, leaf labels.  Only
    ``apply_merge``, deriving a tree from a valid one, skips validation."""

    def __init__(self, depth: int, counts: dict[CellIndex, int], labels: dict[CellIndex, int], *, validate=True):
        self.depth = depth
        self.counts = counts
        self.labels = labels
        self._label_cache: dict[CellIndex, Label] = {}
        if validate:
            self._validate()

    def _validate(self) -> None:
        for node, u in self.counts.items():
            if len(node) >= self.depth:
                raise ValueError(f"count on node {node} at leaf depth")
            if u < 0:
                raise ValueError(f"negative branching count at {node}")
        for k in range(self.depth):
            for node in self.level(k):
                if node not in self.counts:
                    raise ValueError(f"missing branching count for {node}")
        expected_leaves = set(self.level(self.depth))
        if set(self.labels) != expected_leaves:
            missing = expected_leaves - set(self.labels)
            if missing:
                raise LabelMissing(f"unlabelled leaves: {sorted(missing)}")
            raise ValueError("labels on non-leaf nodes")
        if any(v not in (0, 1) for v in self.labels.values()):
            raise ValueError("leaf labels must be 0 or 1")

    def children(self, node: CellIndex) -> list[CellIndex]:
        return [node + (j,) for j in range(1, 2 * self.counts[node] + 2)]

    def level(self, k: int) -> list[CellIndex]:
        nodes: list[CellIndex] = [()]
        for _ in range(k):
            nodes = [c for parent in nodes for c in self.children(parent)]
        return nodes

    def nodes(self):
        for k in range(self.depth + 1):
            yield from self.level(k)

    def leaves(self) -> list[CellIndex]:
        return self.level(self.depth)

    def leaf_count(self) -> int:
        return len(self.leaves())

    def label(self, node: CellIndex) -> Label:
        """Recursive label: leaf bit, or the tuple of children labels."""
        if len(node) == self.depth:
            return self.labels[node]
        cached = self._label_cache.get(node)
        if cached is None:
            cached = tuple(self.label(c) for c in self.children(node))
            self._label_cache[node] = cached
        return cached

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CadTree)
            and self.depth == other.depth
            and self.counts == other.counts
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.depth, tuple(sorted(self.counts.items())), tuple(sorted(self.labels.items()))))


def build_tree(cad: Cad, labels: LeafLabeling) -> CadTree:
    """The tree of a CAD, with the given total leaf labelling."""
    leaves = cad.leaves()
    missing = [leaf for leaf in leaves if leaf not in labels]
    if missing:
        raise LabelMissing(f"missing labels for {missing[:3]}{'...' if len(missing) > 3 else ''}")
    counts = {cell: cad.stack_count(cell) for k in range(cad.n) for cell in cad.cells_of_level(k)}
    return CadTree(cad.n, counts, {leaf: labels[leaf] for leaf in leaves})


def prefix(index: CellIndex, k: int) -> CellIndex:
    """First k letters (the whole index when shorter)."""
    return index if len(index) < k else index[:k]


def relabel_index(pivot: CellIndex, index: CellIndex) -> CellIndex:
    """Where an index moves when the pivot's triple of siblings merges.

    Indices inside the pivot lineage drop by one at the pivot position,
    later siblings' lineages drop by two, everything else is unchanged.
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


def is_applicable(tree: CadTree, pivot: CellIndex) -> bool:
    """The merge condition at one node: ``pivot`` is a section node of the
    tree (each letter names one of its parent's 2u+1 children, the last
    letter is even) and its two flanking siblings carry the same recursive
    label as it does."""
    if not pivot or len(pivot) > tree.depth or pivot[-1] % 2 != 0:
        return False
    for k, letter in enumerate(pivot):
        if not 1 <= letter <= 2 * tree.counts[pivot[:k]] + 1:
            return False
    return tree.label(sibling(pivot, -1)) == tree.label(pivot) == tree.label(sibling(pivot, +1))


def applicable_pivots(tree: CadTree) -> set[CellIndex]:
    """All nodes that satisfy the merge condition (see ``is_applicable``)."""
    return {
        parent + (2 * j,)
        for k in range(tree.depth)
        for parent in tree.level(k)
        for j in range(1, tree.counts[parent] + 1)
        if is_applicable(tree, parent + (2 * j,))
    }


def subtree(counts: dict[CellIndex, int], depth: int, top: CellIndex) -> list[CellIndex]:
    """``top`` and every node below it down to depth ``depth``, depth first."""
    nodes, frontier = [], [top]
    while frontier:
        node = frontier.pop()
        nodes.append(node)
        if len(node) < depth:
            frontier += [node + (j,) for j in range(1, 2 * counts[node] + 2)]
    return nodes


def merge_moves(counts: dict[CellIndex, int], depth: int, pivot: CellIndex) -> tuple[list, list]:
    """The (node, ``relabel_index`` image) pairs of a merge at ``pivot``: of
    the pivot's and the right flank's lineages, which collapse onto the left
    flank's, and of the later siblings' lineages, which shift.  No other
    node moves."""
    parent, letter = pivot[:-1], pivot[-1]
    collapsed, shifted = [], []
    for j in range(letter, 2 * counts[parent] + 2):
        moves = collapsed if j <= letter + 1 else shifted
        moves += [(node, relabel_index(pivot, node)) for node in subtree(counts, depth, parent + (j,))]
    return collapsed, shifted


def apply_merge(tree: CadTree, pivot: CellIndex, moves: tuple[list, list] | None = None) -> CadTree:
    """The reduced tree after merging at an applicable pivot; ``moves`` are
    its ``merge_moves`` if the caller has them.

    The collapsing lineages have the left flank's recursive label, hence its
    counts and leaf labels, and are dropped; the shifted ones keep their
    values under their images; the rest is copied.  So the parent keeps
    2(u-1)+1 consecutive children, every node its count or label, and the
    result is valid when ``tree`` is: it is not validated again.
    """
    if not is_applicable(tree, pivot):
        raise RuleNotApplicable(f"pivot {pivot} does not satisfy the merge condition")
    collapsed, shifted = moves or merge_moves(tree.counts, tree.depth, pivot)
    depth = tree.depth
    counts, labels = dict(tree.counts), dict(tree.labels)
    for node, _image in collapsed:
        del (labels if len(node) == depth else counts)[node]
    values = [(labels if len(node) == depth else counts).pop(node) for node, _image in shifted]
    for (node, image), value in zip(shifted, values):
        (labels if len(node) == depth else counts)[image] = value
    counts[pivot[:-1]] -= 1
    return CadTree(depth, counts, labels, validate=False)


def sibling(pivot: CellIndex, offset: int) -> CellIndex:
    return pivot[:-1] + (pivot[-1] + offset,)


def tree_to_dot(tree: CadTree, title: str = "cadtree") -> str:
    """Graphviz DOT for a labelled tree: green leaves are inside the set,
    red ones outside."""
    lines = [f'digraph "{title}" {{', "  node [fontname=\"Helvetica\"];"]
    for node in tree.nodes():
        name = "n_" + "_".join(map(str, node)) if node else "n_root"
        text = ".".join(map(str, node)) if node else "ε"
        if len(node) == tree.depth:
            color = "palegreen" if tree.labels[node] == 1 else "lightcoral"
            lines.append(f'  {name} [label="{text}", style=filled, fillcolor={color}];')
        else:
            lines.append(f'  {name} [label="{text}"];')
    for node in tree.nodes():
        if len(node) == tree.depth:
            continue
        parent_name = "n_" + "_".join(map(str, node)) if node else "n_root"
        for child in tree.children(node):
            child_name = "n_" + "_".join(map(str, child))
            lines.append(f"  {parent_name} -> {child_name};")
    lines.append("}")
    return "\n".join(lines) + "\n"
