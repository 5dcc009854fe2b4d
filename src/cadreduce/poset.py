"""The poset of coarsenings below a root CAD.

Exploration enumerates the closure of the root under liftable merges.  A
coarsening is known by its interned top cell (``tree.CellTable``), which
stands for the partition of root leaves it induces, and the graph is keyed
by that cell; a partition is made only when one is asked for
(``CadTree.partition_blocks``).  The minimal elements are the sinks of the
resulting graph.

**One-sink theorem.**  On the graph ``explore`` builds, these are
equivalent: a minimum exists, the merge relation is confluent, and the graph
has exactly one sink.  The graph is finite (its nodes stand for partitions of
the root's leaves), rooted (every node is reached from the root), closed under
lifts (every liftable merge of a node is one of its edges, so its sinks are
exactly the coarsenings that admit no liftable merge), and every edge
strictly lowers the leaf count, so it terminates.  Hence every node reaches
a sink: follow any path, which ends because the leaf count falls.  If there
is one sink, every node reaches it, so it is the minimum, and any two
reducts of a node rejoin there: the relation is confluent.  If there are two
sinks, the root reaches both, and neither reaches anything but itself, so
that divergence never rejoins and neither sink is below the other: no
minimum, no confluence.  By Newman's lemma (Newman 1942) local confluence
is then also equivalent, since the relation terminates.  The definitional
checks of local and global confluence are test oracles for the sink count,
in ``tests/oracles.py``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from cadreduce.cadmodel import Cad, CellIndex, LeafLabeling, SectionStack, word_of
from cadreduce.expr import eval_coord  # noqa: F401  (re-exported; perfbench/test_perfbench.py calls it here)
from cadreduce.reduction import try_lift
from cadreduce.tree import applicable_pivots  # noqa: F401  (re-exported; perfbench/test_perfbench.py calls it here)
from cadreduce.tree import Blocks, CadTree, Cell, CellTable, build_tree


@dataclass
class PosetGraph:
    # Every node under its top cell, in breadth-first order: the root first.
    nodes: dict[Cell, CadTree] = field(default_factory=dict)
    # The out-edges of every explored node: merge pivot -> target node.
    out_edges: dict[Cell, dict[CellIndex, Cell]] = field(default_factory=dict)

    @property
    def edges(self) -> frozenset[tuple[Cell, CellIndex, Cell]]:
        """All edges (source, pivot, target), read off ``out_edges``."""
        return frozenset(
            (src, pivot, dst) for src, out in self.out_edges.items() for pivot, dst in out.items()
        )

    # ``successors`` and ``descendants`` are traced by perfbench's tracer
    # (its ``TARGETS``); the tests' confluence oracles walk the graph with them.
    def successors(self, key: Cell) -> frozenset[Cell]:
        return frozenset(self.out_edges.get(key, {}).values())

    def descendants(self, key: Cell) -> set[Cell]:
        """Reflexive-transitive closure of the edge relation from a node."""
        seen = {key}
        frontier = [key]
        while frontier:
            node = frontier.pop()
            for nxt in self.successors(node):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen


def explore(root: Cad | CadTree, labels: LeafLabeling) -> PosetGraph:
    """Breadth-first closure of a labelled CAD (``tree.build_tree``) under
    liftable merges.  Every node is a ``tree.CadTree``, one per lift
    accepted, and keeps the merges of the first path that reaches it.
    Its cells are hash-consed in one table per call (``tree.CellTable``),
    so a node is known by its top cell, the key of ``PosetGraph``, and a
    merge into a node seen before makes no cell.  No partition is made.
    The start node is the root's tree for these labels: the one
    ``minimize`` started from, if it ran first."""
    start = build_tree(root, labels)
    graph = PosetGraph({start.top: start})
    queue = deque([start])
    table = CellTable()
    while queue:
        node = queue.popleft()
        out = graph.out_edges[node.top] = {}
        for pivot in node.pivots:
            child = try_lift(node, pivot, table)
            if child is None:
                continue
            if graph.nodes.setdefault(child.top, child) is child:
                queue.append(child)
            out[pivot] = child.top
    return graph


def _sinks(graph: PosetGraph) -> list[CadTree]:
    """The nodes with no outgoing merge."""
    return [graph.nodes[key] for key, out in graph.out_edges.items() if not out]


def minimal_elements(graph: PosetGraph) -> set[Blocks]:
    """The partitions of the sinks, made for the sinks only."""
    return {node.partition_blocks() for node in _sinks(graph)}


def minimum_element(graph: PosetGraph) -> CadTree | None:
    """The unique sink, if there is exactly one.

    Every node reaches some sink, because the graph is finite and every
    merge lowers the leaf count; so a single sink is reached from every node
    and is the minimum, and with two sinks neither is below the other (see
    the module docstring).
    """
    sinks = _sinks(graph)
    return sinks[0] if len(sinks) == 1 else None


# ---------------------------------------------------------------------------
# Cylinder extension


def extend_cylinder(cad: Cad, labels: LeafLabeling, n: int) -> tuple[Cad, LeafLabeling]:
    """Extend a root CAD of R^m to R^n (n >= m) by full-line cylinders:
    every added level has one sector per cell.  Labels are inherited."""
    if not cad.is_root:
        raise ValueError("extend_cylinder expects a root CAD")
    if n < cad.n:
        raise ValueError(f"cannot extend R^{cad.n} down to R^{n}")
    if n == cad.n:
        return cad, dict(labels)
    stacks = dict(cad.stacks)
    cells = cad.leaves()
    for _level in range(cad.n, n):
        for cell in cells:
            stacks[cell] = SectionStack(())
        cells = [cell + (1,) for cell in cells]
    new_labels = {leaf + (1,) * (n - cad.n): bit for leaf, bit in labels.items()}
    return Cad(n, stacks), new_labels


# ---------------------------------------------------------------------------
# Reports


def poset_report(graph: PosetGraph) -> dict:
    """JSON-ready summary of an explored poset.

    The poset is confluent exactly when it has one sink, which is then its
    minimum: every node reaches a sink, as the graph is finite and every
    merge lowers the leaf count, so one sink is reached from every node, and
    two sinks reached from the root never rejoin (Newman 1942; see the
    module docstring).
    """
    minimum = minimum_element(graph)
    minimal = [minimum] if minimum is not None else sorted(_sinks(graph), key=_sink_order)

    def describe(node: CadTree) -> dict:
        return {
            "leaf_count": node.leaf_count(),
            "history": [word_of(p) for p in node.applied],
        }

    return {
        "node_count": len(graph.nodes),
        "edge_count": sum(map(len, graph.out_edges.values())),
        "root_leaf_count": next(iter(graph.nodes.values())).leaf_count(),
        "minimal": [describe(node) for node in minimal],
        "minimum": describe(minimum) if minimum is not None else None,
        "confluent": len(minimal) == 1,
    }


def _sink_order(node: CadTree):
    """Two or more sinks are listed by leaf count, then by their leaves'
    root cells: the order of their partitions' sorted blocks."""
    roots = sorted(cell.roots for _index, cell in node.indexed_leaves())
    return len(roots), roots
