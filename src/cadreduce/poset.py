"""The poset of coarsenings below a root CAD.

Exploration enumerates the closure of the root under liftable merges,
deduplicating coarsenings by their interned top cell, which stands for the
partition of root leaves they induce; the graph is keyed by that partition.
The minimal elements are the sinks of the resulting graph.

**One-sink theorem.**  On the graph ``explore`` builds, these are
equivalent: a minimum exists, the merge relation is confluent, and the graph
has exactly one sink.  The graph is finite (its nodes are partitions of the
root's leaves), rooted (every node is reached from the root), closed under
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
from cadreduce.tree import Blocks, CadTree, CellTable, build_tree, merged_blocks


@dataclass
class PosetGraph:
    root_key: Blocks
    nodes: dict[Blocks, CadTree] = field(default_factory=dict)
    # The out-edges of every explored node: merge pivot -> target node.
    out_edges: dict[Blocks, dict[CellIndex, Blocks]] = field(default_factory=dict)

    @property
    def edges(self) -> frozenset[tuple[Blocks, CellIndex, Blocks]]:
        """All edges (source, pivot, target), read off ``out_edges``."""
        return frozenset(
            (src, pivot, dst) for src, out in self.out_edges.items() for pivot, dst in out.items()
        )

    # ``successors`` and ``descendants`` are traced by perfbench's tracer
    # (its ``TARGETS``); the tests' confluence oracles walk the graph with them.
    def successors(self, key: Blocks) -> frozenset[Blocks]:
        return frozenset(self.out_edges.get(key, {}).values())

    def descendants(self, key: Blocks) -> set[Blocks]:
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
    so a child is known by its top cell, a merge into a node seen before
    makes no cell, and a node's partition is read off its parent's once,
    when the node is new."""
    start = build_tree(root, labels)
    # A tree's partition is that of the CAD it is made from, whose leaves,
    # if it is a coarsening, keep their blocks: they are not made again.
    start.blocks = root.partition_blocks()
    graph = PosetGraph(root_key=start.blocks, nodes={start.blocks: start})
    seen = {start.top: start}
    queue = deque([start])
    table = CellTable()
    while queue:
        node = queue.popleft()
        out = graph.out_edges[node.blocks] = {}
        for pivot in node.pivots:
            child = try_lift(node, pivot, table)
            if child is None:
                continue
            known = seen.setdefault(child.top, child)
            if known is child:
                child.blocks = merged_blocks(node, pivot, node.blocks)
                graph.nodes[child.blocks] = child
                queue.append(child)
            out[pivot] = known.blocks
    return graph


def minimal_elements(graph: PosetGraph) -> set[Blocks]:
    """Nodes with no outgoing merge."""
    return {key for key, out in graph.out_edges.items() if not out}


def minimum_element(graph: PosetGraph) -> Blocks | None:
    """The unique sink, if there is exactly one.

    Every node reaches some sink, because the graph is finite and every
    merge lowers the leaf count; so a single sink is reached from every node
    and is the minimum, and with two sinks neither is below the other (see
    the module docstring).
    """
    sinks = minimal_elements(graph)
    if len(sinks) != 1:
        return None
    (sink,) = sinks
    return sink


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
    minimal = sorted(minimal_elements(graph), key=lambda k: (len(k), sorted(map(sorted, k))))
    minimum = minimum_element(graph)

    def describe(key: Blocks) -> dict:
        node = graph.nodes[key]
        return {
            "leaf_count": node.leaf_count(),
            "history": [word_of(p) for p in node.applied],
        }

    return {
        "node_count": len(graph.nodes),
        "edge_count": sum(map(len, graph.out_edges.values())),
        "root_leaf_count": graph.nodes[graph.root_key].leaf_count(),
        "minimal": [describe(k) for k in minimal],
        "minimum": describe(minimum) if minimum is not None else None,
        "confluent": len(minimal) == 1,
    }
