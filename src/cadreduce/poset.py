"""The poset of coarsenings below a root CAD.

Exploration enumerates the closure of the root under liftable merges,
deduplicating coarsenings by the partition of root leaves they induce.  The
minimal elements are the sinks of the resulting graph.

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

from cadreduce.cadmodel import Cad, CellIndex, LeafLabeling, SectionStack, locate, word_of
from cadreduce.errors import SectionsCross, UnknownOrder
from cadreduce.expr import Expr, Point, any_node, compare_coords, eval_coord, is_piecewise, sector_coords
from cadreduce.reduction import Blocks, Coarsening, try_lift
from cadreduce.tree import applicable_pivots  # noqa: F401  (re-exported; perfbench/test_perfbench.py calls it here)


@dataclass
class PosetGraph:
    root_key: Blocks
    nodes: dict[Blocks, Coarsening] = field(default_factory=dict)
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


def explore(root: Cad, labels: LeafLabeling) -> PosetGraph:
    """Breadth-first closure of the root under liftable merges; a node keeps
    the merges of the first path that reaches it.  Every child's partition
    is known before its tree (see ``Coarsening``), so only a child whose
    partition is new is built, when it is explored."""
    start = Coarsening.of(root, labels)
    graph = PosetGraph(root_key=start.blocks, nodes={start.blocks: start})
    queue = deque([start])
    while queue:
        node = queue.popleft()
        out = graph.out_edges[node.blocks] = {}
        for pivot in node.pivots:
            child = try_lift(node, pivot)
            if child is None:
                continue
            out[pivot] = child.blocks
            if child.blocks not in graph.nodes:
                graph.nodes[child.blocks] = child
                queue.append(child)
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
# Common refinement (restricted: sections from the two CADs must not cross)


@dataclass
class _MergedSection:
    expr: Expr
    slot1: int | None
    slot2: int | None


def common_refinement(
    c1: Cad,
    labels1: LeafLabeling,
    c2: Cad,
    labels2: LeafLabeling,
) -> tuple[Cad, LeafLabeling]:
    """A CAD refining both inputs, built level by level by merging section
    stacks, whose order is compared at three probe points per cell; fails
    with SectionsCross when sections from the two CADs cross inside a merged
    cell (full CAD construction is out of scope)."""
    if not (c1.is_root and c2.is_root):
        raise ValueError("common refinement expects root CADs")
    if c1.n != c2.n:
        raise ValueError("dimensions differ")
    n = c1.n
    stacks: dict[CellIndex, SectionStack] = {}
    leaf_sources: dict[CellIndex, tuple[CellIndex, CellIndex]] = {}

    def recurse(index: CellIndex, idx1: CellIndex, idx2: CellIndex, points: list[Point]):
        if len(index) == n:
            leaf_sources[index] = (idx1, idx2)
            return
        merged = _merge_stacks(c1.stacks[idx1].functions, c2.stacks[idx2].functions, points)
        stacks[index] = SectionStack(tuple(m.expr for m in merged))
        u = len(merged)
        for letter in range(1, 2 * u + 2):
            passed = merged[: letter // 2] if letter % 2 == 0 else merged[: (letter - 1) // 2]
            consumed1 = sum(1 for m in passed if m.slot1 is not None)
            consumed2 = sum(1 for m in passed if m.slot2 is not None)
            if letter % 2 == 0:
                entry = merged[letter // 2 - 1]
                child1 = idx1 + ((2 * entry.slot1,) if entry.slot1 is not None else (2 * consumed1 + 1,))
                child2 = idx2 + ((2 * entry.slot2,) if entry.slot2 is not None else (2 * consumed2 + 1,))
                child_points = [p + (eval_coord(entry.expr, p),) for p in points]
            else:
                child1 = idx1 + (2 * consumed1 + 1,)
                child2 = idx2 + (2 * consumed2 + 1,)
                j = (letter - 1) // 2
                child_points = []
                for p in points:
                    lo = eval_coord(merged[j - 1].expr, p) if j >= 1 else None
                    hi = eval_coord(merged[j].expr, p) if j < u else None
                    for c in sector_coords(lo, hi, 3):
                        child_points.append(p + (c,))
                child_points = child_points[:3]
            recurse(index + (letter,), child1, child2, child_points)

    recurse((), (), (), [()])
    refined = Cad(n, stacks)
    labels: LeafLabeling = {}
    for leaf, (l1, l2) in leaf_sources.items():
        b1, b2 = labels1[l1], labels2[l2]
        if b1 != b2:
            raise SectionsCross(
                f"inputs label the merged cell {word_of(leaf)} inconsistently"
            )
        labels[leaf] = b1
    _verify_refines_input(refined, c1, leaf_sources, 0)
    _verify_refines_input(refined, c2, leaf_sources, 1)
    return refined, labels


def _verify_refines_input(refined: Cad, original: Cad, leaf_sources, which: int) -> None:
    located_leaves = set()
    for leaf, sources in leaf_sources.items():
        host = locate(original, refined.sample(leaf))
        if host != sources[which]:
            raise SectionsCross(
                f"cell {word_of(leaf)} escapes input cell {word_of(sources[which])}"
            )
        located_leaves.add(host)
    if located_leaves != set(original.leaves()):
        raise SectionsCross("some input cells contain no cell of the refinement")


def _merge_stacks(fns1: tuple[Expr, ...], fns2: tuple[Expr, ...], points: list[Point]) -> list[_MergedSection]:
    def order(e1: Expr, e2: Expr) -> int:
        verdicts = set()
        for p in points:
            v1 = eval_coord(e1, p)
            v2 = eval_coord(e2, p)
            try:
                verdicts.add(compare_coords(v1, v2))
            except UnknownOrder as exc:
                raise UnknownOrder(
                    f"cannot order sections at probe {p}: {exc}"
                ) from exc
        if len(verdicts) > 1:
            raise SectionsCross("sections from the two CADs cross inside a merged cell")
        return verdicts.pop()

    out: list[_MergedSection] = []
    i = j = 0
    while i < len(fns1) and j < len(fns2):
        c = order(fns1[i], fns2[j])
        if c < 0:
            out.append(_MergedSection(fns1[i], i + 1, None))
            i += 1
        elif c > 0:
            out.append(_MergedSection(fns2[j], None, j + 1))
            j += 1
        else:
            expr = fns1[i]
            if any_node(expr, is_piecewise) and not any_node(fns2[j], is_piecewise):
                expr = fns2[j]
            out.append(_MergedSection(expr, i + 1, j + 1))
            i += 1
            j += 1
    while i < len(fns1):
        out.append(_MergedSection(fns1[i], i + 1, None))
        i += 1
    while j < len(fns2):
        out.append(_MergedSection(fns2[j], None, j + 1))
        j += 1
    return out


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
            "leaf_count": node.leaf_count,
            "history": [word_of(p) for p in node.applied],
        }

    return {
        "node_count": len(graph.nodes),
        "edge_count": sum(map(len, graph.out_edges.values())),
        "root_leaf_count": graph.nodes[graph.root_key].leaf_count,
        "minimal": [describe(k) for k in minimal],
        "minimum": describe(minimum) if minimum is not None else None,
        "confluent": len(minimal) == 1,
    }
