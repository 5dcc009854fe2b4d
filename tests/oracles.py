"""Oracles the tests share: definitional checks and builders that the
pipeline does not call.

- ``sample`` and ``locate``: a cell's witness point, and the cell of a root
  holding a point;
- ``coarsening_blocks``, ``refines`` and ``partition_refines``: the paper's
  refinement order, on partitions of a root's leaves;
- ``is_locally_confluent`` and ``is_globally_confluent``: the definitions
  that the one-sink theorem of ``cadreduce.poset`` replaces;
- ``explore_by_partition``: the poset of coarsenings with every child known
  by its partition, as ``explore`` found it before it interned cells;
- ``insert_section``: refinement by slicing one sector, which rebuilds the
  finer gallery CADs from the coarser ones;
- ``common_refinement``: the paper's C-bar, a CAD refining two CADs whose
  sections do not cross (``SectionsCross`` when they do), which rebuilds
  the gallery's literal Cbar entries from their C and Cp;
- ``labels_by_probes``: adaptedness as ``formula_holds`` at each probe, the
  definition ``check_adapted`` computes with each atom converted once;
- ``block_label_mismatches``: a coarsening's labels checked on its root,
  leaf by root leaf;
- ``add`` and ``mul``: dense polynomial arithmetic, to build polynomials;
- ``pivot_order``: the order in which ``minimize`` and ``explore`` try
  pivots, which every cell keeps its pivots in.

Each raises ``ValueError`` on an input it cannot answer for.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

from cadreduce.cadmodel import ROOT_INDEX, Cad, CellIndex, LeafLabeling, SectionStack, word_of
from cadreduce.errors import CadError, GuardUndecidable, NotAdapted, UnknownOrder
from cadreduce.expr import (
    Expr,
    Formula,
    Point,
    any_node,
    as_point,
    compare_coords,
    eval_coord,
    formula_holds,
    is_piecewise,
    max_var_index,
)
from cadreduce.poset import PosetGraph
from cadreduce.reduction import try_lift
from cadreduce.realroots import ZERO, UniPoly, poly
from cadreduce.tree import CadTree, build_tree

# ---------------------------------------------------------------------------
# Samples and location


def sample(cad: Cad, cell: CellIndex) -> Point:
    """A witness point inside the root cell: its first probe."""
    return cad.cell_points(cell)[0]


def locate(cad: Cad, point) -> CellIndex:
    """The index of the cell of a root CAD containing the point.

    Points of arity k < n are located in the level-k decomposition.
    """
    if not cad.is_root:
        raise ValueError("locate works on root CADs")
    pt = as_point(point)
    if len(pt) > cad.n:
        raise ValueError(f"point has arity {len(pt)}, expected at most {cad.n}")
    cell: CellIndex = ROOT_INDEX
    for k in range(len(pt)):
        base = pt[:k]
        y = pt[k]
        stack = cad.stacks[cell]
        letter = 2 * stack.count + 1
        for j, f in enumerate(stack.functions, start=1):
            v = eval_coord(f, base)
            c = compare_coords(y, v)
            if c == 0:
                letter = 2 * j
                break
            if c < 0:
                letter = 2 * j - 1
                break
        cell = cell + (letter,)
    return cell


# ---------------------------------------------------------------------------
# The refinement order


def coarsening_blocks(cad: Cad, root: Cad):
    """Represent ``cad`` as a partition of the root's leaves.

    Uses ``partition_blocks`` when ``cad`` shares the root; otherwise embeds by
    locating every root leaf sample in ``cad``.
    """
    if cad.root is root:
        return cad.partition_blocks()
    if not cad.is_root:
        raise ValueError("CAD is a coarsening of a different root")
    groups: dict[CellIndex, set[CellIndex]] = {}
    for leaf in root.leaves():
        try:
            host = locate(cad, sample(root, leaf))
        except (UnknownOrder, GuardUndecidable) as exc:
            raise ValueError(f"cannot locate root leaf {word_of(leaf)}: {exc}") from exc
        groups.setdefault(host, set()).add(leaf)
    missing = set(cad.leaves()) - set(groups)
    if missing:
        raise ValueError(f"cells {sorted(word_of(c) for c in missing)} contain no root sample")
    return frozenset(frozenset(g) for g in groups.values())


def refines(fine: Cad, coarse: Cad, root: Cad) -> bool:
    """Whether every cell of ``coarse`` is a union of cells of ``fine``,
    with both CADs represented as partitions of the root's leaves."""
    return partition_refines(coarsening_blocks(fine, root), coarsening_blocks(coarse, root))


def partition_refines(fine_blocks, coarse_blocks) -> bool:
    owner: dict = {}
    for block in coarse_blocks:
        for x in block:
            owner[x] = block
    for block in fine_blocks:
        host = owner.get(next(iter(block)))
        if host is None or not block <= host:
            return False
    return True


# ---------------------------------------------------------------------------
# Confluence, by definition


def is_locally_confluent(graph: PosetGraph) -> bool:
    """Any two one-step reducts of a node have a common descendant."""
    for key in graph.nodes:
        succ = sorted(graph.successors(key), key=sorted)
        for i, a in enumerate(succ):
            da = graph.descendants(a)
            for b in succ[i + 1 :]:
                if not (da & graph.descendants(b)):
                    return False
    return True


def is_globally_confluent(graph: PosetGraph) -> bool:
    """Any two descendants of a node have a common descendant."""
    for key in graph.nodes:
        desc = sorted(graph.descendants(key), key=sorted)
        for i, a in enumerate(desc):
            da = graph.descendants(a)
            for b in desc[i + 1 :]:
                if not (da & graph.descendants(b)):
                    return False
    return True


def explore_by_partition(root: Cad, labels: LeafLabeling) -> PosetGraph:
    """``explore`` with each child deduplicated by its partition, read off
    the child's own tree with no interned cell (``CadTree.partition_blocks``),
    not off its parent's, on every edge."""
    start = build_tree(root, labels)
    graph = PosetGraph(root_key=start.partition_blocks(), nodes={start.blocks: start})
    queue = deque([start])
    while queue:
        node = queue.popleft()
        out = graph.out_edges[node.blocks] = {}
        for pivot in node.pivots:
            child = try_lift(node, pivot)
            if child is None:
                continue
            out[pivot] = child.partition_blocks()
            if child.blocks not in graph.nodes:
                graph.nodes[child.blocks] = child
                queue.append(child)
    return graph


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
    the probes of the base cell.
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
    for point in cad.cell_points(base):
        v = eval_coord(section_function, point)
        if j >= 1 and compare_coords(v, eval_coord(stack.functions[j - 1], point)) <= 0:
            raise ValueError(f"new section is not strictly above section {j} at {point}")
        if j < stack.count and compare_coords(v, eval_coord(stack.functions[j], point)) >= 0:
            raise ValueError(f"new section is not strictly below section {j + 1} at {point}")

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
    new_stacks[base] = type(stack)(stack.functions[:j] + (section_function,) + stack.functions[j:])
    new_labels: LeafLabeling = {}
    for leaf, bit in labels.items():
        for image in images(leaf):
            new_labels[image] = bit
    return Cad(cad.n, new_stacks), new_labels


# ---------------------------------------------------------------------------
# Common refinement (restricted: sections from the two CADs must not cross)


class SectionsCross(CadError):
    """Two sections from different CADs cross inside a merged cell."""


def common_refinement(
    c1: Cad,
    labels1: LeafLabeling,
    c2: Cad,
    labels2: LeafLabeling,
) -> tuple[Cad, LeafLabeling]:
    """A CAD refining both inputs, built level by level by merging section
    stacks; fails with SectionsCross when sections from the two CADs cross
    inside a merged cell (full CAD construction is out of scope).

    The input stacks over a cell of the refinement are ordered at its
    probes (``refined.cell_points``), the first being its sample.
    They must be strictly ordered: a disordered input stack leaves the merged
    one disordered, and ``validate_cad`` reports it where the refinement, a
    root, is checked: ``build_tree`` refuses it (see
    ``test_a_disordered_input_stack_is_left_to_validation``)."""
    if not (c1.is_root and c2.is_root):
        raise ValueError("common refinement expects root CADs")
    if c1.n != c2.n:
        raise ValueError("dimensions differ")
    n = c1.n
    stacks: dict[CellIndex, SectionStack] = {}
    refined = Cad(n, stacks)
    # Each cell of the refinement's current level -> the input cells holding it.
    sources: dict[CellIndex, tuple[CellIndex, CellIndex]] = {(): ((), ())}
    for _level in range(n):
        below = {}
        for index, (idx1, idx2) in sources.items():
            points = refined.cell_points(index)
            merged = _merge_stacks(c1.stacks[idx1].functions, c2.stacks[idx2].functions, points)
            stacks[index] = SectionStack(tuple(expr for expr, _in1, _in2 in merged))
            # The letters of the input sectors the next child lies in.
            a = b = 1
            children = [(idx1 + (a,), idx2 + (b,))]
            for _expr, in1, in2 in merged:
                children.append((idx1 + (a + in1,), idx2 + (b + in2,)))
                a, b = a + 2 * in1, b + 2 * in2
                children.append((idx1 + (a,), idx2 + (b,)))
            below.update((index + (letter,), pair) for letter, pair in enumerate(children, start=1))
        sources = below
    labels: LeafLabeling = {}
    for leaf, (l1, l2) in sources.items():
        b1, b2 = labels1[l1], labels2[l2]
        if b1 != b2:
            raise SectionsCross(
                f"inputs label the merged cell {word_of(leaf)} inconsistently"
            )
        labels[leaf] = b1
    return refined, labels


def _merge_stacks(fns1: tuple[Expr, ...], fns2: tuple[Expr, ...], points: list[Point]) -> list[tuple[Expr, bool, bool]]:
    """The merged stack, bottom up: each section with whether it is one of
    ``fns1`` and whether it is one of ``fns2``."""

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

    out: list[tuple[Expr, bool, bool]] = []
    i = j = 0
    while i < len(fns1) and j < len(fns2):
        c = order(fns1[i], fns2[j])
        if c < 0:
            out.append((fns1[i], True, False))
            i += 1
        elif c > 0:
            out.append((fns2[j], False, True))
            j += 1
        else:
            expr = fns1[i]
            if any_node(expr, is_piecewise) and not any_node(fns2[j], is_piecewise):
                expr = fns2[j]
            out.append((expr, True, True))
            i += 1
            j += 1
    out += [(f, True, False) for f in fns1[i:]]
    out += [(f, False, True) for f in fns2[j:]]
    return out


# ---------------------------------------------------------------------------
# Adaptedness, probe by probe


def labels_by_probes(cad: Cad, formula: Formula) -> LeafLabeling:
    """``check_adapted`` by definition: ``formula_holds`` at each of a
    leaf's probes, every atom converted again at every point."""
    top = max_var_index(formula)
    if top > cad.n:
        raise ValueError(f"formula has variable x{top}, the CAD is of R^{cad.n}")
    labels: LeafLabeling = {}
    for leaf in cad.leaves():
        verdicts = [(formula_holds(formula, p), p) for p in cad.cell_points(leaf)]
        first = verdicts[0][0]
        for truth, _point in verdicts[1:]:
            if truth != first:
                inside = next(p for t, p in verdicts if t)
                outside = next(p for t, p in verdicts if not t)
                raise NotAdapted(leaf, inside, outside)
        labels[leaf] = 1 if first else 0
    return labels


def block_label_mismatches(node: CadTree, root_labels: LeafLabeling) -> tuple[list, int]:
    """A coarsening checked on its root: every root leaf in a coarsening
    leaf's block must carry that leaf's label.  The mismatches as (leaf,
    root leaf), and the number of root leaves checked."""
    mismatches, checked = [], 0
    for leaf, cell in node.indexed_leaves():
        for root_leaf in cell.roots:
            checked += 1
            if root_labels[root_leaf] != cell.label:
                mismatches.append((leaf, root_leaf))
    return mismatches, checked


# ---------------------------------------------------------------------------
# Dense polynomial arithmetic (``cadreduce.realroots`` form)


def add(p: UniPoly, q: UniPoly) -> UniPoly:
    n = max(len(p), len(q))
    return poly([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def mul(p: UniPoly, q: UniPoly) -> UniPoly:
    if not p or not q:
        return ZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return poly(out)


# ---------------------------------------------------------------------------
# Pivots


def pivot_order(pivot: CellIndex):
    """The order in which pivots are tried: deepest first, then lexicographic."""
    return (-len(pivot), pivot)
