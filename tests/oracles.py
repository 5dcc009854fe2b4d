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
- ``merged_blocks``: a merge's partition read off the parent's, as
  ``explore`` read each new node's before it knew nodes by their top cells;
- ``insert_section``: refinement by slicing one sector, which rebuilds the
  finer gallery CADs from the coarser ones;
- ``common_refinement``: the paper's C-bar, a CAD refining two CADs whose
  sections do not cross (``SectionsCross`` when they do), which rebuilds
  the gallery's literal Cbar entries from their C and Cp;
- ``labels_by_probes``: adaptedness as ``formula_holds`` at each probe, the
  definition ``check_adapted`` computes fiber by fiber;
- ``block_label_mismatches``: a coarsening's labels checked on its root,
  leaf by root leaf;
- ``add`` and ``mul``: dense polynomial arithmetic, to build polynomials;
- ``refine_by_fractions``: ``AlgebraicNumber.refine`` as Fraction bisection,
  which the integer bisection must match interval for interval;
- ``pivot_order``: the order in which ``minimize`` and ``explore`` try
  pivots, which every cell keeps its pivots in;
- ``grown_tree``: a root's labelled tree grown cell by cell from its index
  words, as ``tree.labelled_tree`` grew it before it made each level in
  one pass over the stacks;
- ``indexed_cells``: every cell of a coarsening with its index word;
- ``walk_pivots`` and ``greedy_applied``: the applicable pivots by a walk
  of the whole tree, and the merges of the reduction loop when it tries
  them all again, in pivot order, after each lift.

Each raises ``ValueError`` on an input it cannot answer for.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from fractions import Fraction

from cadreduce.cadmodel import ROOT_INDEX, Cad, CellIndex, LeafLabeling, SectionStack, word_of
from cadreduce.errors import CadError, GuardUndecidable, LabelMissing, NotAdapted, UnknownOrder
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
from cadreduce.realroots import AlgebraicNumber
from cadreduce.tree import CadTree, Cell, _leaves, build_tree, triple

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
        succ = list(graph.successors(key))
        for i, a in enumerate(succ):
            da = graph.descendants(a)
            for b in succ[i + 1 :]:
                if not (da & graph.descendants(b)):
                    return False
    return True


def is_globally_confluent(graph: PosetGraph) -> bool:
    """Any two descendants of a node have a common descendant."""
    for key in graph.nodes:
        desc = list(graph.descendants(key))
        for i, a in enumerate(desc):
            da = graph.descendants(a)
            for b in desc[i + 1 :]:
                if not (da & graph.descendants(b)):
                    return False
    return True


def explore_by_partition(root: Cad, labels: LeafLabeling) -> PosetGraph:
    """``explore`` with each child deduplicated by its partition, read off
    the child's own tree with no interned cell (``CadTree.partition_blocks``),
    on every edge; the graph is keyed by partition."""
    start = build_tree(root, labels)
    key = start.partition_blocks()
    graph = PosetGraph({key: start})
    queue = deque([(key, start)])
    while queue:
        key, node = queue.popleft()
        out = graph.out_edges[key] = {}
        for pivot in node.pivots:
            child = try_lift(node, pivot)
            if child is None:
                continue
            out[pivot] = blocks = child.partition_blocks()
            if blocks not in graph.nodes:
                graph.nodes[blocks] = child
                queue.append((blocks, child))
    return graph


def merged_blocks(tree: CadTree, pivot: CellIndex, blocks: frozenset) -> frozenset:
    """The partition of the root's leaves after the merge at an applicable
    pivot, from ``blocks``, the tree's own: the leaf blocks of the three
    merged subtrees go, and the block of each glued leaf, the union of the
    three leaves at its place, comes in."""
    left, mid, right = map(_leaves, triple(tree, pivot))
    gone = [frozenset(leaf.roots) for leaf in left + mid + right]
    return blocks.difference(gone).union([frozenset(a.roots + b.roots + c.roots) for a, b, c in zip(left, mid, right)])


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
            verdicts.add(compare_coords(eval_coord(e1, p), eval_coord(e2, p)))
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
# Dense polynomial arithmetic (``cadreduce.realroots`` form: coefficients
# low degree first, trailing zeros dropped)


def trimmed(coeffs) -> tuple:
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def add(p, q) -> tuple:
    n = max(len(p), len(q))
    return trimmed((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n))


def mul(p, q) -> tuple:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return trimmed(out)


def refine_by_fractions(a: AlgebraicNumber, width: Fraction) -> AlgebraicNumber:
    """``AlgebraicNumber.refine`` by Fraction bisection from the number's own
    interval, each midpoint (lo + hi) / 2 signed by Fraction evaluation."""

    def sign(x: Fraction) -> int:
        acc = Fraction(0)
        for c in reversed(a.defining):
            acc = acc * x + c
        return (acc > 0) - (acc < 0)

    lo, hi = a.lo, a.hi
    slo = sign(lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        s = sign(mid)
        if s == 0:
            return AlgebraicNumber(a.defining, mid, mid)
        if s == slo:
            lo = mid
        else:
            hi = mid
    return AlgebraicNumber(a.defining, lo, hi)


# ---------------------------------------------------------------------------
# Trees


def grown_tree(cad: Cad, labels: LeafLabeling) -> CadTree:
    """The tree of a root CAD with a total labelling of its leaves by 0 and
    1, grown recursively from the root's index words (``Cad.children``),
    with ``tree.labelled_tree``'s label checks and errors."""
    if not cad.is_root:
        raise ValueError("labelled_tree grows a root CAD; build_tree starts from a coarsening")
    n = cad.n
    leaves: list[CellIndex] = []  # in index order, as ``Cad.leaves`` lists them

    def grow(index: CellIndex) -> Cell:
        if len(index) == n:
            leaves.append(index)
            return Cell((index,), bit=labels.get(index), roots_hash=hash(index))
        return Cell((index,), tuple(map(grow, cad.children(index))), roots_hash=hash(index))

    top = grow(())
    if not all(map(labels.__contains__, leaves)):
        missing = [leaf for leaf in leaves if leaf not in labels]
        raise LabelMissing(f"missing labels for {missing[:3]}{'...' if len(missing) > 3 else ''}")
    if len(labels) != len(leaves):
        extra = sorted(set(labels) - set(leaves))
        raise ValueError(f"labels on cells that are not leaves: {extra[:3]}{'...' if len(extra) > 3 else ''}")
    if not all(map((0, 1).__contains__, labels.values())):
        raise ValueError("leaf labels must be 0 or 1")
    return CadTree(cad, top)


# ---------------------------------------------------------------------------
# Pivots


def pivot_order(pivot: CellIndex):
    """The order in which pivots are tried: deepest first, then lexicographic."""
    return (-len(pivot), pivot)


def indexed_cells(tree: CadTree) -> Iterator[tuple[CellIndex, Cell]]:
    """(index, cell) for every cell of the tree, depth first, later
    children first."""
    frontier = [((), tree.top)]
    while frontier:
        index, cell = frontier.pop()
        yield index, cell
        frontier += [(index + (j,), child) for j, child in enumerate(cell.children, start=1)]


def walk_pivots(tree: CadTree) -> set:
    """The applicable pivots by a walk of the whole tree, as
    ``applicable_pivots`` found them before every cell kept its own."""
    return {
        index + (letter,)
        for index, cell in indexed_cells(tree)
        for letter in range(2, len(cell.children), 2)
        if cell.children[letter - 2].label == cell.children[letter - 1].label == cell.children[letter].label
    }


def greedy_applied(cad: Cad, labels: LeafLabeling) -> tuple[CellIndex, ...]:
    """The merges of the reduction loop, by a full scan: after each lift,
    every pivot of ``walk_pivots`` is tried again from the first in pivot
    order, and the first that lifts is applied."""
    node = build_tree(cad, labels)
    while True:
        for pivot in sorted(walk_pivots(node), key=pivot_order):
            child = try_lift(node, pivot)
            if child is not None:
                node = child
                break
        else:
            return node.applied
