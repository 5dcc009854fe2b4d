"""Oracles the tests share: definitional checks and builders that the
pipeline does not call.

- ``coarsening_blocks``, ``refines`` and ``partition_refines``: the paper's
  refinement order, on partitions of a root's leaves;
- ``is_locally_confluent`` and ``is_globally_confluent``: the definitions
  that the one-sink theorem of ``cadreduce.poset`` replaces;
- ``insert_section``: refinement by slicing one sector, which rebuilds the
  finer gallery CADs from the coarser ones;
- ``add`` and ``mul``: dense polynomial arithmetic, to build polynomials.

Each raises ``ValueError`` on an input it cannot answer for.
"""

from __future__ import annotations

from fractions import Fraction

from cadreduce.cadmodel import Cad, CellIndex, LeafLabeling, locate, word_of
from cadreduce.errors import GuardUndecidable, UnknownOrder
from cadreduce.expr import Expr, compare_coords, eval_coord
from cadreduce.poset import PosetGraph
from cadreduce.realroots import ZERO, UniPoly, poly

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
            host = locate(cad, root.sample(leaf))
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
    four probe points of the base cell.
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
    for point, _tag in cad.cell_points(base, 4):
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
