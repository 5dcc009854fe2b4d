import random

import pytest

from cadreduce.cadmodel import Cad
from cadreduce.errors import LabelMissing, PivotNotEven, RuleNotApplicable
from cadreduce.gallery import disk_c, disk_cp, disk_cpp, trousers_c, trousers_cp
from cadreduce.tree import (
    CadTree,
    Cell,
    applicable_pivots,
    apply_merge,
    build_tree,
    is_applicable,
    labelled_tree,
    prefix,
    relabel_index,
)
from tests import oracles
from tests.test_packaging import load_perfbench


def sibling(pivot, offset: int):
    """The index word ``offset`` places after (or before) a cell's among its
    siblings."""
    return pivot[:-1] + (pivot[-1] + offset,)


def tree_of(entry):
    return build_tree(entry.cad, entry.labels)


def index_views(tree: CadTree):
    """The stack counts, leaf labels and root cells of a tree, by index word."""
    nodes = list(oracles.indexed_cells(tree))
    counts = {index: len(cell.children) // 2 for index, cell in nodes if cell.children}
    labels = {index: cell.label for index, cell in nodes if not cell.children}
    return counts, labels, {index: cell.roots for index, cell in nodes}


def assert_valid(tree: CadTree) -> None:
    """Leaves exactly at the tree's depth with bits 0 or 1, 2u+1 children
    elsewhere, labels that are the children's, and root cells that are
    sorted, distinct, of the cell's level and the parents of its children's."""
    for index, cell in oracles.indexed_cells(tree):
        assert list(cell.roots) == sorted(set(cell.roots)) and cell.roots
        assert all(len(r) == len(index) for r in cell.roots)
        if len(index) == tree.n:
            assert not cell.children and cell.label in (0, 1)
            continue
        assert len(cell.children) % 2 == 1
        assert cell.label == tuple(child.label for child in cell.children)
        assert {r[:-1] for child in cell.children for r in child.roots} == set(cell.roots)


def assert_shares_all_but_the_path_and_the_triple(tree: CadTree, pivot, reduced: CadTree) -> None:
    """Every cell of ``tree`` off the path from the top to the pivot's parent
    and outside the merged triple is the same object in ``reduced``, at the
    index ``relabel_index`` moves it to."""
    k = len(pivot)
    triple = {sibling(pivot, d) for d in (-1, 0, +1)}
    shared = 0
    for index, cell in oracles.indexed_cells(tree):
        if len(index) < k and index == pivot[: len(index)]:
            assert reduced.cell(index) is not cell  # copied, with its new child
        elif prefix(index, k) not in triple:
            assert reduced.cell(relabel_index(pivot, index)) is cell, (pivot, index)
            shared += 1
    return shared


def test_prefix():
    assert prefix((1, 3, 2), 2) == (1, 3)
    assert prefix((1, 2), 5) == (1, 2)
    assert prefix((1, 2), 0) == ()


def test_relabel_index_branches():
    assert relabel_index((1, 2), (1, 2, 3)) == (1, 1, 3)
    assert relabel_index((1, 2), (1, 3, 2)) == (1, 1, 2)
    assert relabel_index((4,), (2, 5)) == (2, 5)
    assert relabel_index((2,), (4, 7, 1)) == (2, 7, 1)
    assert relabel_index((2,), (1, 9)) == (1, 9)
    with pytest.raises(PivotNotEven):
        relabel_index((1, 3), (1, 3))
    with pytest.raises(PivotNotEven):
        relabel_index((), (1,))


def test_build_tree_trousers():
    t = tree_of(trousers_c())
    assert t.n == 3
    assert len(t.leaves()) == 9
    for j in (1, 2, 3):
        assert t.cell((1, j)).label == (0, 1, 0)


def test_build_tree_disk_cp():
    t = tree_of(disk_cp())
    assert len(t.leaves()) == 23
    counts, _labels, roots = index_views(t)
    assert [counts[(i,)] for i in range(1, 8)] == [0, 1, 2, 2, 2, 1, 0]
    assert all(r == (index,) for index, r in roots.items())


def test_build_tree_single_chain():
    from tests.test_cadmodel import single_chain

    cad, labels = single_chain(3, label=1)
    t = build_tree(cad, labels)
    assert len(t.leaves()) == 1
    assert t.top.label == (((1,),),)


def test_build_tree_missing_label():
    entry = trousers_c()
    labels = dict(entry.labels)
    del labels[(1, 2, 2)]
    with pytest.raises(LabelMissing):
        build_tree(entry.cad, labels)


def cell_views(tree: CadTree):
    """Every cell's index word, root cells, label and pivots."""
    return sorted((index, cell.roots, cell.label, cell.pivots) for index, cell in oracles.indexed_cells(tree))


def wrong_labellings(cad, labels):
    """A label on a cell that is not a leaf (the first leaf's parent, or in
    R^0 a word below the one leaf), one and four leaf labels missing, and
    labels of 2, ``True`` and ``1.0``."""
    leaves = list(labels)
    return [
        {**labels, leaves[0][:-1] if cad.n else (1,): 0},
        {leaf: labels[leaf] for leaf in leaves[1:]},
        {leaf: labels[leaf] for leaf in leaves[4:]},
        *({**labels, leaves[-1]: bit} for bit in (2, True, 1.0)),
    ]


def test_labelled_tree_grows_the_tree_of_the_recursive_builder(monkeypatch):
    # ``labelled_tree`` makes each level in one pass over the stacks; the
    # recursive builder it replaced stays as the oracle.  Both make the
    # same cells and raise the same errors, on the gallery and its lifts to
    # R^6, the lift fixtures, disk-lines(7) and (96) at two seeds, and R^0.
    from tests.test_reduction import explored_inputs, lift_fixtures

    workloads = load_perfbench("workloads", monkeypatch)
    inputs = [labelled for _name, labelled in explored_inputs(monkeypatch)]
    inputs += [build() for _name, build in lift_fixtures()]
    inputs += [(d.cad, d.labels) for m in (7, 96) for seed in (0, 1) for d in [workloads.disk_lines(m, seed)]]
    inputs.append((Cad(0, {}), {(): 1}))
    errors = 0
    for cad, labels in inputs:
        tree, oracle = labelled_tree(cad, labels), oracles.grown_tree(cad, labels)
        assert tree.root is oracle.root is cad and tree.labels == oracle.labels == labels
        assert index_views(tree) == index_views(oracle)
        assert cell_views(tree) == cell_views(oracle)
        for wrong in wrong_labellings(cad, labels):
            with pytest.raises((LabelMissing, ValueError)) as got:
                labelled_tree(cad, wrong)
            with pytest.raises((LabelMissing, ValueError)) as want:
                oracles.grown_tree(cad, wrong)
            assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
            errors += 1
    assert errors == 6 * len(inputs) and len(inputs) > 40


def test_applicable_pivots_gallery():
    assert applicable_pivots(tree_of(trousers_c())) == {(1, 2)}
    assert applicable_pivots(tree_of(trousers_cp())) == {(3, 2)}
    assert applicable_pivots(tree_of(disk_cp())) == {(4,)}
    assert applicable_pivots(tree_of(disk_c())) == set()
    assert applicable_pivots(tree_of(disk_cpp())) == {(4,), (3, 6), (4, 6), (5, 6)}


def test_apply_merge_disk_cp_gives_disk_c_tree():
    reduced = apply_merge(tree_of(disk_cp()), (4,))
    assert index_views(reduced)[:2] == index_views(tree_of(disk_c()))[:2]
    assert len(reduced.leaves()) == 13
    assert reduced.cell((3,)).roots == ((3,), (4,), (5,))


def test_apply_merge_trousers_tree_level():
    # The three cylinders collapse onto one: 9 leaves in 3 suffix-triples.
    t = apply_merge(tree_of(trousers_c()), (1, 2))
    assert len(t.leaves()) == 3
    assert len(t.cell((1,)).children) == 1
    assert t.cell((1, 1)).label == (0, 1, 0)
    assert t.cell((1, 1, 2)).roots == ((1, 1, 2), (1, 2, 2), (1, 3, 2))


def test_apply_merge_requires_applicable_pivot():
    with pytest.raises(RuleNotApplicable):
        apply_merge(tree_of(disk_c()), (2,))


def test_path_tree_has_no_pivots():
    t = CadTree(None, Cell(((),), (Cell(((1,),), (Cell(((1, 1),), bit=1),)),)))
    assert applicable_pivots(t) == set()


def random_tree(rng: random.Random, depth: int) -> CadTree:
    """The tree of a random root CAD: each cell covers itself."""

    def grow(node):
        if len(node) == depth:
            return Cell((node,), bit=rng.randint(0, 1))
        u = rng.choice([0, 0, 1, 1, 2])
        return Cell((node,), tuple(grow(node + (j,)) for j in range(1, 2 * u + 2)))

    return CadTree(None, grow(()))


def brute_force_pivots(tree: CadTree) -> set:
    """Independent check: compare serialized flanking subtrees."""

    def dump(cell):
        if not cell.children:
            return f"L{cell.label}"
        return "(" + ",".join(map(dump, cell.children)) + ")"

    out = set()
    for node, cell in oracles.indexed_cells(tree):
        if not node or node[-1] % 2 != 0:
            continue
        lo, hi = sibling(node, -1), sibling(node, +1)
        if dump(tree.cell(lo)) == dump(cell) == dump(tree.cell(hi)):
            out.add(node)
    return out


def test_applicable_pivots_matches_brute_force():
    rng = random.Random(7)
    for _ in range(150):
        t = random_tree(rng, rng.randint(1, 3))
        pivots = applicable_pivots(t)
        assert pivots == brute_force_pivots(t) == oracles.walk_pivots(t)
        assert len(t.top.pivots) == len(pivots)
        for node, _cell in oracles.indexed_cells(t):
            assert is_applicable(t, node) == (node in pivots)
        parent = max(index for index, _cell in oracles.indexed_cells(t) if len(index) == t.n - 1)
        # Odd, out of range (past the parent's sections, or a letter below 1),
        # deeper than the leaves, and the empty word.
        for pivot in (
            parent + (1,),
            parent + (len(t.cell(parent).children) + 1,),
            parent + (0,),
            max(t.leaves()) + (2,),
            (),
        ):
            assert not is_applicable(t, pivot)
            with pytest.raises(RuleNotApplicable):
                apply_merge(t, pivot)


def test_apply_merge_preserves_invariants_and_shrinks():
    rng = random.Random(8)
    applied = 0
    for _ in range(200):
        t = random_tree(rng, rng.randint(1, 3))
        pivots = applicable_pivots(t)
        if not pivots:
            continue
        pivot = sorted(pivots)[rng.randrange(len(pivots))]
        reduced = apply_merge(t, pivot)
        assert_valid(reduced)
        assert len(reduced.leaves()) < len(t.leaves())
        applied += 1
    assert applied > 50


def full_relabel_merge(tree: CadTree, pivot):
    """Oracle: the stack counts and leaf labels of the merged tree, with
    every index relabelled."""
    k = len(pivot)
    gone = (pivot, sibling(pivot, +1))
    counts, labels, _roots = index_views(tree)
    counts = {
        relabel_index(pivot, node): u - 1 if node == pivot[:-1] else u
        for node, u in counts.items()
        if prefix(node, k) not in gone
    }
    labels = {relabel_index(pivot, leaf): bit for leaf, bit in labels.items() if prefix(leaf, k) not in gone}
    return counts, labels


def full_relabel_roots(tree: CadTree, pivot):
    """Oracle: the root cells of every cell of the merged tree, each cell
    relabelled and the root cells of merged cells united."""
    roots = {}
    for index, cell in oracles.indexed_cells(tree):
        image = relabel_index(pivot, index)
        roots[image] = tuple(sorted(roots.get(image, ()) + cell.roots))
    return roots


def test_apply_merge_matches_full_relabel():
    # Along merge chains, so that merged trees are merged again.
    rng = random.Random(11)
    checked = shared = 0
    for _ in range(200):
        t = random_tree(rng, rng.randint(1, 3))
        while True:
            pivots = sorted(applicable_pivots(t))
            if not pivots:
                break
            for pivot in pivots:
                before = index_views(t)
                reduced = apply_merge(t, pivot)
                assert index_views(reduced) == (*full_relabel_merge(t, pivot), full_relabel_roots(t, pivot))
                assert_valid(reduced)
                assert applicable_pivots(reduced) == oracles.walk_pivots(reduced)
                assert reduced.partition_blocks() == oracles.merged_blocks(t, pivot, t.partition_blocks())
                shared += assert_shares_all_but_the_path_and_the_triple(t, pivot, reduced)
                assert index_views(t) == before
                checked += 1
            t = apply_merge(t, pivots[rng.randrange(len(pivots))])
    assert checked > 200 and shared > 1000


def test_merge_preimage_counts():
    # Every node of the reduced tree has 1..3 preimages; exactly 3 iff its
    # prefix at the pivot level is the left flank.
    rng = random.Random(9)
    done = 0
    for _ in range(200):
        t = random_tree(rng, rng.randint(1, 3))
        pivots = applicable_pivots(t)
        if not pivots:
            continue
        pivot = sorted(pivots)[0]
        k = len(pivot)
        left = pivot[:-1] + (pivot[-1] - 1,)
        reduced = apply_merge(t, pivot)
        preimages = {}
        for node, _cell in oracles.indexed_cells(t):
            preimages.setdefault(relabel_index(pivot, node), []).append(node)
        for node, _cell in oracles.indexed_cells(reduced):
            pre = preimages[node]
            assert 1 <= len(pre) <= 3
            assert (len(pre) == 3) == (prefix(node, k) == left)
        done += 1
    assert done > 50


def test_termination_of_merge_chains():
    rng = random.Random(10)
    for _ in range(40):
        t = random_tree(rng, 2)
        steps = 0
        while True:
            pivots = applicable_pivots(t)
            if not pivots:
                break
            t = apply_merge(t, sorted(pivots)[0])
            steps += 1
            assert steps < 200
        assert applicable_pivots(t) == set()
