import random

import pytest

from cadreduce.errors import LabelMissing, PivotNotEven, RuleNotApplicable
from cadreduce.gallery import disk_c, disk_cp, disk_cpp, trousers_c, trousers_cp
from cadreduce.tree import (
    CadTree,
    applicable_pivots,
    apply_merge,
    build_tree,
    is_applicable,
    prefix,
    relabel_index,
    tree_to_dot,
)


def tree_of(entry):
    return build_tree(entry.cad, entry.labels)


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
    assert t.depth == 3
    assert t.leaf_count() == 9
    for j in (1, 2, 3):
        assert t.label((1, j)) == (0, 1, 0)


def test_build_tree_disk_cp():
    t = tree_of(disk_cp())
    assert t.leaf_count() == 23
    assert [t.counts[(i,)] for i in range(1, 8)] == [0, 1, 2, 2, 2, 1, 0]


def test_build_tree_single_chain():
    from tests.test_cadmodel import single_chain

    cad, labels = single_chain(3, label=1)
    t = build_tree(cad, labels)
    assert t.leaf_count() == 1
    assert t.label(()) == (((1,),),)


def test_build_tree_missing_label():
    entry = trousers_c()
    labels = dict(entry.labels)
    del labels[(1, 2, 2)]
    with pytest.raises(LabelMissing):
        build_tree(entry.cad, labels)


def test_applicable_pivots_gallery():
    assert applicable_pivots(tree_of(trousers_c())) == {(1, 2)}
    assert applicable_pivots(tree_of(trousers_cp())) == {(3, 2)}
    assert applicable_pivots(tree_of(disk_cp())) == {(4,)}
    assert applicable_pivots(tree_of(disk_c())) == set()
    assert applicable_pivots(tree_of(disk_cpp())) == {(4,), (3, 6), (4, 6), (5, 6)}


def test_apply_merge_disk_cp_gives_disk_c_tree():
    reduced = apply_merge(tree_of(disk_cp()), (4,))
    assert reduced == tree_of(disk_c())
    assert reduced.leaf_count() == 13


def test_apply_merge_trousers_tree_level():
    # The three cylinders collapse onto one: 9 leaves in 3 suffix-triples.
    t = apply_merge(tree_of(trousers_c()), (1, 2))
    assert t.leaf_count() == 3
    assert t.counts[(1,)] == 0
    assert t.label((1, 1)) == (0, 1, 0)


def test_apply_merge_requires_applicable_pivot():
    with pytest.raises(RuleNotApplicable):
        apply_merge(tree_of(disk_c()), (2,))


def test_path_tree_has_no_pivots():
    counts = {(): 0, (1,): 0}
    labels = {(1, 1): 1}
    t = CadTree(2, counts, labels)
    assert applicable_pivots(t) == set()


def random_tree(rng: random.Random, depth: int) -> CadTree:
    counts = {}
    labels = {}

    def grow(node):
        if len(node) == depth:
            labels[node] = rng.randint(0, 1)
            return
        u = rng.choice([0, 0, 1, 1, 2])
        counts[node] = u
        for j in range(1, 2 * u + 2):
            grow(node + (j,))

    grow(())
    return CadTree(depth, counts, labels)


def brute_force_pivots(tree: CadTree) -> set:
    """Independent check: compare serialized flanking subtrees."""

    def dump(node):
        if len(node) == tree.depth:
            return f"L{tree.labels[node]}"
        return "(" + ",".join(dump(c) for c in tree.children(node)) + ")"

    out = set()
    for node in tree.nodes():
        if not node or node[-1] % 2 != 0 or len(node) > tree.depth:
            continue
        lo = node[:-1] + (node[-1] - 1,)
        hi = node[:-1] + (node[-1] + 1,)
        if dump(lo) == dump(node) == dump(hi):
            out.add(node)
    return out


def test_applicable_pivots_matches_brute_force():
    rng = random.Random(7)
    for _ in range(150):
        t = random_tree(rng, rng.randint(1, 3))
        pivots = applicable_pivots(t)
        assert pivots == brute_force_pivots(t)
        for node in t.nodes():
            assert is_applicable(t, node) == (node in pivots)
        parent = max(t.level(t.depth - 1))
        # Odd, out of range (past the parent's sections, or a letter below 1),
        # deeper than the leaves, and the empty word.
        for pivot in (
            parent + (1,),
            parent + (2 * t.counts[parent] + 2,),
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
        reduced = apply_merge(t, pivot)  # CadTree validates on construction
        assert reduced.leaf_count() < t.leaf_count()
        applied += 1
    assert applied > 50


def full_relabel_merge(tree: CadTree, pivot) -> CadTree:
    """Oracle: the merge with every count and leaf label relabelled, and the
    result validated."""
    k = len(pivot)
    gone = (pivot, pivot[:-1] + (pivot[-1] + 1,))
    counts = {
        relabel_index(pivot, node): u - 1 if node == pivot[:-1] else u
        for node, u in tree.counts.items()
        if prefix(node, k) not in gone
    }
    labels = {relabel_index(pivot, leaf): bit for leaf, bit in tree.labels.items() if prefix(leaf, k) not in gone}
    return CadTree(tree.depth, counts, labels)


def test_apply_merge_matches_full_relabel():
    # Along merge chains, so that trees derived without validation are
    # merged again.
    rng = random.Random(11)
    checked = 0
    for _ in range(200):
        t = random_tree(rng, rng.randint(1, 3))
        while True:
            pivots = sorted(applicable_pivots(t))
            if not pivots:
                break
            for pivot in pivots:
                reduced = apply_merge(t, pivot)
                assert reduced == full_relabel_merge(t, pivot)
                reduced._validate()
                checked += 1
            t = apply_merge(t, pivots[rng.randrange(len(pivots))])
    assert checked > 200


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
        for node in t.nodes():
            preimages.setdefault(relabel_index(pivot, node), []).append(node)
        for node in reduced.nodes():
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


def test_dot_export_mentions_colors():
    dot = tree_to_dot(tree_of(trousers_c()))
    assert "palegreen" in dot and "lightcoral" in dot
    assert dot.startswith("digraph")
