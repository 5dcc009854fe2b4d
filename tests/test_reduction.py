from fractions import Fraction

import pytest

from cadreduce.cadmodel import Cad, SectionStack, check_adapted, coarsening_blocks, refines, validate_cad
from cadreduce.errors import RuleNotApplicable, SectionOutOfRange
from cadreduce.expr import parse_expr
from cadreduce.gallery import disk_c, disk_cp, disk_cpp, trousers_c, trousers_cp, ushape_c, ushape_cp
from cadreduce.poset import explore
from cadreduce.reduction import (
    LiftConfig,
    insert_section,
    minimize,
    reduction_reachable,
    try_lift,
)

F = Fraction

CFG = LiftConfig()
CERT = LiftConfig(mode="certificate")


def test_disk_merge_lifts_to_disk_c():
    entry = disk_cp()
    res = try_lift(entry.cad, entry.labels, (4,), CFG)
    assert res is not None
    merged, labels = res
    assert merged.leaf_count() == 13
    expected = coarsening_blocks(disk_c().cad, entry.cad)
    assert merged.partition_blocks() == expected
    # The lifted CAD is valid and its transported labels are reproduced.
    assert validate_cad(merged).ok
    assert check_adapted(merged, entry.formula) == labels


def test_disk_merge_lifts_in_certificate_mode():
    entry = disk_cp()
    res = try_lift(entry.cad, entry.labels, (4,), CERT)
    assert res is not None
    assert res[0].leaf_count() == 13


def test_trousers_merges_do_not_lift():
    for entry, pivot in ((trousers_c(), (1, 2)), (trousers_cp(), (3, 2))):
        assert try_lift(entry.cad, entry.labels, pivot, CFG) is None
        # No certificate shipped: certificate mode refuses as well.
        assert try_lift(entry.cad, entry.labels, pivot, CERT) is None


def test_ushape_merges_do_not_lift():
    for entry, pivot in ((ushape_c(), (1, 2)), (ushape_cp(), (3, 2))):
        assert try_lift(entry.cad, entry.labels, pivot, CFG) is None


def test_section_with_a_jump_hidden_by_a_nested_division_does_not_lift():
    # Over the cells 1 and 3 of the base stack [0] the section is A = x1 + 1
    # with a cancelling factor; over the seam x1 = 0 it is
    # B = (x1 + 1) / (1 / (x1^2 + 2)), which is 2 there, while A tends to 1.
    a = parse_expr("(div (mul (add x1 1) (add (pow x1 2) 2)) (add (pow x1 2) 2))")
    b = parse_expr("(div (add x1 1) (div 1 (add (pow x1 2) 2)))")
    stacks = {(): SectionStack((parse_expr("0"),))}
    stacks.update({(1,): SectionStack((a,)), (2,): SectionStack((b,)), (3,): SectionStack((a,))})
    cad = Cad(2, stacks)
    labels = {leaf: 0 for leaf in cad.leaves()}
    assert validate_cad(cad).ok
    assert try_lift(cad, labels, (2,), CFG) is None


def test_try_lift_requires_applicable_pivot():
    entry = disk_cp()
    # Unequal labels, odd, out of range, deeper than the leaves, empty.
    for pivot in ((2,), (3,), (0,), (8,), (4, 2, 2), ()):
        with pytest.raises(RuleNotApplicable):
            try_lift(entry.cad, entry.labels, pivot, CFG)


def test_disordered_glued_stack_is_rejected_cold_and_warm():
    # Base stack [0]; over each of the cells 1, 2, 3 the stack [1, 0], which
    # is not ordered.  The sections glue continuously at pivot 2, so only
    # the order check rejects that merge.
    zero, one = parse_expr("0"), parse_expr("1")
    stacks = {(): SectionStack((zero,))}
    stacks.update({(i,): SectionStack((one, zero)) for i in (1, 2, 3)})
    cad = Cad(2, stacks)
    labels = {leaf: 0 for leaf in cad.leaves()}
    assert not validate_cad(cad).ok
    assert try_lift(cad, labels, (2,), CFG) is None
    graph = explore(cad, labels, CFG)
    # Below the root, leaf merges leave one section per stack; glued at 2,
    # such a stack is ordered and the merge lifts.  Its verdict is kept apart
    # from the root's.
    assert any(pivot == (2,) for _s, pivot, _d in graph.edges)
    assert try_lift(cad, labels, (2,), CFG) is None


def test_leaf_level_merge_always_lifts():
    entry = disk_cpp()
    res = try_lift(entry.cad, entry.labels, (4, 6), CFG)
    assert res is not None
    merged, labels = res
    assert merged.leaf_count() == 27
    assert validate_cad(merged).ok
    assert check_adapted(merged, entry.formula) == labels


def test_minimize_trousers_fixed_points():
    for entry in (trousers_c(), trousers_cp()):
        res = minimize(entry.cad, entry.labels, CFG)
        assert res.is_fixed_point
        assert res.cad.leaf_count() == entry.expected["leaf_count"]


def test_minimize_disk_cp_reaches_disk_c():
    entry = disk_cp()
    res = minimize(entry.cad, entry.labels, CFG)
    assert [tuple(p) for p in res.applied] == [(4,)]
    assert res.cad.leaf_count() == 13
    assert res.cad.partition_blocks() == coarsening_blocks(disk_c().cad, entry.cad)


def test_minimize_disk_cpp_certificate_mode():
    # Leaf merges need no certificate; the base merge uses the shipped one.
    entry = disk_cpp()
    res = minimize(entry.cad, entry.labels, CERT)
    assert res.cad.leaf_count() == 13


def test_minimize_disk_cpp_sampled_mode():
    entry = disk_cpp()
    res = minimize(entry.cad, entry.labels, CFG)
    assert res.cad.leaf_count() == 13
    assert len(res.applied) == 4
    assert validate_cad(res.cad).ok


def test_minimize_single_chain_identity():
    from tests.test_cadmodel import single_chain

    cad, labels = single_chain(3)
    res = minimize(cad, labels, CFG)
    assert res.is_fixed_point and res.cad is cad


def test_minimize_step_budget():
    entry = disk_cpp()
    res = minimize(entry.cad, entry.labels, CFG)
    assert len(res.applied) <= entry.cad.leaf_count() - 1


def test_insert_section_rebuilds_disk_cp():
    entry = disk_c()
    refined, labels = insert_section(entry.cad, entry.labels, (), 3, parse_expr("0"))
    assert refined.leaf_count() == 23
    assert validate_cad(refined).ok
    assert labels == disk_cp().labels
    # Round trip: merging at the inserted section recovers the original.
    res = try_lift(refined, labels, (4,), CFG)
    assert res is not None
    assert res[0].partition_blocks() == coarsening_blocks(entry.cad, refined)


def test_insert_section_rebuilds_disk_cpp():
    entry = disk_cp()
    cad, labels = entry.cad, dict(entry.labels)
    hyper = parse_expr("(sub 1 (div 1 (mul 2 (sub (pow x1 2) 1))))")
    for base in ((3,), (4,), (5,)):
        cad, labels = insert_section(cad, labels, base, 5, hyper)
    assert cad.leaf_count() == 29
    assert labels == disk_cpp().labels
    assert cad.canonical_key()[:2] == disk_cpp().cad.canonical_key()[:2]


def test_insert_section_rejects_out_of_range():
    entry = disk_c()
    with pytest.raises(SectionOutOfRange):
        insert_section(entry.cad, entry.labels, (), 3, parse_expr("1"))
    with pytest.raises(SectionOutOfRange):
        insert_section(entry.cad, entry.labels, (), 3, parse_expr("5"))


def test_reduction_reachable_disk():
    cp = disk_cp()
    res = try_lift(cp.cad, cp.labels, (4,), CFG)
    assert res is not None
    merged, _ = res
    assert reduction_reachable(merged, cp.cad, cp.labels, CFG)
    assert reduction_reachable(cp.cad, cp.cad, cp.labels, CFG)  # reflexive


def test_reduction_reachable_respects_refinement():
    cpp = disk_cpp()
    target = disk_c()
    assert reduction_reachable(target.cad, cpp.cad, cpp.labels, CFG)
    assert refines(cpp.cad, target.cad, cpp.cad)
