import gc
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from cadreduce.cadmodel import Cad, SectionStack, check_adapted, validate_cad
from cadreduce import cadmodel, reduction
from cadreduce.errors import LabelMissing, RuleNotApplicable, ValidationFailed
from cadreduce.expr import (
    TRUE,
    Neg,
    Sqrt,
    any_node,
    canonicalize,
    compare_coords,
    eval_coord,
    is_piecewise,
    parse_expr,
    sector_coords,
)
from cadreduce.gallery import (
    disk_c,
    disk_cp,
    disk_cpp,
    gallery_names,
    load_entry,
    trousers_c,
    trousers_cp,
    ushape_c,
    ushape_cp,
)
from cadreduce.poset import explore, extend_cylinder, poset_report
from cadreduce.reduction import (
    minimize,
    try_lift,
)
from cadreduce.tree import (
    UNMADE,
    CadTree,
    Cell,
    applicable_pivots,
    apply_merge,
    build_tree,
    labelled_tree,
    relabel_index,
    triple,
)
from tests.oracles import (
    block_label_mismatches,
    coarsening_blocks,
    greedy_applied,
    indexed_cells,
    insert_section,
    pivot_order,
    refines,
    walk_pivots,
)
from tests.test_packaging import load_perfbench
from tests.test_tree import (
    assert_shares_all_but_the_path_and_the_triple,
    assert_valid,
    full_relabel_merge,
    index_views,
    random_tree,
)

F = Fraction


def test_disk_merge_lifts_to_disk_c():
    entry = disk_cp()
    res = try_lift(build_tree(entry.cad, entry.labels), (4,))
    assert res is not None
    assert res.leaf_count() == 13
    expected = coarsening_blocks(disk_c().cad, entry.cad)
    assert res.partition_blocks() == expected
    # The lifted CAD is valid, and checked on the root, its transported
    # labels are the root's.
    assert validate_cad(res).ok
    assert check_adapted(entry.cad, entry.formula) == entry.labels
    assert block_label_mismatches(res, entry.labels) == ([], entry.cad.leaf_count())


def test_trousers_merges_do_not_lift():
    for entry, pivot in ((trousers_c(), (1, 2)), (trousers_cp(), (3, 2))):
        assert try_lift(build_tree(entry.cad, entry.labels), pivot) is None


def test_ushape_merges_do_not_lift():
    for entry, pivot in ((ushape_c(), (1, 2)), (ushape_cp(), (3, 2))):
        assert try_lift(build_tree(entry.cad, entry.labels), pivot) is None


def nested_division_jump():
    # Over the cells 1 and 3 of the base stack [0] the section is A = x1 + 1
    # with a cancelling factor; over the seam x1 = 0 it is
    # B = (x1 + 1) / (1 / (x1^2 + 2)), which is 2 there, while A tends to 1.
    a = parse_expr("(div (mul (add x1 1) (add (pow x1 2) 2)) (add (pow x1 2) 2))")
    b = parse_expr("(div (add x1 1) (div 1 (add (pow x1 2) 2)))")
    stacks = {(): SectionStack((parse_expr("0"),))}
    stacks.update({(1,): SectionStack((a,)), (2,): SectionStack((b,)), (3,): SectionStack((a,))})
    cad = Cad(2, stacks)
    return cad, {leaf: 0 for leaf in cad.leaves()}


def disordered_stack():
    # Base stack [0]; over each of the cells 1, 2, 3 the stack [1, 0], which
    # is not ordered: not a CAD.  The sections glue continuously at pivot 2.
    zero, one = parse_expr("0"), parse_expr("1")
    stacks = {(): SectionStack((zero,))}
    stacks.update({(i,): SectionStack((one, zero)) for i in (1, 2, 3)})
    cad = Cad(2, stacks)
    return cad, {leaf: 0 for leaf in cad.leaves()}


def sections_apart_by_2_to_the_minus_200():
    # Base stack [0]; over each of the cells 1, 2, 3 the stack [f, g] with
    # f = sqrt2 + sqrt3 and g = f + 2^-200, ordered at a probe only by
    # refining both to 2^-200.
    f = "(add (sqrt 2) (sqrt 3))"
    functions = (parse_expr(f), parse_expr(f"(add {f} {Fraction(1, 2**200)})"))
    stacks = {(): SectionStack((parse_expr("0"),))}
    stacks.update({(i,): SectionStack(functions) for i in (1, 2, 3)})
    cad = Cad(2, stacks)
    return cad, {leaf: 0 for leaf in cad.leaves()}


def sections_crossing_between_the_probes():
    # Base stack [0]; over the cell 1 the stack [0, (x1+1)(x1+2) + 1/8].
    # The probes of the cell are x1 = -1, -2 and -3, where the sections are
    # at least 1/8 apart, but they cross at x1 = (-3 +- sqrt(1/2))/2.
    return labelled(2, {(): ["0"], (1,): ["0", "(add (mul (add x1 1) (add x1 2)) 1/8)"], (2,): [], (3,): []})


def sections_of_undecided_order():
    # Base stack [0]; over each of the cells 1, 2, 3 the stack [f, 5] with
    # f = 1 where x1 > 0 and no branch elsewhere: over the cell 1, f has no
    # value at a probe, so the order of f and 5 is left open.
    f = "(piecewise ((gt x1 0) 1))"
    return labelled(2, {(): ["0"], **{(i,): [f, "5"] for i in (1, 2, 3)}})


def a_sector_between_disordered_sections():
    # No base sections; over the cell 1 the stack [1, 0], which is not
    # ordered, so the probes of the sector 1.3 between its sections cannot
    # be derived; no sections above the cells 1.1 to 1.5.
    return labelled(3, {(): [], (1,): ["1", "0"], **{(1, j): [] for j in range(1, 6)}})


def labelled(n, spec, sheet=False):
    """A root CAD of R^n from {cell: [section s-expressions]}.  Every leaf is
    labelled 0, or with ``sheet`` 1 on the sections of the top level, which
    keeps the poset small (a seam verdict does not read the labels)."""
    cad = Cad(n, {cell: SectionStack(tuple(parse_expr(e) for e in exprs)) for cell, exprs in spec.items()})
    return cad, {leaf: int(sheet and leaf[-1] % 2 == 0) for leaf in cad.leaves()}


def jump_over_the_seam(c):
    # Base stack [0]; the section is 0 over the cells 1 and 3 and the
    # constant c over the seam x1 = 0.
    return labelled(2, {(): ["0"], (1,): ["0"], (2,): [str(c)], (3,): ["0"]})


def seam_in_r3(side, mid):
    # Base stack [0], no x2 sections; the x3 section is ``side`` over 1.1 and
    # 3.1 and ``mid`` over the seam cell 2.1.
    spec = {(): ["0"], (1,): [], (2,): [], (3,): [], (1, 1): [side], (2, 1): [mid], (3, 1): [side]}
    return labelled(3, spec)


def sheet_in_r3(pieces):
    # Base stack [0], x2 stacks [0]; the x3 section over the cell i.j is
    # ``pieces[(i, j)]``, or 0.
    spec = {(): ["0"], **{(i,): ["0"] for i in (1, 2, 3)}}
    spec.update({(i, j): [pieces.get((i, j), "0")] for i in (1, 2, 3) for j in (1, 2, 3)})
    return labelled(3, spec, sheet=True)


def pole_at_a_corner_of_the_seam():
    # g = x1 x2 / (x1^2 + x2^2) over 1.1 and 3.1 is continuous on x2 < 0 and
    # 0 at x1 = 0, so the merge at 2 lifts.  Merging at 1.2 after it glues g
    # with 0 on x2 = 0; g is 0 there for x1 != 0, but it is -1/2 along
    # x1 = -x2 towards the origin, which lies in the seam piece over the
    # root cell 2.2.
    g = "(div (mul x1 x2) (add (pow x1 2) (pow x2 2)))"
    return sheet_in_r3({(1, 1): g, (3, 1): g})


SEAM_VERDICTS = {
    # The name, the fixture and whether the merge at 2 lifts.
    "jump of 1/10^9": (lambda: jump_over_the_seam(F(1, 10**9)), False),
    "jump of 2^-20": (lambda: jump_over_the_seam(F(1, 2**20)), False),
    "jump of 2^-21": (lambda: jump_over_the_seam(F(1, 2**21)), False),
    "x2^3 - x2 over the seam": (lambda: seam_in_r3("0", "(sub (pow x2 3) x2)"), False),
    "x2 + x1 glues": (lambda: seam_in_r3("(add x2 x1)", "x2"), True),
    "pole at x2 = 3/2 next to the seam": (
        lambda: sheet_in_r3({(3, 3): "(div x1 (add x1 (pow (sub x2 3/2) 2)))"}),
        False,
    ),
    "pole at the seam's end": (lambda: sheet_in_r3({(3, 3): "(neg (div x1 x2))"}), True),
}


@pytest.mark.parametrize("name", SEAM_VERDICTS)
def test_seam_verdict_cold_and_warm(name):
    build, lifts = SEAM_VERDICTS[name]
    cad, labels = build()
    assert validate_cad(cad).ok
    assert (try_lift(build_tree(cad, labels), (2,)) is not None) == lifts
    explore(cad, labels)  # warms the root's verdict memo
    assert (try_lift(build_tree(cad, labels), (2,)) is not None) == lifts


def test_pole_at_a_corner_of_the_seam_does_not_lift():
    cad, labels = pole_at_a_corner_of_the_seam()
    assert validate_cad(cad).ok
    child = try_lift(build_tree(cad, labels), (2,))
    assert child is not None
    assert try_lift(child, (1, 2)) is None


def test_refinement_schedule_is_fixed():
    # Refinement has one schedule and no setting: a window between two
    # values is sought at widths 1/4, 2^-14, 2^-26, ..., without end, their
    # order proven exactly where 1/4 does not part them.  Values 2^-182 and
    # 2^-183 apart are ordered, where a schedule that stopped after 12
    # widths could not order the latter; so are the sections 2^-200 apart
    # at every probe, and their difference, the constant 2^-200, proves
    # them ordered, and the merge lifts.
    f = "(add (sqrt 2) (sqrt 3))"
    value = eval_coord(parse_expr(f), ())
    assert compare_coords(value, eval_coord(parse_expr(f"(add {f} {F(1, 2**182)})"), ())) == -1
    above = eval_coord(parse_expr(f"(add {f} {F(1, 2**183)})"), ())
    assert compare_coords(value, above) == -1
    # The 2^-183 gap is first parted at the width 2^-194 = 2^-2 * 2^-(12*16).
    assert sector_coords(value, above, 1) == [(value.approx(F(1, 2**194))[1] + above.approx(F(1, 2**194))[0]) / 2]
    assert value.approx(F(1, 2**182))[1] >= above.approx(F(1, 2**182))[0]
    cad, labels = sections_apart_by_2_to_the_minus_200()
    assert str(validate_cad(cad)) == "valid"
    assert try_lift(build_tree(cad, labels), (2,)) is not None


def test_section_with_a_jump_hidden_by_a_nested_division_does_not_lift():
    cad, labels = nested_division_jump()
    assert validate_cad(cad).ok
    assert try_lift(build_tree(cad, labels), (2,)) is None


def test_try_lift_requires_applicable_pivot():
    entry = disk_cp()
    # Unequal labels, odd, out of range, deeper than the leaves, an inner
    # letter out of range, empty.
    for pivot in ((2,), (3,), (0,), (8,), (4, 2, 2), (99, 2), ()):
        with pytest.raises(RuleNotApplicable):
            try_lift(build_tree(entry.cad, entry.labels), pivot)


def test_disordered_glued_stack_is_rejected_cold_and_warm():
    # Cold, the gate validates the root; warm, it reads the report kept on
    # the root.
    cad, labels = disordered_stack()
    with pytest.raises(ValidationFailed) as cold:
        build_tree(cad, labels)
    report = validate_cad(cad)
    assert cold.value.report is report and not report.ok
    with pytest.raises(ValidationFailed) as warm:
        build_tree(cad, labels)
    assert warm.value.report is report


REFUSED = {
    # The name, the fixture and the starts of lines of the report that
    # refuse it.
    "disordered stack": (disordered_stack, "violation: sections 1,2 above 1 are not strictly ordered on the cell"),
    "a sector between disordered sections": (
        a_sector_between_disordered_sections,
        "violation: sections 1,2 above 1 are not strictly ordered on the cell",
        "violation: cannot derive probes in 1.3: cannot separate section values 1 and 0",
    ),
    "sections crossing between the probes": (
        sections_crossing_between_the_probes,
        "violation: sections 1,2 above 1 cross inside the cell",
    ),
    "sections of undecided order": (sections_of_undecided_order, "undecided: section 1 above 1 undecided at a probe"),
}


@pytest.mark.parametrize("name", REFUSED)
def test_a_root_that_is_not_proven_a_cad_is_refused(name):
    build, *lines = REFUSED[name]
    for run in (build_tree, minimize, explore):
        cad, labels = build()
        with pytest.raises(ValidationFailed) as refused:
            run(cad, labels)
        got = str(refused.value).splitlines()
        assert all(any(g.startswith(line) for g in got) for line in lines), str(refused.value)
        assert refused.value.report is validate_cad(cad)


def test_leaf_level_merge_always_lifts():
    entry = disk_cpp()
    res = try_lift(build_tree(entry.cad, entry.labels), (4, 6))
    assert res is not None
    assert res.leaf_count() == 27
    assert validate_cad(res).ok
    assert check_adapted(entry.cad, entry.formula) == entry.labels
    assert block_label_mismatches(res, entry.labels) == ([], entry.cad.leaf_count())


def test_minimize_trousers_fixed_points():
    for entry in (trousers_c(), trousers_cp()):
        res = minimize(entry.cad, entry.labels)
        assert not res.applied
        assert res.leaf_count() == entry.expected["leaf_count"]


def test_minimize_disk_cp_reaches_disk_c():
    entry = disk_cp()
    res = minimize(entry.cad, entry.labels)
    assert [tuple(p) for p in res.applied] == [(4,)]
    assert res.leaf_count() == 13
    assert res.partition_blocks() == coarsening_blocks(disk_c().cad, entry.cad)


def test_minimize_disk_cpp_sampled_mode():
    entry = disk_cpp()
    res = minimize(entry.cad, entry.labels)
    assert res.leaf_count() == 13
    assert len(res.applied) == 4
    assert validate_cad(res).ok


def test_minimize_single_chain_identity():
    from tests.test_cadmodel import single_chain

    # R^0 too: one cell, labelled by its one probe, the empty point.
    for n in (0, 3):
        cad, labels = single_chain(n)
        assert validate_cad(cad).ok and check_adapted(cad, TRUE) == labels
        res = minimize(cad, labels)
        assert not res.applied and res.root is cad and res.partition_blocks() == cad.partition_blocks()
        report = poset_report(explore(cad, labels))
        assert (report["node_count"], report["edge_count"], report["confluent"]) == (1, 0, True)


def test_minimize_step_budget():
    entry = disk_cpp()
    res = minimize(entry.cad, entry.labels)
    assert len(res.applied) <= entry.cad.leaf_count() - 1


def test_insert_section_rebuilds_disk_cp():
    entry = disk_c()
    refined, labels = insert_section(entry.cad, entry.labels, (), 3, parse_expr("0"))
    assert refined.leaf_count() == 23
    assert validate_cad(refined).ok
    assert labels == disk_cp().labels
    # Round trip: merging at the inserted section recovers the original.
    res = try_lift(build_tree(refined, labels), (4,))
    assert res is not None
    assert res.partition_blocks() == coarsening_blocks(entry.cad, refined)


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
    with pytest.raises(ValueError, match="not strictly below section 2"):
        insert_section(entry.cad, entry.labels, (), 3, parse_expr("1"))
    with pytest.raises(ValueError, match="not strictly below section 2"):
        insert_section(entry.cad, entry.labels, (), 3, parse_expr("5"))


def reachable(target, start, labels):
    """Whether a chain of liftable merges from ``start`` reaches ``target``
    (reflexively), comparing partitions of the shared root."""
    nodes = explore(start, labels).nodes.values()
    return coarsening_blocks(target, start) in {node.partition_blocks() for node in nodes}


def test_reduction_reachable_disk():
    cp = disk_cp()
    res = try_lift(build_tree(cp.cad, cp.labels), (4,))
    assert res is not None
    assert reachable(res, cp.cad, cp.labels)
    assert reachable(cp.cad, cp.cad, cp.labels)  # reflexive


def test_reduction_reachable_respects_refinement():
    cpp = disk_cpp()
    target = disk_c()
    assert reachable(target.cad, cpp.cad, cpp.labels)
    assert refines(cpp.cad, target.cad, cpp.cad)


def lift_fixtures():
    """(name, builder of a fresh labelled root) for every gallery entry,
    disk-Cpp in R^4 and the fixtures above."""
    for name in gallery_names():
        yield name, lambda name=name: (load_entry(name).cad, load_entry(name).labels)
    yield "disk-Cpp in R^4", lambda: extend_cylinder(disk_cpp().cad, disk_cpp().labels, 4)
    for name, (build, _lifts) in SEAM_VERDICTS.items():
        yield name, build
    yield "pole at a corner of the seam", pole_at_a_corner_of_the_seam
    yield "nested division jump", nested_division_jump
    yield "sections 2^-200 apart", sections_apart_by_2_to_the_minus_200


def on_fresh_root(node: CadTree, build) -> CadTree:
    """The same coarsening of a new copy of its root, whose caches are empty."""
    root, _labels = build()
    return CadTree(root, node.top, node.applied)


def all_cells(cad: Cad):
    return [cell for k in range(cad.n + 1) for cell in cad.cells_of_level(k)]


def full_relabel_cellmap(tree: CadTree, pivot):
    """Oracle: every cell relabelled, merged cells' root cells united."""
    cellmap = {}
    for cell in all_cells(tree):
        image = relabel_index(pivot, cell)
        cellmap[image] = tuple(sorted(set(cellmap.get(image, ())) | set(tree.cell(cell).roots)))
    return cellmap


def assert_child_matches_full_relabel(node: CadTree, pivot, child: CadTree) -> None:
    """The child's index views, read off its cells and by index word, are
    the parent's relabelled: stack counts, root cells, leaf labels and
    blocks."""
    counts, labels = full_relabel_merge(node, pivot)
    cellmap = full_relabel_cellmap(node, pivot)
    assert index_views(child) == (counts, labels, cellmap)
    assert {cell: child.stack_count(cell) for k in range(child.n) for cell in child.cells_of_level(k)} == counts
    assert {cell: child.cell(cell).roots for cell in all_cells(child)} == cellmap
    assert child.labels == labels
    assert child.partition_blocks() == frozenset(frozenset(cellmap[leaf]) for leaf in labels)


def test_warm_verdicts_and_children_equal_cold_ones():
    lifts = 0
    for name, build in lift_fixtures():
        graph = explore(*build())  # warms the root's verdict memo
        for node in graph.nodes.values():
            for pivot in node.pivots:
                warm = try_lift(node, pivot)
                cold = try_lift(on_fresh_root(node, build), pivot)
                assert (warm is None) == (cold is None), (name, node.applied, pivot)
                lifts += 1
                if warm is None:
                    continue
                assert warm.applied == cold.applied == node.applied + (pivot,)
                assert_child_matches_full_relabel(node, pivot, warm)
                assert_child_matches_full_relabel(node, pivot, cold)
    assert lifts > 100


def test_incremental_merge_matches_full_relabel_on_gallery_pivots():
    merges = 0
    for name, build in lift_fixtures():
        graph = explore(*build())
        for node in graph.nodes.values():
            for pivot in node.pivots:
                reduced = apply_merge(node, pivot)
                assert index_views(reduced)[:2] == full_relabel_merge(node, pivot), (name, pivot)
                assert index_views(reduced)[2] == full_relabel_cellmap(node, pivot), (name, pivot)
                assert_valid(reduced)
                merges += 1
                child = try_lift(node, pivot)
                if child is not None:
                    assert_child_matches_full_relabel(node, pivot, child)
    assert merges > 100


def test_merge_shares_every_cell_off_its_path_and_triple():
    # Path copying: a merge makes the glued cell and copies the path above
    # it; every other cell is the parent's own object.
    shared = 0
    for _name, build in lift_fixtures():
        for node in explore(*build()).nodes.values():
            for pivot in node.pivots:
                shared += assert_shares_all_but_the_path_and_the_triple(node, pivot, apply_merge(node, pivot))
    rng = random.Random(12)
    for _ in range(100):
        tree = random_tree(rng, rng.randint(1, 3))
        for pivot in applicable_pivots(tree):
            shared += assert_shares_all_but_the_path_and_the_triple(tree, pivot, apply_merge(tree, pivot))
    assert shared > 1000


def explored_inputs(monkeypatch):
    """(name, labelled root) for the gallery, its lifts to R^6 and
    disk-lines(7)."""
    for name in gallery_names():
        entry = load_entry(name)
        yield name, (entry.cad, entry.labels)
        yield f"{name}@R6", extend_cylinder(entry.cad, entry.labels, 6)
    disk = load_perfbench("workloads", monkeypatch).disk_lines(7, 0)
    yield disk.name, (disk.cad, disk.labels)


def test_kept_pivots_and_blocks_match_the_walks(monkeypatch):
    # Every cell keeps its pivots, and a node's partition is read off its
    # leaves' root cells; the walks by index word stay here as oracles.
    nodes = 0
    for name, (cad, labels) in explored_inputs(monkeypatch):
        for node in explore(cad, labels).nodes.values():
            assert len(node.pivots) == len(walk_pivots(node)), (name, node.applied)
            assert set(node.pivots) == walk_pivots(node), (name, node.applied)
            by_word = frozenset(frozenset(node.cell(leaf).roots) for leaf in node.leaves())
            assert node.partition_blocks() == by_word, (name, node.applied)
            nodes += 1
    assert nodes > 100


def recomputed_form(root: Cad, section: Cell):
    """Oracle: a section cell's form from its root cells: the one normal
    form of their pieces when it is guard-free, else None."""
    forms = {canonicalize(f) for _, f in reduction._pieces(root, section)}
    if len(forms) != 1:
        return None
    (form,) = forms
    return None if any_node(form, is_piecewise) else form


def section_cells(tree: CadTree) -> list[Cell]:
    return [cell for index, cell in indexed_cells(tree) if index and index[-1] % 2 == 0]


def test_kept_forms_and_ordered_pivots_match_their_oracles(monkeypatch):
    # A section cell keeps its form once a lift check has read it, or once
    # it is glued from three cells that have theirs; a path copy keeps the
    # form of the cell it copies.  A cell that no check has reached, for
    # instance below a node whose lifts all hit the memo, has none yet; made
    # now, it is the same.  Every node's pivots come in pivot order.
    inputs = [(name, build()) for name, build in lift_fixtures()] + list(explored_inputs(monkeypatch))
    graphs = [(name, cad.root, explore(cad, labels)) for name, (cad, labels) in inputs]
    kept = unmade = nodes = 0
    for name, root, graph in graphs:
        for node in graph.nodes.values():
            assert list(node.pivots) == sorted(applicable_pivots(node), key=pivot_order), (name, node.applied)
            for cell in section_cells(node):
                if cell.form is not UNMADE:
                    assert cell.form == recomputed_form(root, cell), (name, node.applied, cell.roots)
                    kept += 1
            nodes += 1
    for name, root, graph in graphs:
        for node in graph.nodes.values():
            for cell in section_cells(node):
                if cell.form is UNMADE:
                    assert reduction._form(root, cell) == recomputed_form(root, cell), (name, node.applied)
                    unmade += 1
    assert nodes > 300 and kept > 2000 and unmade > 100, (nodes, kept, unmade)


def test_spliced_copies_keep_every_cells_pivots_in_order():
    # A path copy splices its label and pivots from the cell it replaces;
    # along random merge chains every cell's pivots are the walk's, in
    # pivot order.
    rng = random.Random(13)
    merges = 0
    for _ in range(400):
        t = random_tree(rng, rng.randint(1, 3))
        while t.top.pivots:
            t = apply_merge(t, t.top.pivots[rng.randrange(len(t.top.pivots))])
            assert_valid(t)
            for index, cell in indexed_cells(t):
                below = CadTree(None, cell)
                assert list(cell.pivots) == sorted(walk_pivots(below), key=pivot_order), index
            merges += 1
    assert merges > 150


def walk_slots(glues_continuously, root: Cad, cells) -> list:
    """Oracle: (slot key, verdict) for every slot of every glued stack of a
    lift, in the order of the walk, each checked on ``root`` with no memo.
    A slot key is the merge level and the root cells of the slot's three
    section cells."""
    k = len(cells[1].roots[0])
    slots = []
    frontier = [cells]
    while frontier:
        left, mid, right = frontier.pop()
        for i in range(1, len(mid.children), 2):
            sections = (left.children[i], mid.children[i], right.children[i])
            slots.append(((k, *[section.roots for section in sections]), glues_continuously(root, k, sections)))
        frontier += zip(left.children, mid.children, right.children)
    return slots


def test_a_lift_verdict_is_made_only_through_the_per_slot_memo(monkeypatch):
    # Every lift's verdict equals the oracle's on a fresh root, and on each
    # root the check of one slot runs exactly once per slot key that some
    # lift reaches: its walk stops at the first slot that fails.
    original = reduction._glues_continuously
    checked = []

    def counted(root, k, sections):
        checked.append((root, k, *[section.roots for section in sections]))
        return original(root, k, sections)

    monkeypatch.setattr(reduction, "_glues_continuously", counted)
    reached = set()
    verdicts = Counter()
    for name, (cad, labels) in explored_inputs(monkeypatch):
        fresh = Cad(cad.n, cad.stacks)
        for node in explore(cad, labels).nodes.values():
            for pivot in node.pivots:
                slots = walk_slots(original, fresh, triple(node, pivot))
                verdict = try_lift(node, pivot) is not None
                assert verdict == all(ok for _, ok in slots), (name, node.applied, pivot)
                verdicts[verdict] += 1
                for key, ok in slots:
                    reached.add((cad, *key))
                    if not ok:
                        break
    assert Counter(checked) == Counter(reached)
    assert verdicts[True] > 400 and verdicts[False] > 20
    assert len(reached) < sum(verdicts.values()) / 2


def assert_section_probes_extend_their_base(cad: Cad, where) -> None:
    """The i-th probe of a section cell of a root is the i-th probe of its
    base with the value there of the section's stack function appended."""
    for k in range(cad.n):
        for cell in cad.cells_of_level(k):
            base = cad.cell_points(cell)
            for slot, f in enumerate(cad.stacks[cell].functions, start=1):
                probes = cad.cell_points(cell + (2 * slot,))
                assert [p[:-1] for p in probes] == base, (where, cell, slot)
                for point in probes:
                    assert compare_coords(point[-1], eval_coord(f, point[:-1])) == 0, (where, cell, slot)


def test_section_probes_extend_their_base_probes(monkeypatch):
    # ``_check_at_probes`` reads a section's value at a cell's i-th probe
    # off the section cell's i-th probe.
    for name, (cad, _labels) in explored_inputs(monkeypatch):
        assert_section_probes_extend_their_base(cad, name)


def test_probe_counts_are_fixed_per_root_cell(monkeypatch):
    # A root cell's probe set is fixed: one point on a point cell (every
    # letter even), ``PROBES`` points on any other.
    sizes = Counter()
    for name, (cad, _labels) in explored_inputs(monkeypatch):
        for cell in all_cells(cad):
            want = 1 if all(letter % 2 == 0 for letter in cell) else cadmodel.PROBES
            assert len(cad.cell_points(cell)) == want, (name, cell)
            sizes[want] += 1
    assert sizes[1] > 50 and sizes[cadmodel.PROBES] > 1000, sizes


def test_a_coarsening_has_no_probes_and_its_report_is_its_roots(monkeypatch):
    # A coarsening is structural: its cells are unions of root cells, so
    # it has no probes, and ``validate_cad`` gives it its root's report.
    # Where a root is needed, a coarsening is refused with a ``ValueError``.
    views = 0
    for name, (cad, labels) in explored_inputs(monkeypatch):
        for node in explore(cad, labels).nodes.values():
            assert not hasattr(node, "cell_points"), (name, node.applied)
            with pytest.raises(ValueError, match="probes belong to root cells"):
                check_adapted(node, TRUE)
            with pytest.raises(ValueError, match="expects a root CAD"):
                extend_cylinder(node, node.labels, node.n + 1)
            assert validate_cad(node) is validate_cad(node.root), (name, node.applied)
            views += 1
    assert views > 100


def test_validation_evaluates_no_section_twice(monkeypatch):
    # A cost guard that reads no clock: once the probes are derived, the
    # probe pass of validation evaluates no section function again.
    cad = load_perfbench("workloads", monkeypatch).disk_lines(96, 0).cad
    for k in range(cad.n + 1):
        for cell in cad.cells_of_level(k):
            cad.cell_points(cell)
    calls = []
    evaluate = cadmodel.eval_coord
    monkeypatch.setattr(cadmodel, "eval_coord", lambda *args: calls.append(1) or evaluate(*args))
    report = cadmodel.ValidationReport()
    cadmodel._check_at_probes(cad, report, set())
    assert report.admits_reduction and calls == []


def test_the_check_phase_evaluates_each_section_once_per_base_probe(monkeypatch):
    # A cost guard that reads no clock: on a fresh root, ``validate_cad``
    # and ``check_adapted`` take at each probe of a cell one root per
    # distinct square-root argument of its stack, shared by sqrt(g) and
    # -sqrt(g), and one value of every other section.  A sector reads its
    # bounds off its section cells.  A root is taken in integers
    # (``sqrt_coord``) or, off a rational probe, by ``eval_coord``.
    disk = load_perfbench("workloads", monkeypatch).disk_lines(96, 0)
    inputs = [(disk.name, disk.cad, disk.formula)]
    for name in gallery_names():
        entry = load_entry(name)
        inputs.append((name, entry.cad, entry.formula))
        inputs.append((f"{name}@R6", extend_cylinder(entry.cad, entry.labels, 6)[0], entry.formula))
    evaluate, take_root = cadmodel.eval_coord, cadmodel.sqrt_coord
    counts = {}
    for name, built, formula in inputs:
        cad = Cad(built.n, built.stacks)
        evaluated, rooted = [], []
        monkeypatch.setattr(cadmodel, "eval_coord", lambda *args: evaluated.append(1) or evaluate(*args))
        monkeypatch.setattr(cadmodel, "sqrt_coord", lambda c: rooted.append(1) or take_root(c))
        assert validate_cad(cad).admits_reduction, name
        check_adapted(cad, formula)
        monkeypatch.undo()
        stacked = [cell for k in range(cad.n) for cell in cad.cells_of_level(k)]
        wanted = sum(
            len({f.arg if isinstance(f, Neg) and isinstance(f.arg, Sqrt) else f for f in cad.stacks[cell].functions})
            * len(cad.cell_points(cell))
            for cell in stacked
        )
        counts[name] = (len(evaluated), len(rooted), wanted)
    assert all(evaluated + rooted == wanted for evaluated, rooted, wanted in counts.values()), counts
    # 97 inner sectors with 3 probes and 96 lines with 1 take one root of
    # 1 - x1^2 each; the 98 base sections and the two [0] stacks are others.
    assert counts[disk.name] == (100, 387, 487)


def count_cells(monkeypatch) -> list:
    """A list that gets one entry for each ``Cell`` made from now on."""
    made = []
    init = Cell.__init__

    def counted(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Cell, "__init__", counted)
    return made


def root_cell_count(cad: Cad) -> int:
    return sum(len(cad.cells_of_level(k)) for k in range(cad.n + 1))


def test_cells_made_per_merge_do_not_grow_with_the_cad(monkeypatch):
    # A cost guard that reads no clock.  A merge makes the glued cells and
    # copies the path above them, so beyond the root's own tree ``minimize``
    # on disk-lines(m) makes as many cells per merge at every m, and
    # ``explore`` makes cells only for a partition it has not seen: as many
    # cells per node, although a node has m/2 edges on average.
    workloads = load_perfbench("workloads", monkeypatch)
    made = count_cells(monkeypatch)
    per_merge, per_node = {}, {}
    for m in (48, 96, 192):
        inp = workloads.disk_lines(m, 0)
        before = len(made)
        res = minimize(inp.cad, inp.labels)
        assert len(res.applied) == m
        per_merge[m] = (len(made) - before - root_cell_count(inp.cad)) / m
    for m in (5, 6, 7):
        inp = workloads.disk_lines(m, 0)
        before = len(made)
        graph = explore(inp.cad, inp.labels)
        assert len(graph.nodes) == 2**m
        per_node[m] = (len(made) - before - root_cell_count(inp.cad)) / (len(graph.nodes) - 1)
    assert per_merge[192] <= per_merge[96] <= per_merge[48], per_merge
    assert per_node[7] <= per_node[6] <= per_node[5], per_node


def held_objects(cell: Cell) -> set:
    """The ids of the objects a cell holds, one level into its tuples."""
    held = set()
    for value in gc.get_referents(cell):
        held.add(id(value))
        if type(value) is tuple:
            held.update(map(id, value))
    return held


def test_memo_keys_and_pivot_splices_cost_the_same_per_merge_at_every_m(monkeypatch):
    # A cost guard that reads no clock.  Over ``minimize`` on disk-lines(m),
    # two counts per merge stay fixed, although the glued left flank and the
    # top cell's own pivots grow with m: the root cells hashed, which are
    # none (a lift memo keyed by the root cells hashes the left flank's), and
    # the objects the new top cell holds, one level into its tuples, that
    # the top cell it replaces did not (pivots renumbered one by one would
    # all be new).  Every top cell is kept, so ids stay unique.
    workloads = load_perfbench("workloads", monkeypatch)
    hashed = []

    class Word(tuple):
        """A root cell's index word that counts its hashes."""

        __slots__ = ()

        def __hash__(self):
            hashed.append(1)
            return tuple.__hash__(self)

    init = Cell.__init__

    def with_counted_words(self, roots, *args, **kwargs):
        if type(roots) is tuple and len(roots) == 1:  # a root cell's
            roots = (Word(roots[0]),)
        init(self, roots, *args, **kwargs)

    tops = []
    merge = reduction.merge_applicable

    def recorded_merge(tree, pivot, table):
        reduced = merge(tree, pivot, table)
        tops.append((tree.top, reduced.top))
        return reduced

    monkeypatch.setattr(Cell, "__init__", with_counted_words)
    monkeypatch.setattr(reduction, "merge_applicable", recorded_merge)
    hashes, fresh = {}, {}
    for m in (48, 96, 192):
        inp = workloads.disk_lines(m, 0)
        validate_cad(inp.cad)
        del hashed[:], tops[:]
        assert len(minimize(inp.cad, inp.labels).applied) == len(tops) == m
        hashes[m] = len(hashed) / m
        fresh[m] = sum(len(held_objects(new) - held_objects(old)) for old, new in tops) / m
    assert hashes == {48: 0, 96: 0, 192: 0}, hashes
    # An own pivot is a count kept from the last child; a count made anew is
    # a new object only above 256, so a few more are new at larger m.
    assert max(fresh.values()) < 10 and fresh[192] - fresh[48] < 1, fresh


def test_a_slot_verdict_is_kept_under_its_three_section_cells(monkeypatch):
    # A cost guard that reads no clock.  The lift memo keys a slot by its
    # level and its three section cells, compared by identity.  ``explore``
    # on disk-lines(m), m = 5 to 8, checks 70, 112, 168 and 240 slots, as
    # many as a memo keyed by the slots' root cells checks, and the memo
    # holds one entry per check.  A pass of the perfbench gallery checks 27
    # slots in ``minimize`` and 27 in ``explore``.
    workloads = load_perfbench("workloads", monkeypatch)
    checked = []
    original = reduction._glues_continuously
    monkeypatch.setattr(reduction, "_glues_continuously", lambda *args: checked.append(1) or original(*args))
    for m, want in zip((5, 6, 7, 8), (70, 112, 168, 240)):
        disk = workloads.disk_lines(m, 0)
        del checked[:]
        explore(disk.cad, disk.labels)
        assert len(checked) == len(disk.cad._lift_cache) == want, m
    counts = []
    result = workloads.run_pass(workloads.build("gallery", 0), lambda: counts.append(len(checked)))
    assert result.failed == 0, result.failures
    # The calls between the phases: check, minimize, poset.
    assert [b - a for a, b in zip(counts, counts[1:])] == [0, 27, 27]


def test_explore_builds_nothing_for_an_edge_into_a_seen_node(monkeypatch):
    # A cost guard that reads no clock.  ``explore`` merges once per edge,
    # with interned cells, so a merge that ends at a top cell seen before in
    # the call makes no cell.  Neither ``explore`` nor ``poset_report``
    # makes a partition: not on disk-lines(m), not on the gallery, and not
    # on a ``minimize`` result fed back in.  The top cells are kept, so each
    # is compared by identity while the test holds it.
    workloads = load_perfbench("workloads", monkeypatch)
    others = [(entry.cad, entry.labels) for entry in map(load_entry, gallery_names())]
    disk = workloads.disk_lines(96, 0)
    reduced = minimize(disk.cad, disk.labels)
    others.append((reduced, reduced.labels))
    made = count_cells(monkeypatch)
    merges = []
    merge = reduction.merge_applicable

    def recorded_merge(tree, pivot, table):
        before = len(made)
        reduced = merge(tree, pivot, table)
        merges.append((reduced.top, len(made) - before))
        return reduced

    def no_partition(self):
        raise AssertionError("a partition was made")

    monkeypatch.setattr(reduction, "merge_applicable", recorded_merge)
    monkeypatch.setattr(Cad, "partition_blocks", no_partition)
    monkeypatch.setattr(CadTree, "partition_blocks", no_partition)
    for m in (5, 6, 7, 8):
        inp = workloads.disk_lines(m, 0)
        del merges[:]
        graph = explore(inp.cad, inp.labels)
        assert poset_report(graph)["node_count"] == len(graph.nodes)
        assert len(graph.nodes) == 2**m and len(merges) == len(graph.edges), m
        seen, into_seen = set(), []
        for top, cells in merges:
            if top in seen:
                into_seen.append(cells)
            seen.add(top)
        assert len(seen) == len(graph.nodes) - 1 and len(into_seen) == len(graph.edges) - len(seen), m
        assert not any(into_seen), m
    reports = [poset_report(explore(cad, labels)) for cad, labels in others]
    assert [len(report["minimal"]) for report in reports].count(2) == 3 and reports[-1]["node_count"] == 1


def test_explore_checks_each_pivot_once_and_makes_one_tree_per_lift(monkeypatch):
    # A cost guard that reads no clock.  A lift checks its pivot once, then
    # merges, and an accepted lift makes one coarsening, its ``CadTree``:
    # on disk-lines(7), one tree for the start and one per edge.
    inp = load_perfbench("workloads", monkeypatch).disk_lines(7, 0)
    checks, trees = [], []
    check, init = reduction.is_applicable, CadTree.__init__

    def counted_check(*args):
        checks.append(1)
        return check(*args)

    def counted_init(self, *args):
        trees.append(1)
        init(self, *args)

    monkeypatch.setattr(reduction, "is_applicable", counted_check)
    monkeypatch.setattr("cadreduce.tree.is_applicable", counted_check)
    monkeypatch.setattr(CadTree, "__init__", counted_init)
    graph = explore(inp.cad, inp.labels)
    assert (len(graph.nodes), len(graph.edges)) == (128, 448)
    assert (len(checks), len(trees)) == (448, 449)


# The trees and cells one pass of each perfbench workload makes: ``explore``
# from a root starts from the tree ``minimize`` started from, so a root and
# its labels make one tree (the counts were 457 / 147 / 105 trees and
# 550 / 1843 / 2048 cells when each call grew its own).  disk-lines-reduce
# explores from the ``minimize`` result, which starts from its own cells.
MADE_PER_PASS = {"disk-lines-poset": (456, 447), "disk-lines-reduce": (147, 1843), "gallery": (90, 1281)}


def explored_by_history(graph):
    """A graph's node histories, in breadth-first order, and its edges as
    (source history, pivot, target history)."""
    history = {top: node.applied for top, node in graph.nodes.items()}
    return list(history.values()), {(history[src], pivot, history[dst]) for src, pivot, dst in graph.edges}


def test_minimize_and_explore_share_one_tree_per_root_and_labelling(monkeypatch):
    # A cost guard that reads no clock, and what the shared tree must not
    # change: equal labels in a new dict reuse the tree, labels edited in
    # place get a tree of their own, bad labels raise at every entry, and
    # ``explore`` answers alike with and without a ``minimize`` before it.
    workloads = load_perfbench("workloads", monkeypatch)
    made, trees = count_cells(monkeypatch), []
    init = CadTree.__init__

    def counted_init(self, *args):
        trees.append(1)
        init(self, *args)

    monkeypatch.setattr(CadTree, "__init__", counted_init)
    for name, want in MADE_PER_PASS.items():
        workload = workloads.build(name, 0)
        del made[:], trees[:]
        assert workloads.run_pass(workload).failed == 0, name
        assert (len(trees), len(made)) == want, name
    monkeypatch.undo()

    entry = disk_cp()
    labels = dict(entry.labels)
    start = build_tree(entry.cad, labels)
    assert build_tree(entry.cad, dict(entry.labels)) is start
    assert explore(entry.cad, dict(labels)).nodes[start.top] is start
    assert minimize(entry.cad, labels).applied == ((4,),)
    labels[(4, 2)] = 1 - labels[(4, 2)]
    edited = build_tree(entry.cad, labels)
    assert edited is not start and edited.labels == labels and start.labels == entry.labels
    fresh = disk_cp().cad
    assert edited.pivots == build_tree(fresh, labels).pivots != start.pivots
    assert minimize(entry.cad, labels).applied == minimize(fresh, labels).applied
    for bad, error in bad_labellings(entry):
        for run in (build_tree, minimize, explore):
            with pytest.raises(error):
                run(entry.cad, bad)
    assert build_tree(entry.cad, labels) is edited

    for name in gallery_names():
        alone, after = load_entry(name), load_entry(name)
        minimize(after.cad, after.labels)
        graphs = explore(alone.cad, alone.labels), explore(after.cad, after.labels)
        assert poset_report(graphs[0]) == poset_report(graphs[1]), name
        assert explored_by_history(graphs[0]) == explored_by_history(graphs[1]), name


def test_a_lifted_child_holds_its_own_tree_and_no_other_coarsening(monkeypatch):
    # A child is a value: ``try_lift`` makes its cells at once, and the
    # child keeps no link to its parent, so a parent that is dropped is
    # freed.
    workloads = load_perfbench("workloads", monkeypatch)
    children = 0
    for inp in (disk_cp(), workloads.disk_lines(3, 0)):
        frontier = [build_tree(inp.cad, inp.labels)]
        while frontier:
            node = frontier.pop()
            for pivot in node.pivots:
                child = try_lift(node, pivot)
                if child is None:
                    continue
                held = vars(child)
                assert held["root"] is inp.cad and isinstance(held["top"], Cell), (pivot, sorted(held))
                assert not any(isinstance(value, CadTree) for value in held.values()), (pivot, sorted(held))
                children += 1
                frontier.append(child)
    assert children > 10


def test_lift_checks_list_as_many_root_cells_per_merge_at_every_m(monkeypatch):
    # A cost guard that reads no clock.  A lift check compares the kept
    # forms of its three section cells and lists root cells only to make
    # the form of a cell that has none, so ``minimize`` on disk-lines(m)
    # lists as many per merge at every m, although the glued left flank
    # grows with each merge.  The top cell keeps its pivots in pivot order,
    # so no node sorts them with a ``pivot_order`` key.
    workloads = load_perfbench("workloads", monkeypatch)
    listed = []
    pieces = reduction._pieces

    def counted(root, section):
        listed.append(len(section.roots))
        return pieces(root, section)

    monkeypatch.setattr(reduction, "_pieces", counted)
    keyed = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_name == "pivot_order":
            keyed.append(frame.f_code.co_filename)

    per_merge = {}
    for m in (48, 96, 192):
        inp = workloads.disk_lines(m, 0)
        before, outer = len(listed), sys.getprofile()
        sys.setprofile(profile)
        try:
            res = minimize(inp.cad, inp.labels)
        finally:
            sys.setprofile(outer)
        assert len(res.applied) == m
        per_merge[m] = sum(listed[before:]) / m
    assert per_merge[192] <= per_merge[96] <= per_merge[48], per_merge
    assert keyed == []


def assert_glued_sections_are_root_sections(cad: CadTree, where) -> None:
    """Over each root cell of a cell, each section of the cell's stack is
    exactly one root section, and their letters increase with the slot: a
    glued stack is ordered wherever the root's stacks are."""
    for k in range(cad.n):
        for cell in cad.cells_of_level(k):
            for root_parent in cad.cell(cell).roots:
                letters = []
                for slot in range(1, cad.stack_count(cell) + 1):
                    over = [q[-1] for q in cad.cell(cell + (2 * slot,)).roots if q[:-1] == root_parent]
                    assert len(over) == 1 and over[0] % 2 == 0, (where, cell, slot, root_parent, over)
                    letters += over
                assert all(a < b for a, b in zip(letters, letters[1:])), (where, cell, root_parent, letters)


def test_glued_stacks_select_increasing_root_sections():
    # No merge checks the order of its glued stack; this invariant and the
    # root's validation are why none needs to.
    nodes = 0
    for name, build in lift_fixtures():
        for node in explore(*build()).nodes.values():
            assert_glued_sections_are_root_sections(node, (name, node.applied))
            nodes += 1
    assert nodes > 100


def test_validation_runs_once_per_root(monkeypatch):
    # A cost guard that reads no clock: the check phase validates the root,
    # and ``minimize`` and ``explore``, from the root or from a coarsening
    # of it, read the report kept on the root.
    passes = []
    probe_pass = cadmodel._check_at_probes

    def counted(*args):
        passes.append(1)
        probe_pass(*args)

    monkeypatch.setattr(cadmodel, "_check_at_probes", counted)
    inp = load_perfbench("workloads", monkeypatch).disk_lines(5, 0)
    assert validate_cad(inp.cad).ok and len(passes) == 1
    res = minimize(inp.cad, inp.labels)
    explore(inp.cad, inp.labels)
    explore(res, res.labels)
    assert len(passes) == 1


def count_cads(monkeypatch) -> list:
    """A list that gets one entry for each ``Cad`` made from now on."""
    made = []
    init = Cad.__init__

    def counted(self, *args):
        made.append(1)
        init(self, *args)

    monkeypatch.setattr(Cad, "__init__", counted)
    return made


def test_the_pipeline_makes_no_coarsening_view(monkeypatch):
    # A coarsening is one object, its ``CadTree``: the result of
    # ``minimize`` and every node of ``explore`` is one, and its ``cad`` is
    # itself.  A ``Cad`` is a root, so the pipeline makes none.
    workloads = load_perfbench("workloads", monkeypatch)
    inputs = [(name, load_entry(name)) for name in gallery_names()] + [("disk-lines(7)", workloads.disk_lines(7, 0))]
    made = count_cads(monkeypatch)
    lifted = 0
    for name, inp in inputs:
        res = minimize(inp.cad, inp.labels)
        assert type(res) is CadTree and res.cad is res and res.root is inp.cad, (name, "minimize")
        lifted += len(res.applied)
        graph = explore(inp.cad, inp.labels)
        poset_report(graph)
        assert all(type(node) is CadTree and node.cad is node for node in graph.nodes.values()), (name, "explore")
        lifted += len(graph.nodes) - 1
        assert not made, (name, len(made))
    assert lifted > 100


def test_minimize_applies_the_merges_of_a_full_rescan(monkeypatch):
    # ``minimize`` scans the top cell's kept pivots and stops at the first
    # lift; its merges are those of the reference loop, which walks the
    # whole tree for pivots and tries them all again after each lift, on
    # every input of ``answers.json`` and on disk-lines(48 / 96 / 192).
    from tests.test_answers import inputs

    workloads = load_perfbench("workloads", monkeypatch)
    cases = [(name, build()) for name, build in inputs()]
    cases += [(f"disk-lines({m})", (d.cad, d.labels)) for m in (48, 96, 192) for d in [workloads.disk_lines(m, 0)]]
    merges = 0
    for name, (cad, labels) in cases:
        try:
            want = greedy_applied(cad, labels)
        except ValidationFailed:
            with pytest.raises(ValidationFailed):
                minimize(cad, labels)
            continue
        assert minimize(cad, labels).applied == want, name
        merges += len(want)
    assert merges > 48 + 96 + 192


def bad_labellings(entry):
    """A label on a non-leaf cell, a missing leaf label, and labels of 2,
    ``True`` and ``1.0``, which are no int 0 or 1."""
    on_section = {**entry.labels, (4,): 0}
    missing = dict(entry.labels)
    del missing[(4, 2)]
    bad_bits = [({**entry.labels, (4, 2): bit}, ValueError) for bit in (2, True, 1.0)]
    return [(on_section, ValueError), (missing, LabelMissing), *bad_bits]


@pytest.mark.parametrize("run", [build_tree, minimize, explore], ids=["build_tree", "minimize", "explore"])
def test_one_label_rule_at_the_boundary(run):
    entry = disk_cp()
    for labels, error in bad_labellings(entry):
        with pytest.raises(error):
            run(entry.cad, labels)


@pytest.mark.parametrize("run", [build_tree, minimize, explore], ids=["build_tree", "minimize", "explore"])
def test_a_coarsening_fed_back_in_keeps_its_cells(run, monkeypatch):
    # A coarsening labelled by its own leaves starts from its own cells: no
    # cell is made again, and the forms its lift checks made stay made.
    # Any other labels are refused at the boundary.
    inp = load_perfbench("workloads", monkeypatch).disk_lines(96, 0)
    res = minimize(inp.cad, inp.labels)
    kept = [(cell, cell.form) for cell in section_cells(res) if cell.form is not UNMADE]
    made = count_cells(monkeypatch)
    start = run(res, res.labels)
    if run is explore:
        assert len(start.nodes) == 1
        (start,) = start.nodes.values()
    assert start.top is res.top and start.applied == () and start.root is inp.cad
    assert not made and kept and all(cell.form is form for cell, form in kept)
    flipped = {leaf: 1 - bit for leaf, bit in res.labels.items()}
    # Labels of the wrong count, and a word whose letter leaves the tree.
    (first, bit), *rest = res.labels.items()
    for labels in (flipped, dict(rest), {(99,) * len(first): bit, **dict(rest)}):
        with pytest.raises(ValueError):
            run(res, labels)
    # Its own bits as a bool or a float, equal to them but no int.
    for same in (bool(bit), float(bit)):
        with pytest.raises(ValueError, match="leaf labels must be 0 or 1"):
            run(res, {**res.labels, first: same})
    with pytest.raises(ValueError):
        labelled_tree(res, res.labels)
