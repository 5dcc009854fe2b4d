import random
from fractions import Fraction

import pytest

from cadreduce.cadmodel import Cad, SectionStack, check_adapted, validate_cad
from cadreduce import cadmodel
from cadreduce.errors import LabelMissing, RuleNotApplicable, UnknownOrder, ValidationFailed
from cadreduce.expr import compare_coords, eval_coord, parse_expr
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
from cadreduce.poset import explore, extend_cylinder
from cadreduce.reduction import (
    Coarsening,
    lift_key,
    minimize,
    try_lift,
)
from cadreduce.tree import Cell, applicable_pivots, apply_merge, build_tree, relabel_index, sibling
from tests.oracles import coarsening_blocks, insert_section, refines
from tests.test_packaging import load_perfbench
from tests.test_tree import (
    assert_shares_all_but_the_path_and_the_triple,
    assert_valid,
    full_relabel_merge,
    index_views,
    random_tree,
    walk_key,
    walk_pivots,
)

F = Fraction


def test_disk_merge_lifts_to_disk_c():
    entry = disk_cp()
    res = try_lift(Coarsening.of(entry.cad, entry.labels), (4,))
    assert res is not None
    merged, labels = res.cad, res.labels
    assert merged.leaf_count() == 13
    expected = coarsening_blocks(disk_c().cad, entry.cad)
    assert merged.partition_blocks() == expected
    # The lifted CAD is valid and its transported labels are reproduced.
    assert validate_cad(merged).ok
    assert check_adapted(merged, entry.formula) == labels


def test_trousers_merges_do_not_lift():
    for entry, pivot in ((trousers_c(), (1, 2)), (trousers_cp(), (3, 2))):
        assert try_lift(Coarsening.of(entry.cad, entry.labels), pivot) is None


def test_ushape_merges_do_not_lift():
    for entry, pivot in ((ushape_c(), (1, 2)), (ushape_cp(), (3, 2))):
        assert try_lift(Coarsening.of(entry.cad, entry.labels), pivot) is None


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
    # f = sqrt2 + sqrt3 and g = f + 2^-200, closer than interval refinement
    # can separate.
    f = "(add (sqrt 2) (sqrt 3))"
    functions = (parse_expr(f), parse_expr(f"(add {f} {Fraction(1, 2**200)})"))
    stacks = {(): SectionStack((parse_expr("0"),))}
    stacks.update({(i,): SectionStack(functions) for i in (1, 2, 3)})
    cad = Cad(2, stacks)
    return cad, {leaf: 0 for leaf in cad.leaves()}


def sections_crossing_between_the_probes():
    # Base stack [0]; over the cell 1 the stack [0, (x1+1)(x1+2) + 1/8].
    # The probes of the cell are x1 = -1 and -2, where the sections are 1/8
    # apart, but they cross at x1 = (-3 +- sqrt(1/2))/2.
    return labelled(2, {(): ["0"], (1,): ["0", "(add (mul (add x1 1) (add x1 2)) 1/8)"], (2,): [], (3,): []})


def sections_of_undecided_order():
    # Base stack [0]; over each of the cells 1, 2, 3 the stack [f, g] with
    # f = sqrt2 + sqrt3 and g = sqrt(5 + 2 sqrt6) + 2^-200, which is
    # f + 2^-200.  Their square roots differ, so g - f is no constant, and
    # interval refinement cannot order them.
    f = "(add (sqrt 2) (sqrt 3))"
    g = f"(add (sqrt (add 5 (mul 2 (sqrt 6)))) {Fraction(1, 2**200)})"
    return labelled(2, {(): ["0"], **{(i,): [f, g] for i in (1, 2, 3)}})


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
    assert (try_lift(Coarsening.of(cad, labels), (2,)) is not None) == lifts
    explore(cad, labels)  # warms the root's verdict memo
    assert (try_lift(Coarsening.of(cad, labels), (2,)) is not None) == lifts


def test_pole_at_a_corner_of_the_seam_does_not_lift():
    cad, labels = pole_at_a_corner_of_the_seam()
    assert validate_cad(cad).ok
    child = try_lift(Coarsening.of(cad, labels), (2,))
    assert child is not None
    assert try_lift(child, (1, 2)) is None


def test_refinement_schedule_is_fixed():
    # Interval refinement has one schedule and no setting: it separates
    # lazy values 2^-182 apart, but not 2^-183 apart, and so it cannot order
    # the sections 2^-200 apart at a probe.  Their difference is the
    # constant 2^-200, which proves them ordered, and the merge lifts.
    f = "(add (sqrt 2) (sqrt 3))"
    value = eval_coord(parse_expr(f), ())
    assert compare_coords(value, eval_coord(parse_expr(f"(add {f} {F(1, 2**182)})"), ())) == -1
    with pytest.raises(UnknownOrder):
        compare_coords(value, eval_coord(parse_expr(f"(add {f} {F(1, 2**183)})"), ()))
    cad, labels = sections_apart_by_2_to_the_minus_200()
    assert str(validate_cad(cad)) == "valid"
    assert try_lift(Coarsening.of(cad, labels), (2,)) is not None


def test_section_with_a_jump_hidden_by_a_nested_division_does_not_lift():
    cad, labels = nested_division_jump()
    assert validate_cad(cad).ok
    assert try_lift(Coarsening.of(cad, labels), (2,)) is None


def test_try_lift_requires_applicable_pivot():
    entry = disk_cp()
    # Unequal labels, odd, out of range, deeper than the leaves, empty.
    for pivot in ((2,), (3,), (0,), (8,), (4, 2, 2), ()):
        with pytest.raises(RuleNotApplicable):
            try_lift(Coarsening.of(entry.cad, entry.labels), pivot)


def test_disordered_glued_stack_is_rejected_cold_and_warm():
    # Cold, the gate validates the root; warm, it reads the report kept on
    # the root.
    cad, labels = disordered_stack()
    with pytest.raises(ValidationFailed) as cold:
        Coarsening.of(cad, labels)
    report = validate_cad(cad)
    assert cold.value.report is report and not report.ok
    with pytest.raises(ValidationFailed) as warm:
        Coarsening.of(cad, labels)
    assert warm.value.report is report


REFUSED = {
    # The name, the fixture and the start of a line of the report that
    # refuses it.
    "disordered stack": (disordered_stack, "violation: sections 1,2 above 1 are not strictly ordered on the cell"),
    "sections crossing between the probes": (
        sections_crossing_between_the_probes,
        "violation: sections 1,2 above 1 cross inside the cell",
    ),
    "sections of undecided order": (sections_of_undecided_order, "undecided: order of sections 1,2 above 1 undecided"),
}


@pytest.mark.parametrize("name", REFUSED)
def test_a_root_that_is_not_proven_a_cad_is_refused(name):
    build, line = REFUSED[name]
    for run in (Coarsening.of, minimize, explore):
        cad, labels = build()
        with pytest.raises(ValidationFailed) as refused:
            run(cad, labels)
        assert any(got.startswith(line) for got in str(refused.value).splitlines()), str(refused.value)
        assert refused.value.report is validate_cad(cad)


def test_leaf_level_merge_always_lifts():
    entry = disk_cpp()
    res = try_lift(Coarsening.of(entry.cad, entry.labels), (4, 6))
    assert res is not None
    merged, labels = res.cad, res.labels
    assert merged.leaf_count() == 27
    assert validate_cad(merged).ok
    assert check_adapted(merged, entry.formula) == labels


def test_minimize_trousers_fixed_points():
    for entry in (trousers_c(), trousers_cp()):
        res = minimize(entry.cad, entry.labels)
        assert not res.applied
        assert res.cad.leaf_count() == entry.expected["leaf_count"]


def test_minimize_disk_cp_reaches_disk_c():
    entry = disk_cp()
    res = minimize(entry.cad, entry.labels)
    assert [tuple(p) for p in res.applied] == [(4,)]
    assert res.cad.leaf_count() == 13
    assert res.cad.partition_blocks() == coarsening_blocks(disk_c().cad, entry.cad)


def test_minimize_disk_cpp_sampled_mode():
    entry = disk_cpp()
    res = minimize(entry.cad, entry.labels)
    assert res.cad.leaf_count() == 13
    assert len(res.applied) == 4
    assert validate_cad(res.cad).ok


def test_minimize_single_chain_identity():
    from tests.test_cadmodel import single_chain

    cad, labels = single_chain(3)
    res = minimize(cad, labels)
    assert not res.applied and res.cad is cad


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
    res = try_lift(Coarsening.of(refined, labels), (4,))
    assert res is not None
    assert res.cad.partition_blocks() == coarsening_blocks(entry.cad, refined)


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
    return coarsening_blocks(target, start) in explore(start, labels).nodes


def test_reduction_reachable_disk():
    cp = disk_cp()
    res = try_lift(Coarsening.of(cp.cad, cp.labels), (4,))
    assert res is not None
    assert reachable(res.cad, cp.cad, cp.labels)
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


def on_fresh_root(node: Coarsening, build) -> Coarsening:
    """The same coarsening of a new copy of its root, whose caches are empty."""
    root, _labels = build()
    cad = root
    if not node.cad.is_root:
        cad = Cad(root.n, root=root, tree=node.cad.tree)
    return Coarsening(cad, node.tree, node.applied)


def all_cells(cad: Cad):
    return [cell for k in range(cad.n + 1) for cell in cad.cells_of_level(k)]


def full_relabel_cellmap(cad: Cad, pivot):
    """Oracle: every cell relabelled, merged cells' root cells united."""
    cellmap = {}
    for cell in all_cells(cad):
        image = relabel_index(pivot, cell)
        cellmap[image] = tuple(sorted(set(cellmap.get(image, ())) | set(cad.root_cells(cell))))
    return cellmap


def assert_child_matches_full_relabel(node: Coarsening, pivot, child: Coarsening) -> None:
    """The child's index views, read off its tree and its CAD, are the
    parent's relabelled: stack counts, root cells, leaf labels and blocks."""
    counts, labels = full_relabel_merge(node.tree, pivot)
    cellmap = full_relabel_cellmap(node.cad, pivot)
    assert index_views(child.tree) == (counts, labels, cellmap)
    cad = child.cad
    assert {cell: cad.stack_count(cell) for k in range(cad.n) for cell in cad.cells_of_level(k)} == counts
    assert {cell: cad.root_cells(cell) for cell in all_cells(cad)} == cellmap
    assert child.labels == labels
    assert child.blocks == cad.partition_blocks() == frozenset(frozenset(cellmap[leaf]) for leaf in labels)


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
                reduced = apply_merge(node.tree, pivot)
                assert index_views(reduced)[:2] == full_relabel_merge(node.tree, pivot), (name, pivot)
                assert index_views(reduced)[2] == full_relabel_cellmap(node.cad, pivot), (name, pivot)
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
                shared += assert_shares_all_but_the_path_and_the_triple(node.tree, pivot, apply_merge(node.tree, pivot))
    rng = random.Random(12)
    for _ in range(100):
        tree = random_tree(rng, rng.randint(1, 3))
        for pivot in applicable_pivots(tree):
            shared += assert_shares_all_but_the_path_and_the_triple(tree, pivot, apply_merge(tree, pivot))
    assert shared > 1000


def walk_lift_key(tree, pivot) -> tuple:
    """Oracle: the lift verdict's memo key by a walk of the three merged
    subtrees."""
    return tuple(walk_key(tree, sibling(pivot, d)) for d in (-1, 0, +1))


def explored_inputs(monkeypatch):
    """(name, labelled root) for the gallery, its lifts to R^6 and
    disk-lines(7)."""
    for name in gallery_names():
        entry = load_entry(name)
        yield name, (entry.cad, entry.labels)
        yield f"{name}@R6", extend_cylinder(entry.cad, entry.labels, 6)
    disk = load_perfbench("workloads", monkeypatch).disk_lines(7, 0)
    yield disk.name, (disk.cad, disk.labels)


def test_kept_pivots_lift_keys_and_blocks_match_the_walks(monkeypatch):
    # Every cell keeps its pivots and its structural key, and a child
    # computes its partition from its parent's; the walks they replace stay
    # here as oracles.
    lifts = kept = 0
    for name, (cad, labels) in explored_inputs(monkeypatch):
        pairs = set()
        for node in explore(cad, labels).nodes.values():
            assert len(node.pivots) == len(walk_pivots(node.tree)), (name, node.applied)
            assert set(node.pivots) == walk_pivots(node.tree), (name, node.applied)
            assert node.blocks == node.cad.partition_blocks(), (name, node.applied)
            for pivot in node.pivots:
                pairs.add((lift_key(node.tree, pivot), walk_lift_key(node.tree, pivot)))
                lifts += 1
        # One key per walk key and one walk key per key.
        assert len({key for key, _ in pairs}) == len({walked for _, walked in pairs}) == len(pairs), name
        kept += len(pairs)
    # The keys are compared where the memo is used: most lifts share a key.
    assert lifts > 500 and kept < lifts / 3


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
    # ``explore`` makes a tree only for a partition it has not seen: as many
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


def assert_glued_sections_are_root_sections(cad: Cad, where) -> None:
    """Over each root cell of a cell, each section of the cell's stack is
    exactly one root section, and their letters increase with the slot: a
    glued stack is ordered wherever the root's stacks are."""
    for k in range(cad.n):
        for cell in cad.cells_of_level(k):
            for root_parent in cad.root_cells(cell):
                letters = []
                for slot in range(1, cad.stack_count(cell) + 1):
                    over = [q[-1] for q in cad.root_cells(cell + (2 * slot,)) if q[:-1] == root_parent]
                    assert len(over) == 1 and over[0] % 2 == 0, (where, cell, slot, root_parent, over)
                    letters += over
                assert all(a < b for a, b in zip(letters, letters[1:])), (where, cell, root_parent, letters)


def test_glued_stacks_select_increasing_root_sections():
    # No merge checks the order of its glued stack; this invariant and the
    # root's validation are why none needs to.
    nodes = 0
    for name, build in lift_fixtures():
        for node in explore(*build()).nodes.values():
            assert_glued_sections_are_root_sections(node.cad, (name, node.applied))
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
    explore(res.cad, res.labels)
    assert len(passes) == 1


def bad_labellings(entry):
    """A label on a non-leaf cell, a missing leaf label and a label of 2."""
    on_section = {**entry.labels, (4,): 0}
    missing = dict(entry.labels)
    del missing[(4, 2)]
    two = {**entry.labels, (4, 2): 2}
    return [(on_section, ValueError), (missing, LabelMissing), (two, ValueError)]


@pytest.mark.parametrize("run", [build_tree, minimize, explore], ids=["build_tree", "minimize", "explore"])
def test_one_label_rule_at_the_boundary(run):
    entry = disk_cp()
    for labels, error in bad_labellings(entry):
        with pytest.raises(error):
            run(entry.cad, labels)
