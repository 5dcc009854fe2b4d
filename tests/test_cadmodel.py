from fractions import Fraction

import pytest

from cadreduce.cadmodel import (
    Cad,
    SectionStack,
    check_adapted,
    locate,
    parse_word,
    validate_cad,
    word_of,
)
from cadreduce.errors import NotAdapted
from cadreduce.expr import formula_holds, parse_expr, parse_formula
from cadreduce.gallery import disk_c, disk_cp, disk_cpp, trousers_c, trousers_cp, ushape_c, ushape_cp
from tests.oracles import coarsening_blocks, partition_refines, refines

F = Fraction


def single_chain(n: int, label: int = 1):
    """The trivial CAD of R^n with one cell per level."""
    stacks = {}
    for k in range(n):
        stacks[tuple([1] * k)] = SectionStack(())
    cad = Cad(n, stacks)
    return cad, {tuple([1] * n): label}


def test_word_roundtrip():
    for w in ["", "1", "1.2", "10.3.2"]:
        assert word_of(parse_word(w)) == w
    with pytest.raises(ValueError):
        parse_word("0.1")
    with pytest.raises(ValueError):
        parse_word("a.b")


def test_disk_c_is_valid_and_has_13_leaves():
    entry = disk_c()
    report = validate_cad(entry.cad)
    assert report.ok, str(report)
    assert entry.cad.leaf_count() == 13
    sizes = [len([l for l in entry.cad.leaves() if l[0] == i]) for i in range(1, 6)]
    assert sizes == [1, 3, 5, 3, 1]


def test_disk_cp_structure():
    entry = disk_cp()
    assert validate_cad(entry.cad).ok
    assert entry.cad.leaf_count() == 23
    sizes = [len([l for l in entry.cad.leaves() if l[0] == i]) for i in range(1, 8)]
    assert sizes == [1, 3, 5, 5, 5, 3, 1]


def test_trousers_leaf_counts():
    assert trousers_c().cad.leaf_count() == 9
    assert trousers_cp().cad.leaf_count() == 15
    assert validate_cad(trousers_c().cad).ok
    assert validate_cad(trousers_cp().cad).ok


def test_single_chain_leaf_count():
    cad, _ = single_chain(3)
    assert cad.leaf_count() == 1
    assert validate_cad(cad).ok


def test_unordered_stack_is_flagged():
    cad = Cad(
        1,
        {(): SectionStack((parse_expr("1"), parse_expr("1")))},
    )
    report = validate_cad(cad)
    assert not report.ok
    assert any("not strictly ordered" in v for v in report.violations)


def stack_over(cell, *functions):
    """R^2 with the base stack [0] and the given stack over one base cell."""
    stacks = {(): SectionStack((parse_expr("0"),)), **{(i,): SectionStack(()) for i in (1, 2, 3)}}
    stacks[cell] = SectionStack(tuple(parse_expr(f) for f in functions))
    return Cad(2, stacks)


def test_a_pole_inside_a_cell_is_a_violation():
    # Over x1 < 0: 1/(x1 + 1/3) has a pole at -1/3, between the probes.
    report = validate_cad(stack_over((1,), "(div 1 (add x1 1/3))"))
    assert any("pole inside the cell" in v for v in report.violations), str(report)
    assert str(validate_cad(stack_over((1,), "(div 1 (sub x1 1/3))"))) == "valid"
    # Over the section x1 = 0 the denominator vanishes on the whole cell.
    report = validate_cad(stack_over((2,), "(div 1 x1)"))
    assert any("divides by zero on the whole cell" in v for v in report.violations), str(report)
    # A pole the root test does not decide (a square root in the
    # denominator), met exactly at the probe x1 = -1.
    report = validate_cad(stack_over((1,), "(div 1 (mul (add x1 1) (sqrt (neg x1))))"))
    assert any("undefined at" in v for v in report.violations), str(report)


def test_an_undecided_pole_is_reported_as_undecided():
    # The denominator x1 - sqrt2 has no zero on x1 < 0, but the root test
    # takes polynomials over the rationals only.
    # An undecided pole leaves no stack order open, so reduction admits it.
    report = validate_cad(stack_over((1,), "(div 1 (sub x1 (sqrt 2)))"))
    assert report.ok and report.admits_reduction
    assert any("poles of section 1 above 1" in u for u in report.undecided), str(report)
    # The same kind of denominator, with its pole at the probe x1 = -1: the
    # section's value there cannot be refined, so its order is undecided.
    report = validate_cad(stack_over((1,), "(div 1 (mul (add x1 1) (sqrt 2)))", "5"))
    assert report.ok and not report.admits_reduction
    assert any("order of sections 1,2 above 1 undecided" in u for u in report.undecided), str(report)


def test_adjacent_sections_are_ordered_on_the_whole_cell_when_decided():
    # f2 - f1 restricted to the cell: a positive constant proves the pair
    # (1/2^200 is closer than the probes can tell), a polynomial with a
    # zero in the cell is a crossing the probes x1 = -1, -2 miss, and a
    # polynomial with no real zero is left to the probes.
    f = "(add (sqrt 2) (sqrt 3))"
    assert str(validate_cad(stack_over((1,), f, f"(add {f} 1/{2**200})"))) == "valid"
    report = validate_cad(stack_over((1,), "0", "(add (mul (add x1 1) (add x1 2)) 1/8)"))
    assert report.violations == ["sections 1,2 above 1 cross inside the cell"], str(report)
    assert str(validate_cad(stack_over((1,), "0", "(add (mul (add x1 1) (add x1 2)) 1)"))) == "valid"
    report = validate_cad(stack_over((1,), "x1", "(sub x1 1)"))
    assert report.violations[0] == "sections 1,2 above 1 are not strictly ordered on the cell", str(report)


def test_a_base_cell_with_no_point_is_reported_not_raised():
    # The zero test of a pole and of a section pair over the cell 2.1 needs
    # a point of the base cell 2, whose x1 is sqrt(-1): the zero stays
    # undecided, and the probes report the base.
    for stack in (["(div 1 (add (pow x2 2) 1))"], ["x2", "(add x2 (add (pow x2 2) 1))"]):
        spec = {(): ["(sqrt -1)"], (1,): [], (2,): [], (3,): [], (1, 1): [], (2, 1): stack, (3, 1): []}
        cad = Cad(3, {cell: SectionStack(tuple(parse_expr(f) for f in fs)) for cell, fs in spec.items()})
        assert "violation: cannot derive probes in 2: sqrt of -1" in str(validate_cad(cad)).splitlines()


def test_check_adapted_disk():
    entry = disk_c()
    labels = check_adapted(entry.cad, entry.formula)
    assert labels == entry.labels


def test_check_adapted_trousers_sections_only():
    entry = trousers_c()
    labels = check_adapted(entry.cad, entry.formula)
    assert labels == entry.labels
    # Exactly the three sections are inside the set.
    inside = {leaf for leaf, v in labels.items() if v == 1}
    assert inside == {(1, 1, 2), (1, 2, 2), (1, 3, 2)}


def test_check_adapted_ushape():
    for entry in (ushape_c(), ushape_cp()):
        assert validate_cad(entry.cad).ok
        assert check_adapted(entry.cad, entry.formula) == entry.labels


def test_check_adapted_whole_space():
    cad, _ = single_chain(2)
    labels = check_adapted(cad, parse_formula("(lt 0 1)"))
    assert labels == {(1, 1): 1}


def test_check_adapted_rejects_straddling_cell():
    # One cell over the line, but the set is a half line: probes disagree.
    cad, _ = single_chain(1)
    with pytest.raises(NotAdapted):
        check_adapted(cad, parse_formula("(gt x1 1/7)"))


def test_check_adapted_label_stable_with_more_probes():
    for entry in (disk_c(), trousers_cp()):
        labels = check_adapted(entry.cad, entry.formula)
        for leaf in entry.cad.leaves():
            truths = {formula_holds(entry.formula, point) for point, _tag in entry.cad.cell_points(leaf, 6)}
            assert truths == {labels[leaf] == 1}, word_of(leaf)


def test_formula_in_more_variables_than_the_cad_is_rejected():
    # A variable the CAD lacks must not drop out of the sign; the CAD
    # refuses the formula, and the point the atom.
    cad, _ = single_chain(1)
    for op in ("gt", "lt", "eq"):
        formula = parse_formula(f"({op} x2 0)")
        with pytest.raises(ValueError, match="x2"):
            check_adapted(cad, formula)
        with pytest.raises(ValueError, match="no coordinate 2"):
            formula_holds(formula, (F(0),))
    with pytest.raises(ValueError, match="x3"):
        check_adapted(disk_c().cad, parse_formula("(lt x3 0)"))


def test_locate_roundtrip_samples():
    for entry in (disk_c(), disk_cp(), trousers_c(), trousers_cp()):
        cad = entry.cad
        for leaf in cad.leaves():
            assert locate(cad, cad.sample(leaf)) == leaf


def test_locate_interior_point_of_disk():
    entry = disk_c()
    assert locate(entry.cad, [F(0), F(0)]) == (3, 3)
    assert locate(entry.cad, [F(0), F(-1)]) == (3, 2)
    assert locate(entry.cad, [F(2), F(5)]) == (5, 1)


def test_refines_disk_pair():
    fine, coarse = disk_cp(), disk_c()
    assert refines(fine.cad, coarse.cad, fine.cad)
    # And a CAD refines itself.
    assert refines(fine.cad, fine.cad, fine.cad)


def test_refines_is_partial_order_like_on_disk():
    cpp = disk_cpp().cad
    c = disk_c().cad
    cp = disk_cp().cad
    assert refines(cpp, cp, cpp) and refines(cpp, c, cpp) and refines(cp, c, cpp)


def test_partition_refines_basics():
    fine = frozenset({frozenset({1}), frozenset({2}), frozenset({3})})
    coarse = frozenset({frozenset({1, 2}), frozenset({3})})
    other = frozenset({frozenset({1, 3}), frozenset({2})})
    assert partition_refines(fine, coarse)
    assert not partition_refines(coarse, other)
    assert partition_refines(coarse, coarse)


def test_coarsening_needs_its_cell_tree():
    with pytest.raises(ValueError):
        Cad(2, root=disk_cp().cad)


def test_coarsening_blocks_by_embedding():
    root = disk_cp().cad
    blocks = coarsening_blocks(disk_c().cad, root)
    assert len(blocks) == 13
    # The merged cylinder over (-1,1) has three base pieces per cell.
    widths = sorted(len(b) for b in blocks)
    assert widths == [1, 1, 1, 1, 1, 1, 1, 1, 3, 3, 3, 3, 3]


def test_cell_points_are_inside_their_cell():
    entry = disk_cp()
    cad = entry.cad
    for leaf in cad.leaves():
        for point, tag in cad.cell_points(leaf, 4):
            assert tag == leaf
            assert locate(cad, point) == leaf


def test_cylindricity_of_indices():
    cad = disk_cpp().cad
    for k in range(1, cad.n + 1):
        level = set(cad.cells_of_level(k - 1))
        for cell in cad.cells_of_level(k):
            assert cell[:-1] in level


def test_distinct_leaf_samples_in_distinct_leaves():
    cad = trousers_cp().cad
    seen = {}
    for leaf in cad.leaves():
        pt = cad.sample(leaf)
        assert pt not in seen
        seen[pt] = leaf
