import hashlib
import random
from fractions import Fraction

import pytest

from cadreduce import cadmodel, expr, realroots
from cadreduce.cadmodel import (
    Cad,
    SectionStack,
    check_adapted,
    parse_word,
    restrict,
    validate_cad,
    word_of,
    zero_in_cell,
)
from cadreduce.errors import NotAdapted, ParseError, ValidationFailed
from cadreduce.expr import (
    FALSE,
    TRUE,
    And,
    Atom,
    Const,
    Not,
    Or,
    Sqrt,
    Sub,
    Var,
    formula_holds,
    parse_expr,
    parse_formula,
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
from cadreduce.poset import extend_cylinder
from cadreduce.tree import build_tree
from cadreduce.realroots import AlgebraicNumber
from tests.oracles import (
    coarsening_blocks,
    labels_by_probes,
    locate,
    partition_refines,
    refine_by_fractions,
    refines,
    sample,
)
from tests.test_packaging import load_perfbench

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
    # pole test leaves it undecided, but the exact value at the probe
    # divides by zero, so the section is undefined there.
    report = validate_cad(stack_over((1,), "(div 1 (mul (add x1 1) (sqrt 2)))", "5"))
    assert not report.ok and not report.admits_reduction
    assert any("poles of section 1 above 1" in u for u in report.undecided), str(report)
    assert report.violations == ["section 1 above 1 is undefined at a probe: division by zero"], str(report)


def _replaced(cell, *functions):
    """A mutation that sets the stack over ``cell`` to ``functions``."""
    return lambda stacks: stacks.update({cell: SectionStack(tuple(parse_expr(f) for f in functions))})


# One mutation of disk-C per rejection branch of ``validate_cad``, with the
# start of the report line that names it.  disk-C has the base stack
# [-1, 1], the disk's two halves over 3 (-1 < x1 < 1) and [0] over 2 and 4.
DISK_C_MUTATIONS = {
    "missing stack": (lambda stacks: stacks.pop((4,)), "violation: cell 4 has no stack"),
    "stack over no cell": (_replaced((7,), "0"), "violation: stack for nonexistent cell 7"),
    "variable beyond its level": (
        _replaced((2,), "(add x2 1)"),
        "violation: section 1 above '2' uses variables beyond level 1",
    ),
    "sections swapped": (
        _replaced((3,), "(sqrt (sub 1 (pow x1 2)))", "(neg (sqrt (sub 1 (pow x1 2))))"),
        "violation: sections 1,2 above 3 are not strictly ordered at (Fraction(0, 1),)",
    ),
    # The branch x1 + 1 is 0 at the probe x1 = -1 of the cell 2.
    "piecewise function that divides": (
        _replaced((2,), "(div 1 (piecewise ((gt x1 0) x1) (else (add x1 1))))"),
        "undecided: poles of section 1 above 2: a piecewise function is involved",
    ),
    "overlapping guards": (
        _replaced((4,), "(piecewise ((gt x1 0) 0) ((gt x1 -5) 0))"),
        "violation: piecewise guards above 4 overlap at (Fraction(1, 1),)",
    ),
}


@pytest.mark.parametrize("name", DISK_C_MUTATIONS)
def test_each_rejection_branch_of_validate_cad_reports_its_mutation_and_is_refused(name):
    entry = disk_c()
    assert str(validate_cad(entry.cad)) == "valid"
    mutate, line = DISK_C_MUTATIONS[name]
    stacks = dict(entry.cad.stacks)
    mutate(stacks)
    cad = Cad(entry.cad.n, stacks)
    report = validate_cad(cad)
    assert any(got.startswith(line) for got in str(report).splitlines()), str(report)
    with pytest.raises(ValidationFailed) as refused:
        build_tree(cad, entry.labels)
    assert refused.value.report is report


def over_the_quadrant_strip(upper, function):
    """R^3 cut at x1 = 0, then at x2 = 0 and at x2 = 1, but at x2 = ``upper``
    over x1 > 0, and the section ``function`` over the cell 3.3, the strip
    x1 > 0, 0 < x2 < ``upper``."""
    cylinders = [(i, j) for i in (1, 2, 3) for j in (1, 2, 3, 4, 5)]
    spec = {(): ["0"], (1,): ["0", "1"], (2,): ["0", "1"], (3,): ["0", upper], **{cyl: [] for cyl in cylinders}}
    spec[(3, 3)] = [function]
    return Cad(3, {cell: SectionStack(tuple(parse_expr(f) for f in fs)) for cell, fs in spec.items()})


def test_poles_over_a_sector_between_constant_sections_are_decided():
    # Over the sector x1 > 0, the x2-sector between the constants 0 and 1 is
    # the same interval above every point, so a pole in x2 is placed once.
    report = validate_cad(over_the_quadrant_strip("1", "(div 1 (sub x2 1/3))"))
    assert report.violations == ["section 1 above 3.3 has a pole inside the cell"], str(report)
    assert str(validate_cad(over_the_quadrant_strip("1", "(div 1 (sub x2 2))"))) == "valid"
    # With the bound x1 the interval moves with x1, and the pole is left open.
    report = validate_cad(over_the_quadrant_strip("x1", "(div 1 (sub x2 2))"))
    assert report.ok and report.undecided == ["poles of section 1 above 3.3 not decided"], str(report)
    # ushape's section -(x1/x2) over x1 > 0, x2 > 0 has no pole.
    assert str(validate_cad(ushape_cp().cad)) == str(validate_cad(load_entry("ushape-Cbar").cad)) == "valid"


def test_adjacent_sections_are_ordered_on_the_whole_cell_when_decided():
    # f2 - f1 restricted to the cell: a positive constant proves the pair
    # (1/2^200 is closer than the probes can tell), a polynomial with a
    # zero in the cell is a crossing the probes x1 = -1, -2, -3 miss, and a
    # polynomial with no real zero is left to the probes.
    f = "(add (sqrt 2) (sqrt 3))"
    assert str(validate_cad(stack_over((1,), f, f"(add {f} 1/{2**200})"))) == "valid"
    report = validate_cad(stack_over((1,), "0", "(add (mul (add x1 1) (add x1 2)) 1/8)"))
    assert report.violations == ["sections 1,2 above 1 cross inside the cell"], str(report)
    assert str(validate_cad(stack_over((1,), "0", "(add (mul (add x1 1) (add x1 2)) 1)"))) == "valid"
    report = validate_cad(stack_over((1,), "x1", "(sub x1 1)"))
    assert report.violations[0] == "sections 1,2 above 1 are not strictly ordered on the cell", str(report)


def exact_orders_per_cell(cad: Cad, report: cadmodel.ValidationReport) -> set:
    """Oracle: ``_exact_orders`` with every adjacent pair restricted to each
    cell anew."""
    decided = set()
    for cell, stack in cad.stacks.items():
        for i, (lower, upper) in enumerate(zip(stack.functions, stack.functions[1:]), start=1):
            diff = restrict(cad, cell, Sub(upper, lower))
            if diff is None:
                continue
            where = f"sections {i},{i + 1} above {word_of(cell)}"
            if isinstance(diff, Const):
                if diff.value <= 0:
                    report.violations.append(f"{where} are not strictly ordered on the cell")
            elif zero_in_cell(cad, cell, diff):
                report.violations.append(f"{where} cross inside the cell")
            else:
                continue
            decided.add((cell, i))
    return decided


def test_a_pair_is_restricted_once_per_section_substitution(monkeypatch):
    # Cells that share a stack and a section substitution share the
    # restriction of each adjacent pair: on disk-lines(m) the m+1 inner
    # sectors restrict their pair once, and each line its own, besides the
    # m+1 pairs of the base stack.  Every golden input gets the report that
    # restricting on each cell anew gives.
    from tests.test_answers import inputs

    for name, build in inputs():
        cad, _labels = build()
        want = cadmodel._validate_root(Cad(cad.n, cad.stacks))
        with monkeypatch.context() as patched:
            patched.setattr(cadmodel, "_exact_orders", exact_orders_per_cell)
            oracle = cadmodel._validate_root(Cad(cad.n, cad.stacks))
        assert (want.violations, want.undecided, want.order_open) == (
            oracle.violations,
            oracle.undecided,
            oracle.order_open,
        ), name
    m = 96
    cad = load_perfbench("workloads", monkeypatch).disk_lines(m, 0).cad
    calls = []
    substituted = cadmodel._substituted
    monkeypatch.setattr(cadmodel, "_substituted", lambda *args: calls.append(1) or substituted(*args))
    report = cadmodel.ValidationReport()
    cadmodel._exact_orders(cad, report)
    assert report.ok
    assert len(calls) == 2 * m + 2


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
    # The labels hold at seeded rational points beyond the probes, each
    # located in its leaf by the ``locate`` oracle: quarters, which meet
    # sections at rational places, and fractions with larger denominators.
    rng = random.Random(2411)
    for name in gallery_names():
        entry = load_entry(name)
        cad = entry.cad
        labels = check_adapted(cad, entry.formula)
        hit = set()
        for _ in range(400):
            point = tuple(
                F(rng.randint(-12, 12), 4) if rng.random() < 0.5 else F(rng.randint(-300, 300), rng.randint(5, 97))
                for _ in range(cad.n)
            )
            leaf = locate(cad, point)
            assert formula_holds(entry.formula, point) == (labels[leaf] == 1), (name, point, word_of(leaf))
            hit.add(leaf)
        full = {leaf for leaf in labels if all(letter % 2 for letter in leaf)}
        assert full < hit, (name, sorted(full - hit))


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
            assert locate(cad, sample(cad, leaf)) == leaf


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
    # A ``Cad`` is a root, made from its stacks alone; a coarsening is a
    # ``tree.CadTree``.
    with pytest.raises(TypeError):
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
        for point in cad.cell_points(leaf):
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
        pt = sample(cad, leaf)
        assert pt not in seen
        seen[pt] = leaf


def test_gallery_load_and_check_derive_each_probe_list_once(monkeypatch):
    # A cost guard that reads no clock: loading the gallery derives no
    # probe list (every entry is literal stacks or a cylinder over one),
    # and checking every entry derives each (CAD, cell) list once.
    derived = []
    derive = Cad._root_points

    def counted(cad, cell):
        derived.append((cad, cell))
        return derive(cad, cell)

    monkeypatch.setattr(Cad, "_root_points", counted)
    entries = [load_entry(name) for name in gallery_names()]
    assert derived == []
    for entry in entries:
        validate_cad(entry.cad)
        check_adapted(entry.cad, entry.formula)
    keys = [(id(cad), cell) for cad, cell in derived]
    assert len(keys) == len(set(keys))


def odd_coordinates():
    """A CAD of R^2 whose probes have two algebraic coordinates: on leaf
    2.2 (sqrt 2, sqrt 3), and on leaf 2.4 (sqrt 2, sqrt 2 + 2)."""
    stacks = {
        (): SectionStack((parse_expr("(sqrt 2)"),)),
        (1,): SectionStack(()),
        (2,): SectionStack((parse_expr("(sqrt 3)"), parse_expr("(add x1 2)"))),
        (3,): SectionStack(()),
    }
    return Cad(2, stacks)


# Atoms whose sign at the odd coordinates is an exact zero, which no
# interval excludes: x2^2 - x1^2 - 1 at (sqrt 2, sqrt 3), and x2 - x1 - 2
# at (sqrt 2, sqrt 2 + 2).
UNDECIDABLE = (parse_formula("(eq (sub (pow x2 2) (add (pow x1 2) 1)) 0)"), parse_formula("(ge (sub x2 (add x1 2)) 0)"))
# A non-polynomial atom: the parser refuses it, so it is built directly.
NON_POLYNOMIAL = Atom(Sqrt(Var(1)), "gt")


def adaptedness_inputs(monkeypatch):
    """(name, fresh root, its formula) for every gallery entry and its R^6
    lift, disk-lines(7), disk-lines(96) and the odd coordinates."""
    for name in gallery_names():
        entry = load_entry(name)
        yield name, entry.cad, entry.formula
        yield f"{name}@R6", extend_cylinder(entry.cad, entry.labels, 6)[0], entry.formula
    workloads = load_perfbench("workloads", monkeypatch)
    for m in (7, 96):
        disk = workloads.disk_lines(m, 0)
        yield disk.name, disk.cad, disk.formula
    yield "odd coordinates", odd_coordinates(), Or((UNDECIDABLE[0], parse_formula("(lt x2 0)")))


def random_formula(rng: random.Random, n: int, atoms: list, depth: int = 3):
    """A seeded formula in x1..xn over ``atoms`` and random polynomial
    atoms, with every connective and both constants."""
    kind = rng.randrange(8 if depth else 3)
    if kind == 0:
        terms = []
        for _ in range(rng.randint(1, 3)):
            term = f"{rng.randint(-3, 3)}/{rng.randint(1, 3)}"
            for _ in range(rng.randint(0, 2)):
                term = f"(mul {term} x{rng.randint(1, min(n, 3))})"
            terms.append(term)
        lhs = terms[0] if len(terms) == 1 else f"(add {' '.join(terms)})"
        return parse_formula(f"({rng.choice(('lt', 'le', 'eq', 'ge', 'gt'))} {lhs} 0)")
    if kind == 1:
        return rng.choice(atoms)
    if kind == 2:
        return rng.choice((TRUE, FALSE))
    if kind == 3:
        return Not(random_formula(rng, n, atoms, depth - 1))
    args = tuple(random_formula(rng, n, atoms, depth - 1) for _ in range(rng.randint(2, 3)))
    return And(args) if kind in (4, 5) else Or(args)


def adaptedness_outcome(check, cad, formula):
    """Labels, or the leaf and points of ``NotAdapted``, or the type and
    message of any other exception."""
    try:
        return "labels", check(cad, formula)
    except NotAdapted as exc:
        return NotAdapted, exc.leaf, exc.point_in, exc.point_out
    except Exception as exc:  # noqa: BLE001 - every exception is compared
        return type(exc), str(exc)


def test_check_adapted_matches_formula_holds_at_every_probe(monkeypatch):
    # The differential test of signing each atom fiber by fiber: every
    # outcome of ``check_adapted`` equals the probe-by-probe definition.
    rng = random.Random(2411)
    kinds, inputs = {}, 0
    skipped, reached = Or((Not(FALSE), NON_POLYNOMIAL)), []
    for name, cad, own in adaptedness_inputs(monkeypatch):
        inputs += 1
        atoms = [own, NON_POLYNOMIAL, *UNDECIDABLE]
        formulas = [
            own,
            Not(own),
            And((TRUE, own)),
            Or((own, FALSE)),
            skipped,
            And((own, NON_POLYNOMIAL)),
            parse_formula(f"(gt x{cad.n + 1} 0)"),
            *(random_formula(rng, cad.n, atoms) for _ in range(8)),
        ]
        for formula in formulas:
            want = adaptedness_outcome(labels_by_probes, cad, formula)
            assert adaptedness_outcome(check_adapted, cad, formula) == want, (name, formula)
            kinds.setdefault(want[0], []).append((name, formula))
        reached.append(adaptedness_outcome(check_adapted, cad, formulas[5])[0])
    assert inputs == 27
    assert set(kinds) == {"labels", NotAdapted, ParseError, ValueError}
    # A short-circuited atom is never converted; a reached one raises.
    assert sum(f == skipped for _name, f in kinds["labels"]) == inputs
    assert reached == [ParseError] * inputs
    # No sign is left undecided, the zeros at the odd coordinates included.
    assert "odd coordinates" in {name for name, _formula in kinds["labels"]}


def test_check_adapted_signs_at_an_algebraic_last_coordinate_as_formula_holds_does():
    # Over the rational base probe x1 = 0, x1*x2 restricts to the zero
    # polynomial in x2; at the probe x2 = sqrt 2 + sqrt 3 above it, a root
    # of x^4 - 10x^2 + 1, both sign that zero exactly.
    stacks = {
        (): SectionStack((Const(F(0)),)),
        (1,): SectionStack(()),
        (2,): SectionStack((parse_expr("(add (sqrt 2) (sqrt 3))"),)),
        (3,): SectionStack(()),
    }
    assert Cad(2, stacks).cell_points((2, 2))[0][1].defining == (1, 0, -10, 0, 1)
    kinds = []
    for text in ("(eq (mul x1 x2) 0)", "(gt (add (mul x1 x2) 1) 0)", "(gt x2 3)", "(lt x1 1)"):
        formula = parse_formula(text)
        want = adaptedness_outcome(labels_by_probes, Cad(2, stacks), formula)
        assert adaptedness_outcome(check_adapted, Cad(2, stacks), formula) == want, text
        kinds.append(want[0])
    assert kinds == ["labels", "labels", "labels", "labels"]


def test_check_adapted_converts_each_atom_once(monkeypatch):
    # A cost guard that reads no clock: on a fresh disk-lines(96),
    # ``check_adapted`` consults ``to_polynomial`` once per distinct atom,
    # not once per probe.
    disk = load_perfbench("workloads", monkeypatch).disk_lines(96, 0)
    consulted = []
    convert = expr.to_polynomial
    monkeypatch.setattr(expr, "to_polynomial", lambda e: consulted.append(e) or convert(e))
    assert check_adapted(disk.cad, disk.formula) == disk.labels
    assert consulted == [disk.formula.lhs]


def test_check_adapted_restricts_each_atom_once_per_base_probe(monkeypatch):
    # A cost guard that reads no clock: on a fresh disk-lines(96) whose
    # probes are derived, ``check_adapted`` takes integer coefficients once
    # per (atom, probe of a leaf's parent), 395 times where signing each
    # leaf probe on its own took them 2531 times; and it still signs the
    # atom at every one of the 2531 leaf probes.
    disk = load_perfbench("workloads", monkeypatch).disk_lines(96, 0)
    cad = disk.cad
    leaf_probes = sum(len(cad.cell_points(leaf)) for leaf in cad.leaves())
    base_probes = sum(len(cad.cell_points(cell)) for cell in cad.cells_of_level(1))
    assert (leaf_probes, base_probes) == (2531, 395)
    restricted, signed = [], []
    coeffs, holds = cadmodel.integer_coeffs, cadmodel.holds
    monkeypatch.setattr(cadmodel, "integer_coeffs", lambda q, values, i: restricted.append(i) or coeffs(q, values, i))
    monkeypatch.setattr(cadmodel, "holds", lambda f, sign: holds(f, lambda lhs: signed.append(lhs) or sign(lhs)))
    assert check_adapted(cad, disk.formula) == disk.labels
    assert restricted == [2] * base_probes
    assert signed == [disk.formula.lhs] * leaf_probes


def test_leaf_probes_take_no_sign_to_refine_a_narrow_enough_number(monkeypatch):
    # A cost guard that reads no clock: deriving disk-lines(96)'s leaf
    # probes refines section values to widths they mostly have already;
    # such a ``refine`` computes no sign.
    cad = load_perfbench("workloads", monkeypatch).disk_lines(96, 0).cad
    calls = []  # per refine call: whether it bisects, and the signs it takes
    active = []
    horner, refine = realroots.horner, AlgebraicNumber.refine

    def counted_horner(p, n, d):
        if active:
            active[-1].append((n, d))
        return horner(p, n, d)

    def counted_refine(self, width):
        signs = []
        calls.append((self.hi - self.lo > width, signs))
        active.append(signs)
        try:
            return refine(self, width)
        finally:
            active.pop()

    monkeypatch.setattr(realroots, "horner", counted_horner)
    monkeypatch.setattr(AlgebraicNumber, "refine", counted_refine)
    for leaf in cad.leaves():
        cad.cell_points(leaf)
    narrow = [signs for bisects, signs in calls if not bisects]
    assert len(narrow) > 1000
    assert all(signs == [] for signs in narrow)


def test_refining_only_wider_intervals_keeps_every_probe(monkeypatch):
    # ``refine`` returns a number whose interval is narrow enough as it is;
    # every probe of every gallery entry and of disk-lines(96), where some
    # numbers are bisected, is the one that bisecting each number from its
    # own interval gives.
    workloads = load_perfbench("workloads", monkeypatch)

    def probes():
        out = []
        for cad in [load_entry(name).cad for name in gallery_names()] + [workloads.disk_lines(96, 0).cad]:
            out += [cad.cell_points(cell) for k in range(cad.n + 1) for cell in cad.cells_of_level(k)]
        return out

    kept = probes()
    monkeypatch.setattr(AlgebraicNumber, "refine", refine_by_fractions)
    assert probes() == kept


def coord_text(v) -> str:
    """A coordinate as text that pins its type: a rational by its repr, an
    algebraic number by its defining polynomial and interval."""
    if isinstance(v, AlgebraicNumber):
        return f"root{(v.defining, v.lo, v.hi)!r}"
    return repr(v)


def point_text(point) -> str:
    return "(" + ", ".join(coord_text(v) for v in point) + ")"


def probe_evidence(cad, formula) -> list[str]:
    """The evidence the check phase decides from, as text: the validation
    report, the labels, then every probe of every cell, on a fresh root."""
    cad = Cad(cad.n, cad.stacks)
    lines = [str(validate_cad(cad)), repr(adaptedness_outcome(check_adapted, cad, formula))]
    for k in range(cad.n + 1):
        for cell in cad.cells_of_level(k):
            points = cad.cell_points(cell)
            lines.append(f"{word_of(cell)}: " + " ".join(f"{point_text(p)}@{word_of(cell)}" for p in points))
    return lines


def test_probe_evidence_digest(monkeypatch):
    # One sha256 over the probe points, validation reports and labels of
    # every gallery entry and its R^6 lift, disk-lines(7) and disk-lines(96)
    # at seeds 0 and 1 and the odd coordinates: a speed-up of the check
    # phase must leave every one of them as it is.
    workloads = load_perfbench("workloads", monkeypatch)
    inputs = list(adaptedness_inputs(monkeypatch))
    inputs += [(d.name + "@1", d.cad, d.formula) for d in (workloads.disk_lines(m, 1) for m in (7, 96))]
    assert len(inputs) == 29
    digest = hashlib.sha256()
    for name, cad, formula in inputs:
        digest.update("\n".join([name, *probe_evidence(cad, formula), ""]).encode())
    assert digest.hexdigest() == "829bffe1f839f697d64b6482197b02c6fa811f39c72fa3178ef6c1d9b0b19faa"


def section_outcomes(cad, value):
    """Per (stack cell, slot) of a root, the section's values at the probes
    of its cell, as ``value(fresh, cell, slot, f, bases)`` gives them on a
    fresh root, or the type and message of the error it raises."""
    fresh = Cad(cad.n, cad.stacks)
    out = {}
    for k in range(cad.n):
        for cell in cad.cells_of_level(k):
            try:
                bases = fresh.cell_points(cell)
            except Exception:  # noqa: BLE001 - no base, no section value
                continue
            for slot, f in enumerate(cad.stacks[cell].functions, start=1):
                try:
                    values = value(fresh, cell, slot, f, bases)
                    out[cell, slot] = [(type(v), v) for v in values]
                except Exception as exc:  # noqa: BLE001 - every error is compared
                    out[cell, slot] = (type(exc), str(exc))
    return out


def fallback_roots():
    """(name, root) whose sections leave the integer path: a piecewise
    section, sections that divide (a pole at sqrt 2 inside the cell 3),
    roots over an irrational base coordinate, a negative argument next to
    a section of its own, and arguments that refer past their level or
    divide by zero (no validation reaches their probes)."""
    sqrt2_pole = {(): ["0"], **{(i,): ["(div 1 (sub x1 (sqrt 2)))"] for i in (1, 2, 3)}}
    irrational = {(): ["(sqrt 2)"], (1,): [], (3,): []}
    irrational[(2,)] = ["(neg (sqrt (add x1 1)))", "(sqrt (add x1 1))", "(sqrt 3)", "(add x1 2)"]
    negative = {(): [], (1,): ["(neg (sqrt (sub -1 (pow x1 2))))", "(sqrt (sub -1 (pow x1 2)))", "5"]}
    piecewise = {(): ["0"], (1,): [], (2,): [], (3,): ["(piecewise ((gt x1 1) (sqrt x1)) (else 1))"]}
    unchecked = {(): [], (1,): ["(sqrt (add 1 (sub x2 x2)))", "(sqrt (div 1 (sub x1 x1)))", "(sqrt (div x1 4))"]}
    specs = {"sqrt2 pole": sqrt2_pole, "irrational base": irrational, "negative": negative, "piecewise": piecewise}
    specs["unchecked"] = unchecked
    for name, spec in specs.items():
        yield name, Cad(2, {cell: SectionStack(tuple(parse_expr(f) for f in fs)) for cell, fs in spec.items()})


def test_section_values_are_the_values_of_eval_coord(monkeypatch):
    # The differential test of sharing one root between sqrt(g) and
    # -sqrt(g) and taking it in integers: every section cell's values, or
    # its first error, are what ``eval_coord`` gives at the base probes.
    roots = [(name, cad) for name, cad, _formula in adaptedness_inputs(monkeypatch) if name != "disk-lines(96)"]
    roots += list(fallback_roots())
    taken = expr.eval_coord

    def derived(fresh, cell, slot, _f, _bases):
        return [p[-1] for p in fresh.cell_points(cell + (2 * slot,))]

    def evaluated(_fresh, _cell, _slot, f, bases):
        return [taken(f, base) for base in bases]

    kinds = set()
    for name, cad in roots:
        want = section_outcomes(cad, evaluated)
        assert section_outcomes(cad, derived) == want, name
        kinds |= {kind for values in want.values() if isinstance(values, list) for kind, _v in values}
    assert kinds == {Fraction, AlgebraicNumber}
    negative = dict(fallback_roots())["negative"]
    # Each section raises for its own cell only: 5 keeps its probes.
    assert section_outcomes(negative, derived)[(1,), 3] == [(Fraction, F(5))] * 3
    assert str(validate_cad(negative)) == "\n".join(
        f"violation: section {s} above 1 is undefined at a probe: sqrt of -1" for s in (1, 2)
    )
