"""Built-in fixture CADs: the unit disk family and two families of surface
gluings over the plane (a half-plane sheet that bends over the positive
quadrant, and its unbounded-region variant).

Each entry records the CAD, the defining formula, the leaf labelling, and a
set of expected structural facts used by the self-check suite.  The facts
taken from the paper's examples are the leaf count of disk-C, the reduction
of disk-Cp to 13 leaves, the minimum of disk-Cpp and its merge at 4.6, the
leaf counts, pivots and fixed points of the trousers and ushape C and Cp
(and the leaf counts and fixed points of trousers4-C and -Cp), and the two
minimal elements of each Cbar; the others were computed with independent
oracles when the fixtures were frozen.

Every entry is literal stacks, or a cylinder over one (``extend_cylinder``).
The paper defines each Cbar as the common refinement of its C and Cp; it
is written out here, and the tests check it against that definition
(``common_refinement`` in ``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from cadreduce.cadmodel import Cad, CellIndex, LeafLabeling, SectionStack, parse_word
from cadreduce.expr import Formula, parse_expr, parse_formula


@dataclass
class GalleryEntry:
    name: str
    cad: Cad
    formula: Formula
    labels: LeafLabeling
    expected: dict = field(default_factory=dict)


def _stacks(spec: dict[str, list[str]]) -> dict[CellIndex, SectionStack]:
    return {
        parse_word(word): SectionStack(tuple(parse_expr(s) for s in exprs))
        for word, exprs in spec.items()
    }


def _labels(spec: dict[str, int]) -> LeafLabeling:
    return {parse_word(w): v for w, v in spec.items()}


def _cylinder_labels(pattern: tuple[int, ...], cylinders: list[str]) -> dict[str, int]:
    out: dict[str, int] = {}
    for cyl in cylinders:
        for i, v in enumerate(pattern, start=1):
            out[f"{cyl}.{i}" if cyl else str(i)] = v
    return out


DISK_FORMULA = "(le (sub (add (pow x1 2) (pow x2 2)) 1) 0)"

_SQRT_UP = "(sqrt (sub 1 (pow x1 2)))"
_SQRT_DOWN = "(neg (sqrt (sub 1 (pow x1 2))))"
_HYPER = "(sub 1 (div 1 (mul 2 (sub (pow x1 2) 1))))"


def disk_c() -> GalleryEntry:
    cad = Cad(
        2,
        _stacks(
            {
                "": ["-1", "1"],
                "1": [],
                "2": ["0"],
                "3": [_SQRT_DOWN, _SQRT_UP],
                "4": ["0"],
                "5": [],
            }
        ),
    )
    labels = _labels(
        {
            "1.1": 0,
            **_cylinder_labels((0, 1, 0), ["2", "4"]),
            **_cylinder_labels((0, 1, 1, 1, 0), ["3"]),
            "5.1": 0,
        }
    )
    return GalleryEntry(
        name="disk-C",
        cad=cad,
        formula=parse_formula(DISK_FORMULA),
        labels=labels,
        expected={"leaf_count": 13, "pivots": set(), "minimize_fixed_point": True},
    )


def disk_cp() -> GalleryEntry:
    cad = Cad(
        2,
        _stacks(
            {
                "": ["-1", "0", "1"],
                "1": [],
                "2": ["0"],
                "3": [_SQRT_DOWN, _SQRT_UP],
                "4": [_SQRT_DOWN, _SQRT_UP],
                "5": [_SQRT_DOWN, _SQRT_UP],
                "6": ["0"],
                "7": [],
            }
        ),
    )
    labels = _labels(
        {
            "1.1": 0,
            **_cylinder_labels((0, 1, 0), ["2", "6"]),
            **_cylinder_labels((0, 1, 1, 1, 0), ["3", "4", "5"]),
            "7.1": 0,
        }
    )
    return GalleryEntry(
        name="disk-Cp",
        cad=cad,
        formula=parse_formula(DISK_FORMULA),
        labels=labels,
        expected={
            "leaf_count": 23,
            "pivots": {"4"},
            "minimize_fixed_point": False,
            "minimize_leaf_count": 13,
        },
    )


def disk_cpp() -> GalleryEntry:
    cad = Cad(
        2,
        _stacks(
            {
                "": ["-1", "0", "1"],
                "1": [],
                "2": ["0"],
                "3": [_SQRT_DOWN, _SQRT_UP, _HYPER],
                "4": [_SQRT_DOWN, _SQRT_UP, _HYPER],
                "5": [_SQRT_DOWN, _SQRT_UP, _HYPER],
                "6": ["0"],
                "7": [],
            }
        ),
    )
    labels = _labels(
        {
            "1.1": 0,
            **_cylinder_labels((0, 1, 0), ["2", "6"]),
            **_cylinder_labels((0, 1, 1, 1, 0, 0, 0), ["3", "4", "5"]),
            "7.1": 0,
        }
    )
    return GalleryEntry(
        name="disk-Cpp",
        cad=cad,
        formula=parse_formula(DISK_FORMULA),
        labels=labels,
        expected={
            "leaf_count": 29,
            "pivots": {"4", "3.6", "4.6", "5.6"},
            "has_minimum": True,
            "confluent": True,
            "minimal_count": 1,
            "minimum_leaf_count": 13,
            "edge_pivot": "4.6",
        },
    )


TROUSERS_FORMULA = (
    "(or (and (or (le x1 0) (le x2 0)) (eq x3 0))"
    " (and (gt x1 0) (gt x2 0) (eq (add x3 (div x1 2)) 0)))"
)

USHAPE_FORMULA = (
    "(or (and (or (le x1 0) (le x2 0)) (le x3 0))"
    " (and (ge x1 0) (ge x2 0) (le (add x1 (mul x2 x3)) 0) (le x3 0)))"
)


def _one_base_entry(
    prefix_name: str, formula_text: str, plain_slope: str, leaf_pattern: tuple[int, ...]
) -> GalleryEntry:
    """A minimal CAD for a sheet that is flat off the open positive quadrant
    and bends along ``plain_slope`` inside it: the plane is one cell, and
    the sheet is one piecewise section."""
    guarded = f"(piecewise ((and (gt x1 0) (gt x2 0)) {plain_slope}) (else 0))"
    return GalleryEntry(
        name=f"{prefix_name}-C",
        cad=Cad(
            3,
            _stacks(
                {
                    "": [],
                    "1": ["0"],
                    "1.1": [guarded],
                    "1.2": [guarded],
                    "1.3": [guarded],
                }
            ),
        ),
        formula=parse_formula(formula_text),
        labels=_labels(_cylinder_labels(leaf_pattern, ["1.1", "1.2", "1.3"])),
        expected={"leaf_count": 9, "pivots": {"1.2"}, "minimize_fixed_point": True},
    )


def _split_base_entry(
    prefix_name: str, formula_text: str, plain_slope: str, leaf_pattern: tuple[int, ...]
) -> GalleryEntry:
    """The other minimal CAD for the same sheet: the plane is cut at x1 = 0
    and, for x1 > 0, at x2 = 0, so the sheet bends over one cell."""
    return GalleryEntry(
        name=f"{prefix_name}-Cp",
        cad=Cad(
            3,
            _stacks(
                {
                    "": ["0"],
                    "1": [],
                    "2": [],
                    "3": ["0"],
                    "1.1": ["0"],
                    "2.1": ["0"],
                    "3.1": ["0"],
                    "3.2": ["0"],
                    "3.3": [plain_slope],
                }
            ),
        ),
        formula=parse_formula(formula_text),
        labels=_labels(_cylinder_labels(leaf_pattern, ["1.1", "2.1", "3.1", "3.2", "3.3"])),
        expected={"leaf_count": 15, "pivots": {"3.2"}, "minimize_fixed_point": True},
    )


# Each Cbar's poset of coarsenings has two minimal elements, C and Cp, and
# so no minimum.
_CBAR_EXPECTED = {"leaf_count": 27, "minimal_count": 2, "has_minimum": False, "confluent": False}


def _refined_entry(
    prefix_name: str, formula_text: str, plain_slope: str, leaf_pattern: tuple[int, ...]
) -> GalleryEntry:
    """The common refinement of the two minimal CADs above: the plane is
    cut at x1 = 0 and at x2 = 0, and the sheet bends over the positive
    quadrant, the cell 3.3."""
    cylinders = [f"{i}.{j}" for i in (1, 2, 3) for j in (1, 2, 3)]
    stacks = {word: ["0"] for word in ["", "1", "2", "3", *cylinders]}
    stacks["3.3"] = [plain_slope]
    return GalleryEntry(
        name=f"{prefix_name}-Cbar",
        cad=Cad(3, _stacks(stacks)),
        formula=parse_formula(formula_text),
        labels=_labels(_cylinder_labels(leaf_pattern, cylinders)),
        expected=dict(_CBAR_EXPECTED),
    )


_TROUSERS = ("trousers", TROUSERS_FORMULA, "(div (neg x1) 2)", (0, 1, 0))
_USHAPE = ("ushape", USHAPE_FORMULA, "(neg (div x1 x2))", (1, 1, 0))


def trousers_c() -> GalleryEntry:
    return _one_base_entry(*_TROUSERS)


def trousers_cp() -> GalleryEntry:
    return _split_base_entry(*_TROUSERS)


def ushape_c() -> GalleryEntry:
    return _one_base_entry(*_USHAPE)


def ushape_cp() -> GalleryEntry:
    return _split_base_entry(*_USHAPE)


def trousers_cbar() -> GalleryEntry:
    return _refined_entry(*_TROUSERS)


def ushape_cbar() -> GalleryEntry:
    return _refined_entry(*_USHAPE)


def _extended_entry(name: str, base: GalleryEntry, n: int, expected: dict) -> GalleryEntry:
    from cadreduce.poset import extend_cylinder

    cad, labels = extend_cylinder(base.cad, base.labels, n)
    return GalleryEntry(
        name=name,
        cad=cad,
        formula=base.formula,
        labels=labels,
        expected=expected,
    )


def trousers4_c() -> GalleryEntry:
    return _extended_entry(
        "trousers4-C",
        trousers_c(),
        4,
        expected={"leaf_count": 9, "pivots": {"1.2"}, "minimize_fixed_point": True},
    )


def trousers4_cp() -> GalleryEntry:
    return _extended_entry(
        "trousers4-Cp",
        trousers_cp(),
        4,
        expected={"leaf_count": 15, "pivots": {"3.2"}, "minimize_fixed_point": True},
    )


def trousers4_cbar() -> GalleryEntry:
    return _extended_entry("trousers4-Cbar", trousers_cbar(), 4, expected=dict(_CBAR_EXPECTED))


_BUILDERS = {
    "disk-C": disk_c,
    "disk-Cp": disk_cp,
    "disk-Cpp": disk_cpp,
    "trousers-C": trousers_c,
    "trousers-Cp": trousers_cp,
    "trousers-Cbar": trousers_cbar,
    "trousers4-C": trousers4_c,
    "trousers4-Cp": trousers4_cp,
    "trousers4-Cbar": trousers4_cbar,
    "ushape-C": ushape_c,
    "ushape-Cp": ushape_cp,
    "ushape-Cbar": ushape_cbar,
}


def gallery_names() -> list[str]:
    return list(_BUILDERS)


def load_entry(name: str) -> GalleryEntry:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown gallery entry {name!r}; known: {', '.join(_BUILDERS)}") from None
    return builder()


def self_check(entry: GalleryEntry) -> list[str]:
    """Verify an entry's cheap structural facts; returns failure messages."""
    from cadreduce.cadmodel import check_adapted, validate_cad, word_of
    from cadreduce.tree import applicable_pivots, build_tree

    problems: list[str] = []
    report = validate_cad(entry.cad)
    if not report.ok:
        problems.append(f"validation: {report}")
    got_leaves = entry.cad.leaf_count()
    want_leaves = entry.expected.get("leaf_count")
    if want_leaves is not None and got_leaves != want_leaves:
        problems.append(f"leaf_count: got {got_leaves}, want {want_leaves}")
    labels = check_adapted(entry.cad, entry.formula)
    if labels != entry.labels:
        problems.append("check_adapted does not reproduce the stored labels")
    want_pivots = entry.expected.get("pivots")
    if want_pivots is not None:
        got = {word_of(p) for p in applicable_pivots(build_tree(entry.cad, entry.labels))}
        if got != want_pivots:
            problems.append(f"pivots: got {sorted(got)}, want {sorted(want_pivots)}")
    return problems
