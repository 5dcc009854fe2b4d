"""Workload inputs, their answer oracles, and one pass of the pipeline.

A workload is a list of inputs; a pass runs three phases on each of them,
which together are the public pipeline of ``cadreduce``:

* ``check``: ``validate_cad`` then ``check_adapted``, which yields the labels;
* ``minimize``: ``minimize`` from the labelled root;
* ``poset``: ``explore`` then ``poset_report``.

Every phase result is compared with an oracle that does not come from the
code under test: closed forms for disk-lines, the gallery's ``expected``
facts and ``self_check`` for the gallery.  ``cadreduce`` is imported inside
the functions, never at module level, so that a fresh import of the package
(done to time set-up) is the one every later call uses.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

PHASES = ("check", "minimize", "poset")

# m for the two disk-lines workloads.  At m=7 (128 poset nodes) one pass of
# the pipeline takes about 1.5 s on a 2-vCPU VM; at m=9 poset_report alone
# takes about a minute.  At m=96 the root's poset (2^96 nodes) cannot be
# explored.
POSET_M = 7
REDUCE_M = 96

# Exploring the one-node poset below disk-lines(96)'s minimize result takes
# about 0.5 ms.  Timed once per pass, its median over a 30-second run spread
# by 13% (IQR / median) between runs; the first exploration is only 15%
# slower than later ones, so repeats time the same work.
RESULT_POSET_REPEATS = 50

_SQRT_UP = "(sqrt (sub 1 (pow x1 2)))"
_SQRT_DOWN = "(neg (sqrt (sub 1 (pow x1 2))))"

# Gallery entries lifted to R^6 by full-line cylinders, with the answers the
# poset phase must give (the same as their base entry).
LIFTED = ("trousers-Cbar", "ushape-Cbar", "disk-Cpp")
LIFT_DIM = 6
LIFTED_POSET = {
    "trousers-Cbar": {"node_count": 5, "edge_count": 5, "sinks": 2, "confluent": False},
    "ushape-Cbar": {"node_count": 5, "edge_count": 5, "sinks": 2, "confluent": False},
    "disk-Cpp": {"node_count": 10, "edge_count": 15, "sinks": 1, "confluent": True},
}


# disk-Cp has the single pivot 4, and that merge leads to the fixed point
# disk-C: its poset is one edge.
EXTRA_FACTS = {"disk-Cp": {"merges": 1, "node_count": 2, "edge_count": 1, "sinks": 1, "confluent": True}}


@dataclass
class Input:
    """One labelled root CAD and the answers each phase must give."""

    name: str
    cad: object
    formula: object
    labels: dict
    facts: dict = field(default_factory=dict)


@dataclass
class Workload:
    """Inputs and where the poset phase starts: at the labelled root, or at
    the ``minimize`` result when the root's poset is too large to explore.
    The poset below the result is the result alone, so the phase explores it
    ``RESULT_POSET_REPEATS`` times and its time is the mean."""

    name: str
    inputs: list[Input]
    poset_from_result: bool
    sizes: dict


# ---------------------------------------------------------------------------
# disk-lines(m)


def line_abscissae(m: int, seed: int) -> list[Fraction]:
    """m distinct rationals in (-1, 1).

    Seed 0 is the even spacing -1 + 2i/(m+1).  Any other seed shifts that
    spacing right by an offset t = j / 2^24, where the seed draws j among
    the 15-bit odd numbers, so t is about 0.001.  Drawing the points
    themselves would make the time of a pass depend on the seed: exact
    comparisons of close algebraic numbers need more refinement, and
    disk-lines(7) passes took 6% longer on some seeds than on others.  A
    shift keeps the gaps between the lines and the size of every number, so
    every seed but 0 asks for the same work.
    """
    if m < 1:
        raise ValueError("disk-lines needs m >= 1")
    xs = [Fraction(-1) + Fraction(2 * i, m + 1) for i in range(1, m + 1)]
    if seed == 0:
        return xs
    t = Fraction(random.Random(seed).randrange(1 << 14, 1 << 15) | 1, 1 << 24)
    return [x + t for x in xs]


def disk_lines(m: int, seed: int = 0) -> Input:
    """The unit-disk CAD of R^2 with m extra vertical lines.

    The lines carry the stack [-sqrt(1-x1^2), sqrt(1-x1^2)] like the inner
    sectors, the lines x1 = +-1 carry [0] and the outer sectors are empty.
    The labels are written in closed form; the check phase must reproduce
    them with ``check_adapted``.
    """
    from cadreduce.cadmodel import Cad, SectionStack
    from cadreduce.expr import const, parse_expr, parse_formula
    from cadreduce.gallery import DISK_FORMULA

    xs = line_abscissae(m, seed)
    inner = SectionStack((parse_expr(_SQRT_DOWN), parse_expr(_SQRT_UP)))
    edge = SectionStack((const(0),))
    last = 2 * m + 5
    stacks = {(): SectionStack(tuple(const(x) for x in [Fraction(-1), *xs, Fraction(1)]))}
    stacks[(1,)] = SectionStack(())
    stacks[(2,)] = edge
    for cell in range(3, last - 1):
        stacks[(cell,)] = inner
    stacks[(last - 1,)] = edge
    stacks[(last,)] = SectionStack(())
    labels = {(1, 1): 0, (last, 1): 0}
    for cell in (2, last - 1):
        labels.update({(cell, j): bit for j, bit in enumerate((0, 1, 0), start=1)})
    for cell in range(3, last - 1):
        labels.update({(cell, j): bit for j, bit in enumerate((0, 1, 1, 1, 0), start=1)})
    facts = {
        "leaf_count": 10 * m + 13,
        "merges": m,
        "minimize_leaf_count": 13,
        "node_count": 2**m,
        "edge_count": m * 2 ** (m - 1),
        "sinks": 1,
        "confluent": True,
        "minimum_leaf_count": 13,
    }
    return Input(f"disk-lines({m})", Cad(2, stacks), parse_formula(DISK_FORMULA), labels, facts)


# ---------------------------------------------------------------------------
# The gallery


def gallery_inputs(seed: int) -> list[Input]:
    """The 12 gallery fixtures and three of them lifted to R^6, visited in
    an order the seed shuffles."""
    from cadreduce.gallery import gallery_names, load_entry
    from cadreduce.poset import extend_cylinder

    inputs = []
    for name in gallery_names():
        entry = load_entry(name)
        inputs.append(Input(name, entry.cad, entry.formula, entry.labels, _gallery_facts(entry)))
        if name in LIFTED:
            cad, labels = extend_cylinder(entry.cad, entry.labels, LIFT_DIM)
            facts = {"leaf_count": entry.expected["leaf_count"], **LIFTED_POSET[name]}
            inputs.append(Input(f"{name}@R{LIFT_DIM}", cad, entry.formula, labels, facts))
    random.Random(seed).shuffle(inputs)
    return inputs


# Names of the gallery's expected facts in the phase checks.
_FACT_NAMES = {
    "leaf_count": "leaf_count",
    "minimize_leaf_count": "minimize_leaf_count",
    "minimal_count": "sinks",
    "confluent": "confluent",
    "has_minimum": "has_minimum",
    "minimum_leaf_count": "minimum_leaf_count",
    "edge_pivot": "edge_pivot",
}


def _gallery_facts(entry) -> dict:
    """The answers a gallery entry's ``expected`` facts fix.

    A fixed point of ``minimize`` admits no liftable merge, so its poset is
    the root alone.  The ``pivots`` fact is checked by ``self_check``.
    """
    facts = {}
    if entry.expected.get("minimize_fixed_point"):
        facts.update(merges=0, node_count=1, edge_count=0, sinks=1, confluent=True)
    facts.update({_FACT_NAMES[k]: v for k, v in entry.expected.items() if k in _FACT_NAMES})
    return {**facts, **EXTRA_FACTS.get(entry.name, {})}


def gallery_self_check() -> list[str]:
    """``gallery.self_check`` on every entry; returns failure messages."""
    from cadreduce.gallery import gallery_names, load_entry, self_check

    return [f"{name}: {p}" for name in gallery_names() for p in self_check(load_entry(name))]


def disk_lines_self_check() -> list[str]:
    """disk-lines(1) at seed 0 must have the stacks of disk-Cp."""
    from cadreduce.gallery import disk_cp

    got = disk_lines(1, 0).cad.canonical_key()[:2]
    want = disk_cp().cad.canonical_key()[:2]
    return [] if got == want else ["disk-lines(1) at seed 0 differs from disk-Cp"]


# ---------------------------------------------------------------------------
# Workloads


WORKLOADS = ("disk-lines-poset", "disk-lines-reduce", "gallery")


def build(name: str, seed: int) -> Workload:
    """The workload's root CADs, built anew."""
    if name == "disk-lines-poset":
        inp = disk_lines(POSET_M, seed)
        return Workload(name, [inp], False, {"m": POSET_M, "seed": seed, "leaves": inp.facts["leaf_count"]})
    if name == "disk-lines-reduce":
        inp = disk_lines(REDUCE_M, seed)
        # The poset below the minimize result is that result alone.
        inp.facts.update(node_count=1, edge_count=0)
        return Workload(name, [inp], True, {"m": REDUCE_M, "seed": seed, "leaves": inp.facts["leaf_count"]})
    if name == "gallery":
        inputs = gallery_inputs(seed)
        sizes = {"inputs": len(inputs), "seed": seed, "leaves": sum(i.facts["leaf_count"] for i in inputs)}
        return Workload(name, inputs, False, sizes)
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def self_check(name: str) -> list[str]:
    """Checks on the workload's fixtures that do not depend on the seed."""
    if name == "gallery":
        return gallery_self_check()
    return disk_lines_self_check()


# ---------------------------------------------------------------------------
# One pass


@dataclass
class PassResult:
    times: dict[str, float]  # seconds per phase, summed over the inputs
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    nodes: int = 0  # poset nodes explored


def run_pass(workload: Workload, between=None) -> PassResult:
    """Run every phase once on each input and check every answer.

    The phases run one after another, each on all the inputs, and
    ``between`` (if given) is called before the first phase and after each
    phase, outside the timed spans.  An operation (one phase on one input)
    fails if it raises or if its answer differs from the oracle.  The phases
    of an input feed each other, so after a failed operation the input's
    later phases count as failed.
    """
    from cadreduce.cadmodel import check_adapted, validate_cad
    from cadreduce.poset import explore, poset_report
    from cadreduce.reduction import minimize

    result = PassResult({phase: 0.0 for phase in PHASES})
    clock = time.perf_counter
    labels: dict[int, dict] = {}  # by input index
    reduced: dict[int, object] = {}
    failed: set[int] = set()
    for phase in PHASES:
        if between is not None:
            between()
        for i, inp in enumerate(workload.inputs):
            result.attempted += 1
            if i in failed:
                result.failed += 1
                result.failures.append(f"{inp.name}: {phase} skipped after a failed phase")
                continue
            repeats = RESULT_POSET_REPEATS if phase == "poset" and workload.poset_from_result else 1
            try:
                t0 = clock()
                if phase == "check":
                    report = validate_cad(inp.cad)
                    labels[i] = check_adapted(inp.cad, inp.formula)
                elif phase == "minimize":
                    reduced[i] = minimize(inp.cad, labels[i])
                else:
                    res = reduced[i]
                    start = (res.cad, res.labels) if workload.poset_from_result else (inp.cad, labels[i])
                    for _ in range(repeats):
                        graph = explore(*start)
                        report = poset_report(graph)
                result.times[phase] += (clock() - t0) / repeats
            except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
                problems = [f"raised {type(exc).__name__}: {exc}"]
            else:
                if phase == "check":
                    problems = _check_answer(inp, report, labels[i])
                elif phase == "minimize":
                    problems = _minimize_answer(inp, reduced[i])
                else:
                    result.nodes += report["node_count"]
                    problems = _poset_answer(inp, graph, report, reduced[i])
            if problems:
                failed.add(i)
                result.failed += 1
                result.failures += [f"{inp.name}: {phase}: {p}" for p in problems]
    if between is not None:
        between()
    return result


def _check_answer(inp: Input, report, labels) -> list[str]:
    problems = []
    if not report.ok:
        problems.append(f"validate_cad: {report}")
    if inp.cad.leaf_count() != inp.facts["leaf_count"]:
        problems.append(f"leaf count {inp.cad.leaf_count()}, want {inp.facts['leaf_count']}")
    if labels != inp.labels:
        problems.append("check_adapted labels differ from the oracle")
    return problems


def _minimize_answer(inp: Input, res) -> list[str]:
    problems = []
    facts = inp.facts
    if "merges" in facts and len(res.applied) != facts["merges"]:
        problems.append(f"{len(res.applied)} merges, want {facts['merges']}")
    if "minimize_leaf_count" in facts and res.cad.leaf_count() != facts["minimize_leaf_count"]:
        problems.append(f"result has {res.cad.leaf_count()} leaves, want {facts['minimize_leaf_count']}")
    return problems


def _poset_answer(inp: Input, graph, report, reduced) -> list[str]:
    from cadreduce.cadmodel import word_of
    from cadreduce.poset import minimal_elements

    facts = inp.facts
    got = {
        "node_count": report["node_count"],
        "edge_count": report["edge_count"],
        "sinks": len(report["minimal"]),
        "confluent": report["confluent"],
        "has_minimum": report["minimum"] is not None,
    }
    problems = [f"{k} = {v}, want {facts[k]}" for k, v in got.items() if k in facts and v != facts[k]]
    if got["has_minimum"] != (got["sinks"] == 1 and got["confluent"]):
        problems.append("a minimum must exist exactly when there is one sink and the poset is confluent")
    if "minimum_leaf_count" in facts and (report["minimum"] or {}).get("leaf_count") != facts["minimum_leaf_count"]:
        problems.append(f"minimum {report['minimum']}, want {facts['minimum_leaf_count']} leaves")
    if "edge_pivot" in facts and facts["edge_pivot"] not in {word_of(p) for _s, p, _d in graph.edges}:
        problems.append(f"no edge at pivot {facts['edge_pivot']}")
    if reduced.cad.partition_blocks() not in minimal_elements(graph):
        problems.append("the minimize result is not a sink of the poset")
    return problems
