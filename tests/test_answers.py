"""Golden answers: what the pipeline decides on every fixture, pinned.

For every ``lift_fixtures`` entry, the disordered stack, every gallery
entry lifted to R^6 and disk-lines(7), ``answers.json`` records whether
``validate_cad`` passes, a hash of the probe points of every root cell, and
either the name of the error with which ``minimize`` refuses the root, or
the merges of ``minimize``, the size of the explored poset, hashes of its
edges and of its node histories and its ``poset_report``.  A change that
claims to keep the answers must leave this file byte-identical; any
difference is a bug to find, not a figure to update.

Regenerate (only for a change that is meant to alter answers) with
``PYTHONPATH=src python tests/test_answers.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ANSWERS = Path(__file__).with_name("answers.json")
LIFT_DIM = 6


def inputs():
    """(name, builder of a fresh labelled root CAD) for every input."""
    from cadreduce.gallery import gallery_names, load_entry
    from cadreduce.poset import extend_cylinder
    from tests.test_packaging import load_perfbench
    from tests.test_reduction import disordered_stack, lift_fixtures

    yield from lift_fixtures()
    yield "disordered stack", disordered_stack
    for name in gallery_names():
        entry = load_entry(name)
        yield f"{name}@R{LIFT_DIM}", lambda entry=entry: extend_cylinder(entry.cad, entry.labels, LIFT_DIM)
    with pytest.MonkeyPatch.context() as mp:
        disk = load_perfbench("workloads", mp).disk_lines(7, 0)
    yield disk.name, lambda: (disk.cad, disk.labels)


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def _points(cad, cell) -> str:
    """The cell's probes as text, each written as (point, cell), the form
    the hashes were first made in: there a defining polynomial printed its
    integer coefficients as ``Fraction``s."""
    from cadreduce.errors import CadError

    try:
        return repr([(tuple(map(_first_made, point)), cell) for point in cad.cell_points(cell)])
    except CadError as exc:  # the failure is the answer
        return type(exc).__name__


def _first_made(v):
    from dataclasses import replace
    from fractions import Fraction

    from cadreduce.realroots import AlgebraicNumber

    if isinstance(v, AlgebraicNumber):
        return replace(v, defining=tuple(map(Fraction, v.defining)))
    return v


def answer(cad, labels) -> dict:
    from cadreduce.cadmodel import validate_cad, word_of
    from cadreduce.errors import ValidationFailed
    from cadreduce.poset import explore, poset_report
    from cadreduce.reduction import minimize

    def blocks(partition):
        return sorted(sorted(word_of(c) for c in block) for block in partition)

    points = {
        word_of(cell): _points(cad, cell) for k in range(cad.n + 1) for cell in cad.cells_of_level(k)
    }
    got = {"valid": validate_cad(cad).ok, "points_sha256": _digest(points)}
    try:
        applied = [word_of(p) for p in minimize(cad, labels).applied]
    except ValidationFailed as exc:  # the refusal is the answer
        return {**got, "refused": type(exc).__name__}
    graph = explore(cad, labels)
    words = {top: blocks(node.partition_blocks()) for top, node in graph.nodes.items()}
    edges = sorted([words[src], word_of(pivot), words[dst]] for src, pivot, dst in graph.edges)
    histories = sorted([words[top], [word_of(p) for p in node.applied]] for top, node in graph.nodes.items())
    return {
        **got,
        "applied": applied,
        "node_count": len(graph.nodes),
        "edge_count": len(graph.edges),
        "edges_sha256": _digest(edges),
        "histories_sha256": _digest(histories),
        "poset_report": poset_report(graph),
    }


def all_answers() -> dict:
    return {name: answer(*build()) for name, build in inputs()}


def render(answers: dict) -> str:
    return json.dumps(answers, indent=1, sort_keys=True) + "\n"


def test_answers_are_the_golden_ones():
    want = json.loads(ANSWERS.read_text())
    got = json.loads(render(all_answers()))
    assert sorted(got) == sorted(want)
    differ = {name: (got[name], want[name]) for name in want if got[name] != want[name]}
    assert not differ, "answers differ (got, want):\n" + json.dumps(differ, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    ANSWERS.write_text(render(all_answers()))
