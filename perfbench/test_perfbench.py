"""Tests of the benchmark itself: oracles, tracer and compare mode.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest

import compare
import reference
import run
import tracer as tracing
import workloads

run.import_package()

from cadreduce.cadmodel import check_adapted, validate_cad  # noqa: E402


def small_workload(m: int = 2, seed: int = 0) -> workloads.Workload:
    inp = workloads.disk_lines(m, seed)
    return workloads.Workload("disk-lines-small", [inp], False, {"m": m})


def test_line_abscissae():
    assert workloads.line_abscissae(3, 0) == [Fraction(-1, 2), Fraction(0), Fraction(1, 2)]
    for seed in range(5):
        xs = workloads.line_abscissae(9, seed)
        assert len(set(xs)) == 9 and xs == sorted(xs)
        assert all(-1 < x < 1 for x in xs)
    assert workloads.line_abscissae(9, 4) == workloads.line_abscissae(9, 4)


@pytest.mark.parametrize("m,seed", [(1, 0), (3, 0), (3, 7), (5, 2)])
def test_disk_lines_is_valid_and_labelled_by_the_disk(m, seed):
    inp = workloads.disk_lines(m, seed)
    assert validate_cad(inp.cad).ok
    assert inp.cad.leaf_count() == 10 * m + 13
    assert check_adapted(inp.cad, inp.formula) == inp.labels


def test_disk_lines_one_is_disk_cp():
    assert workloads.disk_lines_self_check() == []


def test_pass_on_correct_answers_has_no_failure():
    result = workloads.run_pass(small_workload())
    assert result.attempted == 3
    assert result.failed == 0, result.failures
    assert result.nodes == 4


def test_poset_from_the_minimize_result_is_one_node():
    inp = workloads.disk_lines(2, 5)
    inp.facts.update(node_count=1, edge_count=0)
    result = workloads.run_pass(workloads.Workload("disk-lines-small", [inp], True, {"m": 2}))
    assert result.failed == 0, result.failures
    assert result.nodes == 1 and result.times["poset"] > 0


def test_answer_differing_from_oracle_is_a_failed_operation():
    workload = small_workload()
    workload.inputs[0].facts["edge_count"] += 1
    result = workloads.run_pass(workload)
    assert (result.attempted, result.failed) == (3, 1)
    assert "edge_count" in result.failures[0]


def test_failed_check_fails_the_later_phases():
    workload = small_workload()
    leaf = next(iter(workload.inputs[0].labels))
    workload.inputs[0].labels[leaf] ^= 1
    result = workloads.run_pass(workload)
    assert (result.attempted, result.failed) == (3, 3)


def test_raise_is_a_failed_operation():
    workload = small_workload()
    workload.inputs[0].formula = None
    result = workloads.run_pass(workload)
    assert result.failed == 3
    assert "raised" in result.failures[0]


def test_between_runs_before_the_first_phase_and_after_each_phase():
    calls = []
    result = workloads.run_pass(small_workload(), lambda: calls.append(None))
    assert len(calls) == 4
    assert result.failed == 0


def test_pass_times_are_divided_by_the_load_factor(monkeypatch):
    monkeypatch.setattr(reference, "timed", lambda: 2 * reference.NOMINAL_S)
    record = run.Run("disk-lines-poset", 0).one_pass()
    assert record["load"] == pytest.approx(2)
    for name, raw in record["raw"].items():
        assert record["times"][name] == pytest.approx(raw / 2)


def test_reference_loop_gives_one_answer():
    assert reference.timed() > 0
    assert reference.reference_loop() == reference.reference_loop()
    assert reference.load_factor(reference.NOMINAL_S, 3 * reference.NOMINAL_S) == 2


def test_gallery_inputs_pass_their_oracles():
    workload = workloads.build("gallery", 3)
    assert [i.name for i in workload.inputs] != [i.name for i in workloads.build("gallery", 4).inputs]
    result = workloads.run_pass(workload)
    assert result.attempted == 45
    assert result.failed == 0, result.failures
    assert workloads.gallery_self_check() == []


def _bindings():
    """Every attribute of every cadreduce module and class."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "cadreduce" or name.startswith("cadreduce."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def test_call_through_another_modules_binding_is_counted():
    import cadreduce.poset as poset
    import cadreduce.reduction as reduction
    from cadreduce.expr import parse_expr

    tracer = tracing.Tracer()
    with tracer:
        reduction.eval_coord(parse_expr("(add x1 1)"), (Fraction(1),))
        poset.eval_coord(parse_expr("(add x1 2)"), (Fraction(1),))
        tree = reduction._tree_of(small_workload().inputs[0].cad, small_workload().inputs[0].labels)
        poset.applicable_pivots(tree)
    stats = tracing.span_stats(tracer.spans)
    assert stats["expr.eval_coord"]["calls"] == 2
    assert stats["tree.applicable_pivots"]["calls"] == 1
    assert stats["tree.CadTree.__init__"]["calls"] == 1


def test_bindings_are_restored_and_tier1_tests_pass_after_a_traced_pass():
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        assert _bindings() != before
        result = workloads.run_pass(small_workload())
    assert result.failed == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    names = {span[0] for span in tracer.spans}
    assert {"reduction.try_lift", "poset.explore", "expr.canonicalize", "realroots.AlgebraicNumber.compare"} <= names
    assert pytest.main([str(run.ROOT / "tests"), "-q", "-p", "no:cacheprovider"]) == 0


def test_timed_setup_puts_the_modules_in_use_back():
    before = {n: m for n, m in sys.modules.items() if n.startswith("cadreduce")}
    assert run.timed_setup("disk-lines-poset", 0) > 0
    assert {n: m for n, m in sys.modules.items() if n.startswith("cadreduce")} == before


def test_span_stats_self_time_and_ancestors():
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("c", 5.0, 7.0, 0),
    ]
    stats = tracing.span_stats(spans)
    assert stats["a"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert stats["b"]["self_s"] == 2.0
    assert stats["c"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}
    assert tracing.count_under(spans, "c", "b") == 1
    assert tracing.count_under(spans, "c", "a") == 2
    assert tracing.span_stats(spans, 1, 3)["b"]["self_s"] == 2.0


def test_benchmark_json_names_every_metric_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_compare_flags_only_end_to_end_metrics_worse_than_their_bound():
    spec = {
        "end_to_end": [{"name": "pipeline_s", "unit": "s", "better": "lower", "bound": 0.1}],
        "per_layer": [{"name": "expr.eval_coord.calls", "unit": "count", "better": "lower"}],
    }
    base = {("w", "pipeline_s"): [1.0, 1.0, 1.2], ("w", "expr.eval_coord.calls"): [10]}
    rows, flagged = compare.compare(base, {("w", "pipeline_s"): [1.05], ("w", "expr.eval_coord.calls"): [30]}, spec)
    assert flagged == 0 and len(rows) == 3
    rows, flagged = compare.compare(base, {("w", "pipeline_s"): [1.2], ("v", "pipeline_s"): [9.0]}, spec)
    assert flagged == 1
    assert any("WORSE" in r and "pipeline_s" in r for r in rows)
    assert any("only in new" in r for r in rows)
