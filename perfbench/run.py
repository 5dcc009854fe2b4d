"""Benchmark of the cadreduce pipeline: check, minimize, then the poset.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gallery --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --out .perfbench/results.jsonl
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

A pass runs the workload's pipeline once on CADs built anew; passes repeat
for ``--seconds`` after one warm-up pass.  ``--trace 0`` prints the
end-to-end metrics of BENCHMARK.json: the median time of each phase over the
passes, the median of set-ups spread over the run, and the peak resident
memory.  Every time is corrected for the load other tenants put on the host:
it is divided by the load factor that a reference loop timed just before and
just after it gives (see reference.py), so it reads as seconds on an
unloaded host.  The uncorrected times and the load factors are printed and
written too.  ``--trace 1`` runs untraced passes and passes with every
layer's public functions wrapped (see tracer.py) in turn, prints the
per-layer metrics of the fastest traced pass and writes the spans under
``.perfbench/``.  Every answer is checked against its oracle in both modes.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--out`` appends the
full result, with its run context, as one JSON line for compare.py.

The process runs one pass at a time on one thread; ``--workload all`` runs
the workloads one after another, each in a child process of its own, so that
set-up time and peak memory are per workload.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

MODULES = ("realroots", "expr", "cadmodel", "tree", "reduction", "poset", "gallery")
SETUP_REPEATS = 11

END_TO_END = (
    ("setup_s", "s"),
    ("check_s", "s"),
    ("minimize_s", "s"),
    ("poset_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mb", "MB"),
)

_CALLS_AND_SELF = (
    "realroots.AlgebraicNumber.compare",
    "realroots.squarefree_part",
    "expr.eval_coord",
    "expr.formula_holds",
    "expr.compare_coords",
    "cadmodel.Cad.cell_points",
    "cadmodel.Cad.partition_blocks",
    "tree.applicable_pivots",
    "tree.apply_merge",
    "reduction.try_lift",
    "poset.PosetGraph.successors",
    "poset.PosetGraph.descendants",
)
_CALLS = ("realroots.sturm_sequence", "expr.canonicalize", "tree.relabel_index")
_SELF = ("cadmodel.validate_cad", "cadmodel.check_adapted", "reduction.minimize", "poset.explore", "poset.poset_report")

PER_LAYER = (
    *[(f"{n}.calls", "count") for n in _CALLS_AND_SELF + _CALLS],
    *[(f"{n}.self_s", "s") for n in _CALLS_AND_SELF + _SELF],
    ("expr.canonicalize.hit_ratio", "ratio"),
    ("expr.cache_entries", "count"),
    ("tree.CadTree.built", "count"),
    ("reduction.try_lift.accepted", "count"),
    ("reduction.try_lift.accept_ratio", "ratio"),
    ("poset.lifts_per_node", "lifts/node"),
    ("trace.overhead_s", "s"),
)


# ---------------------------------------------------------------------------
# Set-up


def _package_modules() -> list[str]:
    return [n for n in sys.modules if n == "cadreduce" or n.startswith("cadreduce.")]


def import_package() -> None:
    """Import every cadreduce module afresh from this checkout's ``src``."""
    for name in _package_modules():
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("cadreduce")
    if Path(package.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"cadreduce was imported from {package.__file__}, not from {SRC}")
    for module in MODULES:
        importlib.import_module(f"cadreduce.{module}")


def timed_setup(name: str, seed: int) -> float:
    """The time to import the package afresh and build the workload's root
    CADs.  The modules in use before are put back afterwards, so that their
    warm caches serve the passes that follow."""
    in_use = {n: sys.modules[n] for n in _package_modules()}
    gc.collect()
    t0 = time.perf_counter()
    import_package()
    workloads.build(name, seed)
    elapsed = time.perf_counter() - t0
    for n in _package_modules():
        del sys.modules[n]
    sys.modules.update(in_use)
    return elapsed


# ---------------------------------------------------------------------------
# Passes


class Run:
    """The passes of one run and what they found."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.sizes: dict = {}
        self.setup_times: list[tuple[float, float]] = []  # (seconds, load factor)

    def one_pass(self, tracer: tracing.Tracer | None = None) -> dict:
        """One pass; ``times`` are load-corrected, ``raw`` are not."""
        workload = workloads.build(self.name, self.seed)  # fresh CADs, cold per-Cad caches
        self.sizes = workload.sizes
        gc.collect()  # so that no garbage of an earlier pass is collected inside this one
        refs: list[float] = []

        def between():
            refs.append(reference.timed())

        if tracer is None:
            result = workloads.run_pass(workload, between)
        else:
            with tracer:
                result = workloads.run_pass(workload, between)
        self.attempted += result.attempted
        self.failed += result.failed
        self.failures += result.failures
        raw = {f"{phase}_s": t for phase, t in result.times.items()}
        loads = [reference.load_factor(a, b) for a, b in zip(refs, refs[1:])]
        times = {name: t / load for (name, t), load in zip(raw.items(), loads)}
        raw["pipeline_s"] = sum(result.times.values())
        times["pipeline_s"] = sum(times.values())
        return {"times": times, "raw": raw, "load": statistics.mean(loads), "nodes": result.nodes}

    def traced_pass(self, tracer: tracing.Tracer) -> dict:
        """A pass with the tracer installed; records where its spans are."""
        first, accepted = len(tracer.spans), tracer.accepted["reduction.try_lift"]
        record = self.one_pass(tracer)
        record.update(first=first, last=len(tracer.spans), accepted=tracer.accepted["reduction.try_lift"] - accepted)
        return record

    def measure(self, seconds: float, setups: int = 0) -> list[dict]:
        """Passes until ``seconds`` have gone by, at least one.

        ``setups`` set-up times are taken between passes, spread evenly
        over the run, so that they sample the same machine load as the
        passes do.
        """
        out = []
        start = time.perf_counter()
        while not out or time.perf_counter() < start + seconds:
            if len(self.setup_times) < setups and time.perf_counter() >= start + len(self.setup_times) * seconds / setups:
                before = reference.timed()
                elapsed = timed_setup(self.name, self.seed)
                self.setup_times.append((elapsed, reference.load_factor(before, reference.timed())))
            out.append(self.one_pass())
        return out

    def measure_traced(self, seconds: float, tracer: tracing.Tracer) -> tuple[list[dict], list[dict]]:
        """Untraced and traced passes in turn until ``seconds`` have gone
        by, so that both kinds see the same machine load."""
        untraced, traced = [], []
        start = time.perf_counter()
        while not traced or time.perf_counter() < start + seconds:
            untraced.append(self.one_pass())
            traced.append(self.traced_pass(tracer))
        return untraced, traced


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def fastest(passes: list[dict]) -> dict:
    return min(passes, key=lambda p: p["raw"]["pipeline_s"])


def end_to_end(passes: list[dict], setup_times: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The median load-corrected time of each phase over the passes and of
    the set-ups, the peak resident memory, and the quartiles of every
    series, corrected and raw, and of the load factor."""
    series = {name: [p["times"][name] for p in passes] for name in passes[0]["times"]}
    series["setup_s"] = [t / load for t, load in setup_times]
    metrics = {"setup_s": statistics.median(series["setup_s"])}
    metrics.update({name: statistics.median(series[name]) for name in passes[0]["times"]})
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    series.update({f"raw.{name}": [p["raw"][name] for p in passes] for name in passes[0]["raw"]})
    series["raw.setup_s"] = [t for t, _load in setup_times]
    series["load"] = [p["load"] for p in passes]
    return metrics, {name: quartiles(v) for name, v in series.items()}


def per_layer(tracer: tracing.Tracer, traced: list[dict], untraced: list[dict], cache_before) -> dict:
    """Span statistics of the fastest traced pass, and the cache figures of
    all traced passes.  ``trace.overhead_s`` is the difference of the
    median load-corrected pipeline times of traced and untraced passes; it
    can be negative."""
    record = fastest(traced)
    stats = tracing.span_stats(tracer.spans, record["first"], record["last"])
    metrics = {}
    for names, stat in ((_CALLS_AND_SELF + _CALLS, "calls"), (_CALLS_AND_SELF + _SELF, "self_s")):
        for name in names:
            metrics[f"{name}.{stat}"] = stats.get(name, {}).get(stat, 0)
    metrics["tree.CadTree.built"] = stats.get("tree.CadTree.__init__", {}).get("calls", 0)
    lifts = metrics["reduction.try_lift.calls"]
    metrics["reduction.try_lift.accepted"] = record["accepted"]
    metrics["reduction.try_lift.accept_ratio"] = record["accepted"] / lifts if lifts else 1.0
    in_explore = tracing.count_under(tracer.spans, "reduction.try_lift", "poset.explore", record["first"], record["last"])
    metrics["poset.lifts_per_node"] = in_explore / record["nodes"] if record["nodes"] else 0.0
    info = tracer.originals["expr.canonicalize"].cache_info()
    hits, misses = info.hits - cache_before.hits, info.misses - cache_before.misses
    metrics["expr.canonicalize.hit_ratio"] = hits / (hits + misses) if hits + misses else 1.0
    metrics["expr.cache_entries"] = cache_entries(sys.modules["cadreduce.expr"])
    metrics["trace.overhead_s"] = median_pipeline(traced) - median_pipeline(untraced)
    return metrics


def median_pipeline(passes: list[dict]) -> float:
    return statistics.median(p["times"]["pipeline_s"] for p in passes)


def cache_entries(expr) -> int:
    """Entries in the three module-level lru_caches of ``expr`` and its atom
    registry."""
    caches = (expr.canonicalize, expr.canonical_formula, expr.to_polynomial)
    return sum(c.cache_info().currsize for c in caches) + len(expr._atom_registry)


# ---------------------------------------------------------------------------
# Context and output


def commit() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(run: Run, seconds: float, trace: bool, passes: int) -> dict:
    return {
        "workload": run.name,
        "seed": run.seed,
        "seconds": seconds,
        "trace": trace,
        "passes": passes,
        "sizes": run.sizes,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
    }


def print_table(ctx: dict, metrics: dict, units: dict, spread: dict, failed: int, attempted: int) -> None:
    sizes = " ".join(f"{k}={v}" for k, v in ctx["sizes"].items())
    print(
        f"workload {ctx['workload']}: {sizes}, {ctx['passes']} passes, python {ctx['python']}, "
        f"nproc {ctx['nproc']}, commit {ctx['commit'][:12]}"
    )
    for name, value in metrics.items():
        q = spread.get(name)
        extra = f"  (q1 {q[0]:.6g}, median {q[1]:.6g}, q3 {q[2]:.6g})" if q else ""
        print(f"  {name:<44} {value:>14.6g} {units[name]}{extra}")
    print(f"  {'failed_frac':<44} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} operations)")
    for name in sorted(spread.keys() - metrics.keys()):
        q = spread[name]
        print(f"  {name:<44} q1 {q[0]:.6g}, median {q[1]:.6g}, q3 {q[2]:.6g}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, out: str | None) -> dict:
    problems = workloads.self_check(name)
    run = Run(name, seed)
    run.measure(0)  # warm-up: fills the module-level caches of expr
    if not trace:
        passes = run.measure(seconds, setups=SETUP_REPEATS)
        metrics, spread = end_to_end(passes, run.setup_times)
        units = dict(END_TO_END)
    else:
        tracer = tracing.Tracer()
        cache_before = sys.modules["cadreduce.expr"].canonicalize.cache_info()
        untraced, passes = run.measure_traced(seconds, tracer)
        metrics = per_layer(tracer, passes, untraced, cache_before)
        spread = {}
        units = dict(PER_LAYER)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_spans(OUT_DIR / f"spans-{name}-seed{seed}.tsv.gz")
    ctx = context(run, seconds, trace, len(passes))
    print_table(ctx, metrics, units, spread, run.failed, run.attempted)
    for problem in problems + run.failures[:20]:
        print(f"  FAILED {problem}")
    result = {
        "correct": not problems and not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if out:
        record = {**ctx, **result, "quartiles": spread, "failures": problems + run.failures}
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        with open(out, "a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
    return result


def run_all(args) -> dict:
    """Each workload in a child process of its own, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", args.out]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result as one JSON line to this file")
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        try:
            import_package()
        except ImportError as exc:
            print(f"cannot import cadreduce from {SRC}: {exc}", file=sys.stderr)
            return 2
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
