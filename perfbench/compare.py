"""Compare benchmark results with earlier ones, metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds result lines written by ``run.py --out``; runs of the same
workload (several seeds, say) are reduced to the median of each metric.  One
row per workload and metric gives both medians and the change.  An
end-to-end metric that got worse by more than its bound in BENCHMARK.json is
flagged, and the exit code is then 1.  There is no combined score.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> the values of every run in the file."""
    values: dict[tuple[str, str], list[float]] = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                record = json.loads(line)
                for name, metric in record["metrics"].items():
                    values.setdefault((record["workload"], name), []).append(metric["value"])
    return values


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than a nonzero ``base``, as a share of
    ``base`` (negative when it is better)."""
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def compare(base: dict, new: dict, spec: dict) -> tuple[list[str], int]:
    """Rows of the comparison and the number of flagged metrics."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    rows = [f"{'workload':<18} {'metric':<44} {'base':>12} {'new':>12} {'change':>9}  flag"]
    flagged = 0
    for key in sorted(set(base) & set(new)):
        workload, name = key
        b, n = statistics.median(base[key]), statistics.median(new[key])
        change = (n - b) / abs(b) * 100 if b else float("nan")
        flag = ""
        if name in bounds and b and worse_by(b, n, bounds[name]["better"]) > bounds[name]["bound"]:
            flag = f"WORSE by more than {bounds[name]['bound']:.0%}"
            flagged += 1
        rows.append(f"{workload:<18} {name:<44} {b:>12.6g} {n:>12.6g} {change:>+8.1f}%  {flag}")
    for key in sorted(set(base) ^ set(new)):
        rows.append(f"{key[0]:<18} {key[1]:<44} only in {'base' if key in base else 'new'}")
    return rows, flagged


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    rows, flagged = compare(load(args[0]), load(args[1]), spec)
    print("\n".join(rows))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
