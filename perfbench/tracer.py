"""Spans around the public functions of each ``cadreduce`` layer, recorded
from outside the package.

``Tracer.install`` replaces each target function by a wrapper that records
a span (name, start, end, parent), in every ``cadreduce`` module that holds a
binding to it; methods are replaced on their class.  ``Tracer.restore`` puts
every original binding back.  Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import Counter

# (module, qualified name) of every wrapped callable, layer by layer.
TARGETS = (
    ("realroots", "AlgebraicNumber.compare"),
    ("realroots", "sturm_sequence"),
    ("realroots", "squarefree_part"),
    ("expr", "eval_coord"),
    ("expr", "formula_holds"),
    ("expr", "compare_coords"),
    ("expr", "canonicalize"),
    ("cadmodel", "validate_cad"),
    ("cadmodel", "check_adapted"),
    ("cadmodel", "Cad.cell_points"),
    ("cadmodel", "Cad.partition_blocks"),
    ("tree", "CadTree.__init__"),
    ("tree", "applicable_pivots"),
    ("tree", "apply_merge"),
    ("tree", "relabel_index"),
    ("reduction", "try_lift"),
    ("reduction", "minimize"),
    ("poset", "explore"),
    ("poset", "poset_report"),
    ("poset", "PosetGraph.successors"),
    ("poset", "PosetGraph.descendants"),
)

# Spans whose result counts as an accepted outcome.
ACCEPTED = {"reduction.try_lift": lambda result: result is not None}

PACKAGE = "cadreduce"


class Tracer:
    """Wraps the targets while installed; one instance per traced run."""

    def __init__(self):
        # Spans are (name, start, end, parent index or -1), in start order.
        self.spans: list = []
        self.accepted: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        try:
            for module_name, qualname in TARGETS:
                module = sys.modules[f"{PACKAGE}.{module_name}"]
                name = f"{module_name}.{qualname}"
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = vars(owner)[attr]
                    self._rebind(owner, attr, self._wrap(name, original))
                else:
                    original = getattr(module, attr)
                    wrapper = self._wrap(name, original)
                    for mod in modules:
                        for binding, value in list(vars(mod).items()):
                            if value is original:
                                self._rebind(mod, binding, wrapper)
                self.originals[name] = original
        except BaseException:
            self.restore()
            raise

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put back every binding ``install`` replaced, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        accept = ACCEPTED.get(name)
        accepted = self.accepted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if accept is not None and accept(result):
                accepted[name] += 1
            return result

        return wrapper

    def write_spans(self, path) -> None:
        """One tab-separated line per span: index, name, start, end, parent;
        gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def span_stats(spans, first: int = 0, last: int | None = None) -> dict[str, dict]:
    """Per span name: ``calls``, ``total_s`` and ``self_s`` over
    ``spans[first:last]``.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so the children never overlap.
    """
    part = spans[first:last]
    child_time = [0.0] * len(part)
    for name, start, end, parent in part:
        if parent >= first:
            child_time[parent - first] += end - start
    stats: dict[str, dict] = {}
    for (name, start, end, _parent), covered in zip(part, child_time):
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - covered
    return stats


def count_under(spans, name: str, ancestor: str, first: int = 0, last: int | None = None) -> int:
    """How many ``name`` spans in ``spans[first:last]`` have an ``ancestor``
    span above them."""
    part = spans[first:last]
    inside = [False] * len(part)
    count = 0
    for i, (span_name, _s, _e, parent) in enumerate(part):
        under = parent >= first and (inside[parent - first] or part[parent - first][0] == ancestor)
        inside[i] = under
        if under and span_name == name:
            count += 1
    return count
