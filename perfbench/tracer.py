"""Span tracer that times poiskit's public functions from outside the package.

``Tracer.install`` rebinds each listed function in every loaded ``poiskit``
module that holds it, so calls made through any module's namespace record a
span; ``uninstall`` puts the originals back. Construction of the listed
classes is counted (not timed) by patching their ``__post_init__``.

Each thread keeps its own span stack. A span opened on a thread whose stack
is empty (a worker thread of a pool) takes as parent the innermost open span
of the thread that created the tracer, which is the call that started the
pool. One shared stack would nest the spans of concurrent workers inside
each other and report more child time than wall time.

Spans stay in memory until ``reset`` hands them over.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter

# Public functions traced, by module: those the workloads call whose time or
# calls a per-layer metric reads (perfbench/worker.py). Everything else,
# output writers such as write_partition and write_newick included, stays
# in the self time of the traced call that runs it. Per-element helpers
# (format_number, condensed_index, soft_threshold, ...) would also cost more
# in spans than the work they do.
TRACED_FUNCTIONS = {
    "poiskit.count_matrix": (
        "read_count_matrix", "read_two_column_tsv", "read_labels",
        "write_count_matrix", "write_labels",
    ),
    "poiskit.transform": ("find_alpha", "apply_alpha", "gof_statistic"),
    # estimate_size_factors reaches the per-method estimators through a table
    # of its own, which rebinding cannot reach; their time is its self time.
    "poiskit.size_factors": ("estimate_size_factors", "estimate_test_size_factor"),
    "poiskit.plda": (
        "fit", "predict", "predict_matrix", "cross_validate", "default_rho_grid",
        "stratified_folds", "shrinkage_upper_bound", "write_model", "read_model",
    ),
    "poiskit.dissimilarity": (
        "poisson_pair_dissimilarity", "poisson_dissimilarity_matrix",
        "write_dissimilarity", "read_dissimilarity",
    ),
    "poiskit.clustering": ("complete_linkage", "cut_tree", "cer", "cer_sweep"),
    "poiskit.simulate": ("simulate", "split_train_test"),
    "poiskit.cli": ("main",),
}

# Classes whose constructions are counted, keyed by the counter name.
COUNTED_CLASSES = {
    "CountMatrix": ("poiskit.count_matrix", "CountMatrix"),
    "PldaModel": ("poiskit.plda", "PldaModel"),
}


class Span:
    __slots__ = ("name", "start", "end", "thread", "parent")

    def __init__(self, name, start, thread, parent):
        self.name = name
        self.start = start
        self.end = None
        self.thread = thread
        self.parent = parent

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counts; create one per traced process."""

    def __init__(self):
        self._spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home = threading.get_ident()
        self._home_stack = self._stack()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            home = self._home_stack
            parent = home[-1] if home and threading.get_ident() != self._home else None
        span = Span(name, time.perf_counter(), threading.get_ident(), parent)
        stack.append(span)
        with self._lock:
            self._spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, fn, name: str):
        """A function that calls ``fn`` inside a span named ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        traced.__perfbench_traced__ = True
        return traced

    def count(self, name: str) -> None:
        with self._lock:
            self.counts[name] += 1

    def _rebind(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Rebind ``TRACED_FUNCTIONS`` and count ``COUNTED_CLASSES`` constructions."""
        loaded = [m for k, m in sys.modules.items() if k.split(".")[0] == "poiskit"]
        for module_name, names in TRACED_FUNCTIONS.items():
            module = sys.modules[module_name]
            for name in names:
                original = getattr(module, name)
                traced = self.wrap(original, f"{module_name.split('.')[-1]}.{name}")
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, attr, traced)
        for counter, (module_name, cls_name) in COUNTED_CLASSES.items():
            cls = getattr(sys.modules[module_name], cls_name)
            original_post_init = cls.__post_init__

            def counted(obj, _orig=original_post_init, _counter=counter):
                self.count(_counter)
                return _orig(obj)

            self._rebind(cls, "__post_init__", counted)

    def uninstall(self) -> None:
        """Restore every rebound name, last rebinding first."""
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def reset(self) -> tuple[list[Span], Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        with self._lock:
            spans, counts = self._spans, self.counts
            self._spans, self.counts = [], Counter()
        return spans, counts


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time per span (keyed by ``id``): duration minus the union of the
    child intervals, each clipped to the parent's interval."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    result = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(id(span), ()), key=lambda c: c.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result[id(span)] = span.duration - covered
    return result


def export(spans: list[Span]) -> list[dict]:
    """Spans as plain records, parents given as list indices."""
    index = {id(span): i for i, span in enumerate(spans)}
    return [
        {
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "thread": s.thread,
            "parent": None if s.parent is None else index.get(id(s.parent)),
        }
        for s in spans
    ]
