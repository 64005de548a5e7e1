"""Independent units of work on threads, with the same outcome at any thread count.

:func:`map_ordered` runs ``fn(0), ..., fn(n_units - 1)`` on the calling
thread plus ``threads - 1`` pool threads. Thread t runs units t,
t + threads, t + 2 * threads, ..., so the calling thread keeps the first
strided share. Each unit's result goes to its own slot, and the results
come back in unit order. If units fail, the error of the failing unit with
the lowest index is raised. Warnings a unit issues through :func:`warn` are
held with the unit and issued on the calling thread once every unit is
done, unit by unit in index order, up to the failing unit if there is one.
So the results, the error and the warnings do not depend on the thread
count, as long as each unit writes only its own slots.
"""

from __future__ import annotations

import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

T = TypeVar("T")

# the warnings held by the unit running on this thread, if any
_local = threading.local()


def warn(message: str) -> None:
    """``warnings.warn(message, RuntimeWarning)`` from the caller's line.

    Inside a unit of :func:`map_ordered` the warning is held until the
    units are done. ``warnings.catch_warnings`` cannot hold it: it swaps
    process-wide state, so it is not thread-safe.
    """
    frame = sys._getframe(1)
    _issue((message, frame.f_code.co_filename, frame.f_lineno, frame.f_globals))


def _issue(record) -> None:
    """Hold a warning for the running unit, or issue it as ``warnings.warn`` would."""
    held = getattr(_local, "held", None)
    if held is not None:
        held.append(record)
        return
    message, filename, lineno, module_globals = record
    warnings.warn_explicit(
        message, RuntimeWarning, filename, lineno,
        module=module_globals.get("__name__", "<string>"),
        registry=module_globals.setdefault("__warningregistry__", {}),
        module_globals=module_globals,
    )


def map_ordered(fn: Callable[[int], T], n_units: int, threads: int | None = 1) -> list[T]:
    """``[fn(0), ..., fn(n_units - 1)]`` on up to ``threads`` threads, the caller among them.

    ``threads`` of None or 0 means 1. Units may run in any order and at the
    same time, so ``fn(i)`` must write nothing that another unit reads or
    writes.
    """
    results: list = [None] * n_units
    errors: list[Exception | None] = [None] * n_units
    held: list[list] = [[] for _ in range(n_units)]
    workers = max(1, min(threads or 1, n_units))

    def run(first: int) -> None:
        outer = getattr(_local, "held", None)
        try:
            for i in range(first, n_units, workers):
                _local.held = held[i]
                try:
                    results[i] = fn(i)
                except Exception as exc:
                    errors[i] = exc  # this thread's later units all have higher indices
                    break
        finally:
            _local.held = outer

    if workers == 1:
        run(0)
    else:
        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            futures = [pool.submit(run, t) for t in range(1, workers)]
            run(0)
            for future in futures:
                future.result()
    failed = next((i for i, exc in enumerate(errors) if exc is not None), n_units)
    for unit in held[: failed + 1]:
        for record in unit:
            _issue(record)
    if failed < n_units:
        raise errors[failed]
    return results
