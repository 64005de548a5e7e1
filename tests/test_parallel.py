"""The ordered map: results, errors and warnings do not depend on the thread count."""

import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from poiskit import parallel, plda
from poiskit.count_matrix import CountMatrix, LabeledDataset
from poiskit.parallel import map_ordered


def fast_switching(run):
    """``run()`` with the interpreter switching threads as often as it can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return run()
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("threads", (None, 0, 1, 2, 3, 8))
def test_results_come_back_in_unit_order(threads):
    assert fast_switching(lambda: map_ordered(lambda i: i * i, 7, threads)) == [
        i * i for i in range(7)
    ]
    assert map_ordered(lambda i: i, 0, threads) == []


def test_the_calling_thread_takes_the_first_strided_share():
    caller = threading.get_ident()
    ran_on = map_ordered(lambda i: threading.get_ident(), 6, 2)
    assert [t == caller for t in ran_on] == [True, False] * 3


@pytest.mark.parametrize("threads", (1, 2, 4))
def test_the_lowest_failing_unit_is_raised(threads):
    def unit(i):
        if i in (1, 3):
            raise ValueError(f"unit {i} failed")
        return i

    with pytest.raises(ValueError, match="^unit 1 failed$"):
        fast_switching(lambda: map_ordered(unit, 5, threads))


@pytest.mark.parametrize("threads", (1, 2, 4))
def test_unit_warnings_are_issued_in_unit_order_up_to_the_failure(threads):
    def unit(i):
        parallel.warn(f"first from unit {i}")
        parallel.warn(f"second from unit {i}")
        if i == 3:
            raise ValueError("unit 3 failed")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="unit 3 failed"):
            fast_switching(lambda: map_ordered(unit, 6, threads))
    assert [str(w.message) for w in caught] == [
        f"{which} from unit {i}" for i in range(4) for which in ("first", "second")
    ]
    assert {w.filename for w in caught} == {__file__}
    assert all(w.category is RuntimeWarning for w in caught)


def test_nested_maps_hold_their_warnings_for_the_outer_unit():
    def inner(i, j):
        parallel.warn(f"{i}.{j}")

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        map_ordered(lambda i: map_ordered(lambda j: inner(i, j), 3, 2), 4, 2)
    assert [str(w.message) for w in caught] == [f"{i}.{j}" for i in range(4) for j in range(3)]


def test_cross_validation_warnings_are_issued_in_fold_order(monkeypatch):
    """The reduced-folds warning comes first; each fold's own warning follows, in fold order."""
    rng = np.random.default_rng(7)
    values = rng.integers(1, 60, (9, 40)).astype(float)
    data = LabeledDataset(
        CountMatrix(values, tuple(f"s{i}" for i in range(9)), tuple(f"g{j}" for j in range(40))),
        np.array([1, 1, 1, 2, 2, 2, 3, 3, 3]),
        3,
    )
    calibrate = plda.calibrate

    def noisy_calibrate(values):
        parallel.warn(f"calibrating {int(values.sum())}")
        return calibrate(values)

    monkeypatch.setattr(plda, "calibrate", noisy_calibrate)
    runs = []
    for threads in (1, 2, 5):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = fast_switching(lambda: plda.cross_validate(data, folds=5, threads=threads))
        runs.append(([str(w.message) for w in caught], result.to_json()))
    messages, _ = runs[0]
    assert messages[0] == f"calibrating {int(values.sum())}"  # the full-data fit
    assert messages[1].startswith("reducing folds from 5 to 3")
    assert len(messages) == 2 + 3
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_importing_poiskit_loads_no_executor():
    """map_ordered starts plain threads, so ``import poiskit`` skips concurrent.futures."""
    src = str(Path(parallel.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import poiskit; "
        "print('poiskit.parallel' in sys.modules, 'concurrent.futures' in sys.modules)"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert run.stdout == "True False\n"
