"""The README's Python examples run as written."""

import base64
import json
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

from poiskit.cli import main
from poiskit.plda import read_model

README = Path(__file__).resolve().parent.parent / "README.md"


def python_block(marker):
    """The one ```python block of the README that holds ``marker``, dedented."""
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^ *```python\n(.*?)^ *```$", text, re.M | re.S)
    assert len(blocks) == 2
    (block,) = [b for b in blocks if marker in b]
    return textwrap.dedent(block)


# the example runs without a warning, such as a reduction of its folds
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_library_example_runs(capsys):
    exec(python_block("import poiskit as pk"), {})
    assert 0 <= float(capsys.readouterr().out) <= 1


def test_d_hat_snippet_reads_the_model_train_wrote(tmp_path, monkeypatch):
    argv = ["simulate", "--n", "9", "--p", "40", "--k", "3", "--phi", "0.01", "--sigma", "0.4",
            "--seed", "3", "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert main(["train", "--counts", str(tmp_path / "counts.tsv"), "--labels",
                 str(tmp_path / "labels.tsv"), "--out-dir", str(tmp_path)]) == 0
    monkeypatch.chdir(tmp_path)
    names = {"json": json, "base64": base64, "np": np}
    exec(python_block('m["d_hat"]'), names)
    assert np.array_equal(names["d_hat"], read_model(tmp_path / "model.json").d_hat)
