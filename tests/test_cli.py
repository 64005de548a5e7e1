"""CLI subcommands, exit codes, manifests, and file contracts."""

import base64
import codecs
import contextlib
import io
import json
import os
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poiskit.cli import main
from poiskit.count_matrix import CountMatrix, read_count_matrix, write_count_matrix
from poiskit.plda import read_model, stratified_folds
from poiskit.transform import find_alpha


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    assert run(
        "simulate", "--n", 12, "--p", 150, "--k", 3, "--phi", 0.01,
        "--sigma", 0.4, "--seed", 5, "--out-dir", out,
    ) == 0
    return out


def test_simulate_outputs_and_manifest(sim_dir):
    counts = read_count_matrix(sim_dir / "counts.tsv")
    assert counts.shape == (12, 150)
    truth = json.loads((sim_dir / "truth.json").read_text())
    assert len(truth["s"]) == 12
    assert truth["config"]["seed"] == 5
    manifest = json.loads((sim_dir / "manifest.json").read_text())
    assert manifest["subcommand"] == "simulate"
    assert manifest["seed"] == 5
    assert manifest["tool"] == "poiskit"
    assert "wall_time_seconds" in manifest


def test_simulate_rerun_is_byte_identical(tmp_path):
    args = [
        "simulate", "--n", 6, "--p", 80, "--k", 2, "--phi", 0.1,
        "--sigma", 0.2, "--seed", 11,
    ]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(*args, "--out-dir", a) == 0
    assert run(*args, "--out-dir", b) == 0
    assert (a / "counts.tsv").read_bytes() == (b / "counts.tsv").read_bytes()
    assert (a / "labels.tsv").read_bytes() == (b / "labels.tsv").read_bytes()


def test_simulate_rejects_negative_phi(tmp_path, capsys):
    # and a positive phi so small that 1/phi, the gamma shape, overflows
    for phi in (-1, 2.2e-313):
        assert run(
            "simulate", "--n", 4, "--p", 10, "--k", 2, "--phi", phi,
            "--sigma", 0.1, "--seed", 1, "--out-dir", tmp_path / "x",
        ) == 2
        assert "phi" in capsys.readouterr().err


def exit_code(*argv):
    """A run's exit status, whether ``main`` returns it or argparse exits with it.

    An exception that escapes ``main``, which the console script would print
    as a traceback, escapes here too and fails the test.
    """
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("command", [
    ["simulate", "--n", 4, "--p", 10, "--k", 2, "--phi", 0.1, "--sigma", 0.1],
    ["cv", "--counts", "counts.tsv", "--labels", "labels.tsv"],
    ["replicate", "classification", "--n", 4, "--p", 10, "--phi", 0.1, "--sigma", 0.1,
     "--reps", 1],
    ["replicate", "clustering", "--n", 4, "--p", 10, "--phi", 0.1, "--sigma", 0.1, "--reps", 1],
])
def test_a_negative_seed_exits_2(tmp_path, capsys, command):
    assert exit_code(*command, "--seed", -1, "--out-dir", tmp_path / "x") == 2
    assert "--seed: must be a nonnegative integer, got '-1'" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["simulate"],
    ["replicate", "classification", "--reps", 1],
    ["replicate", "clustering", "--reps", 1],
])
@pytest.mark.parametrize("phi, sigma, message", [
    (0.01, "nan", "error: sigma must be finite and positive"),
    (0.01, "inf", "error: sigma must be finite and positive"),
    (0.01, 50, "error: the rates are too large to sample"),
    ("inf", 0.5, "error: dispersion phi must be finite and nonnegative"),
])
def test_undrawable_simulation_settings_exit_2(tmp_path, capsys, command, phi, sigma, message):
    assert exit_code(
        *command, "--n", 6, "--p", 2000, "--k", 2, "--phi", phi, "--sigma", sigma,
        "--seed", 1, "--out-dir", tmp_path / "x",
    ) == 2
    assert capsys.readouterr().err.startswith(message)


def test_missing_required_arg_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run("simulate", "--n", 4, "--out-dir", tmp_path / "x")
    assert excinfo.value.code == 2


def test_train_predict_cycle(sim_dir, tmp_path):
    train_dir = tmp_path / "train"
    assert run(
        "train", "--counts", sim_dir / "counts.tsv", "--labels", sim_dir / "labels.tsv",
        "--rho", 0, "--out-dir", train_dir,
    ) == 0
    assert (train_dir / "model.json").exists()
    assert (train_dir / "size_factors.tsv").exists()

    pred_dir = tmp_path / "pred"
    assert run(
        "predict", "--counts", sim_dir / "counts.tsv",
        "--model", train_dir / "model.json",
        "--labels", sim_dir / "labels.tsv", "--out-dir", pred_dir,
    ) == 0
    lines = (pred_dir / "predictions.tsv").read_text().splitlines()
    assert lines[0].startswith("id\tclass\tposterior_")
    assert len(lines) == 13
    manifest = json.loads((pred_dir / "manifest.json").read_text())
    assert "errors" in manifest
    assert manifest["n"] == 12


def test_train_ignores_labels_of_ids_outside_the_counts(sim_dir, tmp_path):
    """Such rows neither add a class nor move the numbering: the model is unchanged."""
    text = (sim_dir / "labels.tsv").read_text()
    files = {"plain": text, "after": text + "x1\tc9\n", "before": "x0\tc3\n" + text}
    for name, labels in files.items():
        (tmp_path / f"{name}.tsv").write_text(labels, encoding="utf-8")
        assert run(
            "train", "--counts", sim_dir / "counts.tsv", "--labels", tmp_path / f"{name}.tsv",
            "--out-dir", tmp_path / name,
        ) == 0
    expected = (tmp_path / "plain" / "model.json").read_bytes()
    assert (tmp_path / "after" / "model.json").read_bytes() == expected
    assert (tmp_path / "before" / "model.json").read_bytes() == expected


def test_predict_labels_order_independent(sim_dir, tmp_path):
    train_dir = tmp_path / "train"
    assert run(
        "train", "--counts", sim_dir / "counts.tsv", "--labels", sim_dir / "labels.tsv",
        "--out-dir", train_dir,
    ) == 0
    # same labels, rows reversed: class first-appearance order now differs
    reversed_labels = tmp_path / "rev.tsv"
    lines = (sim_dir / "labels.tsv").read_text().splitlines()
    reversed_labels.write_text("\n".join(reversed(lines)) + "\n", encoding="utf-8")
    a, b = tmp_path / "pa", tmp_path / "pb"
    assert run(
        "predict", "--counts", sim_dir / "counts.tsv", "--model", train_dir / "model.json",
        "--labels", sim_dir / "labels.tsv", "--out-dir", a,
    ) == 0
    assert run(
        "predict", "--counts", sim_dir / "counts.tsv", "--model", train_dir / "model.json",
        "--labels", reversed_labels, "--out-dir", b,
    ) == 0
    errors_a = json.loads((a / "manifest.json").read_text())["errors"]
    errors_b = json.loads((b / "manifest.json").read_text())["errors"]
    assert errors_a == errors_b


def test_predict_unknown_class_in_labels(sim_dir, tmp_path):
    train_dir = tmp_path / "train"
    assert run(
        "train", "--counts", sim_dir / "counts.tsv", "--labels", sim_dir / "labels.tsv",
        "--out-dir", train_dir,
    ) == 0
    bad = tmp_path / "bad.tsv"
    lines = (sim_dir / "labels.tsv").read_text().replace("c2", "mystery")
    bad.write_text(lines, encoding="utf-8")
    assert run(
        "predict", "--counts", sim_dir / "counts.tsv", "--model", train_dir / "model.json",
        "--labels", bad, "--out-dir", tmp_path / "px",
    ) == 2
    assert not (tmp_path / "px" / "predictions.tsv").exists()


def test_duplicate_label_exits_2_in_every_command(sim_dir, tmp_path, capsys):
    labels = (sim_dir / "labels.tsv").read_text()
    twice = tmp_path / "twice.tsv"
    twice.write_text(labels + labels.splitlines()[0] + "\n", encoding="utf-8")
    counts = sim_dir / "counts.tsv"
    assert run("train", "--counts", counts, "--labels", sim_dir / "labels.tsv",
               "--out-dir", tmp_path / "t") == 0
    assert run("dissim", "--counts", counts, "--out-dir", tmp_path / "d") == 0
    commands = [
        ("train", "--counts", counts, "--labels", twice),
        ("predict", "--counts", counts, "--model", tmp_path / "t" / "model.json",
         "--labels", twice),
        ("cluster", "--dissim", tmp_path / "d" / "dissim.tsv", "--cut-k", 3, "--sweep",
         "--labels", twice),
        ("cer", "--partition-a", sim_dir / "labels.tsv", "--partition-b", twice),
    ]
    for command in commands:
        assert run(*command, "--out-dir", tmp_path / "x") == 2
        assert "sample 's1' labeled more than once" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "cv", "predict", "cluster"])
def test_sample_missing_from_labels_names_both_files(trained, tmp_path, capsys, command):
    root, _ = trained
    counts, labels = root / "counts.tsv", root / "labels.tsv"
    lines = labels.read_text().splitlines()
    short = tmp_path / "short.tsv"
    short.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    missing = lines[-1].split("\t")[0]
    dissim = tmp_path / "d" / "dissim.tsv"
    if command == "cluster":
        assert run("dissim", "--counts", counts, "--out-dir", dissim.parent) == 0
    argv = {
        "train": ["train", "--counts", counts, "--labels", short],
        "cv": ["cv", "--counts", counts, "--labels", short],
        "predict": ["predict", "--counts", counts,
                    "--model", root / "total-count" / "model.json", "--labels", short],
        "cluster": ["cluster", "--dissim", dissim, "--cut-k", 3, "--sweep", "--labels", short],
    }[command]
    capsys.readouterr()
    assert run(*argv, "--out-dir", tmp_path / "out") == 2
    source = dissim if command == "cluster" else counts
    expected = f"error: {source} and {short}: no label for sample '{missing}'\n"
    assert capsys.readouterr().err == expected
    # inputs are checked before any output is opened
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_predict_wrong_feature_count(sim_dir, tmp_path):
    train_dir = tmp_path / "train"
    assert run(
        "train", "--counts", sim_dir / "counts.tsv", "--labels", sim_dir / "labels.tsv",
        "--out-dir", train_dir,
    ) == 0
    small = tmp_path / "small.tsv"
    small.write_text("id\tf1\tf2\ns1\t1\t2\n", encoding="utf-8")
    assert run(
        "predict", "--counts", small, "--model", train_dir / "model.json",
        "--out-dir", tmp_path / "p2",
    ) == 2


def test_predict_all_zero_row_names_sample(sim_dir, tmp_path, capsys):
    train_dir = tmp_path / "train"
    assert run(
        "train", "--counts", sim_dir / "counts.tsv", "--labels", sim_dir / "labels.tsv",
        "--out-dir", train_dir,
    ) == 0
    counts = read_count_matrix(sim_dir / "counts.tsv")
    values = counts.values.copy()
    values[4] = 0.0
    zeroed = tmp_path / "zeroed.tsv"
    write_count_matrix(CountMatrix(values, counts.sample_ids, counts.feature_ids), zeroed)
    assert run(
        "predict", "--counts", zeroed, "--model", train_dir / "model.json",
        "--out-dir", tmp_path / "p",
    ) == 2
    assert "zero total count in 1 of 12 observations: 's5'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "rows, commands, message",
    [
        # s1's total count overflows to inf
        ("s1\t1e308\t1e308\t1\n", ("train", "cv", "dissim"),
         "non-finite total count in 1 of 4 observations: 's1'"),
        # both totals are finite, but the pair's sums overflow
        ("s1\t1e308\t1\t2\ns2\t1e308\t2\t1\n", ("dissim",),
         "dissimilarities must be finite and nonnegative: ('s1', 's2') is nan"),
    ],
)
def test_counts_past_the_largest_float_exit_2_naming_the_sample(
    tmp_path, capsys, rows, commands, message
):
    counts = tmp_path / "counts.tsv"
    small = ["s2\t3\t4\t5\n", "s3\t2\t6\t1\n", "s4\t5\t2\t3\n"]
    counts.write_text("id\tf1\tf2\tf3\n" + rows + "".join(small[rows.count("\n") - 1 :]))
    labels = tmp_path / "labels.tsv"
    labels.write_text("s1\tA\ns2\tA\ns3\tB\ns4\tB\n")
    inputs = {
        "train": ["--labels", labels],
        "cv": ["--labels", labels, "--folds", 2],
        "dissim": [],
    }
    capsys.readouterr()
    for command in commands:
        out = tmp_path / command
        assert run(
            command, "--counts", counts, *inputs[command], "--transform", "off", "--out-dir", out
        ) == 2
        named = f"{counts} and {labels}" if inputs[command] else f"{counts}"
        assert capsys.readouterr().err == f"error: {named}: {message}\n"
        assert list(out.iterdir()) == []


@pytest.mark.parametrize("method", ["quantile", "median-ratio"])
def test_a_column_total_past_the_largest_float_exits_2_naming_the_feature(
    tmp_path, capsys, method
):
    # every row total is finite, but f1's column total overflows; total-count
    # factors stop earlier, at the grand total
    counts = tmp_path / "counts.tsv"
    counts.write_text(
        "id\tf1\tf2\tf3\tf4\ns1\t1e308\t1\t2\t3\ns2\t1e308\t2\t1\t3\n"
        "s3\t2\t6\t1\t4\ns4\t5\t2\t3\t1\n"
    )
    labels = tmp_path / "labels.tsv"
    labels.write_text("s1\tA\ns2\tA\ns3\tB\ns4\tB\n")
    capsys.readouterr()
    for command, options in (("train", []), ("cv", ["--folds", 2])):
        out = tmp_path / command
        assert run(
            command, "--counts", counts, "--labels", labels, *options, "--size-factors", method,
            "--transform", "off", "--out-dir", out,
        ) == 2
        assert capsys.readouterr().err == (
            f"error: {counts} and {labels}: non-finite column total in 1 of 4 features: 'f1'\n"
        )
        assert list(out.iterdir()) == []


def test_test_size_factor_past_the_largest_float_exits_2_naming_the_sample(tmp_path, capsys):
    # the training normalizer is tiny, so a finite test total over it overflows
    counts = tmp_path / "counts.tsv"
    counts.write_text(
        "id\tf1\tf2\tf3\ns1\t1e-300\t2e-300\t3e-300\ns2\t2e-300\t1e-300\t3e-300\n"
        "s3\t3e-300\t2e-300\t1e-300\ns4\t1e-300\t3e-300\t2e-300\n"
    )
    labels = tmp_path / "labels.tsv"
    labels.write_text("s1\tA\ns2\tA\ns3\tB\ns4\tB\n")
    model = tmp_path / "model"
    assert run(
        "train", "--counts", counts, "--labels", labels, "--transform", "off", "--out-dir", model
    ) == 0
    test = tmp_path / "test.tsv"
    test.write_text("id\tf1\tf2\tf3\ns1\t1e10\t1\t1\n")
    capsys.readouterr()
    out = tmp_path / "pred"
    assert run(
        "predict", "--counts", test, "--model", model / "model.json", "--out-dir", out
    ) == 2
    assert capsys.readouterr().err == (
        f"error: {test} and {model / 'model.json'}: "
        "non-finite size factor in 1 of 1 observations: 's1'\n"
    )
    assert list(out.iterdir()) == []


def test_non_finite_rho_exits_2(sim_dir, tmp_path):
    inputs = ["--counts", sim_dir / "counts.tsv", "--labels", sim_dir / "labels.tsv"]
    assert run("train", *inputs, "--rho", "nan", "--out-dir", tmp_path / "t") == 2
    for grid in ("0,nan", "inf"):
        assert run("cv", *inputs, "--rho-grid", grid, "--out-dir", tmp_path / "cv") == 2
    assert run("train", *inputs, "--out-dir", tmp_path / "ok") == 0
    model = json.loads((tmp_path / "ok" / "model.json").read_text())
    model["rho"] = float("nan")
    broken = tmp_path / "nan_rho.json"
    broken.write_text(json.dumps(model), encoding="utf-8")
    assert '"rho": NaN' in broken.read_text()
    assert run(
        "predict", "--counts", sim_dir / "counts.tsv", "--model", broken,
        "--out-dir", tmp_path / "p",
    ) == 2


def test_non_finite_beta_exits_2(sim_dir, tmp_path):
    inputs = ["--counts", sim_dir / "counts.tsv", "--labels", sim_dir / "labels.tsv"]
    for beta in ("nan", "inf"):
        assert run("train", *inputs, "--beta", beta, "--out-dir", tmp_path / "t") == 2
        assert run("cv", *inputs, "--beta", beta, "--out-dir", tmp_path / "cv") == 2
        assert run(
            "dissim", "--counts", sim_dir / "counts.tsv", "--beta", beta,
            "--out-dir", tmp_path / "d",
        ) == 2
    assert not (tmp_path / "t" / "model.json").exists()
    assert not (tmp_path / "d" / "dissim.tsv").exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """Simulated counts and one trained model.json per size-factor method."""
    root = tmp_path_factory.mktemp("trained")
    assert run(
        "simulate", "--n", 12, "--p", 150, "--k", 3, "--phi", 0.01,
        "--sigma", 0.4, "--seed", 5, "--out-dir", root,
    ) == 0
    models = {}
    for method in ("total-count", "quantile", "median-ratio"):
        assert run(
            "train", "--counts", root / "counts.tsv", "--labels", root / "labels.tsv",
            "--size-factors", method, "--out-dir", root / method,
        ) == 0
        models[method] = json.loads((root / method / "model.json").read_text())
    return root, models


def edited(model, path, value):
    """A deep copy of a parsed model file with the field at ``path`` set to ``value``."""
    model = json.loads(json.dumps(model))
    parent = model
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return model


def predict_with(root, model, name="edited.json"):
    path = root / name
    path.write_text(json.dumps(model), encoding="utf-8")
    counts = root / "counts.tsv"
    return run("predict", "--counts", counts, "--model", path, "--out-dir", root / "p")


@pytest.mark.parametrize(
    "path, value",
    [(("rho",), None), (("beta",), "1"), (("alpha",), None), (("priors",), "x"),
     (("size_factors", "aux"), None), (("class_names",), "abc"),
     (("priors",), ["0.5", "0.25", "0.25"]), (("priors",), [True, 0.5]),
     (("priors",), [True, 0, 0]), (("priors",), [0.5, {}, 0.5]),
     (("size_factors", "values"), ["0.5", "0.5"]), (("g_hat",), [1.0, "2"]),
     (("size_factors", "aux", "usable"), ["no", *[0] * 149]),
     (("size_factors", "aux", "p"), 5), (("feature_ids",), [f"f{j}" for j in range(1, 11)])],
)
def test_model_field_of_wrong_type_exits_2(trained, capsys, path, value):
    root, models = trained
    model = models["median-ratio" if path[-1] == "usable" else "total-count"]
    assert predict_with(root, edited(model, path, value)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {root / 'edited.json'}: ") and path[-1] in err


def _field_paths(obj, prefix=()):
    for key, value in obj.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


_ODD_VALUES = st.one_of(
    st.none(),
    st.text(max_size=5),
    st.lists(st.lists(st.one_of(st.integers(-3, 3), st.floats(-3, 3)), max_size=3), max_size=3),
)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_model_with_any_field_retyped_exits_0_or_2(trained, data):
    root, models = trained
    model = models[data.draw(st.sampled_from(sorted(models)))]
    path = data.draw(st.sampled_from(list(_field_paths(model))))
    assert predict_with(root, edited(model, path, data.draw(_ODD_VALUES))) in (0, 2)


_ENCODED = ("g_hat", "d_hat", "geometric_means")


def decoded(text):
    return np.frombuffer(base64.b64decode(text), "<f8").copy()


def encoded(values):
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode("ascii")


def older(model):
    """A parsed model file in the older form, with each base64 array as a JSON list."""
    model = json.loads(json.dumps(model))
    model["g_hat"] = decoded(model["g_hat"]).tolist()
    model["d_hat"] = decoded(model["d_hat"]).reshape(len(model["class_names"]), -1).tolist()
    aux = model["size_factors"]["aux"]
    if "geometric_means" in aux:
        aux["geometric_means"] = decoded(aux["geometric_means"]).tolist()
    return model


def _number_leaves(obj, prefix=()):
    """Paths to each number of a model file; an array is stood for by its first
    element, and a base64 array by its own path."""
    for key, value in obj.items():
        path = prefix + (key,)
        while isinstance(value, list) and value:
            value, path = value[0], path + (0,)
        if isinstance(value, dict):
            yield from _number_leaves(value, path)
        elif type(value) in (int, float) or key in _ENCODED:
            yield path


def with_number(model, path, value):
    """``edited``, where a base64 array at ``path`` gets ``value`` as its first number."""
    parent = model
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent[path[-1]], str):
        values = decoded(parent[path[-1]])
        values[0] = value
        value = encoded(values)
    return edited(model, path, value)


@pytest.mark.parametrize("method", ["total-count", "quantile", "median-ratio"])
def test_model_with_non_finite_number_exits_2(trained, capsys, method):
    root, models = trained
    for model, array in ((models[method], ("g_hat",)), (older(models[method]), ("g_hat", 0))):
        paths = list(_number_leaves(model))
        assert array in paths and ("size_factors", "aux", "p") in paths
        for path in paths:
            for value in (float("nan"), float("inf"), float("-inf")):
                assert predict_with(root, with_number(model, path, value)) == 2, (path, value)
                assert f"{root / 'edited.json'}: " in capsys.readouterr().err, (path, value)


@pytest.mark.parametrize("name", ["c\t2", "c\n2", "c\r2"])
def test_class_name_a_tsv_cannot_hold_exits_2_naming_it(trained, capsys, name):
    root, models = trained
    model = edited(models["total-count"], ("class_names",), ["c1", name, "c3"])
    assert predict_with(root, model) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: {root / 'edited.json'}: class name {name!r} holds a tab or line break, "
        "which a TSV cell cannot\n"
    )


def test_repeated_class_name_exits_2_naming_it(trained, capsys):
    """Labels cannot be mapped to a model's classes when a class name repeats."""
    root, models = trained
    model = edited(models["total-count"], ("class_names",), ["c1", "c1", "c3"])
    path = root / "edited.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    assert run(
        "predict", "--counts", root / "counts.tsv", "--model", path,
        "--labels", root / "labels.tsv", "--out-dir", root / "p",
    ) == 2
    assert capsys.readouterr().err == f"error: {path}: duplicate class id: 'c1'\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_prior_class_is_never_predicted(trained):
    """A zero prior's log is -inf: no warning, and its class gets posterior 0."""
    root, models = trained
    model = edited(models["total-count"], ("priors",), [1, 0, 0])
    assert predict_with(root, model) == 0
    rows = (root / "p" / "predictions.tsv").read_text().splitlines()[1:]
    assert len(rows) == 12
    for row in rows:
        assert row.split("\t")[1:] == ["c1", "1", "0", "0"]


def test_one_tiny_geometric_mean_overflows_its_ratio_without_a_warning(trained):
    """The ratio past the largest float is inf; the median of the ratios skips it."""
    root, models = trained
    model = older(models["median-ratio"])
    aux = model["size_factors"]["aux"]
    aux["geometric_means"][aux["usable"].index(True)] = 1e-310
    assert predict_with(root, model) == 0


def test_every_geometric_mean_tiny_gives_an_infinite_median_ratio_and_exits_2(trained, capsys):
    """Every ratio overflows, so each row's median ratio is inf and has no size factor."""
    root, models = trained
    model = older(models["median-ratio"])
    aux = model["size_factors"]["aux"]
    aux["geometric_means"] = [1e-310 if u else g
                              for u, g in zip(aux["usable"], aux["geometric_means"])]
    path = root / "tiny.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    out = root / "tiny"
    assert run("predict", "--counts", root / "counts.tsv", "--model", path, "--out-dir", out) == 2
    first_ten = ", ".join(f"'{s}'" for s in read_count_matrix(root / "counts.tsv").sample_ids[:10])
    assert capsys.readouterr().err == (
        f"error: {root / 'counts.tsv'} and {path}: "
        f"non-finite median ratio in 12 of 12 observations: {first_ten} and 2 more\n"
    )
    assert not (out / "predictions.tsv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edit", ["negated", "one zero"])
def test_model_with_a_non_positive_usable_geometric_mean_exits_2(trained, capsys, edit):
    """Such a mean once gave negative or infinite size factors, with exit 0."""
    root, models = trained
    model = older(models["median-ratio"])
    aux = model["size_factors"]["aux"]
    usable = [j for j, u in enumerate(aux["usable"]) if u]
    for j in usable if edit == "negated" else usable[:1]:
        aux["geometric_means"][j] = -aux["geometric_means"][j] if edit == "negated" else 0.0
    assert predict_with(root, model) == 2
    assert capsys.readouterr().err == (
        f"error: {root / 'edited.json'}: "
        "aux geometric_means must be positive on usable features\n"
    )


def test_model_json_holds_only_what_prediction_reads(trained):
    _, models = trained
    for model in models.values():
        assert list(model) == [
            "format", "size_factors", "alpha", "beta", "rho",
            "priors", "class_names", "feature_ids", "g_hat", "d_hat",
        ]


def test_model_with_older_class_sums_key_predicts_the_same(trained):
    root, models = trained
    for method, model in models.items():
        original = root / method / "model.json"
        assert run("predict", "--counts", root / "counts.tsv", "--model", original,
                   "--out-dir", root / "p") == 0
        expected = (root / "p" / "predictions.tsv").read_bytes()
        lists = older(model)
        class_sums = np.outer(np.arange(1.0, 4.0), lists["g_hat"]).tolist()
        dropped = {
            "n_hat_class_sums": class_sums, "size_factor_method": model["size_factors"]["method"]
        }
        for form in (lists, *({**lists, key: value} for key, value in dropped.items())):
            assert predict_with(root, form) == 0
            assert (root / "p" / "predictions.tsv").read_bytes() == expected


def test_model_with_older_per_sample_statistics_predicts_the_same(trained):
    """Older files also hold each training sample's statistic; it is ignored on load."""
    root, models = trained
    for method, key in (("quantile", "q"), ("median-ratio", "m")):
        original = root / method / "model.json"
        assert run("predict", "--counts", root / "counts.tsv", "--model", original,
                   "--out-dir", root / "p") == 0
        expected = (root / "p" / "predictions.tsv").read_bytes()
        factors = models[method]["size_factors"]
        aux = dict(factors["aux"])
        normalizer, p = aux.pop(f"{key}_sum"), aux.pop("p")
        stats = [v * normalizer for v in factors["values"]]
        # the order older files wrote: the arrays, the statistics, then the normalizer and p
        model = edited(models[method], ("size_factors", "aux"),
                       {**aux, key: stats, f"{key}_sum": normalizer, "p": p})
        assert predict_with(root, model) == 0
        assert (root / "p" / "predictions.tsv").read_bytes() == expected
        loaded = read_model(root / "edited.json").size_factors.to_json()
        assert loaded == read_model(original).size_factors.to_json()


@pytest.mark.parametrize("alias", ["mr", "tc", "q", "total"])
def test_model_with_an_alias_for_its_method_exits_2_naming_the_file(trained, capsys, alias):
    """Model files, like dissimilarity sidecars, take only the canonical method names."""
    root, models = trained
    model = edited(models["median-ratio"], ("size_factors", "method"), alias)
    assert predict_with(root, model) == 2
    assert capsys.readouterr().err == (
        f"error: {root / 'edited.json'}: unknown size-factor method {alias!r} "
        "(choose from ('total-count', 'quantile', 'median-ratio'))\n"
    )


@pytest.mark.parametrize("path", [("beta",), ("priors", 0), ("size_factors", "aux", "p")])
def test_model_with_an_integer_past_the_float_range_exits_2_naming_the_file(trained, capsys, path):
    root, models = trained
    assert predict_with(root, edited(models["total-count"], path, 10**400)) == 2
    assert capsys.readouterr().err.startswith(f"error: {root / 'edited.json'}: ")


@pytest.mark.parametrize(
    "path, text",
    [
        (("g_hat",), "not base64!"),
        (("g_hat",), "AAAA=AAA"),
        (("g_hat",), "é"),
        (("g_hat",), encoded([1.0, 2.0])[:-4]),
        (("d_hat",), base64.b64encode(b"\x00" * 12).decode()),
        (("d_hat",), encoded(np.ones(3 * 150 - 1))),
        (("d_hat",), encoded(np.ones((3, 151)))),
        (("size_factors", "aux", "geometric_means"), "*"),
        (("size_factors", "aux", "geometric_means"), encoded(np.ones(149))),
    ],
    ids=["alphabet", "padding", "non-ascii", "truncated", "12-bytes", "short", "long",
         "means-alphabet", "means-short"],
)
def test_model_with_malformed_base64_array_exits_2(trained, capsys, path, text):
    root, models = trained
    assert predict_with(root, edited(models["median-ratio"], path, text)) == 2
    err = capsys.readouterr().err
    assert f"error: {root / 'edited.json'}: " in err and path[-1] in err


@pytest.mark.parametrize("kind", ["counts", "labels", "model", "dissim", "sidecar"])
def test_non_utf8_input_exits_2_naming_file_and_line(trained, tmp_path, capsys, kind):
    root, _ = trained
    dissim = tmp_path / "d.tsv"
    dissim.write_text("id\ta\tb\na\t0\t1\nb\t1\t0\n", encoding="utf-8")
    sidecar = tmp_path / "d.tsv.json"
    sidecar.write_text('{"measure": "poisson", "method": "total-count", "n": 2}\n')
    good = {
        "counts": root / "counts.tsv", "labels": root / "labels.tsv",
        "model": root / "total-count" / "model.json", "dissim": dissim, "sidecar": sidecar,
    }
    bad = good[kind] if kind == "sidecar" else tmp_path / ("bad-" + good[kind].name)
    lines = good[kind].read_bytes().split(b"\n")
    lineno = 2 if len(lines) > 2 else 1
    lines[lineno - 1] += b"\xff"
    bad.write_bytes(b"\n".join(lines))
    use = {**good, kind: bad}
    argv = {
        "counts": ["transform", "--counts", use["counts"]],
        "labels": ["train", "--counts", use["counts"], "--labels", use["labels"]],
        "model": ["predict", "--counts", use["counts"], "--model", use["model"]],
        "dissim": ["cluster", "--dissim", use["dissim"], "--cut-k", 1],
        "sidecar": ["cluster", "--dissim", use["dissim"], "--cut-k", 1],
    }[kind]
    assert run(*argv, "--out-dir", tmp_path / "out") == 2
    assert f"line {lineno}: invalid UTF-8 in {bad}" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["counts", "labels"])
def test_train_parse_error_names_the_file(sim_dir, tmp_path, capsys, kind):
    files = {"counts": sim_dir / "counts.tsv", "labels": sim_dir / "labels.tsv"}
    lines = files[kind].read_text().splitlines()
    lines[1] = lines[1].rsplit("\t", 1)[0]  # one cell short
    bad = files[kind] = tmp_path / "bad.tsv"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run("train", "--counts", files["counts"], "--labels", files["labels"],
               "--out-dir", tmp_path / "t") == 2
    columns = {"counts": "expected 151 columns, got 150", "labels": "expected 2 columns, got 1"}
    assert f"error: {bad}: line 2: {columns[kind]}\n" == capsys.readouterr().err


@pytest.fixture(scope="module")
def valid_inputs(trained):
    """One valid file of each kind poiskit reads, and a command that reads it."""
    root, _ = trained
    assert run("dissim", "--counts", root / "counts.tsv", "--out-dir", root / "d") == 0
    assert run("cluster", "--dissim", root / "d" / "dissim.tsv", "--cut-k", 3,
               "--out-dir", root / "c") == 0
    return root, {
        "counts": lambda f: ["transform", "--counts", f],
        "labels": lambda f: ["train", "--counts", root / "counts.tsv", "--labels", f],
        "partition": lambda f: ["cer", "--partition-a", f,
                                "--partition-b", root / "c" / "partition.tsv"],
        "dissim": lambda f: ["cluster", "--dissim", f, "--cut-k", 3],
        "sidecar": lambda f: ["cluster", "--dissim", str(f)[: -len(".json")], "--cut-k", 3],
        "model": lambda f: ["predict", "--counts", root / "counts.tsv", "--model", f],
    }, {
        "counts": root / "counts.tsv", "labels": root / "labels.tsv",
        "partition": root / "c" / "partition.tsv", "dissim": root / "d" / "dissim.tsv",
        "sidecar": root / "d" / "dissim.tsv.json", "model": root / "median-ratio" / "model.json",
    }


_BYTES = st.one_of(st.sampled_from(b'\t\n\r -+.0159eEaNn"=/,[]{}:\xff'), st.integers(0, 255))
# sidecar fields that parse as JSON but do not describe the table
_BAD_SIDECAR_FIELDS = [
    ("measure", 5), ("measure", "euclidean"), ("measure", None), ("method", ["x"]),
    ("method", "tc"), ("method", "unknown"), ("n", 0), ("n", -1), ("n", "12"), ("n", None),
    ("n", True),
]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_damaged_input_file_exits_0_or_2_naming_it(valid_inputs, data):
    root, commands, files = valid_inputs
    kind = data.draw(st.sampled_from(sorted(files)))
    text = files[kind].read_bytes()
    at = data.draw(st.integers(0, len(text)))
    edits = ["truncate", "replace", "insert", "delete"] + (["field"] if kind == "sidecar" else [])
    edit = data.draw(st.sampled_from(edits))
    if edit == "field":  # valid JSON whose measure, method or n is wrong
        key, value = data.draw(st.sampled_from(_BAD_SIDECAR_FIELDS))
        text = json.dumps({**json.loads(text), key: value}).encode()
    else:
        byte = bytes([data.draw(_BYTES)])
        text = {
            "truncate": text[:at],
            "replace": text[:at] + byte + text[at + 1:],
            "insert": text[:at] + byte + text[at:],
            "delete": text[:at] + text[at + 1:],
        }[edit]
    folder = root / "damaged"
    folder.mkdir(exist_ok=True)
    damaged = folder / files[kind].name
    damaged.write_bytes(text)
    if kind == "sidecar":
        (folder / "dissim.tsv").write_bytes(files["dissim"].read_bytes())
    else:
        (folder / "dissim.tsv.json").unlink(missing_ok=True)
    with contextlib.redirect_stderr(io.StringIO()) as stderr:
        code = run(*commands[kind](damaged), "--out-dir", root / "out")
    err = stderr.getvalue()
    assert code in (0, 2), err
    assert code == 0 or str(damaged) in err, err
    assert code == 2 or edit != "field", err


@pytest.mark.parametrize("kind", ["counts", "labels", "partition", "dissim", "sidecar", "model"])
def test_input_file_with_a_byte_order_mark_reads_like_its_twin(valid_inputs, kind):
    root, commands, files = valid_inputs
    folder = root / "bom"
    folder.mkdir(exist_ok=True)
    marked = folder / files[kind].name
    marked.write_bytes(codecs.BOM_UTF8 + files[kind].read_bytes())
    if kind in ("dissim", "sidecar"):
        sibling = files["sidecar" if kind == "dissim" else "dissim"]
        (folder / sibling.name).write_bytes(sibling.read_bytes())
    outputs = []
    for i, path in enumerate((files[kind], marked)):
        out = folder / f"out-{kind}-{i}"
        assert run(*commands[kind](path), "--out-dir", out) == 0
        outputs.append({f.name: f.read_bytes() for f in out.iterdir() if f.name != "manifest.json"})
    assert outputs[0] and outputs[1] == outputs[0]


def test_predict_model_not_json_exits_2(sim_dir, tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text("{bad", encoding="utf-8")
    assert run(
        "predict", "--counts", sim_dir / "counts.tsv", "--model", model,
        "--out-dir", tmp_path / "p",
    ) == 2
    assert f"invalid JSON in {model}" in capsys.readouterr().err


def test_predict_model_missing_field_exits_2(sim_dir, tmp_path, capsys):
    train_dir = tmp_path / "train"
    assert run(
        "train", "--counts", sim_dir / "counts.tsv", "--labels", sim_dir / "labels.tsv",
        "--out-dir", train_dir,
    ) == 0
    model = json.loads((train_dir / "model.json").read_text())
    del model["g_hat"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(model), encoding="utf-8")
    assert run(
        "predict", "--counts", sim_dir / "counts.tsv", "--model", broken,
        "--out-dir", tmp_path / "p",
    ) == 2
    assert f"{broken}: model has no 'g_hat' field" in capsys.readouterr().err


def test_cv_writes_selection(sim_dir, tmp_path):
    cv_dir = tmp_path / "cv"
    assert run(
        "cv", "--counts", sim_dir / "counts.tsv", "--labels", sim_dir / "labels.tsv",
        "--rho-grid", "0,1000000", "--folds", 4, "--seed", 2, "--out-dir", cv_dir,
    ) == 0
    cv = json.loads((cv_dir / "cv.json").read_text())
    assert cv["rho_grid"] == [0.0, 1000000.0]
    assert len(cv["errors"]) == 2
    assert cv["selected_rho"] in cv["rho_grid"]
    assert len(cv["fold_alphas"]) == cv["folds"] == 4
    assert all(0.0 < alpha <= 1.0 for alpha in cv["fold_alphas"])
    assert np.array(cv["fold_errors"]).shape == (4, 2)
    assert np.array(cv["fold_errors"]).sum(axis=0).tolist() == cv["errors"]
    assert (cv_dir / "model.json").exists()
    manifest = json.loads((cv_dir / "manifest.json").read_text())
    model = json.loads((cv_dir / "model.json").read_text())
    assert manifest["alpha"] == model["alpha"]


@pytest.mark.parametrize("options", [[], ["--size-factors", "quantile", "--priors", "empirical"]])
def test_cv_model_equals_train_at_selected_rho(sim_dir, tmp_path, options):
    inputs = ["--counts", sim_dir / "counts.tsv", "--labels", sim_dir / "labels.tsv"]
    cv_dir, train_dir = tmp_path / "cv", tmp_path / "train"
    assert run("cv", *inputs, *options, "--folds", 4, "--seed", 3, "--out-dir", cv_dir) == 0
    selected = json.loads((cv_dir / "cv.json").read_text())["selected_rho"]
    assert run("train", *inputs, *options, "--rho", repr(selected), "--out-dir", train_dir) == 0
    assert (cv_dir / "model.json").read_bytes() == (train_dir / "model.json").read_bytes()


def test_transform_reports_json(sim_dir, tmp_path, capsys):
    out = tmp_path / "t"
    assert run("transform", "--counts", sim_dir / "counts.tsv", "--out-dir", out) == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    keys = ["alpha", "statistic", "target", "converged", "monotone", "evaluations"]
    assert list(printed) == keys
    assert printed == find_alpha(read_count_matrix(sim_dir / "counts.tsv")).to_json()
    assert printed["monotone"] is True and 1 <= printed["evaluations"] <= 8
    saved = json.loads((out / "transform.json").read_text())
    assert saved == printed
    assert (out / "transformed.tsv").exists()


def test_dissim_cluster_cer_pipeline(sim_dir, tmp_path):
    dis_dir = tmp_path / "dis"
    assert run(
        "dissim", "--counts", sim_dir / "counts.tsv", "--size-factors", "total",
        "--measure", "poisson", "--out-dir", dis_dir, "--threads", 2,
    ) == 0
    sidecar = json.loads((dis_dir / "dissim.tsv.json").read_text())
    assert sidecar == {"measure": "poisson", "method": "total-count", "n": 12}

    clus_dir = tmp_path / "clus"
    assert run(
        "cluster", "--dissim", dis_dir / "dissim.tsv", "--cut-k", 3,
        "--sweep", "--labels", sim_dir / "labels.tsv", "--out-dir", clus_dir,
    ) == 0
    assert (clus_dir / "tree.newick").read_text().endswith(";\n")
    sweep = json.loads((clus_dir / "sweep.json").read_text())
    assert [entry["k"] for entry in sweep] == list(range(2, 13))

    # CER of the cut partition against itself is zero
    cer_dir = tmp_path / "cer"
    assert run(
        "cer", "--partition-a", clus_dir / "partition.tsv",
        "--partition-b", clus_dir / "partition.tsv", "--out-dir", cer_dir,
    ) == 0
    assert json.loads((cer_dir / "cer.json").read_text())["cer"] == 0.0


def test_dissim_feature_axis_shape(tmp_path):
    counts = tmp_path / "counts.tsv"
    rng = np.random.default_rng(0)
    rows = ["id\t" + "\t".join(f"f{j}" for j in range(7))]
    for i in range(5):
        rows.append(f"s{i}\t" + "\t".join(str(v) for v in rng.integers(1, 30, 7)))
    counts.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "df"
    assert run(
        "dissim", "--counts", counts, "--axis", "features", "--transform", "off",
        "--out-dir", out,
    ) == 0
    lines = (out / "dissim.tsv").read_text().splitlines()
    assert len(lines) == 8  # header + 7 feature rows
    assert len(lines[0].split("\t")) == 8


def test_cluster_rejects_asymmetric_matrix(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("id\ta\tb\na\t0\t1\nb\t2\t0\n", encoding="utf-8")
    assert run("cluster", "--dissim", bad, "--cut-k", 1, "--out-dir", tmp_path / "c") == 2


@pytest.mark.parametrize("rows, message", [
    (["0\t1\t2", "1\t0\tnan", "2\tnan\t0"],
     "dissimilarities must be finite and nonnegative: ('b', 'c') is nan"),
    (["0\t1\t2", "1\t0\t-3", "2\t-3\t0"],
     "dissimilarities must be finite and nonnegative: ('b', 'c') is -3.0"),
    (["0\t1\t2", "1\t0\t3", "2.5\t4\t0"],
     "dissimilarity matrix is not symmetric: ('a', 'c') is 2.0 but ('c', 'a') is 2.5"),
    (["0\t1\t2", "1\t0.5\t3", "2\t3\t1e-300"],
     "dissimilarity matrix diagonal must be zero: ('b', 'b') is 0.5"),
])
def test_cluster_error_names_the_offending_cell(tmp_path, capsys, rows, message):
    bad = tmp_path / "bad.tsv"
    lines = ["id\ta\tb\tc"] + [f"{i}\t{row}" for i, row in zip("abc", rows)]
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run("cluster", "--dissim", bad, "--cut-k", 1, "--out-dir", tmp_path / "c") == 2
    assert capsys.readouterr().err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("flags, message", [
    (["--sweep"], "--sweep needs a --labels reference file"),
    (["--labels", "labels.tsv"], "--labels needs --sweep, which reads it"),
], ids=["sweep", "labels"])
def test_cluster_sweep_and_labels_need_each_other(tmp_path, capsys, flags, message):
    dissim = tmp_path / "d.tsv"
    dissim.write_text("id\ta\tb\na\t0\t1\nb\t1\t0\n", encoding="utf-8")
    out = tmp_path / "c"
    assert run("cluster", "--dissim", dissim, "--cut-k", 1, *flags, "--out-dir", out) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("key, value", _BAD_SIDECAR_FIELDS)
def test_cluster_sidecar_field_that_does_not_fit_exits_2(tmp_path, capsys, key, value):
    dissim = tmp_path / "d.tsv"
    dissim.write_text("id\ta\tb\na\t0\t1\nb\t1\t0\n", encoding="utf-8")
    sidecar = tmp_path / "d.tsv.json"
    fields = {"measure": "poisson", "method": "total-count", "n": 2, key: value}
    sidecar.write_text(json.dumps(fields), encoding="utf-8")
    assert run("cluster", "--dissim", dissim, "--cut-k", 1, "--out-dir", tmp_path / "c") == 2
    assert f"error: {sidecar}: " in capsys.readouterr().err


def test_cluster_sidecar_not_json_exits_2(tmp_path, capsys):
    dissim = tmp_path / "d.tsv"
    dissim.write_text("id\ta\tb\na\t0\t1\nb\t1\t0\n", encoding="utf-8")
    sidecar = tmp_path / "d.tsv.json"
    sidecar.write_text("{", encoding="utf-8")
    assert run("cluster", "--dissim", dissim, "--cut-k", 1, "--out-dir", tmp_path / "c") == 2
    assert f"invalid JSON in {sidecar}" in capsys.readouterr().err


def test_dissim_feature_axis_all_zero_feature_exits_2(tmp_path, capsys):
    counts = tmp_path / "counts.tsv"
    counts.write_text("id\tf0\tf1\tf2\ns0\t3\t0\t5\ns1\t4\t0\t2\ns2\t1\t0\t6\n", encoding="utf-8")
    assert run("dissim", "--counts", counts, "--axis", "features", "--out-dir", tmp_path / "d") == 2
    assert "zero total count in 1 of 3 observations: 'f1'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ("dissim", "replicate", "cv", "replicate-classification"))
def test_negative_threads_exit_2(tmp_path, capsys, command):
    args = {
        "dissim": ["dissim", "--counts", tmp_path / "counts.tsv"],
        "replicate": ["replicate", "clustering", "--n", 9, "--p", 120, "--phi", 0.01,
                      "--sigma", 0.5, "--reps", 2, "--seed", 3],
        "cv": ["cv", "--counts", tmp_path / "counts.tsv", "--labels", tmp_path / "labels.tsv"],
        "replicate-classification": ["replicate", "classification", "--n", 9, "--p", 120,
                                     "--phi", 0.01, "--sigma", 0.5, "--reps", 2, "--seed", 3],
    }[command]
    with pytest.raises(SystemExit) as excinfo:
        run(*args, "--threads", -3, "--out-dir", tmp_path / "out")
    assert excinfo.value.code == 2
    assert "--threads: must be a nonnegative integer, got '-3'" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-3", "0", "00", "+2", "1.5", " 2", "two"])
@pytest.mark.parametrize("command", ("dissim", "cv", "replicate"))
def test_threads_variable_other_than_a_positive_integer_exits_2(
    trained, tmp_path, capsys, monkeypatch, command, value
):
    root, _ = trained
    inputs = ["--counts", root / "counts.tsv", "--labels", root / "labels.tsv"]
    args = {
        "dissim": ["dissim", "--counts", root / "counts.tsv"],
        "cv": ["cv", *inputs, "--folds", 4],
        "replicate": ["replicate", "clustering", "--n", 9, "--p", 120, "--phi", 0.01,
                      "--sigma", 0.5, "--reps", 2, "--seed", 3],
    }[command]
    monkeypatch.setenv("POISKIT_THREADS", value)
    out = tmp_path / "out"
    assert run(*args, "--out-dir", out) == 2
    err = capsys.readouterr().err
    assert err == f"error: POISKIT_THREADS must be a positive integer, got '{value}'\n"
    assert not (out / "manifest.json").exists()
    assert run(*args, "--threads", 1, "--out-dir", out) == 0  # an explicit count wins


def test_empty_threads_variable_means_all_cores(sim_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("POISKIT_THREADS", "")
    out = tmp_path / "d"
    assert run("dissim", "--counts", sim_dir / "counts.tsv", "--out-dir", out) == 0
    threads = json.loads((out / "manifest.json").read_text())["options"]["threads"]
    assert threads == (os.cpu_count() or 1)


def test_manifest_records_resolved_threads(sim_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("POISKIT_THREADS", "3")
    out = tmp_path / "d"
    assert run("dissim", "--counts", sim_dir / "counts.tsv", "--out-dir", out) == 0
    assert json.loads((out / "manifest.json").read_text())["options"]["threads"] == 3
    assert run("dissim", "--counts", sim_dir / "counts.tsv", "--threads", 2, "--out-dir", out) == 0
    assert json.loads((out / "manifest.json").read_text())["options"]["threads"] == 2
    inputs = ["--counts", sim_dir / "counts.tsv", "--labels", sim_dir / "labels.tsv"]
    replicate = ["replicate", "classification", "--n", 6, "--p", 50, "--k", 2, "--phi", 0.01,
                 "--sigma", 0.3, "--reps", 2, "--seed", 4, "--folds", 2]
    for command in (["cv", *inputs, "--folds", 4], replicate):
        assert run(*command, "--out-dir", out) == 0
        assert json.loads((out / "manifest.json").read_text())["options"]["threads"] == 3
        assert run(*command, "--threads", 1, "--out-dir", out) == 0
        assert json.loads((out / "manifest.json").read_text())["options"]["threads"] == 1


def test_data_errors_name_their_inputs_and_argument_errors_do_not(sim_dir, tmp_path, capsys):
    counts, labels = sim_dir / "counts.tsv", sim_dir / "labels.tsv"
    lines = labels.read_text().splitlines()
    # sample s1 alone in a class of its own
    lonely = tmp_path / "lonely.tsv"
    lonely.write_text("\n".join([lines[0] + "x", *lines[1:]]) + "\n", encoding="utf-8")
    one_class = tmp_path / "one_class.tsv"
    one_class.write_text("".join(f"s{i}\tA\n" for i in range(1, 13)), encoding="utf-8")
    matrix = read_count_matrix(counts)
    values = matrix.values.copy()
    values[4] = 0.0
    zeroed = tmp_path / "zeroed.tsv"
    write_count_matrix(CountMatrix(values, matrix.sample_ids, matrix.feature_ids), zeroed)
    cases = [
        (["cv", "--counts", counts, "--labels", lonely],
         f"{counts} and {lonely}: stratified folds are degenerate: "
         "a class has fewer than 2 members"),
        (["train", "--counts", counts, "--labels", one_class],
         f"{counts} and {one_class}: classification needs at least 2 classes"),
        (["cv", "--counts", zeroed, "--labels", labels],
         f"{zeroed} and {labels}: zero total count in 1 of 12 observations: 's5'"),
        (["dissim", "--counts", zeroed],
         f"{zeroed}: zero total count in 1 of 12 observations: 's5'"),
        (["cv", "--counts", counts, "--labels", labels, "--beta", -1],
         "beta must be finite and positive"),
        (["train", "--counts", counts, "--labels", labels, "--rho", -1],
         "rho must be finite and nonnegative"),
        (["cv", "--counts", counts, "--labels", labels, "--rho-grid", ","],
         "rho grid must be nonempty"),
        (["cv", "--counts", counts, "--labels", labels, "--folds", 1],
         "folds must be at least 2"),
        (["dissim", "--counts", counts, "--beta", -1], "beta must be finite and nonnegative"),
    ]
    capsys.readouterr()
    for argv, message in cases:
        assert run(*argv, "--out-dir", tmp_path / "out") == 2, argv
        assert capsys.readouterr().err == f"error: {message}\n", argv


def test_a_failing_fold_reports_the_same_error_at_any_thread_count(tmp_path, capsys):
    """Sample a is zero on features 1-6, and sample b on features 7-12.

    Under median-ratio factors a fold's usable features are those positive
    in all of its training samples. The fold that holds out a, with b
    training, keeps features 0-6, on 6 of which a is zero: its median ratio
    is zero. So it is for b. Both folds fail; the lower one's sample is named.
    """
    n, p = 8, 13
    values = np.full((n, p), 5.0)
    values[0, 1:7] = 0.0  # sample a
    values[1, 7:13] = 0.0  # sample b
    ids = ("a", "b", *(f"s{i}" for i in range(2, n)))
    counts = tmp_path / "counts.tsv"
    write_count_matrix(CountMatrix(values, ids, tuple(f"f{j}" for j in range(p))), counts)
    labels = tmp_path / "labels.tsv"
    labels.write_text("".join(f"{s}\t{'AB'[i % 2]}\n" for i, s in enumerate(ids)))
    for seed in range(20):
        fold_of, _ = stratified_folds(np.arange(n) % 2 + 1, 4, seed)
        if fold_of[0] != fold_of[1]:
            break
    assert fold_of[0] != fold_of[1]
    first = "a" if fold_of[0] < fold_of[1] else "b"
    errors = set()
    for threads in (1, 2, 4):
        assert run(
            "cv", "--counts", counts, "--labels", labels, "--size-factors", "median-ratio",
            "--transform", "off", "--folds", 4, "--seed", seed, "--threads", threads,
            "--out-dir", tmp_path / "cv",
        ) == 2
        errors.add(capsys.readouterr().err)
    assert errors == {
        f"error: {counts} and {labels}: zero median ratio in 1 of 2 observations: '{first}'\n"
    }


def test_replicate_smoke(tmp_path):
    out = tmp_path / "rep"
    assert run(
        "replicate", "clustering", "--n", 9, "--p", 120, "--k", 3, "--phi", 0.01,
        "--sigma", 0.5, "--reps", 2, "--seed", 3, "--cut-k", 3, "--out-dir", out,
    ) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["task"] == "clustering"
    assert len(summary["cers"]) == 2
    assert (out / "summary.tsv").exists()


def test_replicate_classification_smoke(tmp_path):
    out = tmp_path / "repc"
    assert run(
        "replicate", "classification", "--n", 6, "--p", 100, "--k", 2, "--phi", 0.01,
        "--sigma", 0.3, "--reps", 2, "--seed", 4, "--folds", 2, "--out-dir", out,
    ) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["task"] == "classification"
    assert len(summary["test_errors"]) == 2
    assert "selected_rho" in summary


def test_manifest_records_input_digests(sim_dir, tmp_path):
    out = tmp_path / "t2"
    assert run("transform", "--counts", sim_dir / "counts.tsv", "--out-dir", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    digest = list(manifest["inputs"].values())[0]
    assert digest.startswith("sha256:")
    assert manifest["version"]


@given(
    seed=st.integers(0, 2**16),
    n=st.integers(6, 12),
    k=st.integers(2, 3),
    phi=st.sampled_from([0.0, 0.01, 1.0]),
    method=st.sampled_from(["total", "quantile", "median-ratio"]),
)
@settings(max_examples=10, deadline=None)
def test_outputs_are_byte_identical_at_any_thread_count(tmp_path_factory, seed, n, k, phi, method):
    """cv, replicate classification and replicate clustering, at --threads 1, 2 and 5."""
    root = tmp_path_factory.mktemp("threads")
    sim = root / "sim"
    common = ["--k", k, "--phi", phi, "--sigma", 0.4, "--seed", seed]
    assert run("simulate", "--n", n, "--p", 60, *common, "--out-dir", sim) == 0
    commands = {
        "cv": ["cv", "--counts", sim / "counts.tsv", "--labels", sim / "labels.tsv",
               "--size-factors", method, "--folds", 3, "--seed", seed],
        "classification": ["replicate", "classification", "--n", n, "--p", 40, *common,
                           "--reps", 3, "--folds", 2],
        "clustering": ["replicate", "clustering", "--n", n, "--p", 40, *common, "--reps", 3],
    }
    outputs = {
        "cv": ["cv.json", "model.json"],
        "classification": ["summary.json", "summary.tsv"],
        "clustering": ["summary.json", "summary.tsv"],
    }
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # reduced folds, say
            for name, argv in commands.items():
                seen = set()
                for threads in (1, 2, 5):
                    out = root / f"{name}-{threads}"
                    code = run(*argv, "--threads", threads, "--out-dir", out)
                    files = tuple((out / f).read_bytes() for f in outputs[name]) if code == 0 else ()
                    seen.add((code, files))
                assert len(seen) == 1, name
    finally:
        sys.setswitchinterval(interval)
