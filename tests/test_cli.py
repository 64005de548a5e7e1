"""CLI subcommands, exit codes, manifests, and file contracts."""

import json

import numpy as np
import pytest

from poiskit.cli import main
from poiskit.count_matrix import read_count_matrix


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


def test_simulate_rejects_negative_phi(tmp_path):
    assert run(
        "simulate", "--n", 4, "--p", 10, "--k", 2, "--phi", -1,
        "--sigma", 0.1, "--seed", 1, "--out-dir", tmp_path / "x",
    ) == 2


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
    assert set(printed) >= {"alpha", "statistic", "target", "converged", "monotone", "evaluations"}
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


@pytest.mark.parametrize("command", ("dissim", "replicate"))
def test_negative_threads_exit_2(tmp_path, capsys, command):
    args = {
        "dissim": ["dissim", "--counts", tmp_path / "counts.tsv"],
        "replicate": ["replicate", "clustering", "--n", 9, "--p", 120, "--phi", 0.01,
                      "--sigma", 0.5, "--reps", 2, "--seed", 3],
    }[command]
    with pytest.raises(SystemExit) as excinfo:
        run(*args, "--threads", -3, "--out-dir", tmp_path / "out")
    assert excinfo.value.code == 2
    assert "--threads: must be a nonnegative integer, got '-3'" in capsys.readouterr().err


def test_manifest_records_resolved_threads(sim_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("POISKIT_THREADS", "3")
    out = tmp_path / "d"
    assert run("dissim", "--counts", sim_dir / "counts.tsv", "--out-dir", out) == 0
    assert json.loads((out / "manifest.json").read_text())["options"]["threads"] == 3
    assert run("dissim", "--counts", sim_dir / "counts.tsv", "--threads", 2, "--out-dir", out) == 0
    assert json.loads((out / "manifest.json").read_text())["options"]["threads"] == 2


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
