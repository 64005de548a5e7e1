"""Command-line pipeline: simulate, transform, train, predict, cv, dissim,
cluster, cer, and the replication harness.

Every subcommand writes its outputs plus a ``manifest.json`` into
``--out-dir``; the manifest records the resolved options, the seed, SHA-256
digests of the input files, the tool version, and wall time, so a run can
be reproduced from the manifest alone. Exit codes: 0 success, 2 for usage
or validation problems, 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .clustering import cer, cer_sweep, complete_linkage, cut_tree, write_newick
from .count_matrix import (
    check_cells,
    first_appearance_index,
    format_number,
    labeled_dataset,
    names_of,
    partition_of,
    read_count_matrix,
    read_label_map,
    write_count_matrix,
    write_labels,
    write_partition,
    write_two_column_tsv,
)
from .dissimilarity import MEASURES, dissimilarity_matrix, read_dissimilarity, write_dissimilarity
from .errors import PoiskitError, ValidationError, in_file
from .plda import PRIOR_MODES, cross_validate, fit, predict_matrix, read_model, write_model
from .replicate import replicate_classification, replicate_clustering
from .simulate import SimulationConfig, simulate, write_truth
from .size_factors import METHODS
from .transform import find_alpha


def _default_threads() -> int:
    env = os.environ.get("POISKIT_THREADS")
    if not env:
        return os.cpu_count() or 1
    if not env.isdecimal() or int(env) == 0:
        raise ValidationError(f"POISKIT_THREADS must be a positive integer, got '{env}'")
    return int(env)


def _nonnegative_int(text: str) -> int:
    """Parse ``--threads`` (where 0 asks for the default) and ``--seed``."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got '{text}'")
    return int(text)


def _resolve_threads(args) -> int:
    """The thread count to run with; stored back so the manifest records it, not 0."""
    if not args.threads:
        args.threads = _default_threads()
    return args.threads


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return "sha256:" + digest.hexdigest()


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


# The options that name input files, in the order a manifest lists their digests.
INPUT_OPTIONS = ("model", "counts", "dissim", "labels", "partition_a", "partition_b")


def _write_manifest(out_dir: Path, args, started: float, extra=None):
    """Write ``manifest.json``, digesting each input file an INPUT_OPTIONS option names."""
    paths = [Path(path) for path in (getattr(args, key, None) for key in INPUT_OPTIONS) if path]
    options = {
        key: (str(val) if isinstance(val, Path) else val)
        for key, val in vars(args).items()
        if key not in ("func",)
    }
    manifest = {
        "tool": "poiskit",
        "version": __version__,
        "subcommand": args.subcommand,
        "options": options,
        "seed": getattr(args, "seed", None),
        "inputs": {str(path): _sha256(path) for path in paths},
        "wall_time_seconds": time.perf_counter() - started,
    }
    if extra:
        manifest.update(extra)
    _write_json(out_dir / "manifest.json", manifest)


def _read_counts(args):
    return read_count_matrix(args.counts, orientation=args.orientation)


def _read_labeled(args):
    """The counts with their labels; a sample the labels lack names both files."""
    matrix = _read_counts(args)
    by_id = read_label_map(args.labels)
    with in_file(f"{args.counts} and {args.labels}"):
        return labeled_dataset(matrix, by_id)


def _model_options(args) -> dict:
    """The library keywords of the flags :func:`_add_model_options` adds."""
    return {"method": args.size_factors, "beta": args.beta, "transform": args.transform == "on"}


def _population(args) -> SimulationConfig:
    """The population the flags of :func:`_add_population_options` describe."""
    return SimulationConfig(
        n=args.n, p=args.p, K=args.k, phi=args.phi, sigma=args.sigma,
        de_prob=args.de_prob, seed=args.seed,
    )


def cmd_simulate(args, out_dir: Path):
    dataset = simulate(_population(args))
    write_count_matrix(dataset.data.matrix, out_dir / "counts.tsv")
    write_labels(out_dir / "labels.tsv", dataset.data)
    write_truth(out_dir / "truth.json", dataset)
    return {"outputs": ["counts.tsv", "labels.tsv", "truth.json"]}


def cmd_transform(args, out_dir: Path):
    matrix = _read_counts(args)
    with in_file(args.counts):
        result = find_alpha(matrix)
    write_count_matrix(result.matrix, out_dir / "transformed.tsv")
    report = result.to_json()
    _write_json(out_dir / "transform.json", report)
    print(json.dumps(report))
    return {"transform": report}


def cmd_train(args, out_dir: Path):
    data = _read_labeled(args)
    with in_file(f"{args.counts} and {args.labels}"):
        model = fit(data, rho=args.rho, prior_mode=args.priors, **_model_options(args))
    write_model(model, out_dir / "model.json")
    factors = map(format_number, model.size_factors.values)
    write_two_column_tsv(out_dir / "size_factors.tsv", zip(data.matrix.sample_ids, factors))
    return {
        "alpha": model.alpha,
        "nonzero_features": model.nonzero_features(),
        "outputs": ["model.json", "size_factors.tsv"],
    }


def cmd_predict(args, out_dir: Path):
    model = read_model(args.model)
    matrix = _read_counts(args)
    with in_file(f"{args.counts} and {args.model}"):
        predictions = predict_matrix(model, matrix)
    with in_file(args.model):
        # sample ids were read from a TSV; only the model's class names can break one
        check_cells(model.class_names, "class name")
    extra = {"outputs": ["predictions.tsv"]}
    if args.labels:
        by_id = read_label_map(args.labels)
        with in_file(f"{args.counts} and {args.labels}"):
            names = names_of(by_id, matrix.sample_ids)
        index_of = first_appearance_index(model.class_names)
        unknown = [name for name in names if name not in index_of]
        if unknown:
            raise ValidationError(
                f"{args.labels} and {args.model}: unknown class '{unknown[0]}' in labels"
            )
        truth = np.array([index_of[name] for name in names])
        extra["errors"] = int((predictions.class_index != truth).sum())
        extra["n"] = matrix.n
    with open(out_dir / "predictions.tsv", "w", encoding="utf-8") as handle:
        header = ["id", "class"] + [f"posterior_{c}" for c in model.class_names]
        handle.write("\t".join(header) + "\n")
        rows = zip(matrix.sample_ids, predictions.class_index, predictions.posterior)
        for sid, k, posterior in rows:
            cells = [sid, model.class_names[k - 1]] + [format_number(v) for v in posterior]
            handle.write("\t".join(cells) + "\n")
    return extra


def cmd_cv(args, out_dir: Path):
    data = _read_labeled(args)
    grid = None
    if args.rho_grid:
        try:
            grid = [float(tok) for tok in args.rho_grid.split(",") if tok != ""]
        except ValueError:
            raise ValidationError(f"bad --rho-grid '{args.rho_grid}'")
    threads = _resolve_threads(args)
    with in_file(f"{args.counts} and {args.labels}"):
        result = cross_validate(
            data, rho_grid=grid, folds=args.folds, seed=args.seed, prior_mode=args.priors,
            threads=threads, **_model_options(args),
        )
    _write_json(out_dir / "cv.json", result.to_json())
    write_model(result.model, out_dir / "model.json")
    return {
        "alpha": result.model.alpha,
        "selected_rho": result.selected_rho,
        "outputs": ["cv.json", "model.json"],
    }


def cmd_dissim(args, out_dir: Path):
    matrix = _read_counts(args)
    if args.axis == "features":
        matrix = matrix.transpose()
    threads = _resolve_threads(args)
    with in_file(args.counts):
        dm = dissimilarity_matrix(matrix, args.measure, threads=threads, **_model_options(args))
    write_dissimilarity(dm, out_dir / "dissim.tsv")
    return {
        "outputs": ["dissim.tsv", "dissim.tsv.json"],
        "n": dm.n,
    }


def cmd_cluster(args, out_dir: Path):
    if args.sweep and not args.labels:
        raise ValidationError("--sweep needs a --labels reference file")
    if args.labels and not args.sweep:
        raise ValidationError("--labels needs --sweep, which reads it")
    dm = read_dissimilarity(args.dissim)
    with in_file(args.dissim):
        dendrogram = complete_linkage(dm)
    partition = cut_tree(dendrogram, args.cut_k)
    extra = {"outputs": ["tree.newick", "partition.tsv"]}
    if args.sweep:
        by_id = read_label_map(args.labels)
        with in_file(f"{args.dissim} and {args.labels}"):
            reference = partition_of(names_of(by_id, dm.ids))
        sweep = [{"k": k, "cer": value} for k, value in cer_sweep(dendrogram, reference)]
        extra["outputs"].append("sweep.json")
    write_newick(dendrogram, out_dir / "tree.newick")
    write_partition(out_dir / "partition.tsv", dm.ids, partition)
    if args.sweep:
        _write_json(out_dir / "sweep.json", sweep)
    return extra


def cmd_cer(args, out_dir: Path):
    by_a = read_label_map(args.partition_a)
    by_b = read_label_map(args.partition_b)
    if by_a.keys() != by_b.keys():
        raise ValidationError(
            f"{args.partition_a} and {args.partition_b}: partitions cover different id sets"
        )
    part_a = partition_of(by_a.values())
    with in_file(f"{args.partition_a} and {args.partition_b}"):
        value = cer(part_a, partition_of(names_of(by_b, by_a)))
    report = {"cer": value, "n": part_a.n}
    _write_json(out_dir / "cer.json", report)
    print(json.dumps(report))
    return report


def cmd_replicate(args, out_dir: Path):
    options = {**_model_options(args), "threads": _resolve_threads(args)}
    population = _population(args)
    if args.task == "classification":
        summary = replicate_classification(population, args.reps, folds=args.folds, **options)
        headline = (
            f"mean test errors {summary['errors']['mean']:.3f} "
            f"(se {summary['errors']['se']:.3f}) over {args.reps} replicates"
        )
        stats = ("errors", "nonzero")
    else:
        summary = replicate_clustering(
            population, args.reps, measure=args.measure, cut_k=args.cut_k, **options
        )
        headline = (
            f"mean CER {summary['cer']['mean']:.4f} "
            f"(se {summary['cer']['se']:.4f}) over {args.reps} replicates"
        )
        stats = ("cer",)
    rows = [
        (f"{kind}_{stat}", format_number(summary[stat][kind]))
        for stat in stats
        for kind in ("mean", "se")
    ]
    _write_json(out_dir / "summary.json", summary)
    write_two_column_tsv(out_dir / "summary.tsv", rows)
    print(headline)
    return {"outputs": ["summary.json", "summary.tsv"], "headline": headline}


def _add_counts_options(parser):
    parser.add_argument("--counts", required=True, help="count matrix TSV")
    parser.add_argument(
        "--orientation", choices=("samples", "features"), default="samples",
        help="whether file rows are samples (default) or features",
    )


def _add_model_options(parser):
    parser.add_argument("--size-factors", default="total", choices=("total", *METHODS))
    parser.add_argument("--beta", type=float, default=1.0)
    parser.add_argument("--transform", choices=("on", "off"), default="on")


def _add_threads_option(parser):
    parser.add_argument(
        "--threads", type=_nonnegative_int, default=0, help="0 = POISKIT_THREADS or all cores"
    )


def _add_seed_option(parser, default: int | None = None):
    """``--seed``, required when it has no default."""
    parser.add_argument("--seed", type=_nonnegative_int, required=default is None, default=default)


def _add_population_options(parser, k_required: bool):
    """The flags of :func:`_population`; the defaults are ``SimulationConfig``'s."""
    default = {field.name: field.default for field in fields(SimulationConfig)}
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--p", type=int, required=True)
    k_default = None if k_required else default["K"]
    parser.add_argument("--k", type=int, required=k_required, default=k_default)
    parser.add_argument("--phi", type=float, required=True)
    parser.add_argument("--sigma", type=float, required=True)
    _add_seed_option(parser)
    parser.add_argument("--de-prob", type=float, default=default["de_prob"])


def _add_fit_options(parser):
    _add_model_options(parser)
    parser.add_argument("--priors", choices=PRIOR_MODES, default="uniform")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poiskit",
        description="Poisson log-linear classification and clustering of count matrices",
    )
    parser.add_argument("--version", action="version", version=f"poiskit {__version__}")
    commands = parser.add_subparsers(dest="subcommand", required=True)

    sim = commands.add_parser("simulate", help="generate negative-binomial count data")
    _add_population_options(sim, k_required=True)
    sim.set_defaults(func=cmd_simulate)

    trans = commands.add_parser("transform", help="calibrate and apply the power transform")
    _add_counts_options(trans)
    trans.set_defaults(func=cmd_transform)

    train = commands.add_parser("train", help="fit the classifier")
    _add_counts_options(train)
    train.add_argument("--labels", required=True)
    train.add_argument("--rho", type=float, default=0.0)
    _add_fit_options(train)
    train.set_defaults(func=cmd_train)

    pred = commands.add_parser("predict", help="classify observations with a saved model")
    _add_counts_options(pred)
    pred.add_argument("--model", required=True)
    pred.add_argument("--labels", help="optional reference labels for an error count")
    pred.set_defaults(func=cmd_predict)

    cv = commands.add_parser("cv", help="cross-validate the shrinkage parameter")
    _add_counts_options(cv)
    cv.add_argument("--labels", required=True)
    cv.add_argument("--rho-grid", help="comma-separated values; default is automatic")
    cv.add_argument("--folds", type=int, default=5)
    _add_seed_option(cv, default=0)
    _add_fit_options(cv)
    _add_threads_option(cv)
    cv.set_defaults(func=cmd_cv)

    dis = commands.add_parser("dissim", help="pairwise dissimilarity matrix")
    _add_counts_options(dis)
    dis.add_argument("--measure", choices=MEASURES, default="poisson")
    dis.add_argument("--axis", choices=("samples", "features"), default="samples")
    _add_model_options(dis)
    _add_threads_option(dis)
    dis.set_defaults(func=cmd_dissim)

    clus = commands.add_parser("cluster", help="complete-linkage clustering of a dissimilarity TSV")
    clus.add_argument("--dissim", required=True)
    clus.add_argument("--cut-k", type=int, required=True)
    clus.add_argument("--sweep", action="store_true", help="also emit CER for every cut 2..n")
    clus.add_argument("--labels", help="reference labels for --sweep")
    clus.set_defaults(func=cmd_cluster)

    cercmd = commands.add_parser("cer", help="clustering error rate between two partitions")
    cercmd.add_argument("--partition-a", required=True)
    cercmd.add_argument("--partition-b", required=True)
    cercmd.set_defaults(func=cmd_cer)

    rep = commands.add_parser("replicate", help="simulation benchmark harness")
    rep.add_argument("task", choices=("classification", "clustering"))
    _add_population_options(rep, k_required=False)
    rep.add_argument("--reps", type=int, required=True)
    rep.add_argument("--measure", choices=MEASURES, default="poisson")
    rep.add_argument("--cut-k", type=int, default=None)
    rep.add_argument("--folds", type=int, default=5)
    _add_model_options(rep)
    _add_threads_option(rep)
    rep.set_defaults(func=cmd_replicate)

    for sub in (sim, trans, train, pred, cv, dis, clus, cercmd, rep):
        sub.add_argument("--out-dir", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        out_dir = _out_dir(args)
        extra = args.func(args, out_dir)
        _write_manifest(out_dir, args, started, extra)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PoiskitError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the array's shape and size; Python's is blank
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
