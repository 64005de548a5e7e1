"""The poiskit benchmark: two CLI pipelines timed end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One client drives a closed loop: each op
(one CLI pipeline on one generated dataset) starts when the previous one
has finished, calling ``poiskit.cli.main`` in-process on inputs that the
set-up phase generated from ``--seed``. Workloads and metrics are described
in perfbench/README.md.

With ``--trace 0`` the run reports the end-to-end metrics, measured with no
tracing anywhere in the process. Set-up times, and op times on the
workloads that are not bound by poiskit's thread pool, are stated at a
reference host speed: each is scaled by a host-speed probe timed next to
it (perfbench/hostspeed.py); the summary also gives them as timed.
With ``--trace 1`` it reports the
per-layer metrics of a separate traced process and the tracing overhead
against an untraced process run alongside. Every phase runs in a process of
its own (perfbench/worker.py); this script only starts them, waits for
them and summarises.

A human-readable summary comes first; the last line of standard output is
the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# With --trace 0, set-up repeats until this much time has passed (and at
# least twice) before the plain phase, then as many times after it: the
# host's speed drifts over seconds, so the samples bracket the measured
# window, and a short set-up gets more samples.
SETUP_SIDE_S = 3.5
MIN_SETUPS_PER_SIDE = 2


class ChildFailed(Exception):
    pass


def _child(role: str, args, work: Path, deadline: float) -> dict:
    """Run one worker phase to completion and return its JSON result."""
    env = dict(os.environ)
    # the CLI's thread default must resolve to all cores, as for a plain user
    env.pop("POISKIT_THREADS", None)
    cmd = [
        sys.executable, str(HERE / "worker.py"), role,
        "--work", str(work), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{role} phase did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{role} phase exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _setup(args, work: Path, deadline: float) -> dict:
    """One set-up phase, with the host-speed probe timed on either side of it."""
    before = hostspeed.probe()
    result = _child("setup", args, work, deadline)
    result["probe_s"] = (before + hostspeed.probe()) / 2
    result["ref_setup_s"] = hostspeed.at_reference(result["setup_s"], result["probe_s"])
    return result


def _command_output(cmd: list[str]) -> str | None:
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    out = proc.stdout.strip()
    return out if proc.returncode == 0 and out else None


def environment(plain: dict, setup: dict, args) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        git_sha = _command_output(["git", "rev-parse", "HEAD"])
    llc = None
    for level in ("LEVEL3_CACHE_SIZE", "LEVEL2_CACHE_SIZE"):
        value = _command_output(["getconf", level])
        if value and value.isdigit() and int(value) > 0:
            llc = {"level": level, "bytes": int(value)}
            break
    return {
        "nproc": os.cpu_count(),
        "python": plain["python"],
        "numpy": plain["numpy"],
        "machine": platform.machine(),
        "git_sha": git_sha or "unknown (not a git checkout)",
        "resolved_threads": plain["threads"],
        "last_level_cache": llc,
        "workload": args.workload,
        "seed": args.seed,
        "dataset_seeds": setup["dataset_seeds"],
        "seconds": args.seconds,
    }


def _ops(rounds) -> list[dict]:
    return [op for ops in rounds for op in ops]


def _op_list_wall(rounds, key: str = "time_s") -> float:
    """Time of the fixed op list: each op at its median over the rounds."""
    return sum(statistics.median(ops[i][key] for ops in rounds) for i in range(len(rounds[0])))


def _number(value: float) -> str:
    return f"{value:.6g}"


def _terminated(signum, frame):
    # exit through the running subprocess.run, which then kills its phase
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description="poiskit end-to-end benchmark")
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed nonnegative")
    # a guard against a hung phase: a phase may overrun --seconds by an op,
    # and the traced run times the op list twice plus the thread probe
    deadline = time.monotonic() + 90.0 + 3.0 * args.seconds * (1 + args.trace)
    if not (ROOT / "src" / "poiskit" / "__init__.py").is_file():
        print(f"error: no poiskit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = HERE / ".work" / args.workload
    units = {m["name"]: m["unit"] for m in spec["end_to_end" if args.trace == 0 else "per_layer"]}

    try:
        started = time.monotonic()
        setups = [_setup(args, work, deadline)]
        while args.trace == 0 and (
            len(setups) < MIN_SETUPS_PER_SIDE or time.monotonic() - started < SETUP_SIDE_S
        ):
            setups.append(_setup(args, work, deadline))
        plain = _child("plain", args, work, deadline)
        if args.trace == 0:
            setups += [_setup(args, work, deadline) for _ in range(len(setups))]
        traced = _child("traced", args, work, deadline) if args.trace else None
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = environment(plain, setups[0], args)
    ops = _ops(plain["rounds"])
    attempted = len(ops)
    failed = sum(not op["ok"] for op in ops)
    first_round = plain["rounds"][0]
    summary = [
        f"workload {args.workload}, seed {args.seed}: {len(plain['rounds'])} rounds of "
        f"{len(first_round)} ops, 1 client, closed loop",
    ]

    if args.trace == 0:
        metrics = {
            "setup_s": statistics.median(s["ref_setup_s"] for s in setups),
            "wall_s": _op_list_wall(plain["rounds"]),
            "op_p50_s": statistics.median(op["time_s"] for op in ops),
            "peak_rss_mb": plain["peak_rss_mb"],
        }
        raw = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "wall_s": _op_list_wall(plain["rounds"], "latency_s"),
            "op_p50_s": statistics.median(op["latency_s"] for op in ops),
        }
        notes = {
            "setup_s": f"median of {len(setups)} set-ups",
            "wall_s": f"sum over the op list of each op's median of {len(plain['rounds'])} rounds",
            "op_p50_s": f"median of {attempted} ops",
            "peak_rss_mb": "untraced process",
        }
        scaled = ["setup_s", "wall_s", "op_p50_s"] if plain["scaled"] else ["setup_s"]
        for name in scaled:
            notes[name] += f"; {_number(raw[name])} s as timed"
        summary.append(
            f"  {', '.join(scaled)} at reference host speed (probe {hostspeed.REFERENCE_S} s); "
            f"probe median {_number(statistics.median(op['probe_s'] for op in ops))} s"
        )
        for name, value in metrics.items():
            summary.append(f"  {name:<12} {_number(value):>12} {units[name]:<6} {notes[name]}")
        what = "test misclassification" if args.workload == "classify" else "CER of k=3 cut"
        rates = [op["error_rate"] for op in first_round if op["error_rate"] is not None]
        if rates:
            summary.append(
                f"  {'error_rate':<12} {_number(statistics.fmean(rates)):>12} {'1':<6} "
                f"{what}, mean over {len(rates)} datasets"
            )
        summary.append(
            f"  {'fail_frac':<12} {_number(failed / attempted):>12} {'1':<6} "
            f"{failed} of {attempted} ops failed"
        )
    else:
        traced_ops = _ops(traced["rounds"])
        probe = traced["threads_probe"]
        attempted += len(traced_ops) + (probe is not None)
        failed += sum(not op["ok"] for op in traced_ops)
        if probe is not None and not probe["identical"]:
            failed += 1
            print("error: threaded dissimilarities differ from serial ones", file=sys.stderr)
        metrics = dict(traced["layers"])
        metrics["dissimilarity.serial_s"] = probe["serial_s"] if probe else 0.0
        metrics["dissimilarity.threaded_s"] = probe["threaded_s"] if probe else 0.0
        metrics["trace.overhead_frac"] = (
            _op_list_wall(traced["rounds"]) / _op_list_wall(plain["rounds"]) - 1.0
        )
        metrics = {name: metrics[name] for name in units}
        for name, value in metrics.items():
            summary.append(f"  {name:<31} {_number(value):>12} {units[name]}")
        if probe is not None:
            summary.append(
                f"  pair loop: serial {_number(probe['serial_s'])} s, {probe['threads']} threads "
                f"{_number(probe['threaded_s'])} s, bit-identical: {probe['identical']}"
            )
        summary.append(f"  {failed} of {attempted} checked ops failed")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }
    record = {
        "environment": env,
        "result": result,
        "setups": setups,
        "plain": plain,
        "traced": traced,
    }
    results = HERE / ".work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as handle:
        json.dump(record, handle, indent=1)
    print("\n".join(summary))
    print("environment " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
