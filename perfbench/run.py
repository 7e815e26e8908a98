#!/usr/bin/env python3
"""flowsentinel benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload train-narrow --seed 1 --seconds 20 --trace 0

Run from anywhere; the checkout root is the parent of this directory, and
the engine is imported from its `src/`. With --trace 0 the CLI is measured
as child processes and the end-to-end metrics are reported; with --trace 1
it runs in this process under the span recorder and the per-layer metrics
are reported. The last line of stdout is the result object; the line
before it is a JSON record of the machine, the samples and the checks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from itertools import pairwise
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("train-narrow", "train-wide", "predict-wide", "ingest-capped")
# Commands run in every run, at the least: repeats are what the determinism
# checks compare, and medians need a few samples.
MIN_REPEATS = 3
MIN_SETUP_SAMPLES = 5
MB = 1e6


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "smoke"),
                        help="input sizes; smoke only proves every path runs")
    return parser.parse_args(argv)


def env_pins(nproc: int) -> dict[str, str]:
    """Environment every measured process gets: BLAS/OpenMP thread counts
    pinned to at most two and at most nproc, and a fixed string-hash seed so
    every child has the same dict layouts, one less source of noise."""
    threads = str(max(1, min(2, nproc)))
    return {
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
        "MKL_NUM_THREADS": threads,
        "PYTHONHASHSEED": "0",
    }


def machine_record(pins: dict[str, str]) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip()
                 for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas_version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas_version['name']} {blas_version['version']}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "env_pins": pins,
        "commit": commit,
        "src_sha256": source_digest(),
    }


def source_digest() -> str:
    """sha256 over the engine's source files, so results name the code even
    in a checkout that is not a git repository."""
    import hashlib

    h = hashlib.sha256()
    for path in sorted((SRC / "flowsentinel").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_untraced(args, plan, runner, checker) -> tuple[dict, dict]:
    """Closed loop of CLI children until --seconds is used up.

    A pass of the reference computation runs after every command, and each
    command's times are reported in units of the mean of the four passes
    nearest to it, two before and two after (see reference.py).
    """
    from perfbench.reference import Reference

    samples = {"wall_ref": [], "rows_per_ref": [], "peak_rss_mb": [],
               "setup_s": [], "wall_s": [], "rows_per_s": []}
    commands = []  # (index of the reference pass after it, wall, intervals)
    attempted = repeats = 0
    inspect = ["inspect", "--model", plan.model]
    reference = Reference()
    reference.seconds()  # warm-up: first-call costs of the NumPy functions
    refs = [reference.seconds()]
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        inv = runner(plan.argv)
        refs.append(reference.seconds())
        attempted += 1
        repeats += 1
        if checker.command_accuracy(inv) is not None:
            samples["peak_rss_mb"].append(inv.peak_rss_mb)
            if plan.epochs >= 2:
                # (train + val rows) per epoch, one sample per interval
                # between epoch lines: ingest and save are excluded.
                intervals = [b - a for a, b in pairwise(inv.epoch_times)]
            else:
                intervals = [inv.wall_s]
            commands.append((len(refs) - 1, inv.wall_s, intervals))
        setup = runner(inspect)
        attempted += 1
        if checker.inspect_ok(setup):
            samples["setup_s"].append(setup.wall_s)
        now = time.perf_counter()
        if repeats >= MIN_REPEATS and (now - start) + (now - t0) > args.seconds:
            break
    for _ in range(MIN_SETUP_SAMPLES - len(samples["setup_s"])):
        setup = runner(inspect)
        attempted += 1
        if checker.inspect_ok(setup):
            samples["setup_s"].append(setup.wall_s)
    if not commands or not samples["setup_s"]:
        raise RuntimeError("no run of the command or of inspect passed its "
                           "checks:\n" + "\n".join(checker.failures[:3]))
    for after, wall, intervals in commands:
        ref = statistics.fmean(refs[max(0, after - 2):after + 2])
        samples["wall_s"].append(wall)
        samples["wall_ref"].append(wall / ref)
        samples["rows_per_s"].extend(plan.rows / s for s in intervals)
        samples["rows_per_ref"].extend(plan.rows * ref / s for s in intervals)
    samples["ref_s"] = refs
    metrics = {
        "wall_ref": (statistics.median(samples["wall_ref"]), "ref"),
        "rows_per_ref": (statistics.median(samples["rows_per_ref"]), "rows/ref"),
        "peak_rss_mb": (statistics.median(samples["peak_rss_mb"]), "MB"),
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
    }
    seconds = {"wall_s": statistics.median(samples["wall_s"]),
               "rows_per_s": statistics.median(samples["rows_per_s"]),
               "ref_s": statistics.median(refs)}
    return metrics, {"attempted": attempted, "seconds": seconds,
                     "samples": samples}


def run_in_process(argv: list[str]) -> tuple[int, str, str]:
    from flowsentinel import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_traced(args, plan, checker) -> tuple[dict, dict]:
    """Untraced and traced in-process runs in turn; per-layer metrics."""
    import flowsentinel.cli  # noqa: F401  imported here, not inside a timed run
    from perfbench import harness, spans

    recorder = spans.SpanRecorder()
    inspect = ["inspect", "--model", plan.model]
    ratios = []
    rounds = attempted = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outcome = run_in_process(plan.argv)
        untraced = time.perf_counter() - t0
        checker.command_accuracy(
            harness.Invocation(plan.argv, 0.0, *outcome, 0.0, []))
        with spans.traced(recorder):
            traced = time.perf_counter()
            result = recorder.call(f"cli.{plan.argv[0]}", run_in_process, plan.argv)
            traced = time.perf_counter() - traced
            inspect_result = recorder.call("cli.inspect", run_in_process, inspect)
        attempted += 3
        rounds += 1
        ratios.append(traced / untraced - 1.0)
        checker.command_accuracy(
            harness.Invocation(plan.argv, 0.0, *result, 0.0, []))
        checker.inspect_ok(
            harness.Invocation(inspect, 0.0, *inspect_result, 0.0, []))
        now = time.perf_counter()
        if (now - start) + (now - t0) > args.seconds:
            break
    summary = recorder.summary()
    counts = recorder.counts
    metrics = per_layer_metrics(summary, counts, rounds, plan)
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    return metrics, {"attempted": attempted, "rounds": rounds,
                     "overhead_ratios": ratios,
                     "spans": dict(sorted(summary.items()))}


LAYER_STAGES = ("conv1", "pool1", "conv2", "pool2", "dense1", "output", "relu")


def per_layer_metrics(summary, counts, rounds, plan) -> dict:
    """Seconds per command run, call counts per sample, computed GFLOP/s."""

    def stat(key, field="self_s"):
        return summary.get(key, {}).get(field, 0.0)

    samples = max(counts["samples"], 1)
    metrics = {}
    for stage in LAYER_STAGES:
        calls = 0
        for direction in ("fwd", "bwd"):
            key = f"layers.{stage}.{direction}"
            metrics[f"{key}_s"] = (stat(key) / rounds, "s")
            calls += stat(key, "calls")
        metrics[f"layers.{stage}.calls_per_sample"] = (calls / samples, "calls/sample")
    metrics["layers.softmax.fwd_s"] = (stat("layers.softmax.fwd") / rounds, "s")
    for stage in ("conv2", "dense1"):
        key = f"layers.{stage}.fwd"
        seconds = stat(key)
        gflops = counts[key + ".flops"] / seconds / 1e9 if seconds else 0.0
        metrics[f"{key.replace('.fwd', '')}.fwd_gflops"] = (gflops, "GFLOP/s")
    metrics["optim.softmax_ce.s"] = (stat("optim.softmax_ce", "s") / rounds, "s")
    metrics["optim.adam.s"] = (stat("optim.adam", "s") / rounds, "s")
    metrics["optim.adam.calls"] = (stat("optim.adam", "calls") / rounds, "count")
    metrics["trainer.train.self_s"] = (stat("trainer.train") / rounds, "s")
    metrics["trainer.validation.s"] = (stat("trainer.validation", "s") / rounds, "s")
    metrics["trainer.predict.self_s"] = (stat("trainer.predict") / rounds, "s")
    metrics["tensor.wrap.calls_per_sample"] = (
        counts["tensor_wraps"] / samples, "calls/sample")
    metrics["cli.self_s"] = (stat(f"cli.{plan.argv[0]}") / rounds, "s")
    load_s = stat("dataset.load_csv", "s")
    metrics["dataset.load_csv.s"] = (load_s / rounds, "s")
    metrics["dataset.load_csv.mb_per_s"] = (
        counts["load_csv_bytes"] / MB / load_s if load_s else 0.0, "MB/s")
    parsed = counts["rows_parsed"]
    metrics["dataset.rows_kept_ratio"] = (
        1.0 - counts["rows_dropped"] / parsed if parsed else 1.0, "ratio")
    for name in ("subsample", "map_labels", "load_feature_matrix"):
        metrics[f"dataset.{name}.s"] = (stat(f"dataset.{name}", "s") / rounds, "s")
    for name in ("fit_standardizer", "apply_standardizer", "stratified_split"):
        metrics[f"pipeline.{name}.s"] = (stat(f"pipeline.{name}", "s") / rounds, "s")
    loads = stat("store.load_model", "calls")
    metrics["store.load_model.s"] = (
        stat("store.load_model", "s") / loads if loads else 0.0, "s")
    metrics["store.save_model.s"] = (stat("store.save_model", "s") / rounds, "s")
    metrics["store.model_bytes"] = (os.path.getsize(plan.model), "bytes")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "flowsentinel" / "cli.py").is_file():
        print(f"error: no flowsentinel sources under {SRC}", file=sys.stderr)
        return 2
    pins = env_pins(os.cpu_count() or 1)
    # Set before numpy is first imported, in this process and the children;
    # the hash seed only takes effect in the children.
    os.environ.update(pins)
    from perfbench import harness

    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    os.chdir(ROOT)
    work_root = Path(".perfbench-work")
    work = work_root / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = harness.ChildRunner(str(ROOT), env, str(work))
        runner(["--help"])  # byte-compiles the engine once
        plan = harness.prepare(args.workload, args.seed, str(work), args.scale, runner)
        checker = harness.Checker(plan)
        if args.trace:
            metrics, detail = run_traced(args, plan, checker)
        else:
            metrics, detail = run_untraced(args, plan, runner, checker)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "scale": args.scale,
            "machine": machine_record(pins),
            "output_sha256": checker.reference_sha,
            "accuracy": checker.reference_accuracy,
            "input_bytes": plan.data_bytes,
            "failures": checker.failures,
            "error_rate": len(checker.failures) / detail["attempted"],
            **detail,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()  # left in place while another run uses it
    print(json.dumps(record))
    result = {
        "correct": not checker.failures,
        "attempted": detail["attempted"],
        "failed": len(checker.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
