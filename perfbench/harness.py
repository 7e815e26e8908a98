"""Workloads, the child-process runner, and the output checks.

Every measured command is one `python -m flowsentinel ...` child process,
started only after the previous one has ended: a closed loop with a single
client. Paths handed to the CLI are relative to the checkout root, so a
model file's bytes (its header records the data path) do not depend on
where the checkout lives.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field

from . import datagen

NARROW_LABELS = ("Benign", "DDoS-TCP", "DoS-SYN")
WIDE_FEATURES = len(datagen.CICIOMT_FEATURES)
# The default taxonomy folds the 19 raw labels into Benign, DDoS, DoS, MQTT,
# Recon and Spoofing.
CATEGORY_COUNT = 6

# Rows per generated file, and the accuracy a command must reach as a
# multiple of chance. "smoke" only proves that every path runs: its models
# are too small to learn.
SIZES = {
    "full": {
        "narrow_rows": 1000,
        "wide_rows": 950,
        "holdout_rows": 2000,
        "ingest_rows": 35000,
        "ingest_cap": 20,
        "accuracy_over_chance": 2.0,
    },
    "smoke": {
        "narrow_rows": 60,
        "wide_rows": 76,
        "holdout_rows": 50,
        "ingest_rows": 380,
        "ingest_cap": 4,
        "accuracy_over_chance": 0.0,
    },
}

# Class separation in noise sigmas: far enough apart that a few epochs learn
# the classes, so the accuracy floor in SIZES is a real check.
NARROW_SEPARATION = 8.0
WIDE_SEPARATION = 16.0

TRAIN_EPOCHS = 3
EPOCH_LINE = re.compile(r"^epoch \d+/\d+ .* val_acc=([0-9.]+)$")
FINAL_VAL_ACC = re.compile(r"^final .* val_acc=([0-9.]+)$", re.MULTILINE)


@dataclass
class Plan:
    """One workload's generated inputs and the command measured on them."""

    argv: list[str]
    model: str  # written by a train command, read by predict; `inspect` reads it
    rows: int  # data rows in the command's input CSV
    data_bytes: int
    class_count: int
    min_accuracy: float
    epochs: int = 0  # train commands: epoch lines expected on stderr
    out: str | None = None  # predict: the probability CSV
    truth: list[str] = field(default_factory=list)  # predict: true labels


@dataclass
class Invocation:
    argv: list[str]
    wall_s: float
    exit_code: int
    stdout: str
    stderr: str
    peak_rss_mb: float
    epoch_times: list[float]  # perf_counter() at each stderr epoch line


def prepare(workload: str, seed: int, work: str, scale: str, runner) -> Plan:
    """Generate the workload's inputs under `work` and do its set-up.

    `runner` runs a CLI argv list; predict-wide uses it to train the model
    it then measures predictions with.
    """
    size = SIZES[scale]

    def floor(class_count: int) -> float:
        return size["accuracy_over_chance"] / class_count

    data = os.path.join(work, "train.csv")
    model = os.path.join(work, "model.fsnt")
    if workload == "train-narrow":
        x, y = datagen.make_rows(seed, 1, size["narrow_rows"], NARROW_LABELS,
                                 16, NARROW_SEPARATION)
        argv = ["train", "--data", data, "--epochs", str(TRAIN_EPOCHS),
                "--out", model]
        return Plan(argv, model, len(y), datagen.write_csv(data, x, y),
                    len(NARROW_LABELS), floor(len(NARROW_LABELS)),
                    epochs=TRAIN_EPOCHS)
    if workload == "train-wide":
        x, y = datagen.make_rows(seed, 1, size["wide_rows"],
                                 datagen.CICIOMT_LABELS, WIDE_FEATURES,
                                 WIDE_SEPARATION)
        argv = ["train", "--data", data, "--task", "multiclass",
                "--batch-size", "256", "--epochs", str(TRAIN_EPOCHS),
                "--out", model]
        return Plan(argv, model, len(y), datagen.write_csv(data, x, y),
                    len(datagen.CICIOMT_LABELS), floor(len(datagen.CICIOMT_LABELS)),
                    epochs=TRAIN_EPOCHS)
    if workload == "predict-wide":
        x, y = datagen.make_rows(seed, 1, size["wide_rows"],
                                 datagen.CICIOMT_LABELS, WIDE_FEATURES,
                                 WIDE_SEPARATION)
        datagen.write_csv(data, x, y)
        trained = runner(["train", "--data", data, "--epochs", "1",
                          "--out", model])
        if trained.exit_code != 0:
            raise RuntimeError(
                f"set-up training failed with exit code {trained.exit_code}:"
                f"\n{trained.stderr}"
            )
        holdout = os.path.join(work, "holdout.csv")
        out = os.path.join(work, "predictions.csv")
        x, y = datagen.make_rows(seed, 2, size["holdout_rows"],
                                 datagen.CICIOMT_LABELS, WIDE_FEATURES,
                                 WIDE_SEPARATION)
        argv = ["predict", "--model", model, "--data", holdout, "--out", out]
        size_bytes = datagen.write_csv(holdout, x, y)
        return Plan(argv, model, len(y), size_bytes,
                    len(datagen.CICIOMT_LABELS), floor(len(datagen.CICIOMT_LABELS)),
                    out=out, truth=y)
    if workload == "ingest-capped":
        x, y = datagen.make_rows(seed, 1, size["ingest_rows"],
                                 datagen.CICIOMT_LABELS, WIDE_FEATURES,
                                 WIDE_SEPARATION)
        # Small batches and a larger step let one epoch over the few kept
        # rows learn the categories, so the accuracy check means something.
        argv = ["train", "--data", data, "--task", "category",
                "--epochs", "1", "--limit-per-class", str(size["ingest_cap"]),
                "--batch-size", "8", "--lr", "0.01", "--out", model]
        return Plan(argv, model, len(y), datagen.write_csv(data, x, y),
                    CATEGORY_COUNT, floor(CATEGORY_COUNT), epochs=1)
    raise ValueError(f"unknown workload {workload!r}")


class ChildRunner:
    """Runs `python -m flowsentinel` children from the checkout root."""

    def __init__(self, root: str, env: dict[str, str], scratch: str):
        self.root = root
        self.env = env
        self.stdout_path = os.path.join(scratch, "child-stdout.txt")

    def __call__(self, argv: list[str]) -> Invocation:
        cmd = [sys.executable, "-m", "flowsentinel", *argv]
        epoch_times: list[float] = []
        err_lines: list[str] = []
        with open(self.stdout_path, "w+", encoding="utf-8") as out:
            start = time.perf_counter()
            with subprocess.Popen(
                cmd, cwd=self.root, env=self.env, stdout=out,
                stderr=subprocess.PIPE, text=True, encoding="utf-8",
            ) as proc:
                for line in proc.stderr:
                    if line.startswith("epoch "):
                        epoch_times.append(time.perf_counter())
                    err_lines.append(line)
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read()
        return Invocation(
            argv=argv,
            wall_s=wall,
            exit_code=proc.returncode,
            stdout=stdout,
            stderr="".join(err_lines),
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
            epoch_times=epoch_times,
        )


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class CheckFailed(Exception):
    """An output check failed; the message says which and how."""


class Checker:
    """Output checks for one workload; every failed check is one failure.

    Repeats of a command must agree byte for byte (model file or prediction
    CSV) and on accuracy, which is the engine's determinism contract.
    """

    def __init__(self, plan: Plan):
        self.plan = plan
        self.reference_sha: str | None = None
        self.reference_accuracy: float | None = None
        self.failures: list[str] = []

    def inspect_ok(self, inv: Invocation) -> bool:
        return self._record(self._check_inspect, inv) is not None

    def command_accuracy(self, inv: Invocation) -> float | None:
        """Check one measured command; its accuracy if it passed, else None."""
        return self._record(self._check_command, inv)

    def _record(self, check, inv: Invocation):
        try:
            return check(inv)
        except CheckFailed as exc:
            self.failures.append(f"{inv.argv[0]}: {exc}")
            return None

    @staticmethod
    def _check_exit(inv: Invocation) -> None:
        if inv.exit_code != 0:
            raise CheckFailed(f"exit code {inv.exit_code}: {inv.stderr[-500:]}")
        if "Traceback" in inv.stderr:
            raise CheckFailed("traceback on stderr")

    def _check_inspect(self, inv: Invocation) -> bool:
        self._check_exit(inv)
        if f"classes ({self.plan.class_count}):" not in inv.stdout:
            raise CheckFailed("the model's classes are not listed")
        return True

    def _check_command(self, inv: Invocation) -> float:
        self._check_exit(inv)
        if self.plan.out is None:
            accuracy = self._train_accuracy(inv)
            digest = sha256_file(self.plan.model)
        else:
            accuracy = self._predict_accuracy()
            digest = sha256_file(self.plan.out)
        if accuracy < self.plan.min_accuracy:
            raise CheckFailed(
                f"accuracy {accuracy} is below {self.plan.min_accuracy:.4f}"
            )
        if self.reference_sha is None:
            self.reference_sha, self.reference_accuracy = digest, accuracy
        if digest != self.reference_sha:
            raise CheckFailed(
                f"output bytes differ between repeats: sha256 {digest} vs "
                f"{self.reference_sha}"
            )
        if accuracy != self.reference_accuracy:
            raise CheckFailed(
                f"accuracy differs between repeats: {accuracy} vs "
                f"{self.reference_accuracy}"
            )
        return accuracy

    def _train_accuracy(self, inv: Invocation) -> float:
        epochs = [m for m in map(EPOCH_LINE.match, inv.stderr.splitlines()) if m]
        if len(epochs) != self.plan.epochs:
            raise CheckFailed(
                f"expected {self.plan.epochs} epoch lines, got {len(epochs)}"
            )
        final = FINAL_VAL_ACC.search(inv.stdout)
        if final is None or "model written to" not in inv.stdout:
            raise CheckFailed("no final metrics on stdout")
        if final.group(1) != epochs[-1].group(1):
            raise CheckFailed("final val_acc differs from the last epoch line")
        return float(final.group(1))

    def _predict_accuracy(self) -> float:
        with open(self.plan.out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        classes = [name[len("prob_"):] for name in header[1:]]
        if header[0] != "predicted_label" or len(classes) != self.plan.class_count:
            raise CheckFailed(f"unexpected header {header[:3]}...")
        if len(body) != self.plan.rows:
            raise CheckFailed(
                f"{len(body)} prediction rows for {self.plan.rows} input rows"
            )
        agree = 0
        for i, (row, truth) in enumerate(zip(body, self.plan.truth), start=1):
            probs = [float(v) for v in row[1:]]
            if not all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in probs):
                raise CheckFailed(f"row {i}: probability outside [0, 1]")
            if abs(math.fsum(probs) - 1.0) > 1e-9:
                raise CheckFailed(f"row {i}: probabilities do not sum to 1")
            if row[0] != classes[probs.index(max(probs))]:
                raise CheckFailed(f"row {i}: label is not the argmax")
            agree += row[0] == truth
        return agree / len(body)
