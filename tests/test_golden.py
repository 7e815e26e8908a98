"""Golden outputs: sha256 of model files, epoch lines, predictions and reports.

The digests were recorded with the per-sample engine, before the layers went
batch-first. A change to the order of any floating-point accumulation shows
up here as a different digest, so the batched engine must reproduce the old
bytes exactly. Every run works in a temporary directory with relative paths,
because the model header records the `--data` argument.
"""

import hashlib

import numpy as np

from flowsentinel.cli import run
from flowsentinel.store import load_model

from conftest import write_flow_csv

# 19 raw labels that together hit every rule of the default taxonomy.
WIDE_LABELS = (
    "ARP_Spoofing", "Benign",
    "DDoS-ICMP", "DDoS-SYN", "DDoS-TCP", "DDoS-UDP",
    "DoS-ICMP", "DoS-SYN", "DoS-TCP", "DoS-UDP",
    "MQTT-DDoS-Connect_Flood", "MQTT-DDoS-Publish_Flood",
    "MQTT-DoS-Connect_Flood", "MQTT-DoS-Publish_Flood",
    "MQTT-Malformed_Data",
    "Recon-OS_Scan", "Recon-Ping_Sweep", "Recon-Port_Scan", "Recon-VulScan",
)


def _sha(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_wide_csv(path, n_per_class=20, feature_count=45, seed=45):
    """19 Gaussian classes at CICIoMT2024 width, rows in shuffled order."""
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((len(WIDE_LABELS), feature_count)) * 2.0
    rows = []
    for c, label in enumerate(WIDE_LABELS):
        for v in means[c] + rng.standard_normal((n_per_class, feature_count)):
            rows.append(",".join(repr(float(x)) for x in v) + f",{label}")
    order = rng.permutation(len(rows))
    header = ",".join([f"f{i}" for i in range(feature_count)] + ["label"])
    lines = [header] + [rows[i] for i in order]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _train_and_score(capsys, data, stem, flags) -> dict[str, str]:
    """Train, then predict and evaluate on the training CSV; hash each output."""
    model = f"{stem}.fsnt"
    assert run(["train", "--data", data, "--out", model] + flags) == 0
    epoch_lines = capsys.readouterr().err
    assert run(["predict", "--model", model, "--data", data,
                "--out", f"{stem}.pred.csv"]) == 0
    assert run(["evaluate", "--model", model, "--data", data,
                "--format", "structured", "--out", f"{stem}.report.json"]) == 0
    capsys.readouterr()
    return {
        "model": _sha(model),
        "epoch_lines": hashlib.sha256(epoch_lines.encode()).hexdigest(),
        "predict": _sha(f"{stem}.pred.csv"),
        "report": _sha(f"{stem}.report.json"),
    }


def test_golden_narrow_default_flags(tmp_path, monkeypatch, capsys):
    # F=16, C=3, batch 32: the paper's default training shape.
    monkeypatch.chdir(tmp_path)
    write_flow_csv(tmp_path / "narrow.csv", n_per_class=40, feature_count=16,
                   seed=21)
    got = _train_and_score(capsys, "narrow.csv", "narrow",
                           ["--epochs", "2", "--batch-size", "32", "--seed", "7"])
    assert got == {
        "model": "724e26e7aa7c5aeb8febe03e7491ef4c59882aa6a5400927e749de57740724bd",
        "epoch_lines": "a66a7000fa2e4dac7729ed88ce338d222ab83e2d3b8eec981cd76507ff4b3e12",
        "predict": "29ece0a60efebd0b7b2e02cd68c5aaac13c24ac3d6d1df7f4298ca82de87e484",
        "report": "45811b62edc84be1096a657f738f382ffda1bc7dfdaa50355d443c3be81aea89",
    }


def test_golden_wide_partial_batch_early_stop(tmp_path, monkeypatch, capsys):
    # F=45, C=19, batch 256 over 304 training rows (one partial batch of 48),
    # early stopping with patience 1 and the best epoch restored.
    monkeypatch.chdir(tmp_path)
    _write_wide_csv(tmp_path / "wide.csv")
    got = _train_and_score(capsys, "wide.csv", "wide",
                           ["--epochs", "8", "--batch-size", "256", "--lr", "0.02",
                            "--early-stop-patience", "1", "--seed", "3"])
    _, _, _, metadata, _ = load_model("wide.fsnt")
    assert metadata.epochs_run < 8  # early stopping fired
    assert got == {
        "model": "e96528cb94353b15e2e089f4417c74a7af804683478c9bd8131c9f2292660813",
        "epoch_lines": "121201ae26d48b5a4e29e965593b502606c17e1be7b2fa637daf978383addd59",
        "predict": "8f1b1ab145909fb4ac54a498b5f96072136681c066d1dff2e1c8043bcf5708b8",
        "report": "d04714343f54af059b0c2670cd87070cd689a90ea3b579201386e99eefbc4b49",
    }


def test_golden_batch_size_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_flow_csv(tmp_path / "single.csv", n_per_class=10, feature_count=12,
                   seed=22)
    assert run(["train", "--data", "single.csv", "--out", "single.fsnt",
                "--epochs", "2", "--batch-size", "1", "--seed", "9"]) == 0
    capsys.readouterr()
    assert _sha("single.fsnt") == (
        "81d5d7381a1f172e77845ec9b947b7b1e0a4791ffb77a50ffae8b4d765a00083"
    )


def test_golden_limit_per_class(tmp_path, monkeypatch, capsys):
    # The wide CSV cut to classes of 3, 10, 14 and 20 rows, capped at 10 per
    # raw label (below, at and above the cap), trained on the category task.
    # Recorded while the split and the subsample still drew into Python
    # lists; the rows they pick must not move.
    monkeypatch.chdir(tmp_path)
    _write_wide_csv(tmp_path / "full.csv")
    header, *rows = (tmp_path / "full.csv").read_text(encoding="utf-8").splitlines()
    size = {label: (3, 10, 14, 20)[c % 4] for c, label in enumerate(WIDE_LABELS)}
    seen = dict.fromkeys(WIDE_LABELS, 0)
    kept = [header]
    for row in rows:
        label = row.rpartition(",")[2]
        seen[label] += 1
        if seen[label] <= size[label]:
            kept.append(row)
    (tmp_path / "capped.csv").write_text("\n".join(kept) + "\n", encoding="utf-8")
    got = _train_and_score(capsys, "capped.csv", "capped",
                           ["--task", "category", "--limit-per-class", "10",
                            "--epochs", "2", "--batch-size", "32", "--seed", "4"])
    assert got == {
        "model": "bd300d1f2703fc7cc146caee27bbcd1b47da820e356f074a840c1ab50280e716",
        "epoch_lines": "127a0b4879ac5a88ae8d8a0c5f4d9263467d2aa13b97cd985d5a63fab41640e4",
        "predict": "7565867d3e4451f39987cab2968d140c61665fc13fd6d6c63185b260daf2a761",
        "report": "d966755e7d01a1ca90a93536faad03008c6bb2168ec5299ad38f73c8e8eb85bc",
    }
