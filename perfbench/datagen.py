"""Seeded synthetic flow CSVs shaped like CICIoMT2024.

Every class gets a mean vector in standardized units, drawn from the seed
alone, so a training file and a holdout file made from the same seed share
their class means and differ only in the per-row noise. The means sit on
random orthonormal directions, so every pair of classes is exactly
`separation` noise sigmas apart whatever the seed: the seed turns the class
geometry but does not make a workload easier or harder. Each feature is then
scaled and shifted into a flow-like range, so the engine's standardizer has
real work to do. Row order is shuffled, as in a concatenated capture dump.
"""

from __future__ import annotations

import numpy as np

# The 45 feature columns of the CICIoMT2024 CSVs, in file order.
CICIOMT_FEATURES = (
    "Header_Length", "Protocol Type", "Duration", "Rate", "Srate", "Drate",
    "fin_flag_number", "syn_flag_number", "rst_flag_number",
    "psh_flag_number", "ack_flag_number", "ece_flag_number",
    "cwr_flag_number", "ack_count", "syn_count", "fin_count", "rst_count",
    "HTTP", "HTTPS", "DNS", "Telnet", "SMTP", "SSH", "IRC", "TCP", "UDP",
    "DHCP", "ARP", "ICMP", "IGMP", "IPv", "LLC", "Tot sum", "Min", "Max",
    "AVG", "Std", "Tot size", "IAT", "Number", "Magnitue", "Radius",
    "Covariance", "Variance", "Weight",
)

# The 19 raw attack labels; together they hit every rule of the default
# taxonomy (Benign, DDoS-*, DoS-*, MQTT-*, Recon-*, ARP spoofing).
CICIOMT_LABELS = (
    "ARP_Spoofing", "Benign",
    "DDoS-ICMP", "DDoS-SYN", "DDoS-TCP", "DDoS-UDP",
    "DoS-ICMP", "DoS-SYN", "DoS-TCP", "DoS-UDP",
    "MQTT-DDoS-Connect_Flood", "MQTT-DDoS-Publish_Flood",
    "MQTT-DoS-Connect_Flood", "MQTT-DoS-Publish_Flood",
    "MQTT-Malformed_Data",
    "Recon-OS_Scan", "Recon-Ping_Sweep", "Recon-Port_Scan", "Recon-VulScan",
)

LABEL_COLUMN = "label"

# Random streams derived from one seed: the class geometry is shared by all
# files of a seed, the rows of each file come from their own stream.
_GEOMETRY = 0


def feature_names(feature_count: int) -> list[str]:
    """The first feature_count CICIoMT2024 columns, numbered past 45."""
    names = list(CICIOMT_FEATURES[:feature_count])
    names += [f"extra_{i}" for i in range(len(names), feature_count)]
    return names


def class_geometry(seed: int, class_count: int, feature_count: int,
                   separation: float):
    """Class means (class_count, F) in noise-sigma units, plus the per-feature
    scale and offset that map standardized values to flow-like magnitudes."""
    if class_count > feature_count:
        raise ValueError(
            f"{class_count} classes need at least as many features, "
            f"got {feature_count}"
        )
    rng = np.random.default_rng([seed, _GEOMETRY])
    basis, _ = np.linalg.qr(rng.standard_normal((feature_count, class_count)))
    means = basis.T * (separation / np.sqrt(2.0))
    scale = 10.0 ** rng.uniform(-2.0, 4.0, size=feature_count)
    offset = scale * rng.uniform(0.0, 10.0, size=feature_count)
    return means, scale, offset


def make_rows(seed: int, stream: int, rows: int, labels: tuple[str, ...],
              feature_count: int, separation: float):
    """`rows` balanced, shuffled samples: (features ndarray, label list)."""
    if stream == _GEOMETRY:
        raise ValueError(f"stream {_GEOMETRY} is reserved for class geometry")
    means, scale, offset = class_geometry(
        seed, len(labels), feature_count, separation
    )
    rng = np.random.default_rng([seed, stream])
    class_idx = np.arange(rows) % len(labels)
    rng.shuffle(class_idx)
    z = means[class_idx] + rng.standard_normal((rows, feature_count))
    return offset + scale * z, [labels[c] for c in class_idx]


def write_csv(path: str, features: np.ndarray, labels: list[str]) -> int:
    """Write a header plus one row per sample, floats in shortest repr form.
    Returns the file size in bytes."""
    header = feature_names(features.shape[1]) + [LABEL_COLUMN]
    lines = [",".join(header)]
    lines.extend(
        ",".join(map(repr, row)) + "," + label
        for row, label in zip(features.tolist(), labels)
    )
    data = ("\n".join(lines) + "\n").encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)
