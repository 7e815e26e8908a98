import numpy as np
import pytest

from flowsentinel.dataset import Taxonomy, TaxonomyRule


def gaussian_blobs(n_per_class: int, feature_count: int = 16,
                   class_count: int = 3, sep: float = 10.0, seed: int = 0):
    """Well-separated Gaussian blobs: unit-variance classes whose means are
    scaled orthonormal sign patterns, so every pairwise mean distance is
    exactly `sep` (in within-class sigmas) and every feature carries signal.
    Returns (features ndarray, label strings)."""
    if class_count > 3 or feature_count % 4:
        raise ValueError("generator supports up to 3 classes, features % 4 == 0")
    rng = np.random.default_rng(seed)
    patterns = np.array([
        [1.0] * feature_count,
        [1.0, -1.0] * (feature_count // 2),
        [1.0, 1.0, -1.0, -1.0] * (feature_count // 4),
    ])[:class_count] / np.sqrt(feature_count)
    means = patterns * (sep / np.sqrt(2.0))
    features = []
    labels = []
    for c in range(class_count):
        features.append(means[c] + rng.standard_normal((n_per_class, feature_count)))
        labels.extend([f"class{c}"] * n_per_class)
    return np.concatenate(features, axis=0), labels


def blob_taxonomy(class_count: int = 3) -> Taxonomy:
    return Taxonomy(rules=[TaxonomyRule("prefix", "class", "Synthetic")])


@pytest.fixture
def tiny_csv(tmp_path):
    """Minimal well-formed flow CSV: 2 features, 2 rows."""
    path = tmp_path / "tiny.csv"
    path.write_text("f1,f2,label\n1,2,Benign\n3,4,DDoS-TCP\n", encoding="utf-8")
    return str(path)


def write_flow_csv(path, n_per_class=20, feature_count=12, seed=0,
                   labels=("Benign", "DDoS-TCP", "DoS-SYN"),
                   label_column="label"):
    """Separable blob data dressed up as a flow-feature CSV."""
    x, blob_labels = gaussian_blobs(
        n_per_class, feature_count=feature_count, class_count=len(labels),
        seed=seed,
    )
    name_of = {f"class{i}": labels[i] for i in range(len(labels))}
    header = [f"f{i}" for i in range(feature_count)] + [label_column]
    lines = [",".join(header)]
    for row, lab in zip(x, blob_labels):
        lines.append(",".join(repr(float(v)) for v in row) + f",{name_of[lab]}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)
