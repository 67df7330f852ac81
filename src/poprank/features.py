"""Per-post feature vectors, keyed by post_id.

File format: a header line ``post_id,dim=D`` followed by CSV rows of
post_id and D decimal floats. In memory a feature set is a plain dict
mapping post_id to a float64 array; every vector in a set has the same
dimension and only finite values.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .util import fmt_float, read_keyed_floats

FeatureSet = dict[str, np.ndarray]


def feature_dim(features: FeatureSet) -> int:
    if not features:
        raise ValueError("empty feature set has no dimension")
    return len(next(iter(features.values())))


def validate_features(features: FeatureSet) -> None:
    """Check the feature-set invariants: uniform dimension, finite values."""
    dim = None
    for post_id, values in features.items():
        if dim is None:
            dim = len(values)
        elif len(values) != dim:
            raise ValueError(f"feature vector for {post_id!r} has dim {len(values)}, expected {dim}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"feature vector for {post_id!r} contains non-finite values")


def save_features(path: str | Path, features: FeatureSet) -> None:
    validate_features(features)
    dim = feature_dim(features)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"post_id,dim={dim}\n")
        for post_id, values in features.items():
            f.write(post_id + "," + ",".join(fmt_float(x) for x in values) + "\n")


def load_features(path: str | Path) -> FeatureSet:
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        parts = header.split(",")
        if len(parts) != 2 or parts[0] != "post_id" or not parts[1].startswith("dim="):
            raise ValueError(f"unexpected feature header: {header!r}")
        dim = int(parts[1][4:])
        features = {post_id: np.array(values) for post_id, values in read_keyed_floats(f, dim)}
    validate_features(features)
    return features
