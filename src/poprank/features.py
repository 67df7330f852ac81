"""Per-post feature vectors, keyed by post_id.

File format: a header line ``post_id,dim=D`` (D a positive integer) followed
by CSV rows of post_id and D decimal floats. In memory a feature set is one
(n, D) float64 matrix with the post ids of its rows; it reads as a mapping
from post_id to that post's row.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping, Sequence
from pathlib import Path

import numpy as np

from .util import fmt_float, open_csv, read_keyed_floats


class FeatureSet(Mapping):
    """`ids`, a read-only C-contiguous (n, D >= 1) float64 `matrix` and the id -> row `index`; checked when built."""

    def __init__(self, ids: Sequence[str], matrix: np.ndarray):
        matrix = np.ascontiguousarray(matrix, dtype=np.float64).view()  # the caller's array stays writeable
        if matrix.ndim != 2 or matrix.shape[0] != len(ids) or matrix.shape[1] < 1:
            raise ValueError(f"feature matrix of shape {matrix.shape} is not one nonempty row per id ({len(ids)})")
        self.ids, self.index = list(ids), {post_id: row for row, post_id in enumerate(ids)}
        if len(self.index) != len(self.ids):
            dup = next(pid for row, pid in enumerate(self.ids) if self.index[pid] != row)
            raise ValueError(f"duplicate post_id {dup!r} in feature set")
        if not np.isfinite(matrix).all():
            bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))[0]
            raise ValueError(f"feature vector for {self.ids[bad]!r} contains non-finite values")
        matrix.flags.writeable = False
        self.matrix, self.dim = matrix, matrix.shape[1]

    @classmethod
    def of(cls, features: FeatureSet | dict[str, np.ndarray]) -> FeatureSet:
        """`features` itself if it is a FeatureSet, else a FeatureSet of its {post_id: vector} items."""
        if isinstance(features, cls):
            return features
        ids = list(features)
        rows = [np.asarray(features[pid], dtype=np.float64) for pid in ids]
        bad = next((pid for pid, row in zip(ids, rows) if row.shape != rows[0].shape), None)
        if bad is not None:
            raise ValueError(f"feature vector for {bad!r} does not have the shape {rows[0].shape} of the first one")
        return cls(ids, np.stack(rows))

    def rows(self, ids: Sequence[str]) -> np.ndarray:
        """Row indices of `ids`; an id without a feature vector is a ValueError."""
        missing = sorted({pid for pid in ids if pid not in self.index})
        if missing:
            raise ValueError(f"pairs reference {len(missing)} post_ids without features: {missing[:5]}")
        return np.array([self.index[pid] for pid in ids], dtype=np.intp)

    def __getitem__(self, post_id: str) -> np.ndarray:
        return self.matrix[self.index[post_id]]

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids)


def save_features(path: str | Path, features: FeatureSet) -> None:
    with open_csv(path, f"post_id,dim={features.dim}") as f:
        for post_id, row in zip(features.ids, features.matrix):
            f.write(post_id + "," + ",".join(map(fmt_float, row.tolist())) + "\n")


def load_features(path: str | Path) -> FeatureSet:
    """Read a feature file; a malformed header or row is a ValueError naming the line."""
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        name, sep, dim = header.partition(",dim=")
        if name != "post_id" or not sep or not dim.isdecimal() or int(dim) < 1:
            raise ValueError(f"line 1: expected the header 'post_id,dim=D' with D a positive integer, got {header!r}")
        ids, flat = [], array("d")  # one flat buffer: a list per row would take several times the memory
        for post_id, values in read_keyed_floats(f, int(dim)):
            ids.append(post_id)
            flat.extend(values)
    return FeatureSet(ids, np.frombuffer(flat, dtype=np.float64).reshape(len(ids), int(dim)))
