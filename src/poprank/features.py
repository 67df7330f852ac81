"""Per-post feature vectors, keyed by post_id.

File format: a header line ``post_id,dim=D`` (D a positive integer) followed
by CSV rows of post_id and D decimal floats. In memory a feature set is one
(n, D) float64 matrix with the post ids of its rows; it reads as a mapping
from post_id to that post's row.
"""

from __future__ import annotations

from array import array
from collections.abc import Collection, Mapping, Sequence
from itertools import repeat
from pathlib import Path
from typing import TextIO

import numpy as np

from .util import _ID_FORBIDDEN, open_csv, read_keyed_floats

FEATURE_VALUES = 1 << 15  # values per numpy parse when reading a features file: bounds the memory a block takes
# float() does not strip these around a number and numpy's reader does (both strip the other whitespace)
_LOADTXT_ONLY_SPACES = "\x1c\x1d\x1e\x1f"


class FeatureSet(Mapping):
    """`ids`, a read-only C-contiguous (n, D >= 1) float64 `matrix` and the id -> row `index`; checked when built.

    `file_rows` is the row count of the file the set was read from, which may hold rows the set left out.
    """

    def __init__(self, ids: Sequence[str], matrix: np.ndarray, file_rows: int | None = None):
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
        self.file_rows = len(self.ids) if file_rows is None else file_rows

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
    row_format = "%s" + ",%.17g" * features.dim + "\n"  # round-trips float64; one row at a time keeps memory flat
    with open_csv(path, f"post_id,dim={features.dim}") as f:
        for post_id, row in zip(features.ids, features.matrix):
            f.write(row_format % (post_id, *row.tolist()))


def load_features(path: str | Path, wanted: Collection[str] | None = None) -> FeatureSet:
    """Read a feature file; a malformed header or row is a ValueError naming the line.

    Every line has its field count, its id and a repeated id checked. Only the
    rows whose id is in `wanted` (every row when None) have their values
    parsed and checked finite, and only those are in the set, whose
    `file_rows` counts every row of the file. Rows are parsed by numpy's C
    reader, FEATURE_VALUES values at a time. A file that reader does not take
    as it is, and one with a bad or repeated id or a non-finite value, is read
    again row by row by `read_keyed_floats`, which names the first bad line.
    """
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        name, sep, dim = header.partition(",dim=")
        if name != "post_id" or not sep or not dim.isdecimal() or int(dim) < 1:
            raise ValueError(f"line 1: expected the header 'post_id,dim=D' with D a positive integer, got {header!r}")
        dim = int(dim)
        parsed = _read_blocks(f, dim, wanted)
        if parsed is not None:
            try:
                return FeatureSet(*parsed)
            except ValueError:  # a non-finite value
                pass
        f.seek(0)
        f.readline()
        return FeatureSet(*_read_rows(f, dim, wanted))


def _read_rows(f: TextIO, dim: int, wanted: Collection[str] | None) -> tuple[list[str], np.ndarray, int]:
    ids, flat, file_rows = [], array("d"), 0  # one flat buffer: a list per row would take several times the memory
    for post_id, values in read_keyed_floats(f, dim, wanted):
        file_rows += 1
        if values is not None:
            ids.append(post_id)
            flat.extend(values)
    return ids, np.frombuffer(flat, dtype=np.float64).reshape(len(ids), dim), file_rows


def _read_blocks(f: TextIO, dim: int, wanted: Collection[str] | None) -> tuple[list[str], np.ndarray, int] | None:
    """The kept ids, their matrix and the file's row count, or None where the row parser must judge a row."""
    every, ids, rows, flat = [], [], [], array("d")
    rows_per_block = max(1, FEATURE_VALUES // dim)
    for line in f:
        if line.isspace():
            continue
        if line.count(",") != dim:
            return None
        post_id, _, values = line.partition(",")
        every.append(post_id)
        if wanted is None or post_id in wanted:
            ids.append(post_id)
            rows.append(values)
            if len(rows) == rows_per_block and not _parse_rows(rows, flat):
                return None
    if not _parse_rows(rows, flat) or not all(every) or _ID_FORBIDDEN.search("".join(every)):
        return None
    if len(set(every)) < len(every):  # a repeated id, kept or not
        return None
    return ids, np.frombuffer(flat, dtype=np.float64).reshape(len(ids), dim), len(every)


def _parse_rows(rows: list[str], flat: array) -> bool:
    """Append the values of `rows` to `flat` and empty `rows`; False where numpy's reader and float() may differ."""
    if not rows:
        return True
    if "\n" in rows or "" in rows:  # numpy skips an empty row, where float("") is an error
        return False
    if any(any(map(str.__contains__, rows, repeat(space))) for space in _LOADTXT_ONLY_SPACES):
        return False
    try:
        block = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
    except ValueError:
        return False
    flat.frombytes(memoryview(block).cast("B"))
    rows.clear()
    return True
