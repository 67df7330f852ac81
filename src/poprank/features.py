"""Per-post feature vectors, keyed by post_id.

File format: a header line ``post_id,dim=D`` (D a positive integer) followed
by CSV rows of post_id and D decimal floats. `FeatureBlocks` reads a file one
checked block of rows at a time, so a command that only scores the rows never
holds them all; `load_features` collects the blocks. In memory a feature set
is one (n, D) float64 matrix with the post ids of its rows; it reads as a
mapping from post_id to that post's row.
"""

from __future__ import annotations

from array import array
from collections.abc import Collection, Container, Generator, Iterable, Iterator, Mapping, Sequence
from itertools import islice, repeat
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
        require_features(ids, self.index)
        return np.array([self.index[pid] for pid in ids], dtype=np.intp)

    def __getitem__(self, post_id: str) -> np.ndarray:
        return self.matrix[self.index[post_id]]

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids)


def header(dim: int) -> str:
    return f"post_id,dim={dim}"


def save_features(path: str | Path, features: FeatureSet) -> None:
    with open_csv(path, header(features.dim)) as f:
        write_rows(f, features.ids, features.matrix)


def write_rows(f: TextIO, ids: Sequence[str], matrix: np.ndarray) -> None:
    """Write the (len(ids), D) `matrix` as rows of a features file, one at a time to keep memory flat."""
    row_format = "%s" + ",%.17g" * matrix.shape[1] + "\n"  # round-trips float64
    for post_id, row in zip(ids, matrix):
        f.write(row_format % (post_id, *row.tolist()))


def require_features(ids: Iterable[str], present: Container[str]) -> None:
    """The one missing-features error: a ValueError counting and naming the `ids` not in `present`."""
    missing = sorted({pid for pid in ids if pid not in present})
    if missing:
        raise ValueError(f"pairs reference {len(missing)} post_ids without features: {missing[:5]}")


class FeatureBlocks:
    """A features file read as checked blocks of at most FEATURE_VALUES values each.

    Iterating yields (ids, matrix) blocks: the rows whose id is in `wanted`
    (every row when None) as a (len(ids), dim) float64 matrix. Every line has
    its field count, its id and a repeated id checked; only the kept rows have
    their values parsed and checked finite. A bad header is a ValueError when
    the reader is made, and a bad row one when iteration reaches its block,
    naming the file's first bad line: every row before that block passed.
    Blocks are parsed by numpy's C reader. A block it does not take as it is,
    and one with a bad or repeated id or a non-finite value, is read again from
    its first line, with the rest of the file, row by row by
    `read_keyed_floats`, which parses with float() and names the first bad line.
    `file_rows` counts the rows checked, every row of the file once iterated.
    """

    def __init__(self, path: str | Path, wanted: Collection[str] | None = None):
        self.path, self.wanted, self.seen = path, wanted, set()
        with open(path, "r", encoding="utf-8") as f:
            line = f.readline().strip()
        name, sep, dim = line.partition(",dim=")
        if name != "post_id" or not sep or not dim.isdecimal() or int(dim) < 1:
            raise ValueError(f"line 1: expected the header 'post_id,dim=D' with D a positive integer, got {line!r}")
        self.dim = int(dim)
        self.rows_per_block = max(1, FEATURE_VALUES // self.dim)

    @property
    def file_rows(self) -> int:
        return len(self.seen)  # each row's id joins `seen` once its row passes

    def __iter__(self) -> Iterator[tuple[list[str], np.ndarray]]:
        self.seen = set()
        with open(self.path, "r", encoding="utf-8") as f:
            f.readline()
            blocks = _read_blocks(f, self.dim, self.rows_per_block, self.wanted, self.seen)
            start = 2 if blocks is None else (yield from blocks)
        if start is not None:
            yield from self._read_rows(start)

    def _read_rows(self, start: int) -> Iterator[tuple[list[str], np.ndarray]]:
        """The blocks of the rows from file line `start` on, parsed row by row."""
        with open(self.path, "r", encoding="utf-8") as f:
            ids, flat = [], array("d")  # one flat buffer: a list per row would take several times the memory
            for post_id, values in read_keyed_floats(islice(f, start - 1, None), self.dim, self.wanted, start,
                                                     self.seen):
                if values is not None:
                    ids.append(post_id)
                    flat.extend(values)
                    if len(ids) == self.rows_per_block:
                        yield ids, np.frombuffer(flat, dtype=np.float64).reshape(len(ids), self.dim)
                        ids, flat = [], array("d")
            if ids:
                yield ids, np.frombuffer(flat, dtype=np.float64).reshape(len(ids), self.dim)


def load_features(path: str | Path, wanted: Collection[str] | None = None) -> FeatureSet:
    """The FeatureSet of the rows whose id is in `wanted` (every row when None), checked as `FeatureBlocks` checks.

    Its `file_rows` counts every row of the file.
    """
    blocks = FeatureBlocks(path, wanted)
    ids, flat = [], array("d")  # the blocks' values, copied once each into one buffer the matrix then shares
    for block_ids, block in blocks:
        ids += block_ids
        flat.frombytes(memoryview(block).cast("B"))
    return FeatureSet(ids, np.frombuffer(flat, dtype=np.float64).reshape(len(ids), blocks.dim), blocks.file_rows)


def _read_blocks(f: TextIO, dim: int, rows_per_block: int, wanted: Collection[str] | None,
                 seen: set[str]) -> Generator[tuple[list[str], np.ndarray], None, int | None]:
    """Yield the blocks of `f`'s rows that numpy's reader takes; return None at the end of the file, or the line
    from which the row parser must judge the rows."""
    start, every, ids, rows = 2, [], [], []
    for end, line in enumerate(f, start=2):
        if line.isspace():
            continue
        post_id, _, values = line.partition(",")
        every.append(post_id)
        if wanted is None or post_id in wanted:
            ids.append(post_id)
            rows.append(values)
        elif line.count(",") != dim:  # a kept row's field count is checked by the shape of its block
            return start
        if len(rows) == rows_per_block:
            block = _parse_block(every, rows, dim, seen)
            if block is None:
                return start
            yield ids, block
            start, every, ids, rows = end + 1, [], [], []
    block = _parse_block(every, rows, dim, seen)
    if block is None:
        return start
    if ids:
        yield ids, block
    return None


def _parse_block(every: list[str], rows: list[str], dim: int, seen: set[str]) -> np.ndarray | None:
    """The (len(rows), dim) values of `rows` once the ids `every` keep the id rule and are new to `seen`, which then
    takes them; None where the row parser must judge the block, as where numpy's reader and float() may differ."""
    new = set(every)
    if not all(every) or _ID_FORBIDDEN.search("".join(every)) or len(new) < len(every) or not seen.isdisjoint(new):
        return None
    if not rows:
        block = np.empty((0, dim))
    elif "\n" in rows or "" in rows:  # numpy skips an empty row, where float("") is an error
        return None
    elif any(any(map(str.__contains__, rows, repeat(space))) for space in _LOADTXT_ONLY_SPACES):
        return None
    else:
        try:
            block = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2, dtype=np.float64)
        except ValueError:  # a value numpy does not read, or a field count that changes within the block
            return None
        if block.shape[1] != dim or not np.isfinite(block).all():
            return None
    seen |= new
    return block
