"""Per-post feature vectors, keyed by post_id.

File format: a header line ``post_id,dim=D`` (D a positive integer) followed
by CSV rows of post_id and D decimal floats. `FeatureBlocks` reads a file one
checked block of rows at a time, so a command that only scores the rows never
holds them all; `load_features` collects the blocks. In memory a feature set
is one (n, D) float64 matrix with the post ids of its rows; it reads as a
mapping from post_id to that post's row.
"""

from __future__ import annotations

import functools
import math
from array import array
from collections.abc import Collection, Container, Iterable, Iterator, Mapping, Sequence
from itertools import islice, repeat
from pathlib import Path
from typing import TextIO

import numpy as np

from .util import _ID_FORBIDDEN, _check_id

FEATURE_VALUES = 1 << 15  # values per numpy parse when reading a features file: bounds the memory a block takes
WRITE_VALUES = 1 << 13  # values per block formatted when writing one, unless a row holds more
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


def write_rows(f: TextIO, ids: Sequence[str], matrix: np.ndarray, buffers: RowBuffers | None = None) -> None:
    """Write the (len(ids), D) `matrix` as rows of a features file, each value as `'%.17g' % value` (which
    round-trips float64), formatted in blocks of at most max(D, WRITE_VALUES) values to keep memory flat.
    A writer that calls this once per block of its own passes one `RowBuffers` to every call, so that no block
    frees its byte arrays for the allocator to hand back to the OS and fault in again; given none, it makes one."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or len(matrix) != len(ids):
        raise ValueError(f"feature matrix of shape {matrix.shape} is not one row per id ({len(ids)})")
    buffers = buffers or RowBuffers()
    size = max(1, WRITE_VALUES // max(1, matrix.shape[1]))
    for start in range(0, len(ids), size):
        f.write(_format_rows(ids[start : start + size], matrix[start : start + size], buffers).decode("utf-8"))


class RowBuffers:
    """The byte arrays `_format_rows` lays a block out in: the row byte matrix, its pad mask and the compacted
    bytes, each flat and grown only when a block needs more bytes than they hold."""

    def __init__(self):
        self.text, self.mask, self.kept = np.empty(0, np.uint8), np.empty(0, bool), np.empty(0, np.uint8)

    def rows(self, n: int, width: int) -> tuple[np.ndarray, np.ndarray]:
        """The byte matrix and pad mask of `n` rows of `width` bytes, views of the buffers."""
        if n * width > self.text.size:
            self.text, self.kept = np.empty(n * width, np.uint8), np.empty(n * width, np.uint8)
            self.mask = np.empty(n * width, bool)
        return self.text[: n * width].reshape(n, width), self.mask[: n * width].reshape(n, width)


# The block formatter's constants. _PAD pads a block's bytes: no UTF-8 text holds it, so one compaction drops it alone.
_PAD = 0xFF
_CELL = 25  # one value's slot: ',' and the longest text, as '-2.2250738585072014e-308'
_E16, _E17 = 10**16, 10**17  # the 17-digit range
_SCIENTIFIC, _SLOW = 21, 22  # layout codes after the fixed-point ones, k + 4 for k in [-4, 16]
# The fast path takes 1e-250 < |x| < 1e250, so k in [-251, 250] and powers 10**(16 - k) in [-234, 267], with margin
_MIN_POWER, _MAX_POWER, _MIN_EXPONENT = -240, 270, -260
_SPLITTER = 2.0**27 + 1


def _format_rows(ids: Sequence[str], matrix: np.ndarray, buffers: RowBuffers) -> bytes:
    """The UTF-8 text of the features rows of `ids` and their (len(ids), D) float64 `matrix`.

    Each row is laid out in one row of a byte matrix: the id, D cells of
    _CELL bytes and the line end, padded with _PAD, which one compaction drops.
    """
    encoded = [post_id.encode("utf-8") for post_id in ids]  # UTF-8 holds no _PAD byte, so an id keeps every byte
    width = max(map(len, encoded), default=0)
    text, mask = buffers.rows(len(ids), width + matrix.shape[1] * _CELL + 1)
    padded = b"".join(post_id.ljust(width, b"\xff") for post_id in encoded)
    text[:, :width] = np.frombuffer(padded, np.uint8).reshape(len(ids), width)
    text[:, -1] = ord("\n")
    _format_cells(matrix, np.ndarray((*matrix.shape, _CELL), np.uint8, text, width, (text.strides[0], _CELL, 1)))
    kept = buffers.kept[: np.count_nonzero(np.not_equal(text, _PAD, out=mask))]
    return np.compress(mask.ravel(), text.ravel(), out=kept).tobytes()


def _format_cells(values: np.ndarray, cells: np.ndarray) -> None:
    """Write ',' and `'%.17g' % x`, padded with _PAD, into the _CELL bytes of `cells` (shaped values.shape +
    (_CELL,)) for each x of the float64 `values`.

    Python's '%.17g' takes dtoa's exact bignum path for every value, as 17
    digits are past its fast path. Here, for 1e-250 < |x| < 1e250, the 17
    digits D = round(|x| * 10**(16 - k)) come from the double-double product
    of |x| and 10**(16 - k), exact to about 1e-14 of a unit: Dekker's
    two-product with the high part of the power, plus |x| times its low part.
    The exponent k is floor(log10 |x|), taken from numpy's log10 only as a
    guess: a cell whose unrounded product falls outside [1e16, 1e17) is done
    again with k - 1 or k + 1, and a rounding up to 1e17 carries into k + 1.
    (A product too close to 1e16 or 1e17 to place gives the same text on
    either side, as the rounding carries, or one that stays outside.)
    Python's '%' formats the cells this cannot prove: zeros, non-finite values,
    |x| outside that range, one whose product stays outside [1e16, 1e17), and
    a product within 1e-9 of a rounding tie (exact ties exist: from about 1e5
    to 1e17 a value with few fraction bits can be one, as 1000000000000000.25).

    The text is laid out as '%g' lays it out: fixed point for -4 <= k < 17,
    else d.ddde±XX, without trailing zeros or a bare point. The cells are
    sorted by layout (one per k of fixed point, then scientific, then
    Python's), each layout fills a contiguous slice of rows, and one gather
    puts them back in order.
    """
    tables = _tables()
    values = values.ravel()
    a = np.abs(values)
    fast = (a > 1e-250) & (a < 1e250)
    a[~fast] = 1.0  # a placeholder; these cells go to Python
    k = np.floor(np.log10(a)).astype(np.int64)
    whole, frac = tables.scaled(a, k)
    for _ in range(2):  # log10's guess is off by one at most, so one pass puts every cell in range
        shift = (whole >= _E17).astype(np.int64) - (whole < _E16)
        redo = np.flatnonzero(shift)
        if not redo.size:
            break
        k[redo] += shift[redo]
        whole[redo], frac[redo] = tables.scaled(a[redo], k[redo])
    slow = ~fast | (whole < _E16) | (whole >= _E17) | (np.abs(frac - 0.5) < 1e-9)
    digits = whole + (frac > 0.5)
    carry = digits == _E17
    digits[carry] = _E16
    k += carry
    layout = np.where(slow, _SLOW, np.where((k >= -4) & (k < 17), k + 4, _SCIENTIFIC)).astype(np.int8)
    order = np.argsort(layout, kind="stable")
    bounds = [0, *np.cumsum(np.bincount(layout, minlength=_SLOW + 1)).tolist()]  # layout c fills rows bounds[c:c + 2]
    n_fast = bounds[_SLOW]
    sorted_cells = np.full((values.size, _CELL), _PAD, dtype=np.uint8)
    sorted_cells[:, 0] = ord(",")
    sorted_cells[:n_fast, 1] = np.where(np.signbit(values[order[:n_fast]]), ord("-"), _PAD)
    text = tables.digit_text(digits[order[:n_fast]])
    for code, start, end in zip(range(_SLOW), bounds, bounds[1:]):
        if start == end:
            continue
        cell, digit = sorted_cells[start:end, 2:], text[start:end]  # a cell from its first digit's slot on
        if code == _SCIENTIFIC:  # d.ddde±XX
            cell[:, 0] = digit[:, 0]
            cell[:, 1] = np.where(digit[:, 1] != _PAD, ord("."), _PAD)
            cell[:, 2:18] = digit[:, 1:]
            cell[:, 18:] = tables.exponents[k[order[start:end]] - _MIN_EXPONENT]
        elif code >= 4:  # the k + 1 integer digits, zeros kept, then the point if a fraction digit follows
            point = code - 3
            cell[:, :point] = np.where(digit[:, :point] == _PAD, ord("0"), digit[:, :point])
            if point < 17:
                cell[:, point] = np.where(digit[:, point] != _PAD, ord("."), _PAD)
                cell[:, point + 1 : 18] = digit[:, point:]
        else:  # '0.', then -k - 1 zeros and the digits
            zeros = 3 - code
            cell[:, : 2 + zeros] = ord("0")
            cell[:, 1] = ord(".")
            cell[:, 2 + zeros : 19 + zeros] = digit
    for row, x in enumerate(values[order[n_fast:]].tolist(), start=n_fast):
        slow_text = _python_text(x)
        sorted_cells[row, 1 : 1 + len(slow_text)] = np.frombuffer(slow_text, np.uint8)
    position = np.empty_like(order)
    position[order] = np.arange(order.size)
    np.take(sorted_cells, position.reshape(cells.shape[:-1]), axis=0, out=cells, mode="clip")


def _python_text(x: float) -> bytes:
    """`'%.17g' % x`: the text of a value the fast path of `_format_cells` cannot prove."""
    return ("%.17g" % x).encode("ascii")


class _FormatTables:
    """What `_format_cells` looks up: 10**p as a double-double for p in [_MIN_POWER, _MAX_POWER], the text of 0..9999
    with and without its trailing zeros, and the 'e±XX' of each exponent. Built by `_tables` on the first write."""

    def __init__(self):
        hi, lo = [], []
        for p in range(_MIN_POWER, _MAX_POWER + 1):  # exact rationals from Python ints: no module for them is loaded
            n = 10 ** abs(p)
            hi.append(float(n) if p >= 0 else 1 / n)  # int / int is correctly rounded
            num, den = hi[-1].as_integer_ratio()
            lo.append(float(n - num) if p >= 0 else (den - num * n) / (den * n))
        self.hi, self.lo = np.array(hi), np.array(lo)
        self.hi_hi, self.hi_lo = _split(self.hi)
        codes = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
        text = (codes + ord("0")).astype(np.uint8)
        trailing = np.logical_and.accumulate(codes[:, ::-1] == 0, axis=1)[:, ::-1]
        self.groups = np.concatenate([text, np.where(trailing, _PAD, text)]).view(np.uint32).ravel()
        self.exponents = np.frombuffer(b"".join(
            (b"e-" if e < 0 else b"e+") + (b"%02d" % abs(e)).rjust(3, b"\xff")
            for e in range(_MIN_EXPONENT, -_MIN_EXPONENT + 1)
        ), dtype=np.uint8).reshape(-1, 5)

    def scaled(self, a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """floor(a * 10**(16 - k)) as int64 and its fraction, from a double-double product exact to about 1e-14."""
        p = 16 - k - _MIN_POWER
        hi, hi_hi, hi_lo = self.hi[p], self.hi_hi[p], self.hi_lo[p]
        a_hi, a_lo = _split(a)
        product = a * hi
        error = a_hi * hi_hi  # Dekker's two-product: product + error == a * hi exactly
        error -= product
        error += a_hi * hi_lo
        error += a_lo * hi_hi
        error += a_lo * hi_lo
        error += a * self.lo[p]
        whole = np.floor(product)
        product -= whole  # exact: what of the product is below the unit
        product += error
        carried = np.floor(product)
        product -= carried
        whole = whole.astype(np.int64)
        whole += carried.astype(np.int64)
        return whole, product

    def digit_text(self, digits: np.ndarray) -> np.ndarray:
        """The (n, 17) text of the 17-digit `digits`, with its trailing zeros as _PAD."""
        high = digits // 10**8
        low = (digits - high * 10**8).astype(np.int32)
        high = high.astype(np.int32)
        top = high // 10**4
        groups = np.empty((digits.size, 5), dtype=np.int32)  # the lead digit, then four groups of four
        groups[:, 0] = top // 10**4
        groups[:, 1] = top - groups[:, 0] * 10**4
        groups[:, 2] = high - top * 10**4
        groups[:, 3] = low // 10**4
        groups[:, 4] = low - groups[:, 3] * 10**4
        strip = groups[:, 4] == 0  # a group takes the stripped text when every later group is zero
        groups[:, 4] += 10**4
        for g in (3, 2, 1):
            groups[:, g] += strip * 10**4
            strip &= groups[:, g] == 10**4
        return np.take(self.groups, groups).view(np.uint8)[:, 3:]  # the lead group is '000d'


_tables = functools.cache(_FormatTables)


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: x == high + low exactly, each with at most 26 significant bits."""
    t = _SPLITTER * x
    high = t - (t - x)
    return high, x - high


def require_features(ids: Iterable[str], present: Container[str]) -> None:
    """The one missing-features error: a ValueError counting and naming the `ids` not in `present`."""
    missing = sorted({pid for pid in ids if pid not in present})
    if missing:
        raise ValueError(f"pairs reference {len(missing)} post_ids without features: {missing[:5]}")


class FeatureBlocks:
    """A features file read as checked blocks of at most FEATURE_VALUES values each.

    Iterating yields (ids, matrix) blocks: the rows whose id is in `wanted`
    (every row when None) as a (len(ids), dim) float64 matrix. A block is the
    next max(1, FEATURE_VALUES // dim) lines of the file, blank ones included.
    Every line has its field count, its id and a repeated id checked; only the
    kept rows have their values parsed and checked finite. A bad header is a
    ValueError when the reader is made, and a bad row one when iteration
    reaches its block, naming the file's first bad line: every block before it
    passed. A block is parsed by numpy's C reader; one it does not take as it
    is, and one with a bad or repeated id or a non-finite value, is parsed row
    by row by `read_keyed_floats`, which parses with float() and names the
    first bad line. `file_rows` counts the rows checked, every row of the file
    once iterated.
    """

    def __init__(self, path: str | Path, wanted: Collection[str] | None = None):
        self.path, self.wanted, self.seen = path, wanted, set()
        with open(path, "r", encoding="utf-8") as f:
            line = f.readline().strip()
        name, sep, dim = line.partition(",dim=")
        if name != "post_id" or not sep or not dim.isdecimal() or int(dim) < 1:
            raise ValueError(f"line 1: expected the header 'post_id,dim=D' with D a positive integer, got {line!r}")
        self.dim = int(dim)

    @property
    def file_rows(self) -> int:
        return len(self.seen)  # each row's id joins `seen` once its row passes

    def __iter__(self) -> Iterator[tuple[list[str], np.ndarray]]:
        self.seen = set()
        with open(self.path, "r", encoding="utf-8") as f:
            f.readline()
            start, size = 2, max(1, FEATURE_VALUES // self.dim)
            while lines := list(islice(f, size)):
                block = _parse_block(lines, self.dim, self.wanted, self.seen)
                if block is None:
                    ids, flat = [], []
                    for post_id, values in read_keyed_floats(lines, self.dim, self.wanted, start, self.seen):
                        if values is not None:
                            ids.append(post_id)
                            flat += values
                    block = ids, np.array(flat, dtype=np.float64).reshape(-1, self.dim)
                start += len(lines)
                del lines  # not held while the caller works on the block
                if block[0]:
                    yield block


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


def read_keyed_floats(
    lines: Iterable[str], n_values: int, wanted: Container[str] | None = None, start: int = 2,
    seen: set[str] | None = None,
) -> Iterator[tuple[str, list[float] | None]]:
    """Yield (post_id, values) from CSV rows of an id and `n_values` floats.

    `lines` are a file's lines from line `start` on (by default, all after a
    one-line header); blank ones are skipped. A wrong field count, an id that
    breaks the id rule or an id repeated here or in `seen` (the ids of earlier
    rows, which takes each new one) raises a ValueError naming the line. Only a
    row whose id is in `wanted` (every row when None) has its values parsed,
    where a non-numeric or non-finite value raises the same way; any other row
    yields None as values.
    """
    seen = set() if seen is None else seen
    for lineno, line in enumerate(lines, start=start):
        if not line.strip():
            continue
        fields = line.rstrip("\n").split(",")
        post_id, values = fields[0], None
        try:
            if len(fields) != n_values + 1:
                raise ValueError(f"expected {n_values + 1} fields, got {len(fields)}")
            _check_id("post_id", post_id)
            if post_id in seen:
                raise ValueError(f"duplicate post_id {post_id!r}")
            if wanted is None or post_id in wanted:
                values = list(map(float, fields[1:]))
                if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):  # finite rows can sum to inf
                    raise ValueError(f"non-finite value for post_id {post_id!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        seen.add(post_id)
        yield post_id, values


def _parse_block(lines: list[str], dim: int, wanted: Collection[str] | None,
                 seen: set[str]) -> tuple[list[str], np.ndarray] | None:
    """The kept ids of the file `lines` and their (len(ids), dim) values, once every id keeps the id rule and is new
    to `seen`, which then takes them; None where the row parser must judge the block, as where numpy's reader and
    float() may differ."""
    every, ids, rows = [], [], []
    for line in lines:
        if line.isspace():
            continue
        post_id, _, values = line.partition(",")
        every.append(post_id)
        if wanted is None or post_id in wanted:
            ids.append(post_id)
            rows.append(values)
        elif line.count(",") != dim:  # a kept row's field count is checked by the shape of its block
            return None
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
    return ids, block
