"""Shared helpers: named deterministic RNG streams, digests, splits, formatting, CSV files."""

from __future__ import annotations

import hashlib
import math
import re
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

_ID_FORBIDDEN = re.compile(r"[,\s\x00-\x1f\x7f-\x9f]")  # comma, Unicode whitespace, Unicode control (Cc)


def seeded_rng(seed: int, *tags: str) -> np.random.Generator:
    """Derive an independent generator from a root seed and a name path.

    Every random draw in the pipeline flows from one root seed; distinct
    tag paths give statistically independent, platform-stable streams.
    """
    entropy = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for tag in tags:
        digest = hashlib.sha256(tag.encode("utf-8")).digest()
        entropy.extend(int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4))
    return np.random.default_rng(np.random.SeedSequence(entropy))


def split_indices(n: int, holdout_fraction: float, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Shuffle 0..n-1 and split off the last `holdout_fraction` as holdout."""
    if not 0.0 <= holdout_fraction < 1.0:
        raise ValueError(f"holdout_fraction must be in [0, 1), got {holdout_fraction}")
    perm = rng.permutation(n)
    n_holdout = int(round(n * holdout_fraction))
    return perm[: n - n_holdout], perm[n - n_holdout :]


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def fmt_float(x: float) -> str:
    """Decimal text form that round-trips float64 exactly (17 significant digits)."""
    return format(float(x), ".17g")


def _check_id(key: str, value) -> None:
    """Ids are written unquoted into CSV files, so they exclude ',', whitespace and control characters."""
    if not isinstance(value, str) or not value:
        raise ValueError(f"{key} must be a non-empty string")
    bad = _ID_FORBIDDEN.search(value)
    if bad:
        raise ValueError(f"{key} {value!r} contains {bad.group()!r}; ids exclude ',', whitespace and controls")


def open_csv(path: str | Path, header: str) -> TextIO:
    """Open `path` for writing as UTF-8 with LF line ends and write the `header` line; the caller closes it."""
    f = open(path, "w", encoding="utf-8", newline="\n")
    f.write(header + "\n")
    return f


def read_keyed_floats(lines: Iterable[str], n_values: int) -> Iterator[tuple[str, list[float]]]:
    """Yield (post_id, values) from CSV rows of an id and `n_values` floats.

    `lines` are the lines after a file's one-line header; blank ones are
    skipped. A wrong field count, an id that breaks the id rule, a repeated
    id or a non-numeric or non-finite value raises a ValueError naming the line.
    """
    seen: set[str] = set()
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        fields = line.rstrip("\n").split(",")
        post_id = fields[0]
        try:
            if len(fields) != n_values + 1:
                raise ValueError(f"expected {n_values + 1} fields, got {len(fields)}")
            _check_id("post_id", post_id)
            if post_id in seen:
                raise ValueError(f"duplicate post_id {post_id!r}")
            values = list(map(float, fields[1:]))
            if not math.isfinite(sum(values)) and not all(map(math.isfinite, values)):  # finite values can sum to inf
                raise ValueError(f"non-finite value for post_id {post_id!r}")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        seen.add(post_id)
        yield post_id, values
