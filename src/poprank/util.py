"""Shared helpers: named deterministic RNG streams, digests, splits, ids, CSV files."""

from __future__ import annotations

import hashlib
import re
from pathlib import Path
from typing import TextIO

import numpy as np

# comma, Unicode whitespace, Unicode control (Cc), and a surrogate, which no UTF-8 file can hold
_ID_FORBIDDEN = re.compile(r"[,\s\x00-\x1f\x7f-\x9f\ud800-\udfff]")


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


HASH_BUFFER = 1 << 18  # bytes of a file read at a time, into the one buffer `sha256_file` reuses


def sha256_file(path: str | Path) -> str:
    """The hex sha256 of a file, read into one reused buffer of `HASH_BUFFER` bytes, so no read allocates."""
    h = hashlib.sha256()
    buffer = memoryview(bytearray(HASH_BUFFER))
    with open(path, "rb", buffering=0) as f:
        while n := f.readinto(buffer):
            h.update(buffer[:n])
    return h.hexdigest()


def _check_id(key: str, value) -> None:
    """Ids are written unquoted into UTF-8 CSV files, so they exclude ',', whitespace, controls and surrogates."""
    if not isinstance(value, str) or not value:
        raise ValueError(f"{key} must be a non-empty string")
    bad = _ID_FORBIDDEN.search(value)
    if bad:
        raise ValueError(
            f"{key} {value!r} contains {bad.group()!r}; ids exclude ',', whitespace, controls and surrogates"
        )


def open_csv(path: str | Path, header: str) -> TextIO:
    """Open `path` for writing as UTF-8 with LF line ends and write the `header` line; the caller closes it."""
    f = open(path, "w", encoding="utf-8", newline="\n")
    f.write(header + "\n")
    return f
