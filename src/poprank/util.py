"""Shared helpers: named deterministic RNG streams, digests, splits, ids, CSV files."""

from __future__ import annotations

import hashlib
import os
import re
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Iterator, Sequence, TextIO

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


def _check_id(key: str, value) -> None:
    """Ids are written unquoted into CSV files, so they exclude ',', whitespace and control characters."""
    if not isinstance(value, str) or not value:
        raise ValueError(f"{key} must be a non-empty string")
    bad = _ID_FORBIDDEN.search(value)
    if bad:
        raise ValueError(f"{key} {value!r} contains {bad.group()!r}; ids exclude ',', whitespace and controls")


@contextmanager
def written_together(paths: Sequence[Path]) -> Iterator[list[TextIO]]:
    """Files to write, as UTF-8 with LF line ends, that appear at `paths` only together and whole.

    Each is written under its path plus ".partial"; when the block ends, they
    are renamed onto `paths`, and when it raises, they are removed.
    """
    parts = [path.with_name(path.name + ".partial") for path in paths]
    with ExitStack() as files:
        try:
            yield [files.enter_context(open(part, "w", encoding="utf-8", newline="\n")) for part in parts]
            files.close()
            for part, path in zip(parts, paths):
                os.replace(part, path)
        except BaseException:
            files.close()
            for part in parts:
                part.unlink(missing_ok=True)
            raise


def open_csv(path: str | Path, header: str) -> TextIO:
    """Open `path` for writing as UTF-8 with LF line ends and write the `header` line; the caller closes it."""
    f = open(path, "w", encoding="utf-8", newline="\n")
    f.write(header + "\n")
    return f
