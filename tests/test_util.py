"""Tests of poprank.util: the file digest and the holdout split."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from poprank.util import HASH_BUFFER, sha256_file, split_indices

B = HASH_BUFFER


@pytest.mark.parametrize("size", [0, 1, B - 1, B, B + 1, 3 * B + 5])
def test_sha256_file_is_the_sha256_of_the_bytes(tmp_path, size):
    data = np.random.default_rng(size).bytes(size)
    path = tmp_path / "data.bin"
    path.write_bytes(data)
    assert sha256_file(path) == sha256_file(str(path)) == hashlib.sha256(data).hexdigest()


def test_hashing_holds_one_small_buffer(tmp_path):
    """Reading the file a chunk at a time into new bytes held one chunk of 1 MiB while the next was read;
    hashing through one reused buffer holds that buffer alone."""
    data = bytes(8 << 20)
    path = tmp_path / "big.bin"
    path.write_bytes(data)
    tracemalloc.start()
    try:
        digest = sha256_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(data).hexdigest()
    assert peak < 512 * 2**10, peak


@pytest.mark.parametrize("fraction", [1.0, -0.1, float("nan")])
def test_split_indices_rejects_a_holdout_fraction_outside_0_1(fraction):
    with pytest.raises(ValueError, match=r"^holdout_fraction must be in \[0, 1\), got "):
        split_indices(10, fraction, np.random.default_rng(0))
