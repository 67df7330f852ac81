"""Popularity-discriminable pair mining.

Treats the log-scaled like count S of a post as a noisy observation of its
latent intrinsic popularity (S normal around the latent mean with std sigma).
For two posts of the same user, the probability that A is intrinsically more
popular than B given the observed evidence is

    P = Phi((S_A - S_B) / (sqrt(2) * sigma))

where Phi is the standard normal CDF; the sqrt(2) reflects the doubled
variance of the difference of two independent observations. A pair is emitted
when that probability clears the threshold T and the two posts are close
enough in time and caption context that non-visual factors roughly cancel:
same user, upload times within ten days, captions with identical hashtag and
mention multisets and at most six plain words, and each post in at most one
pair.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import SECONDS_PER_DAY, Post, PostTable, log_likes
from .util import _check_id, open_csv

# Zelen & Severo polynomial for the standard normal CDF (abs error <= 7.5e-8).
_CDF_P = 0.2316419
_CDF_B = (0.319381530, -0.356563782, 1.781477937, -1.821255978, 1.330274429)

BLOCK_POSTS = 1024  # candidate posts of whole users scored together; bounds the pair arrays


@dataclass(frozen=True)
class MinerConfig:
    """Mining thresholds; defaults follow the reference operating point."""

    threshold: float = 0.95  # minimum pair probability T
    sigma: float = 0.3  # std of the log-likes observation model
    max_interval_days: int = 10
    max_caption_words: int = 6
    reference_time: int = 0

    def __post_init__(self):
        if not 0.5 < self.threshold < 1.0:
            raise ValueError(f"threshold must be in (0.5, 1), got {self.threshold}")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if self.max_interval_days <= 0:
            raise ValueError(f"max_interval_days must be positive, got {self.max_interval_days}")
        if self.max_caption_words < 0:
            raise ValueError(f"max_caption_words must be >= 0, got {self.max_caption_words}")


@dataclass(frozen=True)
class PDIP:
    """An ordered popularity-discriminable pair: id_a is the more popular post."""

    id_a: str
    id_b: str
    user_id: str
    prob: float  # P(A intrinsically more popular than B), >= threshold
    delta_s: float  # S_A - S_B, >= 0 in canonical orientation


@dataclass(frozen=True)
class PairStats:
    n_pairs: int
    n_users: int
    mean_prob: float
    mean_interval_days: float


def normal_cdf(z: float | np.ndarray) -> float | np.ndarray:
    """Standard normal CDF, absolute error <= 7.5e-8 on [-8, 8], clamped to [0, 1].

    Rational polynomial approximation in 1/(1 + p|z|) weighted by the normal
    density; the negative branch uses the exact symmetry Phi(-z) = 1 - Phi(z).
    `z` is a float or an array; an array is mapped element by element with the
    same operations, so each element equals the scalar call bit for bit (the
    exponential is `math.exp`, whose last bit `np.exp` does not always match).
    """
    za = np.asarray(z, dtype=float)
    bad = za[~np.isfinite(za)]
    if bad.size:
        raise ValueError(f"normal_cdf requires finite z, got {bad[0]}")
    az = np.abs(za)
    t = 1.0 / (1.0 + _CDF_P * az)
    poly = t * (_CDF_B[0] + t * (_CDF_B[1] + t * (_CDF_B[2] + t * (_CDF_B[3] + t * _CDF_B[4]))))
    arg = -0.5 * az * az
    density = np.fromiter(map(math.exp, arg.ravel().tolist()), float, count=arg.size).reshape(arg.shape)
    upper = 1.0 - poly * density / math.sqrt(2.0 * math.pi)
    p = np.where(za == 0.0, 0.5, np.where(za > 0, upper, 1.0 - upper))
    p = np.minimum(1.0, np.maximum(0.0, p))
    return float(p) if p.ndim == 0 else p


def pdip_probability(s_a: float | np.ndarray, s_b: float | np.ndarray, sigma: float) -> float | np.ndarray:
    """Probability that the post with evidence s_a is intrinsically more popular.

    `s_a` and `s_b` are floats or arrays of the same shape.
    """
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    return normal_cdf((s_a - s_b) / (math.sqrt(2.0) * sigma))


def mine_pairs(posts: Sequence[Post], features_present: set[str] | None, config: MinerConfig) -> list[PDIP]:
    """Mine constraint-satisfying pairs from an already-filtered candidate pool.

    Each post gets a bucket: its user and caption key. Within a bucket, posts
    sorted by (upload_time, post_id) are paired with every later post at most
    `max_interval_days` after them, and the pairs clearing the threshold are
    matched greedily in descending probability order (ties broken by pair ids)
    so that no post joins more than one pair. Users are scored in blocks of
    whole users, about BLOCK_POSTS posts each; as pairs never cross users, the
    blocks and the numbering of users and buckets do not change the pairs.
    `features_present` of None admits every post; a repeated post_id is a
    ValueError. The result is sorted by (user_id, id_a) and fully deterministic.
    """
    table = PostTable.of(posts)
    if len(set(table.ids)) < len(table):
        seen: set[str] = set()
        for post_id in table.ids:
            if post_id in seen:
                raise ValueError(f"repeated post_id {post_id!r}")
            seen.add(post_id)
    admitted = (table.caption_words <= config.max_caption_words)[table.caption]
    if features_present is not None:
        admitted &= np.fromiter((pid in features_present for pid in table.ids), bool, count=len(table))
    rows = np.flatnonzero(admitted)
    rows = rows[np.argsort(table.user[rows], kind="stable")]
    user = table.user[rows]
    _, code = np.unique(user * (len(table.keys) + 1) + table.caption_key[table.caption[rows]], return_inverse=True)
    id_rank = np.empty(len(table), dtype=np.int64)
    id_rank[sorted(range(len(table)), key=table.ids.__getitem__)] = np.arange(len(table))

    result: list[PDIP] = []
    start = stop = 0
    for size in np.bincount(user).tolist():
        stop += size
        if stop - start >= BLOCK_POSTS:
            result.extend(_mine_block(table, rows[start:stop], code[start:stop], id_rank, config))
            start = stop
    result.extend(_mine_block(table, rows[start:stop], code[start:stop], id_rank, config))
    result.sort(key=lambda c: (c.user_id, c.id_a))
    return result


def _mine_block(table: PostTable, rows: np.ndarray, code: np.ndarray, id_rank: np.ndarray,
                config: MinerConfig) -> list[PDIP]:
    """Pairs among the posts at `rows` (whole users, bucket codes `code`); `id_rank` ranks `table` by post_id."""
    if not rows.size:
        return []
    upload_time, rank = table.upload_time[rows], id_rank[rows]
    order = np.lexsort((rank, upload_time, code))  # by (bucket, time, post_id)
    rows, code, upload_time, rank = rows[order], code[order], upload_time[order], rank[order]
    n = rows.size
    t_range = int(upload_time.max()) - int(upload_time.min())
    window = min(config.max_interval_days * SECONDS_PER_DAY, t_range)  # a longer window pairs no more
    if (n - 1) * (window + 1) + window >= 2**63:
        raise ValueError(f"max_interval_days {config.max_interval_days} is too large for {n} posts over {t_range} s")
    # key sums the time gaps (exact as uint64 for sorted int64), each capped at window + 1 as is a change of
    # bucket: two posts are within the window in key exactly when they share a bucket and are within it in time
    gap = np.minimum(np.diff(upload_time.view(np.uint64)), window + 1).astype(np.int64)
    gap[code[1:] != code[:-1]] = window + 1
    key = np.concatenate(([0], np.cumsum(gap)))

    ends = np.searchsorted(key, key + window, side="right")
    counts = ends - np.arange(1, n + 1)
    first = np.repeat(np.arange(n), counts)
    later = np.arange(first.size) - np.repeat(np.cumsum(counts) - counts, counts) + first + 1
    scores = np.array(list(map(log_likes, table.likes[rows].tolist())))
    first_hi = scores[first] >= scores[later]
    hi = np.where(first_hi, first, later)
    lo = np.where(first_hi, later, first)
    prob = pdip_probability(scores[hi], scores[lo], config.sigma)
    keep = prob >= config.threshold
    hi, lo, prob = hi[keep], lo[keep], prob[keep]

    order = np.lexsort((rank[lo], rank[hi], -prob))
    s, row, user = scores.tolist(), rows.tolist(), table.user[rows].tolist()
    used = bytearray(n)
    pairs: list[PDIP] = []
    for a, b, p in zip(hi[order].tolist(), lo[order].tolist(), prob[order].tolist()):
        if used[a] or used[b]:
            continue
        used[a] = used[b] = 1
        pairs.append(PDIP(table.ids[row[a]], table.ids[row[b]], table.users[user[a]], p, s[a] - s[b]))
    return pairs


def pair_stats(pairs: list[PDIP], posts: Sequence[Post]) -> PairStats:
    """Summary statistics of a mined pair list; pair ids must resolve in `posts`."""
    table = PostTable.of(posts)
    upload_time = dict(zip(table.ids, table.upload_time.tolist()))
    intervals = []
    for pair in pairs:
        for pid in (pair.id_a, pair.id_b):
            if pid not in upload_time:
                raise ValueError(f"pair references unknown post_id {pid!r}")
        intervals.append(abs(upload_time[pair.id_a] - upload_time[pair.id_b]) / SECONDS_PER_DAY)
    n = len(pairs)
    return PairStats(
        n_pairs=n,
        n_users=len({pair.user_id for pair in pairs}),
        mean_prob=sum(p.prob for p in pairs) / n if n else math.nan,
        mean_interval_days=sum(intervals) / n if n else math.nan,
    )


def write_pairs(path: str | Path, pairs: list[PDIP]) -> None:
    """Emit pairs as CSV: id_a, id_b, user_id, prob (6 decimals), delta_s."""
    with open_csv(path, "id_a,id_b,user_id,prob,delta_s") as f:
        for p in pairs:
            f.write(f"{p.id_a},{p.id_b},{p.user_id},{p.prob:.6f},{p.delta_s:.17g}\n")


def read_pairs(path: str | Path) -> list[PDIP]:
    """Read a pairs file; a malformed row or an id that breaks the id rule is a ValueError naming the line."""
    pairs = []
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        if header != "id_a,id_b,user_id,prob,delta_s":
            raise ValueError(f"unexpected pairs header: {header!r}")
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split(",")
            if len(parts) != 5:
                raise ValueError(f"line {lineno}: expected 5 fields, got {len(parts)}")
            id_a, id_b, user_id = parts[:3]
            try:
                for key, value in zip(("id_a", "id_b", "user_id"), parts):
                    _check_id(key, value)
                if id_a == id_b:
                    raise ValueError(f"post_id {id_a!r} is paired with itself")
                prob, delta_s = float(parts[3]), float(parts[4])
                if not 0.0 <= prob <= 1.0 or not math.isfinite(delta_s):
                    raise ValueError(f"prob must be in [0, 1] and delta_s finite, got {parts[3]}, {parts[4]}")
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            pairs.append(PDIP(id_a, id_b, user_id, prob, delta_s))
    return pairs
