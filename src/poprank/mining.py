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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import SECONDS_PER_DAY, CaptionInfo, Post, analyze_caption, log_likes
from .util import _check_id, open_csv

# Zelen & Severo polynomial for the standard normal CDF (abs error <= 7.5e-8).
_CDF_P = 0.2316419
_CDF_B = (0.319381530, -0.356563782, 1.781477937, -1.821255978, 1.330274429)

BLOCK_POSTS = 2048  # candidate posts of whole users scored together; bounds the pair arrays


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


def caption_key(info: CaptionInfo, max_words: int) -> tuple[frozenset, frozenset] | None:
    """Caption context that pairs must share: the hashtag and mention multisets.

    Two short captions are compatible iff their keys are equal (`analyze_caption`
    stores no zero counts, so this is `Counter` equality). A caption with more
    than `max_words` plain words pairs with nothing and has the key None.
    """
    if info.word_count > max_words:
        return None
    return frozenset(info.hashtags.items()), frozenset(info.mentions.items())


def mine_pairs(posts: list[Post], features_present: set[str] | None, config: MinerConfig) -> list[PDIP]:
    """Mine constraint-satisfying pairs from an already-filtered candidate pool.

    Each post gets a bucket: its user and caption key. Within a bucket, posts
    sorted by (upload_time, post_id) are paired with every later post at most
    `max_interval_days` after them, and the pairs clearing the threshold are
    matched greedily in descending probability order (ties broken by pair ids)
    so that no post joins more than one pair. Users are scored in blocks of
    about BLOCK_POSTS posts. `features_present` of None admits every post; a
    repeated post_id is a ValueError. The result is sorted by (user_id, id_a)
    and fully deterministic.
    """
    seen: set[str] = set()
    codes: dict[tuple, int] = {}  # (user_id, caption key) -> bucket code
    by_user: dict[str, list[tuple[int, Post]]] = {}
    for post in posts:
        if post.post_id in seen:
            raise ValueError(f"repeated post_id {post.post_id!r}")
        seen.add(post.post_id)
        if features_present is None or post.post_id in features_present:
            key = caption_key(analyze_caption(post.caption), config.max_caption_words)
            if key is not None:
                code = codes.setdefault((post.user_id, key), len(codes))
                by_user.setdefault(post.user_id, []).append((code, post))

    result: list[PDIP] = []
    block: list[tuple[int, Post]] = []
    for group in by_user.values():
        block.extend(group)
        if len(block) >= BLOCK_POSTS:
            result.extend(_mine_block(block, config))
            block = []
    result.extend(_mine_block(block, config))
    result.sort(key=lambda c: (c.user_id, c.id_a))
    return result


def _mine_block(block: list[tuple[int, Post]], config: MinerConfig) -> list[PDIP]:
    """Pairs among (bucket code, post) items of whole users; a bucket holds one user's posts."""
    if not block:
        return []
    t0 = min(post.upload_time for _, post in block)
    t_range = max(post.upload_time for _, post in block) - t0
    window = min(config.max_interval_days * SECONDS_PER_DAY, t_range)  # a longer window pairs no more
    span = t_range + window + 1
    if (max(code for code, _ in block) + 1) * span >= 2**63:
        raise ValueError(f"upload times span {t_range} s, too wide to mine")
    # code * span + (t - t0) orders by (bucket, time), and a window never reaches the next bucket
    keyed = sorted((code * span + post.upload_time - t0, post.post_id, post) for code, post in block)
    key = np.array([k for k, _, _ in keyed], dtype=np.int64)
    group = [post for _, _, post in keyed]
    n = len(group)

    ends = np.searchsorted(key, key + window, side="right")
    counts = ends - np.arange(1, n + 1)
    first = np.repeat(np.arange(n), counts)
    later = np.arange(first.size) - np.repeat(np.cumsum(counts) - counts, counts) + first + 1
    scores = np.array([log_likes(post.likes) for post in group])
    first_hi = scores[first] >= scores[later]
    hi = np.where(first_hi, first, later)
    lo = np.where(first_hi, later, first)
    prob = pdip_probability(scores[hi], scores[lo], config.sigma)
    keep = prob >= config.threshold
    hi, lo, prob = hi[keep], lo[keep], prob[keep]

    rank = np.empty(n, dtype=np.int64)
    rank[sorted(range(n), key=lambda k: group[k].post_id)] = np.arange(n)
    order = np.lexsort((rank[lo], rank[hi], -prob))
    s = scores.tolist()
    used = bytearray(n)
    pairs: list[PDIP] = []
    for a, b, p in zip(hi[order].tolist(), lo[order].tolist(), prob[order].tolist()):
        if used[a] or used[b]:
            continue
        used[a] = used[b] = 1
        pairs.append(PDIP(group[a].post_id, group[b].post_id, group[a].user_id, p, s[a] - s[b]))
    return pairs


def pair_stats(pairs: list[PDIP], posts: list[Post]) -> PairStats:
    """Summary statistics of a mined pair list; pair ids must resolve in `posts`."""
    upload_time = {p.post_id: p.upload_time for p in posts}
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
            f.write(f"{p.id_a},{p.id_b},{p.user_id},{p.prob:.6f},{format(p.delta_s, '.17g')}\n")


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
