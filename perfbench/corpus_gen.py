"""The benchmark's own seeded corpus generator.

It follows the paper's latent model: each post has a latent mean log-popularity
mu ~ N(MU_MEAN, MU_STD), observed log-likes S ~ N(mu, SIGMA) and
likes = max(0, round(exp(S) - 1)). Captions draw from small per-user hashtag
and mention pools, so the miner's caption rule binds; some posts carry more
than six plain words, some are multi-image, some are videos, some are too
young at the reference time and the low-mu tail falls under 50 likes, so
every filter rule fires. Feature vectors carry mu in their first
`n_informative` dimensions.

It is written apart from ``poprank.synthgen`` on purpose: the inputs stay
fixed when the program's synthetic streams change, and the checks get a
ground truth that the program did not make. Everything is vectorised, since
the benchmark sets up several times per run.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BASE_TIME = 1_600_000_000
DAY = 86400
SPAN_DAYS = 90  # uploads are uniform over this span; the reference time is its end
MU_MEAN, MU_STD, SIGMA = 6.0, 1.0, 0.3
MU_OFFSET = 3.0  # informative feature k is coef_k * (mu - MU_OFFSET) + N(0, FEATURE_NOISE)
FEATURE_NOISE, OTHER_STD = 0.25, 0.3
DECIMALS = 15  # features are integers over 10**15; 9.5 * 10**15 < 2**53 keeps them exact
MIN_LIKES, MIN_AGE_DAYS = 50, 30
N_TAGS, N_MENTIONS, N_WORDS = 30, 20, 50  # vocabularies the per-user pools draw from

# Caption tokens; the upper-case half checks that matching lower-cases them.
VOCAB = ([f"word{k:03d}" for k in range(N_WORDS)] + [f"WORD{k:03d}" for k in range(N_WORDS)]
         + [f"#tag{k:03d}" for k in range(N_TAGS)] + [f"#TAG{k:03d}" for k in range(N_TAGS)]
         + [f"@user{k:03d}" for k in range(N_MENTIONS)] + [f"@USER{k:03d}" for k in range(N_MENTIONS)])
TAG0, MENTION0 = 2 * N_WORDS, 2 * N_WORDS + 2 * N_TAGS


@dataclass(frozen=True)
class Shape:
    n_users: int
    posts_per_user: int
    feature_dim: int
    n_informative: int
    bare_share: float = 0.2  # posts with neither hashtags nor mentions

    @property
    def reference_time(self) -> int:
        return BASE_TIME + SPAN_DAYS * DAY


@dataclass
class Corpus:
    """Generated records, kept column-wise, plus the ground truth."""

    shape: Shape
    post_ids: list[str]
    user_ids: list[str]
    upload: np.ndarray
    likes: np.ndarray
    media: np.ndarray
    video: np.ndarray
    captions: list[str]
    hashtags: np.ndarray  # one code per hashtag multiset; 0 = none
    mentions: np.ndarray  # one code per mention multiset; 0 = none
    words: np.ndarray  # plain-word count per caption
    mu: np.ndarray
    fixed: np.ndarray  # (n, feature_dim) int64; the features are fixed / 10**DECIMALS

    @property
    def n(self) -> int:
        return len(self.post_ids)

    @property
    def features(self) -> np.ndarray:
        return self.fixed / 10.0**DECIMALS

    def eligible(self) -> np.ndarray:
        """The candidate filter's rules, restated from the README."""
        age = self.shape.reference_time - self.upload
        return (self.likes >= MIN_LIKES) & (self.media == 1) & ~self.video & (age >= MIN_AGE_DAYS * DAY)


def _multiset(count: np.ndarray, a: np.ndarray, b: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Code of the multiset of the first `count` of (a, b), and an (n, 2) token slot array."""
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    code = np.select([count == 0, count == 1], [0, 1 + a], 1 + size + lo * size + hi)
    slots = np.stack([np.where(count >= 1, a, -1), np.where(count >= 2, b, -1)], axis=1)
    return code, slots


def generate(shape: Shape, seed: int, name: str) -> Corpus:
    """Deterministic corpus for (shape, seed, workload name)."""
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    U, P = shape.n_users, shape.posts_per_user
    n = U * P
    user = np.repeat(np.arange(U), P)
    mu = rng.normal(MU_MEAN, MU_STD, n)
    likes = np.maximum(0, np.rint(np.expm1(rng.normal(mu, SIGMA)))).astype(np.int64)
    upload = BASE_TIME + rng.integers(0, SPAN_DAYS * DAY, n)
    media = np.where(rng.random(n) < 0.9, 1, rng.integers(2, 5, n))
    video = rng.random(n) < 0.08

    bare = rng.random(n) < shape.bare_share
    n_tags = np.where(bare, 0, rng.choice(3, n, p=[0.45, 0.35, 0.2]))
    n_ments = np.where(bare, 0, rng.choice(3, n, p=[0.5, 0.35, 0.15]))
    n_words = np.where(rng.random(n) < 0.2, 0, rng.geometric(0.4, n))
    picks = rng.integers(0, 2, (n, 4))
    tag_pool = rng.integers(0, N_TAGS, (U, 2))[user]
    ment_pool = rng.integers(0, N_MENTIONS, (U, 2))[user]
    rows = np.arange(n)
    hashtags, tag_slots = _multiset(n_tags, tag_pool[rows, picks[:, 0]], tag_pool[rows, picks[:, 1]], N_TAGS)
    mentions, ment_slots = _multiset(
        n_ments, ment_pool[rows, picks[:, 2]], ment_pool[rows, picks[:, 3]], N_MENTIONS
    )
    max_words = int(n_words.max())
    word_slots = np.where(np.arange(max_words) < n_words[:, None], rng.integers(0, N_WORDS, (n, max_words)), -1)
    slots = np.concatenate([word_slots, tag_slots, ment_slots], axis=1)
    first = np.array([0] * max_words + [TAG0] * 2 + [MENTION0] * 2)
    case = np.array([N_WORDS] * max_words + [N_TAGS] * 2 + [N_MENTIONS] * 2)
    tokens = np.where(slots >= 0, first + slots + case * (rng.random(slots.shape) < 0.1), -1)
    captions = [" ".join([VOCAB[t] for t in row if t >= 0]) for row in tokens.tolist()]

    k = shape.n_informative
    features = rng.normal(0.0, OTHER_STD, (n, shape.feature_dim))
    coef = rng.uniform(0.5, 1.2, k)
    features[:, :k] = coef * (mu[:, None] - MU_OFFSET) + rng.normal(0.0, FEATURE_NOISE, (n, k))
    fixed = np.rint(np.clip(features, -9.5, 9.5) * 10.0**DECIMALS).astype(np.int64)

    user_ids = [f"u{u:05d}" for u in range(U) for _ in range(P)]
    post_ids = [f"u{u:05d}_p{i:04d}" for u in range(U) for i in range(P)]
    return Corpus(
        shape=shape, post_ids=post_ids, user_ids=user_ids, upload=upload, likes=likes, media=media,
        video=video, captions=captions, hashtags=hashtags, mentions=mentions, words=n_words, mu=mu,
        fixed=fixed,
    )


def write_posts(path: Path, c: Corpus) -> None:
    """One JSON object per line with the documented fields.

    Ids and captions hold only letters, digits, '_', '#', '@' and spaces, so
    no character needs a JSON escape.
    """
    lines = [
        f'{{"post_id": "{pid}", "user_id": "{uid}", "upload_time": {t}, "likes": {n}, '
        f'"caption": "{cap}", "media_count": {m}, "is_video": {"true" if v else "false"}}}\n'
        for pid, uid, t, n, cap, m, v in zip(c.post_ids, c.user_ids, c.upload.tolist(), c.likes.tolist(),
                                             c.captions, c.media.tolist(), c.video.tolist())
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(lines)


def format_fixed(fixed: np.ndarray) -> np.ndarray:
    """Text of each value fixed / 10**DECIMALS as uint8 codes, shape (n, d, DECIMALS + 4).

    Each field is ``[-]D.DDD...`` plus a trailing ',' ('\\n' after the last
    one); a 0 code marks the sign slot of a non-negative value, to be dropped.
    Python's ``float`` parses each field back to exactly fixed / 10**DECIMALS,
    since both operands of that division are exact doubles. Built with array
    arithmetic: formatting one value at a time costs about 1 us on a small
    host, which would make set-up dominate the run.
    """
    q = np.abs(fixed)
    n, d = fixed.shape
    out = np.empty((n, d, DECIMALS + 4), np.uint8)
    out[..., 0] = np.where(fixed < 0, ord("-"), 0)
    out[..., 1] = ord("0") + q // 10**DECIMALS
    out[..., 2] = ord(".")
    for k in range(DECIMALS):
        out[..., 3 + k] = ord("0") + q // 10 ** (DECIMALS - 1 - k) % 10
    out[..., -1] = ord(",")
    out[:, -1, -1] = ord("\n")
    return out


def write_features(path: Path, c: Corpus) -> None:
    """Header ``post_id,dim=D`` then one CSV row of id and values per post."""
    ids = np.frombuffer("".join(pid + "," for pid in c.post_ids).encode(), np.uint8).reshape(c.n, -1)
    rows = np.concatenate([ids, format_fixed(c.fixed).reshape(c.n, -1)], axis=1)
    with open(path, "wb") as f:
        f.write(f"post_id,dim={c.shape.feature_dim}\n".encode())
        f.write(rows[rows != 0].tobytes())
