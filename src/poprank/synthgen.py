"""Synthetic corpora with known latent intrinsic popularity.

Each post draws a latent mean log-popularity mu from N(mu_mean, mu_std); the
observed log-likes evidence is S ~ N(mu, sigma_true), inverted to a like
count via likes = max(0, round(exp(S) - 1)) so generator and miner share one
scale. Feature vectors carry the latent signal in the first n_informative
dimensions (a_k * mu plus noise, coefficients fixed per corpus); the rest are
pure noise. Captions, upload times and media types are drawn to exercise
every mining constraint, including empty and over-long captions and a natural
low-mu tail that falls under the 50-likes floor. Everything is deterministic
given the seed, with per-user derived streams so users can be generated in
parallel.

The order of the draws on a user's stream is the corpus format: a seed gives
the same bytes only while every draw is made in the same order with the same
arguments, so changing that order changes every synthetic output. A user's
stream draws each quantity once, as one array over the user's P posts, in this
order:

1. the user's two hashtags and two mentions, `integers(0, vocab, size=2)` each;
2. mu, `normal(mu_mean, mu_std, size=P)`, then S, `normal(mu, sigma_true)`;
3. the hashtag-count and mention-count indices, `integers(0, 20, size=P)` each;
4. the bare-caption flags, `random(P) < 0.15`, then the word counts,
   `geometric(0.4, size=P)`;
5. the word, hashtag and mention picks, one `integers` array each over all the
   user's tokens of that kind, in post order;
6. the upload times, `integers(0, span_s, size=P)`;
7. the multi-image flags, `random(P) >= 0.9`, then their media counts,
   `integers(2, 5, size=P)`;
8. the video flags, `random(P) < 0.08`;
9. one sort key per token, `random(n_tokens)`, taken by the word picks, then
   the hashtag picks, then the mention picks of step 5: each post's tokens are
   joined in the order of their keys (a tie keeps step 5's order);
10. the feature rows, `normal(0, 1, size=(P, D))`, then the noise of their
    informative columns, `normal(0, noise, size=(P, n_informative))`.

The Python left per post joins its caption and makes its like count and id.
`generate_users` yields the corpus one user at a time, each user's posts as
columns, so `synth` writes blocks of a few users' rows as they are drawn and
never builds a `Post`; `generate_corpus` collects them in memory as posts.
`tests/test_synthgen.py` checks the generator against a reference that makes
the same draws and builds one post at a time.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import islice
from typing import TextIO

import numpy as np

from .corpus import INT64_MAX, SECONDS_PER_DAY, Post
from .features import FeatureSet
from .mining import PDIP
from .util import seeded_rng

BASE_TIME = 1_600_000_000  # fixed epoch origin of synthetic upload times
MAX_TIME_SPAN_DAYS = (INT64_MAX - BASE_TIME) // SECONDS_PER_DAY  # every upload time and the reference time fit int64
LOG_FLOAT_MAX = math.log(sys.float_info.max)  # like counts are round(exp(log-likes) - 1)
LATENTS_HEADER = "post_id,mu"
# A post's hashtag and mention counts: the entry at a uniform index
_HASHTAG_COUNTS = np.array([0] * 11 + [1] * 6 + [2] * 3)
_MENTION_COUNTS = np.array([0] * 12 + [1] * 6 + [2] * 2)
_N_WORDS = 50
_WORDS = [f"word{k:03d}" for k in range(_N_WORDS)]


@dataclass(frozen=True)
class SynthConfig:
    n_users: int = 800
    posts_per_user: int = 12
    mu_mean: float = 6.0
    mu_std: float = 1.0
    sigma_true: float = 0.3  # matches the miner's default sigma
    feature_dim: int = 16
    n_informative: int = 4
    feature_noise_std: float = 0.25
    hashtag_vocab: int = 30
    mention_vocab: int = 20
    time_span_days: int = 90
    seed: int = 0

    def __post_init__(self):
        if self.n_users < 1 or self.posts_per_user < 1:
            raise ValueError("n_users and posts_per_user must be >= 1")
        if self.feature_dim < 1 or not 0 <= self.n_informative <= self.feature_dim:
            raise ValueError("feature_dim must be >= 1 and n_informative in [0, feature_dim]")
        if not all(0.0 <= std < math.inf for std in (self.mu_std, self.sigma_true, self.feature_noise_std)):
            raise ValueError("std parameters must be finite and >= 0")
        if not 1 <= self.time_span_days <= MAX_TIME_SPAN_DAYS:
            raise ValueError(f"time_span_days must be in [1, {MAX_TIME_SPAN_DAYS}]")
        if not (1 <= self.hashtag_vocab <= 2**63 and 1 <= self.mention_vocab <= 2**63):  # numpy's int64 `integers`
            raise ValueError("hashtag_vocab and mention_vocab must be in [1, 2**63]")
        if self.posts_per_user * self.feature_dim > sys.maxsize // 8:  # a user's feature rows: one float64 array
            raise ValueError(f"posts_per_user * feature_dim must be at most {sys.maxsize // 8}")
        # numpy's normal draws stay within about 14 stds; with 40, exp(log-likes) and the features stay finite
        if not abs(self.mu_mean) + 40.0 * (self.mu_std + self.sigma_true) < LOG_FLOAT_MAX:
            raise ValueError(f"mu_mean must be finite, with |mu_mean| + 40 * (mu_std + sigma_true) < {LOG_FLOAT_MAX:.2f}")


@dataclass
class SynthCorpus:
    posts: list[Post]
    features: FeatureSet
    latent_mu: dict[str, float]


def reference_time_for(config: SynthConfig) -> int:
    """Download-time convention for a generated corpus: the end of its span."""
    return BASE_TIME + config.time_span_days * SECONDS_PER_DAY


def generate_users(config: SynthConfig) -> Iterator[tuple[tuple[list, ...], np.ndarray, list[float]]]:
    """Generate a deterministic corpus one user at a time, with per-post latent popularity.

    Yields each user's posts as seven lists in `POST_FIELDS` order (post_id,
    user_id, upload_time, likes, caption, media_count, is_video), the (P, D)
    feature rows of those posts and each post's latent mu, in user order.
    Each user's stream draws each quantity once, as one array over the
    user's posts, in the order the module docstring gives. A like count of
    2**63 or more (exp(S) passes 2**63 at S = 43.7, so only a large `mu_mean`
    draws one) is saturated at INT64_MAX, so every post fits the posts format.
    """
    informative = seeded_rng(config.seed, "informative-coefficients").uniform(
        0.5, 1.5, size=config.n_informative
    )
    n, n_informative = config.posts_per_user, config.n_informative
    span_s = config.time_span_days * SECONDS_PER_DAY
    owners = np.tile(np.arange(n), 3)  # the post of each entry of a user's word, hashtag and mention counts
    suffixes = [f"_p{i:03d}" for i in range(n)]  # after `owners`: a size numpy refuses fails before this list grows
    for u in range(config.n_users):
        user_id = f"u{u:05d}"
        rng = seeded_rng(config.seed, "user", user_id)
        integers, random = rng.integers, rng.random
        # token codes index the vocabulary: the 50 words, then the two hashtags, then the two mentions
        vocabulary = np.array(_WORDS + [f"#tag{k:03d}" for k in integers(0, config.hashtag_vocab, size=2)]
                              + [f"@user{k:03d}" for k in integers(0, config.mention_vocab, size=2)], dtype=object)
        mu = rng.normal(config.mu_mean, config.mu_std, size=n)
        log_likes = rng.normal(mu, config.sigma_true)
        n_hash = _HASHTAG_COUNTS[integers(0, _HASHTAG_COUNTS.size, size=n)]
        n_ment = _MENTION_COUNTS[integers(0, _MENTION_COUNTS.size, size=n)]
        bare = random(n) < 0.15
        n_words = np.where(bare, 0, rng.geometric(0.4, size=n))
        counts = np.concatenate([n_words, n_hash, n_ment])
        codes = np.concatenate([integers(0, _N_WORDS, size=n_words.sum()),
                                integers(_N_WORDS, _N_WORDS + 2, size=n_hash.sum()),
                                integers(_N_WORDS + 2, _N_WORDS + 4, size=n_ment.sum())])
        upload_times = BASE_TIME + integers(0, span_s, size=n)
        multi = random(n) >= 0.9
        media_counts = np.where(multi, integers(2, 5, size=n), 1)
        videos = random(n) < 0.08
        keys = random(codes.size)  # each post's tokens in the order of their keys
        tokens = iter(vocabulary[codes[np.lexsort((keys, np.repeat(owners, counts)))]].tolist())
        rows = rng.normal(0.0, 1.0, size=(n, config.feature_dim))
        rows[:, :n_informative] = informative * mu[:, None] + rng.normal(
            0.0, config.feature_noise_std, size=(n, n_informative)
        )

        # math.exp, not numpy's: numpy's may differ in the last bit between CPUs, and a like count above 2**53
        # or on a rounding tie shows that bit
        likes = [min(max(0, round(math.exp(s) - 1.0)), INT64_MAX) for s in log_likes.tolist()]
        captions = [" ".join(islice(tokens, k)) for k in (n_words + n_hash + n_ment).tolist()]
        columns = ([user_id + suffix for suffix in suffixes], [user_id] * n, upload_times.tolist(), likes, captions,
                   media_counts.tolist(), videos.tolist())
        yield columns, rows, mu.tolist()


def generate_corpus(config: SynthConfig) -> SynthCorpus:
    """The corpus `generate_users` draws, collected in memory."""
    posts, latent_mu = [], {}
    n = config.posts_per_user
    matrix = np.empty((config.n_users * n, config.feature_dim))
    for u, (columns, rows, mu) in enumerate(generate_users(config)):
        matrix[u * n : (u + 1) * n] = rows
        posts += map(Post, *columns)
        latent_mu.update(zip(columns[0], mu))
    return SynthCorpus(posts, FeatureSet([p.post_id for p in posts], matrix), latent_mu)


def oracle_label(pair: PDIP, latent: dict[str, float]) -> bool:
    """True iff the pair's more-popular post is latently more popular (strict)."""
    for pid in (pair.id_a, pair.id_b):
        if pid not in latent:
            raise ValueError(f"no latent value for post_id {pid!r}")
    return latent[pair.id_a] > latent[pair.id_b]


def latent_consistency(pairs: list[PDIP], latent: dict[str, float]) -> float:
    """Fraction of pairs whose orientation matches the latent ground truth."""
    if not pairs:
        raise ValueError("latent_consistency requires a non-empty pair list")
    return sum(oracle_label(p, latent) for p in pairs) / len(pairs)


def write_latents(f: TextIO, ids: Iterable[str], mus: Iterable[float]) -> None:
    f.writelines("%s,%.17g\n" % row for row in zip(ids, mus))
