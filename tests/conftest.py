"""Shared fixtures and independent oracles for the test suite.

The helpers here deliberately re-derive contracts from scratch (stdlib erf,
hand-rolled tokenization and predicates) so they stay independent of the
implementation paths they check.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from poprank import mlp, synthgen
from poprank.corpus import SECONDS_PER_DAY, Post, analyze_caption, log_likes
from poprank.mining import PDIP, MinerConfig

BASE = synthgen.BASE_TIME
DAY = SECONDS_PER_DAY


def make_post(
    post_id="p1",
    user_id="u1",
    upload_time=BASE,
    likes=100,
    caption="",
    media_count=1,
    is_video=False,
) -> Post:
    return Post(post_id, user_id, upload_time, likes, caption, media_count, is_video)


def exact_normal_cdf(z: float) -> float:
    """High-precision oracle via the standard library's correctly rounded erf."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _caption_parts(caption: str) -> tuple[Counter, Counter, int]:
    tags, ats = Counter(), Counter()
    words = 0
    for token in caption.split():
        token = token.lower()
        if token.startswith("#"):
            tags[token] += 1
        elif token.startswith("@"):
            ats[token] += 1
        else:
            words += 1
    return tags, ats, words


def audit_pairs(pairs: list[PDIP], posts: list[Post], config: MinerConfig) -> list[str]:
    """Re-check every mining constraint on every emitted pair, independently.

    Constraints: same user, upload interval within the window, compatible
    captions, discriminability probability >= threshold (recomputed with
    stdlib erf, 1e-6 slack for the miner's approximate CDF), canonical
    orientation, and no post in more than one pair.
    """
    by_id = {p.post_id: p for p in posts}
    usage: Counter = Counter()
    violations: list[str] = []
    for pair in pairs:
        a, b = by_id.get(pair.id_a), by_id.get(pair.id_b)
        if a is None or b is None:
            violations.append(f"{pair.id_a}/{pair.id_b}: unknown post id")
            continue
        usage[pair.id_a] += 1
        usage[pair.id_b] += 1
        if pair.id_a == pair.id_b:
            violations.append(f"{pair.id_a}: paired with itself")
        if a.user_id != b.user_id or pair.user_id != a.user_id:
            violations.append(f"{pair.id_a}/{pair.id_b}: different users")
        if abs(a.upload_time - b.upload_time) > config.max_interval_days * DAY:
            violations.append(f"{pair.id_a}/{pair.id_b}: interval too large")
        tags_a, ats_a, words_a = _caption_parts(a.caption)
        tags_b, ats_b, words_b = _caption_parts(b.caption)
        if tags_a != tags_b or ats_a != ats_b:
            violations.append(f"{pair.id_a}/{pair.id_b}: caption tags differ")
        if words_a > config.max_caption_words or words_b > config.max_caption_words:
            violations.append(f"{pair.id_a}/{pair.id_b}: caption too long")
        s_a, s_b = math.log1p(a.likes), math.log1p(b.likes)
        if s_a < s_b:
            violations.append(f"{pair.id_a}/{pair.id_b}: orientation not canonical")
        prob = exact_normal_cdf((s_a - s_b) / (math.sqrt(2.0) * config.sigma))
        if prob < config.threshold - 1e-6:
            violations.append(f"{pair.id_a}/{pair.id_b}: probability {prob} below threshold")
    violations.extend(f"{pid}: appears in {n} pairs" for pid, n in usage.items() if n > 1)
    return violations


def zero_gradients(model: mlp.MlpModel) -> mlp.Gradients:
    """All-zero gradients in the model's layout, for driving Adam by hand."""
    return mlp.Gradients(model.layer_dims, np.zeros_like(model.params), inputs=np.zeros((0, model.layer_dims[0])))


def baseline_forward(model, x_visual: np.ndarray, nv) -> float:
    """Predicted log-likes for one post, through the single-row forward pass."""
    q_vis = mlp.forward(model.visual_scorer, x_visual)
    return mlp.forward(model.head, np.concatenate(([q_vis], nv.transformed())))


def per_layer_adam_step(moments, model, grads, effective_lr, l2_penalty, step,
                        beta1=0.9, beta2=0.999, eps=1e-8) -> None:
    """Adam with coupled l2, one array at a time, as a reference for the flat update.

    `moments` is a list of (m, v) pairs, one per weight matrix and then one per
    bias vector; `step` is the 1-based step number.
    """
    c1 = 1.0 - beta1**step
    c2 = 1.0 - beta2**step
    thetas = model.weights + model.biases
    for theta, g, (m, v) in zip(thetas, grads.weights + grads.biases, moments):
        g = g + l2_penalty * theta
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        theta -= effective_lr * (m / c1) / (np.sqrt(v / c2) + eps)


def add_user_engagement(
    corpus: synthgen.SynthCorpus, beta: float = 1.0, seed: int = 123, user_noise: float = 0.0
):
    """Rescale likes with a per-user engagement effect and build non-visual features.

    Each user's posts have their log-likes shifted by
    beta * (ln(1+followers) - mean) plus an unobserved per-user residual of
    std `user_noise`, so absolute popularity is dominated by user-level
    factors (only partly visible through the follower count) while
    within-user differences still reflect the per-post latent signal.
    Returns (posts, nonvisual).
    """
    from dataclasses import replace

    from poprank.baseline import NonVisualFeatures

    rng = np.random.default_rng(seed)
    users = sorted({p.user_id for p in corpus.posts})
    followers = {u: float(np.round(np.exp(rng.normal(7.0, 1.2)))) for u in users}
    followings = {u: float(np.round(np.exp(rng.normal(5.5, 0.8)))) for u in users}
    residual = {u: float(rng.normal(0.0, user_noise)) if user_noise else 0.0 for u in users}
    n_posts = Counter(p.user_id for p in corpus.posts)
    mean_log_followers = np.mean([math.log1p(f) for f in followers.values()])

    posts = []
    nonvisual = {}
    for post in corpus.posts:
        user = post.user_id
        shift = beta * (math.log1p(followers[user]) - mean_log_followers) + residual[user]
        new_likes = max(0, round(math.exp(log_likes(post.likes) + shift) - 1.0))
        posts.append(replace(post, likes=new_likes))
        info = analyze_caption(post.caption)
        nonvisual[post.post_id] = NonVisualFeatures(
            followers=followers[user],
            followings=followings[user],
            n_posts=float(n_posts[user]),
            n_hashtags=float(sum(info.hashtags.values())),
            n_mentions=float(sum(info.mentions.values())),
            caption_length=float(info.word_count),
        )
    return posts, nonvisual


@pytest.fixture(scope="session")
def default_corpus() -> synthgen.SynthCorpus:
    return synthgen.generate_corpus(synthgen.SynthConfig(seed=20240501))


@pytest.fixture(scope="session")
def small_corpus() -> synthgen.SynthCorpus:
    return synthgen.generate_corpus(
        synthgen.SynthConfig(n_users=60, posts_per_user=8, time_span_days=60, seed=99)
    )
