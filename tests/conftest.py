"""Shared fixtures and independent oracles for the test suite.

The helpers here deliberately re-derive contracts from scratch (stdlib erf,
hand-rolled tokenization and predicates) so they stay independent of the
implementation paths they check.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from poprank import mlp, ranker, synthgen
from poprank.corpus import POST_FIELDS, SECONDS_PER_DAY, Post, log_likes, post_lines
from poprank.features import FeatureSet, header, write_rows
from poprank.mining import PDIP, MinerConfig
from poprank.util import _check_id, open_csv, seeded_rng

# Zelen & Severo coefficients, as in poprank.mining
_CDF_P = 0.2316419
_CDF_B = (0.319381530, -0.356563782, 1.781477937, -1.821255978, 1.330274429)

BASE = synthgen.BASE_TIME
DAY = SECONDS_PER_DAY

# ids as `corpus.parse_posts` accepts them: no ',', whitespace or control characters (and no surrogates)
legal_ids = st.text(st.characters(exclude_categories=("Cc", "Cs", "Z"), exclude_characters=","), min_size=1, max_size=8)


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


def _reference_post(record: dict) -> Post:
    """Check one decoded record rule by rule; the first rule it breaks raises ValueError."""
    missing = [k for k in POST_FIELDS if k not in record]
    if missing:
        raise ValueError(f"missing fields {missing}")
    _check_id("post_id", record["post_id"])
    _check_id("user_id", record["user_id"])
    if not isinstance(record["caption"], str):
        raise ValueError("caption must be a string")
    for key in ("upload_time", "likes", "media_count"):
        if not isinstance(record[key], int) or isinstance(record[key], bool):
            raise ValueError(f"{key} must be an integer")
    if record["likes"] < 0:
        raise ValueError("likes must be >= 0")
    if record["media_count"] < 1:
        raise ValueError("media_count must be >= 1")
    if not isinstance(record["is_video"], bool):
        raise ValueError("is_video must be a boolean")
    for key in ("upload_time", "likes", "media_count"):
        if not -(2**63) <= record[key] < 2**63:
            raise ValueError(f"{key} must fit in a signed 64-bit integer")
    return Post(*[record[k] for k in POST_FIELDS])


def reference_parse_posts(lines) -> tuple[list[Post], list[str]]:
    """The posts parser one line at a time: the oracle for `corpus.parse_posts`.

    Each line is decoded and checked on its own; a malformed line, or a
    post_id that an earlier accepted line holds, becomes a diagnostic.
    """
    posts: list[Post] = []
    diagnostics: list[str] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
            post = _reference_post(record)
        except (ValueError, RecursionError) as exc:
            diagnostics.append(f"line {lineno}: {exc}")
            continue
        if post.post_id in seen:
            diagnostics.append(f"line {lineno}: duplicate post_id {post.post_id!r}")
            continue
        seen.add(post.post_id)
        posts.append(post)
    return posts, diagnostics


def exact_normal_cdf(z: float) -> float:
    """High-precision oracle via the standard library's correctly rounded erf."""
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def scalar_normal_cdf(z: float) -> float:
    """The miner's CDF approximation in plain float arithmetic, one value at a time.

    Same operations in the same order as `poprank.mining.normal_cdf`, so the
    two agree bit for bit; kept as the scalar reference for the array path.
    """
    if z == 0.0:
        return 0.5
    az = abs(z)
    t = 1.0 / (1.0 + _CDF_P * az)
    poly = t * (_CDF_B[0] + t * (_CDF_B[1] + t * (_CDF_B[2] + t * (_CDF_B[3] + t * _CDF_B[4]))))
    upper = 1.0 - poly * math.exp(-0.5 * az * az) / math.sqrt(2.0 * math.pi)
    p = upper if z > 0 else 1.0 - upper
    return min(1.0, max(0.0, p))


# the hashtag and mention counts of a synthetic post, at a uniform index
_HASHTAG_COUNTS = (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2, 2)
_MENTION_COUNTS = (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 2, 2)


def reference_generate_corpus(config: synthgen.SynthConfig) -> synthgen.SynthCorpus:
    """The generator one post at a time: the oracle for `generate_corpus`.

    It makes the same array draws on the same per-user streams in the same
    order, then builds each post in plain Python from its entries of those
    arrays, with its tokens ordered by `sorted` on their keys. So the two must
    agree bit for bit: posts, latents and feature matrix.
    """
    informative = seeded_rng(config.seed, "informative-coefficients").uniform(
        0.5, 1.5, size=config.n_informative
    )
    n, n_informative = config.posts_per_user, config.n_informative
    span_s = config.time_span_days * SECONDS_PER_DAY
    posts, latent_mu = [], {}
    matrix = np.empty((config.n_users * n, config.feature_dim))
    for u in range(config.n_users):
        user_id = f"u{u:05d}"
        rng = seeded_rng(config.seed, "user", user_id)
        hash_pool = [f"#tag{k:03d}" for k in rng.integers(0, config.hashtag_vocab, size=2)]
        mention_pool = [f"@user{k:03d}" for k in rng.integers(0, config.mention_vocab, size=2)]
        mu = rng.normal(config.mu_mean, config.mu_std, size=n)
        log_likes = rng.normal(mu, config.sigma_true).tolist()
        n_hash = [_HASHTAG_COUNTS[k] for k in rng.integers(0, 20, size=n).tolist()]
        n_ment = [_MENTION_COUNTS[k] for k in rng.integers(0, 20, size=n).tolist()]
        bare = rng.random(n).tolist()
        geometric = rng.geometric(0.4, size=n).tolist()
        n_words = [0 if b < 0.15 else g for b, g in zip(bare, geometric)]
        picks = [iter(rng.integers(0, k, size=sum(c)).tolist()) for k, c in ((50, n_words), (2, n_hash), (2, n_ment))]
        upload = rng.integers(0, span_s, size=n).tolist()
        multi = rng.random(n).tolist()
        media = rng.integers(2, 5, size=n).tolist()
        video = rng.random(n).tolist()
        n_words_all, n_hash_all = sum(n_words), sum(n_hash)
        keys = rng.random(n_words_all + n_hash_all + sum(n_ment)).tolist()
        keys = [iter(keys[:n_words_all]), iter(keys[n_words_all : n_words_all + n_hash_all]),
                iter(keys[n_words_all + n_hash_all :])]
        values = rng.normal(0.0, 1.0, size=(n, config.feature_dim))
        noise = rng.normal(0.0, config.feature_noise_std, size=(n, n_informative))
        for i in range(n):
            post_id = f"{user_id}_p{i:03d}"
            keyed = [(next(keys[0]), f"word{next(picks[0]):03d}") for _ in range(n_words[i])]
            keyed += [(next(keys[1]), hash_pool[next(picks[1])]) for _ in range(n_hash[i])]
            keyed += [(next(keys[2]), mention_pool[next(picks[2])]) for _ in range(n_ment[i])]
            post = Post(
                post_id=post_id,
                user_id=user_id,
                upload_time=BASE + upload[i],
                likes=min(max(0, round(math.exp(log_likes[i]) - 1.0)), 2**63 - 1),
                caption=" ".join(token for _, token in sorted(keyed, key=lambda pair: pair[0])),
                media_count=media[i] if multi[i] >= 0.9 else 1,
                is_video=video[i] < 0.08,
            )
            row = values[i].copy()
            row[:n_informative] = informative * float(mu[i]) + noise[i]
            matrix[len(posts)] = row
            posts.append(post)
            latent_mu[post_id] = float(mu[i])
    return synthgen.SynthCorpus(posts, FeatureSet([p.post_id for p in posts], matrix), latent_mu)


def caption_parts(caption: str) -> tuple[Counter, Counter, int]:
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
        tags_a, ats_a, words_a = caption_parts(a.caption)
        tags_b, ats_b, words_b = caption_parts(b.caption)
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


def reference_mine_pairs(posts: list[Post], features_present: set[str] | None, config: MinerConfig) -> list[PDIP]:
    """The miner as a nested loop over each user's time-sorted posts: the oracle for `mine_pairs`.

    Every pair inside the time window with equal hashtag and mention multisets
    and short captions is scored with `scalar_normal_cdf`; the pairs clearing
    the threshold are matched greedily by (-prob, id_a, id_b).
    """
    by_user: dict[str, list[Post]] = {}
    for post in posts:
        by_user.setdefault(post.user_id, []).append(post)

    max_interval = config.max_interval_days * DAY
    result: list[PDIP] = []
    for user_id in sorted(by_user):
        group = sorted(by_user[user_id], key=lambda p: (p.upload_time, p.post_id))
        if features_present is not None:
            group = [p for p in group if p.post_id in features_present]
        captions = [caption_parts(p.caption) for p in group]
        scores = [math.log1p(p.likes) for p in group]

        candidates: list[PDIP] = []
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                if group[j].upload_time - group[i].upload_time > max_interval:
                    break
                (tags_i, ats_i, words_i), (tags_j, ats_j, words_j) = captions[i], captions[j]
                if words_i > config.max_caption_words or words_j > config.max_caption_words:
                    continue
                if tags_i != tags_j or ats_i != ats_j:
                    continue
                hi, lo = (i, j) if scores[i] >= scores[j] else (j, i)
                prob = scalar_normal_cdf((scores[hi] - scores[lo]) / (math.sqrt(2.0) * config.sigma))
                if prob < config.threshold:
                    continue
                candidates.append(PDIP(group[hi].post_id, group[lo].post_id, user_id, prob, scores[hi] - scores[lo]))

        candidates.sort(key=lambda c: (-c.prob, c.id_a, c.id_b))
        used: set[str] = set()
        for cand in candidates:
            if cand.id_a in used or cand.id_b in used:
                continue
            used.add(cand.id_a)
            used.add(cand.id_b)
            result.append(cand)

    result.sort(key=lambda c: (c.user_id, c.id_a))
    return result


def logistic(o: float) -> float:
    """P(A above B) for the pair logit o; the pair loss's derivative in o is logistic(o) - label."""
    return 1.0 / (1.0 + math.exp(-o))


def read_id_values(path, header: str) -> dict[str, float]:
    """{post_id: value} from a two-column CSV such as scores.csv or latents.csv, checking its header."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert lines[0] == header
    return {post_id: float(value) for post_id, value in (line.split(",") for line in lines[1:])}


def serialize_post(post: Post) -> str:
    """One post's line of a posts file, without its newline: `corpus.post_lines` of one-post columns."""
    return post_lines(*[[getattr(post, name)] for name in POST_FIELDS])[0][:-1]


# The files `synth` writes, through the row writers it writes them with
def write_posts_file(path, posts) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.writelines(serialize_post(post) + "\n" for post in posts)


def write_features_file(path, features: FeatureSet) -> None:
    with open_csv(path, header(features.dim)) as f:
        write_rows(f, features.ids, features.matrix)


def write_latents_file(path, latent_mu: dict[str, float]) -> None:
    with open_csv(path, synthgen.LATENTS_HEADER) as f:
        synthgen.write_latents(f, latent_mu.keys(), latent_mu.values())


def model_of(layer_dims: list[int], weights, biases) -> mlp.MlpModel:
    """A model over a new vector holding the given per-layer weights, then biases, for hand-built cases."""
    return mlp.MlpModel(layer_dims, np.concatenate([np.ravel(w) for w in weights] + [np.ravel(b) for b in biases]))


def zero_gradients(model: mlp.MlpModel) -> mlp.MlpModel:
    """All-zero gradients in the model's layout, for driving Adam by hand or for `mlp.backward` to write."""
    return mlp.MlpModel(model.layer_dims, np.zeros_like(model.params))


def row_forward(model: mlp.MlpModel, x: np.ndarray) -> float:
    """Score of one feature vector, one vector-matrix product per layer (no batch)."""
    h = np.asarray(x, dtype=np.float64)
    last = model.n_layers() - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w.T + b
        if l != last:
            h = np.maximum(h, 0.0)
    return float(h[0])


def baseline_forward(model, x_visual: np.ndarray, nv) -> float:
    """Predicted log-likes for one post, through the single-row forward pass."""
    q_vis = row_forward(model.visual_scorer, x_visual)
    return row_forward(model.head, np.concatenate(([q_vis], nv.transformed())))


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


def reference_train(model: mlp.MlpModel, pairs: list[PDIP], features: FeatureSet, split, config: mlp.TrainConfig):
    """`ranker.train`'s schedule, step by step from allocating parts, as a reference for the buffered loop.

    Each step is `ranker._step` into buffers made for that step alone, and then
    `per_layer_adam_step`; the shuffle, swap draw, validation and epoch
    selection are written out again here. Trains `model` in place and returns
    (losses, val accuracies, selected epoch, best parameters).
    """
    train_idx, val_idx = (np.asarray(ix, dtype=int) for ix in split)
    x = features.matrix
    ab = features.rows([pid for p in pairs for pid in (p.id_a, p.id_b)]).reshape(-1, 2)
    rng = seeded_rng(config.seed, "train")
    moments = [(np.zeros_like(a), np.zeros_like(a)) for a in model.weights + model.biases]
    lr, step = config.learning_rate, 0
    losses, accs, best_epoch, best = [], [], 0, model.params.copy()
    for epoch in range(config.epochs):
        order = rng.permutation(len(train_idx))
        swap = rng.random(len(train_idx)) < 0.5
        a = np.where(swap, ab[train_idx, 1], ab[train_idx, 0])
        b = np.where(swap, ab[train_idx, 0], ab[train_idx, 1])
        labels = np.where(swap, 0.0, 1.0)
        total = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            x_ab = np.stack([x[a[batch]], x[b[batch]]])
            loss, grad = ranker._step(model, x_ab, labels[batch], ranker._StepBuffers(model, len(batch)))
            step += 1
            per_layer_adam_step(moments, model, mlp.MlpModel(model.layer_dims, grad), lr, config.l2_penalty, step)
            total += loss * len(batch)
        losses.append(total / len(order))
        lr *= config.lr_decay_per_epoch
        scores_a = mlp.forward_batch(model, x[ab[val_idx, 0]])
        accs.append(float(np.mean(scores_a > mlp.forward_batch(model, x[ab[val_idx, 1]]))))
        if accs[-1] > max(accs[:-1], default=-np.inf):
            best_epoch, best = epoch, model.params.copy()
    return losses, accs, best_epoch, best


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
        hashtags, mentions, word_count = caption_parts(post.caption)
        nonvisual[post.post_id] = NonVisualFeatures(
            followers=followers[user],
            followings=followings[user],
            n_posts=float(n_posts[user]),
            n_hashtags=float(sum(hashtags.values())),
            n_mentions=float(sum(mentions.values())),
            caption_length=float(word_count),
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
