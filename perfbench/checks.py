"""Checks of each command's outputs against the benchmark's own ground truth.

Every check recomputes what it needs from the generated corpus (or restates a
property the method must have) instead of calling into the program, and raises
:class:`CheckError` naming the first violation it finds.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

from corpus_gen import DAY, MU_MEAN, MU_STD, Corpus

THRESHOLD, SIGMA, MAX_DAYS, MAX_WORDS = 0.95, 0.3, 10, 6  # the miner's defaults
CDF_TOLERANCE = 1e-7  # the program's normal CDF is accurate to 7.5e-8
MIN_CONSISTENCY, MIN_ACCURACY = 0.93, 0.90
SCORE_TOLERANCE = 1e-9
POST_TYPES = {"post_id": str, "user_id": str, "upload_time": int, "likes": int,
              "caption": str, "media_count": int, "is_video": bool}
PAIRS_HEADER = "id_a,id_b,user_id,prob,delta_s"


class CheckError(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def pair_probability(delta_s: float) -> float:
    """P(A above B) = Phi(dS / (sqrt(2) sigma)) with the stdlib erf."""
    return 0.5 * (1.0 + math.erf(delta_s / (2.0 * SIGMA)))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_manifest(out: Path, command: str) -> dict[str, str]:
    """The manifest's output digests match the files; returns them."""
    manifest = json.loads((out / f"{command}_manifest.json").read_text())
    outputs = manifest["outputs"]
    for name, digest in outputs.items():
        require(sha256(out / name) == digest, f"{command}: {name} does not match its manifest digest")
    return outputs


def read_csv(path: Path, header: str) -> list[list[str]]:
    lines = path.read_text().splitlines()
    require(bool(lines) and lines[0] == header, f"{path.name}: header {lines[:1]} is not {header!r}")
    return [line.split(",") for line in lines[1:]]


# --- synth -------------------------------------------------------------------

def check_synth(out: Path, n_posts: int, dim: int) -> None:
    ids = set()
    for lineno, line in enumerate((out / "posts.jsonl").read_text().splitlines(), 1):
        record = json.loads(line)
        require(set(record) == set(POST_TYPES), f"synth: posts line {lineno} has fields {sorted(record)}")
        for key, kind in POST_TYPES.items():
            value = record[key]
            require(isinstance(value, kind) and (kind is bool or not isinstance(value, bool)),
                    f"synth: posts line {lineno}: {key} is not {kind.__name__}")
        require(record["likes"] >= 0 and record["media_count"] >= 1 and record["post_id"] != ""
                and record["user_id"] != "", f"synth: posts line {lineno} would be rejected")
        ids.add(record["post_id"])
    require(len(ids) == n_posts, f"synth: {len(ids)} distinct posts, expected {n_posts}")

    text = (out / "features.csv").read_text()
    header, _, body = text.partition("\n")
    require(header == f"post_id,dim={dim}", f"synth: features header {header!r}")
    rows = body.splitlines()
    require(len(rows) == n_posts, f"synth: {len(rows)} feature rows, expected {n_posts}")
    row_ids, values = zip(*(row.split(",", 1) for row in rows))
    require(set(row_ids) == ids, "synth: feature ids differ from post ids")
    x = np.fromstring(",".join(values), sep=",")
    require(x.size == n_posts * dim and bool(np.all(np.isfinite(x))), "synth: features not finite or wrong width")

    mu = np.array([float(r[1]) for r in read_csv(out / "latents.csv", "post_id,mu")])
    require(mu.size == n_posts, f"synth: {mu.size} latents, expected {n_posts}")
    require(abs(mu.mean() - MU_MEAN) <= 5 * MU_STD / math.sqrt(mu.size), f"synth: latent mean {mu.mean()}")
    require(abs(mu.std() - MU_STD) <= 5 * MU_STD / math.sqrt(2 * mu.size), f"synth: latent std {mu.std()}")


# --- stats -------------------------------------------------------------------

def expected_stats(c: Corpus) -> dict[str, float]:
    n = c.n
    no_tags, no_mentions = c.hashtags == 0, c.mentions == 0
    return {
        "n_posts": n,
        "n_users": len(set(c.user_ids)),
        "mean_likes": int(c.likes.sum()) / n,
        "proportion_no_hashtag": int(no_tags.sum()) / n,
        "proportion_no_mention": int(no_mentions.sum()) / n,
        "proportion_no_caption": int((no_tags & no_mentions & (c.words == 0)).sum()) / n,
        "mean_caption_words": int(c.words.sum()) / n,
    }


def check_stats(out: Path, c: Corpus) -> None:
    got = {name: float(value) for name, value in read_csv(out / "corpus_stats.csv", "name,value")}
    want = expected_stats(c)
    require(set(got) == set(want), f"stats: names {sorted(got)}")
    for name, value in want.items():
        require(got[name] == value, f"stats: {name} is {got[name]}, the corpus has {value}")


# --- mine --------------------------------------------------------------------

def read_pairs(path: Path) -> list[tuple[str, str, str, float, float]]:
    rows = read_csv(path, PAIRS_HEADER)
    for lineno, row in enumerate(rows, 2):
        require(len(row) == 5, f"{path.name} line {lineno}: {len(row)} fields")
    return [(a, b, u, float(p), float(d)) for a, b, u, p, d in rows]


def audit_pairs(pairs, c: Corpus) -> None:
    """Every constraint of every mined pair, plus maximality of the matching."""
    index = {pid: i for i, pid in enumerate(c.post_ids)}
    eligible = c.eligible()
    likes = c.likes.tolist()
    used: set[str] = set()
    for k, (a, b, user, prob, delta_s) in enumerate(pairs):
        where = f"mine: pair {k} ({a}, {b})"
        require(a in index and b in index, f"{where}: unknown post")
        i, j = index[a], index[b]
        require(c.user_ids[i] == c.user_ids[j] == user, f"{where}: not one user's posts")
        require(abs(int(c.upload[i]) - int(c.upload[j])) <= MAX_DAYS * DAY, f"{where}: more than {MAX_DAYS} days apart")
        require(c.hashtags[i] == c.hashtags[j], f"{where}: hashtag multisets differ")
        require(c.mentions[i] == c.mentions[j], f"{where}: mention multisets differ")
        require(c.words[i] <= MAX_WORDS and c.words[j] <= MAX_WORDS, f"{where}: caption over {MAX_WORDS} words")
        require(bool(eligible[i] and eligible[j]), f"{where}: a post fails the candidate filter")
        s_a, s_b = math.log1p(likes[i]), math.log1p(likes[j])
        require(s_a >= s_b and abs(delta_s - (s_a - s_b)) <= 1e-12, f"{where}: not in canonical orientation")
        p = pair_probability(s_a - s_b)
        require(p >= THRESHOLD - CDF_TOLERANCE, f"{where}: P = {p} is below {THRESHOLD}")
        require(abs(prob - p) <= 1e-6, f"{where}: prob {prob} differs from {p}")
        require(a not in used and b not in used, f"{where}: a post is in two pairs")
        used.update((a, b))

    groups = defaultdict(list)  # unpaired candidates that could still pair with each other
    tags, mentions, upload = c.hashtags.tolist(), c.mentions.tolist(), c.upload.tolist()
    for i in np.flatnonzero(eligible & (c.words <= MAX_WORDS)).tolist():
        if c.post_ids[i] not in used:
            groups[c.user_ids[i], tags[i], mentions[i]].append((upload[i], math.log1p(likes[i]), i))
    for group in groups.values():
        group.sort()
        for x, (t_x, s_x, i) in enumerate(group):
            for t_y, s_y, j in group[x + 1:]:
                if t_y - t_x > MAX_DAYS * DAY:
                    break
                require(pair_probability(abs(s_x - s_y)) < THRESHOLD + CDF_TOLERANCE,
                        f"mine: eligible pair ({c.post_ids[i]}, {c.post_ids[j]}) left out with both posts unpaired")


def check_mine(out: Path, c: Corpus) -> list:
    pairs = read_pairs(out / "pairs.csv")
    require(len(pairs) > 0, "mine: no pairs")
    audit_pairs(pairs, c)
    index = {pid: i for i, pid in enumerate(c.post_ids)}
    consistent = sum(c.mu[index[a]] > c.mu[index[b]] for a, b, *_ in pairs) / len(pairs)
    require(consistent >= MIN_CONSISTENCY, f"mine: latent consistency {consistent:.4f} < {MIN_CONSISTENCY}")
    return pairs


# --- train, eval, score ------------------------------------------------------

def check_train(out: Path, epochs: int) -> None:
    rows = read_csv(out / "train_report.csv", "epoch,train_loss,val_accuracy,selected")
    require([int(r[0]) for r in rows] == list(range(epochs)), f"train: {len(rows)} report rows for {epochs} epochs")
    acc = [float(r[2]) for r in rows]
    selected = [int(r[0]) for r in rows if r[3] == "1"]
    require(selected == [acc.index(max(acc))], f"train: selected {selected}, first best epoch {acc.index(max(acc))}")


def read_scores(path: Path) -> dict[str, float]:
    rows = read_csv(path, "post_id,score")
    scores = {pid: float(s) for pid, s in rows}
    require(len(scores) == len(rows), "score: a post is scored twice")
    return scores


def recount(scores: dict[str, float], pairs) -> tuple[float, int]:
    """Pairwise accuracy with ties counted as wrong, and the number of ties."""
    correct = sum(scores[a] > scores[b] for a, b, *_ in pairs)
    ties = sum(scores[a] == scores[b] for a, b, *_ in pairs)
    return correct / len(pairs), ties


def check_eval(out: Path, scores: dict[str, float], test_pairs) -> float:
    (row,) = read_csv(out / "eval_result.csv", "n_pairs,accuracy,n_ties")
    n_pairs, accuracy, ties = int(row[0]), float(row[1]), int(row[2])
    want_accuracy, want_ties = recount(scores, test_pairs)
    require(n_pairs == len(test_pairs), f"eval: {n_pairs} pairs, the test split has {len(test_pairs)}")
    require(accuracy == want_accuracy and ties == want_ties,
            f"eval: accuracy {accuracy} with {ties} ties, recount gives {want_accuracy} with {want_ties}")
    require(accuracy >= MIN_ACCURACY, f"eval: accuracy {accuracy} < {MIN_ACCURACY}")
    return accuracy


def read_checkpoint(path: Path) -> list[tuple[np.ndarray, np.ndarray]]:
    """The 'scorer' section of a checkpoint as (weights, bias) per layer."""
    lines = path.read_text().splitlines()
    require(lines[:2] == ["poprank-checkpoint-v1", "model scorer"], "score: checkpoint does not open with a scorer")
    dims = [int(d) for d in lines[2].split()[1:]]
    layers, pos = [], 3
    for fan_in, fan_out in zip(dims, dims[1:]):
        w = np.array([[float(x) for x in line.split()] for line in lines[pos:pos + fan_out]])
        b = np.array([float(x) for x in lines[pos + fan_out].split()])
        require(w.shape == (fan_out, fan_in) and b.shape == (fan_out,), "score: checkpoint layer shape")
        layers.append((w, b))
        pos += fan_out + 1
    return layers


def forward(layers, x: np.ndarray) -> np.ndarray:
    h = x
    for k, (w, b) in enumerate(layers):
        h = h @ w.T + b
        if k < len(layers) - 1:
            h = np.maximum(h, 0.0)
    return h[:, 0]


def check_score(out: Path, checkpoint: Path, c: Corpus) -> dict[str, float]:
    scores = read_scores(out / "scores.csv")
    require(set(scores) == set(c.post_ids), f"score: {len(scores)} scores for {c.n} feature rows")
    want = forward(read_checkpoint(checkpoint), c.features)
    got = np.array([scores[pid] for pid in c.post_ids])
    worst = int(np.argmax(np.abs(got - want)))
    require(abs(got[worst] - want[worst]) <= SCORE_TOLERANCE,
            f"score: {c.post_ids[worst]} scored {got[worst]}, the checkpoint gives {want[worst]}")
    return scores
