"""Self-tests of the benchmark's checks: each plants a fault and sees its check fail.

Usage: python3 perfbench/selftest.py

They need neither the program nor a run: a valid output is built here from a
small generated corpus, shown to pass, then broken in one way at a time.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import tempfile
import unittest
from pathlib import Path

import numpy as np

import checks
import corpus_gen
from checks import CheckError

SHAPE = corpus_gen.Shape(n_users=300, posts_per_user=12, feature_dim=8, n_informative=4, bare_share=0.8)


def greedy_pairs(c: corpus_gen.Corpus) -> list[tuple]:
    """A maximal matching of eligible pairs, made without the program."""
    s = [math.log1p(x) for x in c.likes.tolist()]
    by_user: dict[str, list[int]] = {}
    for i in np.flatnonzero(c.eligible() & (c.words <= checks.MAX_WORDS)).tolist():
        by_user.setdefault(c.user_ids[i], []).append(i)
    eligible = []
    for group in by_user.values():
        for x, i in enumerate(group):
            for j in group[x + 1:]:
                if (c.hashtags[i] == c.hashtags[j] and c.mentions[i] == c.mentions[j]
                        and abs(int(c.upload[i]) - int(c.upload[j])) <= checks.MAX_DAYS * corpus_gen.DAY):
                    hi, lo = (i, j) if s[i] >= s[j] else (j, i)
                    p = checks.pair_probability(s[hi] - s[lo])
                    if p >= checks.THRESHOLD + checks.CDF_TOLERANCE:
                        eligible.append((-p, hi, lo))
    used, pairs = set(), []
    for neg_p, hi, lo in sorted(eligible):
        if hi not in used and lo not in used:
            used.update((hi, lo))
            pairs.append((c.post_ids[hi], c.post_ids[lo], c.user_ids[hi], round(-neg_p, 6), s[hi] - s[lo]))
    return pairs


class MiningChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.corpus = corpus_gen.generate(SHAPE, seed=3, name="selftest")
        cls.pairs = greedy_pairs(cls.corpus)
        cls.index = {pid: i for i, pid in enumerate(cls.corpus.post_ids)}

    def broken(self, pairs, corpus, message):
        with self.assertRaisesRegex(CheckError, message):
            checks.audit_pairs(pairs, corpus)

    def mutated(self, edit):
        """The corpus with one record of the first pair edited."""
        c = copy.deepcopy(self.corpus)
        a, b = self.index[self.pairs[0][0]], self.index[self.pairs[0][1]]
        edit(c, a, b)
        return c

    def test_valid_pairs_pass(self):
        self.assertGreater(len(self.pairs), 20)
        checks.audit_pairs(self.pairs, self.corpus)

    def test_other_user(self):
        def edit(c, a, b):
            c.user_ids[b] = "someone_else"
        self.broken(self.pairs, self.mutated(edit), "one user")

    def test_too_far_apart(self):
        def edit(c, a, b):
            c.upload[b] = c.upload[a] - 11 * 86400
        self.broken(self.pairs, self.mutated(edit), "days apart")

    def test_hashtags_differ(self):
        def edit(c, a, b):
            c.hashtags[b] += 1
        self.broken(self.pairs, self.mutated(edit), "hashtag")

    def test_mentions_differ(self):
        def edit(c, a, b):
            c.mentions[b] += 1
        self.broken(self.pairs, self.mutated(edit), "mention")

    def test_long_caption(self):
        def edit(c, a, b):
            c.words[b] = checks.MAX_WORDS + 1
        self.broken(self.pairs, self.mutated(edit), "words")

    def test_filter_rules(self):
        def few_likes(c, a, b):
            c.likes[b] = 49
        def multi_image(c, a, b):
            c.media[b] = 2
        def video(c, a, b):
            c.video[b] = True
        def too_young(c, a, b):
            c.upload[a] = c.upload[b] = SHAPE.reference_time - 29 * 86400
        for edit in (few_likes, multi_image, video, too_young):
            with self.subTest(edit.__name__):
                self.broken(self.pairs, self.mutated(edit), "candidate filter")

    def test_below_threshold(self):
        def edit(c, a, b):
            c.likes[a] = c.likes[b] + 1
        c = self.mutated(edit)
        a, b, user, prob, _ = self.pairs[0]
        d = math.log1p(c.likes[self.index[a]]) - math.log1p(c.likes[self.index[b]])
        self.broken([(a, b, user, prob, d)] + self.pairs[1:], c, "below")

    def test_reversed(self):
        a, b, user, prob, d = self.pairs[0]
        self.broken([(b, a, user, prob, -d)] + self.pairs[1:], self.corpus, "orientation")

    def test_post_reused(self):
        self.broken(self.pairs + self.pairs[:1], self.corpus, "two pairs")

    def test_dropped_eligible_pair(self):
        self.broken(self.pairs[1:], self.corpus, "left out")


class OutputChecks(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.out = Path(self.tmp.name)
        self.corpus = corpus_gen.generate(SHAPE, seed=4, name="selftest")

    def tearDown(self):
        self.tmp.cleanup()

    def write_checkpoint(self) -> Path:
        rng = np.random.default_rng(0)
        dims = [SHAPE.feature_dim, 5, 3, 1]
        lines = ["poprank-checkpoint-v1", "model scorer", "dims " + " ".join(map(str, dims))]
        for fan_in, fan_out in zip(dims, dims[1:]):
            lines += [" ".join(map(repr, row)) for row in rng.normal(size=(fan_out, fan_in)).tolist()]
            lines.append(" ".join(map(repr, rng.normal(size=fan_out).tolist())))
        path = self.out / "checkpoint.txt"
        path.write_text("\n".join(lines) + "\n")
        return path

    def write_scores(self, scores: dict[str, float]) -> None:
        text = "post_id,score\n" + "".join(f"{pid},{s!r}\n" for pid, s in sorted(scores.items()))
        (self.out / "scores.csv").write_text(text)

    def test_perturbed_score(self):
        checkpoint = self.write_checkpoint()
        want = checks.forward(checks.read_checkpoint(checkpoint), self.corpus.features)
        scores = dict(zip(self.corpus.post_ids, want.tolist()))
        self.write_scores(scores)
        checks.check_score(self.out, checkpoint, self.corpus)
        scores[self.corpus.post_ids[7]] += 1e-6
        self.write_scores(scores)
        with self.assertRaisesRegex(CheckError, "the checkpoint gives"):
            checks.check_score(self.out, checkpoint, self.corpus)
        del scores[self.corpus.post_ids[7]]
        self.write_scores(scores)
        with self.assertRaisesRegex(CheckError, "feature rows"):
            checks.check_score(self.out, checkpoint, self.corpus)

    def test_eval_recount_disagrees(self):
        pairs = greedy_pairs(self.corpus)
        scores = {pid: float(s) for pid, s in zip(self.corpus.post_ids, np.log1p(self.corpus.likes))}
        scores[pairs[0][1]] = scores[pairs[0][0]]  # one tie, which counts as wrong
        accuracy, ties = checks.recount(scores, pairs)
        self.assertEqual(ties, 1)
        for row, fails in (((len(pairs), accuracy, ties), False), ((len(pairs), 1.0, 0), True),
                           ((len(pairs), accuracy, 0), True), ((len(pairs) - 1, accuracy, ties), True)):
            (self.out / "eval_result.csv").write_text("n_pairs,accuracy,n_ties\n" + f"{row[0]},{row[1]!r},{row[2]}\n")
            with self.subTest(row=row):
                if fails:
                    with self.assertRaisesRegex(CheckError, "eval"):
                        checks.check_eval(self.out, scores, pairs)
                else:
                    checks.check_eval(self.out, scores, pairs)

    def test_changed_output_byte(self):
        data = b"post_id,score\nu00000_p0000,0.5\n"
        (self.out / "scores.csv").write_bytes(data)
        manifest = {"outputs": {"scores.csv": hashlib.sha256(data).hexdigest()}}
        (self.out / "score_manifest.json").write_text(json.dumps(manifest))
        checks.check_manifest(self.out, "score")
        (self.out / "scores.csv").write_bytes(data.replace(b"0.5", b"0.6"))
        with self.assertRaisesRegex(CheckError, "manifest digest"):
            checks.check_manifest(self.out, "score")

    def test_stats_tally(self):
        want = checks.expected_stats(self.corpus)
        want["mean_likes"] += 1e-9
        (self.out / "corpus_stats.csv").write_text("name,value\n" + "".join(f"{k},{v!r}\n" for k, v in want.items()))
        with self.assertRaisesRegex(CheckError, "mean_likes"):
            checks.check_stats(self.out, self.corpus)

    def test_train_selects_first_best_epoch(self):
        rows = [(0, 0.9, 0.70, 0), (1, 0.8, 0.80, 1), (2, 0.7, 0.80, 0)]
        for selected, fails in ((1, False), (2, True)):
            text = "epoch,train_loss,val_accuracy,selected\n" + "".join(
                f"{e},{loss!r},{acc!r},{int(e == selected)}\n" for e, loss, acc, _ in rows)
            (self.out / "train_report.csv").write_text(text)
            with self.subTest(selected=selected):
                if fails:
                    with self.assertRaisesRegex(CheckError, "first best epoch"):
                        checks.check_train(self.out, 3)
                else:
                    checks.check_train(self.out, 3)


if __name__ == "__main__":
    unittest.main()
