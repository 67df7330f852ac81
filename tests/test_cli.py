"""End-to-end tests of the command-line pipeline and its manifests."""

import gc
import hashlib
import json
import os
import platform
import subprocess
import sys
import weakref
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from poprank import cli, corpus, evaluate, features as features_mod, mining, mlp, ranker, synthgen
from poprank.cli import build_parser, main
from poprank.mining import MinerConfig, read_pairs

from conftest import model_of, read_id_values, reference_mine_pairs, write_features_file
from test_digests import DENSE_SYNTH_ARGS, PINNED_DENSE

REF = str(synthgen.reference_time_for(synthgen.SynthConfig(time_span_days=45)))

SYNTH_ARGS = [
    "synth",
    "--n-users", "80",
    "--posts-per-user", "8",
    "--time-span-days", "45",
    "--seed", "5",
]


def _run(args):
    return main([str(a) for a in args])


def _dir_bytes(path, skip=()):
    return {f.name: f.read_bytes() for f in sorted(path.iterdir()) if f.name not in skip}


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full synth -> mine -> train -> eval -> score run shared by the read-only tests."""
    out = tmp_path_factory.mktemp("pipeline")
    assert _run(SYNTH_ARGS + ["--out-dir", out]) == 0
    assert _run(["mine", "--posts", out / "posts.jsonl", "--reference-time", REF, "--out-dir", out]) == 0
    assert (
        _run(
            ["train", "--pairs", out / "pairs.csv", "--features", out / "features.csv",
             "--epochs", "4", "--learning-rate", "1e-3", "--seed", "5", "--out-dir", out]
        )
        == 0
    )
    trained = ["--checkpoint", out / "checkpoint.txt", "--features", out / "features.csv", "--out-dir", out]
    assert _run(["eval", "--pairs", out / "pairs.csv"] + trained) == 0
    assert _run(["score"] + trained) == 0
    assert not [f.name for f in out.iterdir() if f.name.startswith(".")]  # no staging directory is left
    return out


class TestSynth:
    def test_outputs_and_row_counts(self, tmp_path):
        assert _run(SYNTH_ARGS + ["--out-dir", tmp_path]) == 0
        posts = (tmp_path / "posts.jsonl").read_text().splitlines()
        features = (tmp_path / "features.csv").read_text().splitlines()
        latents = (tmp_path / "latents.csv").read_text().splitlines()
        assert len(posts) == 80 * 8
        assert len(features) == 80 * 8 + 1  # header
        assert len(latents) == 80 * 8 + 1
        manifest = json.loads((tmp_path / "synth_manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert manifest["config"]["n_users"] == 80
        assert set(manifest["outputs"]) == {"posts.jsonl", "features.csv", "latents.csv"}

    def test_rerun_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert _run(SYNTH_ARGS + ["--out-dir", a]) == 0
        assert _run(SYNTH_ARGS + ["--out-dir", b]) == 0
        assert _dir_bytes(a) == _dir_bytes(b)

    def test_writes_its_posts_without_building_a_post(self, tmp_path, monkeypatch):
        """`synth` writes the generator's columns: with `Post` raising when constructed, it writes the pinned bytes."""
        def no_post(*args):
            raise AssertionError("a Post was built")

        monkeypatch.setattr(synthgen, "Post", no_post)
        monkeypatch.setattr(corpus, "Post", no_post)
        assert _run(DENSE_SYNTH_ARGS + ["--out-dir", tmp_path]) == 0
        assert json.loads((tmp_path / "synth_manifest.json").read_text())["outputs"] == PINNED_DENSE


class TestMine:
    def test_pairs_satisfy_audit(self, pipeline):
        from poprank.corpus import filter_candidates, parse_posts_file
        from poprank.mining import MinerConfig

        from conftest import audit_pairs

        pairs = read_pairs(pipeline / "pairs.csv")
        assert pairs
        config = MinerConfig(reference_time=int(REF))
        posts = parse_posts_file(pipeline / "posts.jsonl").posts
        candidates = filter_candidates(posts, int(REF))
        assert audit_pairs(pairs, candidates, config) == []

    def test_stats_reports_threshold_clearance(self, pipeline):
        lines = (pipeline / "pair_stats.csv").read_text().splitlines()
        stats = dict(line.split(",") for line in lines[1:])
        assert float(stats["mean_prob"]) >= 0.95
        assert int(stats["n_pairs"]) > 0

    def test_extreme_threshold_mines_the_oracle_pairs(self, pipeline, tmp_path):
        """Any pair whose gap in log-likes passes about 2.21 has prob 1.0, so an extreme threshold need not
        leave the file empty: it holds the nested-loop oracle's pairs, each at or above the threshold."""
        threshold = 0.9999999
        code = _run(
            ["mine", "--posts", pipeline / "posts.jsonl", "--reference-time", REF,
             "--threshold", str(threshold), "--out-dir", tmp_path]
        )
        assert code == 0
        pairs = read_pairs(tmp_path / "pairs.csv")
        candidates = corpus.filter_candidates(corpus.parse_posts_file(pipeline / "posts.jsonl").posts, int(REF))
        expected = reference_mine_pairs(list(candidates), None, MinerConfig(threshold=threshold))
        assert sorted((p.id_a, p.id_b) for p in pairs) == sorted((p.id_a, p.id_b) for p in expected)
        assert all(p.prob >= threshold for p in pairs)

    def test_extreme_threshold_gives_empty_file_and_success(self, pipeline, tmp_path):
        """With one post per user no pair is eligible, so the file is header-only at any threshold."""
        lines = (pipeline / "posts.jsonl").read_text().splitlines()
        first_of_each_user = list({json.loads(line)["user_id"]: line for line in reversed(lines)}.values())
        posts_file = tmp_path / "posts.jsonl"
        posts_file.write_text("\n".join(first_of_each_user) + "\n")
        code = _run(
            ["mine", "--posts", posts_file, "--reference-time", REF,
             "--threshold", "0.9999999", "--out-dir", tmp_path]
        )
        assert code == 0
        assert (tmp_path / "pairs.csv").read_text().splitlines() == ["id_a,id_b,user_id,prob,delta_s"]

    def test_malformed_lines_reported_with_line_numbers(self, pipeline, tmp_path, capsys):
        posts_file = tmp_path / "posts.jsonl"
        lines = (pipeline / "posts.jsonl").read_text().splitlines()
        lines.insert(1, "{broken")
        posts_file.write_text("\n".join(lines) + "\n")
        assert _run(["mine", "--posts", posts_file, "--reference-time", REF, "--out-dir", tmp_path]) == 0
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_comma_ids_are_skipped_and_train_reads_the_pairs(self, pipeline, tmp_path, capsys):
        lines = (pipeline / "posts.jsonl").read_text().splitlines()
        bad = []
        for i, line in enumerate(lines[:4]):
            record = json.loads(line)
            record["post_id"] = f"p,{i}"
            bad.append(json.dumps(record))
        posts_file = tmp_path / "posts.jsonl"
        posts_file.write_text("\n".join(lines + bad) + "\n")
        assert _run(["mine", "--posts", posts_file, "--reference-time", REF, "--out-dir", tmp_path]) == 0
        err = capsys.readouterr().err
        for i in range(4):
            assert f"line {len(lines) + i + 1}: post_id 'p,{i}'" in err
        assert all("p," not in pid for p in read_pairs(tmp_path / "pairs.csv") for pid in (p.id_a, p.id_b))
        assert (tmp_path / "pairs.csv").read_bytes() == (pipeline / "pairs.csv").read_bytes()
        assert _run(["train", "--pairs", tmp_path / "pairs.csv", "--features", pipeline / "features.csv",
                     "--epochs", "1", "--out-dir", tmp_path]) == 0

    def test_lone_surrogate_ids_are_skipped_and_pairs_csv_is_whole(self, tmp_path, capsys):
        """An id holding a lone surrogate (the JSON escape `\\ud800`) cannot be written as UTF-8, so its line is a
        warning; every pair `mine` would make of it is gone, and `pairs.csv` is whole."""
        reference = 1_700_000_000

        def line(post_id, user_id, day, likes):
            upload_time = reference - (40 - day) * 86400
            return (f'{{"post_id": "{post_id}", "user_id": "{user_id}", "upload_time": {upload_time}, '
                    f'"likes": {likes}, "caption": "", "media_count": 1, "is_video": false}}\n')

        lines = [line("p1", "u", 0, 100), line("p2", "u", 1, 100_000), line("p\\ud8003", "u", 2, 200),
                 line("p4", "u", 3, 90_000), line("p5", "u\\udc00", 0, 100), line("p6", "u\\udc00", 1, 100_000)]
        posts = tmp_path / "posts.jsonl"
        posts.write_text("".join(lines), encoding="utf-8")
        assert _run(["mine", "--posts", posts, "--reference-time", reference, "--out-dir", tmp_path]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [message.split(" contains ")[0] for message in err] == [
            f"warning: {posts}: line 3: post_id 'p\\ud8003'",
            f"warning: {posts}: line 5: user_id 'u\\udc00'",
            f"warning: {posts}: line 6: user_id 'u\\udc00'",
        ]
        pairs = read_pairs(tmp_path / "pairs.csv")
        assert [(p.id_a, p.id_b, p.user_id) for p in pairs] in ([("p2", "p1", "u")], [("p4", "p1", "u")])
        assert (tmp_path / "pairs.csv").read_text(encoding="utf-8").count("\n") == 2


    def test_mines_the_widest_span_synth_writes(self, tmp_path, capsys):
        """`synth` at its largest time span writes posts that `mine` reads at the default miner settings."""
        assert _run(["synth", "--n-users", "2", "--posts-per-user", "5", "--time-span-days", "106751991148782",
                     "--out-dir", tmp_path]) == 0
        assert _run(["mine", "--posts", tmp_path / "posts.jsonl", "--reference-time", "9223372036854764800",
                     "--out-dir", tmp_path]) == 0
        assert capsys.readouterr().err == ""

    def test_like_counts_past_int64_are_saturated(self, tmp_path, capsys):
        """At a `mu_mean` of 50, exp(log-likes) passes 2**63; `synth` writes INT64_MAX, which `stats` and
        `mine` read."""
        assert _run(["synth", "--n-users", "2", "--posts-per-user", "3", "--mu-mean", "50", "--out-dir", tmp_path]) == 0
        posts = [json.loads(line) for line in (tmp_path / "posts.jsonl").read_text().splitlines()]
        assert [post["likes"] for post in posts] == [2**63 - 1] * 6
        capsys.readouterr()
        reference = str(synthgen.reference_time_for(synthgen.SynthConfig()))
        assert _run(["stats", "--posts", tmp_path / "posts.jsonl", "--out-dir", tmp_path]) == 0
        assert _run(["mine", "--posts", tmp_path / "posts.jsonl", "--reference-time", reference,
                     "--out-dir", tmp_path]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("6 posts from 2 users") and "candidates (6 posts)" in out
        assert err == ""

    def test_window_too_wide_for_int64_keys_is_a_one_line_error(self, tmp_path, capsys):
        posts = [{"post_id": f"p{i}", "user_id": "u", "upload_time": t, "likes": 100, "caption": "",
                  "media_count": 1, "is_video": False} for i, t in enumerate([-(2**63), 2**62])]
        (tmp_path / "posts.jsonl").write_text("".join(json.dumps(post) + "\n" for post in posts))
        code = _run(["mine", "--posts", tmp_path / "posts.jsonl", "--reference-time", str(2**63 - 1),
                     "--max-interval-days", str(10**15), "--out-dir", tmp_path])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: max_interval_days 1000000000000000 is too large for 2 posts")
        assert err.count("\n") == 1 and not (tmp_path / "pairs.csv").exists()


class TestTrain:
    def test_checkpoint_and_report(self, pipeline):
        report = (pipeline / "train_report.csv").read_text().splitlines()
        assert report[0] == "epoch,train_loss,val_accuracy,selected"
        rows = [line.split(",") for line in report[1:]]
        assert len(rows) == 4
        selected = [r for r in rows if r[3] == "1"]
        assert len(selected) == 1
        best = max(float(r[2]) for r in rows)
        assert float(selected[0][2]) == best
        manifest = json.loads((pipeline / "train_manifest.json").read_text())
        assert set(manifest["inputs"]) == {"pairs", "features"}

    def test_reproducible_checkpoint_bytes(self, pipeline, tmp_path):
        args = ["train", "--pairs", pipeline / "pairs.csv", "--features", pipeline / "features.csv",
                "--epochs", "4", "--learning-rate", "1e-3", "--seed", "5", "--out-dir", tmp_path]
        assert _run(args) == 0
        assert (tmp_path / "checkpoint.txt").read_bytes() == (pipeline / "checkpoint.txt").read_bytes()

    @pytest.mark.parametrize("command", ["train", "eval", "ablate"])
    def test_unresolvable_ids_fatal(self, pipeline, tmp_path, capsys, command):
        # every command that reads pairs and features words a missing feature row the same way
        bad = tmp_path / "bad_pairs.csv"
        rows = [f"ghost{i}a,ghost{i}b,u,0.99,1.0" for i in range(10)]
        bad.write_text("id_a,id_b,user_id,prob,delta_s\n" + "\n".join(rows) + "\n")
        extra = ["--checkpoint", pipeline / "checkpoint.txt"] if command == "eval" else ["--epochs", "1"]
        code = _run([command, "--pairs", bad, "--features", pipeline / "features.csv", *extra, "--out-dir", tmp_path])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: pairs reference 20 post_ids without features: ['ghost0a', 'ghost0b', 'ghost1a', 'ghost1b', 'ghost2a']\n"
        )


class TestEvalScoreAblate:
    def test_eval_writes_result(self, pipeline, tmp_path):
        code = _run(["eval", "--checkpoint", pipeline / "checkpoint.txt", "--pairs", pipeline / "pairs.csv",
                     "--features", pipeline / "features.csv", "--out-dir", tmp_path])
        assert code == 0
        lines = (tmp_path / "eval_result.csv").read_text().splitlines()
        assert lines[0] == "n_pairs,accuracy,n_ties"
        n_pairs, accuracy, n_ties = lines[1].split(",")
        assert int(n_pairs) == len(read_pairs(pipeline / "pairs.csv"))
        assert 0.0 <= float(accuracy) <= 1.0

    def test_score_rescale_max(self, pipeline, tmp_path):
        code = _run(["score", "--checkpoint", pipeline / "checkpoint.txt", "--features", pipeline / "features.csv",
                     "--rescale-max", "100", "--out-dir", tmp_path])
        assert code == 0
        scores = read_id_values(tmp_path / "scores.csv", "post_id,score")
        assert max(scores.values()) == 100.0
        assert min(scores.values()) == 0.0

    def test_score_rescale_max_of_no_posts_writes_the_header(self, pipeline, tmp_path):
        empty = tmp_path / "features.csv"
        empty.write_text((pipeline / "features.csv").read_text().partition("\n")[0] + "\n")
        code = _run(["score", "--checkpoint", pipeline / "checkpoint.txt", "--features", empty,
                     "--rescale-max", "5", "--out-dir", tmp_path / "out"])
        assert code == 0 and (tmp_path / "out" / "scores.csv").read_text() == "post_id,score\n"

    def test_score_rescale_max_of_scores_spanning_past_the_float_range(self, pipeline, tmp_path):
        x = features_mod.load_features(pipeline / "features.csv").matrix
        k = int(np.argmax(np.ptp(x, axis=0) / np.abs(x).max(axis=0)))  # the column spanning most of both signs
        model = mlp.init_model([x.shape[1], 1], 0)
        model.params[:] = 0.0
        model.weights[0][0, k] = 1.5e308 / np.abs(x[:, k]).max()  # scores up to +-1.5e308, each finite
        mlp.save_checkpoint(tmp_path / "wide.txt", {"scorer": model})
        base = ["score", "--checkpoint", tmp_path / "wide.txt", "--features", pipeline / "features.csv"]
        assert _run(base + ["--out-dir", tmp_path / "plain"]) == 0
        plain = read_id_values(tmp_path / "plain" / "scores.csv", "post_id,score")
        assert max(plain.values()) - min(plain.values()) == np.inf
        assert _run(base + ["--rescale-max", "100", "--out-dir", tmp_path / "rescaled"]) == 0
        scores = read_id_values(tmp_path / "rescaled" / "scores.csv", "post_id,score")
        assert all(0.0 <= s <= 100.0 for s in scores.values())  # False for nan
        assert max(scores.values()) == 100.0 and min(scores.values()) == 0.0

    def test_eval_skips_a_blank_pairs_line(self, pipeline, tmp_path):
        lines = (pipeline / "pairs.csv").read_text().splitlines()
        blank = tmp_path / "pairs.csv"
        blank.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n")
        common = ["--checkpoint", pipeline / "checkpoint.txt", "--features", pipeline / "features.csv"]
        assert _run(["eval", "--pairs", blank, *common, "--out-dir", tmp_path / "blank"]) == 0
        assert _run(["eval", "--pairs", pipeline / "pairs.csv", *common, "--out-dir", tmp_path / "plain"]) == 0
        result = (tmp_path / "blank" / "eval_result.csv").read_text()
        assert result == (tmp_path / "plain" / "eval_result.csv").read_text()
        assert int(result.splitlines()[1].split(",")[0]) == len(lines) - 1

    def test_score_plain(self, pipeline, tmp_path):
        code = _run(["score", "--checkpoint", pipeline / "checkpoint.txt", "--features", pipeline / "features.csv",
                     "--out-dir", tmp_path])
        assert code == 0
        scores = read_id_values(tmp_path / "scores.csv", "post_id,score")
        assert len(scores) == 80 * 8

    def test_score_on_cut_checkpoint_is_a_one_line_error(self, pipeline, tmp_path, capsys):
        cut = tmp_path / "cut.txt"
        cut.write_text("".join((pipeline / "checkpoint.txt").read_text().splitlines(keepends=True)[:40]))
        code = _run(["score", "--checkpoint", cut, "--features", pipeline / "features.csv", "--out-dir", tmp_path])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: line 41: ") and err.count("\n") == 1

    def test_ablate_writes_table(self, pipeline, tmp_path):
        code = _run(["ablate", "--pairs", pipeline / "pairs.csv", "--features", pipeline / "features.csv",
                     "--noise-levels", "0,0.3", "--epochs", "2", "--learning-rate", "1e-3",
                     "--seed", "5", "--out-dir", tmp_path])
        assert code == 0
        lines = (tmp_path / "ablation.csv").read_text().splitlines()
        assert lines[0] == "noise_level,test_accuracy"
        assert len(lines) == 3


class TestEvalMatchesScore:
    def test_eval_is_a_recount_of_scores_csv(self, pipeline, tmp_path):
        common = ["--checkpoint", pipeline / "checkpoint.txt", "--features", pipeline / "features.csv",
                  "--out-dir", tmp_path]
        assert _run(["score"] + common) == 0
        assert _run(["eval", "--pairs", pipeline / "pairs.csv"] + common) == 0
        scores = read_id_values(tmp_path / "scores.csv", "post_id,score")
        pairs = read_pairs(pipeline / "pairs.csv")
        correct = sum(scores[p.id_a] > scores[p.id_b] for p in pairs)
        ties = sum(scores[p.id_a] == scores[p.id_b] for p in pairs)
        row = (tmp_path / "eval_result.csv").read_text().splitlines()[1]
        assert row == f"{len(pairs)},{correct / len(pairs)!r},{ties}"


# The files each command writes from its pairs and features
PAIRED_OUTPUTS = {"train": ["checkpoint.txt", "train_report.csv"], "eval": ["eval_result.csv"],
                  "ablate": ["ablation.csv"]}
TRAIN_FLAGS = ["--epochs", "4", "--learning-rate", "1e-3", "--seed", "5"]


def _paired_run(pipeline, command, features, out):
    """Run `command` on the pipeline's pairs and the given features file; return its exit code and output bytes."""
    extra = {"train": TRAIN_FLAGS, "eval": ["--checkpoint", pipeline / "checkpoint.txt"],
             "ablate": ["--noise-levels", "0,0.3", *TRAIN_FLAGS]}[command]
    code = _run([command, "--pairs", pipeline / "pairs.csv", "--features", features, *extra, "--out-dir", out])
    return code, {name: (out / name).read_bytes() for name in PAIRED_OUTPUTS[command] if (out / name).exists()}


def _feature_lines(pipeline):
    """The pipeline's features file as (header, rows), and the indices of the rows that no pair names."""
    header, *rows = (pipeline / "features.csv").read_text().splitlines()
    paired = {pid for p in read_pairs(pipeline / "pairs.csv") for pid in (p.id_a, p.id_b)}
    return header, rows, [i for i, row in enumerate(rows) if row.partition(",")[0] not in paired]


class TestPartialFeatureRead:
    """`train`, `eval` and `ablate` parse only the values of the feature rows their pairs name; every row still has
    its field count, its id and a repeated id checked."""

    @pytest.mark.parametrize("command", ["train", "eval", "ablate"])
    def test_outputs_match_a_file_of_only_the_paired_rows_shuffled(self, pipeline, tmp_path, capsys, command):
        header, rows, unpaired = _feature_lines(pipeline)
        skip = set(unpaired)
        paired = [row for i, row in enumerate(rows) if i not in skip]
        order = np.random.default_rng(3).permutation(len(paired))
        only = tmp_path / "paired.csv"
        only.write_text("\n".join([header] + [paired[i] for i in order]) + "\n")
        capsys.readouterr()
        full = _paired_run(pipeline, command, pipeline / "features.csv", tmp_path / "full")
        assert f"read {len(paired)} of {len(rows)} feature rows\n" in capsys.readouterr().out
        assert full[0] == 0 and full == _paired_run(pipeline, command, only, tmp_path / "only")

    @pytest.mark.parametrize("value", ["abc", "nan", "-inf", "1e999"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_a_bad_value_in_an_unpaired_row_is_not_read(self, pipeline, tmp_path, capsys, command, value):
        header, rows, unpaired = _feature_lines(pipeline)
        i = unpaired[len(unpaired) // 2]
        rows[i] = rows[i].rpartition(",")[0] + "," + value
        bad = tmp_path / "features.csv"
        bad.write_text("\n".join([header] + rows) + "\n")
        clean = _paired_run(pipeline, command, pipeline / "features.csv", tmp_path / "clean")
        assert clean[0] == 0 and _paired_run(pipeline, command, bad, tmp_path / "bad") == clean
        capsys.readouterr()
        code = _run(["score", "--checkpoint", pipeline / "checkpoint.txt", "--features", bad, "--out-dir", tmp_path])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith(f"error: line {i + 2}: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "bad_row, message",
        [(lambda row: row, "duplicate post_id"), (lambda row: row + ",0.5", "expected "),
         (lambda row: row.rpartition(",")[0], "expected "),
         (lambda row: "a b" + row[row.index(","):], "post_id 'a b' contains ' '")],
        ids=["repeated-id", "extra-field", "missing-field", "id-rule"],
    )
    @pytest.mark.parametrize("reader", ["blocks", "rows"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_every_row_is_still_checked(self, pipeline, tmp_path, capsys, monkeypatch, command, reader, bad_row,
                                        message):
        header, rows, unpaired = _feature_lines(pipeline)
        i = unpaired[len(unpaired) // 2]
        rows.insert(i + 1, bad_row(rows[i]))  # file line i + 3
        bad = tmp_path / "features.csv"
        bad.write_text("\n".join([header] + rows) + "\n")
        if reader == "rows":  # numpy's reader takes no block, so the row parser parses each one
            monkeypatch.setattr(features_mod, "_parse_block", lambda *args: None)
        capsys.readouterr()
        code, outputs = _paired_run(pipeline, command, bad, tmp_path / "out")
        err = capsys.readouterr().err
        assert code == 1 and outputs == {}
        assert err.startswith(f"error: line {i + 3}: {message}") and err.count("\n") == 1


WIDE = 300  # feature width of the streamed-scoring files: a block of FEATURE_VALUES values holds 109 rows
WIDE_BLOCK = features_mod.FEATURE_VALUES // WIDE


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """A features file of four blocks of 300-d rows, a pairs file naming every row, and a checkpoint that takes them."""
    d = tmp_path_factory.mktemp("wide")
    rng = np.random.default_rng(11)
    write_features_file(d / "features.csv", features_mod.FeatureSet(
        [f"p{i}" for i in range(4 * WIDE_BLOCK)], rng.normal(size=(4 * WIDE_BLOCK, WIDE))))
    (d / "pairs.csv").write_text("id_a,id_b,user_id,prob,delta_s\n" + "".join(
        f"p{i},p{i + 1},u,0.99,1.0\n" for i in range(0, 4 * WIDE_BLOCK, 2)))
    mlp.save_checkpoint(d / "checkpoint.txt", {"scorer": mlp.init_model([WIDE, 8, 1], 4)})
    return d


def _wide_run(wide, command, features, out):
    extra = {"score": [], "eval": ["--pairs", wide / "pairs.csv"],
             "train": ["--pairs", wide / "pairs.csv", "--epochs", "1"]}[command]
    checkpoint = [] if command == "train" else ["--checkpoint", wide / "checkpoint.txt"]
    return _run([command, *checkpoint, "--features", features, *extra, "--out-dir", out])


class TestStreamedScoring:
    """`score` and `eval` score the features file one checked block at a time, through the same errors."""

    @pytest.mark.parametrize(
        "row, edit, message",
        [(2 * WIDE_BLOCK + 3, lambda line: "p5" + line[line.index(","):], "duplicate post_id 'p5'"),
         (3 * WIDE_BLOCK + 10, lambda line: line.rpartition(",")[0] + ",x", "could not convert string to float: 'x'"),
         (3 * WIDE_BLOCK + 10, lambda line: line.rpartition(",")[0] + ",nan",
          f"non-finite value for post_id 'p{3 * WIDE_BLOCK + 10}'")],
        ids=["repeated-id-across-blocks", "bad-value-in-the-last-block", "non-finite-in-the-last-block"],
    )
    @pytest.mark.parametrize("command", ["score", "eval", "train"])
    def test_a_bad_row_in_a_late_block_is_the_one_line_error(self, wide, tmp_path, capsys, command, row, edit,
                                                             message):
        header, *rows = (wide / "features.csv").read_text().splitlines()
        rows[row] = edit(rows[row])
        bad = tmp_path / "features.csv"
        bad.write_text("\n".join([header] + rows) + "\n")
        capsys.readouterr()
        code = _wide_run(wide, command, bad, tmp_path / "out")
        assert code == 1 and capsys.readouterr().err == f"error: line {row + 2}: {message}\n"
        assert list((tmp_path / "out").iterdir()) == []

    def test_a_checkpoint_of_another_width_is_an_error_after_every_row_is_checked(self, wide, tmp_path, capsys):
        other = tmp_path / "other.txt"
        mlp.save_checkpoint(other, {"scorer": mlp.init_model([WIDE - 1, 8, 1], 4)})
        header, *rows = (wide / "features.csv").read_text().splitlines()
        rows[3 * WIDE_BLOCK] = rows[3 * WIDE_BLOCK].rpartition(",")[0] + ",x"
        bad = tmp_path / "features.csv"
        bad.write_text("\n".join([header] + rows) + "\n")
        for features, message in [(wide / "features.csv", f"input dim {WIDE} does not match model input dim {WIDE - 1}"),
                                  (bad, f"line {3 * WIDE_BLOCK + 2}: could not convert string to float: 'x'")]:
            capsys.readouterr()
            code = _run(["score", "--checkpoint", other, "--features", features, "--out-dir", tmp_path / "out"])
            assert code == 1 and capsys.readouterr().err == f"error: {message}\n"
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("command", ["score", "eval"])
    def test_a_bad_row_after_a_block_of_overflowing_scores_is_the_error(self, wide, tmp_path, capsys, command):
        model = mlp.init_model([WIDE, 8, 1], 4)
        model.params *= 1e155
        mlp.save_checkpoint(tmp_path / "big.txt", {"scorer": model})
        header, *rows = (wide / "features.csv").read_text().splitlines()
        rows[3 * WIDE_BLOCK] = rows[3 * WIDE_BLOCK].rpartition(",")[0] + ",x"
        bad = tmp_path / "features.csv"
        bad.write_text("\n".join([header] + rows) + "\n")
        extra = ["--pairs", wide / "pairs.csv"] if command == "eval" else []
        for features, message in [(wide / "features.csv", "non-finite score for post_id 'p0'"),
                                  (bad, f"line {3 * WIDE_BLOCK + 2}: could not convert string to float: 'x'")]:
            capsys.readouterr()
            code = _run([command, "--checkpoint", tmp_path / "big.txt", "--features", features, *extra,
                         "--out-dir", tmp_path / "out"])
            assert code == 1 and capsys.readouterr().err == f"error: {message}\n"
        assert list((tmp_path / "out").iterdir()) == []

    def test_score_passes_one_block_at_a_time_and_writes_the_scores_of_the_whole_matrix(self, wide, tmp_path,
                                                                                        monkeypatch):
        rows_per_call, forward_batch = [], mlp.forward_batch

        def recording(model, xs):
            rows_per_call.append(len(xs))
            return forward_batch(model, xs)

        monkeypatch.setattr(mlp, "forward_batch", recording)
        assert _wide_run(wide, "score", wide / "features.csv", tmp_path) == 0
        monkeypatch.undo()
        assert max(rows_per_call) <= WIDE_BLOCK and sum(rows_per_call) == 4 * WIDE_BLOCK
        features = features_mod.load_features(wide / "features.csv")
        scores = ranker.score_batch(mlp.load_checkpoint(wide / "checkpoint.txt")["scorer"], features)
        evaluate.write_scores_csv(tmp_path / "whole.csv", scores)  # one pass over the whole matrix
        assert (tmp_path / "scores.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


# Starts a command and prints its exit code, peak RSS in kilobytes (Linux) and minor page faults. A process's peak RSS
# starts from that of the process it was forked from, so the command is forked from this small interpreter, not pytest.
_LAUNCHER = ("import os, subprocess, sys; child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
             "_, status, usage = os.wait4(child.pid, 0); "
             "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, usage.ru_minflt)")


def _launch(args) -> tuple[int, int]:
    """The peak RSS in kilobytes and the minor page faults of one `poprank` command run in a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"), "OPENBLAS_NUM_THREADS": "1"}
    boot = "import sys; from poprank.cli import main; sys.exit(main())"
    run = subprocess.run([sys.executable, "-c", _LAUNCHER, sys.executable, "-c", boot, *map(str, args)], env=env,
                         capture_output=True, text=True, check=True)
    code, kilobytes, faults = run.stdout.split()
    assert code == "0", args
    return int(kilobytes), int(faults)


def _peak_rss_mb(args) -> float:
    """The peak RSS of one `poprank` command run in a fresh process, in MB."""
    return _launch(args)[0] / 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kilobytes on Linux")
def test_synth_and_score_memory_does_not_grow_with_the_rows(tmp_path):
    """`synth` holds one block of whole users (as many as fit in 8,192 feature values: two users, 24 rows, at
    256-d) and `score` one block of the features file: 6,000 rows of 256-d features, 11 MB more than 600 rows,
    raise neither command's peak by 4 MB."""
    checkpoint = tmp_path / "checkpoint.txt"
    mlp.save_checkpoint(checkpoint, {"scorer": mlp.init_model([256, 64, 32, 1], 0)})
    peaks = {}
    for users in (50, 500):
        out = tmp_path / f"users{users}"
        peaks[users] = (
            _peak_rss_mb(["synth", "--n-users", users, "--posts-per-user", 12, "--feature-dim", 256, "--out-dir", out]),
            _peak_rss_mb(["score", "--checkpoint", checkpoint, "--features", out / "features.csv", "--out-dir", out]),
        )
    growth = [large - small for small, large in zip(peaks[50], peaks[500])]
    assert max(growth) < 4.0, peaks


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap trimming this guards against is glibc's")
def test_synth_faults_in_its_block_arrays_once(tmp_path):
    """`synth` formats every block of its features file in one set of byte arrays. Made fresh for each block, they
    were freed at the top of the heap, handed back to the OS and faulted in again: 500 users' 250 blocks took about
    44,000 more minor faults than 50 users' 25 blocks."""
    faults = {}
    for users in (50, 500):
        out = tmp_path / f"users{users}"
        faults[users] = _launch(["synth", "--n-users", users, "--posts-per-user", 12, "--feature-dim", 256,
                                 "--out-dir", out])[1]
    assert faults[500] - faults[50] < 2_000, faults


def test_mine_frees_the_post_table_before_it_mines(pipeline, tmp_path, monkeypatch):
    """Only the candidates are mined, so the full post table is gone by the time `mining.mine_pairs` runs."""
    tables, alive = [], []
    read_posts, mine_pairs = cli.READERS["posts"], mining.mine_pairs

    def read_and_watch(path):
        table = read_posts(path)
        tables.append(weakref.ref(table))
        return table

    def mine_and_look(*args, **kwargs):
        alive.append(tables[0]() is not None)
        return mine_pairs(*args, **kwargs)

    monkeypatch.setitem(cli.READERS, "posts", read_and_watch)
    monkeypatch.setattr(mining, "mine_pairs", mine_and_look)
    assert _run(_quick_args(pipeline, "mine") + ["--out-dir", tmp_path]) == 0
    assert alive == [False]
    for name in ("pairs.csv", "pair_stats.csv"):
        assert (tmp_path / name).read_bytes() == (pipeline / name).read_bytes()


@pytest.mark.parametrize("command", ["stats", "mine", "eval", "score"])
def test_commands_that_draw_no_random_numbers_import_neither_numpy_random_nor_logging(pipeline, tmp_path, command):
    """Importing `numpy.random` costs a process about 6 MB of RSS and `logging` about 0.6 MB; these commands need
    neither, on a corpus with no posts uploaded after the reference time (the one case that logs)."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    code = ("import sys; from poprank.cli import main; code = main(sys.argv[1:]); "
            "print(code, 'numpy.random' in sys.modules, 'logging' in sys.modules)")
    args = [*map(str, _quick_args(pipeline, command)), "--out-dir", str(tmp_path)]
    run = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.split()[-3:] == ["0", "False", "False"], run.stderr


def _fresh_interpreter(code, *args):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env, capture_output=True, text=True)


# atexit runs its handlers last in, first out: a probe registered before `main` runs after `main`'s hook
_FREEZE_PROBE = "import atexit, gc; atexit.register(lambda: print(gc.get_freeze_count() > 0)); "
_MAIN = "import sys; from poprank.cli import main; code = main(sys.argv[1:]); "


@pytest.mark.parametrize("outcome", ["succeeds", "fails"])
def test_a_command_freezes_the_heap_at_exit(pipeline, tmp_path, outcome):
    """The interpreter's collections at exit skip every object, all of which die with the process."""
    args = _quick_args(pipeline, "stats") if outcome == "succeeds" else ["stats", "--posts", tmp_path / "nope"]
    run = _fresh_interpreter(_FREEZE_PROBE + _MAIN + "sys.exit(code)", *args, "--out-dir", tmp_path / "out")
    assert (run.returncode, run.stdout.splitlines()[-1]) == ({"succeeds": 0, "fails": 1}[outcome], "True"), run.stderr


def test_importing_the_cli_leaves_the_exit_as_it_was():
    run = _fresh_interpreter(_FREEZE_PROBE + "import poprank.cli")
    assert (run.returncode, run.stdout) == (0, "False\n"), run.stderr


def test_main_registers_its_exit_hook_once_per_process(pipeline, tmp_path):
    count_freezes = ("import atexit, gc; freezes = []; freeze = gc.freeze; "
                     "gc.freeze = lambda: freezes.append(freeze()); atexit.register(lambda: print(len(freezes))); ")
    run = _fresh_interpreter(count_freezes + _MAIN + "main(sys.argv[1:]); main(sys.argv[1:])",
                             *_quick_args(pipeline, "stats"), "--out-dir", tmp_path)
    assert (run.returncode, run.stdout.splitlines()[-1]) == (0, "1"), run.stderr


def test_main_in_process_leaves_the_collector_as_it_was(pipeline, tmp_path):
    before = gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()
    assert _run(_quick_args(pipeline, "stats") + ["--out-dir", tmp_path]) == 0
    assert (gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()) == before


@pytest.mark.parametrize("command", ["synth", "stats", "mine", "train", "eval", "score"])
def test_a_command_leaves_no_file_open_when_main_returns(pipeline, tmp_path, command):
    """What makes freezing the heap at exit safe: no file waits for a collection at exit to be flushed or closed."""
    code = _MAIN + (
        "import gc, io; std = [sys.stdin, sys.stdout, sys.stderr, sys.__stdin__, sys.__stdout__, sys.__stderr__]; "
        "std += [s.buffer for s in std if hasattr(s, 'buffer')]; std += [s.raw for s in std if hasattr(s, 'raw')]; "
        "print(code, [repr(o) for o in gc.get_objects() if isinstance(o, io.IOBase) and not o.closed "
        "and not any(o is s for s in std)])"
    )
    run = _fresh_interpreter(code, *_quick_args(pipeline, command), "--out-dir", tmp_path)
    assert run.stdout.splitlines()[-1] == "0 []", run.stderr


# Each command's input labels, in the order it checks and reads them, and the pipeline file each one names
INPUTS = {"stats": ["posts"], "mine": ["posts"], "train": ["pairs", "features"],
          "eval": ["checkpoint", "pairs", "features"], "score": ["checkpoint", "features"],
          "ablate": ["pairs", "features"]}
INPUT_FILES = {"posts": "posts.jsonl", "pairs": "pairs.csv", "features": "features.csv",
               "checkpoint": "checkpoint.txt"}


def _input_args(pipeline, command, replaced):
    """`command`'s argv reading the pipeline's files, but for the labels that `replaced` maps to other paths."""
    args = [command] + (["--reference-time", REF] if command == "mine" else [])
    for label in INPUTS[command]:
        args += ["--" + label, replaced.get(label, pipeline / INPUT_FILES[label])]
    return args


class TestOneLineErrors:
    @pytest.mark.parametrize("command, label", [(c, label) for c, labels in INPUTS.items() for label in labels])
    def test_missing_input_file_fails(self, pipeline, tmp_path, capsys, command, label):
        missing = tmp_path / "nope"
        capsys.readouterr()
        assert _run(_input_args(pipeline, command, {label: missing}) + ["--out-dir", tmp_path / "out"]) == 1
        assert capsys.readouterr().err == f"error: {label} file not found: {missing}\n"
        assert not (tmp_path / "out" / f"{command}_manifest.json").exists()

    def test_eval_reports_a_cut_checkpoint_before_missing_pairs(self, pipeline, tmp_path, capsys):
        cut = tmp_path / "cut.txt"
        cut.write_text("".join((pipeline / "checkpoint.txt").read_text().splitlines(keepends=True)[:40]))
        capsys.readouterr()
        args = _input_args(pipeline, "eval", {"checkpoint": cut, "pairs": tmp_path / "nope"})
        assert _run(args + ["--out-dir", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 41: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["score", "eval"])
    @pytest.mark.parametrize("damage", ["output dim 2", "scorer twice"])
    def test_a_checkpoint_the_loader_refuses_is_one_error_and_writes_nothing(
        self, pipeline, tmp_path, capsys, command, damage
    ):
        lines = (pipeline / "checkpoint.txt").read_text().splitlines(keepends=True)
        bad = tmp_path / "bad.txt"
        if damage == "scorer twice":  # the second section used to replace the first
            bad.write_text("".join(lines + lines[1:]))
            line = len(lines) + 1
        else:  # a two-output scorer used to score by its first output
            dim = int(lines[2].split()[1])
            two = model_of([dim, 3, 2], [np.ones((3, dim)), np.ones((2, 3))], [np.zeros(3), np.zeros(2)])
            mlp.save_checkpoint(bad, {"scorer": two})
            line = 3
        capsys.readouterr()
        assert _run(_input_args(pipeline, command, {"checkpoint": bad}) + ["--out-dir", tmp_path / "out"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1
        assert not list((tmp_path / "out").glob("*"))

    """Bad numbers and bad files end in one `error:` line and exit 1."""

    @pytest.mark.parametrize("flag", ["--learning-rate", "--l2-penalty"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-4"])
    def test_train_rejects_bad_rate(self, pipeline, tmp_path, capsys, flag, value):
        code = _run(["train", "--pairs", pipeline / "pairs.csv", "--features", pipeline / "features.csv",
                     "--epochs", "1", f"{flag}={value}", "--out-dir", tmp_path])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "checkpoint.txt").exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_diverged_training_is_an_error_and_writes_nothing(self, pipeline, tmp_path, capsys, command):
        capsys.readouterr()
        code = _run([command, "--pairs", pipeline / "pairs.csv", "--features", pipeline / "features.csv",
                     "--epochs", "3", "--learning-rate", "1e300", "--out-dir", tmp_path / "out"])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: training diverged in epoch ") and err.count("\n") == 1
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_overflowing_adam_moment_is_an_error_and_writes_nothing(self, pipeline, tmp_path, capsys, command):
        # the second moment of l2 * theta overflows: the weights would stay at their init without a word
        capsys.readouterr()
        code = _run([command, "--pairs", pipeline / "pairs.csv", "--features", pipeline / "features.csv",
                     "--epochs", "3", "--l2-penalty", "1e308", "--out-dir", tmp_path / "out"])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: training diverged in epoch 0: non-finite Adam second moment")
        assert err.count("\n") == 1 and list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("case", ["score", "score-rescaled", "eval"])
    def test_scores_that_overflow_are_an_error_and_write_nothing(self, pipeline, tmp_path, capsys, case):
        model = mlp.init_model([features_mod.FeatureBlocks(pipeline / "features.csv").dim, 4, 1], 0)
        model.params *= 1e155  # finite weights whose sums overflow
        mlp.save_checkpoint(tmp_path / "big.txt", {"scorer": model})
        command = case.partition("-")[0]
        extra = {"score": [], "score-rescaled": ["--rescale-max", "100"],
                 "eval": ["--pairs", pipeline / "pairs.csv"]}[case]
        capsys.readouterr()
        code = _run([command, "--checkpoint", tmp_path / "big.txt", "--features", pipeline / "features.csv", *extra,
                     "--out-dir", tmp_path / "out"])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: non-finite score for post_id '") and err.count("\n") == 1
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_score_rejects_bad_rescale_max(self, pipeline, tmp_path, capsys, value):
        code = _run(["score", "--checkpoint", pipeline / "checkpoint.txt", "--features", pipeline / "features.csv",
                     "--rescale-max", value, "--out-dir", tmp_path])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: new_max") and err.count("\n") == 1
        assert not (tmp_path / "scores.csv").exists()

    def test_score_rejects_nan_checkpoint(self, pipeline, tmp_path, capsys):
        lines = (pipeline / "checkpoint.txt").read_text().splitlines()
        lines[3] = " ".join(["nan"] + lines[3].split()[1:])
        bad = tmp_path / "nan.txt"
        bad.write_text("\n".join(lines) + "\n")
        code = _run(["score", "--checkpoint", bad, "--features", pipeline / "features.csv", "--out-dir", tmp_path])
        assert code == 1 and capsys.readouterr().err == "error: line 4: non-finite value\n"

    def test_synth_rejects_feature_dim_zero(self, tmp_path, capsys):
        code = _run(SYNTH_ARGS + ["--feature-dim", "0", "--n-informative", "0", "--out-dir", tmp_path])
        err = capsys.readouterr().err
        assert code == 1 and "feature_dim" in err and err.count("\n") == 1
        assert not (tmp_path / "features.csv").exists()

    @pytest.mark.parametrize(
        "flag, value, option",
        [("--hashtag-vocab", "0", "hashtag_vocab"), ("--mention-vocab", "0", "mention_vocab"),
         ("--mu-mean", "nan", "mu_mean"), ("--mu-mean", "inf", "mu_mean"), ("--mu-mean", "800", "mu_mean"),
         ("--time-span-days", "106751991148783", "time_span_days"),
         # sizes numpy cannot hold: a bound of its int64 `integers` past 2**63, an array past sys.maxsize bytes
         ("--hashtag-vocab", "9223372036854775809", "hashtag_vocab"),
         ("--mention-vocab", "9223372036854775809", "mention_vocab"),
         ("--feature-dim", "9223372036854775807", "feature_dim")],
    )
    def test_synth_rejects_bad_option(self, tmp_path, capsys, flag, value, option):
        code = _run(SYNTH_ARGS + [flag, value, "--out-dir", tmp_path])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ") and option in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--hashtag-vocab", "--mention-vocab"])
    def test_synth_takes_the_largest_vocabulary_numpy_draws_from(self, tmp_path, flag):
        assert _run(["synth", "--n-users", "1", "--posts-per-user", "2", flag, str(2**63), "--out-dir", tmp_path]) == 0

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("hidden", ["99999999999999999999", "8,99999999999999999999"])
    def test_hidden_dims_numpy_cannot_hold(self, pipeline, tmp_path, capsys, command, hidden):
        dims = [features_mod.FeatureBlocks(pipeline / "features.csv").dim, *map(int, hidden.split(",")), 1]
        capsys.readouterr()
        code = _run([command, "--pairs", pipeline / "pairs.csv", "--features", pipeline / "features.csv",
                     "--hidden-dims", hidden, "--epochs", "1", "--out-dir", tmp_path])
        err = capsys.readouterr().err
        assert code == 1 and err == f"error: dims {dims} need more parameters than one float64 array holds\n"
        assert list(tmp_path.iterdir()) == []

    # An impossible size (say `--feature-dim 100000000000`) fails its allocation; raised here without allocating,
    # since on a host that overcommits memory a real huge allocation can succeed and the process be killed later
    @pytest.mark.parametrize(
        "exc, message",
        [(MemoryError("Unable to allocate 2.91 TiB for an array with shape (4, 100000000000)"),
          "Unable to allocate 2.91 TiB for an array with shape (4, 100000000000)"),
         (MemoryError(), "out of memory")],
    )
    def test_synth_out_of_memory(self, tmp_path, capsys, monkeypatch, exc, message):
        def fail(config):
            raise exc

        monkeypatch.setattr(synthgen, "generate_users", fail)
        code = _run(SYNTH_ARGS + ["--out-dir", tmp_path])
        assert code == 1 and capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "posts.jsonl").exists()

    def test_synth_failing_after_some_users_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        generate_users = synthgen.generate_users

        def fail_at_the_sixth_user(config):
            yield from islice(generate_users(config), 5)
            raise MemoryError()

        monkeypatch.setattr(synthgen, "generate_users", fail_at_the_sixth_user)
        code = _run(SYNTH_ARGS + ["--out-dir", tmp_path])
        assert code == 1 and capsys.readouterr().err == "error: out of memory\n"
        assert list(tmp_path.iterdir()) == []  # neither an output nor a staging directory

    @pytest.mark.parametrize(
        "row, message",
        [("a,b,u,abc,1.0", "line 3: could not convert string to float: 'abc'"),
         ("a,b,u,nan,1.0", "line 3: prob must be in [0, 1]"),
         ("a,b,u,0.99,inf", "line 3: prob must be in [0, 1] and delta_s finite"),
         ("a,a,u,0.99,1.0", "line 3: post_id 'a' is paired with itself"),
         ("a,b,u,0.99", "line 3: expected 5 fields, got 4"),
         ("a,b,u,0.99,1.0,x", "line 3: expected 5 fields, got 6")],
    )
    @pytest.mark.parametrize("command", ["train", "eval", "ablate"])
    def test_bad_pairs_row(self, pipeline, tmp_path, capsys, row, message, command):
        lines = (pipeline / "pairs.csv").read_text().splitlines()
        bad = tmp_path / "pairs.csv"
        bad.write_text("\n".join(lines[:2] + [row] + lines[2:]) + "\n")
        args = [command, "--pairs", bad, "--features", pipeline / "features.csv", "--out-dir", tmp_path]
        args += ["--checkpoint", pipeline / "checkpoint.txt"] if command == "eval" else ["--epochs", "1"]
        code = _run(args)
        err = capsys.readouterr().err
        assert code == 1 and err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--max-interval-days", "0", "max_interval_days must be positive, got 0"),
         ("--max-caption-words", "-1", "max_caption_words must be >= 0, got -1")],
    )
    def test_mine_rejects_bad_window(self, pipeline, tmp_path, capsys, flag, value, message):
        code = _run(["mine", "--posts", pipeline / "posts.jsonl", "--reference-time", REF, flag, value,
                     "--out-dir", tmp_path / "out"])
        assert code == 1 and capsys.readouterr().err == f"error: {message}\n"
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--batch-size", "0", "batch_size must be >= 1"), ("--epochs", "0", "epochs must be >= 1"),
         ("--lr-decay", "0", "lr_decay_per_epoch must be in (0, 1]"),
         ("--lr-decay", "1.5", "lr_decay_per_epoch must be in (0, 1]")],
    )
    def test_train_rejects_bad_schedule(self, pipeline, tmp_path, capsys, flag, value, message):
        code = _run(["train", "--pairs", pipeline / "pairs.csv", "--features", pipeline / "features.csv",
                     flag, value, "--out-dir", tmp_path / "out"])
        assert code == 1 and capsys.readouterr().err == f"error: {message}\n"
        assert list((tmp_path / "out").iterdir()) == []

    def test_score_rejects_a_checkpoint_without_a_scorer(self, pipeline, tmp_path, capsys):
        other, dim = tmp_path / "other.txt", features_mod.FeatureBlocks(pipeline / "features.csv").dim
        mlp.save_checkpoint(other, {"other": mlp.init_model([dim, 4, 1], 0)})
        code = _run(["score", "--checkpoint", other, "--features", pipeline / "features.csv",
                     "--out-dir", tmp_path / "out"])
        assert code == 1 and capsys.readouterr().err == f"error: checkpoint has no 'scorer' section: {other}\n"
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("levels", ["", ","])
    def test_ablate_rejects_no_noise_level(self, pipeline, tmp_path, capsys, levels):
        code = _run(["ablate", "--pairs", pipeline / "pairs.csv", "--features", pipeline / "features.csv",
                     "--noise-levels", levels, "--epochs", "1", "--out-dir", tmp_path])
        assert code == 1 and capsys.readouterr().err == "error: --noise-levels must name at least one level\n"
        assert not (tmp_path / "ablation.csv").exists()

    @pytest.mark.parametrize(
        "command, flag, value, message",
        [("train", "--hidden-dims", "", "--hidden-dims must name at least one layer width"),
         ("train", "--hidden-dims", "16,,8", "--hidden-dims entry 2 is blank"),
         ("ablate", "--hidden-dims", " ", "--hidden-dims must name at least one layer width"),
         ("ablate", "--noise-levels", "0,,0.2", "--noise-levels entry 2 is blank"),
         ("ablate", "--noise-levels", "0,0.2,", "--noise-levels entry 3 is blank")],
    )
    def test_blank_list_entry(self, pipeline, tmp_path, capsys, command, flag, value, message):
        code = _run([command, "--pairs", pipeline / "pairs.csv", "--features", pipeline / "features.csv",
                     flag, value, "--epochs", "1", "--out-dir", tmp_path])
        assert code == 1 and capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, flag", [("train", "--val-fraction"), ("ablate", "--val-fraction"),
                                               ("ablate", "--test-fraction")])
    @pytest.mark.parametrize("value", ["1.5", "-0.1", "nan"])
    def test_fraction_out_of_range_names_its_flag(self, pipeline, tmp_path, capsys, command, flag, value):
        code = _run([command, "--pairs", pipeline / "pairs.csv", "--features", pipeline / "features.csv",
                     f"{flag}={value}", "--epochs", "1", "--out-dir", tmp_path])
        assert code == 1 and capsys.readouterr().err == f"error: {flag} must be in [0, 1), got {float(value)}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "post_id, message",
        [("", "line 3: post_id must be a non-empty string"), ("a b", "line 3: post_id 'a b' contains ' '")],
    )
    def test_bad_features_id(self, pipeline, tmp_path, capsys, post_id, message):
        lines = (pipeline / "features.csv").read_text().splitlines()
        bad = tmp_path / "features.csv"
        bad.write_text("\n".join(lines[:2] + [post_id + "," + lines[1].partition(",")[2]] + lines[2:]) + "\n")
        code = _run(["score", "--checkpoint", pipeline / "checkpoint.txt", "--features", bad, "--out-dir", tmp_path])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "scores.csv").exists()

    @pytest.mark.parametrize("dim", ["abc", "-1"])
    def test_bad_features_header(self, pipeline, tmp_path, capsys, dim):
        bad = tmp_path / "features.csv"
        bad.write_text(f"post_id,dim={dim}\n" + "".join((pipeline / "features.csv").read_text().splitlines(True)[1:]))
        code = _run(["score", "--checkpoint", pipeline / "checkpoint.txt", "--features", bad, "--out-dir", tmp_path])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: line 1: expected the header 'post_id,dim=D'")
        assert err.count("\n") == 1


class TestStats:
    def test_stats_csv(self, pipeline, tmp_path):
        assert _run(["stats", "--posts", pipeline / "posts.jsonl", "--out-dir", tmp_path]) == 0
        lines = (tmp_path / "corpus_stats.csv").read_text().splitlines()
        assert lines[0] == "name,value"
        stats = dict(line.split(",") for line in lines[1:])
        assert int(stats["n_posts"]) == 640
        assert int(stats["n_users"]) == 80

    def test_empty_corpus_nonzero_exit(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert _run(["stats", "--posts", empty, "--out-dir", tmp_path]) == 1
        assert "non-empty" in capsys.readouterr().err

    def test_deeply_nested_line_is_a_warning(self, tmp_path, capsys):
        posts_file = tmp_path / "posts.jsonl"
        posts_file.write_text("[" * 100_000 + "\n")
        assert _run(["stats", "--posts", posts_file, "--out-dir", tmp_path]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith(f"warning: {posts_file}: line 1: maximum recursion depth exceeded")
        assert err[1:] == ["error: corpus_stats requires a non-empty post list"]


class TestRerun:
    def test_manifest_rerun_is_byte_identical(self, pipeline, tmp_path):
        for command, manifest in [
            ("synth", "synth_manifest.json"),
            ("mine", "mine_manifest.json"),
            ("train", "train_manifest.json"),
            ("eval", "eval_manifest.json"),
            ("score", "score_manifest.json"),
        ]:
            redo = tmp_path / command
            assert _run(["rerun", pipeline / manifest, "--out-dir", redo]) == 0
            for name, blob in _dir_bytes(redo).items():
                assert blob == (pipeline / name).read_bytes(), f"{command}: {name} differs"

    def test_rerun_missing_manifest(self, tmp_path, capsys):
        assert _run(["rerun", tmp_path / "none.json", "--out-dir", tmp_path]) == 1

    def _mine_copy(self, pipeline, tmp_path):
        """Mine a private copy of the posts, so the test may edit it."""
        posts_file = tmp_path / "posts.jsonl"
        posts_file.write_bytes((pipeline / "posts.jsonl").read_bytes())
        out = tmp_path / "mined"
        assert _run(["mine", "--posts", posts_file, "--reference-time", REF, "--out-dir", out]) == 0
        return posts_file, out / "mine_manifest.json"

    def test_unchanged_rerun_exits_zero(self, pipeline, tmp_path):
        _, manifest = self._mine_copy(pipeline, tmp_path)
        assert _run(["rerun", manifest, "--out-dir", tmp_path / "redo"]) == 0

    def test_edited_input_is_refused_before_running(self, pipeline, tmp_path, capsys):
        posts_file, manifest = self._mine_copy(pipeline, tmp_path)
        lines = posts_file.read_text().splitlines(keepends=True)
        posts_file.write_text("".join(lines[1:]))
        capsys.readouterr()
        assert _run(["rerun", manifest, "--out-dir", tmp_path / "redo"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: posts input ") and "sha256" in err and err.count("\n") == 1
        assert not (tmp_path / "redo").exists()

    def test_differing_outputs_are_named(self, pipeline, tmp_path, capsys):
        _, manifest = self._mine_copy(pipeline, tmp_path)
        recorded = json.loads(manifest.read_text())
        recorded["outputs"]["pair_stats.csv"] = "0" * 64
        manifest.write_text(json.dumps(recorded))
        capsys.readouterr()
        assert _run(["rerun", manifest, "--out-dir", tmp_path / "redo"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: outputs differ from ") and err.rstrip().endswith(": pair_stats.csv")

    def test_relative_paths_rerun_from_another_directory(self, pipeline, tmp_path, monkeypatch):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        (corpus_dir / "posts.jsonl").write_bytes((pipeline / "posts.jsonl").read_bytes())
        monkeypatch.chdir(corpus_dir)
        assert _run(["mine", "--posts", "posts.jsonl", "--reference-time", REF, "--out-dir", "."]) == 0
        recorded = json.loads((corpus_dir / "mine_manifest.json").read_text())
        assert recorded["inputs"]["posts"]["path"] == "posts.jsonl"
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert _run(["rerun", os.path.join("..", "corpus", "mine_manifest.json"), "--out-dir", "redo"]) == 0
        assert (elsewhere / "redo" / "pairs.csv").read_bytes() == (corpus_dir / "pairs.csv").read_bytes()

    def test_rerun_into_the_manifests_own_directory_exits_zero(self, pipeline, tmp_path):
        _, manifest = self._mine_copy(pipeline, tmp_path)
        before = _dir_bytes(manifest.parent)
        assert _run(["rerun", manifest, "--out-dir", manifest.parent]) == 0
        assert _dir_bytes(manifest.parent) == before

    @pytest.mark.parametrize("tamper", ["checkpoint dropped", "pairs added"])
    def test_inputs_other_than_its_configs_are_refused_and_nothing_is_written(self, pipeline, tmp_path, capsys,
                                                                               tamper):
        recorded = json.loads((pipeline / "score_manifest.json").read_text())
        for entry in recorded["inputs"].values():
            entry["path"] = str(pipeline / entry["path"])
        if tamper == "checkpoint dropped":  # the rerun would read the checkpoint path typed at the first run, unchecked
            del recorded["inputs"]["checkpoint"]
        else:  # the rerun would read the pairs too, and score only the paired rows
            pairs = pipeline / "pairs.csv"
            recorded["inputs"]["pairs"] = {"path": str(pairs), "sha256": hashlib.sha256(pairs.read_bytes()).hexdigest()}
        manifest, out = tmp_path / "score_manifest.json", tmp_path / "out"
        manifest.write_text(json.dumps(recorded))
        out.mkdir()
        (out / "scores.csv").write_text("post_id,score\n")
        capsys.readouterr()
        assert _run(["rerun", manifest, "--out-dir", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: manifest {manifest}: inputs ") and err.count("\n") == 1
        assert "'checkpoint', 'features'" in err and _dir_bytes(out) == {"scores.csv": b"post_id,score\n"}

    def test_input_path_recorded_relative_to_manifest(self, pipeline, tmp_path):
        _, manifest = self._mine_copy(pipeline, tmp_path)
        assert json.loads(manifest.read_text())["inputs"]["posts"]["path"] == os.path.join("..", "posts.jsonl")


def _quick_args(pipeline, command):
    """A short run of `command` on the pipeline's files, without its --out-dir."""
    if command == "synth":
        return SYNTH_ARGS
    fit = ["--epochs", "2", "--learning-rate", "1e-3", "--seed", "5"] if command in ("train", "ablate") else []
    return _input_args(pipeline, command, {}) + fit + (["--noise-levels", "0,0.3"] if command == "ablate" else [])


def _cut_after_the_first_line(real, exc):
    """The writer `real`, left after the first line it writes, then raising `exc`."""

    def write(target, *args):
        if isinstance(target, Path):  # a writer of one whole file
            real(target, *args)
            target.write_text(target.read_text().splitlines(keepends=True)[0])
        else:  # synthgen.write_latents(f, ids, mu) into an open file: the first user's first row
            real(target, *(arg[:1] for arg in args))
        raise exc

    return write


class TestStagedWrites:
    # each command's last writer, as the command reaches it
    LAST_WRITERS = {"synth": (synthgen, "write_latents"), "stats": (corpus, "write_stats_csv"),
                    "mine": (corpus, "write_stats_csv"), "train": (ranker, "write_train_report_csv"),
                    "eval": (evaluate, "write_eval_csv"), "score": (evaluate, "write_scores_csv"),
                    "ablate": (evaluate, "write_ablation_csv")}

    @pytest.mark.parametrize("command", ["synth", "stats", "mine", "train", "eval", "score", "ablate"])
    def test_a_write_failing_partway_leaves_the_last_run_as_it_was(self, pipeline, tmp_path, capsys, monkeypatch,
                                                                   command):
        exc = KeyboardInterrupt() if command == "train" else OSError("No space left on device")
        out = tmp_path / "out"
        args = _quick_args(pipeline, command) + ["--out-dir", out]
        assert _run(args) == 0
        before = _dir_bytes(out)
        module, name = self.LAST_WRITERS[command]
        monkeypatch.setattr(module, name, _cut_after_the_first_line(getattr(module, name), exc))
        capsys.readouterr()
        if command == "train":
            with pytest.raises(KeyboardInterrupt):
                _run(args)
        else:
            assert _run(args) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
        assert _dir_bytes(out) == before  # every output and the manifest, and no new entry

    def test_a_failed_move_leaves_no_manifest_naming_other_bytes(self, pipeline, tmp_path, capsys):
        args = _quick_args(pipeline, "train") + ["--out-dir", tmp_path]
        assert _run(args) == 0
        (tmp_path / "train_report.csv").unlink()
        (tmp_path / "train_report.csv").mkdir()  # the report can no longer be replaced
        capsys.readouterr()
        assert _run(args + ["--seed", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        manifest = tmp_path / "train_manifest.json"
        if manifest.exists():  # it may name only the bytes beside it
            for name, digest in json.loads(manifest.read_text())["outputs"].items():
                assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
        assert not [f.name for f in tmp_path.iterdir() if f.name.startswith(".")]

    def test_rerun_into_an_older_run_is_refused_and_leaves_it_as_it_was(self, pipeline, tmp_path, capsys):
        older = _quick_args(pipeline, "mine") + ["--threshold", "0.99", "--out-dir", tmp_path]
        assert _run(older) == 0
        before = _dir_bytes(tmp_path)
        assert before["pairs.csv"] != (pipeline / "pairs.csv").read_bytes()
        capsys.readouterr()
        assert _run(["rerun", pipeline / "mine_manifest.json", "--out-dir", tmp_path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "mine_manifest.json" in err and err.count("\n") == 1
        assert _dir_bytes(tmp_path) == before  # every output and the manifest, and no new entry


def _valid_mine_manifest(pipeline, tmp_path):
    out = tmp_path / "mined"
    assert _run(["mine", "--posts", pipeline / "posts.jsonl", "--reference-time", REF, "--out-dir", out]) == 0
    return json.loads((out / "mine_manifest.json").read_text()), out / "mine_manifest.json"


def _without(recorded, key):
    return {k: v for k, v in recorded.items() if k != key}


class TestMalformedManifest:
    """Every malformed manifest ends in one `error:` line and exit 1, with nothing run."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: ["not", "an", "object"],
            lambda m: _without(m, "command"),
            lambda m: {**m, "command": "nope"},
            lambda m: {**m, "command": ["mine"]},
            lambda m: _without(m, "config"),
            lambda m: {**m, "config": "posts.jsonl"},
            lambda m: _without(m, "inputs"),
            lambda m: {**m, "inputs": []},
            lambda m: _without(m, "outputs"),
            lambda m: {**m, "outputs": None},
            lambda m: {**m, "inputs": {"posts": "posts.jsonl"}},
            lambda m: {**m, "inputs": {"posts": {"path": "../posts.jsonl"}}},
            lambda m: {**m, "config": _without(m["config"], "threshold")},
            lambda m: {"command": "mine"},
        ],
        ids=[
            "not-object", "no-command", "unknown-command", "command-not-string", "no-config",
            "config-not-object", "no-inputs", "inputs-not-object", "no-outputs", "outputs-not-object",
            "input-not-object", "input-without-sha256", "config-missing-field", "command-only",
        ],
    )
    def test_one_line_error(self, pipeline, tmp_path, capsys, edit):
        recorded, manifest = _valid_mine_manifest(pipeline, tmp_path)
        manifest.write_text(json.dumps(edit(recorded)))
        capsys.readouterr()
        assert _run(["rerun", manifest, "--out-dir", tmp_path / "redo"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "redo" / "pairs.csv").exists()

    def test_not_json(self, tmp_path, capsys):
        manifest = tmp_path / "mine_manifest.json"
        manifest.write_text("{not json")
        assert _run(["rerun", manifest, "--out-dir", tmp_path / "redo"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_nested_too_deeply(self, tmp_path, capsys):
        manifest = tmp_path / "mine_manifest.json"
        manifest.write_text("[" * 100_000)
        assert _run(["rerun", manifest, "--out-dir", tmp_path / "redo"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: manifest {manifest} is not readable JSON: maximum recursion depth exceeded")
        assert err.count("\n") == 1


# What `build_parser().parse_args(argv)` returns for each subcommand: with its required flags only, and then
# with every flag at a value other than its default. A renamed flag, or a changed default, type or manifest
# `config` key, shows up here.
PINNED_NAMESPACES = [
    (["synth", "--out-dir", "o"],
     {"command": "synth", "feature_dim": 16, "feature_noise_std": 0.25, "hashtag_vocab": 30, "mention_vocab": 20,
      "mu_mean": 6.0, "mu_std": 1.0, "n_informative": 4, "n_users": 800, "out_dir": "o",
      "posts_per_user": 12, "seed": 0, "sigma_true": 0.3, "time_span_days": 90}),
    (["synth", "--out-dir", "o", "--n-users", "7", "--posts-per-user", "3", "--mu-mean", "5.5", "--mu-std", "0.5",
      "--sigma-true", "0.2", "--feature-dim", "8", "--n-informative", "2", "--feature-noise-std", "0.1",
      "--hashtag-vocab", "5", "--mention-vocab", "4", "--time-span-days", "30", "--seed", "3"],
     {"command": "synth", "feature_dim": 8, "feature_noise_std": 0.1, "hashtag_vocab": 5, "mention_vocab": 4,
      "mu_mean": 5.5, "mu_std": 0.5, "n_informative": 2, "n_users": 7, "out_dir": "o", "posts_per_user": 3,
      "seed": 3, "sigma_true": 0.2, "time_span_days": 30}),
    (["stats", "--out-dir", "o", "--posts", "p.jsonl"],
     {"command": "stats", "out_dir": "o", "posts": "p.jsonl"}),
    (["mine", "--out-dir", "o", "--posts", "p.jsonl", "--reference-time", "1600000000"],
     {"command": "mine", "max_caption_words": 6, "max_interval_days": 10, "out_dir": "o", "posts": "p.jsonl",
      "reference_time": 1600000000, "sigma": 0.3, "threshold": 0.95}),
    (["mine", "--out-dir", "o", "--posts", "p.jsonl", "--reference-time", "1600000000", "--threshold", "0.9",
      "--sigma", "0.5", "--max-interval-days", "5", "--max-caption-words", "3"],
     {"command": "mine", "max_caption_words": 3, "max_interval_days": 5, "out_dir": "o", "posts": "p.jsonl",
      "reference_time": 1600000000, "sigma": 0.5, "threshold": 0.9}),
    (["train", "--out-dir", "o", "--pairs", "a.csv", "--features", "f.csv"],
     {"batch_size": 64, "command": "train", "epochs": 30, "features": "f.csv", "hidden_dims": [64, 32],
      "l2_penalty": 0.0001, "learning_rate": 0.0001, "lr_decay_per_epoch": 0.95, "out_dir": "o",
      "pairs": "a.csv", "seed": 0, "val_fraction": 0.1}),
    (["train", "--out-dir", "o", "--pairs", "a.csv", "--features", "f.csv", "--seed", "2", "--hidden-dims", "8,4,2",
      "--learning-rate", "1e-3", "--l2-penalty", "0.01", "--batch-size", "16", "--epochs", "3", "--lr-decay",
      "0.5", "--val-fraction", "0.25"],
     {"batch_size": 16, "command": "train", "epochs": 3, "features": "f.csv", "hidden_dims": [8, 4, 2],
      "l2_penalty": 0.01, "learning_rate": 0.001, "lr_decay_per_epoch": 0.5, "out_dir": "o",
      "pairs": "a.csv", "seed": 2, "val_fraction": 0.25}),
    (["eval", "--out-dir", "o", "--checkpoint", "c.txt", "--pairs", "a.csv", "--features", "f.csv"],
     {"checkpoint": "c.txt", "command": "eval", "features": "f.csv", "out_dir": "o", "pairs": "a.csv"}),
    (["score", "--out-dir", "o", "--checkpoint", "c.txt", "--features", "f.csv"],
     {"checkpoint": "c.txt", "command": "score", "features": "f.csv", "out_dir": "o", "rescale_max": None}),
    (["score", "--out-dir", "o", "--checkpoint", "c.txt", "--features", "f.csv", "--rescale-max", "10"],
     {"checkpoint": "c.txt", "command": "score", "features": "f.csv", "out_dir": "o", "rescale_max": 10.0}),
    (["ablate", "--out-dir", "o", "--pairs", "a.csv", "--features", "f.csv"],
     {"batch_size": 64, "command": "ablate", "epochs": 30, "features": "f.csv", "hidden_dims": [64, 32],
      "l2_penalty": 0.0001, "learning_rate": 0.0001, "lr_decay_per_epoch": 0.95,
      "noise_levels": [0.0, 0.2, 0.4], "out_dir": "o", "pairs": "a.csv", "seed": 0, "test_fraction": 0.2,
      "val_fraction": 0.1}),
    (["ablate", "--out-dir", "o", "--pairs", "a.csv", "--features", "f.csv", "--noise-levels", "0.1,0.3",
      "--test-fraction", "0.3", "--seed", "4", "--hidden-dims", "8", "--learning-rate", "1e-3",
      "--l2-penalty", "0.01", "--batch-size", "16", "--epochs", "3", "--lr-decay", "0.5", "--val-fraction",
      "0.25"],
     {"batch_size": 16, "command": "ablate", "epochs": 3, "features": "f.csv", "hidden_dims": [8],
      "l2_penalty": 0.01, "learning_rate": 0.001, "lr_decay_per_epoch": 0.5, "noise_levels": [0.1, 0.3],
      "out_dir": "o", "pairs": "a.csv", "seed": 4, "test_fraction": 0.3, "val_fraction": 0.25}),
    (["rerun", "m.json", "--out-dir", "o"],
     {"command": "rerun", "manifest": "m.json", "out_dir": "o"}),
]


def _typed(value):
    """`value` with its type, and each entry's type for a list, so that 1 and 1.0 compare unequal."""
    if isinstance(value, list):
        return [_typed(v) for v in value]
    return type(value), value


class TestParsedCommandLines:
    @pytest.mark.parametrize(
        "argv, expected", PINNED_NAMESPACES,
        ids=[f"{argv[0]}-{sum(a.startswith('--') for a in argv)}-flags" for argv, _ in PINNED_NAMESPACES],
    )
    def test_namespace_is_pinned(self, argv, expected):
        parsed = vars(build_parser().parse_args(argv))
        assert {k: _typed(v) for k, v in parsed.items()} == {k: _typed(v) for k, v in expected.items()}

    @pytest.mark.parametrize("command", list(dict.fromkeys(argv[0] for argv, _ in PINNED_NAMESPACES)))
    def test_help_names_every_flag(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        text = capsys.readouterr().out
        assert exit_info.value.code == 0
        flags = {a for argv, _ in PINNED_NAMESPACES if argv[0] == command for a in argv if a.startswith("--")}
        assert [flag for flag in sorted(flags) if f"{flag} " not in text] == []

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_help_shows_list_defaults_as_the_flag_takes_them(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        argv, defaults = next((argv, expected) for argv, expected in PINNED_NAMESPACES if argv[0] == command)
        shown = {"--hidden-dims": "D1,D2 default: 64,32", "--noise-levels": "Q1,Q2 default: 0,0.2,0.4"}
        for flag, help_text in shown.items():
            dest = flag[2:].replace("-", "_")
            if dest in defaults:
                assert f"{flag} {help_text}" in text
                typed = build_parser().parse_args(argv + [flag, help_text.rsplit(" ", 1)[1]])
                assert _typed(vars(typed)[dest]) == _typed(defaults[dest])
