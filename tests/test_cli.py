"""End-to-end tests of the command-line pipeline and its manifests."""

import json
import os

import pytest

from poprank import synthgen
from poprank.cli import main
from poprank.mining import read_pairs

from conftest import read_id_values

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
    """One full synth -> mine -> train run shared by the read-only tests."""
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

    def test_extreme_threshold_gives_empty_file_and_success(self, pipeline, tmp_path):
        code = _run(
            ["mine", "--posts", pipeline / "posts.jsonl", "--reference-time", REF,
             "--threshold", "0.9999999", "--out-dir", tmp_path]
        )
        assert code == 0
        assert read_pairs(tmp_path / "pairs.csv") == []

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

    def test_missing_posts_file_fails(self, tmp_path, capsys):
        code = _run(["mine", "--posts", tmp_path / "nope.jsonl", "--reference-time", REF, "--out-dir", tmp_path])
        assert code == 1
        assert "nope.jsonl" in capsys.readouterr().err


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

    def test_unresolvable_ids_fatal(self, pipeline, tmp_path, capsys):
        bad = tmp_path / "bad_pairs.csv"
        rows = [f"ghost{i}a,ghost{i}b,u,0.99,1.0" for i in range(10)]
        bad.write_text("id_a,id_b,user_id,prob,delta_s\n" + "\n".join(rows) + "\n")
        code = _run(["train", "--pairs", bad, "--features", pipeline / "features.csv",
                     "--epochs", "1", "--out-dir", tmp_path])
        assert code == 1
        assert "ghost" in capsys.readouterr().err


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


class TestOneLineErrors:
    """Bad numbers and bad files end in one `error:` line and exit 1."""

    @pytest.mark.parametrize("flag", ["--learning-rate", "--l2-penalty"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1e-4"])
    def test_train_rejects_bad_rate(self, pipeline, tmp_path, capsys, flag, value):
        code = _run(["train", "--pairs", pipeline / "pairs.csv", "--features", pipeline / "features.csv",
                     "--epochs", "1", f"{flag}={value}", "--out-dir", tmp_path])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "checkpoint.txt").exists()

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
         ("--mu-mean", "nan", "mu_mean"), ("--mu-mean", "inf", "mu_mean"), ("--mu-mean", "800", "mu_mean")],
    )
    def test_synth_rejects_bad_option(self, tmp_path, capsys, flag, value, option):
        code = _run(SYNTH_ARGS + [flag, value, "--out-dir", tmp_path])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ") and option in err and err.count("\n") == 1
        assert not (tmp_path / "posts.jsonl").exists()

    @pytest.mark.parametrize(
        "row, message",
        [("a,b,u,abc,1.0", "line 3: could not convert string to float: 'abc'"),
         ("a,b,u,nan,1.0", "line 3: prob must be in [0, 1]"),
         ("a,b,u,0.99,inf", "line 3: prob must be in [0, 1] and delta_s finite"),
         ("a,a,u,0.99,1.0", "line 3: post_id 'a' is paired with itself")],
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

    @pytest.mark.parametrize("levels", ["", ","])
    def test_ablate_rejects_no_noise_level(self, pipeline, tmp_path, capsys, levels):
        code = _run(["ablate", "--pairs", pipeline / "pairs.csv", "--features", pipeline / "features.csv",
                     "--noise-levels", levels, "--epochs", "1", "--out-dir", tmp_path])
        assert code == 1 and capsys.readouterr().err == "error: --noise-levels must name at least one level\n"
        assert not (tmp_path / "ablation.csv").exists()

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


class TestRerun:
    def test_manifest_rerun_is_byte_identical(self, pipeline, tmp_path):
        for command, manifest in [
            ("synth", "synth_manifest.json"),
            ("mine", "mine_manifest.json"),
            ("train", "train_manifest.json"),
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

    def test_input_path_recorded_relative_to_manifest(self, pipeline, tmp_path):
        _, manifest = self._mine_copy(pipeline, tmp_path)
        assert json.loads(manifest.read_text())["inputs"]["posts"]["path"] == os.path.join("..", "posts.jsonl")


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
