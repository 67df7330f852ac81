"""End-to-end tests of the command-line pipeline and its manifests."""

import json

import pytest

from poprank import synthgen
from poprank.cli import main
from poprank.evaluate import read_scores_csv
from poprank.mining import read_pairs

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
        scores = read_scores_csv(tmp_path / "scores.csv")
        assert max(scores.values()) == 100.0
        assert min(scores.values()) == 0.0

    def test_score_plain(self, pipeline, tmp_path):
        code = _run(["score", "--checkpoint", pipeline / "checkpoint.txt", "--features", pipeline / "features.csv",
                     "--out-dir", tmp_path])
        assert code == 0
        scores = read_scores_csv(tmp_path / "scores.csv")
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
