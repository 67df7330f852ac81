"""Pinned output digests: every command's files, byte for byte.

One small synth -> stats -> mine -> train -> eval -> score -> ablate run
through `cli.main`, each command into its own directory. The sha256 of every
output, as its manifest records it, must equal the value pinned here, so a
change to any output's bytes fails this test. The trained outputs (checkpoint,
train report, scores, eval, ablation) hold for any BLAS thread count, and the
run is repeated at two OpenBLAS threads to show it; a BLAS or numpy that rounds
differently in the last bit would need new values. Under other CPU kernels the
untrained outputs, and the scores of a given checkpoint, are checked to hold.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from poprank import synthgen
from poprank.cli import main

REF = str(synthgen.reference_time_for(synthgen.SynthConfig()))
TRAIN = ["--epochs", "3", "--learning-rate", "1e-3", "--seed", "2"]

PINNED = {
    "ablate/ablation.csv": "ff781fe96ee838ef850677d4d9d8a090d46751e57cde252e8d48c9dc52d99053",
    "eval/eval_result.csv": "4b3c494585c568da1e95b95044eab69ebdb70dde9cd46085b367bf5950f77fd4",
    "mine/pair_stats.csv": "c821c0fddf730973df0d5f80ef7935c8b938f44d43636c22baba028f81a072d1",
    "mine/pairs.csv": "ede4b9fef114fc7bca368d8ffcd7ec79630bd5bb9e4ec991436b14a38c432f66",
    "rescaled/scores.csv": "a1a36376f570f3e9ab3ad3774f222b503ff227ba332189a247e67a236e61e87a",
    "score/scores.csv": "6bcb28373ca62780899c3c69a630fce736c08bbe66f9403332f8c42514a47937",
    "stats/corpus_stats.csv": "b56a3607815913ea1b6c297bf869159e5a209bda898e845ca544c3516b4aecfd",
    "synth/features.csv": "c282a22e5e98eab55d3cf4782917e9c055f10fa6cd24b12850bbd3c199cb4db8",
    "synth/latents.csv": "c3e9f794a359007178982d15106fc1bbd2e9eb2d2e40bf22688cb7461d5bbf09",
    "synth/posts.jsonl": "6e410797a3c212eeb17ce015b4be8a1fb6231ae9d6fa9adbb3f6a9d8f28a00c9",
    "train/checkpoint.txt": "bb6a432ee9e7477e0d78d43a45655722fba042507f83eee3dac6c23bbb2b3416",
    "train/train_report.csv": "7c4ceb5a0118d686895b4d06cc586f9cb5d0b6be30d312f94d1dd7af019714e7",
}


# `synth` at the feature width of the bench's `embed` workload, where each row is formatted in one piece
PINNED_WIDE = {
    "features.csv": "9bf052f71b991418b0d88e604075ee43444562b418405c79f546f1c0cd331225",
    "latents.csv": "2bdf5e20afebab72db514045bbb09621b8c55292540460375f7c58eabbd45ada",
    "posts.jsonl": "d60a7309fb69bb8b9cf5bd1688fa498acc5b794f531f005fd91d0582a19c5747",
}


def test_wide_synth_digests_are_pinned(tmp_path):
    args = ["synth", "--n-users", "40", "--posts-per-user", "12", "--seed", "2", "--feature-dim", "256"]
    assert main(args + ["--out-dir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "synth_manifest.json").read_text())["outputs"] == PINNED_WIDE


# `synth` at the per-user shape of the bench's `dense` workload: 600 posts per user, 16-d features
DENSE_SYNTH_ARGS = ["synth", "--n-users", "3", "--posts-per-user", "600", "--feature-dim", "16", "--seed", "2"]
PINNED_DENSE = {
    "features.csv": "2a923ac32026eadc77d7dfd9cc0afc20f1b8712cd7e3714e3a38c1b4e000b1f2",
    "latents.csv": "7765dde0b3d104a51c03965131166a461547dc0373b1c78f41b38824267503e6",
    "posts.jsonl": "06a9eacb2429cc2063e23d215b09226028b34fc928763fa4a2885cf0d6abf661",
}


def test_dense_synth_digests_are_pinned(tmp_path):
    assert main(DENSE_SYNTH_ARGS + ["--out-dir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "synth_manifest.json").read_text())["outputs"] == PINNED_DENSE


LABELS = ("synth", "stats", "mine", "train", "eval", "score", "rescaled", "ablate")


def run_pinned(root: Path, labels=LABELS, trained: Path | None = None) -> dict[str, str]:
    """Run the pinned commands that `labels` name, each into its own directory under `root`; return the output
    digests their manifests record. The commands after `train` read the checkpoint in `trained` when given."""
    d = {label: root / label for label in LABELS}
    posts, pairs, features = d["synth"] / "posts.jsonl", d["mine"] / "pairs.csv", d["synth"] / "features.csv"
    checkpoint = (trained or d["train"]) / "checkpoint.txt"
    runs = {
        "synth": ["synth", "--n-users", "150", "--posts-per-user", "12", "--seed", "2", "--out-dir", d["synth"]],
        "stats": ["stats", "--posts", posts, "--out-dir", d["stats"]],
        "mine": ["mine", "--posts", posts, "--reference-time", REF, "--out-dir", d["mine"]],
        "train": ["train", "--pairs", pairs, "--features", features, *TRAIN, "--out-dir", d["train"]],
        "eval": ["eval", "--checkpoint", checkpoint, "--pairs", pairs, "--features", features, "--out-dir", d["eval"]],
        "score": ["score", "--checkpoint", checkpoint, "--features", features, "--out-dir", d["score"]],
        "rescaled": ["score", "--checkpoint", checkpoint, "--features", features, "--rescale-max", "100",
                     "--out-dir", d["rescaled"]],
        "ablate": ["ablate", "--pairs", pairs, "--features", features, "--noise-levels", "0,0.3", *TRAIN,
                   "--out-dir", d["ablate"]],
    }
    digests = {}
    for label in labels:
        args = runs[label]
        assert main([str(a) for a in args]) == 0, label
        manifest = json.loads((d[label] / f"{args[0]}_manifest.json").read_text())
        digests.update({f"{label}/{name}": sha for name, sha in manifest["outputs"].items()})
    return digests


def test_every_output_digest_is_pinned(tmp_path):
    assert run_pinned(tmp_path) == PINNED


def _subprocess_env(**extra) -> dict[str, str]:
    """This environment, with the source and test directories on the path, plus `extra`."""
    tests = Path(__file__).resolve().parent
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)]), **extra}


def test_every_output_digest_holds_at_two_blas_threads(tmp_path):
    """The same run in a fresh process, since OpenBLAS reads its thread count when numpy loads: two threads, or
    one if this process may use only one CPU."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    env = _subprocess_env(OPENBLAS_NUM_THREADS=str(min(2, cpus)))
    code = "import pathlib, sys, test_digests; test_digests.test_every_output_digest_is_pinned(pathlib.Path(sys.argv[1]))"
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


CPU = np._core._multiarray_umath.__cpu_features__
AVX512_LOOPS = ("AVX512_SPR", "AVX512_ICL", "X86_V4")  # the targets of numpy's AVX-512 dispatch


@pytest.mark.skipif(not (CPU.get("AVX2") and CPU.get("FMA3")), reason="OpenBLAS's Haswell kernels need AVX2 and FMA3")
def test_scores_and_untrained_outputs_hold_on_other_cpu_kernels(tmp_path):
    """Under OpenBLAS's Haswell kernels and without numpy's AVX-512 loops, `synth`, `stats` and `mine` still write
    their pinned bytes, and `score` writes the scores.csv of this process from this process's checkpoint: scoring
    a checkpoint uses no BLAS. (The checkpoint itself depends on the kernels, so `train` is not rerun.)"""
    here = run_pinned(tmp_path / "here", ("synth", "mine", "train", "score"))
    env = _subprocess_env(OPENBLAS_CORETYPE="Haswell",
                          NPY_DISABLE_CPU_FEATURES=" ".join(f for f in AVX512_LOOPS if CPU.get(f)))
    code = ("import json, pathlib, sys, test_digests; labels = ('synth', 'stats', 'mine', 'score'); "
            "digests = test_digests.run_pinned(pathlib.Path(sys.argv[1]), labels, pathlib.Path(sys.argv[2])); "
            "pathlib.Path(sys.argv[3]).write_text(json.dumps(digests))")
    there = tmp_path / "there.json"
    run = subprocess.run([sys.executable, "-c", code, tmp_path / "there", tmp_path / "here" / "train", there],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    untrained = {name: sha for name, sha in PINNED.items() if name.split("/")[0] in ("synth", "stats", "mine")}
    assert json.loads(there.read_text()) == {**untrained, "score/scores.csv": here["score/scores.csv"]}


# A hand-built posts file that trips every parse rule and caption corner the stats and the miner see: CRLF and
# lone-CR line ends, blank and whitespace-only lines, malformed lines, a duplicate id, a repeated key, an extra
# key, upper-case and repeated tags, a U+2028 inside a caption, Greek capitals, 6- and 7-word captions, and
# posts that each filter rule rejects. The stats and mine outputs and the warnings are pinned.
AWKWARD_REF = 1_700_000_000
_T0 = AWKWARD_REF - 60 * 86400


def _awkward_record(post_id, user_id, day, likes, caption, media_count=1, is_video=False, **extra):
    record = {"post_id": post_id, "user_id": user_id, "upload_time": _T0 + day * 86400 + 7, "likes": likes,
              "caption": caption, "media_count": media_count, "is_video": is_video, **extra}
    return json.dumps(record, ensure_ascii=False)


AWKWARD_LINES = [
    _awkward_record("a01", "u1", 0, 400, "#Sun #sun beach walk"),
    _awkward_record("a02", "u1", 2, 90, "#sun #SUN evening"),
    "",
    _awkward_record("a03", "u1", 3, 1000, "one two three four five six #Sun"),
    _awkward_record("a04", "u1", 5, 120, "#sun One Two Three Four Five Six"),
    "{broken",
    _awkward_record("a05", "u1", 6, 2000, "#sun a b c d e f g"),
    _awkward_record("a06", "u1", 6, 60, "#sun x y z w v u t"),
    "   \t ",
    _awkward_record("a07", "u1", 8, 300, "@Bob #Moon\u2028night"),
    _awkward_record("a08", "u1", 9, 70, "@bob #moon Night", x=[1, 2]),
    _awkward_record("a02", "u1", 9, 5000, "#sun"),
    "[1, 2]",
    _awkward_record("b01", "u2", 1, 500, ""),
    _awkward_record("b02", "u2", 4, 55, "")[:-1] + ', "likes": 56}',
    _awkward_record("b03", "u2", 20, 800, "ΣΟΦΟΣ #ΣΟΦΟΣ"),
    _awkward_record("b04", "u2", 22, 100, "σοφος #σοφος"),
    '{"post_id": "b09", "user_id": "u2"}',
    _awkward_record("b05", "u2", 23, 900, "#sun", is_video=True),
    _awkward_record("b06", "u2", 24, 900, "#sun", media_count=2),
    _awkward_record("b07", "u2", 45, 900, "#sun"),
    _awkward_record("b08", "u2", 70, 900, "#sun"),
    _awkward_record("b10", "u2", 25, "7", "#sun"),
    _awkward_record("b11", "u2", 26, 40, "@Ann"),
    _awkward_record("b12", "u2", 27, 400, "@ann"),
]
AWKWARD_POSTS = ("\r\n".join(AWKWARD_LINES[:5]) + "\r" + "\r\n".join(AWKWARD_LINES[5:]) + "\r\n").encode("utf-8")

_AWKWARD_WARNINGS = [
    "line 6: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
    "line 12: duplicate post_id 'a02'",
    "line 13: record is not an object",
    "line 18: missing fields ['upload_time', 'likes', 'caption', 'media_count', 'is_video']",
    "line 23: likes must be an integer",
]
PINNED_AWKWARD = {
    "digests": {
        "posts.jsonl": "632c10203a2e9f8cebf9918a61350a080ddeacb84a6f7ff169c26edce7e4fbc7",
        "stats/corpus_stats.csv": "f604535e36f47426e3d2b776ebbd5316ef8b60ba3da0fa0b51e30cc53ce9d8ae",
        "mine/pair_stats.csv": "34e0c5127cec77abeef68aa3105b759b8dfb61e5af45c450627686e9fd17f8a5",
        "mine/pairs.csv": "ae12602dadc2ce0bed917a090317cec1c9d06f8b0916a6d5b326a473554da3ce",
    },
    "warnings": [f"warning: POSTS: {line}" for line in _AWKWARD_WARNINGS] * 2,  # from stats, then from mine
    "log": ["1 posts are uploaded after reference_time 1700000000"],
}


def test_awkward_corpus_stats_and_mine_are_pinned(tmp_path, capsys, caplog):
    posts = tmp_path / "posts.jsonl"
    posts.write_bytes(AWKWARD_POSTS)
    assert main(["stats", "--posts", str(posts), "--out-dir", str(tmp_path / "stats")]) == 0
    assert main(["mine", "--posts", str(posts), "--reference-time", str(AWKWARD_REF),
                 "--out-dir", str(tmp_path / "mine")]) == 0
    digests = {"posts.jsonl": hashlib.sha256(AWKWARD_POSTS).hexdigest()}
    for command in ("stats", "mine"):
        outputs = json.loads((tmp_path / command / f"{command}_manifest.json").read_text())["outputs"]
        digests.update({f"{command}/{name}": sha for name, sha in outputs.items()})
    warnings = [line.replace(str(posts), "POSTS") for line in capsys.readouterr().err.splitlines()]
    assert {"digests": digests, "warnings": warnings, "log": caplog.messages} == PINNED_AWKWARD
