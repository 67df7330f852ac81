"""Pinned output digests: every command's files, byte for byte.

One small synth -> stats -> mine -> train -> eval -> score -> ablate run
through `cli.main`, each command into its own directory. The sha256 of every
output, as its manifest records it, must equal the value pinned here, so a
change to any output's bytes fails this test. The trained outputs (checkpoint,
train report, scores, eval, ablation) hold for any BLAS thread count, and the
run is repeated at two OpenBLAS threads to show it; a BLAS or numpy that rounds
differently in the last bit would need new values.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from poprank import synthgen
from poprank.cli import main

REF = str(synthgen.reference_time_for(synthgen.SynthConfig()))
TRAIN = ["--epochs", "3", "--learning-rate", "1e-3", "--seed", "2"]

PINNED = {
    "ablate/ablation.csv": "86dc2d49924f2dbc3a390668035861541f9604bedc965a04ca413a4375cdc4bf",
    "eval/eval_result.csv": "bac5e500ed900794d952db8079a49a838ae277c0969b9797669cc8f8cde78b93",
    "mine/pair_stats.csv": "e83a902e997d1a83647b52ad8ac2bac6b8528137c6c7499c896ff8b50faf9db0",
    "mine/pairs.csv": "0bbf28bd0161b77d5c4b2eb8dc412c880c36751f4f9aa82e9f2f6da1c299ecc4",
    "rescaled/scores.csv": "460a4e448fef0cb52a649259175ab0f1584af2eecca46ee405641888e6eca2a3",
    "score/scores.csv": "4821a559bb734748fa77c55206a3f1ac66ea27f2bb0a0ceae40391389a406ca1",
    "stats/corpus_stats.csv": "069a0fbdbf085c0a32b609acf30340159ec0c0c26cf65ce8abfd1194d1d7e082",
    "synth/features.csv": "9c498bfb37de1ae130c37697f8224088d7ae2ecaee47c723f211888864135099",
    "synth/latents.csv": "65184a58327dbbbdeb30002b9f55fd5230c925e6529f677363ae67ebc91a73ab",
    "synth/posts.jsonl": "17b590064e66d5e2eeeba4f0c9c4d4da4ecc4732afcd353772cc02742784ff3f",
    "train/checkpoint.txt": "065527478873928e13a6b4336dce45417d922fef9fd860769a8fcafb9901d467",
    "train/train_report.csv": "427a7b2aa9071b5fdad5279862fec54e8b4aa13b01c7b9e57edefd0eacb55bc3",
}


# `synth` at the feature width of the bench's `embed` workload, where each row is formatted in one piece
PINNED_WIDE = {
    "features.csv": "b62cf973f2c73a728ed8ed552f0489a875f3b37b71be1cfa10879b0bf7639378",
    "latents.csv": "5b64aa4ce9a5399d13e5dbaf8c1284572707840b89ab0adb1c6fc551a6ac1022",
    "posts.jsonl": "ae8b9942108fae4b717a24e3a0569d73d3c4c9d0554ebcaa5f1a302fa8b2a0cc",
}


def test_wide_synth_digests_are_pinned(tmp_path):
    args = ["synth", "--n-users", "40", "--posts-per-user", "12", "--seed", "2", "--feature-dim", "256"]
    assert main(args + ["--out-dir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "synth_manifest.json").read_text())["outputs"] == PINNED_WIDE


def test_every_output_digest_is_pinned(tmp_path):
    d = {name: tmp_path / name for name in ("synth", "stats", "mine", "train", "eval", "score", "rescaled", "ablate")}
    posts, pairs, features = d["synth"] / "posts.jsonl", d["mine"] / "pairs.csv", d["synth"] / "features.csv"
    checkpoint = d["train"] / "checkpoint.txt"
    runs = [
        ["synth", "--n-users", "150", "--posts-per-user", "12", "--seed", "2", "--out-dir", d["synth"]],
        ["stats", "--posts", posts, "--out-dir", d["stats"]],
        ["mine", "--posts", posts, "--reference-time", REF, "--out-dir", d["mine"]],
        ["train", "--pairs", pairs, "--features", features, *TRAIN, "--out-dir", d["train"]],
        ["eval", "--checkpoint", checkpoint, "--pairs", pairs, "--features", features, "--out-dir", d["eval"]],
        ["score", "--checkpoint", checkpoint, "--features", features, "--out-dir", d["score"]],
        ["score", "--checkpoint", checkpoint, "--features", features, "--rescale-max", "100",
         "--out-dir", d["rescaled"]],
        ["ablate", "--pairs", pairs, "--features", features, "--noise-levels", "0,0.3", *TRAIN,
         "--out-dir", d["ablate"]],
    ]
    digests = {}
    for (label, out), args in zip(d.items(), runs):
        assert main([str(a) for a in args]) == 0, label
        manifest = json.loads((out / f"{args[0]}_manifest.json").read_text())
        digests.update({f"{label}/{name}": sha for name, sha in manifest["outputs"].items()})
    assert digests == PINNED


def test_every_output_digest_holds_at_two_blas_threads(tmp_path):
    """The same run in a fresh process, since OpenBLAS reads its thread count when numpy loads: two threads, or
    one if this process may use only one CPU."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(min(2, cpus)),
           "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    code = "import pathlib, sys, test_digests; test_digests.test_every_output_digest_is_pinned(pathlib.Path(sys.argv[1]))"
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


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
