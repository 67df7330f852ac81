"""Pinned output digests: every command's files, byte for byte.

One small synth -> stats -> mine -> train -> eval -> score -> ablate run
through `cli.main`, each command into its own directory. The sha256 of every
output, as its manifest records it, must equal the value pinned here, so a
change to any output's bytes fails this test. The trained outputs (checkpoint,
train report, scores, eval, ablation) hold for any BLAS thread count, but a
BLAS or numpy that rounds differently in the last bit would need new values.
"""

import json

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
