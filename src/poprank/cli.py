"""Command-line pipeline driver.

Subcommands:
    synth   generate a synthetic corpus (posts, features, latents)
    stats   corpus statistics CSV from a posts file
    mine    filter candidates and mine popularity-discriminable pairs
    train   train the pairwise ranker, persist the best checkpoint
    eval    pairwise accuracy of a checkpoint on a pairs file
    score   score every post in a feature file (optional display rescaling)
    ablate  label-noise ablation table
    rerun   re-execute a recorded manifest and verify its digests

Every run writes its outputs plus a ``<command>_manifest.json`` recording the
resolved configuration, the input paths (relative to the manifest) with their
digests, and the output digests; re-running a manifest (or the same command
line) reproduces every output byte for byte. ``rerun`` refuses a malformed
manifest or inputs whose digests changed, writes the outputs only, and exits 1
naming any output that differs from its recorded digest. Every command writes
into a staging directory inside the out-dir and moves its files into place
only when it succeeds, so each file in the out-dir is whole, with its old bytes
or its new ones, and a manifest a run leaves there names only the bytes beside
it: ``rerun`` refuses an out-dir holding the same command's manifest with other
bytes than the one it reruns. The moves of one command are not atomic together,
and a killed process can leave its ``.<command>-*`` staging directory behind.
Each field of ``SynthConfig``, ``MinerConfig`` and ``TrainConfig`` is a
``--field-name`` flag with the field's type and default; ``<command> --help``
lists them. Each input file is a required ``--label`` flag named once per
command in ``build_parser``; ``READERS`` maps the label to its reader, and one
loop checks, reads and records every input, for a run and a rerun alike.
``main`` freezes the heap at exit (``gc.freeze`` through ``atexit``, once per
process), so the interpreter's last collections skip objects that die with the
process anyway; every output is closed and moved into place before it returns.

Usage:
    poprank synth --out-dir runs/demo
    poprank mine --posts runs/demo/posts.jsonl --reference-time 1610368000 --out-dir runs/demo
    poprank train --pairs runs/demo/pairs.csv --features runs/demo/features.csv --out-dir runs/demo
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import shutil
import sys
import tempfile
from dataclasses import fields
from itertools import islice
from pathlib import Path

import numpy as np

from . import corpus, evaluate, features as features_mod, mining, mlp, ranker, synthgen
from .util import open_csv, seeded_rng, sha256_file, split_indices


def _require_file(path: str, what: str) -> str:
    if not Path(path).is_file():
        raise FileNotFoundError(f"{what} file not found: {path}")
    return path


def _parse_posts_checked(path: str) -> corpus.PostTable:
    report = corpus.parse_posts_file(path)
    for diag in report.diagnostics:
        print(f"warning: {path}: {diag}", file=sys.stderr)
    return report.posts


def _load_scorer(path: str) -> mlp.MlpModel:
    models = mlp.load_checkpoint(path)
    if "scorer" not in models:
        raise ValueError(f"checkpoint has no 'scorer' section: {path}")
    return models["scorer"]


# input label -> reader of that file; a command checks and reads its inputs in this order. Plain functions
# only, as in HANDLERS: perfbench/tracer.py times the reads by rewriting the entries of module-level dicts.
READERS = {
    "checkpoint": _load_scorer,
    "posts": _parse_posts_checked,
    "pairs": mining.read_pairs,
    "features": features_mod.load_features,
}


def _config(cls, config: dict):
    """Build the config dataclass `cls` from the parsed values of its fields; a missing one is a KeyError."""
    return cls(**{f.name: config[f.name] for f in fields(cls)})


def _entries(config: dict, key: str, noun: str) -> list:
    """The values of a list flag; no entry, or a blank one (parsed as None), is a ValueError naming the flag."""
    values, flag = list(config[key]), "--" + key.replace("_", "-")
    if all(v is None for v in values):
        raise ValueError(f"{flag} must name at least one {noun}")
    if None in values:
        raise ValueError(f"{flag} entry {values.index(None) + 1} is blank")
    return values


def _fraction(config: dict, key: str) -> float:
    """The value of a holdout fraction flag; one outside [0, 1), nan included, is a ValueError naming the flag."""
    if not 0.0 <= config[key] < 1.0:
        raise ValueError(f"--{key.replace('_', '-')} must be in [0, 1), got {config[key]}")
    return config[key]


def run_synth(config: dict, out: Path, inputs: dict) -> list[str]:
    synth_config = _config(synthgen.SynthConfig, config)
    with (
        open(out / "posts.jsonl", "w", encoding="utf-8", newline="\n") as posts,
        open_csv(out / "features.csv", features_mod.header(synth_config.feature_dim)) as features,
        open_csv(out / "latents.csv", synthgen.LATENTS_HEADER) as latents,
    ):
        users = synthgen.generate_users(synth_config)
        values = synth_config.posts_per_user * synth_config.feature_dim
        buffers = features_mod.RowBuffers()  # one set per file: a block's arrays, once freed, are faulted in again
        while block := list(islice(users, max(1, features_mod.WRITE_VALUES // values))):  # written as drawn
            ids = [post_id for columns, _, _ in block for post_id in columns[0]]
            for columns, _, _ in block:
                posts.write("".join(corpus.post_lines(*columns)))
            features_mod.write_rows(features, ids, np.concatenate([rows for _, rows, _ in block]), buffers)
            synthgen.write_latents(latents, ids, [m for _, _, mu in block for m in mu])
    print(
        f"generated {synth_config.n_users * synth_config.posts_per_user} posts for {synth_config.n_users} users "
        f"(reference_time {synthgen.reference_time_for(synth_config)})"
    )
    return ["posts.jsonl", "features.csv", "latents.csv"]


def run_stats(config: dict, out: Path, inputs: dict) -> list[str]:
    stats = corpus.corpus_stats(inputs.pop("posts"))
    corpus.write_stats_csv(out / "corpus_stats.csv", stats)
    print(f"{stats.n_posts} posts from {stats.n_users} users, mean likes {stats.mean_likes:.1f}")
    return ["corpus_stats.csv"]


def run_mine(config: dict, out: Path, inputs: dict) -> list[str]:
    miner = _config(mining.MinerConfig, config)
    posts = inputs.pop("posts")
    n_posts = len(posts)
    candidates = corpus.filter_candidates(posts, miner.reference_time)
    del posts  # the full table is freed here: only the candidates are mined
    pairs = mining.mine_pairs(candidates, None, miner)
    mining.write_pairs(out / "pairs.csv", pairs)
    corpus.write_stats_csv(out / "pair_stats.csv", mining.pair_stats(pairs, candidates))
    print(f"mined {len(pairs)} pairs from {len(candidates)} candidates ({n_posts} posts)")
    return ["pairs.csv", "pair_stats.csv"]


def run_train(config: dict, out: Path, inputs: dict) -> list[str]:
    pairs, features = inputs.pop("pairs"), inputs.pop("features")
    dims = [features.dim] + _entries(config, "hidden_dims", "layer width") + [1]
    split_rng = seeded_rng(config["seed"], "train-split")
    train_idx, val_idx = split_indices(len(pairs), _fraction(config, "val_fraction"), split_rng)
    model = mlp.init_model(dims, seeded_rng(config["seed"], "init"))
    train_config = _config(ranker.TrainConfig, config)
    report = ranker.train(model, pairs, features, (train_idx, val_idx), train_config)
    mlp.save_checkpoint(out / "checkpoint.txt", {"scorer": report.model})
    ranker.write_train_report_csv(out / "train_report.csv", report)
    steps = train_config.epochs * -(-len(train_idx) // train_config.batch_size)  # one Adam step per batch
    print(
        f"trained on {len(train_idx)} pairs in {steps} Adam steps, selected epoch {report.selected_epoch} "
        f"with validation accuracy {report.val_accuracy[report.selected_epoch]:.4f}"
    )
    return ["checkpoint.txt", "train_report.csv"]


def run_eval(config: dict, out: Path, inputs: dict) -> list[str]:
    pairs, scores = inputs.pop("pairs"), inputs.pop("scores")
    features_mod.require_features([pid for p in pairs for pid in (p.id_a, p.id_b)], scores)
    result = evaluate.pairwise_accuracy(scores, pairs)  # the scores `score` writes
    evaluate.write_eval_csv(out / "eval_result.csv", result)
    print(f"pairwise accuracy {result.accuracy:.4f} on {result.n_pairs} pairs ({result.n_ties} ties)")
    return ["eval_result.csv"]


def run_score(config: dict, out: Path, inputs: dict) -> list[str]:
    scores = inputs.pop("scores")
    if config["rescale_max"] is not None:
        scores = evaluate.rescale_for_display(scores, config["rescale_max"])
    evaluate.write_scores_csv(out / "scores.csv", scores)
    print(f"scored {len(scores)} posts")
    return ["scores.csv"]


def run_ablate(config: dict, out: Path, inputs: dict) -> list[str]:
    table = evaluate.noise_ablation(
        inputs.pop("pairs"),
        inputs.pop("features"),
        _config(ranker.TrainConfig, config),
        noise_levels=_entries(config, "noise_levels", "level"),
        hidden_dims=_entries(config, "hidden_dims", "layer width"),
        test_fraction=_fraction(config, "test_fraction"),
        val_fraction=_fraction(config, "val_fraction"),
    )
    evaluate.write_ablation_csv(out / "ablation.csv", table)
    for q, acc in table:
        print(f"noise {q:g}: test accuracy {acc:.4f}")
    return ["ablation.csv"]


# command -> handler(config, out, inputs): `inputs` maps each input label to what was read, and the handler pops
# the labels it uses, so the caller holds no input and the handler can free one once it is done with it
HANDLERS = {
    "synth": run_synth,
    "stats": run_stats,
    "mine": run_mine,
    "train": run_train,
    "eval": run_eval,
    "score": run_score,
    "ablate": run_ablate,
}


def _execute(command: str, config: dict, out: Path, record: bool) -> dict[str, str]:
    """Run one subcommand into `out`, with its manifest if `record`; return its output digests.

    Each input file is checked and read in turn, in `READERS` order, before the handler runs. A command
    that reads pairs reads only the feature rows those pairs name. A command that reads a checkpoint gets,
    in place of the checkpoint and the features, the `scores` of those rows, scored one block of the
    file at a time, so it never holds the feature matrix. The handler pops its inputs from `inputs`.

    The handler writes into a fresh staging directory `.<command>-*` inside `out`. Only when it returns
    are the outputs hashed and moved into `out`, one `os.replace` each. With `record` the manifest is staged
    too: any old one is removed before the first move, and the new one is moved last. The staging directory is
    removed however the command ends, `KeyboardInterrupt` included. The manifest records input paths
    relative to `out`, so it can be rerun from any working directory, and still holds when it and its
    inputs move together.
    """
    out.mkdir(parents=True, exist_ok=True)
    paths = {label: config[label] for label in READERS if label in config}
    inputs = {}
    for label, path in paths.items():
        _require_file(path, label)
        if label != "features":
            inputs[label] = READERS[label](path)
            continue
        wanted = {pid for p in inputs["pairs"] for pid in (p.id_a, p.id_b)} if "pairs" in inputs else None
        if "checkpoint" in inputs:
            blocks = features_mod.FeatureBlocks(path, wanted)
            inputs["scores"] = ranker.score_blocks(inputs.pop("checkpoint"), blocks)
            kept, rows = len(inputs["scores"]), blocks.file_rows
        else:
            inputs[label] = READERS[label](path, wanted)
            kept, rows = len(inputs[label]), inputs[label].file_rows
        if wanted is not None:
            print(f"read {kept} of {rows} feature rows")
    stage = Path(tempfile.mkdtemp(prefix=f".{command}-", dir=out))
    try:
        names = HANDLERS[command](config, stage, inputs)
        outputs = {name: sha256_file(stage / name) for name in names}
        if record:
            recorded_inputs = {
                label: {"path": os.path.relpath(Path(path).resolve(), out.resolve()), "sha256": sha256_file(path)}
                for label, path in paths.items()
            }
            manifest = f"{command}_manifest.json"
            with open(stage / manifest, "w", encoding="utf-8", newline="\n") as f:
                json.dump({"command": command, "config": config, "inputs": recorded_inputs, "outputs": outputs}, f,
                          indent=2, sort_keys=True)
                f.write("\n")
            (out / manifest).unlink(missing_ok=True)
            names.append(manifest)  # moved last
        for name in names:
            os.replace(stage / name, out / name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return outputs


def _read_manifest(path: str) -> dict:
    """Load a manifest and check its shape; anything malformed is a ValueError."""
    with open(_require_file(path, "manifest"), "r", encoding="utf-8") as f:
        try:
            recorded = json.load(f)
        except (ValueError, RecursionError) as exc:  # malformed JSON or text, or nested too deeply
            raise ValueError(f"manifest {path} is not readable JSON: {exc}") from None
    if not isinstance(recorded, dict):
        raise ValueError(f"manifest {path} is not a JSON object")
    command = recorded.get("command")
    if not isinstance(command, str) or command not in HANDLERS:
        raise ValueError(f"manifest {path}: command {command!r} is not one of {', '.join(HANDLERS)}")
    for key in ("config", "inputs", "outputs"):
        if not isinstance(recorded.get(key), dict):
            raise ValueError(f"manifest {path}: {key!r} must be a JSON object")
    for label, entry in recorded["inputs"].items():
        if not (isinstance(entry, dict) and isinstance(entry.get("path"), str) and isinstance(entry.get("sha256"), str)):
            raise ValueError(f"manifest {path}: input {label!r} must have a string 'path' and 'sha256'")
    return recorded


def rerun(manifest_path: str, out_dir: str) -> list[str]:
    """Re-execute a manifest into `out_dir`; return the outputs whose digests differ from it.

    Input paths resolve against the manifest's directory, and every input
    must still have its recorded sha256, else ValueError before anything
    runs. Only the outputs are written: the manifest stays the record of the run.
    So an `out_dir` that holds a `<command>_manifest.json` with other bytes
    than this manifest's is a ValueError before anything is written: the
    outputs moved in would no longer be the bytes that manifest names.
    """
    recorded = _read_manifest(manifest_path)
    beside = Path(out_dir) / f"{recorded['command']}_manifest.json"
    if beside.exists() and beside.read_bytes() != Path(manifest_path).read_bytes():
        raise ValueError(f"{out_dir} holds another run's {beside.name}; rerun {manifest_path} into another directory")
    config = dict(recorded["config"])
    for label, entry in recorded["inputs"].items():
        path = Path(manifest_path).parent / entry["path"]
        if sha256_file(_require_file(str(path), label)) != entry["sha256"]:
            raise ValueError(f"{label} input {path} no longer matches the sha256 in {manifest_path}")
        config[label] = str(path)
    try:
        outputs = _execute(recorded["command"], config, Path(out_dir), record=False)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"manifest {manifest_path}: config does not fit {recorded['command']}: {exc!r}") from exc
    return sorted(name for name, digest in recorded["outputs"].items() if outputs.get(name) != digest)


DEFAULT_HELP = "default: %(default)s"


def _list_of(cast):
    """argparse type of a comma-separated list; a blank entry parses as None, which `_entries` rejects."""

    def comma_list(text: str) -> list:  # argparse names it in its 'invalid comma_list value' message
        return [cast(x) if x.strip() else None for x in text.split(",")]

    return comma_list


def _add_list(sub: argparse.ArgumentParser, flag: str, cast, default: list, metavar: str) -> None:
    """Add a comma-separated list flag; its help shows the default in the form the flag takes."""
    sub.add_argument(flag, type=_list_of(cast), default=default, metavar=metavar,
                     help="default: " + ",".join(f"{value:g}" for value in default))


def _add_fields(sub: argparse.ArgumentParser, cls) -> None:
    """Add one `--field-name` flag per field of the config dataclass `cls`, with the field's type and default."""
    for f in fields(cls):
        if f.name == "reference_time":
            sub.add_argument("--reference-time", type=int, required=True, help="epoch seconds of the snapshot")
        else:
            flag = "--lr-decay" if f.name == "lr_decay_per_epoch" else "--" + f.name.replace("_", "-")
            sub.add_argument(flag, dest=f.name, type=type(f.default), default=f.default, help=DEFAULT_HELP)


def _add_train_flags(sub: argparse.ArgumentParser) -> None:
    _add_list(sub, "--hidden-dims", int, ranker.DEFAULT_HIDDEN_DIMS, "D1,D2")
    sub.add_argument("--val-fraction", type=float, default=ranker.DEFAULT_VAL_FRACTION, help=DEFAULT_HELP)
    _add_fields(sub, ranker.TrainConfig)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="poprank", description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *inputs: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--out-dir", required=True, help="directory for outputs and the manifest")
        for label in inputs:
            sub.add_argument("--" + label, required=True)
        return sub

    _add_fields(add("synth", "generate a synthetic corpus"), synthgen.SynthConfig)

    add("stats", "corpus statistics CSV", "posts")
    _add_fields(add("mine", "filter candidates and mine pairs", "posts"), mining.MinerConfig)
    _add_train_flags(add("train", "train the pairwise ranker", "pairs", "features"))
    add("eval", "pairwise accuracy of a checkpoint", "checkpoint", "pairs", "features")

    sub = add("score", "score every post in a feature file", "checkpoint", "features")
    sub.add_argument("--rescale-max", type=float, default=None, help="affinely map scores onto [0, MAX]")

    sub = add("ablate", "label-noise ablation table", "pairs", "features")
    _add_list(sub, "--noise-levels", float, [0.0, 0.2, 0.4], "Q1,Q2")
    sub.add_argument("--test-fraction", type=float, default=evaluate.DEFAULT_TEST_FRACTION, help=DEFAULT_HELP)
    _add_train_flags(sub)

    sub = add("rerun", "re-execute a recorded manifest")
    sub.add_argument("manifest", help="path to a <command>_manifest.json")

    return parser


def main(argv: list[str] | None = None) -> int:
    # Once per process: frozen at exit, the objects that die with the process skip the interpreter's last collections
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = build_parser().parse_args(argv)
    try:
        if args.command == "rerun":
            differ = rerun(args.manifest, args.out_dir)
            if differ:
                print(f"error: outputs differ from {args.manifest}: {', '.join(differ)}", file=sys.stderr)
                return 1
        else:
            config = {k: v for k, v in vars(args).items() if k not in ("command", "out_dir")}
            _execute(args.command, config, Path(args.out_dir), record=True)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
