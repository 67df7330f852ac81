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
naming any output that differs from its recorded digest. Numeric defaults
follow the reference operating point (threshold 0.95, sigma 0.3, learning rate
1e-4, l2 1e-4, batch 64, decay 0.95).

Usage:
    poprank synth --out-dir runs/demo
    poprank mine --posts runs/demo/posts.jsonl --reference-time 1610368000 --out-dir runs/demo
    poprank train --pairs runs/demo/pairs.csv --features runs/demo/features.csv --out-dir runs/demo
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import corpus, evaluate, features as features_mod, mining, mlp, ranker, synthgen
from .util import seeded_rng, sha256_file, split_indices


def _require_file(path: str, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"{what} file not found: {path}")
    return p


def _parse_posts_checked(path: str) -> list[corpus.Post]:
    report = corpus.parse_posts_file(_require_file(path, "posts"))
    for diag in report.diagnostics:
        print(f"warning: {path}: {diag}", file=sys.stderr)
    return report.posts


def _load_scorer(path: str) -> mlp.MlpModel:
    models = mlp.load_checkpoint(_require_file(path, "checkpoint"))
    if "scorer" not in models:
        raise ValueError(f"checkpoint has no 'scorer' section: {path}")
    return models["scorer"]


def _train_config(config: dict) -> ranker.TrainConfig:
    return ranker.TrainConfig(
        learning_rate=config["learning_rate"],
        l2_penalty=config["l2_penalty"],
        batch_size=config["batch_size"],
        epochs=config["epochs"],
        lr_decay_per_epoch=config["lr_decay_per_epoch"],
        seed=config["seed"],
    )


def run_synth(config: dict, out: Path) -> tuple[dict, list[str]]:
    synth_config = synthgen.SynthConfig(**{k: v for k, v in config.items()})
    generated = synthgen.generate_corpus(synth_config)
    corpus.write_posts(out / "posts.jsonl", generated.posts)
    features_mod.save_features(out / "features.csv", generated.features)
    synthgen.save_latents(out / "latents.csv", generated.latent_mu)
    print(
        f"generated {len(generated.posts)} posts for {synth_config.n_users} users "
        f"(reference_time {synthgen.reference_time_for(synth_config)})"
    )
    return {}, ["posts.jsonl", "features.csv", "latents.csv"]


def run_stats(config: dict, out: Path) -> tuple[dict, list[str]]:
    posts = _parse_posts_checked(config["posts"])
    stats = corpus.corpus_stats(posts)
    corpus.write_stats_csv(out / "corpus_stats.csv", stats)
    print(f"{stats.n_posts} posts from {stats.n_users} users, mean likes {stats.mean_likes:.1f}")
    return {"posts": config["posts"]}, ["corpus_stats.csv"]


def run_mine(config: dict, out: Path) -> tuple[dict, list[str]]:
    posts = _parse_posts_checked(config["posts"])
    miner = mining.MinerConfig(
        threshold=config["threshold"],
        sigma=config["sigma"],
        max_interval_days=config["max_interval_days"],
        max_caption_words=config["max_caption_words"],
        reference_time=config["reference_time"],
    )
    candidates = corpus.filter_candidates(posts, miner.reference_time)
    pairs = mining.mine_pairs(candidates, None, miner)
    mining.write_pairs(out / "pairs.csv", pairs)
    corpus.write_stats_csv(out / "pair_stats.csv", mining.pair_stats(pairs, candidates))
    print(f"mined {len(pairs)} pairs from {len(candidates)} candidates ({len(posts)} posts)")
    return {"posts": config["posts"]}, ["pairs.csv", "pair_stats.csv"]


def run_train(config: dict, out: Path) -> tuple[dict, list[str]]:
    pairs = mining.read_pairs(_require_file(config["pairs"], "pairs"))
    feats = features_mod.load_features(_require_file(config["features"], "features"))
    dims = [feats.dim] + list(config["hidden_dims"]) + [1]
    train_idx, val_idx = split_indices(
        len(pairs), config["val_fraction"], seeded_rng(config["seed"], "train-split")
    )
    model = mlp.init_model(dims, seeded_rng(config["seed"], "init"))
    report = ranker.train(model, pairs, feats, (train_idx, val_idx), _train_config(config))
    mlp.save_checkpoint(out / "checkpoint.txt", {"scorer": report.model})
    ranker.write_train_report_csv(out / "train_report.csv", report)
    print(
        f"trained on {len(train_idx)} pairs, selected epoch {report.selected_epoch} "
        f"with validation accuracy {report.val_accuracy[report.selected_epoch]:.4f}"
    )
    return {"pairs": config["pairs"], "features": config["features"]}, ["checkpoint.txt", "train_report.csv"]


def run_eval(config: dict, out: Path) -> tuple[dict, list[str]]:
    model = _load_scorer(config["checkpoint"])
    pairs = mining.read_pairs(_require_file(config["pairs"], "pairs"))
    feats = features_mod.load_features(_require_file(config["features"], "features"))
    result = evaluate.pairwise_accuracy(ranker.score_batch(model, feats), pairs)  # the scores `score` writes
    evaluate.write_eval_csv(out / "eval_result.csv", result)
    print(f"pairwise accuracy {result.accuracy:.4f} on {result.n_pairs} pairs ({result.n_ties} ties)")
    return {
        "checkpoint": config["checkpoint"],
        "pairs": config["pairs"],
        "features": config["features"],
    }, ["eval_result.csv"]


def run_score(config: dict, out: Path) -> tuple[dict, list[str]]:
    model = _load_scorer(config["checkpoint"])
    feats = features_mod.load_features(_require_file(config["features"], "features"))
    scores = ranker.score_batch(model, feats)
    if config["rescale_max"] is not None:
        scores = evaluate.rescale_for_display(scores, config["rescale_max"])
    evaluate.write_scores_csv(out / "scores.csv", scores)
    print(f"scored {len(scores)} posts")
    return {"checkpoint": config["checkpoint"], "features": config["features"]}, ["scores.csv"]


def run_ablate(config: dict, out: Path) -> tuple[dict, list[str]]:
    if not config["noise_levels"]:
        raise ValueError("--noise-levels must name at least one level")
    pairs = mining.read_pairs(_require_file(config["pairs"], "pairs"))
    feats = features_mod.load_features(_require_file(config["features"], "features"))
    table = evaluate.noise_ablation(
        pairs,
        feats,
        _train_config(config),
        noise_levels=list(config["noise_levels"]),
        hidden_dims=list(config["hidden_dims"]),
        test_fraction=config["test_fraction"],
        val_fraction=config["val_fraction"],
    )
    evaluate.write_ablation_csv(out / "ablation.csv", table)
    for q, acc in table:
        print(f"noise {q:g}: test accuracy {acc:.4f}")
    return {"pairs": config["pairs"], "features": config["features"]}, ["ablation.csv"]


HANDLERS = {
    "synth": run_synth,
    "stats": run_stats,
    "mine": run_mine,
    "train": run_train,
    "eval": run_eval,
    "score": run_score,
    "ablate": run_ablate,
}


def _execute(command: str, config: dict, out: Path) -> tuple[dict, dict]:
    """Run one subcommand into `out`; return its input paths and its output digests."""
    out.mkdir(parents=True, exist_ok=True)
    inputs, outputs = HANDLERS[command](config, out)
    return inputs, {name: sha256_file(out / name) for name in outputs}


def run_command(command: str, config: dict, out_dir: str) -> dict:
    """Execute one subcommand, write its outputs plus a manifest, and return the manifest.

    Input paths are recorded relative to the manifest's directory, so the
    manifest can be rerun from any working directory, and still holds when
    the manifest and its inputs move together.
    """
    out = Path(out_dir)
    inputs, outputs = _execute(command, config, out)
    manifest = {
        "command": command,
        "config": config,
        "inputs": {
            label: {"path": os.path.relpath(Path(path).resolve(), out.resolve()), "sha256": sha256_file(path)}
            for label, path in inputs.items()
        },
        "outputs": outputs,
    }
    with open(out / f"{command}_manifest.json", "w", encoding="utf-8", newline="\n") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    return manifest


def _read_manifest(path: str) -> dict:
    """Load a manifest and check its shape; anything malformed is a ValueError."""
    with open(_require_file(path, "manifest"), "r", encoding="utf-8") as f:
        recorded = json.load(f)
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
    """
    recorded = _read_manifest(manifest_path)
    config = dict(recorded["config"])
    for label, entry in recorded["inputs"].items():
        path = Path(manifest_path).parent / entry["path"]
        if sha256_file(_require_file(str(path), label)) != entry["sha256"]:
            raise ValueError(f"{label} input {path} no longer matches the sha256 in {manifest_path}")
        config[label] = str(path)
    try:
        _, outputs = _execute(recorded["command"], config, Path(out_dir))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"manifest {manifest_path}: config does not fit {recorded['command']}: {exc!r}") from exc
    return sorted(name for name, digest in recorded["outputs"].items() if outputs.get(name) != digest)


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _add_train_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--hidden-dims", type=_int_list, default=ranker.DEFAULT_HIDDEN_DIMS, metavar="D1,D2")
    sub.add_argument("--learning-rate", type=float, default=1e-4)
    sub.add_argument("--l2-penalty", type=float, default=1e-4)
    sub.add_argument("--batch-size", type=int, default=64)
    sub.add_argument("--epochs", type=int, default=30)
    sub.add_argument("--lr-decay", dest="lr_decay_per_epoch", type=float, default=0.95)
    sub.add_argument("--val-fraction", type=float, default=0.1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="poprank", description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("--out-dir", required=True, help="directory for outputs and the manifest")
        return sub

    sub = add("synth", "generate a synthetic corpus")
    sub.add_argument("--n-users", type=int, default=800)
    sub.add_argument("--posts-per-user", type=int, default=12)
    sub.add_argument("--mu-mean", type=float, default=6.0)
    sub.add_argument("--mu-std", type=float, default=1.0)
    sub.add_argument("--sigma-true", type=float, default=0.3)
    sub.add_argument("--feature-dim", type=int, default=16)
    sub.add_argument("--n-informative", type=int, default=4)
    sub.add_argument("--feature-noise-std", type=float, default=0.25)
    sub.add_argument("--hashtag-vocab", type=int, default=30)
    sub.add_argument("--mention-vocab", type=int, default=20)
    sub.add_argument("--time-span-days", type=int, default=90)
    sub.add_argument("--seed", type=int, default=0)

    sub = add("stats", "corpus statistics CSV")
    sub.add_argument("--posts", required=True)

    sub = add("mine", "filter candidates and mine pairs")
    sub.add_argument("--posts", required=True)
    sub.add_argument("--threshold", type=float, default=0.95)
    sub.add_argument("--sigma", type=float, default=0.3)
    sub.add_argument("--max-interval-days", type=int, default=10)
    sub.add_argument("--max-caption-words", type=int, default=6)
    sub.add_argument("--reference-time", type=int, required=True, help="epoch seconds of the snapshot")

    sub = add("train", "train the pairwise ranker")
    sub.add_argument("--pairs", required=True)
    sub.add_argument("--features", required=True)
    sub.add_argument("--seed", type=int, default=0)
    _add_train_flags(sub)

    sub = add("eval", "pairwise accuracy of a checkpoint")
    sub.add_argument("--checkpoint", required=True)
    sub.add_argument("--pairs", required=True)
    sub.add_argument("--features", required=True)

    sub = add("score", "score every post in a feature file")
    sub.add_argument("--checkpoint", required=True)
    sub.add_argument("--features", required=True)
    sub.add_argument("--rescale-max", type=float, default=None, help="affinely map scores onto [0, MAX]")

    sub = add("ablate", "label-noise ablation table")
    sub.add_argument("--pairs", required=True)
    sub.add_argument("--features", required=True)
    sub.add_argument("--noise-levels", type=_float_list, default=[0.0, 0.2, 0.4], metavar="Q1,Q2")
    sub.add_argument("--test-fraction", type=float, default=0.2)
    sub.add_argument("--seed", type=int, default=0)
    _add_train_flags(sub)

    sub = add("rerun", "re-execute a recorded manifest")
    sub.add_argument("manifest", help="path to a <command>_manifest.json")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "rerun":
            differ = rerun(args.manifest, args.out_dir)
            if differ:
                print(f"error: outputs differ from {args.manifest}: {', '.join(differ)}", file=sys.stderr)
                return 1
        else:
            config = {k: v for k, v in vars(args).items() if k not in ("command", "out_dir")}
            run_command(args.command, config, args.out_dir)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
