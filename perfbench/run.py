"""End-to-end benchmark of the poprank pipeline.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload dense --seed 1 --seconds 30 --trace 0

It generates the workload's inputs from --seed, then runs whole rounds of
``poprank synth, stats, mine, train, eval, score`` -- each command in its own
child process, one at a time -- for about --seconds, checks every output,
and prints one JSON line: with --trace 0 the end-to-end metrics (each
command's mean time over the run, scaled to a reference host speed), with
--trace 1 the per-layer metrics of one traced round plus its overhead against
one untraced round. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import corpus_gen
from checks import CheckError, require
from corpus_gen import Shape

HERE = Path(__file__).resolve().parent
BOOT = "import sys; from poprank.cli import main; sys.exit(main())"  # what the `poprank` script runs
COMMANDS = ("synth", "stats", "mine", "train", "eval", "score")
PIPELINE = COMMANDS[1:]
SETUPS = 3  # set-up repetitions per measured run; setup_s is their median
TEST_FRACTION = 0.2  # mined pairs held out from `train` for `eval`
EPOCHS = 30  # `poprank train` default
DEADLINE_S = 170.0  # a run must end within 180 s

# The host's speed is sampled before every command by timing a fixed pure-Python
# loop, and every time a run reports is scaled by REFERENCE_LOOP_S over the run's
# mean loop time: on a shared host the speed of the whole machine drifts by
# 10-20 % from one minute to the next, which no averaging within a run removes.
LOOP_ITERATIONS = 1_000_000
REFERENCE_LOOP_S = 0.088  # the loop's median time on the reference host (README)

WORKLOADS = {
    "dense": Shape(n_users=50, posts_per_user=600, feature_dim=16, n_informative=4),
    "embed": Shape(n_users=1000, posts_per_user=12, feature_dim=256, n_informative=16, bare_share=0.8),
}
# Times a command runs in each measured round (default once), each time in a
# later pass over the pipeline, so that a short command is timed several times
# and at moments seconds apart: on a shared 2-core host the CPU speed switches
# between two levels about 1.4x apart every few seconds, and a sub-second
# command timed once per round, or several times back to back, spread by over
# 20 % between seeds.
REPEATS = {
    "dense": {"stats": 2, "eval": 3, "score": 2},
    "embed": {"stats": 3, "mine": 3},
}

# per-layer metric -> (functions whose self times add up, or a count)
SELF_TIMES = {
    "corpus.parse_s": ["corpus.parse_posts", "corpus.parse_posts_file"],
    "corpus.caption_s": ["corpus.analyze_caption"],
    "corpus.filter_s": ["corpus.filter_candidates"],
    "corpus.stats_s": ["corpus.corpus_stats"],
    "corpus.write_posts_s": ["corpus.write_posts"],
    "mining.mine_s": ["mining.mine_pairs"],
    "mining.pairs_io_s": ["mining.write_pairs", "mining.read_pairs"],
    "features.load_s": ["features.load_features"],
    "features.validate_s": ["features.validate_features"],
    "features.save_s": ["features.save_features"],
    "mlp.forward_s": ["mlp.forward"],
    "mlp.forward_batch_s": ["mlp.forward_batch"],
    "mlp.forward_cached_s": ["mlp.forward_cached"],
    "mlp.backward_s": ["mlp.backward"],
    "mlp.adam_s": ["mlp.adam_step"],
    "mlp.checkpoint_io_s": ["mlp.save_checkpoint", "mlp.load_checkpoint"],
    "ranker.train_s": ["ranker.train"],
    "ranker.resolve_s": ["ranker.resolve_pair_features"],
    "ranker.score_loop_s": ["ranker.score_batch"],
    "evaluate.accuracy_s": ["evaluate.pairwise_accuracy"],
    "evaluate.write_scores_s": ["evaluate.write_scores_csv"],
    "synthgen.generate_s": ["synthgen.generate_corpus"],
    "synthgen.save_latents_s": ["synthgen.save_latents"],
    "util.hash_s": ["util.sha256_file"],
}
CALL_COUNTS = {
    "corpus.caption_calls": "corpus.analyze_caption",
    "mining.window_pairs": "mining.captions_compatible",
    "mining.prob_evals": "mining.pdip_probability",
    "mlp.forward_calls": "mlp.forward",
    "mlp.adam_steps": "mlp.adam_step",
}
TRACE_COUNTS = {
    "corpus.posts_parsed": "posts_parsed",
    "corpus.candidates": "candidates",
    "mining.pairs": "pairs",
    "features.rows_loaded": "rows_loaded",
    "features.values_loaded": "values_loaded",
    "util.bytes_hashed": "bytes_hashed",
}


def loop_s() -> float:
    """Seconds the fixed loop takes now: a sample of the host's current speed."""
    start = time.perf_counter()
    x = 0
    for i in range(LOOP_ITERATIONS):
        x += i * i
    return time.perf_counter() - start


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    code: int


class Runner:
    """Runs commands one at a time and counts them; owns the child processes."""

    def __init__(self, workdir: Path, src: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.loops: list[float] = []  # loop_s() before each command
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"  # one BLAS thread: at most nproc, and steadier on a shared host

    def spawn(self, argv: list[str], log: Path) -> Outcome:
        """Run argv to its end through launch.py; wall time and peak RSS of argv alone."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise CheckError(f"out of time before {argv[2:4]}")
        result = log.with_suffix(".json")
        with open(log, "w") as out:
            subprocess.run([sys.executable, str(HERE / "launch.py"), str(result), str(remaining), *argv],
                           cwd=self.workdir, env=self.env, stdout=out, stderr=subprocess.STDOUT,
                           timeout=remaining + 5, check=True)
        return Outcome(**json.loads(result.read_text()))

    def command(self, args: list[str], out: Path, trace: Path | None = None) -> Outcome:
        self.loops.append(loop_s())
        self.attempted += 1
        boot = [str(HERE / "tracer.py"), str(trace)] if trace else ["-c", BOOT]
        result = self.spawn([sys.executable, *boot, *args], out.with_suffix(f".{args[0]}.log"))
        if result.code != 0:
            self.failed += 1
            log = out.with_suffix(f".{args[0]}.log").read_text().strip().splitlines()
            raise CheckError(f"{args[0]} exited {result.code}: {log[-1] if log else ''}")
        return result


def setup(runner: Runner, root: Path, shape: Shape, seed: int, name: str) -> corpus_gen.Corpus:
    """Fresh source copy, inputs written, first import compiling the bytecode."""
    workdir = runner.workdir
    shutil.rmtree(workdir / "src", ignore_errors=True)
    shutil.copytree(root / "src", workdir / "src", ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    corpus = corpus_gen.generate(shape, seed, name)
    corpus_gen.write_posts(workdir / "posts.jsonl", corpus)
    corpus_gen.write_features(workdir / "features.csv", corpus)
    outcome = runner.spawn([sys.executable, "-c", "import poprank.cli"], workdir / "setup.log")
    require(outcome.code == 0, "set-up: `import poprank.cli` failed (see setup.log)")
    return corpus


def split_pairs(out: Path, seed: int):
    """The benchmark's own held-out split of the mined pairs."""
    lines = (out / "pairs.csv").read_text().splitlines()
    rows = lines[1:]
    order = np.random.default_rng([seed, 2]).permutation(len(rows))
    n_test = round(len(rows) * TEST_FRACTION)
    test, train = sorted(order[:n_test]), sorted(order[n_test:])
    for name, part in (("pairs_train.csv", train), ("pairs_test.csv", test)):
        (out / name).write_text("\n".join([lines[0]] + [rows[i] for i in part]) + "\n")
    pairs = checks.read_pairs(out / "pairs.csv")
    return [pairs[i] for i in test]


def run_round(runner: Runner, corpus, shape: Shape, seed: int, tag: str, check: bool,
              repeats: dict[str, int], tracing: bool = False) -> dict:
    """One pass of every command, then further passes of the commands `repeats` names.

    Pass p runs, in pipeline order, each command that `repeats` gives more than
    p runs, so the repeats of one command are spread over the round rather than
    run back to back. Returns every wall time and RSS, the output digests, the
    accuracy and the trace files. With `check`, every output is checked against
    the corpus; every repeat, and every round of a run, must reproduce the same
    digests.
    """
    w = runner.workdir
    out = w / tag
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    synth_out = w / f"{tag}-synth"
    res: dict[str, list[Outcome]] = {}
    digests: dict[str, dict[str, str]] = {}
    traces = {}
    o = out.name
    argv = {
        "synth": ["--out-dir", synth_out.name, "--n-users", str(shape.n_users),
                  "--posts-per-user", str(shape.posts_per_user), "--feature-dim", str(shape.feature_dim),
                  "--time-span-days", str(corpus_gen.SPAN_DAYS), "--seed", str(seed)],
        "stats": ["--posts", "posts.jsonl", "--out-dir", o],
        "mine": ["--posts", "posts.jsonl", "--reference-time", str(shape.reference_time), "--out-dir", o],
        "train": ["--pairs", f"{o}/pairs_train.csv", "--features", "features.csv", "--out-dir", o],
        "eval": ["--checkpoint", f"{o}/checkpoint.txt", "--pairs", f"{o}/pairs_test.csv",
                 "--features", "features.csv", "--out-dir", o],
        "score": ["--checkpoint", f"{o}/checkpoint.txt", "--features", "features.csv", "--out-dir", o],
    }

    def go(command: str, where: Path = out):
        trace = out / f"{command}.trace.json" if tracing else None
        if trace:
            traces[command] = trace
        res.setdefault(command, []).append(runner.command([command, *argv[command]], out, trace))
        outputs = checks.check_manifest(where, command)
        require(digests.setdefault(command, outputs) == outputs, f"{command}: a repeat changed an output")

    go("synth", where=synth_out)
    if check:
        checks.check_synth(synth_out, shape.n_users * shape.posts_per_user, shape.feature_dim)
    shutil.rmtree(synth_out)

    go("stats")
    if check:
        checks.check_stats(out, corpus)
    go("mine")
    if check:
        checks.check_mine(out, corpus)
    test_pairs = split_pairs(out, seed)
    go("train")
    if check:
        checks.check_train(out, EPOCHS)
    go("eval")
    go("score")
    if check:
        checks.check_eval(out, checks.check_score(out, out / "checkpoint.txt", corpus), test_pairs)
    for p in range(1, max(repeats.values(), default=1)):
        for command in PIPELINE:
            if repeats.get(command, 1) > p:
                go(command)
    accuracy = float(checks.read_csv(out / "eval_result.csv", "n_pairs,accuracy,n_ties")[0][1])
    return {"outcomes": res, "accuracy": accuracy, "digests": digests, "traces": traces}


def measure(runner, root, shape, args) -> dict:
    setup_s = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        corpus = setup(runner, root, shape, args.seed, args.workload)
        setup_s.append(time.perf_counter() - start)
    rounds = []
    begin = time.monotonic()
    while True:  # whole rounds: the run ends with the round whose end, by the last round's length, is nearest --seconds
        start = time.monotonic()
        rounds.append(run_round(runner, corpus, shape, args.seed, f"round{len(rounds)}", check=not rounds,
                                repeats=REPEATS[args.workload]))
        now = time.monotonic()
        if now - begin + (now - start) / 2 > args.seconds or now + (now - start) > runner.deadline:
            break
    for r in rounds[1:]:
        require(r["digests"] == rounds[0]["digests"], "outputs differ between rounds of one run")

    outcomes = {c: [o for r in rounds for o in r["outcomes"][c]] for c in COMMANDS}
    scale = REFERENCE_LOOP_S / statistics.fmean(runner.loops)
    metrics = {"setup_s": (scale * statistics.median(setup_s), "s")}
    for command in COMMANDS:  # mean, not median: the CPU speed has two levels, and a median jumps between them
        metrics[f"{command}_s"] = (scale * statistics.fmean(o.wall_s for o in outcomes[command]), "s")
    metrics["pipeline_s"] = (sum(metrics[f"{c}_s"][0] for c in PIPELINE), "s")
    metrics["peak_rss_mb"] = (max(o.rss_mb for c in COMMANDS for o in outcomes[c]), "MB")
    metrics["test_accuracy"] = (statistics.median(r["accuracy"] for r in rounds), "fraction")
    return metrics


def self_times(trace: dict) -> tuple[dict[str, float], float]:
    """Self time per function name, and the time covered by root spans."""
    spans = np.array(trace["spans"], dtype=np.float64).reshape(-1, 4)
    fid, parent = spans[:, 0].astype(int), spans[:, 3].astype(int)
    dur = spans[:, 2] - spans[:, 1]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(spans))
    per_fid = np.bincount(fid, weights=dur - child, minlength=len(trace["names"]))
    return dict(zip(trace["names"], per_fid.tolist())), float(dur[~has_parent].sum())


def measure_layers(runner, root, shape, args) -> dict:
    corpus = setup(runner, root, shape, args.seed, args.workload)
    plain = run_round(runner, corpus, shape, args.seed, "plain", check=True, repeats={})
    traced = run_round(runner, corpus, shape, args.seed, "traced", check=False, repeats={}, tracing=True)
    require(traced["digests"] == plain["digests"], "tracing changed an output")

    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    metrics: dict[str, tuple[float, str]] = {}
    import_s = 0.0
    for command, path in traced["traces"].items():
        trace = json.loads(path.read_text())
        own, covered = self_times(trace)
        for name, s in own.items():
            self_s[name] = self_s.get(name, 0.0) + s
        for name, n in zip(trace["names"], trace["calls"]):
            calls[name] = calls.get(name, 0) + n
        for key, n in trace["counts"].items():
            counts[key] = counts.get(key, 0) + n
        import_s += trace["import_s"]
        wall = traced["outcomes"][command][0].wall_s
        metrics[f"uncovered.{command}_share"] = (1.0 - covered / wall, "fraction")
    for metric, names in SELF_TIMES.items():
        metrics[metric] = (sum(self_s.get(n, 0.0) for n in names), "s")
    for metric, name in CALL_COUNTS.items():
        metrics[metric] = (calls.get(name, 0), "count")
    for metric, key in TRACE_COUNTS.items():
        metrics[metric] = (counts[key], "bytes" if key == "bytes_hashed" else "count")
    metrics["mining.pair_yield"] = (counts["pairs"] / max(1, calls.get("mining.captions_compatible", 0)), "fraction")
    metrics["cli.import_s"] = (import_s, "s")
    for command in COMMANDS:
        metrics[f"rss.{command}_mb"] = (plain["outcomes"][command][0].rss_mb, "MB")
    untraced = sum(plain["outcomes"][c][0].wall_s for c in PIPELINE)
    overhead = sum(traced["outcomes"][c][0].wall_s for c in PIPELINE) - untraced
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / untraced, "fraction")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # One CPU for the benchmark and every command it starts (children inherit
    # it), so that the loop samples the speed of the CPU the commands run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = Path.cwd()
    if not (root / "src" / "poprank" / "cli.py").is_file():
        print("error: run from the root of a poprank checkout (src/poprank/cli.py not found)", file=sys.stderr)
        return 2
    workdir = root / "perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(workdir, workdir / "src", time.monotonic() + DEADLINE_S)
    shape = WORKLOADS[args.workload]
    correct, error = True, None
    try:
        metrics = (measure_layers if args.trace else measure)(runner, root, shape, args)
    except CheckError as exc:
        correct, error, metrics = False, str(exc), {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if error:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
