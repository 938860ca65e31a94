"""Benchmark for the threadcoref CLI pipeline on seeded mail workloads.

    python3 perfbench/run.py --workload mail_wide --seed 1 --seconds 55 --trace 0

Generates the workload from the seed, then runs the real CLI
(``python -m threadcoref.cli`` with ``PYTHONPATH=src``) as a subprocess for
each user-facing step, cycling through the steps until the time budget is
spent. Before and after every step it runs ``reference.py``, fixed work
that does not use the program. Each sample of a step is divided by the mean
of the two reference samples around it, so that the host's speed at that
moment cancels; a step's time is a robust mean (``centre``) of these ratios,
times ``NOMINAL_REFERENCE_S``. Every output is checked
outside the timed region. ``--trace 1`` adds the in-process passes of
``layers.py`` and reports the per-layer metrics instead.
``--workload all`` runs every workload in turn.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

REFERENCE = ("reference_s", [str(HERE / "reference.py")], None)
# A round figure for the wall time of reference.py on the 2-core host the
# baseline was taken on, where it ran in 0.40-0.57 s. A time metric reads as
# the seconds the step would take on a host where the reference takes this long.
NOMINAL_REFERENCE_S = 0.45
SETUP = ("setup_s", ["-c", "import threadcoref.cli"], None)
# (name, CLI arguments, output file); an output the arguments do not name
# is the command's standard output. The order is the order of a cycle: the
# groups below are interleaved, so a cycle cut short by the time budget
# shortens every group alike. filter reads what parse writes.
COMMANDS = (
    ("parse_s", ["parse", "--in", "threads", "--out", "parsed.jsonl", "--jobs", "1"], "parsed.jsonl"),
    ("features_s", ["features", "--in", "gold.jsonl", "--out", "features.jsonl", "--mi", "--si", "--rev"],
     "features.jsonl"),
    ("score_s", ["score", "--key", "gold.jsonl", "--response", "response.jsonl"], "score.tsv"),
    ("parse_jobs2_s", ["parse", "--in", "threads", "--out", "parsed2.jsonl", "--jobs", "2"], "parsed2.jsonl"),
    ("resolve_s", ["resolve", "--baseline", "hb1", "--in", "gold.jsonl", "--out", "resolved.jsonl"],
     "resolved.jsonl"),
    ("score_conll_s", ["score", "--key", "gold.conll", "--response", "response.conll"], "score_conll.tsv"),
    ("filter_s", ["filter", "--in", "parsed.jsonl", "--exclude-fingerprints", "exclude.txt",
                  "--report", "filter.tsv"], "filter.tsv"),
    ("stats_s", ["stats", "--in", "gold.jsonl"], "stats.tsv"),
    ("errors_s", ["errors", "--key", "gold.jsonl", "--response", "response.jsonl"], "errors.tsv"),
    ("correction_stats_s", ["correction-stats", "--pred", "response.jsonl", "--gold", "gold.jsonl"],
     "correction_stats.tsv"),
)
OUTPUTS = {name: output for name, _, output in COMMANDS}
# End-to-end time metrics: each sums the times of its commands. One command
# is sampled only two or three times in a run, too few for a steady time of
# its own; a sum over several commands is steady.
GROUPS = {
    "pipeline_s": ("parse_s", "filter_s", "features_s", "resolve_s", "stats_s", "score_s", "errors_s",
                   "correction_stats_s"),
    "ingest_s": ("parse_s", "parse_jobs2_s", "filter_s"),
    "annotate_s": ("features_s", "resolve_s", "stats_s"),
    "evaluate_s": ("score_s", "score_conll_s", "errors_s", "correction_stats_s"),
}
# The steps of one cycle; the reference runs before the first and after each.
STEPS = (SETUP,) + COMMANDS


def centre(values: list[float]) -> float:
    """Hodges-Lehmann estimate: the median of the means of all pairs, each value with itself included.

    Nearly as efficient as the mean on the two or three samples a step gets,
    and one slow sample in four does not move it.
    """
    return statistics.median((a + b) / 2 for i, a in enumerate(values) for b in values[i:])


def run_child(args: list[str], cwd: Path, stdout_name: str | None) -> tuple[float, int, float]:
    """Run one Python child; returns (wall seconds, exit code, peak RSS in MB).

    Standard output goes to ``stdout_name`` unless the arguments name that file.

    Peak RSS is the child's own, read from its rusage with os.wait4.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    own = args[0] == "-c" or args[0].endswith(".py")
    argv = [sys.executable] + (args if own else ["-m", "threadcoref.cli"] + args)
    stdout_name = None if stdout_name in args else stdout_name
    with open(cwd / stdout_name if stdout_name else os.devnull, "w") as out, \
            open(cwd / "stderr.txt", "a") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


class Run:
    """One workload's generated inputs, timed CLI invocations and failure counts."""

    def __init__(self, workload: str, seed: int, scale: float = 1.0):
        import generate

        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        start = time.perf_counter()
        self.w = generate.generate(workload, seed, self.dir, scale)
        self.generate_s = time.perf_counter() - start
        self.samples: dict[str, list[float]] = {name: [] for name, _, _ in (REFERENCE, SETUP) + COMMANDS}
        self.order: list[str] = []  # step names in the order they ran
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.failed_ops: set[tuple[str, int]] = set()
        # each command's output from its first invocation, which is checked in full
        self.first_outputs: dict[str, bytes | None] = {}

    def invoke(self, name: str, args: list[str], output: str | None) -> bool:
        """Time one child; a command's output must match its first invocation's."""
        seconds, code, rss = run_child(args, self.dir, output)
        self.samples[name].append(seconds)
        self.order.append(name)
        if name == REFERENCE[0]:
            if code != 0:
                raise RuntimeError(f"reference.py exited with code {code}")
            return True
        self.attempted += 1
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        problem = f"exit code {code}" if code != 0 else None
        if output is not None:
            path = self.dir / output
            data = path.read_bytes() if problem is None and path.is_file() else None
            if problem is None and data is None:
                problem = f"wrote no {output}"
            if name not in self.first_outputs:
                self.first_outputs[name] = data
            elif problem is None and self.first_outputs[name] is None:
                problem = "the first invocation failed, so this output is unchecked"
            elif problem is None and data != self.first_outputs[name]:
                problem = "output differs from the first invocation"
        if problem:
            self.fail(name, problem)
        return problem is None

    def fail(self, name: str, problem: str) -> None:
        index = len(self.samples[name]) - 1
        self.failures.append(f"{name} #{index}: {problem}")
        self.failed_ops.add((name, index))

    def first_cycle(self) -> None:
        """Every step once, then the full checks of every command's output."""
        self.invoke(*REFERENCE)
        for step in STEPS:
            self.invoke(*step)
            self.invoke(*REFERENCE)
        self.check_first()

    def check_first(self) -> None:
        import checks

        ok = {name: self.first_outputs.get(name) is not None for name in OUTPUTS}
        w, d = self.w, self.dir
        runs = (
            ("parse_s", ("parse_jobs2_s",), lambda: checks.check_parse(w, d / "parsed.jsonl", d / "parsed2.jsonl")),
            ("filter_s", (), lambda: checks.check_filter(w, d / "filter.tsv")),
            ("features_s", (), lambda: checks.check_features(w, d / "features.jsonl")),
            ("resolve_s", (), lambda: checks.check_resolve(w, d / "resolved.jsonl")),
            ("score_s", ("score_conll_s",), lambda: checks.check_score(
                w, d / "score.tsv", d / "score_conll.tsv", checks.expected_score_values(w))),
            ("errors_s", (), lambda: checks.check_errors(w, d / "errors.tsv")),
            ("stats_s", (), lambda: checks.check_stats(w, d / "stats.tsv")),
            ("correction_stats_s", (), lambda: checks.check_correction_stats(w, d / "correction_stats.tsv")),
        )
        for name, also, check in runs:
            if not (ok[name] and all(ok[a] for a in also)):
                continue
            try:
                problems = check()
            except Exception as exc:  # malformed output: a failed operation, not a crash
                problems = [f"check raised {exc!r}"]
            for problem in problems:
                self.fail(name, problem)
            if problems:
                self.first_outputs[name] = None

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def measured(self) -> dict[str, float]:
        """Wall seconds of each step, as measured: the centre of its samples."""
        return {name: centre(values) for name, values in self.samples.items()}

    def scaled(self) -> dict[str, float]:
        """Seconds of each step on a host where the reference takes NOMINAL_REFERENCE_S.

        Each sample is divided by the mean of the nearest reference samples
        before and after it. The host's speed drifts, and samples a second
        apart share much of it, so the ratio cancels it.
        """
        seen = dict.fromkeys(self.samples, 0)
        seq = []
        for name in self.order:
            seq.append((name, self.samples[name][seen[name]]))
            seen[name] += 1
        refs = [i for i, (name, _) in enumerate(seq) if name == REFERENCE[0]]
        ratios: dict[str, list[float]] = {name: [] for name in self.samples}
        for i, (name, seconds) in enumerate(seq):
            if name == REFERENCE[0]:
                continue
            before = [seq[j][1] for j in refs if j < i][-1:]
            after = [seq[j][1] for j in refs if j > i][:1]
            ratios[name].append(seconds / statistics.mean(before + after))
        ratios[REFERENCE[0]] = [1.0]
        return {name: centre(values) * NOMINAL_REFERENCE_S for name, values in ratios.items()}

    def end_to_end(self) -> dict[str, dict]:
        t = self.scaled()
        metrics = {"setup_s": {"value": t["setup_s"], "unit": "s"}}
        metrics.update({group: {"value": sum(t[n] for n in names), "unit": "s"} for group, names in GROUPS.items()})
        metrics["peak_rss_mb"] = {"value": self.peak_rss_mb, "unit": "MB"}
        return metrics

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, "Run"]:
    """One full cycle, then more steps of the cycle while the budget lasts; then the traced run if asked."""
    run = Run(workload, seed)
    try:
        run_child(SETUP[1], run.dir, None)  # untimed: fill the bytecode and file caches
        start = time.perf_counter()
        run.first_cycle()
        for i in itertools.count():
            step = STEPS[i % len(STEPS)]
            if time.perf_counter() - start + run.samples[step[0]][-1] + run.samples[REFERENCE[0]][-1] > seconds:
                break
            run.invoke(*step)
            run.invoke(*REFERENCE)
        timed_s = time.perf_counter() - start
        metrics = run.end_to_end()
        if trace:
            import layers

            metrics = layers.per_layer(run.w, run.measured(), WORK / f"trace-{workload}-{seed}.json")
            metrics.update({f"cli.{name}": {"value": value, "unit": "s"}
                            for name, value in run.scaled().items() if name in OUTPUTS})
        for problem in run.failures:
            print(f"FAILED {workload}: {problem}", file=sys.stderr)
        print(f"# {workload} seed {seed}: generated in {run.generate_s:.2f} s, timed for "
              f"{timed_s:.1f} s", file=sys.stderr)
    finally:
        run.close()
    return metrics, run


def report(name: str, metrics: dict, run: Run, trace: bool) -> None:
    """Human-readable lines: the metrics, then every step's scaled and measured time."""
    print(f"{name}:")
    for metric, entry in metrics.items():
        print(f"  {metric:40s} {entry['value']:14.6f} {entry['unit']}")
    if trace:
        return
    raw, scaled = run.measured(), run.scaled()
    print(f"  {'step':40s} {'scaled s':>14s} {'measured s':>14s} samples")
    for step, values in run.samples.items():
        print(f"  {step:40s} {scaled[step]:14.6f} {raw[step]:14.6f} {len(values):7d}")
    print(f"  {'failed_ops':40s} {run.failed / run.attempted:14.6f} ratio  ({run.failed} of {run.attempted} commands)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="mail_wide, mail_long, mail_dups or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time budget of the timed CLI steps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "threadcoref" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} holds no threadcoref checkout (src/threadcoref, tests/oracles.py)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import generate

    names = generate.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in generate.WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}")
    WORK.mkdir(exist_ok=True)
    results, attempted, failed = {}, 0, 0
    for name in names:
        metrics, run = measure(name, args.seed, args.seconds, bool(args.trace))
        attempted += run.attempted
        failed += run.failed
        report(name, metrics, run, bool(args.trace))
        prefix = "" if len(names) == 1 else f"{name}."
        results.update({prefix + metric: entry for metric, entry in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
