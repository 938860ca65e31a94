"""Self-tests of the benchmark: run with ``PYTHONPATH=src python -m pytest perfbench -q``."""
from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import generate  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", generate.WORKLOADS)
def test_generator_is_deterministic_for_a_seed(tmp_path, workload):
    first = _files(generate.generate(workload, 7, tmp_path / "a", scale=0.1).root)
    again = _files(generate.generate(workload, 7, tmp_path / "b", scale=0.1).root)
    other = _files(generate.generate(workload, 8, tmp_path / "c", scale=0.1).root)
    assert first == again
    assert first != other


@pytest.fixture()
def small_run(monkeypatch, tmp_path):
    """A Run on a one-tenth-scale workload, with its files under tmp_path."""
    monkeypatch.setattr(run, "WORK", tmp_path)
    r = run.Run("mail_long", 3, scale=0.1)
    yield r
    r.close()


def test_correct_outputs_pass_and_tampered_outputs_fail(small_run):
    assert all(small_run.invoke(name, args, out) for name, args, out in run.COMMANDS)
    score = small_run.dir / "score.tsv"
    good = score.read_text(encoding="utf-8")
    header, row = good.splitlines()
    cells = row.split("\t")
    cells[0] = "0.0001" if cells[0] != "0.0001" else "0.0002"  # muc_p
    score.write_text(header + "\n" + "\t".join(cells) + "\n", encoding="utf-8")
    (small_run.dir / "resolved.jsonl").write_text("not json\n", encoding="utf-8")

    small_run.check_first()
    assert small_run.failed_ops == {("score_s", 0), ("resolve_s", 0)}
    assert any("muc_p" in problem for problem in small_run.failures)

    # a later invocation of a command whose first output failed its check fails too
    name, args, out = run.COMMANDS[[c[0] for c in run.COMMANDS].index("score_s")]
    assert not small_run.invoke(name, args, out)
    # and so does one whose output differs from the first invocation's
    small_run.first_outputs["stats_s"] = b"statistic\tvalue\nwords\t1\n"
    name, args, out = run.COMMANDS[[c[0] for c in run.COMMANDS].index("stats_s")]
    assert not small_run.invoke(name, args, out)
    assert small_run.failed_ops == {("score_s", 0), ("resolve_s", 0), ("score_s", 1), ("stats_s", 1)}
    assert small_run.attempted == len(run.COMMANDS) + 2


def test_centre_is_robust_to_one_slow_sample_in_four():
    assert run.centre([2.0, 2.0, 2.0, 20.0]) == 2.0
    assert run.centre([1.0, 3.0]) == 2.0
    assert run.centre([1.0, 2.0, 10.0]) == 3.75


def test_time_metrics_are_scaled_by_the_reference():
    r = object.__new__(run.Run)
    r.samples = {name: [2.0, 2.0, 20.0, 2.0] for name, _, _ in run.STEPS}
    r.order = ["reference_s"] + [n for _ in range(4) for name, _, _ in run.STEPS for n in (name, "reference_s")]
    # a host at half the nominal speed, except around one sample, where it was twice as slow again
    r.samples["reference_s"] = [run.NOMINAL_REFERENCE_S * 2] * (1 + 4 * len(run.STEPS))
    r.samples["reference_s"][11:13] = [run.NOMINAL_REFERENCE_S * 6] * 2  # around the second set-up sample
    r.samples["setup_s"][1] = 6.0
    r.peak_rss_mb = 50.0
    metrics = r.end_to_end()
    assert metrics["setup_s"] == {"value": pytest.approx(1.0), "unit": "s"}
    for group, names in run.GROUPS.items():
        assert metrics[group] == {"value": pytest.approx(len(names)), "unit": "s"}
    assert metrics["peak_rss_mb"] == {"value": 50.0, "unit": "MB"}


def test_traced_run_leaves_cli_outputs_byte_identical(small_run):
    small_run.first_cycle()
    assert small_run.failures == []
    before = {name: (small_run.dir / out).read_bytes() for name, out in run.OUTPUTS.items()}
    originals = {name: getattr(mod, name) for mod, names in layers.TRACED.items() for name in names}

    metrics = layers.per_layer(small_run.w, small_run.measured(), small_run.dir / "trace.json")

    assert {name: getattr(mod, name) for mod, names in layers.TRACED.items() for name in names} == originals
    assert all(f"{name}.s" in metrics for name in layers.SPAN_METRICS)
    assert (small_run.dir / "inproc" / "parsed.jsonl").read_bytes() == before["parse_s"]
    small_run.first_cycle()
    assert small_run.failures == []
    assert before == {name: (small_run.dir / out).read_bytes() for name, out in run.OUTPUTS.items()}


def test_span_self_time_subtracts_children():
    tracer = layers.Tracer()
    tracer.spans[:] = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["a", 5.0, 6.0, 0]]
    assert tracer.busy() == {"a": 10.0, "b": 3.0}
    # outer a: 10 - 3 (b) - 1 (inner a); inner a: 1
    assert tracer.self_time() == {"a": 7.0, "b": 3.0}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mail_wide", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
