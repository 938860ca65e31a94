"""Output checks for the CLI commands the benchmark runs.

Each check takes the generated workload and the command's output file and
returns a list of problems; an empty list means the output is correct.
Checks run outside the timed region.
"""
from __future__ import annotations

import importlib.util
import io
from collections import Counter
from fractions import Fraction
from pathlib import Path

from threadcoref import errors, metrics, serialization
from threadcoref.model import AnnotatedDocument, validate_document

from generate import ROOT, Workload

_ERROR_ROWS = (
    ("missing_pronoun_refs", "missing_pronoun_references"),
    ("missing_header_refs", "missing_header_references"),
    ("missing_other_refs", "other_missing_references"),
    ("missing_chains", "missing_chains"),
    ("incorrect_pronoun_refs", "incorrectly_chained_pronouns"),
    ("incorrect_other_refs", "incorrectly_chained_other"),
    ("decomposed_chain_count", "decomposed_chains"),
    ("new_chain_count", "new_chains"),
)


def _load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _table(path: Path) -> dict[str, str]:
    """Two-column TSV report (header row skipped) as a dict."""
    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
    return {row[0]: row[1] for row in rows[1:] if len(row) == 2}


def _diff(name: str, got: dict, want: dict) -> list[str]:
    return [f"{name}: {key} is {got.get(key)!r}, expected {value!r}"
            for key, value in want.items() if got.get(key) != value]


def expected_parse(w: Workload) -> bytes:
    """In-process parse_thread + write_native over the same thread files."""
    buf = io.StringIO()
    serialization.write_native([AnnotatedDocument(thread=t) for t in w.threads], buf)
    return buf.getvalue().encode("utf-8")


def check_parse(w: Workload, out: Path, jobs2_out: Path) -> list[str]:
    data = out.read_bytes()
    problems = []
    if data != expected_parse(w):
        problems.append("parse: output differs from in-process parse_thread + write_native")
    if jobs2_out.read_bytes() != data:
        problems.append("parse: --jobs 2 output differs from --jobs 1")
    return problems


def check_filter(w: Workload, report: Path) -> list[str]:
    want = {key: str(value) for key, value in w.expected["filter"].items()}
    return _diff("filter", _table(report), want)


def check_features(w: Workload, out: Path) -> list[str]:
    lines = out.read_text(encoding="utf-8").splitlines()
    ids = [d.thread.id for d in w.gold]
    if len(lines) != len(ids) or any(f'"id":"{i}"' not in line for i, line in zip(ids, lines)):
        return ["features: output does not hold one record per gold document, in order"]
    return [] if all('"features":{"mi":' in line for line in lines) else ["features: missing MI/SI columns"]


def check_resolve(w: Workload, out: Path) -> list[str]:
    docs = serialization.read_native(out.read_text(encoding="utf-8"))
    if [d.thread.id for d in docs] != [d.thread.id for d in w.gold]:
        return ["resolve: output documents differ from the gold documents"]
    problems = []
    for got, gold in zip(docs, w.gold):
        mentions = list(got.mentions())
        if len(mentions) != len(set(mentions)) or set(mentions) != set(gold.mentions()):
            problems.append(f"resolve: {got.thread.id}: chains do not partition the gold mentions")
        problems += [f"resolve: {got.thread.id}: {v}" for v in validate_document(got)]
    return problems


def expected_score_values(w: Workload) -> dict[str, str]:
    """MUC and B3 from the brute-force oracles, micro-averaged over documents.

    The oracles return exact per-document ratios; multiplying by the known
    denominators recovers each document's numerators, which are summed.
    """
    oracles = _load_oracles()
    dens = {
        "muc": lambda chains: sum(len(c) - 1 for c in chains),
        "b3": lambda chains: sum(len(c) for c in chains),
    }
    values = {}
    for name, oracle in (("muc", oracles.muc_oracle), ("b3", oracles.b_cubed_oracle)):
        p_num = p_den = r_num = r_den = Fraction(0)
        for gold, response in zip(w.gold, w.response):
            key = [frozenset(c.mentions) for c in gold.chains]
            resp = [frozenset(c.mentions) for c in response.chains]
            p, r, _ = oracle(key, resp)
            p_den += dens[name](resp)
            r_den += dens[name](key)
            p_num += p * dens[name](resp)
            r_num += r * dens[name](key)
        precision = p_num / p_den if p_den else Fraction(0)
        recall = r_num / r_den if r_den else Fraction(0)
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else Fraction(0)
        for part, value in (("p", precision), ("r", recall), ("f1", f1)):
            values[f"{name}_{part}"] = f"{float(value):.4f}"
    return values


def check_score(w: Workload, out: Path, conll_out: Path, oracle_values: dict[str, str]) -> list[str]:
    lines = out.read_text(encoding="utf-8").splitlines()
    if len(lines) != 2:
        return [f"score: expected a header and one row, got {len(lines)} lines"]
    row = dict(zip(lines[0].split("\t"), lines[1].split("\t")))
    problems = _diff("score", row, oracle_values)
    if conll_out.read_text(encoding="utf-8") != out.read_text(encoding="utf-8"):
        problems.append("score: the CoNLL row differs from the native row")
    return problems


def check_errors(w: Workload, out: Path) -> list[str]:
    total = errors.ErrorReport()
    for gold, response in zip(w.gold, w.response):
        total = total + errors.categorize_errors(gold.thread, gold.chains, response.chains)
    got = _table(out)
    problems = _diff("errors", got, {label: str(getattr(total, attr)) for attr, label in _ERROR_ROWS})
    planted = w.expected["planted_errors"]
    problems += _diff("errors (planted)", got, {
        "decomposed_chains": str(planted["decomposed_chains"]),
        "missing_chains": str(planted["missing_chains"]),
    })
    return problems


def check_stats(w: Workload, out: Path) -> list[str]:
    return _diff("stats", _table(out), {k: str(v) for k, v in w.expected["stats"].items()})


def check_correction_stats(w: Workload, out: Path) -> list[str]:
    parts = Counter()
    for pred, gold in zip(w.response, w.gold):
        stats = metrics.correction_stats(pred.mentions(), gold.mentions())
        parts.update(added=stats.added, corrected=stats.corrected, deleted=stats.deleted, unchanged=stats.unchanged)
    want = {f"{k}_mentions": str(parts[k]) for k in ("added", "corrected", "deleted", "unchanged")}
    want["predicted_total"] = str(parts["unchanged"] + parts["corrected"] + parts["deleted"])
    want["gold_total"] = str(parts["unchanged"] + parts["corrected"] + parts["added"])
    return _diff("correction-stats", _table(out), want)
