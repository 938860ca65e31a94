"""Command-line entry point wiring the pipeline end to end.

Subcommands: parse, filter, features, resolve, score, errors, stats,
correction-stats. Reports are machine-parseable TSV with a fixed header
row (--pretty aligns them for humans). Given identical inputs and
configuration all outputs are deterministic byte for byte, including under
--jobs parallelism: work is distributed per thread but results are reduced
in input order.

Exit codes: 0 on success, 1 on data errors, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

# Only what every subcommand needs is imported here; each handler imports
# the modules it runs, so a command loads no code it does not use.
from . import serialization
from .model import AnnotatedDocument, ToolkitError, mention_order

if TYPE_CHECKING:
    from .parsing import ParserConfig

_METRIC_NAMES = ("muc", "b3", "ceafe", "lea")


def _emit_table(rows: Sequence[Sequence[str]], out, pretty: bool) -> None:
    if pretty:
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        for row in rows:
            out.write("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
            out.write("\n")
    else:
        for row in rows:
            out.write("\t".join(row))
            out.write("\n")


def _iter_thread_files(root: Path) -> list[Path]:
    if root.is_file():
        return [root]
    return sorted(p for p in root.rglob("*") if p.is_file())


def _parse_one(args: tuple[str, str, ParserConfig]) -> str:
    from .parsing import RawThread, parse_thread

    text, rel, config = args
    raw = RawThread(id=rel, text=text, source_path=rel)
    doc = AnnotatedDocument(thread=parse_thread(raw, config))
    return serialization.write_native_string([doc])


def _map_jobs(func, items: list, jobs: int) -> list:
    if jobs <= 1 or len(items) <= 1:
        return [func(item) for item in items]
    # imported here so that single-process runs never load multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(func, items, chunksize=max(1, len(items) // (jobs * 4) or 1)))


def _load_documents(path: Path, fmt: str) -> list[AnnotatedDocument]:
    text = path.read_text(encoding="utf-8")
    if fmt == "auto":
        if path.suffix == ".conll" or text.lstrip().startswith("#begin"):
            fmt = "conll"
        else:
            fmt = "native"
    if fmt == "conll":
        return serialization.read_conll_documents(text)
    return serialization.read_native(text)


def _parse_corpus_dir(path: Path, separators: Optional[str], footers: Optional[str], jobs: int) -> list[str]:
    """Parse every thread file under ``path``; one native JSONL line per thread."""
    from .parsing import ParserConfig

    config = ParserConfig.from_files(separators, footers)
    payload = []
    for file in _iter_thread_files(path):
        rel = file.name if path.is_file() else file.relative_to(path).as_posix()
        payload.append((file.read_text(encoding="utf-8", errors="replace"), rel, config))
    return _map_jobs(_parse_one, payload, jobs)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_parse(args) -> int:
    lines = _parse_corpus_dir(Path(args.input), args.separators, args.footers, args.jobs)
    with open(args.out, "w", encoding="utf-8") as fp:
        fp.writelines(lines)
    return 0


def _cmd_filter(args) -> int:
    from . import filtering

    path = Path(args.input)
    if path.is_dir():
        lines = _parse_corpus_dir(path, args.separators, args.footers, args.jobs)
        docs = serialization.read_native("".join(lines))
    else:
        docs = _load_documents(path, "native")
    threads = [d.thread for d in docs]
    exclusion = (
        filtering.ExclusionSet.from_file(args.exclude_fingerprints)
        if args.exclude_fingerprints
        else filtering.ExclusionSet()
    )
    config = filtering.FilterConfig(
        min_messages=args.min_messages,
        hex_min_run=args.hex_min_run,
        hex_min_fraction=args.hex_min_fraction,
        stopword_min_fraction=args.stopword_min_fraction,
        language_min_tokens=args.language_min_tokens,
    )
    verdicts, report = filtering.filter_corpus(threads, exclusion, config)
    rows = [("category", "count")]
    rows += [(cat.value, str(count)) for cat, count in report.counts]
    rows.append(("total", str(report.total)))
    with open(args.report, "w", encoding="utf-8") as fp:
        _emit_table(rows, fp, args.pretty)
    if args.verdicts:
        with open(args.verdicts, "w", encoding="utf-8") as fp:
            vrows = [("thread_id", "category", "detail")]
            vrows += [(v.thread_id, v.category.value, v.detail) for v in verdicts]
            _emit_table(vrows, fp, args.pretty)
    return 0


def _cmd_features(args) -> int:
    from .features import reverse_document

    docs = _load_documents(Path(args.input), "native")
    if args.rev:
        docs = [reverse_document(d, descending=args.direction == "descending") for d in docs]
    columns = [name for name, wanted in (("mi", args.mi), ("si", args.si)) if wanted]
    with open(args.out, "w", encoding="utf-8") as fp:
        serialization.write_native(docs, fp, features=columns)
    return 0


def _resolve_one(payload: tuple[int, str, str]) -> str:
    from . import baselines

    line_no, line, baseline = payload
    doc = serialization.decode_line(line, line_no)
    mentions = sorted(set(doc.mentions()), key=mention_order)
    resolver = baselines.resolve_hb1 if baseline == "hb1" else baselines.resolve_hb2
    resolution = resolver(doc.thread, mentions)
    out = AnnotatedDocument(thread=doc.thread, chains=resolution.chains)
    return serialization.write_native_string([out])


def _cmd_resolve(args) -> int:
    text = Path(args.input).read_text(encoding="utf-8")
    payload = [
        (line_no, line, args.baseline) for line_no, line in serialization.native_lines(text)
    ]
    lines = _map_jobs(_resolve_one, payload, args.jobs)
    with open(args.out, "w", encoding="utf-8") as fp:
        fp.writelines(lines)
    return 0


def _documents_by_id(
    docs: list[AnnotatedDocument], path: str, role: str
) -> dict[str, AnnotatedDocument]:
    by_id: dict[str, AnnotatedDocument] = {}
    for doc in docs:
        if doc.thread.id in by_id:
            raise ToolkitError(f"{role} file {path} repeats document id {doc.thread.id!r}")
        by_id[doc.thread.id] = doc
    return by_id


def _pair_documents(
    key_docs: list[AnnotatedDocument],
    response_docs: list[AnnotatedDocument],
    key_path: str,
    response_path: str,
) -> list[tuple[AnnotatedDocument, AnnotatedDocument]]:
    """Each key document with the response document of its id.

    A repeated id on either side is an error: a scorer that paired it
    anyway would score some chains against the wrong document.
    """
    _documents_by_id(key_docs, key_path, "key")
    responses = _documents_by_id(response_docs, response_path, "response")
    pairs = []
    for key_doc in key_docs:
        if key_doc.thread.id not in responses:
            raise ToolkitError(f"response file has no document {key_doc.thread.id!r}")
        pairs.append((key_doc, responses[key_doc.thread.id]))
    return pairs


def _cmd_score(args) -> int:
    from . import metrics

    requested = [m.strip() for m in args.metrics.split(",") if m.strip()]
    unknown = [m for m in requested if m not in _METRIC_NAMES]
    if unknown:
        raise ToolkitError(f"unknown metric(s): {', '.join(unknown)}")
    key_docs = _load_documents(Path(args.key), args.format)
    response_docs = _load_documents(Path(args.response), args.format)
    pairs = _pair_documents(key_docs, response_docs, args.key, args.response)
    report = metrics.score_documents(
        [(k.chains, r.chains) for k, r in pairs]
    )
    header: list[str] = []
    values: list[str] = []
    for name in _METRIC_NAMES:
        if name not in requested:
            continue
        score: metrics.MetricScore = getattr(report, name)
        header += [f"{name}_p", f"{name}_r", f"{name}_f1"]
        values += [f"{score.precision:.4f}", f"{score.recall:.4f}", f"{score.f1:.4f}"]
    if all(m in requested for m in ("muc", "b3", "ceafe")):
        header.append("avg_f1")
        values.append(f"{report.conll_avg_f1:.4f}")
    _emit_table([header, values], sys.stdout, args.pretty)
    return 0


_ERROR_ROWS = (
    ("missing_pronoun_references", "missing_pronoun_refs"),
    ("missing_header_references", "missing_header_refs"),
    ("other_missing_references", "missing_other_refs"),
    ("missing_chains", "missing_chains"),
    ("incorrectly_chained_pronouns", "incorrect_pronoun_refs"),
    ("incorrectly_chained_other", "incorrect_other_refs"),
    ("decomposed_chains", "decomposed_chain_count"),
    ("new_chains", "new_chain_count"),
)


def _cmd_errors(args) -> int:
    from .errors import ErrorReport, categorize_errors

    key_docs = _load_documents(Path(args.key), args.format)
    response_docs = _load_documents(Path(args.response), args.format)
    pairs = _pair_documents(key_docs, response_docs, args.key, args.response)
    total = ErrorReport()
    for key_doc, response_doc in pairs:
        total = total + categorize_errors(key_doc.thread, key_doc.chains, response_doc.chains)
    rows = [("category", "count")]
    rows += [(label, str(getattr(total, attr))) for label, attr in _ERROR_ROWS]
    _emit_table(rows, sys.stdout, args.pretty)
    return 0


def _cmd_stats(args) -> int:
    from . import metrics

    docs = _load_documents(Path(args.input), "native")
    stats = metrics.corpus_stats(docs)
    rows = [
        ("statistic", "value"),
        ("email_threads", str(stats.thread_count)),
        ("email_messages", str(stats.message_count)),
        ("words", str(stats.word_count)),
        ("coreference_chains", str(stats.chain_count)),
        ("annotated_mentions", str(stats.mention_count)),
        ("annotated_pronouns", str(stats.pronoun_count)),
        ("longest_chain_length", str(stats.longest_chain)),
        ("average_chain_length", f"{stats.average_chain_length:.4f}"),
    ]
    _emit_table(rows, sys.stdout, args.pretty)
    return 0


def _cmd_correction_stats(args) -> int:
    from . import metrics

    pred_docs = _load_documents(Path(args.pred), args.format)
    gold_docs = _load_documents(Path(args.gold), args.format)
    gold_by_id = {d.thread.id: d for d in gold_docs}
    stats = metrics.CorrectionStats()
    for pred_doc in pred_docs:
        gold_doc = gold_by_id.get(pred_doc.thread.id)
        if gold_doc is None:
            raise ToolkitError(f"gold file has no document {pred_doc.thread.id!r}")
        stats = stats + metrics.correction_stats(pred_doc.mentions(), gold_doc.mentions())
    rows = [
        ("statistic", "value"),
        ("added_mentions", str(stats.added)),
        ("corrected_mentions", str(stats.corrected)),
        ("deleted_mentions", str(stats.deleted)),
        ("unchanged_mentions", str(stats.unchanged)),
        ("predicted_total", str(stats.predicted_total)),
        ("gold_total", str(stats.gold_total)),
        ("precision", f"{stats.precision:.4f}"),
        ("recall", f"{stats.recall:.4f}"),
        ("f1", f"{stats.f1:.4f}"),
    ]
    _emit_table(rows, sys.stdout, args.pretty)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _positive_int(value: str) -> int:
    number = int(value)
    if number <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return number


def _positive_float(value: str) -> float:
    number = float(value)
    if number <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threadcoref",
        description="Entity coreference toolkit for email threads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--pretty", action="store_true", help="align output for humans")
        p.add_argument("--jobs", type=_positive_int, default=1, help="worker processes")

    p = sub.add_parser("parse", help="parse thread files into native records")
    p.add_argument("--in", dest="input", required=True, help="thread file or directory")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--separators", help="separator marker phrases, one per line")
    p.add_argument("--footers", help="footer marker phrases, one per line")
    add_common(p)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("filter", help="classify threads into filtering categories")
    p.add_argument("--in", dest="input", required=True, help="thread directory or JSONL")
    p.add_argument("--exclude-fingerprints", help="file of fingerprints to exclude")
    p.add_argument("--report", required=True, help="TSV report output path")
    p.add_argument("--verdicts", help="optional per-thread verdict TSV")
    p.add_argument("--separators", help="separator marker phrases, one per line")
    p.add_argument("--footers", help="footer marker phrases, one per line")
    p.add_argument("--min-messages", type=_positive_int, default=4)
    p.add_argument("--hex-min-run", type=_positive_int, default=512)
    p.add_argument("--hex-min-fraction", type=_positive_float, default=0.95)
    p.add_argument("--stopword-min-fraction", type=_positive_float, default=0.02)
    p.add_argument("--language-min-tokens", type=_positive_int, default=50)
    add_common(p)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("features", help="add MI/SI columns and/or reorder by date")
    p.add_argument("--in", dest="input", required=True, help="native JSONL input")
    p.add_argument("--out", required=True, help="native JSONL output")
    p.add_argument("--mi", action="store_true", help="emit message-identifier columns")
    p.add_argument("--si", action="store_true", help="emit section-information columns")
    p.add_argument("--rev", action="store_true", help="reorder messages by date")
    p.add_argument(
        "--direction",
        choices=("ascending", "descending"),
        default="ascending",
        help="date order used by --rev",
    )
    add_common(p)
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("resolve", help="run a header baseline on gold mentions")
    p.add_argument("--baseline", choices=("hb1", "hb2"), required=True)
    p.add_argument("--mentions", choices=("gold",), default="gold")
    p.add_argument("--in", dest="input", required=True, help="native JSONL with gold chains")
    p.add_argument("--out", required=True, help="native JSONL with predicted chains")
    add_common(p)
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("score", help="score response chains against key chains")
    p.add_argument("--key", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--metrics", default="muc,b3,ceafe,lea")
    p.add_argument("--format", choices=("auto", "conll", "native"), default="auto")
    add_common(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("errors", help="categorize prediction errors")
    p.add_argument("--key", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--format", choices=("auto", "conll", "native"), default="auto")
    add_common(p)
    p.set_defaults(func=_cmd_errors)

    p = sub.add_parser("stats", help="corpus statistics over native records")
    p.add_argument("--in", dest="input", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("correction-stats", help="manual-correction bookkeeping")
    p.add_argument("--pred", required=True, help="predicted mentions (native JSONL)")
    p.add_argument("--gold", required=True, help="corrected gold mentions (native JSONL)")
    p.add_argument("--format", choices=("auto", "conll", "native"), default="auto")
    add_common(p)
    p.set_defaults(func=_cmd_correction_stats)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
