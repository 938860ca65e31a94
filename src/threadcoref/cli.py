"""Command-line entry point wiring the pipeline end to end.

Subcommands: parse, filter, features, resolve, score, errors, stats,
correction-stats. Reports are machine-parseable TSV with a fixed header
row (--pretty aligns them for humans). Given identical inputs and
configuration all outputs are deterministic byte for byte, including under
--jobs parallelism: work is distributed per thread but results are reduced
in input order. Every command reads its input one document at a time, and
runs with the cyclic garbage collector off.

Exit codes: 0 on success, 1 on data errors, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
from contextlib import contextmanager
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

# Only what every subcommand needs is imported here; each handler imports
# the modules it runs, so a command loads no code it does not use.
from . import serialization
from .model import AnnotatedDocument, ToolkitError, mention_order, utf8_input

if TYPE_CHECKING:
    from .filtering import FilterConfig, ThreadSummary
    from .model import EmailThread
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


def _iter_thread_files(root: Path) -> Iterator[tuple[Path, str]]:
    """Each thread file under ``root`` with its relative name, in sorted order.

    The files and the order are those of ``sorted(root.rglob("*"))``: symbolic
    links to files are listed and symbolic links to directories are not
    followed. The walk is lazy and reads one directory at a time, so it holds
    the entries of the directories on the current path, not the whole tree.
    """
    if root.is_file():
        yield root, root.name
    elif root.is_dir():
        yield from _walk_directory(str(root), "")


def _walk_directory(directory: str, prefix: str) -> Iterator[tuple[Path, str]]:
    # a directory listed in name order, each subdirectory walked where it sorts,
    # gives the order of sorted paths, which compare part by part
    try:
        with os.scandir(directory) as scan:
            entries = sorted(scan, key=attrgetter("name"))
    except PermissionError:  # rglob skips an unreadable directory
        return
    for entry in entries:
        if entry.is_file():
            yield Path(entry.path), prefix + entry.name
        elif entry.is_dir(follow_symlinks=False):
            yield from _walk_directory(entry.path, f"{prefix}{entry.name}/")


def _parse_text(text: str, rel: str, config: ParserConfig) -> EmailThread:
    from .parsing import RawThread, parse_thread

    return parse_thread(RawThread(id=rel, text=text, source_path=rel), config)


def _parse_one(args: tuple[str, str, ParserConfig]) -> str:
    doc = AnnotatedDocument(thread=_parse_text(*args))
    return serialization.write_native_string([doc])


def _summarize_one(args: tuple[str, str, ParserConfig, FilterConfig]) -> ThreadSummary:
    from .filtering import summarize_thread

    text, rel, config, filter_config = args
    return summarize_thread(_parse_text(text, rel, config), filter_config)


def _summarize_line(args: tuple[int, str, FilterConfig]) -> ThreadSummary:
    from .filtering import summarize_thread

    line_no, line, filter_config = args
    return summarize_thread(serialization.decode_line(line, line_no).thread, filter_config)


# Items sent to a worker at a time: each chunk costs the parent's pool threads a
# round trip, so small chunks slow a large input; a smaller input uses one worker.
_CHUNK_SIZE = 32


def _map_jobs(func, items: Iterable, jobs: int) -> Iterator:
    """``func`` of each item, lazily and in input order, in ``jobs`` processes."""
    if jobs <= 1:
        yield from map(func, items)
        return
    # imported here so that single-process runs never load multiprocessing
    from multiprocessing import Pool

    # the pool reads the items in a thread of its own and would drop the partial
    # chunk before an item that fails to be read: stop there, raise after it
    failed: list[Exception] = []

    def until_failure() -> Iterator:
        try:
            yield from items
        except Exception as exc:
            failed.append(exc)

    with Pool(jobs) as pool:
        yield from pool.imap(func, until_failure(), _CHUNK_SIZE)
    if failed:
        raise failed.pop()


def _read_documents(path: str, *, thread: bool) -> Iterator:
    """The format of ``path``, then its checked documents in file order, one at
    a time; only with ``thread`` does a document hold its thread.

    The format is "CoNLL" when the first nonblank line starts with ``#``, else
    "native JSONL": the CoNLL reader takes only blank and ``#`` lines before
    ``#begin document``, and a native record is a JSON object. The file is
    opened once and the lines read to tell its format are read again from
    memory, so a pipe reads as a file does.
    """
    with open(path, encoding="utf-8") as fp, utf8_input(path):
        head = []
        for line in fp:
            head.append(line)
            if line.strip():
                break
        lines = chain(head, fp)
        if head and head[-1].lstrip().startswith("#"):
            yield "CoNLL"
            yield from serialization.stream_conll_documents(lines, thread=thread)
        else:
            yield "native JSONL"
            for line_no, line in serialization.stream_native_lines(lines):
                yield serialization.decode_line(line, line_no, thread=thread)


def _paired_documents(
    first: tuple[str, str], second: tuple[str, str], *, first_thread: bool
) -> Iterator[tuple[AnnotatedDocument, AnnotatedDocument]]:
    """Each document of the first file with the document of its id in the second.

    ``first`` and ``second`` are (path, role) pairs; the role names the file
    in messages. Pairs come in the first file's order. While the ids agree,
    which is the normal case for a response made from its key, both files
    advance in lockstep. A second-file document read ahead of its partner
    waits in an index by id until it is asked for. Every record of both
    files is decoded once and checked, also those no partner asks for. A
    first-file document holds its thread only if ``first_thread``, a
    second-file document never: no command reads the thread of the file it
    pairs with, so what waits in the index is small.

    A repeated id on either side is an error: a scorer that paired it
    anyway would score some chains against the wrong document. So are files
    of two formats, which address mentions differently; they are compared
    when the second file is first read.
    """
    (first_path, first_role), (second_path, second_role) = first, second
    firsts = _read_documents(first_path, thread=first_thread)
    first_format = next(firsts)

    def read_seconds() -> Iterator[AnnotatedDocument]:
        docs = _read_documents(second_path, thread=False)
        second_format = next(docs)
        if first_format != second_format:
            raise ToolkitError(
                f"{first_role} file {first_path} is {first_format} but {second_role} file "
                f"{second_path} is {second_format}; both must be in one format"
            )
        yield from docs

    seconds = read_seconds()
    first_ids: set[str] = set()
    second_ids: set[str] = set()
    ahead: dict[str, AnnotatedDocument] = {}

    def check_second(doc: AnnotatedDocument) -> str:
        doc_id = doc.thread.id
        if doc_id in second_ids:
            raise ToolkitError(f"{second_role} file {second_path} repeats document id {doc_id!r}")
        second_ids.add(doc_id)
        return doc_id

    for doc in firsts:
        doc_id = doc.thread.id
        if doc_id in first_ids:
            raise ToolkitError(f"{first_role} file {first_path} repeats document id {doc_id!r}")
        first_ids.add(doc_id)
        if doc_id in ahead:
            yield doc, ahead.pop(doc_id)
            continue
        for other in seconds:
            if check_second(other) == doc_id:
                yield doc, other
                break
            ahead[other.thread.id] = other
        else:
            raise ToolkitError(f"{second_role} file has no document {doc_id!r}")
    for other in seconds:
        check_second(other)


@contextmanager
def _replacing(path: str) -> Iterator[IO[str]]:
    """A text file that takes the place of ``path`` only once the block succeeds.

    A command that fails part way through its input leaves ``path`` as it
    was. A path that names no regular file, such as /dev/stdout, is written
    in place. Otherwise a symbolic link is followed, so the file it names is
    replaced.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fp:
            yield fp
        return
    target = Path(os.path.realpath(path))
    partial_out = target.with_name(f".{target.name}.{os.getpid()}.partial")
    try:
        with open(partial_out, "w", encoding="utf-8") as fp:
            yield fp
        os.replace(partial_out, target)
    finally:
        partial_out.unlink(missing_ok=True)


def _parse_corpus_dir(
    path: Path, separators: Optional[str], footers: Optional[str], jobs: int, func, *extra
) -> Iterator:
    """``func`` of (text, relative path, parser config, *extra) for every
    thread file under ``path``, in file order; each file is read as it is needed."""
    from .parsing import ParserConfig

    if not path.exists():
        # the walk would yield nothing, and a mistyped path would pass as an empty corpus
        raise ToolkitError(f"input {path} does not exist")
    config = ParserConfig.from_files(separators, footers)
    payloads = (
        (file.read_text(encoding="utf-8", errors="replace"), rel, config, *extra)
        for file, rel in _iter_thread_files(path)
    )
    return _map_jobs(func, payloads, jobs)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_parse(args) -> int:
    lines = _parse_corpus_dir(Path(args.input), args.separators, args.footers, args.jobs, _parse_one)
    with _replacing(args.out) as fp:
        fp.writelines(lines)
    return 0


def _cmd_filter(args) -> int:
    from . import filtering

    config = filtering.FilterConfig(
        min_messages=args.min_messages,
        hex_min_run=args.hex_min_run,
        hex_min_fraction=args.hex_min_fraction,
        stopword_min_fraction=args.stopword_min_fraction,
        language_min_tokens=args.language_min_tokens,
    )
    path = Path(args.input)
    if path.is_dir():
        summarized = _parse_corpus_dir(
            path, args.separators, args.footers, args.jobs, _summarize_one, config
        )
    elif args.separators is not None or args.footers is not None:
        raise ToolkitError(f"--separators and --footers apply to a thread directory only, not to {path}")
    else:
        lines = serialization.iter_native_lines(path)
        summarized = _map_jobs(_summarize_line, ((n, line, config) for n, line in lines), args.jobs)
    summaries: dict[str, ThreadSummary] = {}
    for summary in summarized:
        # the corpus index keeps one copy per id, and no thread is compared with
        # its own id, so the copies of a repeated id would pass as distinct
        if summary.id in summaries:
            raise ToolkitError(f"input file {path} repeats document id {summary.id!r}")
        summaries[summary.id] = summary
    exclusion = (
        filtering.ExclusionSet.from_file(args.exclude_fingerprints)
        if args.exclude_fingerprints
        else filtering.ExclusionSet()
    )
    verdicts, report = filtering.filter_summaries(list(summaries.values()), exclusion, config)
    rows = [("category", "count")]
    rows += [(cat.value, str(count)) for cat, count in report.counts]
    rows.append(("total", str(report.total)))
    with _replacing(args.report) as fp:
        _emit_table(rows, fp, args.pretty)
    if args.verdicts:
        with _replacing(args.verdicts) as fp:
            vrows = [("thread_id", "category", "detail")]
            vrows += [(v.thread_id, v.category.value, v.detail) for v in verdicts]
            _emit_table(vrows, fp, args.pretty)
    return 0


def _cmd_features(args) -> int:
    from .features import reverse_document

    columns = [name for name, wanted in (("mi", args.mi), ("si", args.si)) if wanted]
    with _replacing(args.out) as fp:
        for _, doc in serialization.iter_native(args.input):
            if args.rev:
                doc = reverse_document(doc, descending=args.rev == "descending")
            serialization.write_native((doc,), fp, features=columns)
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
    lines = serialization.iter_native_lines(args.input)
    payloads = ((line_no, line, args.baseline) for line_no, line in lines)
    with _replacing(args.out) as fp:
        fp.writelines(_map_jobs(_resolve_one, payloads, args.jobs))
    return 0


def _cmd_score(args) -> int:
    from . import metrics

    requested = [m.strip() for m in args.metrics.split(",") if m.strip()]
    unknown = [m for m in requested if m not in _METRIC_NAMES]
    if unknown:
        raise ToolkitError(f"unknown metric(s): {', '.join(unknown)}")
    pairs = _paired_documents((args.key, "key"), (args.response, "response"), first_thread=False)
    report = metrics.score_documents((k.chains, r.chains) for k, r in pairs)
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

    total = ErrorReport()
    for key_doc, response_doc in _paired_documents(
        (args.key, "key"), (args.response, "response"), first_thread=True
    ):
        total = total + categorize_errors(key_doc.thread, key_doc.chains, response_doc.chains)
    rows = [("category", "count")]
    rows += [(label, str(getattr(total, attr))) for label, attr in _ERROR_ROWS]
    _emit_table(rows, sys.stdout, args.pretty)
    return 0


def _cmd_stats(args) -> int:
    from . import metrics

    stats = metrics.corpus_stats(doc for _, doc in serialization.iter_native(args.input))
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

    stats = metrics.CorrectionStats()
    pairs = _paired_documents((args.pred, "pred"), (args.gold, "gold"), first_thread=False)
    for pred_doc, gold_doc in pairs:
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

    # only the commands that write tables take --pretty, and only those that
    # run workers take --jobs
    def add_pretty(p):
        p.add_argument("--pretty", action="store_true", help="align output for humans")

    def add_jobs(p):
        p.add_argument("--jobs", type=_positive_int, default=1, help="worker processes")

    p = sub.add_parser("parse", help="parse thread files into native records")
    p.add_argument("--in", dest="input", required=True, help="thread file or directory")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--separators", help="separator marker phrases, one per line")
    p.add_argument("--footers", help="footer marker phrases, one per line")
    add_jobs(p)
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
    add_pretty(p)
    add_jobs(p)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("features", help="add MI/SI columns and/or reorder by date")
    p.add_argument("--in", dest="input", required=True, help="native JSONL input")
    p.add_argument("--out", required=True, help="native JSONL output")
    p.add_argument("--mi", action="store_true", help="emit message-identifier columns")
    p.add_argument("--si", action="store_true", help="emit section-information columns")
    p.add_argument(
        "--rev",
        nargs="?",
        const="ascending",
        choices=("ascending", "descending"),
        help="reorder messages by date, ascending unless given",
    )
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("resolve", help="run a header baseline on gold mentions")
    p.add_argument("--baseline", choices=("hb1", "hb2"), required=True)
    p.add_argument("--mentions", choices=("gold",), default="gold")
    p.add_argument("--in", dest="input", required=True, help="native JSONL with gold chains")
    p.add_argument("--out", required=True, help="native JSONL with predicted chains")
    add_jobs(p)
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("score", help="score response chains against key chains")
    p.add_argument("--key", required=True)
    p.add_argument("--response", required=True)
    p.add_argument("--metrics", default="muc,b3,ceafe,lea")
    add_pretty(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("errors", help="categorize prediction errors")
    p.add_argument("--key", required=True)
    p.add_argument("--response", required=True)
    add_pretty(p)
    p.set_defaults(func=_cmd_errors)

    p = sub.add_parser("stats", help="corpus statistics over native records")
    p.add_argument("--in", dest="input", required=True)
    add_pretty(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("correction-stats", help="manual-correction bookkeeping")
    p.add_argument("--pred", required=True, help="predicted mentions (native JSONL)")
    p.add_argument("--gold", required=True, help="corrected gold mentions (native JSONL)")
    add_pretty(p)
    p.set_defaults(func=_cmd_correction_stats)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # what a command builds holds no reference cycle: a collector pass would only walk it
    enabled = gc.isenabled()
    gc.disable()
    try:
        status = args.func(args)
        # a closed stdout shows here, not in the flush at interpreter exit
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader went away: send what is still buffered to devnull, so
        # the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ToolkitError, OSError) as exc:
        # BrokenPipeError is an OSError too: the clause above must come first
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
