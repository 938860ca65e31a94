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
import io
import os
import sys
from codecs import BOM_UTF8
from contextlib import contextmanager
from itertools import chain, islice, starmap
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Optional, Sequence

# Only the model and its record writer, which every command needs, load here;
# each handler imports the modules it runs, so no command loads unused code.
from .model import AnnotatedDocument, Section, ToolkitError, record_line, utf8_input

if TYPE_CHECKING:
    from .filtering import ThreadSummary

_METRIC_NAMES = ("muc", "b3", "ceafe", "lea")


def _stdout() -> IO[str]:
    """``sys.stdout``, which is None in a process started with it closed: a
    command that writes there asks for it before it reads any input."""
    if sys.stdout is None:
        raise ToolkitError("standard output is closed")
    return sys.stdout


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


def _walk_directory(directory: str, prefix: str) -> Iterator[tuple[Path, str]]:
    """Each file under ``directory`` with ``prefix`` and its path under it.

    The files and the order are those of ``sorted(Path(directory).rglob("*"))``:
    symbolic links to files are listed and symbolic links to directories are
    not followed. The walk is lazy and reads one directory at a time, so it
    holds the entries of the directories on the current path, not the whole tree.
    """
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


def _parse_text(thread: tuple[str, str]) -> dict:
    """The native record of a thread file's (text, name), with no chains; no token is built."""
    from .parsing import RawThread, parse_record

    text, name = thread
    return parse_record(RawThread(id=name, text=text, source_path=name))


def _parse_one(thread: tuple[str, str]) -> str:
    return record_line(_parse_text(thread))


def _summarize_one(thread: tuple[str, str]) -> ThreadSummary:
    from .filtering import summarize_record

    return summarize_record(_parse_text(thread))


def _summarize_line(args: tuple[int, str]) -> ThreadSummary:
    from . import serialization
    from .filtering import summarize_record

    line_no, line = args
    return summarize_record(serialization.decode_record(line, line_no)[0])


# Items sent to a worker at a time: each chunk costs the parent's pool threads a
# round trip, so small chunks slow a large input. An input of one chunk or less
# would keep one worker busy while the parent waits, so it starts no pool.
_CHUNK_SIZE = 32


def _outcome(func, item) -> tuple:
    """(``func(item)``, None), or (None, the exception it raised)."""
    try:
        return func(item), None
    except Exception as exc:
        return None, exc


def _map_jobs(func, items: Iterable, jobs: int) -> Iterator:
    """``func`` of each item, lazily and in input order, in ``jobs`` processes.

    An item's exception is raised where its result would come, after the
    results of the items before it, as in one process. Items that make at
    most one chunk are run in this process.
    """
    if jobs <= 1:
        yield from map(func, items)
        return
    # the pool reads the items in a thread of its own and would drop the partial
    # chunk before an item that fails to be read: stop there, raise after it
    failed: list[Exception] = []

    def until_failure() -> Iterator:
        try:
            yield from items
        except Exception as exc:
            failed.append(exc)

    # one wrapper only: a second over the same items would close them when freed
    source = until_failure()
    head = list(islice(source, _CHUNK_SIZE + 1))
    if len(head) <= _CHUNK_SIZE:
        yield from map(func, head)
    else:
        # imported here so that runs with no pool never load multiprocessing
        from functools import partial
        from multiprocessing import Pool

        # a worker runs a chunk as one call, which an exception would end for the
        # whole chunk, so each item's exception comes back as its outcome
        with Pool(jobs) as pool:
            for result, exc in pool.imap(partial(_outcome, func), chain(head, source), _CHUNK_SIZE):
                if exc is not None:
                    raise exc
                yield result
    if failed:
        raise failed.pop()


# What an input path can hold, named as messages name it
_DIRECTORY, _THREAD, _JSONL, _CONLL = "a thread directory", "a thread file", "native JSONL", "CoNLL"


def _open_input(path: str, role: str, kinds: tuple[str, ...]) -> Iterator:
    """What ``path`` holds, then its content, read from one open.

    A directory holds thread files. Any other path is one file, and its
    first nonblank line, after a UTF-8 byte order mark and leading
    whitespace, tells what it holds: ``{`` starts native JSONL and ``#``
    CoNLL. A file with no nonblank line, or one named ``*.jsonl``, is native
    JSONL, and any other file is one thread file. The lines read to tell
    this are read again from memory, so a pipe reads as a file does.

    The content is (text, name) pairs of thread files, in the order of
    sorted paths; the numbered nonblank lines of native JSONL; or each
    document of CoNLL, whose thread holds no message, with the words of each
    of its sentences and the number of its ``#begin document`` line. A path
    that holds none of ``kinds`` is an error naming the ``role``, the path
    and what it holds, which for a file with no nonblank line is "empty".
    """

    def checked(kind: str, held: Optional[str] = None) -> str:
        if kind not in kinds:
            wanted = " or ".join(filter(None, (", ".join(kinds[:-1]), kinds[-1])))
            raise ToolkitError(f"{role} {path} is {held or kind}, not {wanted}")
        return kind

    if os.path.isdir(path):
        yield checked(_DIRECTORY)
        for file, name in _walk_directory(path, ""):
            yield _thread_text(file.read_bytes()), name
        return
    try:
        fp = open(path, "rb")
    except FileNotFoundError:
        raise ToolkitError(f"{role} {path} does not exist") from None
    with fp:
        # read again from this list, so that a pipe reads as a file does
        head = []
        for line in fp:
            head.append(line)
            if line.strip():
                break
        first = head[-1].removeprefix(BOM_UTF8).lstrip() if head else b""
        if first.startswith(b"#"):
            kind = _CONLL
        elif first.startswith(b"{") or not first or path.endswith(".jsonl"):
            kind = _JSONL
        else:
            kind = _THREAD
        yield checked(kind, None if first else "empty")
        if kind == _THREAD:
            yield _thread_text(b"".join(head) + fp.read()), Path(path).name
            return
        from . import serialization

        with utf8_input(path), io.TextIOWrapper(fp, encoding="utf-8") as rest:
            # newline=None reads "\r\n" and "\r" as "\n", as the rest is read
            lines = chain(io.StringIO(b"".join(head).decode("utf-8"), newline=None), rest)
            if kind == _CONLL:
                yield from serialization.stream_conll_documents(lines)
            else:
                yield from serialization.stream_native_lines(lines)


def _thread_text(data: bytes) -> str:
    """The text of a thread file's bytes: UTF-8 with invalid bytes replaced,
    and each "\r\n" and "\r" made "\n", as a file read in text mode gives it."""
    return data.decode("utf-8", "replace").replace("\r\n", "\n").replace("\r", "\n")


def _checked(items: Iterable, role: str, path: str, id_of) -> Iterator:
    """Each of ``items``, the records of the ``role`` file at ``path``, in order.

    ``id_of`` gives a record's document id. A second record of one id is an
    error: every score and count is summed per thread, so a copy would count
    twice, and a pair command would score some chains against the wrong
    document. A record the file's reader rejects, here or in a worker
    process, is an error that names the file.
    """
    seen: set[str] = set()
    try:
        for item in items:
            doc_id = id_of(item)
            if doc_id in seen:
                raise ToolkitError(f"{role} file {path} repeats document id {doc_id!r}")
            seen.add(doc_id)
            yield item
    except ToolkitError as exc:
        # imported only here, so that a run of thread files loads no reader
        from . import serialization

        if isinstance(exc, (serialization.NativeSchemaError, serialization.MalformedColumn)):
            raise ToolkitError(f"{role} file {path}: {exc}") from None
        raise


def _documents(path: str, role: str, kinds: tuple[str, ...], decode, conll) -> Iterator:
    """What ``path`` holds, then each of its documents, checked, in file
    order: ``decode(line, line_no)`` of a native record, or ``conll(document,
    sentence words, line number)`` of a CoNLL document, a tuple that holds the
    threadless document second. ``role`` names the path in messages: "<role> file"."""
    content = _open_input(path, role, kinds)
    kind = next(content)
    yield kind
    if kind == _JSONL:
        content = (decode(line, line_no) for line_no, line in content)
    else:
        content = starmap(conll, content)
    yield from _checked(content, role.removesuffix(" file"), path, lambda item: item[1].thread.id)


# the section code of every CoNLL token
_BODY = Section.BODY.code


def _paired_documents(first: tuple[str, str], second: tuple[str, str]) -> Iterator[tuple[tuple, tuple]]:
    """Each document of the first file with the document of its id in the
    second, as ((first token, document, sentence lengths), (line number, document)).

    ``first`` and ``second`` are (path, role) pairs; the role names the file
    in messages. Pairs come in the first file's order. While the ids agree,
    which is the normal case for a response made from its key, both files
    advance in lockstep. A second-file document read ahead of its partner
    waits in an index by id until it is asked for. Every record of both
    files is checked once, also those no partner asks for. No document
    holds its thread, so what waits in the index is small. The first token
    is a function that gives a mention's first token as its text and
    section code, read from the parsed JSON of a native record or from the
    words of a CoNLL document, whose tokens are all body tokens; the lengths
    are each message's list of sentence lengths. The line number of a CoNLL
    document is that of its ``#begin document`` line.

    A native line of the second file that repeats the bytes of the first
    file's latest line up to their top-level ``,"chains":`` has only its
    chains read (``serialization.decode_repeat``). It holds that line's id,
    so it can only be that record's partner.

    Files of two formats, which address mentions differently, are an error;
    they are compared when the second file is first read.
    """
    from . import serialization

    (first_path, first_role), (second_path, second_role) = first, second
    ahead: dict[str, tuple] = {}
    # the line, record, document and lengths of the first file's latest record
    latest: Optional[tuple] = None

    def decode_first(line: str, line_no: int) -> tuple:
        nonlocal latest
        latest = (line, *serialization.decode_record(line, line_no))
        _, record, doc, lengths = latest
        return serialization.record_first_token(record), doc, lengths

    def conll_first(doc: AnnotatedDocument, sentences: list[list[str]], _) -> tuple:
        return (lambda mention: (sentences[mention[1]][mention[2]], _BODY)), doc, [[len(s) for s in sentences]]

    def decode_second(line: str, line_no: int) -> tuple:
        doc = serialization.decode_repeat(line, line_no, latest) if latest else None
        return line_no, doc or serialization.decode_record(line, line_no)[1]

    firsts = _documents(first_path, f"{first_role} file", (_JSONL, _CONLL), decode_first, conll_first)
    first_format = next(firsts)

    def read_seconds() -> Iterator[tuple]:
        docs = _documents(second_path, f"{second_role} file", (_JSONL, _CONLL), decode_second,
                          lambda doc, _, line_no: (line_no, doc))
        second_format = next(docs)
        if first_format != second_format:
            raise ToolkitError(
                f"{first_role} file {first_path} is {first_format} but {second_role} file "
                f"{second_path} is {second_format}; both must be in one format"
            )
        yield from docs

    seconds = read_seconds()
    for item in firsts:
        doc_id = item[1].thread.id
        if doc_id in ahead:
            yield item, ahead.pop(doc_id)
            continue
        for other in seconds:
            if other[1].thread.id == doc_id:
                yield item, other
                break
            ahead[other[1].thread.id] = other
        else:
            raise ToolkitError(f"{second_role} file {second_path} has no document {doc_id!r}")
    # what is left of the second file has no partner
    for _ in seconds:
        pass


@contextmanager
def _replacing(path: str) -> Iterator[IO[str]]:
    """A text file that takes the place of ``path`` only once the block succeeds.

    A command that fails part way through its input leaves ``path`` as it
    was. A path that names no regular file, such as /dev/stdout, is written
    in place. Otherwise a symbolic link is followed, so the file it names is
    replaced. A file that cannot be made beside it is an error naming ``path``.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8") as fp:
            yield fp
        return
    target = Path(os.path.realpath(path))
    partial_out = target.with_name(f".{target.name}.{os.getpid()}.partial")
    try:
        fp = open(partial_out, "w", encoding="utf-8")
    except OSError as exc:
        raise ToolkitError(f"cannot write {path}: {exc.strerror}") from None
    try:
        with fp:
            yield fp
        os.replace(partial_out, target)
    finally:
        partial_out.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_parse(args) -> int:
    threads = _open_input(args.input, "input", (_DIRECTORY, _THREAD))
    next(threads)
    lines = _map_jobs(_parse_one, threads, args.jobs)
    with _replacing(args.out) as fp:
        fp.writelines(lines)
    return 0


def _cmd_filter(args) -> int:
    from . import filtering

    # a wrong exclusion file is an error before the corpus is read
    exclusion = (
        filtering.ExclusionSet.from_file(args.exclude_fingerprints)
        if args.exclude_fingerprints
        else filtering.ExclusionSet()
    )
    content = _open_input(args.input, "input", (_DIRECTORY, _THREAD, _JSONL))
    summarize = _summarize_line if next(content) == _JSONL else _summarize_one
    summarized = _map_jobs(summarize, content, args.jobs)
    summaries = list(_checked(summarized, "input", args.input, attrgetter("id")))
    verdicts, report = filtering.filter_summaries(summaries, exclusion, args.min_messages)
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
    from . import serialization
    from .features import MissingDate, features_line

    columns = [name for name, wanted in (("mi", args.mi), ("si", args.si)) if wanted]
    lines = _open_input(args.input, "input", (_JSONL,))
    next(lines)
    # a record's id is checked before its dates are read
    records = ((line, *serialization.decode_record(line, line_no)) for line_no, line in lines)
    with _replacing(args.out) as fp:
        for line, record, doc, _ in _checked(records, "input", args.input, lambda item: item[2].thread.id):
            try:
                fp.write(features_line(line, record, doc.chains, columns, args.rev))
            except MissingDate as exc:
                raise ToolkitError(f"input file {args.input}: document {doc.thread.id!r}: {exc}") from None
    return 0


def _resolve_one(payload: tuple[int, str, str]) -> tuple[str, str]:
    """The id and output line of one input line: the record is checked in
    full, but only the sentences that hold a mention build their tokens."""
    from . import serialization
    from .baselines import _resolve

    line_no, line, baseline = payload
    record, doc, _ = serialization.decode_record(line, line_no)
    resolution = _resolve(
        lambda mi, si: serialization.record_sentence(record, mi, si),
        len(record["messages"]),
        doc.mentions(),
        plural_as_thread_chain=baseline == "hb2",
    )
    return doc.thread.id, serialization.replace_chains(line, record, resolution.chains)


def _cmd_resolve(args) -> int:
    lines = _open_input(args.input, "input", (_JSONL,))
    next(lines)
    payloads = ((line_no, line, args.baseline) for line_no, line in lines)
    resolved = _checked(_map_jobs(_resolve_one, payloads, args.jobs), "input", args.input, itemgetter(0))
    with _replacing(args.out) as fp:
        fp.writelines(line for _, line in resolved)
    return 0


def _cmd_score(args) -> int:
    from . import metrics

    out = _stdout()
    requested = [m.strip() for m in args.metrics.split(",") if m.strip()]
    if not requested:
        raise ToolkitError("--metrics names no metric")
    unknown = [m for m in requested if m not in _METRIC_NAMES]
    if unknown:
        raise ToolkitError(f"unknown metric(s): {', '.join(unknown)}")
    pairs = _paired_documents((args.key, "key"), (args.response, "response"))
    report = metrics.score_documents((key.chains, response.chains) for (_, key, _), (_, response) in pairs)
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
    _emit_table([header, values], out, args.pretty)
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
    from . import serialization
    from .errors import ErrorReport, _categorize

    out = _stdout()
    total = ErrorReport()
    for (first_token, key_doc, lengths), (line_no, response_doc) in _paired_documents(
        (args.key, "key"), (args.response, "response")
    ):
        # the categorizer reads the key's token at each response mention
        stray = serialization.first_stray_mention(response_doc.mentions(), lengths)
        if stray is not None:
            raise ToolkitError(
                f"response file {args.response}: line {line_no}: document {key_doc.thread.id!r}: "
                f"mention at {stray.location} addresses no token of key file {args.key}"
            )
        total = total + _categorize(first_token, key_doc.chains, response_doc.chains)
    rows = [("category", "count")]
    rows += [(label, str(getattr(total, attr))) for label, attr in _ERROR_ROWS]
    _emit_table(rows, out, args.pretty)
    return 0


def _cmd_stats(args) -> int:
    from . import metrics, serialization

    out = _stdout()
    lines = _open_input(args.input, "input", (_JSONL,))
    next(lines)
    records = (serialization.decode_record(line, line_no) for line_no, line in lines)
    checked = _checked(records, "input", args.input, lambda item: item[1].thread.id)
    stats = metrics.tally_corpus(serialization.record_counts(record, doc) for record, doc, _ in checked)
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
    _emit_table(rows, out, args.pretty)
    return 0


def _cmd_correction_stats(args) -> int:
    from . import metrics

    out = _stdout()
    stats = metrics.CorrectionStats()
    pairs = _paired_documents((args.pred, "pred"), (args.gold, "gold"))
    for (_, pred_doc, _), (_, gold_doc) in pairs:
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
    _emit_table(rows, out, args.pretty)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:  # not an integer: refused below with the same message
        number = 0
    if number <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value!r}")
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
    add_jobs(p)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("filter", help="classify threads into filtering categories")
    p.add_argument("--in", dest="input", required=True, help="thread directory, thread file or JSONL")
    p.add_argument("--exclude-fingerprints", help="file of fingerprints to exclude")
    p.add_argument("--report", required=True, help="TSV report output path")
    p.add_argument("--verdicts", help="optional per-thread verdict TSV")
    p.add_argument("--min-messages", type=_positive_int, default=4)
    add_pretty(p)
    add_jobs(p)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("features", help="add MI/SI columns and/or reorder by date")
    p.add_argument("--in", dest="input", required=True, help="native JSONL input")
    p.add_argument("--out", required=True, help="native JSONL output")
    p.add_argument("--mi", action="store_true", help="emit message-identifier columns")
    p.add_argument("--si", action="store_true", help="emit section-information columns")
    p.add_argument("--rev", action="store_true", help="reorder messages by date, oldest first")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("resolve", help="run a header baseline on gold mentions")
    p.add_argument("--baseline", choices=("hb1", "hb2"), required=True)
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
        # a failing stdout shows here, not in the flush at interpreter exit;
        # stdout is None in a process started with it closed
        if sys.stdout is not None:
            try:
                sys.stdout.flush()
            except OSError:
                # what is still buffered goes to devnull, so that the flush
                # at exit cannot fail again
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                raise
        return status
    except BrokenPipeError:
        # the reader went away: nothing to say
        return 1
    except (ToolkitError, OSError) as exc:
        # BrokenPipeError is an OSError too: the clause above must come first
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    status = main()
    # the process is about to end and the OS takes back its memory: frozen,
    # the heap is neither collected nor freed object by object at exit
    gc.freeze()
    sys.exit(status)
