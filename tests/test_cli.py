import argparse
import ast
import copy
import gc
import io
import json
import multiprocessing
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import oracles
from conftest import CORPUS10_DIR, DATA_DIR, derive_mentions, synthetic_document
from threadcoref import cli, serialization
from threadcoref.cli import main
from threadcoref.errors import ErrorReport
from threadcoref.features import message_identifier, reverse_document, section_info
from threadcoref.filtering import fingerprint_message
from threadcoref.metrics import corpus_stats
from threadcoref.model import AnnotatedDocument, CoreferenceChain, Mention, ToolkitError, mention_text
from threadcoref.serialization import (
    read_conll_documents, read_native, write_conll, write_conll_documents, write_native, write_native_string,
)


@pytest.fixture(autouse=True)
def small_chunks(monkeypatch):
    """Chunks of two items, so that the small inputs of these tests make
    several chunks and --jobs 2 runs a pool of workers, as a large input does."""
    monkeypatch.setattr(cli, "_CHUNK_SIZE", 2)


@pytest.fixture()
def parsed_corpus(tmp_path):
    out = tmp_path / "corpus.jsonl"
    code = main(["parse", "--in", str(CORPUS10_DIR), "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture()
def gold_corpus(tmp_path):
    """Synthetic gold-annotated corpus written as native records."""
    rng = random.Random(2024)
    docs = []
    for _ in range(8):
        doc, _ = synthetic_document(rng)
        docs.append(doc)
    path = tmp_path / "gold.jsonl"
    with open(path, "w", encoding="utf-8") as fp:
        write_native(docs, fp)
    return path


class TestParse:
    def test_missing_input_exits_1(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        missing = tmp_path / "no-such-maildir"
        assert main(["parse", "--in", str(missing), "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: input {missing} does not exist\n")
        assert not out.exists()

    def test_parses_whole_directory(self, parsed_corpus):
        docs = read_native(parsed_corpus.read_text(encoding="utf-8"))
        assert len(docs) == 10
        assert [d.thread.id for d in docs] == sorted(d.thread.id for d in docs)

    def test_pipe_is_one_thread_file(self, tmp_path):
        out = tmp_path / "out.jsonl"
        done = subprocess.run(
            [sys.executable, "-m", "threadcoref.cli", "parse", "--in", "/dev/stdin", "--out", str(out)],
            input=(DATA_DIR / "example1.txt").read_bytes(), capture_output=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
        )
        assert done.returncode == 0, done.stderr
        golden = (DATA_DIR / "golden" / "example1.jsonl").read_text(encoding="utf-8")
        assert out.read_text(encoding="utf-8") == golden.replace('"example1.txt"', '"stdin"')

    def test_single_file(self, tmp_path):
        out = tmp_path / "one.jsonl"
        code = main(["parse", "--in", str(DATA_DIR / "example1.txt"), "--out", str(out)])
        assert code == 0
        docs = read_native(out.read_text(encoding="utf-8"))
        assert len(docs) == 1
        assert len(docs[0].thread.messages) == 1

    def test_unparseable_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("no headers at all\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["parse", "--in", str(bad), "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_deterministic_and_parallel_identical(self, tmp_path):
        outs = []
        for jobs in ("1", "1", "4"):
            out = tmp_path / f"c{len(outs)}.jsonl"
            main(["parse", "--in", str(CORPUS10_DIR), "--out", str(out), "--jobs", jobs])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]


class TestGoldenParse:
    """parse output on the shipped fixtures, byte for byte, under both job counts.

    The golden files hold the output of the parser that ran the four stage
    functions one after another on each message slice."""

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("source, golden", [
        (CORPUS10_DIR, "corpus10.jsonl"),
        (DATA_DIR / "example1.txt", "example1.jsonl"),
        (Path(__file__).parents[1] / "demos" / "data", "demos.jsonl"),
    ], ids=["corpus10", "example1", "demos"])
    def test_same_bytes(self, tmp_path, source, golden, jobs):
        out = tmp_path / "out.jsonl"
        assert main(["parse", "--in", str(source), "--out", str(out), "--jobs", jobs]) == 0
        assert out.read_bytes() == (DATA_DIR / "golden" / golden).read_bytes()


class TestFilter:
    def test_report_matches_construction(self, tmp_path, corpus10_threads):
        hotel = next(t for t in corpus10_threads if t.id == "hotel.txt")
        fingerprints = tmp_path / "exclude.txt"
        fingerprints.write_text(
            "".join(fingerprint_message(m) + "\n" for m in hotel.messages),
            encoding="utf-8",
        )
        report = tmp_path / "report.tsv"
        verdicts = tmp_path / "verdicts.tsv"
        code = main(
            [
                "filter",
                "--in", str(CORPUS10_DIR),
                "--exclude-fingerprints", str(fingerprints),
                "--report", str(report),
                "--verdicts", str(verdicts),
            ]
        )
        assert code == 0
        rows = dict(
            line.split("\t") for line in report.read_text().splitlines()[1:]
        )
        assert rows == {
            "exclusion_overlap": "1",
            "duplicate": "2",
            "no_content": "1",
            "invalid_attachment": "1",
            "non_english": "1",
            "too_short": "0",
            "accepted": "4",
            "total": "10",
        }
        vlines = verdicts.read_text().splitlines()
        assert vlines[0] == "thread_id\tcategory\tdetail"
        assert len(vlines) == 11

    def test_directory_and_parsed_records_same_verdicts(self, parsed_corpus, tmp_path):
        # a directory is summarized in the workers, parsed records while they are read
        outs = []
        for source, jobs in ((CORPUS10_DIR, "1"), (CORPUS10_DIR, "2"), (parsed_corpus, "1")):
            report, verdicts = tmp_path / f"r{len(outs)}.tsv", tmp_path / f"v{len(outs)}.tsv"
            assert main(["filter", "--in", str(source), "--report", str(report),
                         "--verdicts", str(verdicts), "--jobs", jobs, "--min-messages", "2"]) == 0
            outs.append((report.read_bytes(), verdicts.read_bytes()))
        assert outs[0] == outs[1] == outs[2]
        assert outs[0][1].count(b"\n") == 11

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_thread_file_same_verdicts_as_its_directory(self, tmp_path, jobs):
        directory = tmp_path / "threads"
        directory.mkdir()
        (directory / "example1.txt").write_bytes((DATA_DIR / "example1.txt").read_bytes())
        outs = []
        for source in (DATA_DIR / "example1.txt", directory):
            report, verdicts = tmp_path / f"r{len(outs)}.tsv", tmp_path / f"v{len(outs)}.tsv"
            assert main(["filter", "--in", str(source), "--report", str(report), "--verdicts", str(verdicts),
                         "--min-messages", "1", "--jobs", jobs]) == 0
            outs.append((report.read_bytes(), verdicts.read_bytes()))
        assert outs[0] == outs[1]
        assert outs[0][1] == b"thread_id\tcategory\tdetail\nexample1.txt\taccepted\t\n"

    def test_thread_file_read_as_in_a_directory(self, tmp_path):
        # CRLF line ends, a leading blank line and invalid UTF-8 in the body, read as parse reads them
        text = (DATA_DIR / "example1.txt").read_bytes().replace(b"\n", b"\r\n").replace(b"Gloria", b"Glo\xffria")
        directory = tmp_path / "threads"
        directory.mkdir()
        thread_file = directory / "t.txt"
        thread_file.write_bytes(b"\r\n" + text)
        outs = []
        # the standard input is a pipe, whose first lines can be read only once
        for source in (thread_file, directory, "/dev/stdin"):
            verdicts = tmp_path / f"v{len(outs)}.tsv"
            done = subprocess.run(
                [sys.executable, "-m", "threadcoref.cli", "filter", "--in", str(source), "--report",
                 str(tmp_path / "r.tsv"), "--verdicts", str(verdicts), "--min-messages", "1"],
                input=thread_file.read_bytes(), capture_output=True,
                env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            )
            assert done.returncode == 0, done.stderr
            outs.append(verdicts.read_text(encoding="utf-8"))
        assert outs[0] == outs[1] == outs[2].replace("stdin", "t.txt")
        assert outs[0].splitlines()[1].startswith("t.txt\taccepted")

    @pytest.mark.parametrize("content", ["", "\n \r\n"])
    def test_blank_file_is_an_empty_jsonl_file(self, tmp_path, content):
        source = tmp_path / "empty.jsonl"
        source.write_text(content, encoding="utf-8")
        report = tmp_path / "r.tsv"
        assert main(["filter", "--in", str(source), "--report", str(report)]) == 0
        assert report.read_text().splitlines()[-1] == "total\t0"

    @pytest.mark.parametrize("name, first, error", [
        ("bom.txt", b"\xef\xbb\xbf", "error: line 1: invalid JSON: Unexpected UTF-8 BOM"),
        ("damaged.jsonl", b"garbage\n", "error: line 1: invalid JSON: Expecting value"),
    ])
    def test_broken_jsonl_reports_its_record(self, gold_corpus, tmp_path, capsys, name, first, error):
        # a byte order mark before the first record, or a ".jsonl" name, keeps a file JSONL
        source = tmp_path / name
        source.write_bytes(first + gold_corpus.read_bytes())
        assert main(["filter", "--in", str(source), "--report", str(tmp_path / "r.tsv")]) == 1
        assert capsys.readouterr().err.startswith(error.replace("error: ", f"error: input file {source}: "))

    def test_jsonl_line_numbers_count_every_line_end(self, gold_corpus, tmp_path, capsys):
        # "\r" ends a line in a text file; the lines read to tell the format keep that count
        source = tmp_path / "bad.jsonl"
        source.write_bytes(b"\r\n\r" + b'{"id": 5}\n' + gold_corpus.read_bytes())
        assert main(["filter", "--in", str(source), "--report", str(tmp_path / "r.tsv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: input file {source}: line 3: ")

    def test_jobs_runs_workers_on_parsed_records(self, gold_corpus, tmp_path, monkeypatch):
        from threadcoref import cli

        job_counts = []
        map_jobs = cli._map_jobs

        def spy(func, items, jobs):
            job_counts.append(jobs)
            return map_jobs(func, items, jobs)

        monkeypatch.setattr(cli, "_map_jobs", spy)
        outs = []
        for jobs in ("1", "2"):
            report, verdicts = tmp_path / f"r{jobs}.tsv", tmp_path / f"v{jobs}.tsv"
            assert main(["filter", "--in", str(gold_corpus), "--report", str(report),
                         "--verdicts", str(verdicts), "--jobs", jobs, "--min-messages", "2"]) == 0
            outs.append((report.read_bytes(), verdicts.read_bytes()))
        assert job_counts == [1, 2]
        assert outs[0] == outs[1]
        assert outs[0][1].count(b"\n") == 9

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_repeated_document_id_exits_1(self, gold_corpus, tmp_path, capsys, jobs):
        # the corpus index would keep one copy, and the copies are never
        # compared with each other, so both would be accepted
        first = gold_corpus.read_text(encoding="utf-8").splitlines(keepends=True)[0]
        repeated = tmp_path / "repeated.jsonl"
        repeated.write_text(first + first, encoding="utf-8")
        report = tmp_path / "report.tsv"
        assert main(["filter", "--in", str(repeated), "--report", str(report), "--jobs", jobs]) == 1
        doc_id = json.loads(first)["id"]
        assert capsys.readouterr().err == (
            f"error: input file {repeated} repeats document id {doc_id!r}\n")
        assert not report.exists()

    @pytest.mark.parametrize("kind", ["verdicts", "corpus"])
    def test_exclusion_file_of_another_kind_exits_1(self, gold_corpus, tmp_path, capsys, kind):
        # read as holding no fingerprint, either would exclude nothing
        verdicts = tmp_path / "v.tsv"
        assert main(["filter", "--in", str(gold_corpus), "--report", str(tmp_path / "r0.tsv"),
                     "--verdicts", str(verdicts)]) == 0
        exclusion = verdicts if kind == "verdicts" else gold_corpus
        report = tmp_path / "report.tsv"
        assert main(["filter", "--in", str(gold_corpus), "--report", str(report),
                     "--exclude-fingerprints", str(exclusion)]) == 1
        assert capsys.readouterr().err == (
            f"error: exclusion file {exclusion}: line 1 is not a message fingerprint (16 lowercase hex digits)\n")
        assert not report.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_malformed_line_reported(self, gold_corpus, tmp_path, capsys, jobs):
        lines = gold_corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        bad_json = tmp_path / "bad_json.jsonl"
        bad_json.write_text("".join(lines[:2] + ["\n", "{broken\n"] + lines[2:]), encoding="utf-8")
        report = tmp_path / "report.tsv"
        assert main(["filter", "--in", str(bad_json), "--report", str(report), "--jobs", jobs]) == 1
        assert capsys.readouterr().err == (
            f"error: input file {bad_json}: line 4: invalid JSON: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)\n")
        assert not report.exists()


class TestFeatures:
    def test_mi_si_columns(self, parsed_corpus, tmp_path):
        out = tmp_path / "feat.jsonl"
        code = main(["features", "--in", str(parsed_corpus), "--out", str(out), "--mi", "--si"])
        assert code == 0
        record = json.loads(out.read_text().splitlines()[0])
        assert set(record["features"]) == {"mi", "si"}

    def test_rev_orders_dates_ascending(self, parsed_corpus, tmp_path):
        out = tmp_path / "rev.jsonl"
        code = main(["features", "--in", str(parsed_corpus), "--out", str(out), "--rev"])
        assert code == 0
        for doc in read_native(out.read_text(encoding="utf-8")):
            dates = [m.date for m in doc.thread.messages]
            assert dates == sorted(dates)

    def test_bare_rev_is_ascending(self, parsed_corpus, tmp_path, capsys):
        # --rev is a flag: oldest first is its one order, and it takes no value
        out = tmp_path / "rev.jsonl"
        assert main(["features", "--in", str(parsed_corpus), "--out", str(out), "--rev"]) == 0
        docs = read_native(parsed_corpus.read_text(encoding="utf-8"))
        assert out.read_text(encoding="utf-8") == write_native_string([reverse_document(d) for d in docs])
        for value in ("ascending", "descending"):
            with pytest.raises(SystemExit) as err:
                main(["features", "--in", str(parsed_corpus), "--out", str(out), "--rev", value])
            assert err.value.code == 2
            assert f"unrecognized arguments: {value}\n" in capsys.readouterr().err

    def test_rev_error_names_file_and_document(self, tmp_path, capsys):
        # the quoted message has no Date or Sent line
        thread = tmp_path / "threads" / "undated.txt"
        thread.parent.mkdir()
        thread.write_text(
            "Date: Mon, 14 May 2001 16:02:00 -0700 (PDT)\n"
            "From: jane.doe@enron.com\nTo: john.smith@enron.com\nSubject: RE: schedule\n\n"
            "Sounds good.\n\n"
            "-----Original Message-----\n"
            "From: john.smith@enron.com\nTo: jane.doe@enron.com\nSubject: schedule\n\nCan you call me?\n",
            encoding="utf-8",
        )
        parsed, out = tmp_path / "parsed.jsonl", tmp_path / "rev.jsonl"
        assert main(["parse", "--in", str(thread.parent), "--out", str(parsed)]) == 0
        assert main(["features", "--in", str(parsed), "--out", str(out), "--mi", "--rev"]) == 1
        assert capsys.readouterr() == (
            "", f"error: input file {parsed}: document 'undated.txt': message 1 has no parseable date\n")
        assert not out.exists()


    def test_repeated_id_fails_before_its_dates(self, gold_corpus, tmp_path, capsys):
        # the second line repeats the first one's id and has a message without a date
        lines = gold_corpus.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        record["messages"][-1]["date"] = None
        path, out = tmp_path / "faults.jsonl", tmp_path / "out.jsonl"
        path.write_text("\n".join([lines[0], json.dumps(record), *lines[1:]]) + "\n", encoding="utf-8")
        assert main(["features", "--in", str(path), "--out", str(out), "--rev"]) == 1
        assert capsys.readouterr() == ("", f"error: input file {path} repeats document id {record['id']!r}\n")
        # alone, the undated message is the fault
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(["features", "--in", str(path), "--out", str(out), "--rev"]) == 1
        assert capsys.readouterr().err == (
            f"error: input file {path}: document {record['id']!r}: "
            f"message {len(record['messages']) - 1} has no parseable date\n")
        assert not out.exists()

    def test_rev_orders_naive_dates_at_the_first_zone(self, tmp_path, capsys):
        # the quoted Outlook "Sent:" line parses without a time zone: it is
        # ordered at the -0700 of the first message, so 15:10 comes before 16:02
        thread = tmp_path / "threads" / "mixed.txt"
        thread.parent.mkdir()
        thread.write_text(
            "Date: Mon, 14 May 2001 16:02:00 -0700 (PDT)\n"
            "From: jane.doe@enron.com\nTo: john.smith@enron.com\nSubject: RE: schedule\n\n"
            "Sounds good, I will call you tomorrow.\n\n"
            "-----Original Message-----\n"
            "From: Smith, John\nSent: Monday, May 14, 2001 3:10 PM\nTo: Doe, Jane\n"
            "Subject: schedule\n\nCan you call me about the schedule?\n",
            encoding="utf-8",
        )
        parsed, out = tmp_path / "parsed.jsonl", tmp_path / "rev.jsonl"
        assert main(["parse", "--in", str(thread.parent), "--out", str(parsed)]) == 0
        doc, = read_native(parsed.read_text(encoding="utf-8"))
        assert [m.date.utcoffset() is None for m in doc.thread.messages] == [False, True]
        assert main(["features", "--in", str(parsed), "--out", str(out), "--mi", "--si", "--rev"]) == 0
        assert capsys.readouterr() == ("", "")
        record = json.loads(out.read_text(encoding="utf-8"))
        # the dates are written as they were read
        assert [m["date"] for m in record["messages"]] == ["2001-05-14T15:10:00", "2001-05-14T16:02:00-07:00"]
        assert [m["from"] for m in record["messages"]] == ["Smith, John", "jane.doe@enron.com"]
        assert out.read_text(encoding="utf-8") == write_native_string([reverse_document(doc)], features=("mi", "si"))


class TestResolve:
    def test_hb2_on_example1_matches_hb1_partition(self, tmp_path, example1_document):
        src = tmp_path / "ex1.jsonl"
        with open(src, "w", encoding="utf-8") as fp:
            write_native([example1_document], fp)
        out1 = tmp_path / "hb1.jsonl"
        out2 = tmp_path / "hb2.jsonl"
        assert main(["resolve", "--baseline", "hb1", "--in", str(src), "--out", str(out1)]) == 0
        assert main(["resolve", "--baseline", "hb2", "--in", str(src), "--out", str(out2)]) == 0
        doc1 = read_native(out1.read_text(encoding="utf-8"))[0]
        doc2 = read_native(out2.read_text(encoding="utf-8"))[0]
        parts1 = {frozenset(c.mentions) for c in doc1.chains}
        parts2 = {frozenset(c.mentions) for c in doc2.chains}
        assert parts1 == parts2
        assert len(parts1) == 3

    def test_resolve_gold_corpus(self, gold_corpus, tmp_path):
        out = tmp_path / "resolved.jsonl"
        assert main(["resolve", "--baseline", "hb1", "--in", str(gold_corpus), "--out", str(out)]) == 0
        docs = read_native(out.read_text(encoding="utf-8"))
        gold = read_native(gold_corpus.read_text(encoding="utf-8"))
        assert [d.thread.id for d in docs] == [d.thread.id for d in gold]
        for resolved, original in zip(docs, gold):
            assert {m for c in resolved.chains for m in c.mentions} == set(original.mentions())

    @pytest.mark.parametrize("baseline", ["hb1", "hb2"])
    def test_parallel_identical(self, gold_corpus, tmp_path, baseline):
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"resolved{jobs}.jsonl"
            assert main(["resolve", "--baseline", baseline, "--in", str(gold_corpus),
                         "--out", str(out), "--jobs", jobs]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_malformed_line_reported(self, gold_corpus, tmp_path, capsys, jobs):
        lines = gold_corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        bad_json = tmp_path / "bad_json.jsonl"
        bad_json.write_text("".join(lines[:2] + ["\n", "{broken\n"] + lines[2:]), encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert main(["resolve", "--baseline", "hb1", "--in", str(bad_json), "--out", str(out),
                     "--jobs", jobs]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: input file {bad_json}: line 4: invalid JSON") and err.count("\n") == 1

        record = json.loads(lines[1])
        record["messages"][0]["sentences"][0][0][1] = "zz"
        bad_schema = tmp_path / "bad_schema.jsonl"
        bad_schema.write_text("".join(lines[:1] + [json.dumps(record) + "\n"] + lines[2:]),
                              encoding="utf-8")
        assert main(["resolve", "--baseline", "hb1", "--in", str(bad_schema), "--out", str(out),
                     "--jobs", jobs]) == 1
        assert capsys.readouterr().err == (
            f"error: input file {bad_schema}: line 2: document {record['id']!r}: "
            "$.messages[0].sentences[0][0]: unknown section code 'zz'\n")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_first_fault_reported_first(self, gold_corpus, tmp_path, capsys, jobs):
        # a malformed record, then a byte that is not UTF-8 in the same chunk
        # of records but past the reader's first decoded block of the file
        lines = gold_corpus.read_bytes().splitlines(keepends=True)
        two_faults = tmp_path / "two_faults.jsonl"
        two_faults.write_bytes(b"".join(
            lines[:1] + [b"{broken\n", b"\n" * 20000, b'{"id":"a\xff"}\n'] + lines[1:]))
        assert main(["resolve", "--baseline", "hb1", "--in", str(two_faults),
                     "--out", str(tmp_path / "out.jsonl"), "--jobs", jobs]) == 1
        assert capsys.readouterr().err.startswith(f"error: input file {two_faults}: line 2: invalid JSON")


def _corpus10_gold(threads) -> list[AnnotatedDocument]:
    """corpus10 with the mentions that derive_mentions finds, chained by their casefolded text."""
    docs = []
    for thread in threads:
        by_text: dict[str, list[Mention]] = {}
        for mention in derive_mentions(thread):
            by_text.setdefault(mention_text(thread, mention).casefold(), []).append(mention)
        chains = tuple(CoreferenceChain(cid, tuple(ms)) for cid, ms in enumerate(by_text.values()))
        docs.append(AnnotatedDocument(thread, chains))
    return docs


@pytest.fixture(scope="module")
def resolve_sources(tmp_path_factory, corpus10_threads, example1_document) -> dict[str, Path]:
    """Native files that resolve reads: gold corpora, the golden parser
    outputs and generated mail of both benchmark workloads."""
    root = tmp_path_factory.mktemp("resolve_sources")
    sources = {name: DATA_DIR / "golden" / f"{name}.jsonl" for name in ("corpus10", "demos", "example1")}
    for name, docs in (("corpus10-gold", _corpus10_gold(corpus10_threads)), ("example1-gold", [example1_document])):
        sources[name] = root / f"{name}.jsonl"
        sources[name].write_text(write_native_string(docs), encoding="utf-8")
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import generate
    finally:
        sys.path.pop(0)
    for workload in ("mail_wide", "mail_long"):
        generate.generate(workload, 1, root / workload, 0.2)
        sources[workload] = root / workload / "gold.jsonl"
    return sources


def _reference_output(path: Path, baseline: str) -> str:
    lines = serialization.stream_native_lines(path.read_text(encoding="utf-8").split("\n"))
    return "".join(oracles.resolve_line_reference(line, line_no, baseline) for line_no, line in lines)


def _resolve_text(tmp_path: Path, text: str, baseline: str = "hb1") -> str:
    src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    src.write_text(text, encoding="utf-8")
    assert main(["resolve", "--baseline", baseline, "--in", str(src), "--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


class TestResolveSplice:
    """resolve writes the bytes of a full decode, resolve and re-encode of each
    record, though it builds only the sentences that hold a mention and
    splices the new chains into the input line."""

    SOURCES = ["corpus10-gold", "example1-gold", "corpus10", "demos", "example1", "mail_wide", "mail_long"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("baseline", ["hb1", "hb2"])
    @pytest.mark.parametrize("source", SOURCES)
    def test_same_bytes_as_the_reference(self, resolve_sources, tmp_path, source, baseline, jobs):
        path = resolve_sources[source]
        out = tmp_path / "out.jsonl"
        assert main(["resolve", "--baseline", baseline, "--in", str(path), "--out", str(out), "--jobs", jobs]) == 0
        assert out.read_text(encoding="utf-8") == _reference_output(path, baseline)

    @pytest.mark.parametrize("baseline", ["hb1", "hb2"])
    def test_input_with_features(self, resolve_sources, tmp_path, baseline):
        featured = tmp_path / "features.jsonl"
        gold = resolve_sources["mail_wide"]
        assert main(["features", "--in", str(gold), "--out", str(featured), "--mi", "--si", "--rev"]) == 0
        assert '"features":{"mi":' in featured.read_text(encoding="utf-8")
        out = _resolve_text(tmp_path, featured.read_text(encoding="utf-8"), baseline)
        assert out == _reference_output(featured, baseline)
        assert '"features"' not in out

    def test_builds_only_the_sentences_that_hold_a_mention(self, resolve_sources, tmp_path, monkeypatch):
        built = []
        record_sentence = serialization.record_sentence
        path = resolve_sources["mail_wide"]
        with monkeypatch.context() as counted:
            counted.setattr(serialization, "record_sentence",
                            lambda record, mi, si: built.append((record["id"], mi, si)) or record_sentence(record, mi, si))
            _resolve_text(tmp_path, path.read_text(encoding="utf-8"))
        # read_native builds every sentence, through record_sentence too
        docs = read_native(path.read_text(encoding="utf-8"))
        held = sorted({(d.thread.id, m.message_index, m.sentence_index) for d in docs for m in d.mentions()})
        assert sorted(built) == held
        assert len(built) < sum(len(msg.sentences) for d in docs for msg in d.thread.messages)

    @staticmethod
    def _variants(record: dict) -> dict[str, str]:
        """One record written in ways write_native does not write it."""
        compact = {"ensure_ascii": False, "separators": (",", ":")}
        head = (f'{{"id":{json.dumps(record["id"], ensure_ascii=False)},'
                f'"source_path":{json.dumps(record["source_path"], ensure_ascii=False)},"messages":')
        chains = json.dumps(record["chains"], **compact)
        messages = record["messages"]
        spelled = [dict(m, date=m["date"] and m["date"].replace("T", " ")) for m in messages]
        bare = [{k: v for k, v in m.items() if k not in ("cc", "x_cc") or v} for m in messages]
        nested = [dict(m, extra={"a": 1, "chains": [1]}) for m in messages]
        return {
            "default-separators": json.dumps(record),
            "escaped-messages": head + json.dumps(messages, separators=(",", ":")) + ',"chains":' + chains + "}",
            "spaced-messages": head + json.dumps(messages, ensure_ascii=False) + ',"chains":' + chains + "}",
            "other-date-spelling": head + json.dumps(spelled, **compact) + ',"chains":' + chains + "}",
            "absent-address-lists": head + json.dumps(bare, **compact) + ',"chains":' + chains + "}",
            "escaped-id-and-path": (f'{{"id":{json.dumps(record["id"])},"source_path":{json.dumps(record["source_path"])},'
                                    f'"messages":{json.dumps(messages, **compact)},"chains":{chains}}}'),
            "other-key-order": json.dumps({k: record[k] for k in ("chains", "messages", "source_path", "id")}, **compact),
            "absent-source-path": json.dumps({k: v for k, v in record.items() if k != "source_path"}, **compact),
            "chains-key-in-messages": head + json.dumps(nested, **compact) + ',"chains":' + chains + "}",
            "chains-key-in-chains": json.dumps(
                dict(record, chains=[dict(c, chains=1) for c in record["chains"]]), **compact),
            "chains-key-in-features": json.dumps(dict(record, features={"x": {"y": 1, "chains": []}}), **compact),
            "spaced-top-level-chains": head + json.dumps(nested, **compact) + ' ,  "chains" : ' + chains + " } ",
        }

    @pytest.mark.parametrize("baseline", ["hb1", "hb2"])
    def test_other_spellings_decode_to_the_reference_documents(self, gold_corpus, tmp_path, baseline):
        records = [json.loads(line) for line in gold_corpus.read_text(encoding="utf-8").splitlines()]
        records[0]["id"] = "café   \"quoted\""
        records[0]["source_path"] = "dir/café.txt"
        for record in records:
            record["messages"][0]["subject"] = "Réunion\u2029"
            record["messages"][0]["sentences"][0][0][0] = "naïve"
        for name in self._variants(records[0]):
            text = "".join(self._variants(r)[name] + "\n" for r in records)
            src = tmp_path / f"{name}.jsonl"
            src.write_text(text, encoding="utf-8")
            out = _resolve_text(tmp_path, text, baseline)
            reference = _reference_output(src, baseline)
            assert read_native(out) == read_native(reference), name
            if name in ("escaped-messages", "spaced-messages", "other-date-spelling", "absent-address-lists",
                        "chains-key-in-messages"):
                # a canonical top level keeps the messages as given
                assert out != reference, name
            else:
                assert out == reference, name

    def test_stats_count_as_corpus_stats(self, resolve_sources, capsys):
        for name, path in resolve_sources.items():
            assert main(["stats", "--in", str(path)]) == 0
            got = dict(line.split("\t") for line in capsys.readouterr().out.splitlines()[1:])
            want = corpus_stats(read_native(path.read_text(encoding="utf-8")))
            assert got == {
                "email_threads": str(want.thread_count), "email_messages": str(want.message_count),
                "words": str(want.word_count), "coreference_chains": str(want.chain_count),
                "annotated_mentions": str(want.mention_count), "annotated_pronouns": str(want.pronoun_count),
                "longest_chain_length": str(want.longest_chain),
                "average_chain_length": f"{want.average_chain_length:.4f}",
            }, name


def _features_reference(path: Path, flags: list[str]) -> str:
    lines = serialization.stream_native_lines(path.read_text(encoding="utf-8").split("\n"))
    columns = [name for name in ("mi", "si") if f"--{name}" in flags]
    return "".join(oracles.features_line_reference(line, n, columns, "--rev" in flags) for n, line in lines)


class TestFeaturesFromRecords:
    """features writes the bytes of a full decode, reverse_document and
    write_native of each record, though it builds no token: a record that
    keeps its order is spliced, and any other is written from its JSON."""

    FLAGS = {
        "mi-si-rev": ["--mi", "--si", "--rev"],
        "mi-si": ["--mi", "--si"],
        "bare": [],
        "si-rev": ["--si", "--rev"],
        "mi": ["--mi"],
    }

    @pytest.mark.parametrize("flags", FLAGS)
    @pytest.mark.parametrize("source", TestResolveSplice.SOURCES)
    def test_same_bytes_as_the_reference(self, resolve_sources, tmp_path, source, flags):
        path, out = resolve_sources[source], tmp_path / "out.jsonl"
        assert main(["features", "--in", str(path), "--out", str(out), *self.FLAGS[flags]]) == 0
        assert out.read_text(encoding="utf-8") == _features_reference(path, self.FLAGS[flags])

    def test_columns_are_each_tokens_message_and_section(self, resolve_sources, tmp_path):
        path, out = resolve_sources["mail_wide"], tmp_path / "out.jsonl"
        assert main(["features", "--in", str(path), "--out", str(out), "--mi", "--si", "--rev"]) == 0
        written = out.read_text(encoding="utf-8").splitlines()
        for line, doc in zip(written, read_native("\n".join(written))):
            columns = json.loads(line)["features"]
            flat = {name: [v for message in columns[name] for sentence in message for v in sentence] for name in columns}
            assert flat["mi"] == list(message_identifier(doc.thread))
            assert flat["si"] == [section.code for section in section_info(doc.thread)]

    def test_workloads_reorder_and_splice(self, resolve_sources):
        # both ways of writing a record run on the generated mail
        ways = set()
        for source in ("mail_wide", "mail_long"):
            text = resolve_sources[source].read_text(encoding="utf-8")
            for line_no, line in serialization.stream_native_lines(text.split("\n")):
                doc = serialization.decode_line(line, line_no)
                ways.add(reverse_document(doc) is doc)
        assert ways == {True, False}

    @pytest.mark.parametrize("flags", ["mi-si-rev", "mi-si"])
    def test_other_spellings(self, gold_corpus, tmp_path, flags):
        records = [json.loads(line) for line in gold_corpus.read_text(encoding="utf-8").splitlines()]
        records[0]["id"] = "café   \"quoted\""
        records[0]["source_path"] = "dir/café.txt"
        for record in records:
            record["messages"][0]["subject"] = "Réunion\u2029"
            record["messages"][0]["sentences"][0][0][0] = "naïve"
        args = self.FLAGS[flags]
        reordered = {
            record["id"] for record in records
            if "--rev" in args and (doc := serialization.record_to_document(record)) is not reverse_document(doc)
        }
        assert reordered or "--rev" not in args
        for name in TestResolveSplice._variants(records[0]):
            variants = [TestResolveSplice._variants(r)[name] for r in records]
            src, out = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.out.jsonl"
            src.write_text("".join(line + "\n" for line in variants), encoding="utf-8")
            assert main(["features", "--in", str(src), "--out", str(out), *args]) == 0
            # the subject holds U+2029, which str.splitlines would split at
            got = out.read_text(encoding="utf-8").split("\n")
            want = _features_reference(src, args).split("\n")
            assert read_native("\n".join(got)) == read_native("\n".join(want)), name
            for record, got_line, want_line in zip(records, got, want):
                if name in ("escaped-messages", "spaced-messages", "other-date-spelling", "absent-address-lists",
                            "chains-key-in-messages") and record["id"] not in reordered:
                    # a canonical top level keeps the messages as given
                    assert got_line != want_line, name
                else:
                    assert got_line == want_line, name


class TestErrorsFromRecords:
    """errors reads the key's tokens from its records' JSON, and counts what
    categorize_errors counts on the key's full threads."""

    @pytest.mark.parametrize("source", ["mail_wide", "mail_long", "corpus10-gold"])
    def test_same_report_as_full_threads(self, resolve_sources, tmp_path, capsys, source):
        key = resolve_sources[source]
        response = key.parent / "response.jsonl"
        if not response.exists():
            response = tmp_path / "response.jsonl"
            assert main(["resolve", "--baseline", "hb2", "--in", str(key), "--out", str(response)]) == 0
        for first, second in ((key, response), (response, key)):
            assert main(["errors", "--key", str(first), "--response", str(second)]) == 0
            want = oracles.errors_report_reference(*(p.read_text(encoding="utf-8").splitlines() for p in (first, second)))
            assert want != ErrorReport()
            rows = [("category", "count"), *((label, str(getattr(want, attr))) for label, attr in cli._ERROR_ROWS)]
            assert capsys.readouterr().out == "".join("\t".join(row) + "\n" for row in rows)

    @pytest.mark.parametrize("source", ["mail_wide", "mail_long"])
    def test_conll_same_report_as_skeleton_threads(self, resolve_sources, capsys, source):
        # a CoNLL key's tokens are read from its words, and no token is built
        from unittest import mock

        from threadcoref import errors

        root = resolve_sources[source].parent
        for first, second in (("gold", "response"), ("response", "gold")):
            key, response = (read_conll_documents((root / f"{name}.conll").read_text(encoding="utf-8"))
                             for name in (first, second))
            partner = {doc.thread.id: doc for doc in response}
            want = errors.ErrorReport()
            for doc in key:
                want = want + errors.categorize_errors(doc.thread, doc.chains, partner[doc.thread.id].chains)
            assert want != ErrorReport()
            args = ["errors", "--key", str(root / f"{first}.conll"), "--response", str(root / f"{second}.conll")]
            with mock.patch.object(serialization, "_skeleton_document", side_effect=AssertionError("a skeleton")):
                assert main(args) == 0
            rows = [("category", "count"), *((label, str(getattr(want, attr))) for label, attr in cli._ERROR_ROWS)]
            assert capsys.readouterr().out == "".join("\t".join(row) + "\n" for row in rows)


    def test_section_read_at_the_first_token(self, tmp_path, capsys):
        # a missing mention that starts in a header line and ends in the body is a header reference
        record = {"id": "t", "source_path": None, "messages": [{"date": None, "sentences": [
            [["From", "h", 0, 4], ["Bob", "b", 5, 8]], [["he", "b", 9, 11]], [["it", "b", 12, 14]]]}],
            "chains": [{"id": 0, "mentions": [[0, 0, 0, 1], [0, 1, 0, 0], [0, 2, 0, 0]]}]}
        response = dict(record, chains=[{"id": 0, "mentions": [[0, 1, 0, 0], [0, 2, 0, 0]]}])
        key_path, response_path = tmp_path / "key.jsonl", tmp_path / "response.jsonl"
        key_path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        response_path.write_text(json.dumps(response) + "\n", encoding="utf-8")
        assert main(["errors", "--key", str(key_path), "--response", str(response_path)]) == 0
        out = capsys.readouterr().out
        assert "missing_header_references\t1\n" in out and "other_missing_references\t0\n" in out
        want = oracles.errors_report_reference([json.dumps(record)], [json.dumps(response)])
        assert want.missing_header_refs == 1


class TestFilterFromRecords:
    """filter gives a JSONL file of parsed threads the verdicts of their thread files."""

    @pytest.mark.parametrize("workload", ["mail_wide", "mail_long"])
    def test_same_verdicts_as_the_directory(self, resolve_sources, tmp_path, workload):
        work = resolve_sources[workload].parent
        parsed = tmp_path / "parsed.jsonl"
        assert main(["parse", "--in", str(work / "threads"), "--out", str(parsed)]) == 0
        outs = []
        for source, jobs in ((work / "threads", "2"), (parsed, "1"), (parsed, "2")):
            report, verdicts = tmp_path / f"r{len(outs)}.tsv", tmp_path / f"v{len(outs)}.tsv"
            assert main(["filter", "--in", str(source), "--exclude-fingerprints", str(work / "exclude.txt"),
                         "--report", str(report), "--verdicts", str(verdicts), "--jobs", jobs]) == 0
            outs.append((report.read_bytes(), verdicts.read_bytes()))
        assert outs[0] == outs[1] == outs[2]


def _compact(record: dict) -> str:
    """A record as write_native spells it."""
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


class TestFirstFault:
    """A good record, then bad ones: resolve, stats and features stop at the
    first bad record with the one line that names its file, line and document,
    and so do the pair commands on a response file that holds them."""

    @staticmethod
    def _faults(gold_corpus) -> tuple[str, dict[str, tuple[str, str]]]:
        lines = gold_corpus.read_text(encoding="utf-8").splitlines()
        good, record = lines[0], json.loads(lines[1])
        doc_id = record["id"]
        overlap = copy.deepcopy(record)
        token = overlap["messages"][0]["sentences"][0][1]
        token[2] = overlap["messages"][0]["sentences"][0][0][3] - 1
        stray = copy.deepcopy(record)
        stray["chains"][0]["mentions"][0][3] = len(stray["messages"][0]["sentences"][0]) + 5
        stray["chains"][0]["mentions"][0][:3] = [0, 0, 0]
        repeated = copy.deepcopy(record)
        first = repeated["chains"][0]
        first["mentions"].append(list(first["mentions"][0]))
        at = f"$.chains[0].mentions[{len(first['mentions']) - 1}]"
        faults = {
            "token overlap": (json.dumps(overlap), (
                f"line 2: document {doc_id!r}: $: thread {doc_id}: token {token[0]!r} at char {token[2]} "
                f"overlaps previous token ending at {token[2] + 1}")),
            "mention addresses no token": (json.dumps(stray), (
                f"line 2: document {doc_id!r}: $.chains[0].mentions[0]: "
                f"mention at {tuple(stray['chains'][0]['mentions'][0][:4])} addresses no token")),
            "mention repeated in its chain": (json.dumps(repeated), (
                f"line 2: document {doc_id!r}: {at}: mention at {tuple(first['mentions'][0][:4])} "
                f"is already in chain {first['id']}")),
            "repeated id": (good, f"repeats document id {json.loads(good)['id']!r}"),
        }
        return good, faults

    @pytest.mark.parametrize("fault", ["token overlap", "mention addresses no token",
                                       "mention repeated in its chain", "repeated id"])
    @pytest.mark.parametrize("run", ["resolve-jobs1", "resolve-jobs2", "stats", "features"])
    def test_exits_1_naming_the_first_fault(self, gold_corpus, tmp_path, capsys, fault, run):
        good, faults = self._faults(gold_corpus)
        # the named fault first, then every other
        bad = [faults[fault][0]] + [line for name, (line, _) in faults.items() if name != fault]
        path = tmp_path / "faults.jsonl"
        path.write_text("\n".join([good, *bad]) + "\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        args = {
            "resolve-jobs1": ["resolve", "--baseline", "hb1", "--in", str(path), "--out", str(out), "--jobs", "1"],
            "resolve-jobs2": ["resolve", "--baseline", "hb2", "--in", str(path), "--out", str(out), "--jobs", "2"],
            "stats": ["stats", "--in", str(path)],
            "features": ["features", "--in", str(path), "--out", str(out), "--mi", "--si", "--rev"],
        }[run]
        assert main(args) == 1
        message = faults[fault][1]
        where = f"input file {path} " if fault == "repeated id" else f"input file {path}: "
        assert capsys.readouterr() == ("", f"error: {where}{message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("spelling", ["compact", "default"])
    @pytest.mark.parametrize("fault", ["token overlap", "mention addresses no token",
                                       "mention repeated in its chain", "repeated id"])
    @pytest.mark.parametrize("command", ["score", "errors", "correction-stats"])
    def test_pair_commands_name_the_first_fault(self, gold_corpus, tmp_path, capsys, command, fault, spelling):
        # in the response file, after a good pair; compact records repeat their
        # key's bytes wherever they keep its messages
        good, faults = self._faults(gold_corpus)
        bad = [faults[fault][0]] + [line for name, (line, _) in faults.items() if name != fault]
        if spelling == "compact":
            bad = [_compact(json.loads(line)) for line in bad]
        path = tmp_path / "faults.jsonl"
        path.write_text("\n".join([good, *bad]) + "\n", encoding="utf-8")
        role, args = {
            "score": ("response", ["score", "--key", str(gold_corpus), "--response", str(path)]),
            "errors": ("response", ["errors", "--key", str(gold_corpus), "--response", str(path)]),
            "correction-stats": ("gold", ["correction-stats", "--pred", str(gold_corpus), "--gold", str(path)]),
        }[command]
        assert main(args) == 1
        where = f"{role} file {path} " if fault == "repeated id" else f"{role} file {path}: "
        assert capsys.readouterr() == ("", f"error: {where}{faults[fault][1]}\n")


class TestPoolStart:
    """--jobs runs a pool only for more than one chunk of items, and either
    way gives the bytes and the first fault of --jobs 1."""

    @staticmethod
    def _threads(tmp_path: Path, count: int) -> Path:
        threads = tmp_path / "threads"
        threads.mkdir()
        for path in sorted(CORPUS10_DIR.iterdir())[:count]:
            (threads / path.name).write_bytes(path.read_bytes())
        return threads

    @pytest.mark.parametrize("extra, pools", [(0, []), (1, [(2,)])], ids=["one-chunk", "two-chunks"])
    def test_pool_only_past_one_chunk(self, tmp_path, monkeypatch, extra, pools):
        threads = self._threads(tmp_path, cli._CHUNK_SIZE + extra)
        want, got = tmp_path / "want.jsonl", tmp_path / "got.jsonl"
        assert main(["parse", "--in", str(threads), "--out", str(want), "--jobs", "1"]) == 0
        started = []
        pool = multiprocessing.Pool

        def spy(*args, **kwargs):
            started.append(args)
            if not pools:
                raise AssertionError("a pool was started for one chunk")
            return pool(*args, **kwargs)

        monkeypatch.setattr(multiprocessing, "Pool", spy)
        assert main(["parse", "--in", str(threads), "--out", str(got), "--jobs", "2"]) == 0
        assert started == pools
        assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("good", [1, 3], ids=["in-first-chunk", "past-first-chunk"])
    def test_read_failure_raised_after_earlier_results(self, good):
        def items():
            yield from range(good)
            raise ValueError("unreadable item")

        results = []
        with pytest.raises(ValueError, match="unreadable item"):
            for result in cli._map_jobs(str, items(), 2):
                results.append(result)
        assert results == [str(i) for i in range(good)]

    def test_item_fault_raised_before_a_later_read_failure(self):
        # both in the first chunk, which is read before any item is run
        def items():
            yield from ("1", "x")
            raise ValueError("unreadable item")

        results = []
        with pytest.raises(ValueError, match="invalid literal"):
            for result in cli._map_jobs(int, items(), 2):
                results.append(result)
        assert results == [1]


class TestScore:
    def test_identity_conll_scores_one(self, tmp_path, example1_document, capsys):
        key = tmp_path / "k.conll"
        key.write_text(write_conll(example1_document), encoding="utf-8")
        code = main(["score", "--key", str(key), "--response", str(key)])
        assert code == 0
        header, values = capsys.readouterr().out.strip().splitlines()
        cols = dict(zip(header.split("\t"), values.split("\t")))
        assert cols["muc_f1"] == "1.0000"
        assert cols["b3_f1"] == "1.0000"
        assert cols["ceafe_f1"] == "1.0000"
        assert cols["lea_f1"] == "1.0000"
        assert cols["avg_f1"] == "1.0000"

    def test_auto_format_reads_conll_by_content(self, tmp_path, example1_document, capsys):
        # the blank lines end the sniffer's first 4096-character chunk inside "#begin"
        key = tmp_path / "k.txt"
        key.write_text("\n" * 4093 + write_conll(example1_document), encoding="utf-8")
        assert main(["score", "--key", str(key), "--response", str(key)]) == 0
        assert capsys.readouterr().out.splitlines()[1].split("\t")[-1] == "1.0000"

    def test_metric_subset_drops_avg(self, tmp_path, example1_document, capsys):
        key = tmp_path / "k.conll"
        key.write_text(write_conll(example1_document), encoding="utf-8")
        main(["score", "--key", str(key), "--response", str(key), "--metrics", "muc,lea"])
        header = capsys.readouterr().out.splitlines()[0].split("\t")
        assert "avg_f1" not in header
        assert header == ["muc_p", "muc_r", "muc_f1", "lea_p", "lea_r", "lea_f1"]

    def test_unknown_metric_exits_1(self, tmp_path, example1_document, capsys):
        key = tmp_path / "k.conll"
        key.write_text(write_conll(example1_document), encoding="utf-8")
        assert main(["score", "--key", str(key), "--response", str(key),
                     "--metrics", "blanc"]) == 1

    @pytest.mark.parametrize("names", [",", "", " , ,"])
    def test_no_metric_exits_1_before_reading(self, tmp_path, names, capsys):
        # neither file exists: the option is refused before either is opened
        missing = str(tmp_path / "missing.jsonl")
        assert main(["score", "--key", missing, "--response", missing, "--metrics", names]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --metrics names no metric\n"

    def test_reversed_response_decodes_each_record_once(self, gold_corpus, tmp_path, capsys, monkeypatch):
        from threadcoref import serialization

        lines = gold_corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        reversed_path = tmp_path / "reversed.jsonl"
        reversed_path.write_text("".join(lines[::-1]), encoding="utf-8")
        assert main(["score", "--key", str(gold_corpus), "--response", str(gold_corpus)]) == 0
        expected = capsys.readouterr().out
        decoded = []
        decode_record, decode_repeat = serialization.decode_record, serialization.decode_repeat

        def counting(line, line_no):
            decoded.append(line_no)
            return decode_record(line, line_no)

        def counting_repeats(line, line_no, first):
            doc = decode_repeat(line, line_no, first)
            if doc is not None:
                decoded.append(line_no)
            return doc

        monkeypatch.setattr(serialization, "decode_record", counting)
        monkeypatch.setattr(serialization, "decode_repeat", counting_repeats)
        assert main(["score", "--key", str(gold_corpus), "--response", str(reversed_path)]) == 0
        assert capsys.readouterr().out == expected
        # one document of each record, from a full decode or from its chains only
        assert len(decoded) == 2 * len(lines)

    def test_native_key_vs_resolved_response(self, gold_corpus, tmp_path, capsys):
        out = tmp_path / "resolved.jsonl"
        main(["resolve", "--baseline", "hb1", "--in", str(gold_corpus), "--out", str(out)])
        code = main(["score", "--key", str(gold_corpus), "--response", str(out)])
        assert code == 0
        header, values = capsys.readouterr().out.strip().splitlines()
        scores = dict(zip(header.split("\t"), values.split("\t")))
        assert 0.0 <= float(scores["avg_f1"]) <= 1.0


    @pytest.mark.parametrize("entry", ["(²)", "²)", "(²", "(٣)"])
    def test_non_ascii_digit_entry_exits_1(self, tmp_path, example1_document, capsys, entry):
        key = tmp_path / "k.conll"
        key.write_text(write_conll(example1_document), encoding="utf-8")
        lines = key.read_text(encoding="utf-8").split("\n")
        row = next(i for i, line in enumerate(lines) if line.endswith("\t-"))
        lines[row] = lines[row][:-1] + entry
        response = tmp_path / "r.conll"
        response.write_text("\n".join(lines), encoding="utf-8")
        assert main(["score", "--key", str(key), "--response", str(response)]) == 1
        assert capsys.readouterr() == ("", f"error: response file {response}: line {row + 1}: bad coref entry {entry!r}\n")


class TestErrors:
    def test_zero_report_on_identity(self, gold_corpus, capsys):
        code = main(["errors", "--key", str(gold_corpus), "--response", str(gold_corpus)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "category\tcount"
        assert all(line.split("\t")[1] == "0" for line in lines[1:])
        assert len(lines) == 9

    def test_missing_response_document_exits_1(self, gold_corpus, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["errors", "--key", str(gold_corpus), "--response", str(empty)]) == 1

    def test_conll_inputs(self, tmp_path, example1_document, capsys):
        key = tmp_path / "k.conll"
        key.write_text(write_conll(example1_document), encoding="utf-8")
        assert main(["errors", "--key", str(key), "--response", str(key)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(line.split("\t")[1] == "0" for line in lines[1:])

    def test_conll_response_error_names_the_begin_document_line(self, tmp_path, capsys):
        # document b's second token, which its key lacks, holds a mention
        def conll(b_rows):
            return "".join(["#begin document (a); part 000\na\t0\t0\tHello\t(1)\na\t0\t1\tthere\t(1)\n\n",
                            "#end document\n#begin document (b); part 000\n", *b_rows, "\n#end document\n"])

        key, response = tmp_path / "key.conll", tmp_path / "response.conll"
        key.write_text(conll(["b\t0\t0\tHi\t(2)\n"]), encoding="utf-8")
        response.write_text(conll(["b\t0\t0\tHi\t(2)\n", "b\t0\t1\tyou\t(3)\n"]), encoding="utf-8")
        assert main(["errors", "--key", str(key), "--response", str(response)]) == 1
        assert capsys.readouterr() == ("", (
            f"error: response file {response}: line 6: document 'b': "
            f"mention at (0, 0, 1, 1) addresses no token of key file {key}\n"))

    @pytest.mark.parametrize("fmt", ["jsonl", "conll"])
    def test_response_mention_past_the_key_exits_1(self, resolve_sources, tmp_path, capsys, fmt):
        # the first record with one message more, whose one-token mention joins chain 0
        lines = resolve_sources["mail_wide"].read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[0])
        end = max(token[3] for message in record["messages"] for sentence in message["sentences"] for token in sentence)
        record["messages"].append({"date": None, "sentences": [[["Hello", "b", end + 1, end + 6]]]})
        added = [len(record["messages"]) - 1, 0, 0, 0]
        record["chains"][0]["mentions"].append(added)
        key, response = tmp_path / f"key.{fmt}", tmp_path / f"response.{fmt}"
        key_text, response_text = "\n".join(lines) + "\n", "\n".join([_compact(record), *lines[1:]]) + "\n"
        keys, responses = read_native(key_text), read_native(response_text)
        if fmt == "conll":
            key_text, response_text = write_conll_documents(keys), write_conll_documents(responses)
            # one message of sentences: the added one is the last
            added = [0, sum(len(message.sentences) for message in keys[0].thread.messages), 0, 0]
        key.write_text(key_text, encoding="utf-8")
        response.write_text(response_text, encoding="utf-8")
        assert main(["errors", "--key", str(key), "--response", str(response)]) == 1
        # the record's line, or the #begin document line of its CoNLL document
        assert capsys.readouterr() == ("", (
            f"error: response file {response}: line 1: document {record['id']!r}: "
            f"mention at {tuple(added)} addresses no token of key file {key}\n"))
        # score and correction-stats read mentions only, which need no token of the key
        from threadcoref import metrics

        if fmt == "conll":
            keys, responses = read_conll_documents(key_text), read_conll_documents(response_text)
        report = metrics.score_documents((k.chains, r.chains) for k, r in zip(keys, responses))
        assert main(["score", "--key", str(key), "--response", str(response), "--metrics", "muc,b3,ceafe"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split("\t")[-1] == f"{report.conll_avg_f1:.4f}"
        stats = metrics.CorrectionStats()
        for k, r in zip(keys, responses):
            stats = stats + metrics.correction_stats(r.mentions(), k.mentions())
        assert main(["correction-stats", "--pred", str(response), "--gold", str(key)]) == 0
        out = capsys.readouterr().out
        assert f"added_mentions\t{stats.added}\n" in out and f"deleted_mentions\t{stats.deleted}\n" in out
        assert stats.deleted == 1


class TestStats:
    def test_table_shape(self, gold_corpus, capsys):
        code = main(["stats", "--in", str(gold_corpus)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        stats = dict(line.split("\t") for line in lines[1:])
        assert stats["email_threads"] == "8"
        assert int(stats["annotated_mentions"]) >= int(stats["coreference_chains"])
        assert set(stats) == {
            "email_threads", "email_messages", "words", "coreference_chains",
            "annotated_mentions", "annotated_pronouns", "longest_chain_length",
            "average_chain_length",
        }

    def test_line_separator_in_header_field(self, gold_corpus, tmp_path, capsys):
        # write_native leaves U+2028, U+2029 and U+0085 raw inside strings
        docs = read_native(gold_corpus.read_text(encoding="utf-8"))
        first = docs[0].thread.messages[0]
        first = first._replace(subject="Budget\u2028review\u2029and\x85more")
        docs[0] = docs[0]._replace(thread=docs[0].thread._replace(messages=(
            first, *docs[0].thread.messages[1:])))
        odd = tmp_path / "odd.jsonl"
        with open(odd, "w", encoding="utf-8") as fp:
            write_native(docs, fp)
        assert main(["stats", "--in", str(gold_corpus)]) == 0
        expected = capsys.readouterr().out
        assert main(["stats", "--in", str(odd)]) == 0
        assert capsys.readouterr().out == expected


class TestRepeatedDocumentIds:
    @pytest.mark.parametrize("command", ["score", "errors"])
    @pytest.mark.parametrize("side", ["key", "response"])
    def test_repeated_id_exits_1(self, gold_corpus, tmp_path, capsys, command, side):
        docs = read_native(gold_corpus.read_text(encoding="utf-8"))
        repeated = tmp_path / f"{side}.jsonl"
        with open(repeated, "w", encoding="utf-8") as fp:
            # the first document again, without chains
            write_native([*docs, AnnotatedDocument(docs[0].thread)], fp)
        files = {"key": str(gold_corpus), "response": str(gold_corpus), side: str(repeated)}
        code = main([command, "--key", files["key"], "--response", files["response"]])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {side} file {repeated} repeats document id {docs[0].thread.id!r}\n"
        )


# (command, flag of the file whose order the pairs follow, flag of the other file, role names)
PAIRING_COMMANDS = [
    pytest.param(command, first, second, roles, id=command)
    for command, first, second, roles in (
        ("score", "--key", "--response", ("key", "response")),
        ("errors", "--key", "--response", ("key", "response")),
        ("correction-stats", "--pred", "--gold", ("pred", "gold")),
    )
]


# every command that reads records: (arguments, with {doubled} for a file that
# repeats its first record, {gold} for a valid file and {out} for an output
# file; the role that names the doubled file; the format of both files)
RECORD_READERS = {
    "filter-jobs1": (["filter", "--in", "{doubled}", "--report", "{out}", "--jobs", "1"], "input", "jsonl"),
    "filter-jobs2": (["filter", "--in", "{doubled}", "--report", "{out}", "--jobs", "2"], "input", "jsonl"),
    "features": (["features", "--in", "{doubled}", "--out", "{out}", "--mi", "--si"], "input", "jsonl"),
    "resolve-jobs1": (["resolve", "--baseline", "hb1", "--in", "{doubled}", "--out", "{out}", "--jobs", "1"],
                      "input", "jsonl"),
    "resolve-jobs2": (["resolve", "--baseline", "hb1", "--in", "{doubled}", "--out", "{out}", "--jobs", "2"],
                      "input", "jsonl"),
    "stats": (["stats", "--in", "{doubled}"], "input", "jsonl"),
    "score": (["score", "--key", "{gold}", "--response", "{doubled}"], "response", "jsonl"),
    "score-conll": (["score", "--key", "{doubled}", "--response", "{gold}"], "key", "conll"),
    "errors": (["errors", "--key", "{doubled}", "--response", "{gold}"], "key", "jsonl"),
    "correction-stats": (["correction-stats", "--pred", "{gold}", "--gold", "{doubled}"], "gold", "jsonl"),
}


class TestCheckedRecords:
    """Every command reads its records through one check: a repeated document
    id, or a record the reader rejects, exits 1 with one line naming the file."""

    @staticmethod
    def _files(gold_corpus, tmp_path, fmt) -> dict[str, Path]:
        docs = read_native(gold_corpus.read_text(encoding="utf-8"))
        units = [write_native_string([doc]) if fmt == "jsonl" else write_conll(doc) for doc in docs]
        paths = {"gold": tmp_path / f"gold.{fmt}", "doubled": tmp_path / f"doubled.{fmt}", "out": tmp_path / "out"}
        paths["gold"].write_text("".join(units), encoding="utf-8")
        paths["doubled"].write_text("".join(units[:1] + units), encoding="utf-8")
        paths["out"].write_text("earlier output\n", encoding="utf-8")
        return paths

    @pytest.mark.parametrize("run", RECORD_READERS)
    def test_repeated_id_exits_1_with_one_line(self, gold_corpus, tmp_path, capsys, run):
        args, role, fmt = RECORD_READERS[run]
        paths = self._files(gold_corpus, tmp_path, fmt)
        doc_id = read_native(gold_corpus.read_text(encoding="utf-8"))[0].thread.id
        assert main([a.format(**paths) for a in args]) == 1
        assert capsys.readouterr() == ("", f"error: {role} file {paths['doubled']} repeats document id {doc_id!r}\n")
        assert paths["out"].read_text(encoding="utf-8") == "earlier output\n"
        # the workers of a failed --jobs run are gone when main returns
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("run", [r for r in RECORD_READERS if RECORD_READERS[r][1] == "input"])
    def test_record_error_names_the_input_file(self, gold_corpus, tmp_path, capsys, run):
        args = RECORD_READERS[run][0]
        lines = gold_corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(lines[:1] + ['{"id": 5}\n'] + lines[1:]), encoding="utf-8")
        out = tmp_path / "out"
        assert main([a.format(doubled=bad, out=out) for a in args]) == 1
        assert capsys.readouterr() == ("", f"error: input file {bad}: line 2: $.id: thread id must be a string\n")
        assert not out.exists()

    @pytest.mark.parametrize("command,first,second,roles", PAIRING_COMMANDS)
    def test_conll_byte_order_mark_exits_1(self, gold_corpus, tmp_path, capsys, command, first, second, roles):
        # the mark hides the "#" of "#begin document", which reads as CoNLL after it
        conll = tmp_path / "bom.conll"
        conll.write_bytes(b"\xef\xbb\xbf" + write_conll_documents(
            read_native(gold_corpus.read_text(encoding="utf-8"))).encode("utf-8"))
        assert main([command, first, str(conll), second, str(conll)]) == 1
        assert capsys.readouterr() == (
            "", f"error: {roles[0]} file {conll}: line 1: unexpected UTF-8 byte order mark\n")

    @pytest.mark.parametrize("content", [b"", b"\n \r\n", None], ids=["empty", "blank", "devnull"])
    def test_empty_file_is_named_empty(self, tmp_path, capsys, content):
        path = Path(os.devnull) if content is None else tmp_path / "empty.txt"
        if content is not None:
            path.write_bytes(content)
        out = tmp_path / "out.jsonl"
        assert main(["parse", "--in", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", f"error: input {path} is empty, not a thread directory or a thread file\n")
        assert not out.exists()
        # a command that reads JSONL reads it as no record
        assert main(["stats", "--in", str(path)]) == 0
        assert "email_threads\t0\n" in capsys.readouterr().out


@pytest.mark.parametrize("command,first,second,roles", PAIRING_COMMANDS)
class TestPairing:
    """score, errors and correction-stats read both files one document at a time."""

    fmt = "native"

    @staticmethod
    def _run(capsys, command, first, second, first_path, second_path):
        code = main([command, first, str(first_path), second, str(second_path)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def _units(self, gold_corpus, tmp_path):
        """The gold corpus as the text of each document in ``self.fmt``, and a
        function that writes such texts to a file of that format."""
        lines = gold_corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        native = self.fmt == "native"
        units = lines if native else [write_conll(doc) for doc in read_native("".join(lines))]
        suffix = ".jsonl" if native else ".conll"

        def write(name, texts):
            path = tmp_path / (name + suffix)
            path.write_text("".join(texts), encoding="utf-8")
            return path

        return units, write

    def test_other_order_pairs_by_id(self, gold_corpus, tmp_path, capsys, command, first, second, roles):
        units, write = self._units(gold_corpus, tmp_path)
        gold = write("gold", units)
        moved = write("moved", units[3:] + units[1:3][::-1] + units[:1])
        expected = self._run(capsys, command, first, second, gold, gold)
        assert expected[0] == 0
        assert self._run(capsys, command, first, second, gold, moved) == expected

    def test_extra_malformed_record_exits_1(self, gold_corpus, tmp_path, capsys, command, first, second, roles):
        units, write = self._units(gold_corpus, tmp_path)
        if self.fmt == "native":
            broken = "{broken\n"
            message = "line 9: invalid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
        else:
            broken = "#begin document (broken); part 000\nbroken\n#end document\n"
            row = "".join(units).count("\n") + 2
            message = f"line {row}: expected >= 5 columns, got 1"
        gold, extra = write("gold", units), write("extra", units + [broken])
        assert self._run(capsys, command, first, second, gold, extra) == (
            1, "", f"error: {roles[1]} file {extra}: {message}\n")

    def test_missing_document_exits_1(self, gold_corpus, tmp_path, capsys, command, first, second, roles):
        units, write = self._units(gold_corpus, tmp_path)
        gold, missing = write("gold", units), write("missing", units[:2] + units[3:])
        doc_id = read_native(gold_corpus.read_text(encoding="utf-8"))[2].thread.id
        assert self._run(capsys, command, first, second, gold, missing) == (
            1, "", f"error: {roles[1]} file {missing} has no document {doc_id!r}\n")


class TestConllPairing(TestPairing):
    """The same cases with both files in CoNLL columns."""

    fmt = "conll"


class TestPairReader:
    """A response line that repeats its key line's bytes up to the top-level
    "chains" key has only its chains parsed; every pair command prints what
    it prints with each record decoded in full, in both pairing orders."""

    SOURCES = ["corpus10-gold", "example1-gold", "mail_wide", "mail_long"]
    RESPONSES = ["resolved", "features", "redumped", "reversed", "token-changed", "later-messages",
                 "other-source-path"]

    @staticmethod
    def _responses(key: Path, root: Path) -> tuple[dict[str, Path], int]:
        """Each response made from ``key``, and the index of the record that
        the one-record changes change: the first that holds a chain."""
        paths = {name: root / f"{name}.jsonl" for name in TestPairReader.RESPONSES}
        assert main(["resolve", "--baseline", "hb1", "--in", str(key), "--out", str(paths["resolved"])]) == 0
        assert main(["features", "--in", str(paths["resolved"]), "--out", str(paths["features"]), "--mi", "--si"]) == 0
        lines = paths["resolved"].read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        at = next(i for i, record in enumerate(records) if record["chains"])
        changed = copy.deepcopy(records[at])
        token = changed["messages"][0]["sentences"][0][0]
        token[0] += "x"
        texts = {
            "redumped": [json.dumps(record) for record in records],
            "reversed": lines[::-1],
            "token-changed": lines[:at] + [_compact(changed)] + lines[at + 1:],
            "later-messages": lines[:at] + [lines[at][:-1] + ',"messages":[]}'] + lines[at + 1:],
            "other-source-path": [_compact(dict(record, source_path=f"elsewhere/{record['id']}")) for record in records],
        }
        for name, text in texts.items():
            paths[name].write_text("".join(line + "\n" for line in text), encoding="utf-8")
        return paths, at

    @staticmethod
    def _runs(key: Path, response: Path) -> dict[str, list[str]]:
        """score, errors and correction-stats in both pairing orders."""
        key, response = str(key), str(response)
        return {
            "score": ["score", "--key", key, "--response", response],
            "score-reversed": ["score", "--key", response, "--response", key],
            "errors": ["errors", "--key", key, "--response", response],
            "errors-reversed": ["errors", "--key", response, "--response", key],
            "correction-stats": ["correction-stats", "--pred", response, "--gold", key],
            "correction-stats-reversed": ["correction-stats", "--pred", key, "--gold", response],
        }

    @staticmethod
    def _outcome(capsys, args) -> tuple[int, str, str]:
        code = main(args)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def _counted(monkeypatch, name: str) -> list:
        """The results of each call of ``serialization.<name>`` from now on."""
        results = []
        func = getattr(serialization, name)
        monkeypatch.setattr(serialization, name, lambda *a, **k: results.append(func(*a, **k)) or results[-1])
        return results

    @pytest.mark.parametrize("response", RESPONSES)
    @pytest.mark.parametrize("source", SOURCES)
    def test_same_output_as_full_decodes(self, resolve_sources, tmp_path, capsys, monkeypatch, source, response):
        key = resolve_sources[source]
        paths, at = self._responses(key, tmp_path)
        records = len(key.read_text(encoding="utf-8").splitlines())
        runs = self._runs(key, paths[response])
        with monkeypatch.context() as full:
            full.setattr(serialization, "decode_repeat", lambda line, line_no, first: None)
            want = {run: self._outcome(capsys, args) for run, args in runs.items()}
        repeats = self._counted(monkeypatch, "decode_repeat")
        for run, args in runs.items():
            repeats.clear()
            assert self._outcome(capsys, args) == want[run], run
            # the records that take the shared-bytes path: of the reversed
            # response, the partner of the first key record, read last
            shared = {"resolved": records, "features": records, "token-changed": records - 1,
                      "reversed": 1}.get(response, 0)
            if response != "later-messages":
                assert sum(doc is not None for doc in repeats) == shared, run
        if response == "later-messages":
            # JSON keeps the later messages, which hold no token
            record = json.loads(paths[response].read_text(encoding="utf-8").splitlines()[at])
            mention = tuple(record["chains"][0]["mentions"][0][:4])
            for run, (code, out, err) in want.items():
                role = {"score": "response", "errors": "response", "correction-stats": "pred"}[run.removesuffix("-reversed")]
                if run.endswith("-reversed"):
                    role = {"response": "key", "pred": "gold"}[role]
                assert (code, out, err) == (1, "", (
                    f"error: {role} file {paths[response]}: line {at + 1}: document {record['id']!r}: "
                    f"$.chains[0].mentions[0]: mention at {mention} addresses no token\n")), run
        else:
            assert all(code == 0 for code, _, _ in want.values())

    @pytest.mark.parametrize("tail", ['[{"id":0,"mentions":[[0,0,0,NaN]]}]}', '[{"id":0,"mentions":[[0,0,0,-Infinity]]}]}',
                                      '[{"id":0,"mentions":[[0,0,0,0]]}', '[{"id":0,"mentions":[[0,0,0,0]]}]}}'])
    @pytest.mark.parametrize("command", ["score", "errors", "correction-stats"])
    def test_unreadable_rest_named_as_in_full(self, gold_corpus, tmp_path, capsys, command, tail):
        # the rest of a line that repeats its key's bytes holds what JSON cannot read
        lines = gold_corpus.read_text(encoding="utf-8").splitlines()
        bad = lines[1][: lines[1].rindex(',"chains":')] + ',"chains":' + tail
        try:
            json.loads(bad, parse_constant=serialization._reject_constant)
        except ValueError as exc:
            message = f"line 2: invalid JSON: {exc}"
        path = tmp_path / "response.jsonl"
        path.write_text("\n".join([lines[0], bad, *lines[2:]]) + "\n", encoding="utf-8")
        role, args = {
            "score": ("response", ["score", "--key", str(gold_corpus), "--response", str(path)]),
            "errors": ("response", ["errors", "--key", str(gold_corpus), "--response", str(path)]),
            "correction-stats": ("gold", ["correction-stats", "--pred", str(gold_corpus), "--gold", str(path)]),
        }[command]
        assert main(args) == 1
        assert capsys.readouterr() == ("", f"error: {role} file {path}: {message}\n")

    @pytest.mark.parametrize("source", SOURCES)
    def test_unpaired_record_first(self, resolve_sources, tmp_path, capsys, monkeypatch, source):
        # a copy of the first record under another id, which no key record
        # asks for, waits in the read-ahead index to the end; each partner
        # after it still repeats the latest key line's bytes
        key = resolve_sources[source]
        paths, _ = self._responses(key, tmp_path)
        lines = paths["resolved"].read_text(encoding="utf-8").splitlines()
        unpaired = dict(json.loads(lines[0]), id="unpaired")
        response = tmp_path / "unpaired.jsonl"
        response.write_text("".join(line + "\n" for line in [_compact(unpaired), *lines]), encoding="utf-8")
        # the runs that read the response second, which holds the unpaired record
        runs = {run: args for run, args in self._runs(key, response).items() if args[-1] == str(response)}
        want = {run: self._outcome(capsys, self._runs(key, paths["resolved"])[run]) for run in runs}
        repeats = self._counted(monkeypatch, "decode_repeat")
        for run, args in runs.items():
            repeats.clear()
            assert self._outcome(capsys, args) == want[run] and want[run][0] == 0, run
            assert sum(doc is not None for doc in repeats) == len(lines), run

    @pytest.mark.parametrize("source", SOURCES)
    def test_a_repeated_record_is_decoded_once(self, resolve_sources, tmp_path, capsys, monkeypatch, source):
        key = resolve_sources[source]
        paths, _ = self._responses(key, tmp_path)
        records = len(key.read_text(encoding="utf-8").splitlines())
        decoded = self._counted(monkeypatch, "decode_record")
        repeats = self._counted(monkeypatch, "decode_repeat")
        for run, args in self._runs(key, paths["resolved"]).items():
            decoded.clear()
            repeats.clear()
            assert main(args) == 0, run
            # once for each record of the file whose order the pairs follow, never for its partner
            assert len(decoded) == records, run
            assert len(repeats) == records and all(doc is not None for doc in repeats), run
        capsys.readouterr()


@pytest.mark.parametrize("command,first,second,roles", PAIRING_COMMANDS)
class TestFormatByContent:
    """A file is CoNLL when its first nonblank line starts with "#", whatever its name."""

    @staticmethod
    def _run(capsys, command, first, second, path):
        code = main([command, first, str(path), second, str(path)])
        return code, *capsys.readouterr()

    def test_native_file_named_conll(self, gold_corpus, tmp_path, capsys, command, first, second, roles):
        named = tmp_path / "gold.conll"
        named.write_bytes(gold_corpus.read_bytes())
        expected = self._run(capsys, command, first, second, gold_corpus)
        assert expected[0] == 0
        assert self._run(capsys, command, first, second, named) == expected

    def test_conll_file_named_txt_opening_with_a_comment(
        self, gold_corpus, tmp_path, capsys, command, first, second, roles
    ):
        columns = write_conll_documents(read_native(gold_corpus.read_text(encoding="utf-8")))
        conll, named = tmp_path / "gold.conll", tmp_path / "gold.txt"
        conll.write_text(columns, encoding="utf-8")
        named.write_text("\n  # exported by hand\n" + columns, encoding="utf-8")
        expected = self._run(capsys, command, first, second, conll)
        assert expected[0] == 0
        assert self._run(capsys, command, first, second, named) == expected


@pytest.mark.parametrize("command,first,second,roles", PAIRING_COMMANDS)
class TestMixedFormats:
    """The formats address mentions differently: a mixed pair once scored low or crashed."""

    @staticmethod
    def _conll(gold_corpus, tmp_path):
        conll = tmp_path / "gold.conll"
        conll.write_text(write_conll_documents(read_native(gold_corpus.read_text(encoding="utf-8"))),
                         encoding="utf-8")
        return conll

    @pytest.mark.parametrize("first_format", ["native JSONL", "CoNLL"])
    def test_exits_1(self, gold_corpus, tmp_path, capsys, command, first, second, roles, first_format):
        paths = {"native JSONL": gold_corpus, "CoNLL": self._conll(gold_corpus, tmp_path)}
        second_format = "CoNLL" if first_format == "native JSONL" else "native JSONL"
        first_path, second_path = paths[first_format], paths[second_format]
        assert main([command, first, str(first_path), second, str(second_path)]) == 1
        assert capsys.readouterr() == ("", (
            f"error: {roles[0]} file {first_path} is {first_format} but {roles[1]} file "
            f"{second_path} is {second_format}; both must be in one format\n"))

    def test_first_file_fault_reported_first(self, gold_corpus, tmp_path, capsys, command, first, second, roles):
        broken = tmp_path / "broken.jsonl"
        broken.write_text("{broken\n", encoding="utf-8")
        conll = self._conll(gold_corpus, tmp_path)
        assert main([command, first, str(broken), second, str(conll)]) == 1
        assert capsys.readouterr() == ("", (
            f"error: {roles[0]} file {broken}: line 1: invalid JSON: Expecting property name enclosed in "
            "double quotes: line 1 column 2 (char 1)\n"))


class TestRepeatedMentions:
    """A mention in two chains is an error in every command that reads chains."""

    @staticmethod
    def _shared_mention(gold_corpus, tmp_path):
        records = [json.loads(line) for line in gold_corpus.read_text(encoding="utf-8").splitlines()]
        chains = records[0]["chains"]
        chains[1]["mentions"].append(list(chains[0]["mentions"][0]))
        path = tmp_path / "shared.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        location = tuple(chains[0]["mentions"][0][:4])
        at = f"$.chains[1].mentions[{len(chains[1]['mentions']) - 1}]"
        return path, (f"line 1: document {records[0]['id']!r}: {at}: "
                      f"mention at {location} is already in chain {chains[0]['id']}")

    @pytest.mark.parametrize("command", ["score", "errors", "correction-stats", "stats", "resolve"])
    def test_exits_1_with_one_line(self, gold_corpus, tmp_path, capsys, command):
        shared, message = self._shared_mention(gold_corpus, tmp_path)
        args = {
            "score": ["--key", gold_corpus, "--response", shared],
            "errors": ["--key", gold_corpus, "--response", shared],
            "correction-stats": ["--pred", gold_corpus, "--gold", shared],
            "stats": ["--in", shared],
            "resolve": ["--baseline", "hb1", "--in", shared, "--out", tmp_path / "out.jsonl"],
        }[command]
        # every command names the file it read the record from
        role = {"score": "response", "errors": "response", "correction-stats": "gold"}.get(command, "input")
        where = f"{role} file {shared}: "
        assert main([command, *map(str, args)]) == 1
        assert capsys.readouterr() == ("", f"error: {where}{message}\n")

    @pytest.mark.parametrize("command", ["score", "errors"])
    def test_conll_span_in_two_chains(self, gold_corpus, tmp_path, capsys, command):
        text = write_conll(read_native(gold_corpus.read_text(encoding="utf-8"))[0])
        lines = text.split("\n")
        row = next(i for i, line in enumerate(lines) if line.endswith("\t-"))
        lines[row] = lines[row][:-1] + "(900)|(901)"
        response = tmp_path / "shared.conll"
        response.write_text("\n".join(lines), encoding="utf-8")
        key = tmp_path / "key.conll"
        key.write_text(text, encoding="utf-8")
        assert main([command, "--key", str(key), "--response", str(response)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: response file {response}: line {row + 1}: chain 901: span at sentence ")
        assert err.endswith(" is already in chain 900\n") and err.count("\n") == 1


class TestSpanAddressesNoToken:
    """A mention that addresses no token is an error in every command that reads chains."""

    @pytest.mark.parametrize("move", ["sentence 999", "past the sentence end"])
    @pytest.mark.parametrize("command", ["stats", "features", "resolve", "score", "errors", "correction-stats"])
    def test_exits_1_with_one_line(self, gold_corpus, tmp_path, capsys, command, move):
        records = [json.loads(line) for line in gold_corpus.read_text(encoding="utf-8").splitlines()]
        mention = records[1]["chains"][0]["mentions"][0]
        if move == "sentence 999":
            mention[1] = 999
        else:
            mention[3] = len(records[1]["messages"][mention[0]]["sentences"][mention[1]])
        stray = tmp_path / "stray.jsonl"
        stray.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        out = tmp_path / "out.jsonl"
        args = {
            "stats": ["--in", stray],
            "features": ["--in", stray, "--out", out, "--rev"],
            "resolve": ["--baseline", "hb1", "--in", stray, "--out", out],
            "score": ["--key", gold_corpus, "--response", stray],
            "errors": ["--key", stray, "--response", gold_corpus],
            "correction-stats": ["--pred", gold_corpus, "--gold", stray],
        }[command]
        # every command names the file it read the record from
        role = {"score": "response", "errors": "key", "correction-stats": "gold"}.get(command, "input")
        where = f"{role} file {stray}: "
        assert main([command, *map(str, args)]) == 1
        assert capsys.readouterr() == ("", (
            f"error: {where}line 2: document {records[1]['id']!r}: "
            f"$.chains[0].mentions[0]: mention at {tuple(mention[:4])} addresses no token\n"))
        assert not out.exists()


# command -> (arguments, with {input} for the file or files read and {out}
# for a file written; the kinds of input the command reads)
INPUT_RULE_COMMANDS = {
    "parse": (["--in", "{input}", "--out", "{out}"], ("a thread directory", "a thread file")),
    "filter": (["--in", "{input}", "--report", "{out}"], ("a thread directory", "a thread file", "native JSONL")),
    "features": (["--in", "{input}", "--out", "{out}", "--mi", "--si"], ("native JSONL",)),
    "resolve": (["--baseline", "hb2", "--in", "{input}", "--out", "{out}"], ("native JSONL",)),
    "stats": (["--in", "{input}"], ("native JSONL",)),
    "score": (["--key", "{input}", "--response", "{input}"], ("native JSONL", "CoNLL")),
    "errors": (["--key", "{input}", "--response", "{input}"], ("native JSONL", "CoNLL")),
    "correction-stats": (["--pred", "{input}", "--gold", "{input}"], ("native JSONL", "CoNLL")),
}
# what each kind of input holds, as messages name it; an empty file is native JSONL
INPUT_KINDS = {
    "directory": "a thread directory",
    "thread": "a thread file",
    "jsonl": "native JSONL",
    "conll": "CoNLL",
    "empty": "native JSONL",
}


class TestOneInputRule:
    """Every command tells what its input holds by one rule, and reads it or
    exits 1 with one line that names the path and what it holds."""

    # how a pair command names its first file, the one it reads first
    ROLES = {"score": "key file", "errors": "key file", "correction-stats": "pred file"}

    @staticmethod
    def _inputs(gold_corpus, tmp_path) -> dict[str, Path]:
        directory = tmp_path / "threads"
        directory.mkdir()
        (directory / "example1.txt").write_bytes((DATA_DIR / "example1.txt").read_bytes())
        conll = tmp_path / "gold.conll"
        conll.write_text(write_conll_documents(read_native(gold_corpus.read_text(encoding="utf-8"))),
                         encoding="utf-8")
        empty = tmp_path / "empty.txt"
        empty.write_bytes(b"")
        return {"directory": directory, "thread": DATA_DIR / "example1.txt", "jsonl": gold_corpus,
                "conll": conll, "empty": empty}

    @pytest.mark.parametrize("source", INPUT_KINDS)
    @pytest.mark.parametrize("command", INPUT_RULE_COMMANDS)
    def test_reads_its_kinds_and_names_any_other(self, gold_corpus, tmp_path, capsys, command, source):
        args, kinds = INPUT_RULE_COMMANDS[command]
        path, out = self._inputs(gold_corpus, tmp_path)[source], tmp_path / "out"
        status = main([command, *(a.format(input=path, out=out) for a in args)])
        captured = capsys.readouterr()
        kind = INPUT_KINDS[source]
        if kind in kinds:
            assert (status, captured.err) == (0, "")
            return
        role = self.ROLES.get(command, "input")
        # a refused empty file is named as such, not as the JSONL it reads as
        held = "empty" if source == "empty" else kind
        assert (status, captured.out) == (1, "")
        assert captured.err.startswith(f"error: {role} {path} is {held}, not ") and captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("accepted", [True, False], ids=["accepted", "refused"])
    @pytest.mark.parametrize("command", INPUT_RULE_COMMANDS)
    def test_standard_input_on_a_pipe(self, gold_corpus, tmp_path, command, accepted):
        # a pipe is read once: the lines read to tell what it holds are read again from memory
        args, kinds = INPUT_RULE_COMMANDS[command]
        inputs = self._inputs(gold_corpus, tmp_path)
        if accepted:
            source = "thread" if command == "parse" else "jsonl"
        else:
            source = "jsonl" if command == "parse" else "thread" if "CoNLL" in kinds else "conll"
        piped = inputs[source]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        runs = []
        for path in (piped, "/dev/stdin"):
            out = tmp_path / f"out{len(runs)}"
            argv = [a.format(input=path, out=out) for a in args]
            if command in ("score", "errors", "correction-stats"):
                argv[3] = str(piped)  # the second file is a regular file
            done = subprocess.run([sys.executable, "-m", "threadcoref.cli", command, *argv],
                                  input=piped.read_bytes(), capture_output=True, env=env, timeout=120)
            runs.append((done.returncode, done.stdout, done.stderr, out.read_bytes() if out.exists() else None))
        if accepted:
            assert (runs[0][0], runs[0][2]) == (0, b"")
            # a thread read from a pipe is named after it
            renamed = runs[0][3] and runs[0][3].replace(b'"example1.txt"', b'"stdin"')
            assert runs[1] == (*runs[0][:3], renamed)
        else:
            role = self.ROLES.get(command, "input")
            assert runs[1][:2] == (1, b"") and runs[1][3] is None
            message = runs[1][2].decode()
            assert message.startswith(f"error: {role} /dev/stdin is {INPUT_KINDS[source]}, not ")
            assert message.count("\n") == 1


class TestRemovedJobsFlag:
    @pytest.mark.parametrize("args", [
        ["features", "--in", "x", "--out", "y"],
        ["score", "--key", "x", "--response", "y"],
        ["errors", "--key", "x", "--response", "y"],
        ["stats", "--in", "x"],
        ["correction-stats", "--pred", "x", "--gold", "y"],
    ], ids=lambda args: args[0])
    def test_commands_without_workers_reject_jobs(self, args, capsys):
        with pytest.raises(SystemExit) as err:
            main(args + ["--jobs", "2"])
        assert err.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


class TestRemovedFormatFlags:
    """The pair commands tell each file's format from its content, and
    features --rev is a flag with one order."""

    @pytest.mark.parametrize("args", [
        ["score", "--key", "x", "--response", "y", "--format", "native"],
        ["errors", "--key", "x", "--response", "y", "--format", "conll"],
        ["correction-stats", "--pred", "x", "--gold", "y", "--format", "auto"],
        ["features", "--in", "x", "--out", "y", "--rev", "--direction", "descending"],
    ], ids=lambda args: args[0])
    def test_rejected(self, args, capsys):
        with pytest.raises(SystemExit) as err:
            main(args)
        assert err.value.code == 2
        assert f"unrecognized arguments: {' '.join(args[-2:])}" in capsys.readouterr().err


class TestRemovedPrettyFlag:
    @pytest.mark.parametrize("args", [
        ["parse", "--in", "x", "--out", "y"],
        ["features", "--in", "x", "--out", "y"],
        ["resolve", "--baseline", "hb1", "--in", "x", "--out", "y"],
    ], ids=lambda args: args[0])
    def test_jsonl_writers_reject_pretty(self, args, capsys):
        with pytest.raises(SystemExit) as err:
            main(args + ["--pretty"])
        assert err.value.code == 2
        assert "unrecognized arguments: --pretty" in capsys.readouterr().err


class TestRemovedMarkerFlags:
    """The separator and footer marker phrases are fixed: no command takes a file of them."""

    @pytest.mark.parametrize("command", ["parse", "filter"])
    @pytest.mark.parametrize("flag", ["--separators", "--footers"])
    def test_rejected_and_nothing_written(self, tmp_path, capsys, command, flag):
        markers = tmp_path / "markers.txt"
        markers.write_text("- forwarded by\n", encoding="utf-8")
        output = "--out" if command == "parse" else "--report"
        with pytest.raises(SystemExit) as err:
            main([command, "--in", str(CORPUS10_DIR), output, str(tmp_path / "out"), flag, str(markers)])
        assert err.value.code == 2
        assert f"unrecognized arguments: {flag} {markers}" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["markers.txt"]


class TestInvalidUtf8:
    """A text input that is not UTF-8 ends the command with one line naming the file."""

    @pytest.mark.parametrize("args", [
        ["stats", "--in", "{bad}"],
        ["features", "--in", "{bad}", "--out", "{out}"],
        ["resolve", "--baseline", "hb1", "--in", "{bad}", "--out", "{out}"],
        ["score", "--key", "{gold}", "--response", "{bad}"],
        ["score", "--key", "{bad}", "--response", "{gold}"],
        ["score", "--key", "{conll}", "--response", "{bad_conll}"],
        ["errors", "--key", "{gold}", "--response", "{bad}"],
        ["correction-stats", "--pred", "{bad}", "--gold", "{gold}"],
        ["filter", "--in", "{bad}", "--report", "{out}"],
        ["filter", "--in", "{gold}", "--report", "{out}", "--exclude-fingerprints", "{bad}"],
    ], ids=lambda args: "-".join(a.strip("{}-") for a in args if not a.startswith("/")))
    def test_exits_1_with_one_line(self, gold_corpus, tmp_path, capsys, example1_document, args):
        # a valid first line, so that streaming readers fail part way through
        first_line = gold_corpus.read_bytes().split(b"\n")[0]
        paths = {
            "gold": gold_corpus,
            "bad": tmp_path / "bad.jsonl",
            "conll": tmp_path / "key.conll",
            "bad_conll": tmp_path / "bad.conll",
            "out": tmp_path / "out",
        }
        paths["bad"].write_bytes(first_line + b'\n{"id":"a\xff"}\n')
        paths["conll"].write_text(write_conll(example1_document), encoding="utf-8")
        paths["bad_conll"].write_bytes(paths["conll"].read_bytes().replace(b"\t-\n", b"\t\xff\n", 1))
        argv = [a.format(**paths) for a in args]
        assert main(argv) == 1
        bad = paths["bad_conll"] if "{bad_conll}" in args else paths["bad"]
        assert capsys.readouterr().err == f"error: {bad} is not valid UTF-8: invalid start byte\n"
        assert not paths["out"].exists()


class TestUnreadablePath:
    """A directory where a file is expected ends the command with one line naming it."""

    @pytest.mark.parametrize("args", [
        ["score", "--key", "{dir}", "--response", "{gold}"],
        ["stats", "--in", "{dir}"],
        ["features", "--in", "{dir}", "--out", "{out}"],
        ["resolve", "--baseline", "hb1", "--in", "{dir}", "--out", "{out}"],
        ["correction-stats", "--pred", "{dir}", "--gold", "{gold}"],
        ["filter", "--in", "{gold}", "--report", "{out}", "--exclude-fingerprints", "{dir}"],
    ], ids=lambda args: args[0])
    def test_directory_exits_1_with_one_line(self, gold_corpus, tmp_path, capsys, args):
        paths = {"gold": gold_corpus, "dir": tmp_path / "dir", "out": tmp_path / "out"}
        paths["dir"].mkdir()
        assert main([a.format(**paths) for a in args]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and str(paths["dir"]) in err
        assert not paths["out"].exists()


class TestUnreadableNumbers:
    """NaN and Infinity are not JSON, and an integer too long for int() is not
    readable: a record holding one is rejected at its line."""

    @staticmethod
    def _nonfinite(gold_corpus, tmp_path, line: int) -> Path:
        lines = gold_corpus.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[line - 1])
        sentences = record["messages"][0]["sentences"]
        sentences[0][0][2] = float("nan")
        sentences[-1][-1][3] = float("inf")
        lines[line - 1] = json.dumps(record)
        path = tmp_path / "nonfinite.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("args", [
        ["stats", "--in", "{bad}"],
        ["features", "--in", "{bad}", "--out", "{out}", "--mi", "--si"],
        ["score", "--key", "{gold}", "--response", "{bad}"],
    ], ids=lambda args: args[0])
    def test_exits_1_naming_the_line(self, gold_corpus, tmp_path, capsys, args):
        bad = self._nonfinite(gold_corpus, tmp_path, line=2)
        assert "NaN" in bad.read_text(encoding="utf-8")
        out = tmp_path / "out.jsonl"
        argv = [a.format(bad=bad, gold=gold_corpus, out=out) for a in args]
        assert main(argv) == 1
        # every command names the file it read the record from
        where = f"{'response' if args[0] == 'score' else 'input'} file {bad}: "
        assert capsys.readouterr().err == f"error: {where}line 2: invalid JSON: NaN is not a JSON number\n"
        assert not out.exists()

    def test_infinity_alone(self, gold_corpus, tmp_path, capsys):
        record = json.loads(gold_corpus.read_text(encoding="utf-8").splitlines()[0])
        record["messages"][-1]["sentences"][-1][-1][3] = float("-inf")
        bad = tmp_path / "inf.jsonl"
        bad.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(["stats", "--in", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: input file {bad}: line 1: invalid JSON: -Infinity is not a JSON number\n"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int() digit limit")
    def test_oversized_integer(self, gold_corpus, tmp_path, capsys):
        line = gold_corpus.read_text(encoding="utf-8").splitlines()[0]
        bad = tmp_path / "long.jsonl"
        bad.write_text(line.replace('"h",0,', '"h",' + "1" * 5000 + ",", 1) + "\n", encoding="utf-8")
        assert main(["stats", "--in", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: input file {bad}: line 1: invalid JSON: Exceeds the limit") and err.count("\n") == 1

    def test_writer_refuses_nonfinite_offsets(self, gold_corpus):
        doc = read_native(gold_corpus.read_text(encoding="utf-8"))[0]
        last = doc.thread.messages[-1]
        *sentences, final = last.sentences
        final = (*final[:-1], final[-1]._replace(char_end=float("inf")))
        # the checked constructors accept it: every comparison with inf holds
        last = last._replace(sentences=(*sentences, final))
        doc = doc._replace(thread=doc.thread._replace(messages=(*doc.thread.messages[:-1], last)))
        with pytest.raises(ValueError, match="not JSON compliant"):
            write_native([doc], io.StringIO())


class TestNonIntegerNumbers:
    """Offsets, mention indices and chain ids are JSON integers: a record with a
    float or a boolean there is rejected, naming the value's path."""

    @staticmethod
    def _record(gold_corpus, tmp_path, edit) -> tuple[Path, str]:
        record = json.loads(gold_corpus.read_text(encoding="utf-8").splitlines()[0])
        edit(record)
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        return path, f"line 1: document {record['id']!r}"

    @pytest.mark.parametrize("args", [
        ["stats", "--in", "{bad}"],
        ["features", "--in", "{bad}", "--out", "{out}", "--mi", "--si"],
    ], ids=lambda args: args[0])
    def test_fractional_offset(self, gold_corpus, tmp_path, capsys, args):
        def edit(record):
            record["messages"][0]["sentences"][0][0][2] = 0.5
        bad, where = self._record(gold_corpus, tmp_path, edit)
        out = tmp_path / "out.jsonl"
        assert main([a.format(bad=bad, out=out) for a in args]) == 1
        assert capsys.readouterr().err == (
            f"error: input file {bad}: {where}: $.messages[0].sentences[0][0]: char_start must be an integer, got 0.5\n"
        )
        assert not out.exists()

    def test_boolean_mention_index_and_chain_id(self, gold_corpus, tmp_path, capsys):
        def edit(record):
            record["chains"][0]["mentions"][0][1] = True
        bad, where = self._record(gold_corpus, tmp_path, edit)
        assert main(["stats", "--in", str(bad)]) == 1
        assert capsys.readouterr().err == (
            f"error: input file {bad}: {where}: $.chains[0].mentions[0]: sentence_index must be an integer, got True\n"
        )

        def edit(record):
            record["chains"][0]["id"] = True
        bad, where = self._record(gold_corpus, tmp_path, edit)
        assert main(["stats", "--in", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: input file {bad}: {where}: $.chains[0].id: chain id must be an int\n"


class TestPipedInput:
    """A pair command reads a file that can be read only once, such as a pipe:
    the lines read to tell its format are not lost."""

    @pytest.mark.parametrize("fmt", ["native", "conll"])
    @pytest.mark.parametrize("piped", ["--key", "--response"])
    def test_score_reads_stdin(self, gold_corpus, tmp_path, fmt, piped):
        path = gold_corpus
        if fmt == "conll":
            path = tmp_path / "gold.conll"
            path.write_text(write_conll_documents(read_native(gold_corpus.read_text(encoding="utf-8"))),
                            encoding="utf-8")
        files = {"--key": str(path), "--response": str(path), piped: "/dev/stdin"}
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "threadcoref.cli", "score", *(a for o in files.items() for a in o)],
            input=path.read_text(encoding="utf-8"), capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        header, values = proc.stdout.splitlines()
        assert dict(zip(header.split("\t"), values.split("\t")))["avg_f1"] == "1.0000"


class TestClosedStdout:
    """A reader that closes the pipe early ends the command quietly with exit 1."""

    @staticmethod
    def _run(args: list[str], stdout, buffered: bool = True, shell_redirect: str = "") -> subprocess.CompletedProcess:
        """The CLI as a child process, its stdout redirected by ``shell_redirect`` if given."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env.update(PYTHONPATH=str(src), **({} if buffered else {"PYTHONUNBUFFERED": "1"}))
        argv = [sys.executable, "-m", "threadcoref.cli", *args]
        if shell_redirect:
            argv = ["sh", "-c", f'exec "$@" {shell_redirect}', "sh", *argv]
        return subprocess.run(argv, stdout=stdout, stderr=subprocess.PIPE, env=env, text=True)

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["stats", "score"])
    def test_broken_pipe_exits_1_without_traceback(self, gold_corpus, command, buffered):
        args = ["stats", "--in", str(gold_corpus)] if command == "stats" else [
            "score", "--key", str(gold_corpus), "--response", str(gold_corpus)]
        # buffered, the pipe fails at the flush; unbuffered, at the first write
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self._run(args, write_end, buffered)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) <= 1, proc.stderr
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["stats", "score"])
    def test_full_stdout_exits_1_with_one_line(self, gold_corpus, command, buffered):
        # buffered, the write fails at the flush and the bytes stay buffered:
        # the flush at interpreter exit must not try them again
        args = ["stats", "--in", str(gold_corpus)] if command == "stats" else [
            "score", "--key", str(gold_corpus), "--response", str(gold_corpus)]
        with open("/dev/full", "w") as full:
            proc = self._run(args, full, buffered)
        assert (proc.returncode, proc.stderr) == (1, "error: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("command", ["parse", "filter", "features", "resolve"])
    def test_file_commands_run_with_stdout_closed(self, gold_corpus, tmp_path, command):
        source = str(CORPUS10_DIR if command in ("parse", "filter") else gold_corpus)
        args = {
            "parse": ["parse", "--in", source, "--out", "{out}"],
            "filter": ["filter", "--in", source, "--report", "{out}"],
            "features": ["features", "--in", source, "--out", "{out}", "--mi", "--si", "--rev"],
            "resolve": ["resolve", "--baseline", "hb2", "--in", source, "--out", "{out}"],
        }[command]
        want, got = tmp_path / "want", tmp_path / "got"
        assert main([a.format(out=want) for a in args]) == 0
        proc = self._run([a.format(out=got) for a in args], None, shell_redirect=">&-")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert got.read_bytes() == want.read_bytes()

    # the commands that write a table to standard output, and their arguments
    TABLE_COMMANDS = {
        "stats": ["stats", "--in", "{path}"],
        "score": ["score", "--key", "{path}", "--response", "{path}"],
        "errors": ["errors", "--key", "{path}", "--response", "{path}"],
        "correction-stats": ["correction-stats", "--pred", "{path}", "--gold", "{path}"],
    }

    @pytest.mark.parametrize("command", TABLE_COMMANDS)
    def test_table_commands_exit_1_with_stdout_closed(self, gold_corpus, command):
        args = [a.format(path=gold_corpus) for a in self.TABLE_COMMANDS[command]]
        proc = self._run(args, None, shell_redirect=">&-")
        assert (proc.returncode, proc.stderr) == (1, "error: standard output is closed\n")

    @pytest.mark.parametrize("command", TABLE_COMMANDS)
    def test_closed_stdout_is_refused_before_any_input_is_read(self, gold_corpus, capsys, monkeypatch, command):
        from unittest import mock

        args = [a.format(path=gold_corpus) for a in self.TABLE_COMMANDS[command]]
        monkeypatch.setattr(sys, "stdout", None)
        with mock.patch.object(serialization, "decode_record", side_effect=AssertionError("a record was read")):
            assert main(args) == 1
        assert capsys.readouterr().err == "error: standard output is closed\n"


class TestCollectorPolicy:
    @staticmethod
    def _state():
        return gc.get_threshold(), gc.isenabled(), gc.get_freeze_count()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_restores_collector_state(self, gold_corpus, tmp_path, capsys, monkeypatch, enabled):
        # whether the collector is on when the handler opens its input
        while_running = []
        open_input = cli._open_input

        def spy(*args, **kwargs):
            while_running.append(gc.isenabled())
            return open_input(*args, **kwargs)

        monkeypatch.setattr(cli, "_open_input", spy)
        saved = self._state()
        gc.set_threshold(1234, 7, 9)
        if not enabled:
            gc.disable()
        try:
            before = self._state()
            assert main(["stats", "--in", str(gold_corpus)]) == 0
            assert self._state() == before
            assert main(["stats", "--in", str(tmp_path / "absent.jsonl")]) == 1
            assert self._state() == before
            bad = tmp_path / "bad.jsonl"
            bad.write_text("{broken\n", encoding="utf-8")
            assert main(["features", "--in", str(bad), "--out", str(tmp_path / "out.jsonl")]) == 1
            assert self._state() == before
        finally:
            gc.set_threshold(*saved[0])
            gc.enable() if saved[1] else gc.disable()
        assert while_running == [False, False, False]

    def test_read_documents_hold_no_reference_cycles(self, gold_corpus, tmp_path):
        # so what a command builds is freed by reference counting while the
        # collector is off; it is off here too, so no automatic pass can
        # free a cycle before the count below
        from threadcoref import baselines, errors, features, filtering, metrics, parsing, serialization

        conll = tmp_path / "gold.conll"
        conll.write_text(
            serialization.write_conll_documents(read_native(gold_corpus.read_text(encoding="utf-8"))),
            encoding="utf-8",
        )
        raws = [
            parsing.RawThread(id=path.name, text=path.read_text(encoding="utf-8"), source_path=path.name)
            for path in sorted(CORPUS10_DIR.glob("*.txt"))
        ]
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            lines = cli._open_input(str(gold_corpus), "input", (cli._JSONL,))
            next(lines)
            docs = [serialization.decode_line(line, line_no) for line_no, line in lines]
            skeletons = [serialization._skeleton_document(doc, words)
                         for doc, words, _ in list(cli._open_input(str(conll), "input", (cli._CONLL,)))[1:]]
            bare = [doc for path in (gold_corpus, conll) for pair in cli._paired_documents(
                (str(path), "key"), (str(path), "response")) for doc in pair]
            written = io.StringIO()
            serialization.write_native(docs, written)
            made = (
                metrics.score_documents((d.chains, s.chains) for d, s in zip(docs, skeletons)),
                [errors.categorize_errors(d.thread, d.chains, d.chains) for d in docs],
                [features.reverse_document(d) for d in docs],
                [filtering.summarize_record(serialization.document_to_record(d)) for d in docs],
                metrics.corpus_stats(docs),
                [parsing.parse_thread(raw) for raw in raws],
                [baselines.resolve_hb1(d.thread, d.mentions()) for d in docs],
                [baselines.resolve_hb2(d.thread, d.mentions()) for d in docs],
                [errors.align_chains(d.chains, s.chains) for d, s in zip(docs, skeletons)],
                [metrics.correction_stats(s.mentions(), d.mentions()) for d, s in zip(docs, skeletons)],
                serialization.write_conll_documents(docs),
            )
            del lines, docs, skeletons, bare, written, made
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_objects_frozen_by_the_caller_stay_frozen(self, gold_corpus, capsys):
        gc.freeze()
        try:
            before = gc.get_freeze_count()
            assert before > 0
            assert main(["stats", "--in", str(gold_corpus)]) == 0
            assert gc.get_freeze_count() == before
        finally:
            gc.unfreeze()


class TestOutputReplacement:
    def test_failure_mid_stream_leaves_output_untouched(self, gold_corpus, tmp_path, capsys):
        lines = gold_corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(lines[:5] + ["{broken\n"] + lines[5:]), encoding="utf-8")
        out = tmp_path / "out.jsonl"
        out.write_text("earlier output\n", encoding="utf-8")
        assert main(["features", "--in", str(bad), "--out", str(out), "--mi"]) == 1
        assert capsys.readouterr().err.startswith(f"error: input file {bad}: line 6: invalid JSON")
        assert out.read_text(encoding="utf-8") == "earlier output\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl", "gold.jsonl", "out.jsonl"]

    def test_success_replaces_output(self, gold_corpus, tmp_path):
        out = tmp_path / "out.jsonl"
        out.write_text("earlier output\n", encoding="utf-8")
        assert main(["features", "--in", str(gold_corpus), "--out", str(out)]) == 0
        assert out.read_bytes() == gold_corpus.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gold.jsonl", "out.jsonl"]

    def test_symbolic_link_output_replaces_its_target(self, gold_corpus, tmp_path):
        target = tmp_path / "target.jsonl"
        target.write_text("earlier output\n", encoding="utf-8")
        link = tmp_path / "link.jsonl"
        link.symlink_to(target)
        assert main(["features", "--in", str(gold_corpus), "--out", str(link)]) == 0
        assert link.is_symlink()
        assert target.read_bytes() == gold_corpus.read_bytes()

    @pytest.mark.parametrize("args", [
        ["parse", "--in", str(CORPUS10_DIR), "--out", "nodir/out.jsonl"],
        ["filter", "--in", str(CORPUS10_DIR), "--report", "nodir/r.tsv"],
        ["filter", "--in", str(CORPUS10_DIR), "--report", "r.tsv", "--verdicts", "nodir/v.tsv"],
    ], ids=lambda args: args[-2].strip("-"))
    def test_output_in_a_missing_directory_names_the_path_given(self, tmp_path, monkeypatch, capsys, args):
        monkeypatch.chdir(tmp_path)
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: cannot write {args[-1]}: No such file or directory\n"
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".partial")]

    def test_output_may_be_the_input(self, gold_corpus):
        expected = gold_corpus.read_bytes()
        assert main(["features", "--in", str(gold_corpus), "--out", str(gold_corpus)]) == 0
        assert gold_corpus.read_bytes() == expected


    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_dev_stdout_into_a_pipe(self, gold_corpus):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "threadcoref.cli", "features", "--in", str(gold_corpus), "--out", "/dev/stdout"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, timeout=120,
        )
        assert (done.returncode, done.stderr) == (0, b"")
        assert done.stdout == gold_corpus.read_bytes()


class TestThreadFileWalk:
    @pytest.fixture()
    def tree(self, tmp_path):
        root = tmp_path / "maildir"
        for rel in ["a/b", "a-b", "a/c/d", "a/c.e", ".hidden", "z/.dot/f", "b0", "B", "é/x"]:
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(rel, encoding="utf-8")
        (root / "empty").mkdir()
        (root / "link-to-file").symlink_to(root / "a" / "b")
        (root / "a" / "link-to-dir").symlink_to(root / "z", target_is_directory=True)
        return root

    @staticmethod
    def _threads(path):
        return cli._open_input(str(path), "input", (cli._DIRECTORY, cli._THREAD))

    def test_same_files_and_order_as_sorted_rglob(self, tree):
        expected = [(p.read_text(encoding="utf-8"), p.relative_to(tree).as_posix())
                    for p in sorted(tree.rglob("*")) if p.is_file()]
        assert list(self._threads(tree)) == [cli._DIRECTORY, *expected]
        assert [rel for _, rel in expected] == [
            ".hidden", "B", "a/b", "a/c/d", "a/c.e", "a-b", "b0", "link-to-file", "z/.dot/f", "é/x",
        ]

    def test_single_file_and_missing_input(self, tree):
        assert list(self._threads(tree / "a-b")) == [cli._THREAD, ("a-b", "a-b")]
        with pytest.raises(ToolkitError, match="^input .*missing does not exist$"):
            next(self._threads(tree / "missing"))

    def test_reads_one_directory_at_a_time(self, tree, monkeypatch):
        scanned = []
        scandir = os.scandir

        def recording(path):
            scanned.append(Path(path).relative_to(tree).as_posix())
            return scandir(path)

        monkeypatch.setattr(cli.os, "scandir", recording)
        walk = self._threads(tree)
        assert next(walk) == cli._DIRECTORY and scanned == []
        assert next(walk)[1] == ".hidden" and scanned == ["."]
        assert next(walk)[1] == "B" and next(walk)[1] == "a/b" and scanned == [".", "a"]


# Starts a command and prints its peak RSS, read with os.wait4. A small
# process of its own, because Linux counts into a child's peak the RSS of
# the process that started it, and a test runner's RSS is large and varies.
RSS_LAUNCHER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
assert os.waitstatus_to_exitcode(status) == 0
print(usage.ru_maxrss)
"""


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
class TestBoundedMemory:
    @staticmethod
    def _copies(parsed: Path, copies: int, out: Path) -> Path:
        records = [json.loads(line) for line in parsed.read_text(encoding="utf-8").splitlines()]
        with open(out, "w", encoding="utf-8") as fp:
            for i in range(copies):
                for record in records:
                    fp.write(json.dumps(dict(record, id=f"{i}/{record['id']}")) + "\n")
        return out

    @staticmethod
    def _word_copies(gold: Path, copies: int, out: Path) -> Path:
        """Copies in which every word token is a text of its own, so that a
        cache of words kept from one document to the next grows with the
        corpus. A sentence's first two tokens are kept, so header lines keep
        their field names."""
        lines = gold.read_text(encoding="utf-8").splitlines()
        with open(out, "w", encoding="utf-8") as fp:
            for i in range(copies):
                for line in lines:
                    record = json.loads(line)
                    record["id"] = f"{i}/{record['id']}"
                    for message in record["messages"]:
                        for sentence in message["sentences"]:
                            for token in sentence[2:]:
                                if token[0].isalpha():
                                    token[0] += f"v{i}o{token[2]}"
                    fp.write(json.dumps(record) + "\n")
        return out

    @staticmethod
    def _peak_rss(args: list[str]) -> int:
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", RSS_LAUNCHER, sys.executable, "-m", "threadcoref.cli", *args],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return int(out)

    @staticmethod
    def _thread_copies(copies: int, out: Path) -> Path:
        for i in range(copies):
            for path in CORPUS10_DIR.iterdir():
                (out / str(i)).mkdir(parents=True, exist_ok=True)
                (out / str(i) / path.name).write_bytes(path.read_bytes())
        return out

    @pytest.mark.parametrize("command", ["stats", "score", "score-conll", "resolve", "features", "errors",
                                         "correction-stats"])
    def test_peak_rss_flat_in_corpus_size(self, parsed_corpus, gold_corpus, tmp_path, command):
        peaks = []
        # a word cache that outlived each document would hold about 11 MB
        # more at 128 copies; at 32 it would stay under the bound
        for copies in (4, 128) if command == "resolve" else (4, 32):
            if command == "resolve":
                path = self._word_copies(gold_corpus, copies, tmp_path / f"x{copies}.jsonl")
            else:
                path = self._copies(parsed_corpus, copies, tmp_path / f"x{copies}.jsonl")
            if command == "score-conll":
                conll = path.with_suffix(".conll")
                conll.write_text(write_conll_documents(read_native(path.read_text(encoding="utf-8"))), encoding="utf-8")
                path = conll
            path = str(path)
            args = {
                "stats": ["stats", "--in", path],
                "resolve": ["resolve", "--baseline", "hb2", "--in", path, "--out", str(tmp_path / "resolved.jsonl")],
                "features": ["features", "--in", path, "--out", str(tmp_path / "features.jsonl"), "--mi", "--si", "--rev"],
                "errors": ["errors", "--key", path, "--response", path],
                "correction-stats": ["correction-stats", "--pred", path, "--gold", path],
            }.get(command, ["score", "--key", path, "--response", path])
            peaks.append(self._peak_rss(args))
        # a reader that held the whole 8x corpus decoded would add 10-25 MB
        assert peaks[1] <= 1.3 * peaks[0], peaks

    @pytest.mark.parametrize("command, jobs", [
        ("parse", "1"), ("parse", "2"), ("resolve", "1"), ("resolve", "2"), pytest.param("features", None, id="features"),
    ])
    def test_peak_rss_flat_while_writing(self, parsed_corpus, tmp_path, command, jobs):
        # 16 and 64 copies: the interpreter's table of interned strings grows
        # once, by up to 1.4 MB, while the first few dozen copies are decoded,
        # and the 48 added copies write more bytes than that
        peaks, written = [], []
        for copies in (16, 64):
            out = tmp_path / f"out{copies}.jsonl"
            if command == "parse":
                source = self._thread_copies(copies, tmp_path / f"threads{copies}")
                args = ["parse", "--in", str(source)]
            elif command == "resolve":
                source = self._copies(parsed_corpus, copies, tmp_path / f"x{copies}.jsonl")
                args = ["resolve", "--baseline", "hb1", "--in", str(source)]
            else:
                source = self._copies(parsed_corpus, copies, tmp_path / f"x{copies}.jsonl")
                args = ["features", "--in", str(source), "--mi", "--si", "--rev"]
            peaks.append(self._peak_rss(args + ["--out", str(out)] + (["--jobs", jobs] if jobs else [])))
            written.append(out.stat().st_size)
        # a command that held its input and its output lines until the end
        # would grow by more than the bytes the 48 added copies write
        assert (peaks[1] - peaks[0]) * 1024 < written[1] - written[0], (peaks, written)


class TestCorrectionStats:
    @pytest.mark.parametrize("side", ["pred", "gold"])
    def test_repeated_id_exits_1(self, gold_corpus, tmp_path, capsys, side):
        lines = gold_corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        repeated = tmp_path / "repeated.jsonl"
        repeated.write_text("".join(lines + lines[4:5]), encoding="utf-8")
        files = {"pred": str(gold_corpus), "gold": str(gold_corpus), side: str(repeated)}
        assert main(["correction-stats", "--pred", files["pred"], "--gold", files["gold"]]) == 1
        doc_id = read_native(lines[4])[0].thread.id
        assert capsys.readouterr() == (
            "", f"error: {side} file {repeated} repeats document id {doc_id!r}\n")

    def test_identity_all_unchanged(self, gold_corpus, capsys):
        code = main(["correction-stats", "--pred", str(gold_corpus), "--gold", str(gold_corpus)])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        stats = dict(line.split("\t") for line in lines[1:])
        assert stats["added_mentions"] == "0"
        assert stats["deleted_mentions"] == "0"
        assert stats["precision"] == "1.0000"
        assert stats["recall"] == "1.0000"

    def test_documents_kept_apart(self, tmp_path, example1_document, capsys):
        # the same span in two documents: merged, it would read as one
        # unchanged mention plus one added gold mention
        span = Mention(0, 0, 0, 1)
        shifted = Mention(0, 0, 1, 2)

        def write(path, chains_by_id):
            docs = [
                AnnotatedDocument(
                    example1_document.thread._replace(id=doc_id),
                    (CoreferenceChain(1, (mention,)),),
                )
                for doc_id, mention in chains_by_id
            ]
            with open(path, "w", encoding="utf-8") as fp:
                write_native(docs, fp)

        write(tmp_path / "pred.jsonl", [("b", span), ("a", span)])
        write(tmp_path / "gold.jsonl", [("a", span), ("b", shifted)])
        code = main(["correction-stats", "--pred", str(tmp_path / "pred.jsonl"),
                     "--gold", str(tmp_path / "gold.jsonl")])
        assert code == 0
        stats = dict(line.split("\t") for line in capsys.readouterr().out.strip().splitlines()[1:])
        assert [stats[f"{k}_mentions"] for k in ("unchanged", "corrected", "added", "deleted")] == [
            "1", "1", "0", "0"]


class TestImports:
    def test_cli_import_loads_no_numeric_stack(self):
        src = Path(__file__).resolve().parent.parent / "src"
        code = (
            "import sys, threadcoref, threadcoref.cli\n"
            "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == "[]"

    # Every public name of the package namespace before it became lazy, but for
    # the filter's and the parser's settings classes: the filter's rules and the
    # parser's marker phrases are fixed, and min_messages is an argument.
    EXPORTED = (
        "AnnotatedDocument", "ChainAlignment", "CoreferenceChain", "CorpusStats", "CorrectionStats",
        "EmailMessage", "EmailThread", "EntityType", "ErrorReport", "ExclusionSet", "FeatureAnnotation",
        "FilterCategory", "FilterVerdict", "MalformedColumn", "Mention", "MetricScore",
        "MissingDate", "NativeSchemaError", "OverlappingIdenticalSpan", "ParticipantIndex",
        "PronounClass", "RawThread", "Resolution", "ScoreReport", "Section", "Token", "ToolkitError",
        "UnparseableThread", "align_chains", "b_cubed", "baselines", "build_participant_index",
        "categorize_errors", "ceaf_e", "chain_overlapping_mentions", "conll_average", "corpus_stats",
        "correction_stats", "errors", "features", "filter_corpus", "filtering", "fingerprint_message", "lea",
        "mention_detection_score", "mention_text", "mention_tokens", "message_identifier", "metrics", "model",
        "muc", "parse_thread", "parsing", "read_conll", "read_conll_documents", "read_native", "resolve_hb1",
        "resolve_hb2", "reverse_document", "reverse_thread", "score_documents", "section_info",
        "serialization", "validate_document", "wordlists", "write_conll", "write_conll_documents",
        "write_native", "write_native_string",
    )
    HANDLER_MODULES = ("parsing", "filtering", "features", "baselines", "metrics", "errors")

    @staticmethod
    def _modules_after(code: str, cwd: Path) -> list[str]:
        """Every module loaded by running ``code`` in a fresh interpreter."""
        src = Path(__file__).resolve().parent.parent / "src"
        code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, check=True
        ).stdout
        return json.loads(out)

    @classmethod
    def _loaded_after(cls, code: str, cwd: Path) -> list[str]:
        """Package submodules loaded by running ``code`` in a fresh interpreter."""
        return [name.split(".", 1)[1] for name in cls._modules_after(code, cwd) if name.startswith("threadcoref.")]

    @staticmethod
    def _running(*commands: list[str]) -> str:
        """Code that runs each command through ``main``, its standard output dropped."""
        lines = [f"    assert threadcoref.cli.main({command!r}) == 0\n" for command in commands]
        return "import contextlib, io, threadcoref.cli\nwith contextlib.redirect_stdout(io.StringIO()):\n" + "".join(lines)

    def test_no_command_loads_dataclasses_or_inspect(self, gold_corpus, tmp_path):
        # dataclasses loads inspect, and inspect loads ast, dis and tokenize:
        # each command would pay for them at start-up
        gold, parsed = str(gold_corpus), str(tmp_path / "parsed.jsonl")
        commands = [
            ["parse", "--in", str(CORPUS10_DIR), "--out", parsed],
            ["filter", "--in", parsed, "--report", str(tmp_path / "report.tsv")],
            ["features", "--in", gold, "--out", str(tmp_path / "features.jsonl"), "--mi", "--si", "--rev"],
            ["resolve", "--baseline", "hb1", "--in", gold, "--out", str(tmp_path / "resolved.jsonl")],
            ["score", "--key", gold, "--response", gold],
            ["errors", "--key", gold, "--response", gold],
            ["stats", "--in", gold],
            ["correction-stats", "--pred", gold, "--gold", gold],
        ]
        for code in ("import threadcoref.cli", self._running(*commands)):
            loaded = self._modules_after(code, tmp_path)
            assert not {"dataclasses", "inspect"} & set(loaded), code

    def test_resolve_loads_no_email(self, gold_corpus, tmp_path):
        code = self._running(
            ["resolve", "--baseline", "hb1", "--in", str(gold_corpus), "--out", str(tmp_path / "resolved.jsonl")])
        loaded = self._modules_after(code, tmp_path)
        assert "threadcoref.baselines" in loaded
        assert not [name for name in loaded if name.split(".")[0] == "email"], loaded

    def test_cli_import_loads_no_handler_modules(self, tmp_path):
        loaded = self._loaded_after("import threadcoref.cli", tmp_path)
        assert "cli" in loaded
        assert not set(self.HANDLER_MODULES) & set(loaded), loaded

    def test_cli_import_loads_no_reader(self, tmp_path):
        # the record writer lives in the model: the entry point compiles no reader code
        assert "serialization" not in self._loaded_after("import threadcoref.cli", tmp_path)

    def test_parse_loads_no_reader(self, tmp_path):
        code = self._running(
            ["parse", "--in", str(CORPUS10_DIR), "--out", str(tmp_path / "parsed.jsonl"), "--jobs", "1"])
        loaded = self._loaded_after(code, tmp_path)
        assert "parsing" in loaded
        assert "serialization" not in loaded, loaded

    def test_filter_on_thread_files_loads_no_reader(self, gold_corpus, tmp_path):
        # the record dates are read in the model, beside the writer that writes them
        report = str(tmp_path / "report.tsv")
        code = self._running(["filter", "--in", str(CORPUS10_DIR), "--report", report, "--jobs", "1"])
        loaded = self._loaded_after(code, tmp_path)
        assert "filtering" in loaded
        assert "serialization" not in loaded, loaded
        code = self._running(["filter", "--in", str(gold_corpus), "--report", report])
        assert "serialization" in self._loaded_after(code, tmp_path)

    def test_importtime_logs_each_submodule(self, tmp_path):
        # importlib.import_module bypasses the interpreter's import timer, so a
        # lazily loaded submodule would show only inside its importer's time
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        err = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import threadcoref; threadcoref.metrics"],
            cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
        ).stderr
        assert re.search(r"\| +threadcoref\.metrics$", err, re.MULTILINE), err

    # command -> (arguments, the handler modules it runs); each reads native
    # JSONL, so none may load the parser or the email package
    READERS = {
        "score": (["--key", "{gold}", "--response", "{gold}"], {"metrics"}),
        "errors": (["--key", "{gold}", "--response", "{gold}"], {"errors", "metrics"}),
        "correction-stats": (["--pred", "{gold}", "--gold", "{gold}"], {"metrics"}),
        "stats": (["--in", "{gold}"], {"metrics"}),
        "features": (["--in", "{gold}", "--out", "{out}", "--mi", "--si", "--rev"], {"features"}),
        "resolve": (["--baseline", "hb1", "--in", "{gold}", "--out", "{out}"], {"baselines"}),
        "filter": (["--in", "{gold}", "--report", "{out}"], {"filtering"}),
    }

    @pytest.mark.parametrize("command", READERS)
    def test_reader_loads_only_what_it_runs(self, gold_corpus, tmp_path, command):
        args, runs = self.READERS[command]
        code = self._running([command, *(a.format(gold=gold_corpus, out=tmp_path / "out") for a in args)])
        loaded = self._modules_after(code, tmp_path)
        package = {name.split(".", 1)[1] for name in loaded if name.startswith("threadcoref.")}
        assert package & set(self.HANDLER_MODULES) == runs
        assert "serialization" in package
        assert not [name for name in loaded if name.split(".")[0] == "email"], loaded

    def test_every_exported_name_resolves(self):
        import threadcoref

        namespace: dict = {}
        exec(f"from threadcoref import {', '.join(self.EXPORTED)}", namespace)
        for name in self.EXPORTED:
            assert name in threadcoref.__all__, name
            assert namespace[name] is getattr(threadcoref, name), name
        assert threadcoref.metrics.score_documents is threadcoref.score_documents
        assert threadcoref.__version__ == "0.1.0"
        assert set(self.EXPORTED) <= set(dir(threadcoref))
        with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
            threadcoref.nonexistent


class TestPublicSurface:
    """Each public top-level function and class of the package, and each
    public method and property of such a class, has a caller besides the
    tests: the package itself, the benchmark, the demos or CI, or it is a
    name the package exports. A name that only tests call is a second entry
    point that nothing runs.

    A method is matched by its name alone, so one that shares its name with
    a name used elsewhere passes unseen: a ``count`` method would pass for
    every ``str.count`` call in the package."""

    ROOT = Path(__file__).resolve().parents[1]
    CALLER_DIRS = ("src", "perfbench", "demos")

    @staticmethod
    def _public_definitions(path: Path) -> list[str]:
        """Each public top-level function and class of the module at ``path``,
        and each public method and property of such a class as ``Class.name``."""
        names = []
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                names.append(node.name)
                if isinstance(node, ast.ClassDef):
                    names += [f"{node.name}.{item.name}" for item in node.body
                              if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
        return names

    @classmethod
    def _referenced(cls, root: Path) -> set[str]:
        """Every name that code outside the tests under ``root`` uses: a name
        or attribute it reads, a name it imports, a string constant that
        equals a name (the benchmark looks functions up by name), and each
        word of the CI files."""
        names: set[str] = set()
        for top in cls.CALLER_DIRS:
            for path in (root / top).rglob("*.py"):
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                    if isinstance(node, ast.Name):
                        names.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        names.add(node.attr)
                    elif isinstance(node, ast.alias):
                        names.add(node.name.rsplit(".", 1)[-1])
                    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                        names.add(node.value)
        for path in (root / ".github").rglob("*"):
            if path.is_file():
                names.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
        return names

    def test_every_public_name_has_a_caller_besides_the_tests(self):
        import threadcoref

        allowed = self._referenced(self.ROOT) | set(threadcoref._EXPORTS)
        modules = sorted((self.ROOT / "src" / "threadcoref").glob("*.py"))
        assert len(modules) >= 10
        unused = [
            f"{path.stem}.{name}" for path in modules for name in self._public_definitions(path)
            if name.rsplit(".", 1)[-1] not in allowed
        ]
        assert unused == []

    def test_finds_a_name_only_tests_call(self, tmp_path):
        # a caller in each place counts, a mention in a docstring or a comment does not
        files = {
            "src/module.py": (
                'def unused_view():\n    """unused_view is mentioned here."""\n\n\n# unused_view\n'
                "def used_in_demo():\n    return 1\n\n\nclass LookedUp:\n    @property\n    def unused_property(self):\n"
                "        return 1\n\n    def used_method(self):\n        return 2\n\n    def _private(self):\n"
                "        return 3\n\n\n"
                "def used_in_ci():\n    return used_in_package()\n\n\ndef used_in_package():\n    return 2\n"
            ),
            "demos/demo.py": "from module import LookedUp, used_in_demo\n\nused_in_demo()\nLookedUp().used_method()\n",
            "perfbench/layers.py": 'TRACED = ("LookedUp",)\n',
            ".github/workflows/ci.yml": "run: python -c 'import module; module.used_in_ci()'\n",
            "tests/test_module.py": "from module import unused_view\n\nunused_view()\n",
        }
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / name).write_text(text, encoding="utf-8")
        definitions = self._public_definitions(tmp_path / "src" / "module.py")
        assert len(definitions) == 7
        referenced = self._referenced(tmp_path)
        unused = [name for name in definitions if name.rsplit(".", 1)[-1] not in referenced]
        assert unused == ["unused_view", "LookedUp.unused_property"]


class TestReadmeSynopsis:
    """The command synopsis in README.md names the options the parser takes."""

    @staticmethod
    def _synopsis() -> dict[str, set[str]]:
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```", 2)[1]
        flags: dict[str, set[str]] = {}
        for line in block.splitlines():
            words = line.split()
            if words[:1] == ["threadcoref"]:
                flags[words[1]] = set(re.findall(r"--[a-z][a-z-]*", line))
        return flags

    @staticmethod
    def _subparsers() -> dict[str, argparse.ArgumentParser]:
        actions = cli.build_parser()._actions
        return next(a for a in actions if isinstance(a, argparse._SubParsersAction)).choices

    def test_every_command_listed(self):
        assert set(self._synopsis()) == set(self._subparsers())

    def test_flags_match_the_parser(self):
        synopsis, parsers = self._synopsis(), self._subparsers()
        for command, parser in parsers.items():
            options = {o for a in parser._actions for o in a.option_strings}
            required = {a.option_strings[0] for a in parser._actions if a.required}
            assert synopsis[command] <= options, command
            assert required <= synopsis[command], command


class TestUsage:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["score", "--nope"])
        assert err.value.code == 2

    @pytest.mark.parametrize("value", ["abc", "1.5", "0", "-2"])
    @pytest.mark.parametrize("command", [["parse", "--in", "x", "--out", "y", "--jobs"],
                                         ["filter", "--in", "x", "--report", "y", "--min-messages"]])
    def test_count_that_is_no_positive_integer_exits_2(self, capsys, command, value):
        with pytest.raises(SystemExit) as err:
            main([*command, value])
        assert err.value.code == 2
        message = capsys.readouterr().err.splitlines()[-1]
        assert message.endswith(f": error: argument {command[-1]}: must be a positive integer, got {value!r}")

    def test_pretty_flag_aligns(self, gold_corpus, capsys):
        main(["stats", "--in", str(gold_corpus), "--pretty"])
        out = capsys.readouterr().out
        assert "\t" not in out
