import argparse
import gc
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CORPUS10_DIR, DATA_DIR, synthetic_document
from threadcoref import cli
from threadcoref.cli import main
from threadcoref.filtering import fingerprint_message
from threadcoref.model import AnnotatedDocument, CoreferenceChain, Mention
from threadcoref.serialization import read_native, write_conll, write_conll_documents, write_native


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

    def test_separator_file_same_bytes_under_jobs(self, tmp_path):
        separators = tmp_path / "separators.txt"
        separators.write_text("# marker phrases, one per line\n- Forwarded by\n", encoding="utf-8")
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"sep{jobs}.jsonl"
            assert main(["parse", "--in", str(CORPUS10_DIR), "--out", str(out),
                         "--separators", str(separators), "--jobs", jobs]) == 0
            outs.append(out.read_bytes())
        default = tmp_path / "default.jsonl"
        main(["parse", "--in", str(CORPUS10_DIR), "--out", str(default)])
        # without the original-message marker, fewer messages are split off
        assert outs[0] == outs[1] != default.read_bytes()


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

    @pytest.mark.parametrize("flag", ["--separators", "--footers"])
    def test_parser_flag_on_records_exits_1(self, gold_corpus, tmp_path, capsys, flag):
        # records are parsed already: the flag would be ignored, its file never opened
        report = tmp_path / "report.tsv"
        assert main(["filter", "--in", str(gold_corpus), "--report", str(report), flag, "/nonexistent"]) == 1
        assert capsys.readouterr() == ("", (
            f"error: --separators and --footers apply to a thread directory only, not to {gold_corpus}\n"))
        assert not report.exists()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_malformed_line_reported(self, gold_corpus, tmp_path, capsys, jobs):
        lines = gold_corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        bad_json = tmp_path / "bad_json.jsonl"
        bad_json.write_text("".join(lines[:2] + ["\n", "{broken\n"] + lines[2:]), encoding="utf-8")
        report = tmp_path / "report.tsv"
        assert main(["filter", "--in", str(bad_json), "--report", str(report), "--jobs", jobs]) == 1
        assert capsys.readouterr().err == (
            "error: line 4: invalid JSON: Expecting property name enclosed in double quotes: "
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

    def test_bare_rev_is_ascending(self, parsed_corpus, tmp_path):
        bare, named = tmp_path / "bare.jsonl", tmp_path / "named.jsonl"
        assert main(["features", "--in", str(parsed_corpus), "--out", str(bare), "--rev"]) == 0
        assert main(["features", "--in", str(parsed_corpus), "--out", str(named), "--rev", "ascending"]) == 0
        assert bare.read_bytes() == named.read_bytes()

    def test_rev_descending_flag(self, parsed_corpus, tmp_path):
        out = tmp_path / "rev.jsonl"
        main(["features", "--in", str(parsed_corpus), "--out", str(out), "--rev", "descending"])
        for doc in read_native(out.read_text(encoding="utf-8")):
            dates = [m.date for m in doc.thread.messages]
            assert dates == sorted(dates, reverse=True)


    def test_rev_on_naive_and_aware_dates_exits_1(self, tmp_path, capsys):
        # the quoted Outlook "Sent:" line parses without a time zone
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
        assert main(["features", "--in", str(parsed), "--out", str(out), "--rev"]) == 1
        assert capsys.readouterr() == ("", (
            "error: message 0 is dated with a time zone and message 1 without one, "
            "so they cannot be ordered\n"))
        assert not out.exists()


class TestResolve:
    def test_hb2_on_example1_matches_hb1_partition(self, tmp_path, example1_document):
        src = tmp_path / "ex1.jsonl"
        with open(src, "w", encoding="utf-8") as fp:
            write_native([example1_document], fp)
        out1 = tmp_path / "hb1.jsonl"
        out2 = tmp_path / "hb2.jsonl"
        assert main(["resolve", "--baseline", "hb1", "--mentions", "gold",
                     "--in", str(src), "--out", str(out1)]) == 0
        assert main(["resolve", "--baseline", "hb2", "--mentions", "gold",
                     "--in", str(src), "--out", str(out2)]) == 0
        doc1 = read_native(out1.read_text(encoding="utf-8"))[0]
        doc2 = read_native(out2.read_text(encoding="utf-8"))[0]
        parts1 = {frozenset(c.mentions) for c in doc1.chains}
        parts2 = {frozenset(c.mentions) for c in doc2.chains}
        assert parts1 == parts2
        assert len(parts1) == 3

    def test_resolve_gold_corpus(self, gold_corpus, tmp_path):
        out = tmp_path / "resolved.jsonl"
        assert main(["resolve", "--baseline", "hb1", "--mentions", "gold",
                     "--in", str(gold_corpus), "--out", str(out)]) == 0
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
        assert err.startswith("error: line 4: invalid JSON") and err.count("\n") == 1

        record = json.loads(lines[1])
        record["messages"][0]["sentences"][0][0][1] = "zz"
        bad_schema = tmp_path / "bad_schema.jsonl"
        bad_schema.write_text("".join(lines[:1] + [json.dumps(record) + "\n"] + lines[2:]),
                              encoding="utf-8")
        assert main(["resolve", "--baseline", "hb1", "--in", str(bad_schema), "--out", str(out),
                     "--jobs", jobs]) == 1
        assert capsys.readouterr().err == (
            "error: line 2: $.messages[0].sentences[0][0]: unknown section code 'zz'\n")

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
        assert capsys.readouterr().err.startswith("error: line 2: invalid JSON")


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

    def test_reversed_response_decodes_each_record_once(self, gold_corpus, tmp_path, capsys, monkeypatch):
        from threadcoref import serialization

        lines = gold_corpus.read_text(encoding="utf-8").splitlines(keepends=True)
        reversed_path = tmp_path / "reversed.jsonl"
        reversed_path.write_text("".join(lines[::-1]), encoding="utf-8")
        assert main(["score", "--key", str(gold_corpus), "--response", str(gold_corpus)]) == 0
        expected = capsys.readouterr().out
        decoded = []
        decode_line = serialization.decode_line

        def counting(line, line_no, **kwargs):
            decoded.append(line_no)
            return decode_line(line, line_no, **kwargs)

        monkeypatch.setattr(serialization, "decode_line", counting)
        assert main(["score", "--key", str(gold_corpus), "--response", str(reversed_path)]) == 0
        assert capsys.readouterr().out == expected
        assert len(decoded) == 2 * len(lines)

    def test_native_key_vs_resolved_response(self, gold_corpus, tmp_path, capsys):
        out = tmp_path / "resolved.jsonl"
        main(["resolve", "--baseline", "hb1", "--mentions", "gold",
              "--in", str(gold_corpus), "--out", str(out)])
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
        assert capsys.readouterr() == ("", f"error: line {row + 1}: bad coref entry {entry!r}\n")


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
        assert self._run(capsys, command, first, second, gold, extra) == (1, "", f"error: {message}\n")

    def test_missing_document_exits_1(self, gold_corpus, tmp_path, capsys, command, first, second, roles):
        units, write = self._units(gold_corpus, tmp_path)
        gold, missing = write("gold", units), write("missing", units[:2] + units[3:])
        doc_id = read_native(gold_corpus.read_text(encoding="utf-8"))[2].thread.id
        assert self._run(capsys, command, first, second, gold, missing) == (
            1, "", f"error: {roles[1]} file has no document {doc_id!r}\n")


class TestConllPairing(TestPairing):
    """The same cases with both files in CoNLL columns."""

    fmt = "conll"


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
            "error: line 1: invalid JSON: Expecting property name enclosed in double quotes: "
            "line 1 column 2 (char 1)\n"))


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
        return path, f"error: line 1: {at}: mention at {location} is already in chain {chains[0]['id']}\n"

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
        assert main([command, *map(str, args)]) == 1
        assert capsys.readouterr() == ("", message)

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
        assert out == "" and err.startswith(f"error: line {row + 1}: chain 901: span at sentence ")
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
        assert main([command, *map(str, args)]) == 1
        assert capsys.readouterr() == ("", (
            f"error: line 2: $.chains[0].mentions[0]: mention at {tuple(mention[:4])} addresses no token\n"))
        assert not out.exists()


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
    features takes its date order as the value of --rev."""

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
        ["parse", "--in", str(DATA_DIR / "example1.txt"), "--out", "{out}", "--separators", "{bad}"],
        ["parse", "--in", str(DATA_DIR / "example1.txt"), "--out", "{out}", "--footers", "{bad}"],
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
        assert capsys.readouterr().err == "error: line 2: invalid JSON: NaN is not a JSON number\n"
        assert not out.exists()

    def test_infinity_alone(self, gold_corpus, tmp_path, capsys):
        record = json.loads(gold_corpus.read_text(encoding="utf-8").splitlines()[0])
        record["messages"][-1]["sentences"][-1][-1][3] = float("-inf")
        bad = tmp_path / "inf.jsonl"
        bad.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert main(["stats", "--in", str(bad)]) == 1
        assert capsys.readouterr().err == "error: line 1: invalid JSON: -Infinity is not a JSON number\n"

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int() digit limit")
    def test_oversized_integer(self, gold_corpus, tmp_path, capsys):
        line = gold_corpus.read_text(encoding="utf-8").splitlines()[0]
        bad = tmp_path / "long.jsonl"
        bad.write_text(line.replace('"h",0,', '"h",' + "1" * 5000 + ",", 1) + "\n", encoding="utf-8")
        assert main(["stats", "--in", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: invalid JSON: Exceeds the limit") and err.count("\n") == 1

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
    def _record(gold_corpus, tmp_path, edit) -> Path:
        record = json.loads(gold_corpus.read_text(encoding="utf-8").splitlines()[0])
        edit(record)
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("args", [
        ["stats", "--in", "{bad}"],
        ["features", "--in", "{bad}", "--out", "{out}", "--mi", "--si"],
    ], ids=lambda args: args[0])
    def test_fractional_offset(self, gold_corpus, tmp_path, capsys, args):
        def edit(record):
            record["messages"][0]["sentences"][0][0][2] = 0.5
        bad = self._record(gold_corpus, tmp_path, edit)
        out = tmp_path / "out.jsonl"
        assert main([a.format(bad=bad, out=out) for a in args]) == 1
        assert capsys.readouterr().err == (
            "error: line 1: $.messages[0].sentences[0][0]: char_start must be an integer, got 0.5\n"
        )
        assert not out.exists()

    def test_boolean_mention_index_and_chain_id(self, gold_corpus, tmp_path, capsys):
        def edit(record):
            record["chains"][0]["mentions"][0][1] = True
        assert main(["stats", "--in", str(self._record(gold_corpus, tmp_path, edit))]) == 1
        assert capsys.readouterr().err == (
            "error: line 1: $.chains[0].mentions[0]: sentence_index must be an integer, got True\n"
        )

        def edit(record):
            record["chains"][0]["id"] = True
        assert main(["stats", "--in", str(self._record(gold_corpus, tmp_path, edit))]) == 1
        assert capsys.readouterr().err == "error: line 1: $.chains[0].id: chain id must be an int\n"


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

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["stats", "score"])
    def test_broken_pipe_exits_1_without_traceback(self, gold_corpus, command, buffered):
        args = ["stats", "--in", str(gold_corpus)] if command == "stats" else [
            "score", "--key", str(gold_corpus), "--response", str(gold_corpus)]
        src = Path(__file__).resolve().parent.parent / "src"
        # buffered, the pipe fails at the flush; unbuffered, at the first write
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env.update(PYTHONPATH=str(src), **({} if buffered else {"PYTHONUNBUFFERED": "1"}))
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "threadcoref.cli", *args], stdout=write_end,
                stderr=subprocess.PIPE, env=env, text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) <= 1, proc.stderr
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


class TestCollectorPolicy:
    @staticmethod
    def _state():
        return gc.get_threshold(), gc.isenabled(), gc.get_freeze_count()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_restores_collector_state(self, gold_corpus, tmp_path, capsys, monkeypatch, enabled):
        from threadcoref import serialization

        # whether the collector is on when the handler opens its input
        while_running = []
        iter_native_lines = serialization.iter_native_lines

        def spy(path):
            while_running.append(gc.isenabled())
            return iter_native_lines(path)

        monkeypatch.setattr(serialization, "iter_native_lines", spy)
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
            docs = [doc for _, doc in serialization.iter_native(gold_corpus)]
            skeletons = list(serialization.iter_conll(conll))
            bare = [doc for path in (gold_corpus, conll) for pair in cli._paired_documents(
                (str(path), "key"), (str(path), "response"), first_thread=False) for doc in pair]
            written = io.StringIO()
            serialization.write_native(docs, written)
            made = (
                metrics.score_documents((d.chains, s.chains) for d, s in zip(docs, skeletons)),
                [errors.categorize_errors(d.thread, d.chains, d.chains) for d in docs],
                [features.reverse_document(d) for d in docs],
                [filtering.summarize_thread(d.thread) for d in docs],
                metrics.corpus_stats(docs),
                [parsing.parse_thread(raw) for raw in raws],
                [baselines.resolve_hb1(d.thread, d.mentions()) for d in docs],
                [baselines.resolve_hb2(d.thread, d.mentions()) for d in docs],
                [errors.align_chains(d.chains, s.chains) for d, s in zip(docs, skeletons)],
                [metrics.correction_stats(s.mentions(), d.mentions()) for d, s in zip(docs, skeletons)],
                serialization.write_conll_documents(docs),
            )
            del docs, skeletons, bare, written, made
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
        assert capsys.readouterr().err.startswith("error: line 6: invalid JSON")
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

    def test_same_files_and_order_as_sorted_rglob(self, tree):
        expected = [(p, p.relative_to(tree).as_posix()) for p in sorted(tree.rglob("*")) if p.is_file()]
        assert list(cli._iter_thread_files(tree)) == expected
        assert [rel for _, rel in expected] == [
            ".hidden", "B", "a/b", "a/c/d", "a/c.e", "a-b", "b0", "link-to-file", "z/.dot/f", "é/x",
        ]

    def test_single_file_and_missing_input(self, tree):
        assert list(cli._iter_thread_files(tree / "a-b")) == [(tree / "a-b", "a-b")]
        assert list(cli._iter_thread_files(tree / "missing")) == []

    def test_reads_one_directory_at_a_time(self, tree, monkeypatch):
        scanned = []
        scandir = os.scandir

        def recording(path):
            scanned.append(Path(path).relative_to(tree).as_posix())
            return scandir(path)

        monkeypatch.setattr(cli.os, "scandir", recording)
        walk = cli._iter_thread_files(tree)
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

    @pytest.mark.parametrize("command", ["stats", "score"])
    def test_peak_rss_flat_in_corpus_size(self, parsed_corpus, tmp_path, command):
        peaks = []
        for copies in (4, 32):
            path = str(self._copies(parsed_corpus, copies, tmp_path / f"x{copies}.jsonl"))
            args = ["stats", "--in", path] if command == "stats" else [
                "score", "--key", path, "--response", path]
            peaks.append(self._peak_rss(args))
        # a reader that held the whole 8x corpus decoded would add 10-25 MB
        assert peaks[1] <= 1.3 * peaks[0], peaks

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("command", ["parse", "resolve"])
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
            else:
                source = self._copies(parsed_corpus, copies, tmp_path / f"x{copies}.jsonl")
                args = ["resolve", "--baseline", "hb1", "--in", str(source)]
            peaks.append(self._peak_rss(args + ["--out", str(out), "--jobs", jobs]))
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

    # Every public name of the package namespace before it became lazy.
    EXPORTED = (
        "AnnotatedDocument", "ChainAlignment", "CoreferenceChain", "CorpusStats", "CorrectionStats",
        "EmailMessage", "EmailThread", "EntityType", "ErrorReport", "ExclusionSet", "FeatureAnnotation",
        "FilterCategory", "FilterConfig", "FilterVerdict", "MalformedColumn", "Mention", "MetricScore",
        "MissingDate", "NativeSchemaError", "OverlappingIdenticalSpan", "ParserConfig", "ParticipantIndex",
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

    def test_score_loads_only_what_it_runs(self, gold_corpus, tmp_path):
        code = (
            "import contextlib, io, threadcoref.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert threadcoref.cli.main(['score', '--key', {str(gold_corpus)!r}, "
            f"'--response', {str(gold_corpus)!r}]) == 0"
        )
        loaded = self._loaded_after(code, tmp_path)
        assert "metrics" in loaded
        assert not {"parsing", "filtering", "baselines", "features"} & set(loaded), loaded

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

    def test_pretty_flag_aligns(self, gold_corpus, capsys):
        main(["stats", "--in", str(gold_corpus), "--pretty"])
        out = capsys.readouterr().out
        assert "\t" not in out
