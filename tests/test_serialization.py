import copy
import io
import json
import pickle
import random
import re
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from conftest import build_fields, checked_document, synthetic_document
from oracles import mention_from_absolute, mention_to_absolute
from threadcoref import cli, features, serialization
from threadcoref.errors import ErrorReport
from threadcoref.features import reverse_document
from threadcoref.filtering import filter_corpus
from threadcoref.model import (
    AnnotatedDocument,
    CoreferenceChain,
    EmailMessage,
    EmailThread,
    EntityType,
    Mention,
    Section,
    Token,
    ToolkitError,
    validate_document,
)
from threadcoref.serialization import (
    MalformedColumn,
    NativeSchemaError,
    OverlappingIdenticalSpan,
    decode_line,
    document_to_record,
    global_sentences,
    read_conll,
    read_conll_documents,
    read_native,
    record_to_document,
    write_conll,
    write_conll_documents,
    write_native_string,
)


def native_file(path):
    """Each (line number, document) of a native JSONL file, read as the commands read it."""
    content = cli._open_input(str(path), "input", (cli._JSONL,))
    next(content)
    for line_no, line in content:
        yield line_no, decode_line(line, line_no)


def conll_file(path):
    """Each document of a CoNLL file, read as the commands read it, with the
    skeleton thread that its word lists make."""
    content = cli._open_input(str(path), "input", (cli._CONLL,))
    next(content)
    for doc, words, _ in content:
        yield serialization._skeleton_document(doc, words)


def conll_rows(text):
    return [l for l in text.splitlines() if l and not l.startswith("#")]


def chain_sets(doc):
    """Chains as sets of absolute token spans; survives skeletonization."""
    return {
        frozenset(mention_to_absolute(doc.thread, m) for m in chain.mentions)
        for chain in doc.chains
    }


def chain_fields(doc):
    """Everything a threadless read keeps: id, source path, chains with entity types."""
    chains = [(c.chain_id, [(m.location, m.entity_type) for m in c.mentions]) for c in doc.chains]
    return doc.thread.id, doc.thread.source_path, chains


def decode_both(record):
    """``decode_line`` on the record's JSON line, with its thread; first checks
    that ``decode_record`` gives the same error, or the same id, source path
    and chains with a thread of no messages, and the full thread's sentence
    lengths. An error is raised as ``record_to_document`` raises it, once its
    line number and document id, named when the record's id is a string,
    are checked."""
    line = json.dumps(record)
    outcomes = []
    for decode in (decode_line, serialization.decode_record):
        try:
            outcomes.append(decode(line, 7))
        except NativeSchemaError as exc:
            outcomes.append(exc)
    full, bare = outcomes
    if isinstance(full, NativeSchemaError):
        assert (type(bare), getattr(bare, "path", None), str(bare)) == (type(full), full.path, str(full))
        doc_id = record.get("id") if isinstance(record, dict) and isinstance(record.get("id"), str) else None
        where = "" if doc_id is None else f"document {doc_id!r}: "
        assert (full.line_number, full.document_id, str(full)) == (
            7, doc_id, f"line 7: {where}{full.path}: {full.message}")
        raise NativeSchemaError(full.path, full.message)
    _, bare, lengths = bare
    assert bare.thread.messages == () and chain_fields(bare) == chain_fields(full)
    assert lengths == [[len(sentence) for sentence in msg.sentences] for msg in full.thread.messages]
    return full


class TestWriteConll:
    def test_single_token_mention_column(self, example1_document):
        text = write_conll(example1_document)
        rows = conll_rows(text)
        i_row = [r for r in rows if r.split("\t")[3] == "I"]
        assert i_row and i_row[0].split("\t")[4] == "(1)"

    def test_multi_token_span_brackets(self, example1_document):
        text = write_conll(example1_document)
        rows = conll_rows(text)
        cols = {tuple(r.split("\t")[3:]) for r in rows}
        assert ("Crestone", "(3") in cols
        assert ("and", "-") in cols
        assert ("Lost", "-") in cols
        assert ("Creek", "3)") in cols

    def test_begin_end_markers(self, example1_document):
        text = write_conll(example1_document)
        assert text.startswith("#begin document (example1); part 000")
        assert text.rstrip().endswith("#end document")

    def test_nested_and_crossing_spans_round_trip(self, example1_thread):
        # body sentence "Do you have anything for Crestone and Lost Creek ?"
        outer = Mention(0, 7, 2, 8)
        inner = Mention(0, 7, 4, 5)
        crossing = Mention(0, 7, 5, 9)
        doc = AnnotatedDocument(
            thread=example1_thread,
            chains=(
                CoreferenceChain(4, (outer,)),
                CoreferenceChain(5, (inner,)),
                CoreferenceChain(6, (crossing,)),
            ),
        )
        text = write_conll(doc)
        assert any("|" in row.split("\t")[4] for row in conll_rows(text))
        parsed = read_conll(text)
        assert chain_sets(parsed) == chain_sets(doc)

    def test_nested_spans_same_chain_round_trip(self, example1_thread):
        doc = AnnotatedDocument(
            thread=example1_thread,
            chains=(CoreferenceChain(4, (Mention(0, 7, 2, 8), Mention(0, 7, 3, 4))),),
        )
        parsed = read_conll(write_conll(doc))
        assert chain_sets(parsed) == chain_sets(doc)

    def test_identical_span_in_two_chains_rejected(self, example1_thread, example1_mentions):
        m = example1_mentions["i"]
        doc = AnnotatedDocument(
            thread=example1_thread,
            chains=(CoreferenceChain(1, (m,)), CoreferenceChain(2, (m,))),
        )
        with pytest.raises(OverlappingIdenticalSpan):
            write_conll(doc)

    # whitespace splits the id column, a leading "#" makes every row a
    # comment and ")" ends the id on the #begin document line
    @pytest.mark.parametrize("doc_id", ["a b/x.txt", "#x.txt", "abc)", "a\tb", "a\u2028b", "a\x1cb", "a\u00a0b", ""])
    def test_id_that_cannot_read_back_rejected(self, example1_document, doc_id):
        doc = example1_document._replace(thread=example1_document.thread._replace(id=doc_id))
        message = f"^document id {re.escape(repr(doc_id))} cannot be written to CoNLL: "
        with pytest.raises(ToolkitError, match=message):
            write_conll(doc)
        with pytest.raises(ToolkitError, match=message):
            write_conll_documents([example1_document, doc])

    # the native reader takes any nonempty token text; in CoNLL "a b" would
    # read back as "a", and a line break would split its row
    @pytest.mark.parametrize("text", ["a b", " a", "a\t", "a\u2028b", "a\x1cb", "a\u00a0b", "a\nb"])
    def test_token_that_cannot_read_back_rejected(self, example1_document, text):
        record = document_to_record(example1_document)
        record["messages"][0]["sentences"][2][1][0] = text
        doc = decode_line(json.dumps(record), 1)
        message = (f"^document 'example1': token {re.escape(repr(text))} at message 0, sentence 2, token 1 "
                   "cannot be written to CoNLL: a token there must hold no whitespace$")
        with pytest.raises(ToolkitError, match=message):
            write_conll(doc)
        with pytest.raises(ToolkitError, match=message):
            write_conll_documents([example1_document, doc])

    # a span past the sentence end was dropped, one that straddled it left
    # its chain unclosed, and one in no sentence raised a bare ValueError
    @pytest.mark.parametrize("location", [(0, 0, 5, 7), (0, 0, 1, 3), (0, 1, 0, 0), (1, 0, 0, 0)], ids=repr)
    def test_mention_that_addresses_no_token_rejected(self, location):
        thread = EmailThread("t", (EmailMessage(0, sentences=((
            Token("Hi", 0, 0, 0, Section.BODY, 0, 2), Token("Bob", 0, 1, 0, Section.BODY, 3, 6)),)),))
        doc = AnnotatedDocument(thread, (CoreferenceChain(0, (Mention(0, 0, 0, 0), Mention(*location))),))
        message = (f"^document 't': mention at {re.escape(repr(location))} addresses no token "
                   "and cannot be written to CoNLL$")
        with pytest.raises(ToolkitError, match=message) as err:
            write_conll(doc)
        assert type(err.value) is ToolkitError
        with pytest.raises(ToolkitError, match=message):
            write_conll_documents([doc._replace(chains=doc.chains[:0]), doc])

    @pytest.mark.parametrize("doc_id", ["a(b", "x#", "x.txt#", "ü.txt", "u01/inbox/3.", "a;b", "(x"])
    def test_other_ids_round_trip(self, example1_document, doc_id):
        doc = example1_document._replace(thread=example1_document.thread._replace(id=doc_id))
        back = read_conll(write_conll(doc))
        assert back.thread.id == doc_id
        assert [t.text for t in back.thread.tokens()] == [t.text for t in doc.thread.tokens()]
        assert chain_sets(back) == chain_sets(doc)


class TestReadConll:
    def test_round_trip_example1(self, example1_document):
        text = write_conll(example1_document)
        parsed = read_conll(text)
        assert parsed.thread.id == "example1"
        assert [t.text for t in parsed.thread.tokens()] == [
            t.text for t in example1_document.thread.tokens()
        ]
        assert chain_sets(parsed) == chain_sets(example1_document)

    def test_unclosed_span_rejected(self):
        text = (
            "#begin document (x); part 000\n"
            "x\t0\t0\thello\t(3\n"
            "\n#end document\n"
        )
        with pytest.raises(MalformedColumn) as err:
            read_conll(text)
        assert "unclosed" in str(err.value)

    def test_closing_unopened_rejected(self):
        text = (
            "#begin document (x); part 000\n"
            "x\t0\t0\thello\t3)\n"
            "\n#end document\n"
        )
        with pytest.raises(MalformedColumn):
            read_conll(text)

    def test_bad_entry_rejected_with_line_number(self):
        text = (
            "#begin document (x); part 000\n"
            "x\t0\t0\thello\t(3(\n"
            "\n#end document\n"
        )
        with pytest.raises(MalformedColumn) as err:
            read_conll(text)
        assert err.value.line_number == 2

    @pytest.mark.parametrize("entry", ["(²)", "²)", "(²", "(٣)"])
    def test_non_ascii_digit_entry_rejected_with_line_number(self, entry):
        # str.isdigit() holds for both, int() reads "٣" as 3 and fails on "²"
        text = (
            "#begin document (x); part 000\n"
            f"x\t0\t0\thello\t(2)|{entry}\n"
            "\n#end document\n"
        )
        with pytest.raises(MalformedColumn, match=f"^line 2: bad coref entry {re.escape(repr(entry))}$"):
            read_conll(text)

    def test_cross_sentence_span_rejected(self):
        text = (
            "#begin document (x); part 000\n"
            "x\t0\t0\ta\t(3\n"
            "\n"
            "x\t0\t0\tb\t3)\n"
            "\n#end document\n"
        )
        with pytest.raises(MalformedColumn):
            read_conll(text)

    def test_missing_end_rejected(self):
        with pytest.raises(MalformedColumn):
            read_conll("#begin document (x); part 000\nx\t0\t0\ta\t-\n")

    @pytest.mark.parametrize("begin", ["#begin document (abc; part 000", "#begin document (", "#begin document abc",
                                       "#begin document abc); part 000"])
    def test_begin_line_must_enclose_the_id(self, begin):
        text = f"{begin}\nabc\t0\t0\thello\t(1)\n\n#end document\n"
        for reader in (serialization.iter_conll_documents, oracles.iter_conll_documents_reference):
            with pytest.raises(MalformedColumn, match="^line 1: malformed #begin document line$"):
                list(reader(text.splitlines()))

    def test_multiple_documents(self, example1_document):
        text = write_conll_documents([example1_document, example1_document])
        docs = read_conll_documents(text)
        assert len(docs) == 2
        with pytest.raises(MalformedColumn):
            read_conll(text)

    def test_chain_count_matches_independent_scan(self, example1_document):
        text = write_conll(example1_document)
        import re

        ids = set(re.findall(r"\((\d+)", text.split("part 000", 1)[1]))
        parsed = read_conll(text)
        assert {c.chain_id for c in parsed.chains} == {int(i) for i in ids}


class TestNativeFormat:
    def test_round_trip_example1_exact(self, example1_document):
        line = write_native_string([example1_document])
        docs = read_native(line)
        assert len(docs) == 1
        assert docs[0] == example1_document

    def test_empty_input(self):
        assert read_native("") == []

    def test_entity_types_preserved(self, example1_thread, example1_mentions):
        m = example1_mentions["crestone"]
        typed = Mention(m.message_index, m.sentence_index, m.start_token, m.end_token, EntityType.LOC)
        doc = AnnotatedDocument(
            thread=example1_thread, chains=(CoreferenceChain(0, (typed,)),)
        )
        out = read_native(write_native_string([doc]))[0]
        assert out.chains[0].mentions[0].entity_type is EntityType.LOC

    def test_schema_error_names_path(self, example1_document):
        record = document_to_record(example1_document)
        record["messages"][0]["sentences"][0][0][1] = "zz"  # bad section code
        with pytest.raises(NativeSchemaError) as err:
            decode_both(record)
        assert "$.messages[0].sentences[0][0]" in str(err.value)

    def test_bad_date_rejected(self, example1_document):
        record = document_to_record(example1_document)
        record["messages"][0]["date"] = "not-a-date"
        with pytest.raises(NativeSchemaError) as err:
            decode_both(record)
        assert ".date" in str(err.value)

    def test_bad_json_line_rejected(self):
        with pytest.raises(NativeSchemaError) as err:
            read_native("{broken\n")
        assert "line 1" in str(err.value)

    def test_feature_columns_emitted(self, example1_document):
        record = document_to_record(example1_document, features=("mi", "si"))
        assert set(record["features"]) == {"mi", "si"}
        mi = record["features"]["mi"][0]
        assert all(v == 0 for sent in mi for v in sent)
        si = record["features"]["si"][0]
        assert si[0][0] == "h"
        # the features block does not disturb reading
        import json

        assert record_to_document(json.loads(json.dumps(record))) == example1_document


# Characters str.splitlines() breaks at besides "\n" and "\r"; write_native
# leaves the first three raw in its output and escapes the others.
LINE_BREAKING_CHARS = ("\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e")


def with_header_text(doc, text):
    first = doc.thread.messages[0]
    first = first._replace(subject=f"Budget{text}review", to_addrs=(*first.to_addrs, f"a{text}b"))
    thread = doc.thread._replace(messages=(first, *doc.thread.messages[1:]))
    return doc._replace(thread=thread)


class TestLineSeparators:
    @pytest.mark.parametrize("char", LINE_BREAKING_CHARS, ids=lambda c: f"U+{ord(c):04X}")
    def test_header_field_survives_round_trip(self, example1_document, char):
        doc = with_header_text(example1_document, char)
        text = write_native_string([doc, example1_document])
        assert read_native(text) == [doc, example1_document]

    def test_line_numbers_count_newlines_only(self, example1_document):
        doc = with_header_text(example1_document, "".join(LINE_BREAKING_CHARS))
        with pytest.raises(NativeSchemaError, match="^line 2: invalid JSON"):
            read_native(write_native_string([doc]) + "{broken\n")


class TestFileReaders:
    """The streaming file readers split a file as the text readers split its text."""

    @staticmethod
    def _read_all(reader, path):
        items = []
        try:
            for item in reader(path):
                items.append(item)
        except MalformedColumn as exc:
            return items, str(exc)
        except NativeSchemaError as exc:
            return items, str(exc)
        return items, None

    @staticmethod
    def _read_text(reader, text):
        try:
            return reader(text), None
        except (MalformedColumn, NativeSchemaError) as exc:
            return None, str(exc)

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_native_splits_on_newline_only(self, example1_document, tmp_path, newline):
        doc = with_header_text(example1_document, "".join(LINE_BREAKING_CHARS))
        text = write_native_string([doc, example1_document]) + "  \n\n" + '{"id":\n'
        path = tmp_path / "odd.jsonl"
        path.write_bytes(text.replace("\n", newline).encode("utf-8"))
        items, error = self._read_all(native_file, path)
        assert items == [(1, doc), (2, example1_document)]
        # the same message, column included, as the text reader gives
        assert error == "line 5: invalid JSON: Expecting value: line 1 column 7 (char 6)"
        assert self._read_text(read_native, path.read_text(encoding="utf-8")) == (None, error)

    @pytest.mark.parametrize("cut", [0, 1, 15])
    def test_conll_splits_as_splitlines(self, example1_document, tmp_path, cut):
        doc = with_header_text(example1_document, "")
        text = write_conll_documents([doc, example1_document])
        # line breaks of every kind str.splitlines knows, and a final cut
        rows = text.split("\n")
        breaks = ["\n", "\r\n", "\r", *LINE_BREAKING_CHARS]
        text = "".join(row + breaks[i % len(breaks)] for i, row in enumerate(rows[:-1]))
        text = text[: len(text) - cut]
        path = tmp_path / "odd.conll"
        path.write_bytes(text.encode("utf-8"))
        items, error = self._read_all(conll_file, path)
        expected, expected_error = self._read_text(
            read_conll_documents, path.read_text(encoding="utf-8")
        )
        assert error == expected_error
        if error is None:
            assert items == expected and len(items) == 2
        else:
            assert error.startswith("line ")


class TestRandomizedRoundTrip:
    def test_both_formats(self):
        rng = random.Random(71)
        for _ in range(30):
            doc, _ = synthetic_document(rng)
            assert validate_document(doc) == []
            native = read_native(write_native_string([doc]))[0]
            assert native == doc
            skeleton = read_conll(write_conll(doc))
            assert [t.text for t in skeleton.thread.tokens()] == [
                t.text for t in doc.thread.tokens()
            ]
            assert chain_sets(skeleton) == chain_sets(doc)

    def test_conll_write_is_stable_on_own_image(self, example1_document):
        once = write_conll(example1_document)
        again = write_conll(read_conll(once))
        assert once == again


class TestAddressing:
    def test_absolute_round_trip(self, example1_document):
        thread = example1_document.thread
        for chain in example1_document.chains:
            for mention in chain.mentions:
                start, end = mention_to_absolute(thread, mention)
                back = mention_from_absolute(thread, start, end)
                assert back == mention

    def test_flattening_covers_all_tokens(self, example1_thread):
        total = sum(len(s) for _, _, s in global_sentences(example1_thread))
        assert total == sum(1 for _ in example1_thread.tokens())

    def test_cross_sentence_absolute_span_rejected(self, example1_thread):
        first_len = len(example1_thread.messages[0].sentences[0])
        with pytest.raises(ValueError):
            mention_from_absolute(example1_thread, first_len - 1, first_len)


class TestDecoderHoles:
    """Token and header fields of the wrong JSON type are schema errors at their path."""

    def test_list_section_code_rejected(self, example1_document):
        record = document_to_record(example1_document)
        record["messages"][0]["sentences"][1][2][1] = ["b"]
        with pytest.raises(NativeSchemaError) as err:
            decode_both(record)
        assert err.value.path == "$.messages[0].sentences[1][2]"
        assert "unknown section code ['b']" in str(err.value)

    def test_numeric_token_text_rejected(self, example1_document):
        record = document_to_record(example1_document)
        record["messages"][0]["sentences"][0][3][0] = 42
        with pytest.raises(NativeSchemaError) as err:
            decode_both(record)
        assert err.value.path == "$.messages[0].sentences[0][3]"
        assert "must be a string" in str(err.value)

    @pytest.mark.parametrize("field", ["from", "subject", "x_from"])
    @pytest.mark.parametrize("value", [5, ["a@b.com"], {"a": "b"}, True])
    def test_text_header_field_type_checked(self, example1_document, field, value):
        record = document_to_record(example1_document)
        record["messages"][0][field] = value
        with pytest.raises(NativeSchemaError) as err:
            decode_both(record)
        assert err.value.path == f"$.messages[0].{field}"
        assert err.value.message == "must be a string or null"

    @pytest.mark.parametrize("field", ["to", "cc", "x_to", "x_cc"])
    @pytest.mark.parametrize("value", ["abc", 5, None, {"a": "b"}, ["a@b.com", 7], [["a@b.com"]]])
    def test_address_list_field_type_checked(self, example1_document, field, value):
        record = document_to_record(example1_document)
        record["messages"][0][field] = value
        with pytest.raises(NativeSchemaError) as err:
            decode_both(record)
        assert err.value.path == f"$.messages[0].{field}"
        assert err.value.message == "must be a list of strings"

    def test_null_and_missing_header_fields_accepted(self, example1_document):
        record = document_to_record(example1_document)
        message = record["messages"][0]
        message["from"] = message["subject"] = None
        del message["x_from"], message["to"], message["x_cc"]
        doc = decode_both(record)
        decoded = doc.thread.messages[0]
        assert (decoded.from_addr, decoded.subject, decoded.x_from) == (None, None, None)
        assert decoded.to_addrs == () and decoded.x_cc == ()


_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.sampled_from(["", "h", "b", "f", "zz", "PER", "LOC", "2001-05-14T16:39:00", "x"]),
    st.text(max_size=4),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _sites(value, path=()):
    """Every position in a decoded JSON value, as a key/index path."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _sites(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _sites(item, path + (i,))


def _at(record, path):
    for step in path:
        record = record[step]
    return record


def _items(record, depth, section, key, size):
    """Lists of ``size`` elements at ``record[section][_][key][_]...``, ``depth`` steps down."""
    return [
        item
        for path in _sites(record)
        if len(path) == depth and path[0] == section and path[2] == key
        for item in [_at(record, path)]
        if isinstance(item, list) and len(item) >= size
    ]


def _mutate(data, record):
    """Apply one drawn mutation to ``record`` in place; a mutation whose target
    an earlier one destroyed does nothing."""
    kind = data.draw(st.sampled_from(
        ["replace", "replace", "replace", "delete", "invert_token", "negative_offset", "overlap",
         "empty_sentence", "bad_date", "invert_mention", "entity_type", "token_field",
         "repeat_mention", "repeat_chain_id", "stray_mention"]))
    if kind in ("replace", "delete"):
        sites = list(_sites(record))[1:]
        if not sites:
            return
        path = sites[data.draw(st.integers(0, len(sites) - 1))]
        parent = _at(record, path[:-1])
        if kind == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(_JSON_VALUES)
        return
    if kind in ("empty_sentence", "bad_date"):
        messages = record.get("messages")
        messages = [m for m in messages if isinstance(m, dict)] if isinstance(messages, list) else []
        if not messages:
            return
        message = data.draw(st.sampled_from(messages))
        if kind == "bad_date":
            message["date"] = data.draw(st.sampled_from(["not-a-date", "2001-13-01", 17, ["2001"], ""]))
        elif isinstance(message.get("sentences"), list) and message["sentences"]:
            message["sentences"][data.draw(st.integers(0, len(message["sentences"]) - 1))] = []
        return
    if kind in ("repeat_mention", "repeat_chain_id"):
        chains = record.get("chains")
        chains = [c for c in chains if isinstance(c, dict)] if isinstance(chains, list) else []
        if not chains:
            return
        source, target = data.draw(st.sampled_from(chains)), data.draw(st.sampled_from(chains))
        if kind == "repeat_chain_id":
            target["id"] = source.get("id")
        elif isinstance(source.get("mentions"), list) and source["mentions"] \
                and isinstance(target.get("mentions"), list):
            copy_of = copy.deepcopy(data.draw(st.sampled_from(source["mentions"])))
            target["mentions"].insert(data.draw(st.integers(0, len(target["mentions"]))), copy_of)
        return
    if kind in ("invert_mention", "entity_type", "stray_mention"):
        mentions = _items(record, 4, "chains", "mentions", 4)
        if not mentions:
            return
        item = data.draw(st.sampled_from(mentions))
        if kind == "invert_mention" and all(isinstance(v, int) for v in item[2:4]):
            item[2], item[3] = item[3] + 1, item[2]
        elif kind == "stray_mention":
            # to a message or sentence that does not exist, or past its sentence's end
            item[data.draw(st.sampled_from([0, 1, 3]))] = 999
        elif kind == "entity_type":
            item[4:] = [data.draw(st.sampled_from(["PER", "ORG", "XYZ", 3, None, ["PER"]]))]
        return
    tokens = _items(record, 5, "messages", "sentences", 4)
    if not tokens:
        return
    item = data.draw(st.sampled_from(tokens))
    if kind == "invert_token":
        item[2], item[3] = item[3], item[2]
    elif kind == "negative_offset":
        item[2] = -1
    elif kind == "overlap":
        item[2], item[3] = 0, 1
    else:
        item[data.draw(st.integers(0, 3))] = data.draw(st.one_of(
            _JSON_SCALARS, st.sampled_from([[], ["b"], {}, {"h": 1}, [1, 2], "abcd"])))


_TOKEN_PATH = re.compile(r"^\$\.messages\[(\d+)\]\.sentences\[(\d+)\]\[(\d+)\]$")
_HEADER_PATH = re.compile(r"^\$\.messages\[(\d+)\]\.(from|subject|x_from|to|cc|x_to|x_cc)$")
_MENTION_PATH = re.compile(r"^\$\.chains\[(\d+)\]\.mentions\[(\d+)\]$")
_CHAIN_ID_PATH = re.compile(r"^\$\.chains\[(\d+)\]\.id$")


def _not_integers(values) -> bool:
    return any(type(v) is not int for v in values)


def _addresses_a_token(record, location) -> bool:
    message, sentence, _, end = location
    messages = record["messages"]
    return (message < len(messages) and sentence < len(messages[message]["sentences"])
            and end < len(messages[message]["sentences"][sentence]))


def _is_hole(record, path) -> bool:
    """True if ``path`` names a value the reference decoder accepted or misreported:
    a token whose section code is unhashable, whose text is a non-string or
    whose offsets are not all JSON integers, a header field of the wrong JSON
    type, a mention index or chain id that is not a JSON integer, a mention
    location that an earlier mention holds or that addresses no token, or a
    chain id an earlier chain has."""
    match = _TOKEN_PATH.match(path)
    if match:
        mi, si, ti = map(int, match.groups())
        item = record["messages"][mi]["sentences"][si][ti]
        text, code = item[0], item[1]
        return (isinstance(code, (list, dict)) or (bool(text) and not isinstance(text, str))
                or _not_integers(item[2:4]))
    match = _MENTION_PATH.match(path)
    if match:
        ci, mi = map(int, match.groups())
        chains = record["chains"]
        earlier = [m for chain in chains[:ci] for m in chain["mentions"]] + chains[ci]["mentions"][:mi]
        location = chains[ci]["mentions"][mi][:4]
        return (_not_integers(location) or location in [m[:4] for m in earlier]
                or not _addresses_a_token(record, location))
    match = _CHAIN_ID_PATH.match(path)
    if match:
        ci = int(match.group(1))
        chain_id = record["chains"][ci]["id"]
        return _not_integers([chain_id]) or chain_id in [c["id"] for c in record["chains"][:ci]]
    match = _HEADER_PATH.match(path)
    if match:
        message, name = record["messages"][int(match.group(1))], match.group(2)
        if name in ("from", "subject", "x_from"):
            return message.get(name) is not None and not isinstance(message[name], str)
        value = message.get(name, [])
        return not (isinstance(value, list) and all(isinstance(v, str) for v in value))
    return False


class TestDecoderDifferential:
    """The decoder against the reference decoder kept in ``oracles``, on mutated fixtures."""

    @pytest.fixture(scope="class")
    def fixture_records(self, example1_document):
        rng = random.Random(11)
        docs = [example1_document] + [synthetic_document(rng)[0] for _ in range(2)]
        records = [document_to_record(doc) for doc in docs]
        records[1] = document_to_record(docs[1], features=("mi", "si"))
        return [json.dumps(record) for record in records]

    @staticmethod
    def _outcome(decode, record):
        try:
            return ("document", document_to_record(decode(record)))
        except NativeSchemaError as exc:
            return ("error", exc.path, str(exc))

    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_same_document_or_same_error(self, fixture_records, data):
        record = json.loads(data.draw(st.sampled_from(fixture_records)))
        for _ in range(data.draw(st.integers(1, 3))):
            _mutate(data, record)
        new = self._outcome(decode_both, record)
        try:
            reference = self._outcome(oracles.record_to_document_reference, record)
        except TypeError:
            reference = ("crash",)
        if new != reference:
            assert new[0] == "error" and _is_hole(record, new[1]), (new, reference)


def reference_conll(text):
    """``read_conll_documents`` with the CoNLL document builder it replaced."""
    def reference(doc, words):
        chains = {chain.chain_id: [m.location[1:] for m in chain.mentions] for chain in doc.chains}
        return oracles.skeleton_document_reference(doc.thread.id, words, chains)

    with mock.patch.object(serialization, "_skeleton_document", reference):
        return read_conll_documents(text)


@pytest.fixture(scope="module")
def sample_documents(example1_document):
    rng = random.Random(5)
    return [example1_document] + [synthetic_document(rng, max_messages=5)[0] for _ in range(6)]


class TestOnePassBuild:
    """The readers build documents without re-running the constructors' checks;
    what they build must be what the checked constructors build."""

    def test_native_equals_checked_build(self, sample_documents):
        for doc in sample_documents:
            decoded = record_to_document(json.loads(json.dumps(document_to_record(doc))))
            assert build_fields(decoded) == build_fields(doc) == build_fields(checked_document(decoded))

    def test_native_header_defaults(self, example1_document):
        record = document_to_record(example1_document)
        record["messages"][0] = {"sentences": record["messages"][0]["sentences"]}
        decoded = record_to_document(record).thread.messages[0]
        expected = EmailMessage(index=0, sentences=example1_document.thread.messages[0].sentences)
        assert decoded._asdict() == expected._asdict()

    def test_conll_equals_checked_build(self, sample_documents):
        text = write_conll_documents(sample_documents)
        docs = read_conll_documents(text)
        assert len(docs) == len(sample_documents)
        assert [build_fields(d) for d in docs] == [build_fields(d) for d in reference_conll(text)]
        # the skeleton message carries every header default
        assert docs[0].thread.messages[0]._asdict() == (
            EmailMessage(index=0, sentences=docs[0].thread.messages[0].sentences)._asdict()
        )

    def test_token_texts_are_interned(self, sample_documents):
        native = read_native(write_native_string(sample_documents))
        conll = read_conll_documents(write_conll_documents(sample_documents))
        for doc in native + conll:
            assert all(t.text is sys.intern(t.text) for t in doc.thread.tokens())

    def test_valid_input_runs_no_constructor_check(self, sample_documents):
        native = write_native_string(sample_documents)
        conll = write_conll_documents(sample_documents)
        checked = mock.Mock(side_effect=AssertionError("a checked constructor ran"))
        with mock.patch.object(Token, "__new__", checked), \
                mock.patch.object(EmailMessage, "__new__", checked), \
                mock.patch.object(EmailThread, "__new__", checked):
            read_native(native)
            read_conll_documents(conll)
        checked.assert_not_called()

    def test_survives_pickling_copy_and_replace(self, sample_documents):
        native = read_native(write_native_string(sample_documents))
        conll = read_conll_documents(write_conll_documents(sample_documents))
        for doc in native + conll:
            checked = checked_document(doc)
            for again in (pickle.loads(pickle.dumps(doc)), copy.deepcopy(doc), copy.copy(doc)):
                assert build_fields(again) == build_fields(checked)
            assert hash(doc.thread) == hash(checked.thread)
            # replace runs the constructors' checks, which the built objects pass
            assert build_fields(doc._replace(thread=doc.thread._replace())) == build_fields(checked)
            first = doc.thread.messages[0]
            assert first._replace(subject="x") == checked.thread.messages[0]._replace(subject="x")
            # and still reject what they rejected: a token repeated in its sentence
            with pytest.raises(ValueError, match="carries indices"):
                first._replace(sentences=((first.sentences[0][0],) * 2,))


def _decoded_or_error(record):
    """Both decoders' outcomes on a record: the document's fields, or the error."""
    outcomes = []
    for decode in (decode_both, oracles.record_to_document_reference):
        try:
            doc = decode(json.loads(json.dumps(record)))
        except NativeSchemaError as exc:
            outcomes.append(("error", exc.path, str(exc)))
        else:
            outcomes.append(("document", document_to_record(doc)))
    return outcomes


def _multi_message_record(sample_documents):
    doc = next(d for d in sample_documents if len(d.thread.messages) >= 2)
    return document_to_record(doc)


class TestDecoderTargeted:
    """Values the direct token build must leave to ``Token``, and overlaps."""

    @pytest.mark.parametrize("offsets, message", [
        ((0.0, 1.5), "char_start must be an integer, got 0.0"),
        ((False, True), "char_start must be an integer, got False"),
        ((0, 1.0), "char_end must be an integer, got 1.0"),
        ((False, 1), "char_start must be an integer, got False"),
    ], ids=repr)
    def test_float_and_bool_offsets_rejected(self, example1_document, offsets, message):
        # the reference decoder accepted these: Token only compares its offsets
        record = document_to_record(example1_document)
        record["messages"][0]["sentences"][0][0][2:] = offsets
        new, reference = _decoded_or_error(record)
        assert reference[0] == "document"
        assert new == ("error", "$.messages[0].sentences[0][0]", f"$.messages[0].sentences[0][0]: {message}")

    @pytest.mark.parametrize("position, value, path, message", [
        (0, True, "$.chains[0].mentions[0]", "message_index must be an integer, got True"),
        (2, 0.5, "$.chains[0].mentions[0]", "start_token must be an integer, got 0.5"),
        (3, 2.0, "$.chains[0].mentions[0]", "end_token must be an integer, got 2.0"),
        ("id", True, "$.chains[0].id", "chain id must be an int"),
        ("id", 0.0, "$.chains[0].id", "chain id must be an int"),
    ], ids=repr)
    def test_non_integer_mention_index_or_chain_id_rejected(self, example1_document, position, value, path, message):
        record = document_to_record(example1_document)
        chain = record["chains"][0]
        if position == "id":
            chain["id"] = value
        else:
            chain["mentions"][0][position] = value
        new, _ = _decoded_or_error(record)
        assert new == ("error", path, f"{path}: {message}")

    @pytest.mark.parametrize("offsets, message", [
        ((True, True), "char_start must be < char_end, got [True, True)"),
        ((1.5, 1.5), "char_start must be < char_end, got [1.5, 1.5)"),
        ((-0.5, 1), "char_start must be nonnegative, got -0.5"),
        ((True, "2"), "'<=' not supported between instances of 'str' and 'bool'"),
        (("", 0, 1), "token text must be nonempty"),
        ((0, 0, 1), "token text must be nonempty"),
    ], ids=repr)
    def test_bad_token_values_keep_their_message(self, example1_document, offsets, message):
        record = document_to_record(example1_document)
        token = record["messages"][0]["sentences"][0][0]
        if len(offsets) == 3:  # text, char_start, char_end
            token[0], token[2], token[3] = offsets
        else:
            token[2:] = offsets
        new, reference = _decoded_or_error(record)
        assert new == reference == ("error", "$.messages[0].sentences[0][0]", f"$.messages[0].sentences[0][0]: {message}")

    def test_overlap_reported_after_a_later_message_error(self, sample_documents):
        record = _multi_message_record(sample_documents)
        first, second = record["messages"][0]["sentences"][0][:2]
        second[2] = first[3] - 1
        record["messages"][1]["date"] = 17
        new, reference = _decoded_or_error(record)
        assert new == reference == ("error", "$.messages[1].date", "$.messages[1].date: bad timestamp 17")
        # the reference decoder does not type-check "from"; the decoder reports it
        # where it reports the date, before the overlap
        record["messages"][1]["date"] = None
        record["messages"][1]["from"] = 7
        with pytest.raises(NativeSchemaError) as err:
            decode_both(record)
        assert (err.value.path, err.value.message) == ("$.messages[1].from", "must be a string or null")

    @pytest.mark.parametrize("where", ["in a sentence", "across sentences", "across messages"])
    def test_token_starting_before_the_previous_end(self, sample_documents, where):
        record = _multi_message_record(sample_documents)
        messages = record["messages"]
        if where == "in a sentence":
            before, token = messages[0]["sentences"][0][:2]
        elif where == "across sentences":
            before, token = messages[0]["sentences"][0][-1], messages[0]["sentences"][1][0]
        else:
            before, token = messages[0]["sentences"][-1][-1], messages[1]["sentences"][0][0]
        token[2] = before[3] - 1
        token[3] = max(token[3], token[2] + 1)
        new, reference = _decoded_or_error(record)
        assert new == reference
        assert new[:2] == ("error", "$")
        assert f"at char {before[3] - 1} overlaps previous token ending at {before[3]}" in new[2]

    @pytest.mark.parametrize("second", ["same message", "later message"])
    def test_first_of_two_overlaps_reported(self, sample_documents, second):
        record = _multi_message_record(sample_documents)
        messages = record["messages"]
        first = messages[0]["sentences"][0][1]
        first[2] = messages[0]["sentences"][0][0][3] - 1
        later = messages[0]["sentences"][-1] if second == "same message" else messages[1]["sentences"][0]
        assert later[-1] is not first
        later[-1][2:] = [0, 1]
        new, reference = _decoded_or_error(record)
        assert new == reference
        assert new[:2] == ("error", "$") and f"token {first[0]!r} at char {first[2]} overlaps" in new[2]

    def test_token_starting_at_the_previous_end(self, sample_documents):
        record = _multi_message_record(sample_documents)
        before, token = record["messages"][0]["sentences"][-1][-1], record["messages"][1]["sentences"][0][0]
        token[2] = before[3]
        new, reference = _decoded_or_error(record)
        assert new == reference and new[0] == "document"


def threadless_conll_outcome(text, skeletons=False):
    """What the reader keeps of CoNLL text: each document's id and chains, or
    the error; with ``skeletons`` the same of the documents that
    ``_skeleton_document`` makes of what the reader yields."""
    try:
        items = list(serialization.iter_conll_documents(text.split("\n")))
    except MalformedColumn as exc:
        return ("error", exc.line_number, str(exc))
    if skeletons:
        return ("documents", [chain_fields(serialization._skeleton_document(doc, words)) for doc, words, _ in items])
    assert all(doc.thread.messages == () for doc, *_ in items)
    return ("documents", [chain_fields(doc) for doc, *_ in items])


_CONLL_CORRUPTIONS = [
    "-", "_", "(1)", "(2", "2)", "(1)|(2", "3)|(3)", "(0)|0)", "x", "(a)", "()", "(1|2)", "(12345)",
    "(1)|(2)", "(2)|(2)",
]
_CONLL_LINES = [
    "", "   ", "#begin document (z); part 000", "#begin document z", "#end document", "# note",
    "z\t0\t0\tword", "z 0 0 é (4)", "z\t0\t1\tx\t-\textra\t(5)",
]


class TestConllBuilderDifferential:
    """The CoNLL reader against the same reader with the builder kept in ``oracles``."""

    @pytest.fixture(scope="class")
    def conll_texts(self, example1_document):
        rng = random.Random(17)
        docs = [example1_document] + [synthetic_document(rng)[0] for _ in range(2)]
        return [write_conll(doc) for doc in docs] + [write_conll_documents(docs[1:])]

    @staticmethod
    def _outcome(text):
        outcomes = []
        for read in (read_conll_documents, reference_conll):
            try:
                outcomes.append(("documents", [build_fields(d) for d in read(text)]))
            except MalformedColumn as exc:
                outcomes.append(("error", exc.line_number, str(exc)))
        assert threadless_conll_outcome(text) == threadless_conll_outcome(text, skeletons=True)
        return outcomes

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_same_documents_or_same_error(self, conll_texts, data):
        lines = data.draw(st.sampled_from(conll_texts)).split("\n")
        for _ in range(data.draw(st.integers(0, 3))):
            at = data.draw(st.integers(0, len(lines) - 1))
            kind = data.draw(st.sampled_from(["delete", "repeat", "insert", "coref", "word"]))
            if kind == "delete":
                del lines[at]
            elif kind == "repeat":
                lines.insert(at, lines[at])
            elif kind == "insert":
                lines.insert(at, data.draw(st.sampled_from(_CONLL_LINES)))
            else:
                cols = lines[at].split("\t")
                if len(cols) >= 5:
                    if kind == "coref":
                        cols[-1] = data.draw(st.sampled_from(_CONLL_CORRUPTIONS))
                    else:
                        cols[3] = data.draw(st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=4))
                    lines[at] = "\t".join(cols)
            if not lines:
                break
        new, reference = self._outcome("\n".join(lines))
        assert new == reference


# characters that str.split and str.strip take for whitespace but that
# str.splitlines does not take for a line break
_INLINE_SPACES = tuple(c for c in map(chr, range(0x3001)) if c.isspace() and len(f"a{c}a".splitlines()) == 1)
_LINE_BREAKS = ("\n", "\r\n", "\r", *LINE_BREAKING_CHARS)
_READER_LINES = [
    "", "# note", "#", "#end", "#begin document (z); part 000", "#begin document z", "#begin document (",
    "#begin document (z; part 000", "#begin document ()",
    "#end document", "  #end document", "\t#begin document (y); part 000", "\ufeff#begin document (b); part 000",
    "\ufeff", "z", "z 0 0", "z\t0\t0\tword", "z 0 0 é (4)", "z\t0\t1\tx\t-\textra\t(5)", "z\t0\t2\tw\t(6",
    "z\t0\t3\tw\t6)", "z\t0\t4\tw\t(7|(7", "z\t0\t5\tw\t7)|7)",
]
_READER_COREFS = [*_CONLL_CORRUPTIONS, "(1|(1", "1)|1)", "(1)|(1)", "(3|3)", "(9", "9)", "(1)|2)"]


def _reader_outcome(docs):
    """The repr of each document read, then the error's line and message, if any."""
    got = []
    try:
        for doc in docs:
            got.append(repr(doc))
    except MalformedColumn as exc:
        return got, exc.line_number, str(exc)
    return got, None, None


class TestConllReaderDifferential:
    """The CoNLL line reader against the one that stripped and prefix-tested
    every line, kept in ``oracles``: on mutated text, with and without the
    skeleton threads that the word lists make, the same documents or the same
    line and message, also through the stream reader with its batches ending
    at any line."""

    @pytest.fixture(scope="class")
    def conll_texts(self, example1_document):
        rng = random.Random(23)
        docs = [example1_document] + [synthetic_document(rng)[0] for _ in range(2)]
        return [write_conll(doc) for doc in docs] + [write_conll_documents(docs[1:])]

    @staticmethod
    def _mutated(data, lines):
        for _ in range(data.draw(st.integers(0, 4))):
            if not lines:
                break
            at = data.draw(st.integers(0, len(lines) - 1))
            kind = data.draw(st.sampled_from(
                ["delete", "repeat", "insert", "blank", "coref", "word", "columns", "spaces", "cut"]))
            if kind == "delete":
                del lines[at]
            elif kind == "repeat":
                lines.insert(at, lines[at])
            elif kind == "insert":
                lines.insert(at, data.draw(st.sampled_from(_READER_LINES)))
            elif kind == "blank":
                lines.insert(at, "".join(data.draw(st.lists(st.sampled_from(_INLINE_SPACES), max_size=3))))
            elif kind == "cut":
                del lines[at:]
            elif kind == "spaces":
                # columns, or a marker line, apart or led by any whitespace
                space = data.draw(st.sampled_from(_INLINE_SPACES))
                lines[at] = space + lines[at].replace("\t", space)
            else:
                cols = lines[at].split("\t")
                if len(cols) >= 5:
                    if kind == "coref":
                        cols[-1] = data.draw(st.sampled_from(_READER_COREFS))
                    elif kind == "columns":
                        del cols[data.draw(st.integers(1, 4)):]
                    else:
                        cols[3] = data.draw(st.text(st.characters(blacklist_categories=("Z", "C")), min_size=1, max_size=4))
                    lines[at] = "\t".join(cols)
        breaks = data.draw(st.lists(st.sampled_from(_LINE_BREAKS), min_size=1, max_size=4))
        text = "".join(line + breaks[i % len(breaks)] for i, line in enumerate(lines))
        if data.draw(st.booleans()):
            text = text[: len(text) - len(breaks[(len(lines) - 1) % len(breaks)])]
        return ("\ufeff" if data.draw(st.integers(0, 9)) == 0 else "") + text

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_same_documents_or_same_error(self, conll_texts, data):
        text = self._mutated(data, data.draw(st.sampled_from(conll_texts)).split("\n"))
        batch = data.draw(st.sampled_from([1, 2, 3, 5, serialization._CONLL_BATCH_LINES]))
        for skeletons in (True, False):
            def outcome(items):
                return _reader_outcome(serialization._skeleton_document(*item[:2]) if skeletons else item for item in items)

            reference = outcome(oracles.iter_conll_documents_reference(text.splitlines()))
            assert outcome(serialization.iter_conll_documents(text.splitlines())) == reference
            with mock.patch.object(serialization, "_CONLL_BATCH_LINES", batch):
                # a text file's lines, and pieces that end at any line break
                for pieces in (io.StringIO(text, newline=None), text.splitlines(keepends=True)):
                    assert outcome(serialization.stream_conll_documents(pieces)) == reference


def _corpus10_record(thread, rng):
    """A record of a corpus10 thread with chains over the first tokens of its sentences."""
    sentences = [(msg.index, si, len(sent)) for msg in thread.messages for si, sent in enumerate(msg.sentences)]
    chains = {}
    for mi, si, length in sentences:
        end = rng.randrange(length)
        etype = rng.choice([None, *EntityType])
        chains.setdefault(rng.randrange(4), []).append(Mention(mi, si, 0, end, etype))
    chain_objs = tuple(CoreferenceChain(cid, tuple(ms)) for cid, ms in sorted(chains.items()))
    return document_to_record(AnnotatedDocument(thread=thread, chains=chain_objs))


class TestThreadlessDecode:
    """``decode_record`` checks every record as the full decode does, and its
    document keeps only the id, the source path and the chains."""

    @pytest.fixture(scope="class")
    def fixture_lines(self, example1_document, corpus10_threads):
        rng = random.Random(23)
        records = [document_to_record(example1_document)]
        records += [_corpus10_record(thread, rng) for thread in corpus10_threads]
        return [json.dumps(record) for record in records]

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_same_error_or_same_chains(self, fixture_lines, data):
        record = json.loads(data.draw(st.sampled_from(fixture_lines)))
        for _ in range(data.draw(st.integers(0, 3))):
            _mutate(data, record)
        try:
            decode_both(record)
        except NativeSchemaError:
            pass

    def test_fixture_records_decode(self, fixture_lines):
        for line in fixture_lines:
            full = decode_line(line, 1)
            assert decode_both(json.loads(line)) == full
            assert full.thread.messages and full.chains

    def test_bad_json_line(self):
        errors = []
        for decode in (decode_line, serialization.decode_record):
            with pytest.raises(NativeSchemaError) as err:
                decode("{broken", 4)
            errors.append((err.value.path, str(err.value)))
        assert errors[0] == errors[1] and errors[0][0] == "line 4"

    @staticmethod
    @contextmanager
    def _no_token():
        """Fails the block at the first token built, either way one can be."""
        def no_token(cls, values):
            # mentions and chains are built by tuple.__new__ too, and must be
            if cls is Token:
                raise AssertionError("a token was built")
            return tuple.__new__(cls, values)

        with mock.patch.object(serialization, "_tuple_new", no_token), \
                mock.patch.object(features, "_tuple_new", no_token), \
                mock.patch.object(Token, "__new__", side_effect=AssertionError("a token was built")):
            yield

    def test_builds_no_token(self, sample_documents):
        native = write_native_string(sample_documents).splitlines()
        conll = write_conll_documents(sample_documents).split("\n")

        with self._no_token():
            bare = [serialization.decode_record(line, n)[1] for n, line in enumerate(native, start=1)]
            skeletons = [doc for doc, *_ in serialization.iter_conll_documents(conll)]
        assert [chain_fields(doc) for doc in bare] == [chain_fields(doc) for doc in sample_documents]
        assert [doc.chains for doc in skeletons] == [doc.chains for doc in read_conll_documents("\n".join(conll))]
        assert all(doc.thread.messages == () for doc in bare + skeletons)

    def test_record_sentence_builds_the_tokens_of_a_full_decode(self, fixture_lines):
        for line_no, line in enumerate(fixture_lines, start=1):
            record, bare, _ = serialization.decode_record(line, line_no)
            full = decode_line(line, line_no)
            assert bare.thread.messages == () and bare.chains == full.chains
            for msg in full.thread.messages:
                for si, sentence in enumerate(msg.sentences):
                    built = serialization.record_sentence(record, msg.index, si)
                    assert built == sentence and all(type(token) is Token for token in built)
                    assert all(a.text is b.text for a, b in zip(built, sentence))

    def test_stats_builds_no_token(self, sample_documents, tmp_path, capsys):
        path = tmp_path / "docs.jsonl"
        path.write_text(write_native_string(sample_documents), encoding="utf-8")
        with self._no_token():
            assert cli.main(["stats", "--in", str(path)]) == 0
        assert f"email_threads\t{len(sample_documents)}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("args", [
        ["features", "--in", "{docs}", "--out", "{out}", "--mi", "--si", "--rev"],
        ["features", "--in", "{docs}", "--out", "{out}", "--si"],
        ["errors", "--key", "{docs}", "--response", "{resolved}"],
        ["filter", "--in", "{docs}", "--report", "{out}", "--verdicts", "{verdicts}"],
    ], ids=["features-rev", "features", "errors", "filter"])
    def test_reader_builds_no_token(self, sample_documents, tmp_path, capsys, args):
        paths = {name: tmp_path / f"{name}.jsonl" for name in ("docs", "resolved", "out", "verdicts")}
        paths["docs"].write_text(write_native_string(sample_documents), encoding="utf-8")
        assert cli.main(["resolve", "--baseline", "hb2", "--in", str(paths["docs"]), "--out", str(paths["resolved"])]) == 0
        argv = [arg.format(**paths) for arg in args]

        def run() -> tuple[str, str]:
            assert cli.main(argv) == 0
            return capsys.readouterr().out, paths["out"].read_text(encoding="utf-8") if "{out}" in args else ""

        want = run()
        with self._no_token():
            assert run() == want
        # the rows are those of a full decode
        docs = read_native(paths["docs"].read_text(encoding="utf-8"))
        if args[0] == "features":
            columns = [name for name in ("mi", "si") if f"--{name}" in args]
            assert want[1] == write_native_string(
                [reverse_document(d) if "--rev" in args else d for d in docs], features=columns)
            assert "--rev" not in args or want[1] != write_native_string(docs, features=columns)
        elif args[0] == "errors":
            resolved = paths["resolved"].read_text(encoding="utf-8").splitlines()
            report = oracles.errors_report_reference(paths["docs"].read_text(encoding="utf-8").splitlines(), resolved)
            rows = ["category\tcount"] + [f"{label}\t{getattr(report, attr)}" for label, attr in cli._ERROR_ROWS]
            assert want[0] == "\n".join(rows) + "\n" and report != ErrorReport()
        else:
            verdicts, _ = filter_corpus([d.thread for d in docs])
            assert paths["verdicts"].read_text(encoding="utf-8").splitlines()[1:] == [
                f"{v.thread_id}\t{v.category.value}\t{v.detail}" for v in verdicts]

    @pytest.mark.parametrize("command", ["score", "errors", "correction-stats"])
    def test_conll_pair_commands_build_no_token(self, sample_documents, tmp_path, capsys, command):
        key, response = tmp_path / "key.conll", tmp_path / "response.conll"
        key.write_text(write_conll_documents(sample_documents), encoding="utf-8")
        # each document without its first chain
        response.write_text(write_conll_documents([d._replace(chains=d.chains[1:]) for d in sample_documents]),
                            encoding="utf-8")
        roles = ("--pred", "--gold") if command == "correction-stats" else ("--response", "--key")
        argv = [command, roles[0], str(response), roles[1], str(key)]
        assert cli.main(argv) == 0
        want = capsys.readouterr().out
        with self._no_token(), mock.patch.object(
                serialization, "_skeleton_document", side_effect=AssertionError("a skeleton was built")):
            assert cli.main(argv) == 0
        assert capsys.readouterr().out == want

    def test_file_reader_yields_threadless_documents(self, sample_documents, tmp_path):
        path = tmp_path / "docs.conll"
        text = write_conll_documents(sample_documents)
        path.write_text(text, encoding="utf-8")
        content = cli._open_input(str(path), "input", (cli._CONLL,))
        next(content)
        bare = list(content)
        assert [d.chains for d, *_ in bare] == [d.chains for d in conll_file(path)]
        assert list(conll_file(path)) == read_conll_documents(text)
        assert all(d.thread.messages == () for d, *_ in bare)


class TestCommandsOnMutatedRecords:
    """No mutated record ends a reader command in a traceback: a record the
    reader rejects ends each with exit 1 and the reader's error on one line."""

    COMMANDS = {
        "stats": ["--in", "{bad}"],
        "features": ["--in", "{bad}", "--out", "{out}", "--mi", "--si", "--rev"],
        "resolve": ["--baseline", "hb1", "--in", "{bad}", "--out", "{out}"],
        # errors reads its key's tokens from the record's JSON, the others read no token
        "errors": ["--key", "{bad}", "--response", "{good}"],
        "score": ["--key", "{good}", "--response", "{bad}"],
        "correction-stats": ["--pred", "{good}", "--gold", "{bad}"],
    }
    # a pair command names the role of the file whose record it rejects, and
    # a command of one input calls it "input"
    ROLES = {"errors": "key", "score": "response", "correction-stats": "gold"}

    @pytest.fixture(scope="class")
    def fixture_lines(self, corpus10_threads):
        rng = random.Random(29)
        return [json.dumps(_corpus10_record(thread, rng)) for thread in corpus10_threads]

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_one_error_line(self, fixture_lines, tmp_path_factory, data):
        line = data.draw(st.sampled_from(fixture_lines))
        record = json.loads(line)
        for _ in range(data.draw(st.integers(1, 3))):
            _mutate(data, record)
        try:
            decode_line(json.dumps(record), 1)
            expected = None
        except NativeSchemaError as exc:
            expected = exc
        files = tmp_path_factory.mktemp("mutated")
        paths = {"good": files / "good.jsonl", "bad": files / "bad.jsonl", "out": files / "out.jsonl"}
        paths["good"].write_text(line + "\n", encoding="utf-8")
        paths["bad"].write_text(json.dumps(record) + "\n", encoding="utf-8")
        for command, args in self.COMMANDS.items():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                status = cli.main([command, *(arg.format(**paths) for arg in args)])
            if expected is not None:
                role = self.ROLES.get(command, "input")
                message = f"error: {role} file {paths['bad']}: {expected}\n"
                assert (command, status, out.getvalue(), err.getvalue()) == (command, 1, "", message)
            elif status:
                message = err.getvalue()
                assert (status, message.startswith("error: "), message.count("\n")) == (1, True, 1), command


class TestRepeatedLocations:
    """A mention location held twice or addressing no token, or a chain id
    used twice, is a schema error."""

    def test_location_twice_in_one_chain(self, example1_document):
        record = document_to_record(example1_document)
        mentions = record["chains"][1]["mentions"]
        mentions.append(list(mentions[0]))
        location = tuple(mentions[0][:4])
        with pytest.raises(NativeSchemaError) as err:
            decode_both(record)
        assert (err.value.path, err.value.message) == (
            f"$.chains[1].mentions[{len(mentions) - 1}]", f"mention at {location} is already in chain 2")

    @pytest.mark.parametrize("entity_type", [None, "PER"])
    def test_location_in_two_chains(self, example1_document, entity_type):
        record = document_to_record(example1_document)
        repeated = record["chains"][0]["mentions"][2][:4] + [entity_type]
        record["chains"][2]["mentions"].insert(0, repeated)
        with pytest.raises(NativeSchemaError) as err:
            decode_both(record)
        assert (err.value.path, err.value.message) == (
            "$.chains[2].mentions[0]", f"mention at {tuple(repeated[:4])} is already in chain 1")
        # the reference decoder, which this check was added after, accepted it
        assert oracles.record_to_document_reference(record).chains[2].mentions[0].location == tuple(repeated[:4])

    def test_repeated_chain_id(self, example1_document):
        record = document_to_record(example1_document)
        record["chains"][2]["id"] = record["chains"][0]["id"]
        with pytest.raises(NativeSchemaError) as err:
            decode_both(record)
        assert (err.value.path, err.value.message) == ("$.chains[2].id", "chain id 1 is repeated")

    def test_thread_error_comes_first(self, example1_document):
        record = document_to_record(example1_document)
        record["chains"][2]["id"] = record["chains"][0]["id"]
        record["messages"][0]["sentences"][0][0][0] = ""
        with pytest.raises(NativeSchemaError) as err:
            decode_both(record)
        assert err.value.path == "$.messages[0].sentences[0][0]"

    @pytest.mark.parametrize("position, value", [(0, 999), (1, 999), (3, 999), (3, "length")], ids=repr)
    def test_span_that_addresses_no_token(self, example1_document, position, value):
        record = document_to_record(example1_document)
        mention = record["chains"][1]["mentions"][0]
        length = len(record["messages"][mention[0]]["sentences"][mention[1]])
        mention[position] = length if value == "length" else value
        with pytest.raises(NativeSchemaError) as err:
            decode_both(record)
        assert (err.value.path, err.value.message) == (
            "$.chains[1].mentions[0]", f"mention at {tuple(mention[:4])} addresses no token")
        # the reference decoder, which this check was added after, accepted it
        assert oracles.record_to_document_reference(record).chains[1].mentions[0].location == tuple(mention[:4])

    def test_span_ending_at_the_last_token(self, example1_document):
        record = document_to_record(example1_document)
        mention = record["chains"][1]["mentions"][0]
        mention[3] = len(record["messages"][mention[0]]["sentences"][mention[1]]) - 1
        assert decode_both(record).chains[1].mentions[0].end_token == mention[3]

    def test_error_names_its_line_and_survives_pickling(self, example1_document):
        record = document_to_record(example1_document)
        record["chains"][2]["id"] = record["chains"][0]["id"]
        lines = ["", json.dumps(document_to_record(example1_document)), json.dumps(record)]
        with pytest.raises(NativeSchemaError) as err:
            read_native("\n".join(lines))
        fields = ("$.chains[2].id", "chain id 1 is repeated", 3, "example1",
                  "line 3: document 'example1': $.chains[2].id: chain id 1 is repeated")
        for error in (err.value, pickle.loads(pickle.dumps(err.value))):
            assert (type(error), error.path, error.message, error.line_number, error.document_id, str(error)) == (
                NativeSchemaError, *fields)
        with pytest.raises(NativeSchemaError) as err:
            record_to_document(record)
        assert (err.value.line_number, err.value.document_id, str(err.value)) == (
            None, None, "$.chains[2].id: chain id 1 is repeated")

    @pytest.mark.parametrize("record, message", [
        ({"id": 5, "messages": []}, "line 1: $.id: thread id must be a string"),
        ({"id": "abc", "messages": {}}, "line 1: document 'abc': $.messages: must be a list"),
        ([], "line 1: $: record must be an object"),
    ], ids=["id not a string", "id read", "not an object"])
    def test_document_named_once_its_id_is_read(self, record, message):
        with pytest.raises(NativeSchemaError) as err:
            read_native(json.dumps(record))
        assert str(err.value) == message

    @staticmethod
    def _conll(rows):
        lines = ["#begin document (x); part 000"]
        lines += [f"x\t0\t{i}\tw{i}\t{coref}" for i, coref in enumerate(rows)]
        return lines + ["", "#end document"]

    @pytest.mark.parametrize("rows, line, message", [
        (["(1)|(2)"], 2, "chain 2: span at sentence 0, tokens 0-0 is already in chain 1"),
        (["(1)|(1)"], 2, "chain 1: span at sentence 0, tokens 0-0 is already in chain 1"),
        (["(1|(2", "-", "1)|2)"], 4, "chain 2: span at sentence 0, tokens 0-2 is already in chain 1"),
        (["-", "(1|(1", "1)|1)"], 4, "chain 1: span at sentence 0, tokens 1-2 is already in chain 1"),
    ], ids=repr)
    @pytest.mark.parametrize("skeletons", [True, False])
    def test_conll_span_in_two_chains(self, rows, line, message, skeletons):
        with pytest.raises(MalformedColumn) as err:
            if skeletons:
                read_conll_documents("\n".join(self._conll(rows)))
            else:
                list(serialization.iter_conll_documents(self._conll(rows)))
        assert (err.value.line_number, str(err.value)) == (line, f"line {line}: {message}")

    def test_conll_distinct_spans_accepted(self):
        (doc, _, _), = serialization.iter_conll_documents(self._conll(["(1|(2)", "1)|(1)"]))
        assert [[m.location for m in c.mentions] for c in doc.chains] == [
            [(0, 0, 0, 1), (0, 0, 1, 1)], [(0, 0, 0, 0)]]
