import pickle
import random
import re
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import CORPUS10_DIR, DATA_DIR, build_fields, checked_document, synthetic_raw_text
from threadcoref.model import AnnotatedDocument, EmailMessage, EmailThread, Section, Token
from threadcoref import parsing
from threadcoref.parsing import (
    ParserConfig,
    RawThread,
    UnparseableThread,
    assign_sections,
    parse_header,
    parse_thread,
    split_address_list,
    split_messages,
    tokenize_and_sentence_split,
)

SEPARATOR = "-----Original Message-----"

TWO_MESSAGE_TEXT = """Date: Mon, 17 Dec 2001 10:00:00 -0800 (PST)
From: alice.johnson@acme.com
To: bob.smith@acme.com
Subject: RE: status

Looks good to me.

-----Original Message-----
From: bob.smith@acme.com
Sent: Mon, 17 Dec 2001 09:00:00 -0800 (PST)
To: alice.johnson@acme.com
Subject: status

Here is the draft. Please comment.
"""


class TestSplitMessages:
    def test_example1_is_one_slice(self, example1_text):
        slices = split_messages(RawThread(id="ex1", text=example1_text))
        assert len(slices) == 1
        assert slices[0] == (example1_text, 0)

    def test_empty_text_rejected(self):
        with pytest.raises(UnparseableThread):
            split_messages(RawThread(id="x", text=""))

    def test_headerless_text_rejected(self):
        with pytest.raises(UnparseableThread):
            split_messages(RawThread(id="x", text="just some prose\nwith no headers\n"))

    def test_separator_yields_two_slices_at_marker_offset(self):
        slices = split_messages(RawThread(id="t", text=TWO_MESSAGE_TEXT))
        assert len(slices) == 2
        # second slice starts exactly at the separator line
        assert TWO_MESSAGE_TEXT.index(SEPARATOR) == slices[1][1]
        assert slices[1][0].startswith(SEPARATOR)
        # slices are disjoint and cover the file in order
        assert slices[0][1] == 0
        assert slices[0][0] + slices[1][0] == TWO_MESSAGE_TEXT

    def test_fresh_header_block_without_marker_splits(self):
        text = (
            "Date: Mon, 17 Dec 2001 10:00:00 -0800 (PST)\n"
            "From: a@x.com\nTo: b@y.com\nSubject: one\n\nTop reply here.\n\n"
            "From: b@y.com\nDate: Mon, 17 Dec 2001 09:00:00 -0800 (PST)\n"
            "To: a@x.com\nSubject: one\n\nQuoted original.\n"
        )
        slices = split_messages(RawThread(id="t", text=text))
        assert len(slices) == 2

    def test_marker_followed_by_header_is_one_boundary(self):
        slices = split_messages(RawThread(id="t", text=TWO_MESSAGE_TEXT))
        # the From: line right after the marker must not open a third slice
        assert len(slices) == 2


class TestParseHeader:
    def test_example1_fields(self, example1_text):
        fields = parse_header(example1_text)
        assert fields.from_addr == "g..barkowsky@enron.com"
        assert fields.to_addrs == ("theresa.staab@enron.com",)
        assert fields.subject == "RE: Final Statements and Invoices for November"
        assert fields.x_from == "Barkowsky, Gloria G."
        assert fields.x_to == ("Staab, Theresa",)
        assert fields.date is not None and fields.date.year == 2001

    def test_missing_to_is_empty(self):
        fields = parse_header("From: a@x.com\nSubject: hi\n\nbody\n")
        assert fields.to_addrs == ()
        assert fields.cc_addrs == ()

    def test_sent_acts_as_date(self):
        fields = parse_header("From: a@x.com\nSent: Mon, 17 Dec 2001 09:00:00 -0800\nSubject: s\n\nx\n")
        assert fields.date is not None

    def test_folded_header_value(self):
        fields = parse_header(
            "From: a@x.com\nSubject: a very\n\tlong subject line\n\nbody\n"
        )
        assert fields.subject == "a very long subject line"


class TestSplitAddressList:
    def test_display_name_comma_not_a_separator(self):
        assert split_address_list("Staab, Theresa") == ("Staab, Theresa",)

    def test_email_commas_separate(self):
        assert split_address_list("a@x.com, b@y.com") == ("a@x.com", "b@y.com")

    def test_semicolons_always_separate(self):
        assert split_address_list("Staab, Theresa; Smith, John") == (
            "Staab, Theresa",
            "Smith, John",
        )

    def test_quoted_display_names_never_split(self):
        assert split_address_list('"Smith, John" <j@x.com>, "Doe, Jane" <d@y.com>') == (
            "Smith, John <j@x.com>",
            "Doe, Jane <d@y.com>",
        )

    def test_empty(self):
        assert split_address_list("") == ()


class TestTokenizer:
    def test_paper_body_sentence(self):
        sentences = tokenize_and_sentence_split("yes, I 'll do this.")
        assert [t.text for t in sentences[0]] == ["yes", ",", "I", "'ll", "do", "this", "."]

    def test_empty_text(self):
        assert tokenize_and_sentence_split("") == ()

    def test_two_sentences_by_terminal_punctuation(self):
        text = "Is this ready?\nIt is done.\n"
        # independent count: scan for terminal punctuation marks
        expected = len(re.findall(r"[.?!]", text))
        sentences = tokenize_and_sentence_split(text)
        assert len(sentences) == expected == 2

    def test_contractions_split(self):
        sentences = tokenize_and_sentence_split("don't stop")
        assert [t.text for t in sentences[0]] == ["do", "n't", "stop"]

    def test_email_address_stays_whole(self):
        sentences = tokenize_and_sentence_split("mail g..barkowsky@enron.com today.")
        assert "g..barkowsky@enron.com" in [t.text for t in sentences[0]]

    def test_offsets_slice_back_to_text(self):
        text = "yes, I 'll do this. Next one?"
        for sentence in tokenize_and_sentence_split(text):
            for tok in sentence:
                assert text[tok.char_start : tok.char_end] == tok.text


class TestSections:
    def test_subject_line_tokens_are_header(self, example1_thread):
        subject_sentence = example1_thread.messages[0].sentences[3]
        assert subject_sentence[0].text == "Subject"
        assert all(t.section is Section.HEADER for t in subject_sentence)

    def test_no_footer_marker_means_no_footer(self, example1_thread):
        assert all(t.section is not Section.FOOTER for t in example1_thread.tokens())

    def test_footer_block_after_marker_phrase(self):
        text = (
            "From: a@x.com\nSubject: s\n\n"
            "The update is attached.\n\n"
            "This e-mail is confidential and may not be redistributed.\n"
            "Please notify the sender of any error.\n"
        )
        labels = assign_sections(text)
        lines = text.splitlines()
        footer_lines = [l for l, s in zip(lines, labels) if s is Section.FOOTER]
        assert footer_lines == lines[-2:]

    def test_sections_are_contiguous_per_message(self, corpus10_threads):
        order = {Section.HEADER: "h", Section.BODY: "b", Section.FOOTER: "f"}
        for thread in corpus10_threads:
            for msg in thread.messages:
                pattern = "".join(order[t.section] for t in msg.tokens())
                assert re.fullmatch(r"h*b*f*", pattern), (thread.id, msg.index, pattern)


class TestParseThread:
    def test_example1(self, example1_thread):
        assert len(example1_thread.messages) == 1
        assert example1_thread.messages[0].from_addr == "g..barkowsky@enron.com"

    def test_minimal_single_message(self):
        thread = parse_thread(RawThread(id="m", text="From: a@x.com\nSubject: s\n\nhello there.\n"))
        assert len(thread.messages) == 1

    def test_four_message_synthetic(self):
        rng = random.Random(11)
        while True:
            text, facts = synthetic_raw_text(rng, max_messages=4)
            if text.count(SEPARATOR) == 3:
                break
        thread = parse_thread(RawThread(id="s", text=text))
        assert len(thread.messages) == 4
        assert [m.index for m in thread.messages] == [0, 1, 2, 3]

    def test_offsets_increase_and_slice_back(self, example1_text):
        thread = parse_thread(RawThread(id="ex1", text=example1_text))
        last_end = 0
        for tok in thread.tokens():
            assert tok.char_start >= last_end
            assert example1_text[tok.char_start : tok.char_end] == tok.text
            last_end = tok.char_end

    def test_deterministic(self, example1_text):
        raw = RawThread(id="ex1", text=example1_text)
        assert parse_thread(raw) == parse_thread(raw)

    def test_corpus10_message_counts(self, corpus10_threads):
        counts = {t.id: len(t.messages) for t in corpus10_threads}
        assert counts == {
            "alpha.txt": 4,
            "bravo.txt": 4,
            "charlie.txt": 6,
            "delta.txt": 4,
            "echo.txt": 4,
            "foxtrot.txt": 4,
            "golf.txt": 4,
            "hotel.txt": 4,
            "india.txt": 5,
            "juliet.txt": 4,
        }

    def test_custom_marker_config(self, tmp_path):
        seps = tmp_path / "seps.txt"
        seps.write_text("=== quoted mail ===\n", encoding="utf-8")
        config = ParserConfig.from_files(separators=seps)
        text = (
            "From: a@x.com\nSubject: s\n\ntop.\n\n"
            "=== QUOTED MAIL ===\nFrom: b@y.com\nSubject: s\n\nolder.\n"
        )
        slices = split_messages(RawThread(id="t", text=text), config)
        assert len(slices) == 2


_FIXTURE_TEXTS = [(DATA_DIR / "example1.txt").read_text(encoding="utf-8")] + [
    path.read_text(encoding="utf-8") for path in sorted(CORPUS10_DIR.glob("*.txt"))
]
# pieces that move message, section and sentence boundaries, or split tokens
_PIECES = st.sampled_from([
    "\n", "\n\n", " ", ".", "?", "'s", "n't", "(", "\"", "a@b.com", "x",
    SEPARATOR, "From: c@d.com\nSent: Tue, 18 Dec 2001 09:00:00 -0800\nSubject: s\n",
    "Subject: re\n", "To: e@f.com,\n  g@h.com\n", "\nThanks,\nJohn\n", "\r\n", "\t",
])


def _mutated(data) -> str:
    text = data.draw(st.sampled_from(_FIXTURE_TEXTS))
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(text)))
        if data.draw(st.booleans()):
            text = text[:i] + data.draw(_PIECES) + text[i:]
        else:
            text = text[:i] + text[i + data.draw(st.integers(1, 40)):]
    return text


class TestOnePassBuild:
    """parse_thread assembles without re-running the constructors' checks; what
    it builds must be what the checked constructors build from its fields."""

    @staticmethod
    def _checked_equal(thread: EmailThread) -> None:
        doc = AnnotatedDocument(thread)
        assert build_fields(doc) == build_fields(checked_document(doc))

    def test_fixtures_equal_checked_build(self, example1_thread, corpus10_threads):
        for thread in [example1_thread, *corpus10_threads]:
            self._checked_equal(thread)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_texts_equal_checked_build(self, data):
        text = _mutated(data)
        try:
            thread = parse_thread(RawThread(id="m", text=text, source_path="m.txt"))
        except UnparseableThread:
            return
        self._checked_equal(thread)
        # every message's offsets still slice back to its token texts
        assert all(text[t.char_start:t.char_end] == t.text for t in thread.tokens())

    def test_valid_input_runs_no_constructor_check(self):
        checked = mock.Mock(side_effect=AssertionError("a checked constructor ran"))
        with mock.patch.object(Token, "__new__", checked), \
                mock.patch.object(EmailMessage, "__new__", checked), \
                mock.patch.object(EmailThread, "__new__", checked):
            threads = [parse_thread(RawThread(id=str(i), text=t)) for i, t in enumerate(_FIXTURE_TEXTS)]
        checked.assert_not_called()
        assert all(type(t) is Token and t.text is sys.intern(t.text)
                   for thread in threads for t in thread.tokens())

    def test_survives_pickling_and_replace(self, corpus10_threads):
        for thread in corpus10_threads:
            checked = checked_document(AnnotatedDocument(thread)).thread
            again = pickle.loads(pickle.dumps(thread))
            assert build_fields(AnnotatedDocument(again)) == build_fields(AnnotatedDocument(checked))
            # replace runs the constructors' checks, which the parsed objects pass
            assert thread._replace() == checked
            first = thread.messages[0]
            assert first._replace(subject="x") == checked.messages[0]._replace(subject="x")
            with pytest.raises(ValueError, match="carries indices"):
                first._replace(sentences=((first.sentences[0][0],) * 2,))


class TestTokenizerArguments:
    """Arguments outside the direct build go through Token, with its errors."""

    def test_direct_build_equals_token_build(self):
        sentences = tokenize_and_sentence_split(
            "Subject: hi\nWe'll go. Now?\n", sections=[Section.HEADER, Section.BODY],
            message_index=3, base_offset=40,
        )
        assert sentences == tuple(tuple(Token(*t) for t in s) for s in sentences)
        assert [(t.message_index, t.char_start) for t in sentences[1]] == [(3, 52), (3, 54), (3, 58), (3, 60)]

    def test_negative_message_index(self):
        with pytest.raises(ValueError, match=r"^message_index must be nonnegative, got -1$"):
            tokenize_and_sentence_split("hello there.", message_index=-1)

    def test_negative_base_offset(self):
        with pytest.raises(ValueError, match=r"^char_start must be nonnegative, got -1$"):
            tokenize_and_sentence_split("hello there.", base_offset=-1)
        with pytest.raises(ValueError, match=r"^char_start must be nonnegative, got -0.5$"):
            tokenize_and_sentence_split("hello", base_offset=-0.5)

    def test_float_base_offset_gives_float_offsets(self):
        (sentence,) = tokenize_and_sentence_split("hello there", base_offset=2.5)
        assert [(t.char_start, t.char_end) for t in sentence] == [(2.5, 7.5), (8.5, 13.5)]

    def test_non_section_entry(self):
        with pytest.raises(ValueError, match=r"^section must be a Section, got 'header'$"):
            tokenize_and_sentence_split("Subject: hi\nbody.\n", sections=["header", Section.BODY])
        # a non-Section entry on a line without tokens builds no token
        assert tokenize_and_sentence_split("\nbody.\n", sections=["header", Section.BODY]) == (
            tokenize_and_sentence_split("\nbody.\n")
        )


# pieces of a line: word characters, every character the chunk splitter acts
# on, contraction suffixes, and the whitespace and line breaks of str.split
# and str.splitlines that are not "\n"
_LINE_PIECES = st.sampled_from(
    list("aZé7([{<\"“”‘’`)]}>,;:!?'.@-")
    + ["n't", "'ll", "'s", "..'s", "I'll", "don't", "x@y.com", "...", "?!", "Mr.", "e.g."]
    + [" ", "  ", "\t", "\x0c", "\x85", "\u2028", "\xa0"]
)
_LINES = st.lists(_LINE_PIECES, max_size=16).map("".join)


class TestTokenizerDifferential:
    """The tokenizer's fast paths against splitting every chunk, kept in ``oracles``."""

    @settings(max_examples=2000, deadline=None)
    @given(line=_LINES, offset=st.integers(0, 50))
    def test_same_tokens_as_chunk_splitter(self, line, offset):
        assert parsing._tokenize_line(line, offset) == oracles.tokenize_line_reference(line, offset)

    @settings(max_examples=1000, deadline=None)
    @given(
        lines=st.lists(_LINES, max_size=6),
        codes=st.lists(st.sampled_from([Section.HEADER, Section.BODY, Section.BODY, Section.FOOTER]),
                       min_size=6, max_size=6),
    )
    def test_same_sentences(self, lines, codes):
        text = "\n".join(lines)
        assert tokenize_and_sentence_split(text) == oracles.sentence_split_reference(text)
        sections = [codes[i % len(codes)] for i in range(len(text.splitlines()))]
        assert tokenize_and_sentence_split(text, sections=sections) == oracles.sentence_split_reference(
            text, sections
        )

    @pytest.mark.parametrize("chunk, texts", [
        ("word", ["word"]),
        ("word.", ["word", "."]),
        ("word,", ["word", ","]),
        ("word?!", ["word", "?", "!"]),
        ("..'s", ["..", "'s"]),
        ("can't.", ["ca", "n't", "."]),
        ("a@b.c.", ["a@b.c", "."]),
    ])
    def test_chunks(self, chunk, texts):
        assert [t for t, _, _ in parsing._tokenize_line(chunk, 0)] == texts

    def test_two_terminal_marks_end_a_sentence(self):
        sentences = tokenize_and_sentence_split("so ..'s it here")
        assert [[t.text for t in s] for s in sentences] == [["so", ".."], ["'s", "it", "here"]]


_MARKERS = st.lists(
    st.sampled_from(["", "-- forwarded", "original", ".*", "a|b", "(", "[x]", "\\", "^", "$", "?", "é", "Ab"]),
    max_size=4,
).map(tuple)


class TestMarkerDifferential:
    """Marker tests by one compiled search against substring tests, kept in ``oracles``."""

    @settings(max_examples=500, deadline=None)
    @given(markers=_MARKERS, lines=st.lists(
        st.lists(st.sampled_from(["a", "b", "A", "É", "é", ".", "*", "|", "(", "[x]", "\\", "^", "$", "?",
                                  "-- Forwarded", "ORIGINAL", " "]), max_size=8).map("".join),
        max_size=6,
    ), header_end=st.integers(0, 6))
    def test_same_lines_match(self, markers, lines, header_end):
        config = ParserConfig(separator_markers=markers, footer_markers=markers)
        for line in lines:
            assert parsing._is_separator(line, config) == oracles.has_marker_reference(line, markers)
        assert parsing._footer_region_start(lines, header_end, config) == (
            oracles.footer_region_start_reference(lines, header_end, markers)
        )

    def test_no_markers_match_nothing_and_an_empty_marker_matches_all(self):
        assert not parsing._is_separator("", ParserConfig(separator_markers=()))
        assert not parsing._is_separator("-----Original Message-----", ParserConfig(separator_markers=()))
        assert parsing._is_separator("", ParserConfig(separator_markers=("x", "")))
        assert parsing._footer_region_start(["a", "b"], 1, ParserConfig(footer_markers=("",))) == 1
        assert parsing._footer_region_start(["a", "b"], 0, ParserConfig(footer_markers=())) == 2

    def test_metacharacters_are_literal(self):
        config = ParserConfig(separator_markers=("a.c", "(x|y)"))
        assert not parsing._is_separator("abc xy", config)
        assert parsing._is_separator("A.C", config) and parsing._is_separator("z (X|Y) z", config)


# header lines of every field the grammar names, in mixed case, with and
# without a value; "Subject:Re" has no space after its colon
_FIELD_LINES = [
    "From: alice.johnson@acme.com", "FROM : Bob Smith <bob.smith@acme.com>", "from:",
    "Date: Mon, 17 Dec 2001 10:00:00 -0800 (PST)", "DATE: not a date",
    "Sent: Mon, 17 Dec 2001 09:00:00 -0800", "sent:",
    "Subject: RE: status", "SUBJECT:", "Subject:Re",
    "To: bob.smith@acme.com, Smith, John", "to:", "Cc: carol@acme.com; dan@acme.com",
    "CC: Doe, Jane", "X-From: Alice Johnson", "x-from:",
]
# a run of lines that only a header line can hold: what a From: line needs
# within the run may come after the 10-line cap
_FILLER_LINES = ["To: x@acme.com", "cc: y@acme.com", "X-From: Bob", " folded"]
_OTHER_LINES = [
    " folded value", "\tmore, values", "", "   ", "\t",
    SEPARATOR, " -----Original Message-----", "----- Forwarded by Tim Belden/HOU/ECT on 05/14/2001 -----",
    "Subject: FW: - Forwarded by Tim", "To: -----original message-----",
    "This e-mail is confidential.", "If you are not the intended recipient",
    "Looks good to me.", "Please comment: soon", "ſent: Mon, 17 Dec 2001 09:00:00 -0800",
]
_HEADER_BLOCKS = st.tuples(
    st.sampled_from(_FIELD_LINES[:3]),
    st.sampled_from(_FILLER_LINES),
    st.integers(0, 12),
    st.lists(st.sampled_from(_FIELD_LINES), max_size=3),
).map(lambda t: [t[0], *[t[1]] * t[2], *t[3]])
_BLOCK_LINES = st.lists(
    st.one_of(st.sampled_from(_FIELD_LINES + _OTHER_LINES).map(lambda line: [line]), _HEADER_BLOCKS),
    max_size=10,
).map(lambda blocks: [line for block in blocks for line in block])
_HEADER_CONFIGS = st.sampled_from([
    ParserConfig(),
    ParserConfig(separator_markers=("from:", "status"), footer_markers=("-----",)),
])


class TestHeaderBlockDifferential:
    """One field-name rule and one header walk against the separate line
    predicates and the two walks they replaced, kept in ``oracles``."""

    @settings(max_examples=600, deadline=None)
    @given(lines=_BLOCK_LINES, newline=st.sampled_from(["\n", "\r\n"]), config=_HEADER_CONFIGS)
    def test_same_messages_sections_and_fields(self, lines, newline, config):
        text = newline.join(lines)
        names = [parsing._header_field(line) for line in lines]
        for i in range(len(lines)):
            assert parsing._starts_fresh_header_block(names, i) == (
                oracles.starts_fresh_header_block_reference(lines, i)
            )
        raw = RawThread(id="t", text=text)
        try:
            expected = oracles.split_messages_reference(raw, config)
        except UnparseableThread as exc:
            with pytest.raises(UnparseableThread, match=f"^{re.escape(str(exc))}$"):
                split_messages(raw, config)
            expected = [(text, 0)]
        else:
            assert split_messages(raw, config) == expected
        # a separator line opens a message, so only a whole text puts one inside a header region
        for message_text in {text, *(piece for piece, _ in expected)}:
            assert assign_sections(message_text, config) == oracles.assign_sections_reference(message_text, config)
            assert parse_header(message_text, config)._asdict() == (
                oracles.parse_header_reference(message_text, config)._asdict()
            )

    def test_separator_in_the_region_adds_no_field(self):
        text = "From: a@acme.com\nSubject: FW: - Forwarded by Tim\n continued\nTo: b@acme.com\n\nbody\n"
        assert assign_sections(text)[:4] == [Section.HEADER] * 4
        fields = parse_header(text)
        assert fields.subject is None
        assert fields.from_addr == "a@acme.com continued"
