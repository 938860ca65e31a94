import random
import re
from collections import Counter
from datetime import datetime
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import synthetic_raw_text, tiny_thread
from threadcoref import filtering
from threadcoref.filtering import (
    ExclusionSet,
    FilterCategory,
    build_corpus_index,
    detect_duplicate,
    ThreadSummary,
    filter_corpus,
    filter_summaries,
    fingerprint_message,
    summarize_record,
)
from threadcoref.model import AnnotatedDocument, EmailMessage, EmailThread, Section, Token, ToolkitError
from threadcoref.parsing import RawThread, parse_thread
from threadcoref.serialization import document_to_record


def summarize(thread):
    """The summary of ``thread``: ``summarize_record`` of its native record."""
    return summarize_record(document_to_record(AnnotatedDocument(thread)))


def thresholds(hex_run=512, hex_fraction=0.95, min_tokens=50, stopword_fraction=0.02):
    """``filtering``'s content thresholds set to these values within a block;
    ``oracles.summarize_thread_reference`` takes the same values in this order,
    and both default to the shipped ones."""
    return mock.patch.multiple(
        filtering, _HEX_MIN_RUN=hex_run, _HEX_MIN_FRACTION=hex_fraction,
        _LANGUAGE_MIN_TOKENS=min_tokens, _STOPWORD_MIN_FRACTION=stopword_fraction,
    )


def body_thread(thread_id, bodies, subjects=None, senders=None):
    """Thread whose messages carry the given body token text lists."""
    char = 0
    messages = []
    for mi, words in enumerate(bodies):
        toks = []
        for ti, word in enumerate(words):
            toks.append(Token(word, 0, ti, mi, Section.BODY, char, char + len(word)))
            char += len(word) + 1
        messages.append(
            EmailMessage(
                index=mi,
                from_addr=(senders or {}).get(mi, f"p{mi}@x.com"),
                subject=(subjects or {}).get(mi, f"msg {mi}"),
                sentences=(tuple(toks),) if toks else (),
            )
        )
        char += 1
    return EmailThread(id=thread_id, messages=tuple(messages))


def content_verdict(thread):
    """The content check that rejects ``thread``, or None, as its summary
    holds it; checked against the checks run one by one in ``oracles``."""
    content = summarize(thread).content
    assert content is oracles.summarize_thread_reference(thread).content
    return content


def is_valid_length(thread):
    """Whether the length rule keeps ``thread``: its summary, content checks
    aside, is not too short."""
    summary = summarize(thread)._replace(content=None)
    verdicts, _ = filter_summaries([summary], ExclusionSet(), 4)
    return verdicts[0].category is not FilterCategory.TOO_SHORT


class TestValidLength:
    def test_boundary(self):
        assert is_valid_length(tiny_thread([1, 1, 1, 1]))
        assert not is_valid_length(tiny_thread([]))
        assert not is_valid_length(tiny_thread([1, 1, 1]))
        assert is_valid_length(tiny_thread([1] * 6))


class TestFingerprint:
    def test_identical_messages_equal(self):
        a = body_thread("a", [["hello", "world"]]).messages[0]
        b = body_thread("b", [["hello", "world"]]).messages[0]
        assert fingerprint_message(a) == fingerprint_message(b)

    def test_subject_prefix_stripped(self):
        a = body_thread("a", [["x"]], subjects={0: "Budget call"}).messages[0]
        b = body_thread("b", [["x"]], subjects={0: "RE: Budget call"}).messages[0]
        c = body_thread("c", [["x"]], subjects={0: "FW: re: budget  call"}).messages[0]
        assert fingerprint_message(a) == fingerprint_message(b) == fingerprint_message(c)

    def test_example1_stable_64bit_hex(self, example1_thread):
        fp = fingerprint_message(example1_thread.messages[0])
        assert re.fullmatch(r"[0-9a-f]{16}", fp)
        assert fp == fingerprint_message(example1_thread.messages[0])

    def test_different_bodies_differ(self):
        a = body_thread("a", [["hello"]]).messages[0]
        b = body_thread("b", [["goodbye"]]).messages[0]
        assert fingerprint_message(a) != fingerprint_message(b)


class TestExclusionFile:
    def test_reads_what_fingerprint_message_writes(self, example1_thread, tmp_path):
        prints = sorted({fingerprint_message(m) for m in example1_thread.messages})
        path = tmp_path / "exclude.txt"
        path.write_text("\n" + "".join(f"  {p}\r\n" for p in prints) + "\n", encoding="utf-8")
        assert ExclusionSet.from_file(path) == ExclusionSet(frozenset(prints))

    @pytest.mark.parametrize("line", ["0123456789ABCDEF", "0123456789abcde", "0123456789abcdef0",
                                      "0123456789abcdeg", "thread_id\tcategory\tdetail"])
    def test_any_other_line_names_the_file_and_line(self, tmp_path, line):
        path = tmp_path / "exclude.txt"
        path.write_text("0123456789abcdef\n\n" + line + "\n", encoding="utf-8")
        with pytest.raises(ToolkitError) as err:
            ExclusionSet.from_file(path)
        assert str(err.value) == (
            f"exclusion file {path}: line 3 is not a message fingerprint (16 lowercase hex digits)")


class TestDuplicate:
    def test_identical_threads_exactly_one_marked(self):
        a = body_thread("a", [["one"], ["two"]])
        b = body_thread("b", [["one"], ["two"]])
        index = build_corpus_index([a, b])
        flags = [detect_duplicate(a, index), detect_duplicate(b, index)]
        assert flags == [False, True]  # lexicographically smaller id survives

    def test_prefix_thread_is_duplicate(self):
        big = body_thread("big", [[w] for w in ["m1", "m2", "m3", "m4", "m5", "m6"]])
        small = body_thread("apart", [[w] for w in ["m1", "m2", "m3", "m4"]])
        index = build_corpus_index([big, small])
        assert detect_duplicate(small, index)
        assert not detect_duplicate(big, index)

    def test_partial_overlap_is_not_duplicate(self):
        a = body_thread("a", [[w] for w in ["s1", "s2", "a3", "a4", "a5"]])
        b = body_thread("b", [[w] for w in ["s1", "s2", "b3", "b4", "b5"]])
        index = build_corpus_index([a, b])
        assert not detect_duplicate(a, index)
        assert not detect_duplicate(b, index)

    def test_repeated_message_multiset_semantics(self):
        # thread with a message twice is not contained in one having it once
        twice = body_thread("twice", [["x"], ["x"]])
        once = body_thread("zonce", [["x"], ["y"]])
        index = build_corpus_index([twice, once])
        assert not detect_duplicate(twice, index)


class TestNoContent:
    def test_three_of_four_empty(self):
        assert content_verdict(body_thread("t", [["hi"], [], [], []])) is FilterCategory.NO_CONTENT

    def test_exactly_half_empty_is_kept(self):
        assert content_verdict(body_thread("t", [["hi"], ["yo"], [], []])) is None

    def test_all_nonempty(self):
        assert content_verdict(body_thread("t", [["a"], ["b"], ["c"], ["d"]])) is None


class TestInvalidAttachment:
    def test_long_hex_blob(self):
        blob = ["abcdef0123456789" * 8 for _ in range(8)]  # 8 tokens x 128 chars
        assert content_verdict(body_thread("t", [["intro"] + blob])) is FilterCategory.INVALID_ATTACHMENT

    def test_prose_is_fine(self, example1_thread):
        assert content_verdict(example1_thread) is None

    def test_short_hex_below_threshold(self):
        blob = ["abcdef0123456789" * 6]  # 96 chars < 512
        assert content_verdict(body_thread("t", [blob])) is None


def bodies_thread(bodies):
    """Thread with one message per body, each body a single token, so that a
    message's body text is exactly the given string."""
    char = 0
    messages = []
    for mi, body in enumerate(bodies):
        token = Token(body, 0, 0, mi, Section.BODY, char, char + len(body))
        messages.append(EmailMessage(index=mi, sentences=((token,),)))
        char += len(body) + 1
    return EmailThread(id="hex", messages=tuple(messages))


# pieces of a body: hex digits, the two separators a hex run may hold, and
# characters that cut a run
_HEX_PIECES = st.sampled_from(["0", "7", "a", "F", "deadBEEF", " ", "\n", "  \n ", "g", "x", "-", "é", "Z"])


def has_attachment(thread, run, fraction):
    """Whether the summary of ``thread``, none of whose messages has an empty
    body, rejects it for an inline attachment, with hex runs of ``run``
    characters and a ``fraction`` of digits as the bounds."""
    assert not oracles.detect_no_content_reference(thread)
    with thresholds(run, fraction):
        return summarize(thread).content is FilterCategory.INVALID_ATTACHMENT


class TestInvalidAttachmentDifferential:
    """The regex scan against the character loop kept in ``oracles``."""

    @pytest.mark.parametrize("run", [7, 8, 9])
    @pytest.mark.parametrize("digits", [5, 6, 7, 8])
    @pytest.mark.parametrize("cut", ["", "g", "\t"])
    def test_runs_at_the_length_and_fraction_bounds(self, run, digits, cut):
        # a run of 8 and a fraction of 0.75: a run of 8 with 6 digits is exactly at both bounds
        blob = "a" * digits + " " * (run - digits - 1) + "\n" * (run > digits)
        for body in (blob, f"x{blob}x", f"{blob[:3]}{cut}{blob[3:]}", f"{blob} {cut}{blob}", " \n " * run):
            thread = bodies_thread(["hello there", body])
            assert has_attachment(thread, 8, 0.75) == oracles.detect_invalid_attachment_reference(
                thread, 8, 0.75
            ), repr(body)

    def test_both_bounds_are_inclusive(self):
        assert has_attachment(bodies_thread(["aaaaaa \n"]), 8, 0.75)
        assert not has_attachment(bodies_thread(["aaaaa  \n"]), 8, 0.75)
        assert not has_attachment(bodies_thread(["aaaaaa\n"]), 8, 0.75)

    def test_whitespace_only_run_is_not_an_attachment(self):
        thread = bodies_thread([" \n \n \n  "])
        assert not has_attachment(thread, 4, 0.01)
        assert not oracles.detect_invalid_attachment_reference(thread, 4, 0.01)

    @settings(max_examples=300, deadline=None)
    @given(
        bodies=st.lists(st.lists(_HEX_PIECES, min_size=1, max_size=40).map("".join), min_size=1, max_size=3),
        run=st.integers(1, 24),
        fraction=st.sampled_from([0.01, 0.5, 0.75, 0.8, 0.95, 1.0]),
    )
    def test_same_verdict_as_character_loop(self, bodies, run, fraction):
        thread = bodies_thread(bodies)
        assert has_attachment(thread, run, fraction) == oracles.detect_invalid_attachment_reference(
            thread, run, fraction
        )


class TestNonEnglish:
    def test_english_email(self, corpus10_threads):
        alpha = next(t for t in corpus10_threads if t.id == "alpha.txt")
        assert content_verdict(alpha) is None

    def test_spanish_fixture(self, corpus10_threads):
        golf = next(t for t in corpus10_threads if t.id == "golf.txt")
        assert content_verdict(golf) is FilterCategory.NON_ENGLISH

    def test_short_body_never_rejected(self):
        words = "estimado colega saludos cordiales desde oficina".split()
        assert content_verdict(body_thread("t", [words])) is None


class TestShippedThresholds:
    """The content thresholds that the command line runs with, at their
    bounds and one step short of them, with nothing patched."""

    def test_hex_run_length_bound(self):
        assert content_verdict(bodies_thread(["a" * 512])) is FilterCategory.INVALID_ATTACHMENT
        assert content_verdict(bodies_thread(["a" * 511])) is None

    def test_hex_digit_share_bound(self):
        # 494 digits of 520 characters is a share of exactly 0.95, 493 of 519 just under it
        assert content_verdict(bodies_thread(["a" * 494 + " " * 26])) is FilterCategory.INVALID_ATTACHMENT
        assert content_verdict(bodies_thread(["a" * 493 + " " * 27])) is None
        assert content_verdict(bodies_thread(["a" * 493 + " " * 26])) is None

    @staticmethod
    def _verdict(stopwords, others):
        """The category of a four-message thread of ``stopwords`` stopwords and
        ``others`` other words in its bodies."""
        words = ["the"] * stopwords + [f"w{i}" for i in range(others)]
        thread = body_thread("t", [words[i::4] for i in range(4)])
        verdicts, _ = filter_corpus([thread])
        assert verdicts[0].category is (content_verdict(thread) or FilterCategory.ACCEPTED)
        return verdicts[0].category

    def test_stopword_share_bound(self):
        # one stopword in 50 body tokens is a share of exactly 0.02, one in 51 just under it
        assert self._verdict(1, 49) is FilterCategory.ACCEPTED
        assert self._verdict(1, 50) is FilterCategory.NON_ENGLISH
        assert self._verdict(0, 50) is FilterCategory.NON_ENGLISH

    def test_fewer_body_tokens_than_the_language_bound(self):
        assert self._verdict(0, 49) is FilterCategory.ACCEPTED


def in_excluded_directory(thread):
    """Whether filtering drops ``thread`` for its directory, before any verdict."""
    verdicts, report = filter_corpus([thread])
    assert report.dropped_directories == 1 - len(verdicts)
    return report.dropped_directories == 1


class TestDirectoryExclusion:
    def test_excluded_folder_component(self):
        t = body_thread("t", [["x"]])
        t = EmailThread(id=t.id, messages=t.messages, source_path="maildir/u/discussion_threads/3.")
        assert in_excluded_directory(t)

    def test_inbox_kept(self):
        t = body_thread("t", [["x"]])
        t = EmailThread(id=t.id, messages=t.messages, source_path="maildir/u/inbox/3.")
        assert not in_excluded_directory(t)


class TestFilterCorpus:
    def test_corpus10_distribution(self, corpus10_threads):
        hotel = next(t for t in corpus10_threads if t.id == "hotel.txt")
        exclusion = ExclusionSet(
            frozenset(fingerprint_message(m) for m in hotel.messages)
        )
        verdicts, report = filter_corpus(corpus10_threads, exclusion)
        by_cat = {cat: n for cat, n in report.counts}
        assert by_cat[FilterCategory.DUPLICATE] == 2
        assert by_cat[FilterCategory.NO_CONTENT] == 1
        assert by_cat[FilterCategory.INVALID_ATTACHMENT] == 1
        assert by_cat[FilterCategory.NON_ENGLISH] == 1
        assert by_cat[FilterCategory.EXCLUSION_OVERLAP] == 1
        assert by_cat[FilterCategory.ACCEPTED] == 4
        assert by_cat[FilterCategory.TOO_SHORT] == 0
        # verdicts partition the candidate set
        assert len(verdicts) == len(corpus10_threads) == report.total
        assert len({v.thread_id for v in verdicts}) == len(verdicts)

    def test_empty_corpus(self):
        verdicts, report = filter_corpus([])
        assert verdicts == []
        assert report.total == 0
        assert all(count == 0 for _, count in report.counts)

    def test_excluded_directories_dropped_before_classification(self):
        t1 = body_thread("keep", [["a"], ["b"], ["c"], ["d"]])
        t2 = body_thread("drop", [["a"], ["b"], ["c"], ["d"]])
        t2 = EmailThread(id=t2.id, messages=t2.messages, source_path="u/_sent_mail/1.")
        verdicts, report = filter_corpus([t1, t2])
        assert [v.thread_id for v in verdicts] == ["keep"]
        # the identical dropped thread must not make "keep" a duplicate
        assert verdicts[0].category is FilterCategory.ACCEPTED
        assert report.dropped_directories == 1

    def test_too_short_verdict(self):
        verdicts, _ = filter_corpus([body_thread("t", [["hello"], ["there"]])])
        assert verdicts[0].category is FilterCategory.TOO_SHORT

    def test_threshold_overrides(self):
        verdicts, _ = filter_corpus([body_thread("t", [["hello"], ["there"]])], min_messages=2)
        assert verdicts[0].category is FilterCategory.ACCEPTED

    def test_verdict_details_name_reason(self, corpus10_threads):
        hotel = next(t for t in corpus10_threads if t.id == "hotel.txt")
        exclusion = ExclusionSet(frozenset(fingerprint_message(m) for m in hotel.messages))
        verdicts, _ = filter_corpus(corpus10_threads, exclusion)
        verdict = next(v for v in verdicts if v.thread_id == "hotel.txt")
        assert verdict.category is FilterCategory.EXCLUSION_OVERLAP
        assert "overlap" in verdict.detail


class TestPrecedence:
    def test_exclusion_beats_duplicate(self):
        a = body_thread("a", [["one"], ["two"]])
        b = body_thread("b", [["one"], ["two"]])
        exclusion = ExclusionSet(frozenset(summarize(b).fingerprints))
        verdicts, _ = filter_corpus([a, b], exclusion)
        cats = {v.thread_id: v.category for v in verdicts}
        assert cats["a"] is FilterCategory.EXCLUSION_OVERLAP
        assert cats["b"] is FilterCategory.EXCLUSION_OVERLAP

    def test_no_content_beats_too_short(self):
        verdicts, _ = filter_corpus([body_thread("t", [[], [], ["x"]])])
        assert verdicts[0].category is FilterCategory.NO_CONTENT


# the shipped content thresholds and two small sets, in the order ``thresholds`` takes them
_THRESHOLDS = [(512, 0.95, 50, 0.02), (4, 0.5, 1, 0.5), (2, 1.0, 3, 0.2)]
_WORDS = st.sampled_from([
    "the", "The", "AND", "of", "hello", "deadBEEF", "0123456789abcdef", "7", "a b", "x\ty", " \n ", "ß", "é",
    "Re:", ".",
])
_SECTIONS = st.sampled_from([Section.BODY, Section.BODY, Section.HEADER, Section.FOOTER])
_MESSAGES = st.lists(
    st.tuples(
        st.sampled_from([None, "", "Re: hi", "FW:  Fwd: Hi \t there", "hi"]),
        st.sampled_from([None, datetime(2001, 5, 14, 16, 39, 12), datetime(1999, 1, 2, 3, 4)]),
        st.sampled_from([None, "", "A@B.com", "a@b.com"]),
        st.lists(st.lists(st.tuples(_WORDS, _SECTIONS), min_size=1, max_size=5), max_size=3),
    ),
    max_size=5,
)


def sectioned_thread(messages, thread_id="t"):
    """Thread from (subject, date, sender, sentences of (word, section)) tuples;
    a sentence may mix sections and a word may hold whitespace, as a record read
    from a file may."""
    char = 0
    built = []
    for mi, (subject, date, sender, sentences) in enumerate(messages):
        toks = []
        for si, sentence in enumerate(sentences):
            toks.append([])
            for ti, (word, section) in enumerate(sentence):
                toks[-1].append(Token(word, si, ti, mi, section, char, char + len(word)))
                char += len(word) + 1
        built.append(EmailMessage(index=mi, date=date, from_addr=sender, subject=subject,
                                  sentences=tuple(map(tuple, toks))))
    return EmailThread(id=thread_id, messages=tuple(built))


class TestSummaryDifferential:
    """summarize_record of a thread's record against the checks run one by one
    on the thread, kept in ``oracles``."""

    @pytest.mark.parametrize("values", _THRESHOLDS)
    def test_fixture_threads(self, values, corpus10_threads, example1_thread):
        rng = random.Random(5)
        synthetic = [
            parse_thread(RawThread(id=f"s{i}", text=synthetic_raw_text(rng)[0])) for i in range(20)
        ]
        for thread in [example1_thread, *corpus10_threads, *synthetic]:
            with thresholds(*values):
                summary = summarize(thread)
            assert summary == oracles.summarize_thread_reference(thread, *values)

    @settings(max_examples=400, deadline=None)
    @given(messages=_MESSAGES, values=st.sampled_from(_THRESHOLDS))
    def test_generated_threads(self, messages, values):
        thread = sectioned_thread(messages)
        with thresholds(*values):
            summary = summarize(thread)
        assert summary == oracles.summarize_thread_reference(thread, *values)
        assert [fingerprint_message(m) for m in thread.messages] == [
            oracles.fingerprint_message_reference(m) for m in thread.messages
        ]


def _summary(thread_id, prints, source_path=None):
    return ThreadSummary(thread_id, source_path, Counter(prints), 4, None)


class TestDuplicateDifferential:
    """The postings-index duplicate check against the full scan, kept in ``oracles``."""

    @staticmethod
    def _check(summaries):
        verdicts, _ = filter_summaries(summaries, ExclusionSet(), 4)
        kept = [s.id for s in summaries if not filtering._in_excluded_directory(s.source_path)]
        assert [v.thread_id for v in verdicts] == kept
        assert [v.category is FilterCategory.DUPLICATE for v in verdicts] == (
            oracles.duplicate_verdicts_reference(summaries)
        )

    @settings(max_examples=1000, deadline=None)
    @given(data=st.data())
    def test_same_verdicts_as_full_scan(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        summaries = []
        for _ in range(data.draw(st.integers(0, 12))):
            # ids repeat, so the index keeps the last copy of a repeated id
            thread_id = rng.choice("abcdefghij")
            path = rng.choice([None, "u/inbox/1.", "u/sent/1."])
            kind = rng.choice(["new", "new", "copy", "fragment", "container", "empty"]) if summaries else "new"
            if kind == "new":
                prints = {f"f{rng.randrange(6)}": rng.randint(0, 3) for _ in range(rng.randint(1, 4))}
            elif kind == "empty":
                prints = {}
            else:
                base = rng.choice(summaries).fingerprints
                if kind == "copy":
                    prints = dict(base)
                elif kind == "fragment":
                    prints = {key: rng.randint(0, count) for key, count in base.items() if rng.random() < 0.7}
                else:  # contains the base, so containment chains form
                    prints = dict(base)
                    key = f"f{rng.randrange(8)}"
                    prints[key] = prints.get(key, 0) + 1
            summaries.append(_summary(thread_id, prints, path))
        self._check(summaries)

    def test_edge_cases(self):
        self._check([_summary("a", {}), _summary("b", {}), _summary("c", {"x": 1})])
        self._check([_summary("b", {}), _summary("a", {})])
        # a repeated id: the index keeps the last copy, whose fingerprints are
        # empty, so the first copy is classified by its own, which no thread holds
        self._check([_summary("a", {"x": 1}), _summary("b", {"y": 1}), _summary("a", {})])
        # an identical thread in an excluded directory is out of the index
        self._check([_summary("b", {"x": 1}), _summary("a", {"x": 1}, "u/sent/1.")])
        # a zero count needs no fingerprint
        self._check([_summary("a", {"x": 0}), _summary("b", {"y": 1})])
        verdicts, _ = filter_summaries([_summary("a", {"x": 1}), _summary("b", {"x": 1, "y": 1}),
                                        _summary("c", {"x": 1, "y": 1})], ExclusionSet(), 4)
        assert [v.category.value for v in verdicts] == ["duplicate", "accepted", "duplicate"]


def _planted_corpus(n, seed):
    """Mostly distinct summaries, with about a tenth each of exact copies and
    nested fragments of earlier ones."""
    rng = random.Random(seed)
    summaries = []
    for i in range(n):
        roll = rng.random()
        if summaries and roll < 0.1:
            prints = rng.choice(summaries).fingerprints
        elif summaries and roll < 0.2:
            keys = list(rng.choice(summaries).fingerprints)
            start = rng.randrange(len(keys))
            prints = dict.fromkeys(keys[start : start + rng.randint(1, len(keys))], 1)
        else:
            prints = dict.fromkeys((f"{i}:{j}" for j in range(rng.randint(1, 6))), 1)
        summaries.append(_summary(f"t{i:05d}", prints))
    return summaries


def test_duplicate_checks_grow_linearly():
    """The exact containment checks for ten times the threads grow about tenfold,
    where a scan of every other thread grows a hundredfold."""
    def checks(n):
        calls = 0
        original = filtering._is_submultiset

        def counted(small, big):
            nonlocal calls
            calls += 1
            return original(small, big)

        with mock.patch.object(filtering, "_is_submultiset", counted):
            filter_summaries(_planted_corpus(n, seed=7), ExclusionSet(), 4)
        return calls

    small, large = checks(200), checks(2000)
    assert small > 0 and large <= 12 * small, (small, large)
