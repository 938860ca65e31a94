import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import tiny_thread
from threadcoref.filtering import (
    DEFAULT_FILTER_CONFIG,
    ExclusionSet,
    FilterCategory,
    FilterConfig,
    build_corpus_index,
    detect_duplicate,
    detect_invalid_attachment,
    detect_no_content,
    detect_non_english,
    filter_corpus,
    fingerprint_message,
    in_excluded_directory,
    is_valid_length,
    thread_fingerprints,
)
from threadcoref.model import EmailMessage, EmailThread, Section, Token


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
        assert detect_no_content(body_thread("t", [["hi"], [], [], []]))

    def test_exactly_half_empty_is_kept(self):
        assert not detect_no_content(body_thread("t", [["hi"], ["yo"], [], []]))

    def test_all_nonempty(self):
        assert not detect_no_content(body_thread("t", [["a"], ["b"], ["c"], ["d"]]))


class TestInvalidAttachment:
    def test_long_hex_blob(self):
        blob = ["abcdef0123456789" * 8 for _ in range(8)]  # 8 tokens x 128 chars
        assert detect_invalid_attachment(body_thread("t", [["intro"] + blob]))

    def test_prose_is_fine(self, example1_thread):
        assert not detect_invalid_attachment(example1_thread)

    def test_short_hex_below_threshold(self):
        blob = ["abcdef0123456789" * 6]  # 96 chars < 512
        assert not detect_invalid_attachment(body_thread("t", [blob]))


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


class TestInvalidAttachmentDifferential:
    """The regex scan against the character loop kept in ``oracles``."""

    @staticmethod
    def _config(run, fraction):
        return FilterConfig(hex_min_run=run, hex_min_fraction=fraction)

    @pytest.mark.parametrize("run", [7, 8, 9])
    @pytest.mark.parametrize("digits", [5, 6, 7, 8])
    @pytest.mark.parametrize("cut", ["", "g", "\t"])
    def test_runs_at_the_length_and_fraction_bounds(self, run, digits, cut):
        # hex_min_run 8 and fraction 0.75: a run of 8 with 6 digits is exactly at both bounds
        config = self._config(8, 0.75)
        blob = "a" * digits + " " * (run - digits - 1) + "\n" * (run > digits)
        for body in (blob, f"x{blob}x", f"{blob[:3]}{cut}{blob[3:]}", f"{blob} {cut}{blob}", " \n " * run):
            thread = bodies_thread(["hello there", body])
            assert detect_invalid_attachment(thread, config) == oracles.detect_invalid_attachment_reference(
                thread, config
            ), repr(body)

    def test_both_bounds_are_inclusive(self):
        config = self._config(8, 0.75)
        assert detect_invalid_attachment(bodies_thread(["aaaaaa \n"]), config)
        assert not detect_invalid_attachment(bodies_thread(["aaaaa  \n"]), config)
        assert not detect_invalid_attachment(bodies_thread(["aaaaaa\n"]), config)

    def test_whitespace_only_run_is_not_an_attachment(self):
        config = self._config(4, 0.01)
        thread = bodies_thread([" \n \n \n  "])
        assert not detect_invalid_attachment(thread, config)
        assert not oracles.detect_invalid_attachment_reference(thread, config)

    @settings(max_examples=300, deadline=None)
    @given(
        bodies=st.lists(st.lists(_HEX_PIECES, min_size=1, max_size=40).map("".join), min_size=1, max_size=3),
        run=st.integers(1, 24),
        fraction=st.sampled_from([0.01, 0.5, 0.75, 0.8, 0.95, 1.0]),
    )
    def test_same_verdict_as_character_loop(self, bodies, run, fraction):
        config = self._config(run, fraction)
        thread = bodies_thread(bodies)
        assert detect_invalid_attachment(thread, config) == oracles.detect_invalid_attachment_reference(
            thread, config
        )


class TestNonEnglish:
    def test_english_email(self, corpus10_threads):
        alpha = next(t for t in corpus10_threads if t.id == "alpha.txt")
        assert not detect_non_english(alpha)

    def test_spanish_fixture(self, corpus10_threads):
        golf = next(t for t in corpus10_threads if t.id == "golf.txt")
        assert detect_non_english(golf)

    def test_short_body_never_rejected(self):
        words = "estimado colega saludos cordiales desde oficina".split()
        assert not detect_non_english(body_thread("t", [words]))


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
        config = FilterConfig(min_messages=2)
        verdicts, _ = filter_corpus([body_thread("t", [["hello"], ["there"]])], config=config)
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
        exclusion = ExclusionSet(frozenset(thread_fingerprints(b)))
        verdicts, _ = filter_corpus([a, b], exclusion)
        cats = {v.thread_id: v.category for v in verdicts}
        assert cats["a"] is FilterCategory.EXCLUSION_OVERLAP
        assert cats["b"] is FilterCategory.EXCLUSION_OVERLAP

    def test_no_content_beats_too_short(self):
        verdicts, _ = filter_corpus([body_thread("t", [[], [], ["x"]])])
        assert verdicts[0].category is FilterCategory.NO_CONTENT
