import pickle
import random
from datetime import datetime, timedelta, timezone
from unittest import mock

import pytest

import oracles
from conftest import build_fields, checked_document, synthetic_document, tiny_thread
from threadcoref.features import (
    FeatureAnnotation,
    MissingDate,
    date_permutation,
    feature_annotation,
    message_identifier,
    reverse_document,
    reverse_thread,
    section_info,
)
from threadcoref.model import (
    AnnotatedDocument,
    EmailMessage,
    EmailThread,
    Section,
    Token,
    validate_document,
)
from threadcoref.serialization import read_native, write_native_string

UTC = timezone.utc


def dated(*hours):
    return [datetime(2001, 12, 17, h, 0, tzinfo=UTC) for h in hours]


class TestMessageIdentifier:
    def test_single_message_all_zero(self, example1_thread):
        assert set(message_identifier(example1_thread)) == {0}

    def test_three_messages_5_2_4(self):
        thread = tiny_thread([5, 2, 4])
        assert message_identifier(thread) == tuple([0] * 5 + [1] * 2 + [2] * 4)


class TestSectionInfo:
    def test_example1_header_then_body(self, example1_thread):
        si = section_info(example1_thread)
        header_count = sum(1 for m in example1_thread.messages[0].sentences[:6] for _ in m)
        assert all(s is Section.HEADER for s in si[:header_count])
        assert all(s is Section.BODY for s in si[header_count:])

    def test_body_only_message(self):
        thread = tiny_thread([3])
        assert set(section_info(thread)) == {Section.BODY}

    def test_projection_matches_tokens(self, corpus10_threads):
        for thread in corpus10_threads:
            annotation = feature_annotation(thread)
            assert isinstance(annotation, FeatureAnnotation)
            toks = list(thread.tokens())
            assert [t.message_index for t in toks] == list(annotation.mi)
            assert [t.section for t in toks] == list(annotation.si)


class TestReverseThread:
    def test_ascending_thread_is_fixed_point(self):
        thread = tiny_thread([2, 3], dates=dated(9, 11))
        assert reverse_thread(thread) is thread

    def test_newest_first_reordered(self):
        thread = tiny_thread([2, 1, 3], dates=dated(15, 12, 9))
        out = reverse_thread(thread)
        assert [m.date.hour for m in out.messages] == [9, 12, 15]
        assert [m.index for m in out.messages] == [0, 1, 2]

    def test_idempotent_after_sort(self):
        thread = tiny_thread([2, 1, 3], dates=dated(15, 12, 9))
        once = reverse_thread(thread)
        assert reverse_thread(once) == once

    def test_stable_on_ties(self):
        same = dated(10, 10, 10)
        thread = tiny_thread([1, 1, 1], dates=same)
        assert reverse_thread(thread) is thread  # identity permutation

    def test_missing_date_error(self):
        thread = tiny_thread([1, 1])
        with pytest.raises(MissingDate) as err:
            reverse_thread(thread)
        assert err.value.message_index == 0

    def test_naive_dates_ordered_at_the_first_zone(self):
        plus2 = timezone(timedelta(hours=2))
        naive = datetime(2001, 12, 17, 9, 30)
        # 09:30 at +02:00, the first zone, is 07:30 UTC: before 08:00 and 07:45 UTC;
        # at the +00:00 of the third message it would come last
        dates = [naive, datetime(2001, 12, 17, 10, 0, tzinfo=plus2), datetime(2001, 12, 17, 7, 45, tzinfo=UTC)]
        thread = tiny_thread([1, 1, 1], dates=dates)
        assert date_permutation(thread) == [0, 2, 1]
        out = reverse_thread(thread)
        assert [m.date for m in out.messages] == [dates[0], dates[2], dates[1]]
        # ties with an aware date keep their order, and all-naive threads compare as they are
        assert date_permutation(tiny_thread([1, 1], dates=[datetime(2001, 12, 17, 10), dates[1]])) == [0, 1]
        assert date_permutation(tiny_thread([1, 1], dates=[dates[1], datetime(2001, 12, 17, 10)])) == [0, 1]
        assert date_permutation(tiny_thread([1, 1], dates=[naive, naive.replace(hour=8)])) == [1, 0]

    def test_preserves_token_multiset_and_counts(self):
        thread = tiny_thread([2, 4, 3], dates=dated(15, 12, 9))
        out = reverse_thread(thread)
        assert sorted(t.text for t in out.tokens()) == sorted(t.text for t in thread.tokens())
        assert len(out.messages) == len(thread.messages)

    def test_mi_composition_property(self):
        thread = tiny_thread([2, 4, 3], dates=dated(15, 12, 9))
        perm = date_permutation(thread)
        out = reverse_thread(thread)
        for old_msg in thread.messages:
            new_msg = out.messages[perm[old_msg.index]]
            assert [t.text for t in new_msg.tokens()] == [t.text for t in old_msg.tokens()]
            assert all(t.message_index == perm[old_msg.index] for t in new_msg.tokens())


class TestReverseDocument:
    def test_annotation_stays_valid_and_texts_stable(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(60):
            doc, _ = synthetic_document(rng)
            if len(doc.thread.messages) < 2:
                continue
            assert validate_document(doc) == []
            out = reverse_document(doc)
            assert validate_document(out) == []
            assert out == oracles.reverse_document_reference(doc)
            from threadcoref.model import mention_text

            before = sorted(
                mention_text(doc.thread, m) for c in doc.chains for m in c.mentions
            )
            after = sorted(
                mention_text(out.thread, m) for c in out.chains for m in c.mentions
            )
            assert before == after
            checked += 1
        assert checked >= 20

    def test_dates_ascending_after_reverse(self):
        rng = random.Random(5)
        for _ in range(20):
            doc, _ = synthetic_document(rng)
            out = reverse_document(doc)
            stamps = [m.date for m in out.thread.messages]
            assert stamps == sorted(stamps)

    def test_identity_document_returned_unchanged(self):
        thread = tiny_thread([2, 1], dates=dated(8, 12))
        doc = AnnotatedDocument(thread=thread)
        assert reverse_document(doc) is doc


def mirrored(doc, pivot):
    """``doc`` with each message date d moved to 2 * pivot - d, so that the
    oldest-first order of the result is the newest-first order of ``doc``,
    ties kept in place; mirroring twice about one pivot restores the dates."""
    messages = tuple(m._replace(date=pivot + (pivot - m.date)) for m in doc.thread.messages)
    return doc._replace(thread=doc.thread._replace(messages=messages))


class TestOnePassReorder:
    """reverse_document assembles the reordered thread without re-running the
    constructors' checks; it must be what the checked constructors build."""

    @pytest.fixture(scope="class")
    def documents(self):
        rng = random.Random(31)
        docs = [synthetic_document(rng, max_messages=5)[0] for _ in range(30)]
        docs = [d for d in docs if len(d.thread.messages) >= 2]
        # a thread built by the checked constructors, and documents as read back
        docs.append(AnnotatedDocument(tiny_thread([3, 0, 2, 1], dates=dated(9, 7, 8, 6))))
        return docs + read_native(write_native_string(docs[:5]))

    @staticmethod
    def _both_directions(doc):
        """Reorders of ``doc`` oldest first, then of that reorder with its
        dates mirrored, which puts it back newest first."""
        ascending = reverse_document(doc)
        assert ascending is not doc
        newest_first = mirrored(ascending, ascending.thread.messages[0].date)
        descending = reverse_document(newest_first)
        assert descending is not newest_first
        return ascending, descending

    def test_equals_checked_build(self, documents):
        for doc in documents:
            for out in self._both_directions(doc):
                assert build_fields(out) == build_fields(checked_document(out))
                assert validate_document(out) == []

    def test_same_as_thread_level_reorder(self, documents):
        # the record reorder against moving each message's tokens, kept in ``oracles``
        for doc in documents:
            ascending = reverse_document(doc)
            newest_first = mirrored(ascending, ascending.thread.messages[0].date)
            for before, after in ((doc, ascending), (newest_first, reverse_document(newest_first))):
                expected = oracles.reverse_document_reference(before)
                assert after == expected
                # equal aware dates may differ in zone; the moved ones keep theirs
                assert [(m.date, m.date.utcoffset()) for m in after.thread.messages] == [
                    (m.date, m.date.utcoffset()) for m in expected.thread.messages]

    def test_offsets_shift_message_by_message(self, documents):
        # each message keeps its own spacing and starts one past the previous end
        for doc in documents:
            perm = date_permutation(doc.thread)
            out = reverse_document(doc)
            base = 0
            for old in sorted(range(len(perm)), key=perm.__getitem__):
                source, moved = doc.thread.messages[old], out.thread.messages[perm[old]]
                start = source.sentences[0][0].char_start if source.sentences else 0
                assert [(t.char_start - base, t.char_end - base) for t in moved.tokens()] == [
                    (t.char_start - start, t.char_end - start) for t in source.tokens()]
                base = moved.sentences[-1][-1].char_end + 1 if moved.sentences else base

    def test_round_trip_restores_the_thread(self, documents):
        # newest first, then oldest first and back: same messages, offsets shifted
        newest_first = [
            d for d in documents
            if [m.date for m in d.thread.messages] == sorted((m.date for m in d.thread.messages), reverse=True)
        ]
        assert len(newest_first) >= 10
        for doc in newest_first:
            pivot = doc.thread.messages[0].date
            back = mirrored(reverse_document(mirrored(reverse_document(doc), pivot)), pivot)
            assert [m._asdict() | {"sentences": None} for m in back.thread.messages] == [
                m._asdict() | {"sentences": None} for m in doc.thread.messages]
            assert [t[:5] for t in back.thread.tokens()] == [t[:5] for t in doc.thread.tokens()]

    def test_runs_no_constructor_check(self, documents):
        # the newest-first inputs are built, through the checks, beforehand
        inputs = [*documents]
        for doc in documents:
            ascending = reverse_document(doc)
            inputs.append(mirrored(ascending, ascending.thread.messages[0].date))
        checked = mock.Mock(side_effect=AssertionError("a checked constructor ran"))
        with mock.patch.object(Token, "__new__", checked), \
                mock.patch.object(EmailMessage, "__new__", checked), \
                mock.patch.object(EmailThread, "__new__", checked):
            for doc in inputs:
                assert reverse_document(doc) is not doc
        checked.assert_not_called()

    def test_survives_pickling_and_replace(self, documents):
        for doc in documents:
            for out in self._both_directions(doc):
                checked = checked_document(out)
                assert build_fields(pickle.loads(pickle.dumps(out))) == build_fields(checked)
                assert build_fields(out._replace(thread=out.thread._replace())) == build_fields(checked)
                first = out.thread.messages[0]
                assert first._replace(subject="x") == checked.thread.messages[0]._replace(subject="x")
