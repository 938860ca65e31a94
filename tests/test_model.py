import copy
import pickle
import random
from dataclasses import replace

import pytest

from threadcoref.model import (
    AnnotatedDocument,
    CoreferenceChain,
    EmailMessage,
    EmailThread,
    EntityType,
    Mention,
    Section,
    Token,
    mention_order,
    validate_document,
)


def tok(text, si=0, ti=0, mi=0, start=0, end=None, section=Section.BODY):
    return Token(text, si, ti, mi, section, start, end if end is not None else start + len(text))


class TestToken:
    def test_rejects_empty_text(self):
        with pytest.raises(ValueError):
            tok("")

    def test_rejects_inverted_offsets(self):
        with pytest.raises(ValueError):
            tok("abc", start=5, end=5)
        with pytest.raises(ValueError):
            tok("abc", start=5, end=3)

    def test_rejects_negative_indices(self):
        with pytest.raises(ValueError):
            Token("a", -1, 0, 0, Section.BODY, 0, 1)

    @pytest.mark.parametrize(
        "name, args",
        [
            ("sentence_index", ("a", -1, 0, 0, Section.BODY, 0, 1)),
            ("token_index", ("a", 0, -1, 0, Section.BODY, 0, 1)),
            ("message_index", ("a", 0, 0, -1, Section.BODY, 0, 1)),
            ("char_start", ("a", 0, 0, 0, Section.BODY, -1, 1)),
        ],
    )
    def test_each_index_checked_by_name(self, name, args):
        with pytest.raises(ValueError, match=f"^{name} must be nonnegative, got -1$"):
            Token(*args)


class TestMention:
    def test_equality_ignores_entity_type(self):
        a = Mention(0, 1, 2, 3, EntityType.PER)
        b = Mention(0, 1, 2, 3)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_equality_needs_all_four_location_fields(self):
        base = Mention(0, 1, 2, 3)
        assert base != Mention(1, 1, 2, 3)
        assert base != Mention(0, 2, 2, 3)
        assert base != Mention(0, 1, 1, 3)
        assert base != Mention(0, 1, 2, 4)

    def test_rejects_inverted_span(self):
        with pytest.raises(ValueError):
            Mention(0, 0, 3, 2)

    @pytest.mark.parametrize(
        "name, args",
        [
            ("message_index", (-1, 0, 0, 0)),
            ("sentence_index", (0, -1, 0, 0)),
            ("start_token", (0, 0, -1, 0)),
        ],
    )
    def test_each_index_checked_by_name(self, name, args):
        with pytest.raises(ValueError, match=f"^{name} must be nonnegative$"):
            Mention(*args)

    def test_inverted_span_message(self):
        with pytest.raises(ValueError, match=r"^mention span \[3, 2\] is inverted$"):
            Mention(0, 0, 3, 2)

    def test_replace_and_pickle_keep_entity_type(self):
        mention = Mention(0, 1, 2, 3, EntityType.ORG)
        moved = replace(mention, end_token=5)
        assert moved.location == (0, 1, 2, 5) and moved.entity_type is EntityType.ORG
        copy = pickle.loads(pickle.dumps(mention))
        assert copy == mention and copy.entity_type is EntityType.ORG
        with pytest.raises(ValueError, match="inverted"):
            replace(mention, end_token=1)

    def test_order_ignores_entity_type(self):
        assert sorted([Mention(0, 0, 2, 2), Mention(0, 0, 1, 4, EntityType.PER)]) == [
            Mention(0, 0, 1, 4), Mention(0, 0, 2, 2)]
        assert not Mention(0, 0, 1, 1, EntityType.PER) < Mention(0, 0, 1, 1, EntityType.LOC)


    def test_mention_order_sorts_as_mentions_compare(self):
        rng = random.Random(5)
        types = (None, *EntityType)
        for _ in range(200):
            mentions = set()
            for _ in range(rng.randint(0, 30)):
                start = rng.randint(0, 3)
                mentions.add(Mention(rng.randint(0, 2), rng.randint(0, 2), start,
                                     start + rng.randint(0, 2), rng.choice(types)))
            assert sorted(mentions, key=mention_order) == sorted(mentions)


class TestTupleToken:
    def test_pickle_and_copy_round_trip(self):
        token = tok("word", si=1, ti=2, mi=3, start=4, section=Section.HEADER)
        for again in (pickle.loads(pickle.dumps(token)), copy.copy(token), copy.deepcopy(token)):
            assert again == token
            assert type(again) is Token

    def test_replace_and_make_run_the_checks(self):
        token = tok("a")
        with pytest.raises(ValueError, match="^char_start must be nonnegative, got -1$"):
            token._replace(char_start=-1)
        with pytest.raises(ValueError, match="^token_index must be nonnegative, got -1$"):
            Token._make(["a", 0, -1, 0, Section.BODY, 0, 1])
        with pytest.raises(ValueError, match="^section must be a Section, got 'body'$"):
            Token._make(["a", 0, 0, 0, "body", 0, 1])
        assert token._replace(char_end=5) == tok("a", end=5)

    def test_no_instance_dict(self):
        assert not hasattr(tok("a"), "__dict__")

    def test_repr_unchanged(self):
        assert repr(tok("a")) == (
            "Token(text='a', sentence_index=0, token_index=0, message_index=0, "
            "section=<Section.BODY: 'body'>, char_start=0, char_end=1)"
        )

    def test_equal_texts_share_one_string(self):
        first, second = "".join(["wo", "rd"]), "".join(["wo", "rd"])
        assert first is not second
        assert tok(first).text is tok(second, start=5).text

    def test_equals_plain_tuple(self):
        token = tok("a")
        plain = ("a", 0, 0, 0, Section.BODY, 0, 1)
        assert token == plain
        assert hash(token) == hash(plain)


class TestStructuralInvariants:
    def test_chain_must_be_nonempty(self):
        with pytest.raises(ValueError):
            CoreferenceChain(0, ())

    def test_message_rejects_foreign_token(self):
        with pytest.raises(ValueError):
            EmailMessage(index=1, sentences=((tok("a", mi=0),),))

    def test_thread_rejects_bad_message_order(self):
        msg = EmailMessage(index=1, sentences=((tok("a", mi=1),),))
        with pytest.raises(ValueError):
            EmailThread(id="t", messages=(msg,))

    def test_thread_rejects_overlapping_offsets(self):
        m0 = EmailMessage(index=0, sentences=((tok("aa", mi=0, start=0),),))
        m1 = EmailMessage(index=1, sentences=((tok("bb", mi=1, start=1),),))
        with pytest.raises(ValueError):
            EmailThread(id="t", messages=(m0, m1))


class TestValidateDocument:
    def test_example1_document_is_clean(self, example1_document):
        assert validate_document(example1_document) == []

    def test_zero_chains_is_valid(self, example1_thread):
        doc = AnnotatedDocument(thread=example1_thread, chains=())
        assert validate_document(doc) == []

    def test_mention_in_two_chains_reported_once(self, example1_thread, example1_mentions):
        m = example1_mentions["i"]
        doc = AnnotatedDocument(
            thread=example1_thread,
            chains=(
                CoreferenceChain(1, (m,)),
                CoreferenceChain(2, (m, example1_mentions["you"])),
            ),
        )
        violations = validate_document(doc)
        multi = [v for v in violations if "multiple chains" in v]
        assert len(multi) == 1
        assert str(m.location) in multi[0]

    def test_duplicate_inside_one_chain(self, example1_thread, example1_mentions):
        m = example1_mentions["you"]
        doc = AnnotatedDocument(
            thread=example1_thread, chains=(CoreferenceChain(1, (m, m)),)
        )
        assert any("duplicate mention" in v for v in validate_document(doc))

    def test_out_of_range_span(self, example1_thread):
        doc = AnnotatedDocument(
            thread=example1_thread,
            chains=(CoreferenceChain(1, (Mention(0, 99, 0, 0),)),),
        )
        assert any("no valid span" in v for v in validate_document(doc))

    def test_deterministic(self, example1_document):
        assert validate_document(example1_document) == validate_document(example1_document)
