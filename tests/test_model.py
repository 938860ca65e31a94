import copy
import operator
import pickle
import random
from dataclasses import field, make_dataclass
from typing import Optional

import pytest
from hypothesis import given
from hypothesis import strategies as st

from threadcoref import baselines, errors, features, filtering, metrics, model, parsing
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

    def test_equals_no_plain_tuple(self):
        mention = Mention(0, 1, 2, 3)
        for plain in ((0, 1, 2, 3, None), mention.location):
            assert mention != plain and plain != mention
            assert not mention == plain and not plain == mention

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
        moved = mention._replace(end_token=5)
        assert moved.location == (0, 1, 2, 5) and moved.entity_type is EntityType.ORG
        copy = pickle.loads(pickle.dumps(mention))
        assert copy == mention and copy.entity_type is EntityType.ORG
        with pytest.raises(ValueError, match="inverted"):
            mention._replace(end_token=1)

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


# Mention as it was a frozen dataclass: the reference for its comparisons,
# hash and repr; entity_type takes no part in equality, ordering or hashing.
DataclassMention = make_dataclass(
    "Mention",
    [
        ("message_index", int),
        ("sentence_index", int),
        ("start_token", int),
        ("end_token", int),
        ("entity_type", Optional[EntityType], field(default=None, compare=False)),
    ],
    frozen=True,
    order=True,
)


@st.composite
def mention_fields(draw):
    start = draw(st.integers(0, 2))
    return (draw(st.integers(0, 2)), draw(st.integers(0, 2)), start, start + draw(st.integers(0, 2)),
            draw(st.sampled_from([None, *EntityType])))


class TestMentionAgainstDataclass:
    @given(st.lists(mention_fields(), min_size=2, max_size=8))
    def test_compares_hashes_and_prints_as_the_dataclass(self, rows):
        mentions = [Mention(*row) for row in rows]
        references = [DataclassMention(*row) for row in rows]
        for m, ref in zip(mentions, references):
            assert hash(m) == hash(ref) == hash(m.location)
            assert repr(m) == repr(ref)
            for other, other_ref in zip(mentions, references):
                for op in (operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge):
                    assert op(m, other) is op(ref, other_ref), (op, m, other)
        assert [m.location for m in sorted(mentions)] == [
            (r.message_index, r.sentence_index, r.start_token, r.end_token) for r in sorted(references)]
        assert len(set(mentions)) == len(set(references))


def _message(index=0, text="a"):
    return EmailMessage(index=index, sentences=((tok(text, mi=index),),))


# A value of each checked type, a change its constructor rejects, and the message.
CHECKED = [
    (Mention(0, 0, 1, 2), {"end_token": 0}, r"^mention span \[1, 0\] is inverted$"),
    (Mention(0, 0, 1, 2), {"sentence_index": -1}, r"^sentence_index must be nonnegative$"),
    (CoreferenceChain(3, (Mention(0, 0, 0, 0),)), {"chain_id": -1}, r"^chain_id must be nonnegative$"),
    (CoreferenceChain(3, (Mention(0, 0, 0, 0),)), {"mentions": ()}, r"^chain 3 has no mentions$"),
    (_message(), {"index": -1}, r"^message index must be nonnegative$"),
    (_message(), {"sentences": ((tok("a", mi=2),),)}, r"^message 0: token 'a' carries message_index 2$"),
    (EmailThread("t", (_message(),)), {"messages": (_message(1),)}, r"^thread t: message at position 0 has index 1$"),
]


class TestCheckedTuples:
    @pytest.mark.parametrize("value, change, message", CHECKED)
    def test_replace_and_make_raise_the_constructors_message(self, value, change, message):
        fields = value._asdict() | change
        with pytest.raises(ValueError, match=message):
            type(value)(**fields)
        with pytest.raises(ValueError, match=message):
            value._replace(**change)
        with pytest.raises(ValueError, match=message):
            type(value)._make(fields.values())

    def test_make_and_replace_normalize_as_the_constructor(self):
        chain = CoreferenceChain._make([0, [Mention(0, 0, 0, 0)]])
        assert type(chain) is CoreferenceChain and type(chain.mentions) is tuple and len(chain) == 1
        doc = AnnotatedDocument(EmailThread("t"))._replace(chains=[chain])
        assert type(doc) is AnnotatedDocument and doc.chains == (chain,)
        message = _message()._replace(to_addrs=["x@y"], sentences=[[tok("b")]])
        assert message.to_addrs == ("x@y",) and message.sentences == ((tok("b"),),)

    def test_mentions_hold_no_instance_dict(self):
        assert not hasattr(Mention(0, 0, 0, 0), "__dict__")


def _value_types(example1_document):
    """A value of every public value type of the package, built by the code that makes it."""
    doc = example1_document
    thread = doc.thread
    mentions = sorted(set(doc.mentions()))
    raw = parsing.RawThread(id="t", text="From: a@x.com\nSubject: s\n\nbody\n", source_path="t")
    verdicts, report = filtering.filter_corpus([thread])
    participants = baselines.build_participant_index(thread, mentions)
    return [
        thread.messages[0].sentences[0][0], thread.messages[0], thread, mentions[0], doc.chains[0], doc,
        raw, parsing.ParserConfig(), parsing.parse_header(raw.text),
        verdicts[0], filtering.ExclusionSet.from_threads([thread]), filtering.FilterConfig(), report,
        filtering.summarize_thread(thread),
        features.feature_annotation(thread),
        participants, participants.by_message[0], baselines.resolve_hb2(thread, mentions),
        baselines.UnresolvedPronoun(mentions[0], baselines.PronounClass.SECOND, "no recipient"),
        metrics.muc_parts(doc.chains, doc.chains), metrics.muc(doc.chains, doc.chains),
        metrics.score_documents([(doc.chains, doc.chains)]), metrics.correction_stats(mentions, mentions[1:]),
        metrics.corpus_stats([doc]),
        errors.align_chains(doc.chains, doc.chains), errors.categorize_errors(thread, doc.chains, doc.chains[1:]),
    ]


class TestValueTypes:
    def test_every_value_type_pickles_round_trip(self, example1_document):
        for value in _value_types(example1_document):
            for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
                assert type(again) is type(value)
                assert again == value and again._asdict() == value._asdict()

    def test_every_value_type_is_covered(self, example1_document):
        covered = {type(value) for value in _value_types(example1_document)}
        public = {
            value
            for module in (model, parsing, filtering, features, baselines, metrics, errors)
            for name, value in vars(module).items()
            if isinstance(value, type) and issubclass(value, tuple) and not name.startswith("_")
            and value.__module__ == module.__name__
        }
        assert public == covered


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
