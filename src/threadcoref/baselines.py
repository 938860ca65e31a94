"""Rule-based coreference baselines driven by email-header participants.

Both resolvers take gold mention spans plus section information and return
a partition of the mention set into chains:

* first-person singular pronouns join the sender's chain,
* second-person pronouns join the recipients' chain,
* first-person plural pronouns join sender+recipients (variant 1) or form
  one thread-level chain of their own (variant 2),
* all other mentions are chained when their normalized words overlap,
  transitively (union-find), and otherwise stay singletons.

Footer mentions never participate in chaining. Messages without header
participants leave their pronouns unresolved; those are recorded, not
fatal.

A resolver call looks each mention up once. It sorts the distinct mention
locations into canonical order (of a location given twice, the first
mention is kept, as ``set`` keeps it) and builds one fact table over those
positions: each mention's first-token section, pronoun class, normalized
word set and header field. Word sets come from a cache of token text to
words that lives for that one call, and are read nowhere else: no public
function gives one mention's words. The overlap, participant and pronoun
stages read the table and join integer positions in one union-find; the
public stage functions build the same table and run the same stage code.
The table reads tokens through a function of (message index, sentence
index), asked once per sentence that holds a mention: the public functions
pass the thread's sentences, and ``resolve`` passes the tokens of one
sentence of a checked record, built when asked for.
"""
from __future__ import annotations

import enum
import re
from collections import defaultdict
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from . import wordlists
from .model import (
    CoreferenceChain,
    EmailThread,
    Mention,
    Section,
    Token,
    mention_order,
    mention_tokens,
)

# header fields whose mentions are a message's sender and its recipients
SENDER_FIELDS = frozenset(["from", "x-from"])
RECIPIENT_FIELDS = frozenset(["to", "cc", "bcc", "x-to", "x-cc", "x-bcc"])


def header_field_of_sentence(sentence: Sequence[Token]) -> Optional[str]:
    """Casefolded header field name of a header-line sentence, if any.

    A header sentence tokenizes as NAME ":" VALUE...; returns NAME when the
    sentence is a header line, else None.
    """
    if len(sentence) >= 2 and sentence[0].section is Section.HEADER and sentence[1].text == ":":
        return sentence[0].text.casefold()
    return None


class PronounClass(enum.Enum):
    FIRST_SINGULAR = "first_singular"
    SECOND = "second"
    FIRST_PLURAL = "first_plural"
    OTHER = "other"


_CLASS_WORDS = {
    PronounClass.FIRST_SINGULAR: wordlists.FIRST_PERSON_SINGULAR,
    PronounClass.SECOND: wordlists.SECOND_PERSON,
    PronounClass.FIRST_PLURAL: wordlists.FIRST_PERSON_PLURAL,
}


def classify_pronoun(word: str) -> PronounClass:
    """Case-insensitive membership in the three baseline pronoun lists."""
    folded = word.casefold()
    for pclass, words in _CLASS_WORDS.items():
        if folded in words:
            return pclass
    return PronounClass.OTHER


def mention_pronoun_class(thread: EmailThread, mention: Mention) -> PronounClass:
    """Pronoun class of a mention; multi-token mentions are never pronominal."""
    if mention.start_token != mention.end_token:
        return PronounClass.OTHER
    return classify_pronoun(mention_tokens(thread, mention)[0].text)


# one compiled split for every token text; the empty string is what a split
# leaves before a leading or after a trailing separator
_NON_WORD = re.compile(r"[\W_]+")
_DROPPED_WORDS = wordlists.ENGLISH_STOPWORDS | {""}


def _text_words(text: str, cache: dict[str, frozenset[str]]) -> frozenset[str]:
    """Normalized words of one token text, taken from or added to ``cache``.

    Casefolds, splits at non-word characters and drops stopwords. An email
    address contributes the words of its local part only: domain words are
    shared by most addresses in a corpus and would chain unrelated
    participants together.
    """
    words = cache.get(text)
    if words is None:
        folded = text.casefold()
        if "@" in folded:
            folded = folded.split("@", 1)[0]
        words = cache[text] = frozenset(_NON_WORD.split(folded)) - _DROPPED_WORDS
    return words


def _span_words(tokens: Sequence[Token], cache: dict[str, frozenset[str]]) -> frozenset[str]:
    """The word set of a mention's tokens, which overlap chaining compares."""
    if len(tokens) == 1:
        return _text_words(tokens[0].text, cache)
    return frozenset().union(*[_text_words(tok.text, cache) for tok in tokens])


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while x != self.parent[x]:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        self.parent[self.find(x)] = self.find(y)

    def groups(self) -> dict[int, list[int]]:
        """Members of each set by root. Members ascend, and sets come in the
        order of their smallest member, because ``i`` ascends here."""
        out: dict[int, list[int]] = defaultdict(list)
        for i in range(len(self.parent)):
            out[self.find(i)].append(i)
        return out


class _MentionFacts(NamedTuple):
    """What the resolver stages read of each distinct mention location.

    Position ``p`` is the ``p``-th location in canonical order; every list
    is indexed by position. ``words[p]`` is None for a footer mention, which
    never chains; ``fields[p]`` is the header field of the sentence of a
    mention whose first token is a header token, else None.
    """

    order: list[Mention]
    sections: list[Section]
    classes: list[PronounClass]
    words: list[Optional[frozenset[str]]]
    fields: list[Optional[str]]


# the tokens of sentence (message index, sentence index) of a thread
_SentenceOf = Callable[[int, int], Sequence[Token]]


def _mention_facts(sentence_of: _SentenceOf, mentions: Iterable[Mention]) -> _MentionFacts:
    """The fact table of ``mentions``, each location looked up once.

    Canonical order sorts the distinct locations; of a repeated location the
    mention given first is kept, as ``set`` keeps it. ``sentence_of`` is
    asked once for each sentence that holds a mention. Raises IndexError
    for a span that addresses no token.
    """
    given = list(mentions)
    given.reverse()
    by_location = dict(zip(map(mention_order, given), given))
    order = [by_location[location] for location in sorted(by_location)]
    cache: dict[str, frozenset[str]] = {}
    sections: list[Section] = []
    classes: list[PronounClass] = []
    words: list[Optional[frozenset[str]]] = []
    fields: list[Optional[str]] = []
    last = None
    for mention in order:
        mi, si, start, end, _ = mention
        # the mentions of one sentence are adjacent, so a sentence and its
        # header field are looked up once
        if (mi, si) != last:
            last, sentence = (mi, si), sentence_of(mi, si)
            field = header_field_of_sentence(sentence)
        if end >= len(sentence):
            raise IndexError(f"mention {mention.location} exceeds sentence length {len(sentence)}")
        tokens = sentence[start : end + 1]
        section = tokens[0].section
        sections.append(section)
        classes.append(classify_pronoun(tokens[0].text) if start == end else PronounClass.OTHER)
        words.append(None if section is Section.FOOTER else _span_words(tokens, cache))
        fields.append(field if section is Section.HEADER else None)
    return _MentionFacts(order, sections, classes, words, fields)


def _chain_overlaps(uf: _UnionFind, words: list[Optional[frozenset[str]]], positions: Iterable[int]) -> None:
    """Join positions that share a normalized word, each to the first
    position that holds the word."""
    first_with: dict[str, int] = {}
    for p in positions:
        for word in words[p]:
            q = first_with.setdefault(word, p)
            if q != p:
                uf.union(p, q)


def chain_overlapping_mentions(
    thread: EmailThread, mentions: Sequence[Mention]
) -> list[tuple[Mention, ...]]:
    """Partition mentions by transitive normalized-word overlap.

    Merging is closed under transitivity (union-find over the first
    position of each word), and the output is canonical: groups ordered by
    their smallest mention, mentions sorted within each group, so any input
    ordering yields the same partition. Footer mentions never merge.
    """
    facts = _mention_facts(thread.sentence, mentions)
    uf = _UnionFind(len(facts.order))
    _chain_overlaps(uf, facts.words, [p for p, words in enumerate(facts.words) if words is not None])
    return [tuple([facts.order[p] for p in group]) for group in uf.groups().values()]


class MessageParticipants(NamedTuple):
    """Sender and recipient mentions found in one message's header lines."""

    senders: tuple[Mention, ...] = ()
    recipients: tuple[Mention, ...] = ()
    # recipients eligible for second-person linking: aliases of the sender
    # that also appear on a recipient line are excluded
    pronoun_recipients: tuple[Mention, ...] = ()


class ParticipantIndex(NamedTuple):
    by_message: tuple[MessageParticipants, ...] = ()


def _participants(facts: _MentionFacts, message_count: int) -> tuple[list[list[int]], ...]:
    """Per message, the positions of its senders, its recipients and its
    pronoun recipients: non-pronominal header mentions, by header line."""
    senders: list[list[int]] = [[] for _ in range(message_count)]
    recipients: list[list[int]] = [[] for _ in range(message_count)]
    order, classes, words = facts.order, facts.classes, facts.words
    for p, field in enumerate(facts.fields):
        if field is None or classes[p] is not PronounClass.OTHER:
            continue
        if field in SENDER_FIELDS:
            senders[order[p].message_index].append(p)
        elif field in RECIPIENT_FIELDS:
            recipients[order[p].message_index].append(p)
    pronoun_recipients = [
        [r for r in rs if not any(words[s] and words[s] == words[r] for s in ss)]
        for ss, rs in zip(senders, recipients)
    ]
    return senders, recipients, pronoun_recipients


def build_participant_index(thread: EmailThread, mentions: Iterable[Mention]) -> ParticipantIndex:
    """Assign header mentions sender/recipient roles by their header line."""
    facts = _mention_facts(thread.sentence, mentions)
    order = facts.order
    return ParticipantIndex(
        by_message=tuple(
            MessageParticipants(
                senders=tuple([order[p] for p in ss]),
                recipients=tuple([order[p] for p in rs]),
                pronoun_recipients=tuple([order[p] for p in prs]),
            )
            for ss, rs, prs in zip(*_participants(facts, len(thread.messages)))
        )
    )


class UnresolvedPronoun(NamedTuple):
    """A pronoun whose message offered no participant to link it to."""

    mention: Mention
    pronoun_class: PronounClass
    reason: str


class Resolution(NamedTuple):
    chains: tuple[CoreferenceChain, ...]
    unresolved: tuple[UnresolvedPronoun, ...] = ()


def _resolve(
    sentence_of: _SentenceOf,
    message_count: int,
    mentions: Iterable[Mention],
    plural_as_thread_chain: bool,
) -> Resolution:
    """The resolver behind ``resolve_hb1`` (``plural_as_thread_chain`` false)
    and ``resolve_hb2`` (true), over a thread of ``message_count`` messages
    whose sentences ``sentence_of`` gives, each asked for at most once."""
    facts = _mention_facts(sentence_of, mentions)
    order, sections, classes, words = facts.order, facts.sections, facts.classes, facts.words
    uf = _UnionFind(len(order))
    _chain_overlaps(
        uf, words, [p for p, pclass in enumerate(classes) if pclass is PronounClass.OTHER and words[p] is not None]
    )
    senders, _, pronoun_recipients = _participants(facts, message_count)
    for aliases in senders:
        for alias in aliases[1:]:
            uf.union(aliases[0], alias)

    unresolved: list[UnresolvedPronoun] = []
    plural_root: Optional[int] = None
    for p, pclass in enumerate(classes):
        if pclass is PronounClass.OTHER or sections[p] is Section.FOOTER:
            continue
        mi = order[p].message_index
        if pclass is PronounClass.FIRST_SINGULAR:
            targets, reason = senders[mi][:1], "no sender mention in message header"
        elif pclass is PronounClass.SECOND:
            targets, reason = pronoun_recipients[mi], "no recipient mention in message header"
        elif plural_as_thread_chain:
            if plural_root is None:
                plural_root = p
            targets, reason = [plural_root], ""
        else:
            targets, reason = senders[mi] + pronoun_recipients[mi], "no participant mention in message header"
        if not targets:
            unresolved.append(UnresolvedPronoun(order[p], pclass, reason))
        for target in targets:
            uf.union(p, target)

    chains = tuple(
        CoreferenceChain(chain_id=cid, mentions=tuple([order[p] for p in group]))
        for cid, group in enumerate(uf.groups().values())
    )
    return Resolution(chains=chains, unresolved=tuple(unresolved))


def resolve_hb1(thread: EmailThread, mentions: Iterable[Mention]) -> Resolution:
    """Variant 1: first-person plurals link to sender and recipients."""
    return _resolve(thread.sentence, len(thread.messages), mentions, plural_as_thread_chain=False)


def resolve_hb2(thread: EmailThread, mentions: Iterable[Mention]) -> Resolution:
    """Variant 2: first-person plurals form a single thread-level chain."""
    return _resolve(thread.sentence, len(thread.messages), mentions, plural_as_thread_chain=True)
