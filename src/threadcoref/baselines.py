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
"""
from __future__ import annotations

import enum
import re
from collections import defaultdict
from typing import Iterable, NamedTuple, Optional, Sequence

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


def normalize_mention_words(thread: EmailThread, mention: Mention) -> frozenset[str]:
    """Word set used for overlap chaining.

    Casefolds, strips punctuation tokens, and drops stopwords. Email
    addresses contribute the words of their local part only: domain words
    are shared by most addresses in a corpus and would chain unrelated
    participants together.
    """
    words: set[str] = set()
    for tok in mention_tokens(thread, mention):
        text = tok.text.casefold()
        if "@" in text:
            local = text.split("@", 1)[0]
            words.update(w for w in re.split(r"[\W_]+", local) if w)
        else:
            words.update(w for w in re.split(r"[\W_]+", text) if w)
    return frozenset(w for w in words if w not in wordlists.ENGLISH_STOPWORDS)


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
        out: dict[int, list[int]] = defaultdict(list)
        for i in range(len(self.parent)):
            out[self.find(i)].append(i)
        return out


def chain_overlapping_mentions(
    thread: EmailThread, mentions: Sequence[Mention]
) -> list[tuple[Mention, ...]]:
    """Partition mentions by transitive normalized-word overlap.

    Merging is closed under transitivity (union-find over an inverted
    word index), and the output is canonical: groups ordered by their
    smallest mention, mentions sorted within each group, so any input
    ordering yields the same partition. Footer mentions never merge.
    """
    order = sorted(set(mentions), key=mention_order)
    uf = _UnionFind(len(order))
    by_word: dict[str, list[int]] = defaultdict(list)
    for i, mention in enumerate(order):
        if mention_tokens(thread, mention)[0].section is Section.FOOTER:
            continue
        for word in normalize_mention_words(thread, mention):
            by_word[word].append(i)
    for indices in by_word.values():
        for other in indices[1:]:
            uf.union(indices[0], other)
    groups = sorted(uf.groups().values(), key=lambda idxs: min(idxs))
    return [tuple(order[i] for i in sorted(idxs)) for idxs in groups]


class MessageParticipants(NamedTuple):
    """Sender and recipient mentions found in one message's header lines."""

    senders: tuple[Mention, ...] = ()
    recipients: tuple[Mention, ...] = ()
    # recipients eligible for second-person linking: aliases of the sender
    # that also appear on a recipient line are excluded
    pronoun_recipients: tuple[Mention, ...] = ()


class ParticipantIndex(NamedTuple):
    by_message: tuple[MessageParticipants, ...] = ()

    def for_message(self, index: int) -> MessageParticipants:
        if 0 <= index < len(self.by_message):
            return self.by_message[index]
        return MessageParticipants()


def build_participant_index(thread: EmailThread, mentions: Iterable[Mention]) -> ParticipantIndex:
    """Assign header mentions sender/recipient roles by their header line."""
    senders: dict[int, list[Mention]] = defaultdict(list)
    recipients: dict[int, list[Mention]] = defaultdict(list)
    for mention in sorted(set(mentions), key=mention_order):
        if mention_pronoun_class(thread, mention) is not PronounClass.OTHER:
            continue
        tokens = mention_tokens(thread, mention)
        if tokens[0].section is not Section.HEADER:
            continue
        sentence = thread.sentence(mention.message_index, mention.sentence_index)
        field = header_field_of_sentence(sentence)
        if field in SENDER_FIELDS:
            senders[mention.message_index].append(mention)
        elif field in RECIPIENT_FIELDS:
            recipients[mention.message_index].append(mention)

    entries = []
    for i in range(len(thread.messages)):
        sender_words = [normalize_mention_words(thread, s) for s in senders.get(i, [])]
        pronoun_recipients = tuple(
            r
            for r in recipients.get(i, [])
            if not any(
                words and words == normalize_mention_words(thread, r)
                for words in sender_words
            )
        )
        entries.append(
            MessageParticipants(
                senders=tuple(senders.get(i, [])),
                recipients=tuple(recipients.get(i, [])),
                pronoun_recipients=pronoun_recipients,
            )
        )
    return ParticipantIndex(by_message=tuple(entries))


class UnresolvedPronoun(NamedTuple):
    """A pronoun whose message offered no participant to link it to."""

    mention: Mention
    pronoun_class: PronounClass
    reason: str


class Resolution(NamedTuple):
    chains: tuple[CoreferenceChain, ...]
    unresolved: tuple[UnresolvedPronoun, ...] = ()


def _resolve(
    thread: EmailThread,
    mentions: Sequence[Mention],
    plural_as_thread_chain: bool,
) -> Resolution:
    order = sorted(set(mentions), key=mention_order)
    index_of = {m: i for i, m in enumerate(order)}
    uf = _UnionFind(len(order))
    unresolved: list[UnresolvedPronoun] = []

    classes = {m: mention_pronoun_class(thread, m) for m in order}
    in_footer = {
        m: mention_tokens(thread, m)[0].section is Section.FOOTER for m in order
    }
    non_pronominal = [m for m in order if classes[m] is PronounClass.OTHER]

    for group in chain_overlapping_mentions(thread, non_pronominal):
        first = index_of[group[0]]
        for other in group[1:]:
            uf.union(first, index_of[other])

    participants = build_participant_index(thread, non_pronominal)
    for entry in participants.by_message:
        if len(entry.senders) > 1:
            first = index_of[entry.senders[0]]
            for alias in entry.senders[1:]:
                uf.union(first, index_of[alias])

    plural_root: Optional[int] = None
    for mention in order:
        pclass = classes[mention]
        if pclass is PronounClass.OTHER or in_footer[mention]:
            continue
        entry = participants.for_message(mention.message_index)
        mi = index_of[mention]
        if pclass is PronounClass.FIRST_SINGULAR:
            if entry.senders:
                uf.union(mi, index_of[entry.senders[0]])
            else:
                unresolved.append(
                    UnresolvedPronoun(mention, pclass, "no sender mention in message header")
                )
        elif pclass is PronounClass.SECOND:
            if entry.pronoun_recipients:
                for r in entry.pronoun_recipients:
                    uf.union(mi, index_of[r])
            else:
                unresolved.append(
                    UnresolvedPronoun(mention, pclass, "no recipient mention in message header")
                )
        elif pclass is PronounClass.FIRST_PLURAL:
            if plural_as_thread_chain:
                if plural_root is None:
                    plural_root = mi
                else:
                    uf.union(mi, plural_root)
            else:
                targets = list(entry.senders) + list(entry.pronoun_recipients)
                if targets:
                    for t in targets:
                        uf.union(mi, index_of[t])
                else:
                    unresolved.append(
                        UnresolvedPronoun(mention, pclass, "no participant mention in message header")
                    )

    groups = sorted(uf.groups().values(), key=lambda idxs: min(idxs))
    chains = tuple(
        CoreferenceChain(chain_id=cid, mentions=tuple(order[i] for i in sorted(idxs)))
        for cid, idxs in enumerate(groups)
    )
    return Resolution(chains=chains, unresolved=tuple(unresolved))


def resolve_hb1(thread: EmailThread, mentions: Sequence[Mention]) -> Resolution:
    """Variant 1: first-person plurals link to sender and recipients."""
    return _resolve(thread, mentions, plural_as_thread_chain=False)


def resolve_hb2(thread: EmailThread, mentions: Sequence[Mention]) -> Resolution:
    """Variant 2: first-person plurals form a single thread-level chain."""
    return _resolve(thread, mentions, plural_as_thread_chain=True)
