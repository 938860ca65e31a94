"""Core domain types for email-thread coreference documents.

Everything here is an immutable value object, a named tuple: threads,
messages, chains, mentions and tokens are checked tuples, so documents can
be shared freely between workers and pickle as plain tuples do. A checked
tuple is a ``typing.NamedTuple`` of its fields plus a subclass whose
``__new__`` runs the checks; its ``_make``, and through it ``_replace``, runs
them too.
Structural invariants that a constructor can check locally (token offsets,
message index contiguity) raise ``ValueError`` at construction time;
cross-object consistency of chains and mentions is reported as data by
:func:`validate_document`. The package builds documents in two places: the
native reader, through which the parser and the date reordering build theirs
from a native record, and the CoNLL reader's skeleton. Each assembles a
document in one checked pass: each token is checked once, or holds the checks
by construction, and messages and thread are assembled without running the
constructors' checks again (:func:`_assemble_thread`). The native record
writer lives here too: :func:`_message_record` lays out a message in
``EmailMessage``'s field order and :func:`record_line` writes a record, so
``parse`` writes records without loading the readers; :func:`record_dates`
reads a record's dates back, so ``filter`` on thread files loads no reader.
"""
from __future__ import annotations

import enum
import json
import sys
from contextlib import contextmanager
from datetime import datetime
from operator import attrgetter
from typing import Iterator, NamedTuple, Optional

_intern = sys.intern
_tuple_new = tuple.__new__


class ToolkitError(Exception):
    """Base class for data errors raised by this package."""


@contextmanager
def utf8_input(path) -> Iterator[None]:
    """Report text read from ``path`` that is not UTF-8 as a ``ToolkitError`` naming it."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise ToolkitError(f"{path} is not valid UTF-8: {exc.reason}") from None


class Section(enum.Enum):
    """Part of an email message a token belongs to."""

    HEADER = "header"
    BODY = "body"
    FOOTER = "footer"

    def __init__(self, value: str) -> None:
        # the one-letter code of the native format: "h", "b" or "f"
        self.code = value[0]


class EntityType(enum.Enum):
    PER = "PER"
    ORG = "ORG"
    LOC = "LOC"
    DIG = "DIG"


def _checked_make(cls, iterable):
    # namedtuple's own _make calls tuple.__new__ and would skip the checks;
    # _replace builds through _make, so it runs them too
    return cls(*iterable)


# typing.NamedTuple forbids overriding __new__ and _make, so each checked
# type is a NamedTuple of its fields and a subclass that holds the checks.
class _TokenFields(NamedTuple):
    text: str
    sentence_index: int
    token_index: int
    message_index: int
    section: Section
    char_start: int
    char_end: int


class Token(_TokenFields):
    """A single token with its position in the thread and raw-text offsets.

    A checked tuple: ``__new__`` checks each argument once, then stores
    them, because it runs once per token of every document read. An exact
    ``str`` text is interned, so the many tokens of one word share one
    string. A token equals a plain tuple of the same seven values.
    """

    __slots__ = ()

    def __new__(
        cls,
        text: str,
        sentence_index: int,
        token_index: int,
        message_index: int,
        section: Section,
        char_start: int,
        char_end: int,
    ) -> Token:
        if not text:
            raise ValueError("token text must be nonempty")
        if not isinstance(text, str):
            raise TypeError(f"token text must be a string, got {type(text).__name__}")
        if sentence_index < 0:
            raise ValueError(f"sentence_index must be nonnegative, got {sentence_index}")
        if token_index < 0:
            raise ValueError(f"token_index must be nonnegative, got {token_index}")
        if message_index < 0:
            raise ValueError(f"message_index must be nonnegative, got {message_index}")
        if char_start < 0:
            raise ValueError(f"char_start must be nonnegative, got {char_start}")
        if char_end <= char_start:
            raise ValueError(f"char_start must be < char_end, got [{char_start}, {char_end})")
        if not isinstance(section, Section):
            raise ValueError(f"section must be a Section, got {section!r}")
        if type(text) is str:
            text = _intern(text)
        return _tuple_new(
            cls, (text, sentence_index, token_index, message_index, section, char_start, char_end)
        )

    _make = classmethod(_checked_make)


def _as_tuple(value):
    return value if isinstance(value, tuple) else tuple(value)


class _MessageFields(NamedTuple):
    index: int
    date: Optional[datetime] = None
    from_addr: Optional[str] = None
    to_addrs: tuple[str, ...] = ()
    cc_addrs: tuple[str, ...] = ()
    subject: Optional[str] = None
    x_from: Optional[str] = None
    x_to: tuple[str, ...] = ()
    x_cc: tuple[str, ...] = ()
    sentences: tuple[tuple[Token, ...], ...] = ()


class EmailMessage(_MessageFields):
    """One message of a thread: parsed header fields plus tokenized sentences.

    ``index`` is the message's position in thread file order. Sentences hold
    Token tuples; sentence indices run contiguously from 0 over the message
    and every token carries ``message_index == index``.
    """

    __slots__ = ()

    def __new__(
        cls,
        index: int,
        date: Optional[datetime] = None,
        from_addr: Optional[str] = None,
        to_addrs: tuple[str, ...] = (),
        cc_addrs: tuple[str, ...] = (),
        subject: Optional[str] = None,
        x_from: Optional[str] = None,
        x_to: tuple[str, ...] = (),
        x_cc: tuple[str, ...] = (),
        sentences: tuple[tuple[Token, ...], ...] = (),
    ) -> EmailMessage:
        if index < 0:
            raise ValueError("message index must be nonnegative")
        to_addrs, cc_addrs, x_to, x_cc = map(_as_tuple, (to_addrs, cc_addrs, x_to, x_cc))
        sentences = tuple(_as_tuple(sent) for sent in sentences)
        for si, sentence in enumerate(sentences):
            if not sentence:
                raise ValueError(f"message {index}: sentence {si} is empty")
            for ti, tok in enumerate(sentence):
                if tok.message_index != index:
                    raise ValueError(
                        f"message {index}: token {tok.text!r} carries "
                        f"message_index {tok.message_index}"
                    )
                if tok.sentence_index != si or tok.token_index != ti:
                    raise ValueError(
                        f"message {index}: token {tok.text!r} at sentence "
                        f"{si} position {ti} carries indices "
                        f"({tok.sentence_index}, {tok.token_index})"
                    )
        return _tuple_new(
            cls, (index, date, from_addr, to_addrs, cc_addrs, subject, x_from, x_to, x_cc, sentences)
        )

    _make = classmethod(_checked_make)

    def tokens(self) -> Iterator[Token]:
        for sentence in self.sentences:
            yield from sentence


class _ThreadFields(NamedTuple):
    id: str
    messages: tuple[EmailMessage, ...] = ()
    source_path: Optional[str] = None


class EmailThread(_ThreadFields):
    """An ordered email conversation parsed from a single thread file."""

    __slots__ = ()

    def __new__(
        cls, id: str, messages: tuple[EmailMessage, ...] = (), source_path: Optional[str] = None
    ) -> EmailThread:
        messages = _as_tuple(messages)
        for i, msg in enumerate(messages):
            if msg.index != i:
                raise ValueError(f"thread {id}: message at position {i} has index {msg.index}")
        last_end = 0
        for msg in messages:
            for sentence in msg.sentences:
                for tok in sentence:
                    if tok.char_start < last_end:
                        raise ValueError(_overlap_message(id, tok.text, tok.char_start, last_end))
                    last_end = tok.char_end
        return _tuple_new(cls, (id, messages, source_path))

    _make = classmethod(_checked_make)

    def tokens(self) -> Iterator[Token]:
        for msg in self.messages:
            yield from msg.tokens()

    def sentence(self, message_index: int, sentence_index: int) -> tuple[Token, ...]:
        return self.messages[message_index].sentences[sentence_index]


def _overlap_message(thread_id: str, text: str, char_start: int, last_end: int) -> str:
    """What a thread reports of a token that starts before the previous one ends."""
    return f"thread {thread_id}: token {text!r} at char {char_start} overlaps previous token ending at {last_end}"


# every field of a message, in order, with its default; index has none
_MESSAGE_DEFAULTS = {name: _MessageFields._field_defaults.get(name) for name in _MessageFields._fields}


def _assemble_thread(thread_id: str, messages, source_path: Optional[str] = None) -> EmailThread:
    """A thread from fields that hold every invariant the constructors check,
    built by ``tuple.__new__``, so that no check runs again. Each of
    ``messages`` is a dict of message fields with at least ``index`` and
    ``sentences``; a field it lacks takes its default."""
    built = tuple([_tuple_new(EmailMessage, (_MESSAGE_DEFAULTS | values).values()) for values in messages])
    return _tuple_new(EmailThread, (thread_id, built, source_path))


def _message_record(date, sender, to, cc, subject, x_from, x_to, x_cc, sentences: list) -> dict:
    """One message of a native record, its keys in the order ``write_native``
    writes them: the fields of ``EmailMessage`` from ``date`` to ``x_cc``,
    and the sentences as lists of [text, section code, char_start, char_end]."""
    return {
        "date": None if date is None else date.isoformat(),
        "from": sender,
        "to": list(to),
        "cc": list(cc),
        "subject": subject,
        "x_from": x_from,
        "x_to": list(x_to),
        "x_cc": list(x_cc),
        "sentences": sentences,
    }


def _message_date(message: dict) -> Optional[datetime]:
    """The date of a native record's message, read back from what ``_message_record`` writes."""
    date = message.get("date")
    return None if date is None else datetime.fromisoformat(date)


def record_dates(record: dict) -> list[Optional[datetime]]:
    """The date of each message of a checked record, or None where it has none."""
    return [_message_date(message) for message in record["messages"]]


# a value as write_native writes it: compact, and non-ASCII kept raw. A record
# is a tree, built from JSON or by the parser, so no cycle check is made.
_encode = json.JSONEncoder(ensure_ascii=False, allow_nan=False, separators=(",", ":"), check_circular=False).encode


def record_line(record: dict) -> str:
    """A native record as ``write_native`` writes it: one line of compact JSON."""
    return _encode(record) + "\n"


class _MentionFields(NamedTuple):
    message_index: int
    sentence_index: int
    start_token: int
    end_token: int
    entity_type: Optional[EntityType] = None


class Mention(_MentionFields):
    """A token span referring to an entity, addressed sentence-relative.

    Equality, ordering and hashing between mentions use only the four
    location fields, the first four of the tuple, and ``hash(m) ==
    hash(m.location)``; the optional entity type never influences identity,
    so scorers compare spans exactly.
    """

    __slots__ = ()

    def __new__(
        cls,
        message_index: int,
        sentence_index: int,
        start_token: int,
        end_token: int,
        entity_type: Optional[EntityType] = None,
    ) -> Mention:
        if message_index < 0:
            raise ValueError("message_index must be nonnegative")
        if sentence_index < 0:
            raise ValueError("sentence_index must be nonnegative")
        if start_token < 0:
            raise ValueError("start_token must be nonnegative")
        if end_token < start_token:
            raise ValueError(f"mention span [{start_token}, {end_token}] is inverted")
        return _tuple_new(cls, (message_index, sentence_index, start_token, end_token, entity_type))

    _make = classmethod(_checked_make)

    @property
    def location(self) -> tuple[int, int, int, int]:
        return self[:4]

    # tuple's own comparisons would take the entity type in: every one is
    # replaced. A mention equals no other type, not even a plain tuple of its
    # fields, whose hash differs from its own.
    def __hash__(self) -> int:
        return hash(self[:4])

    def __eq__(self, other) -> bool:
        return other.__class__ is self.__class__ and self[:4] == other[:4]

    def __ne__(self, other) -> bool:
        return other.__class__ is not self.__class__ or self[:4] != other[:4]

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self[:4] < other[:4]
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return self[:4] <= other[:4]
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return self[:4] > other[:4]
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return self[:4] >= other[:4]
        return NotImplemented


# Sorts mentions in the order Mention's own comparisons give, but compares
# the four location fields in C instead of calling Mention.__lt__.
mention_order = attrgetter("message_index", "sentence_index", "start_token", "end_token")


class _ChainFields(NamedTuple):
    chain_id: int
    mentions: tuple[Mention, ...]


class CoreferenceChain(_ChainFields):
    """A nonempty group of mentions asserted to refer to one entity.

    ``len()`` of a chain is its number of mentions.
    """

    __slots__ = ()

    def __new__(cls, chain_id: int, mentions: tuple[Mention, ...]) -> CoreferenceChain:
        if chain_id < 0:
            raise ValueError("chain_id must be nonnegative")
        mentions = _as_tuple(mentions)
        if not mentions:
            raise ValueError(f"chain {chain_id} has no mentions")
        return _tuple_new(cls, (chain_id, mentions))

    _make = classmethod(_checked_make)

    def __len__(self) -> int:
        return len(self.mentions)


class _DocumentFields(NamedTuple):
    thread: EmailThread
    chains: tuple[CoreferenceChain, ...] = ()


class AnnotatedDocument(_DocumentFields):
    """An email thread together with its coreference chains (key or response)."""

    __slots__ = ()

    def __new__(cls, thread: EmailThread, chains: tuple[CoreferenceChain, ...] = ()) -> AnnotatedDocument:
        return _tuple_new(cls, (thread, _as_tuple(chains)))

    _make = classmethod(_checked_make)

    def mentions(self) -> Iterator[Mention]:
        for chain in self.chains:
            yield from chain.mentions


def mention_tokens(thread: EmailThread, mention: Mention) -> tuple[Token, ...]:
    """Tokens addressed by a mention; raises IndexError on out-of-range spans."""
    sentence = thread.messages[mention.message_index].sentences[mention.sentence_index]
    if mention.end_token >= len(sentence):
        raise IndexError(
            f"mention {mention.location} exceeds sentence length {len(sentence)}"
        )
    return sentence[mention.start_token : mention.end_token + 1]


def mention_text(thread: EmailThread, mention: Mention) -> str:
    """Display form of a mention: its token texts joined with single spaces."""
    return " ".join(t.text for t in mention_tokens(thread, mention))


def _span_in_range(thread: EmailThread, mention: Mention) -> bool:
    if mention.message_index >= len(thread.messages):
        return False
    msg = thread.messages[mention.message_index]
    if mention.sentence_index >= len(msg.sentences):
        return False
    return mention.end_token < len(msg.sentences[mention.sentence_index])


def validate_document(doc: AnnotatedDocument) -> list[str]:
    """Check chain/mention consistency; returns one description per violation.

    Violations are data, not failures: an empty list means the document
    satisfies every invariant (chains partition their mention set, chain ids
    are unique, no chain repeats a location, every span addresses real
    tokens). Deterministic and side-effect free.
    """
    violations: list[str] = []
    seen_ids: dict[int, int] = {}
    for chain in doc.chains:
        if chain.chain_id in seen_ids:
            violations.append(f"duplicate chain id {chain.chain_id}")
        seen_ids[chain.chain_id] = 1

    location_owner: dict[tuple[int, int, int, int], int] = {}
    for chain in doc.chains:
        in_chain: set[tuple[int, int, int, int]] = set()
        for mention in chain.mentions:
            loc = mention.location
            if loc in in_chain:
                violations.append(
                    f"chain {chain.chain_id}: duplicate mention at {loc}"
                )
            in_chain.add(loc)
            owner = location_owner.get(loc)
            if owner is not None and owner != chain.chain_id:
                violations.append(
                    f"mention at {loc} in multiple chains ({owner} and {chain.chain_id})"
                )
            location_owner.setdefault(loc, chain.chain_id)
            if not _span_in_range(doc.thread, mention):
                violations.append(
                    f"chain {chain.chain_id}: mention at {loc} addresses no valid span"
                )
    return violations
