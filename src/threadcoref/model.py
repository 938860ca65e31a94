"""Core domain types for email-thread coreference documents.

Everything here is an immutable value object: threads, messages, chains
and mentions are frozen dataclasses and tokens are checked tuples, so
documents can be shared freely between workers.
Structural invariants that a constructor can check locally (token offsets,
message index contiguity) raise ``ValueError`` at construction time;
cross-object consistency of chains and mentions is reported as data by
:func:`validate_document`. Every builder in the package (the native and CoNLL
readers, the parser and the date reordering) assembles a document in one
checked pass: each token is checked once, or holds the checks by construction,
and messages and thread are assembled without running the constructors' checks
again (:func:`_assemble_thread`).
"""
from __future__ import annotations

import enum
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
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


# typing.NamedTuple forbids overriding __new__ and _make, so the checks
# live in the subclass below.
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
    string. ``_make``, and through it ``_replace``, runs the same checks.
    A token equals a plain tuple of the same seven values.
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

    @classmethod
    def _make(cls, iterable) -> Token:
        # namedtuple's own _make calls tuple.__new__ and would skip the checks
        return cls(*iterable)


def _as_tuple(value):
    return value if isinstance(value, tuple) else tuple(value)


@dataclass(frozen=True)
class EmailMessage:
    """One message of a thread: parsed header fields plus tokenized sentences.

    ``index`` is the message's position in thread file order. Sentences hold
    Token tuples; sentence indices run contiguously from 0 over the message
    and every token carries ``message_index == index``.
    """

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

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("message index must be nonnegative")
        for name in ("to_addrs", "cc_addrs", "x_to", "x_cc"):
            object.__setattr__(self, name, _as_tuple(getattr(self, name)))
        object.__setattr__(
            self, "sentences", tuple(_as_tuple(sent) for sent in self.sentences)
        )
        for si, sentence in enumerate(self.sentences):
            if not sentence:
                raise ValueError(f"message {self.index}: sentence {si} is empty")
            for ti, tok in enumerate(sentence):
                if tok.message_index != self.index:
                    raise ValueError(
                        f"message {self.index}: token {tok.text!r} carries "
                        f"message_index {tok.message_index}"
                    )
                if tok.sentence_index != si or tok.token_index != ti:
                    raise ValueError(
                        f"message {self.index}: token {tok.text!r} at sentence "
                        f"{si} position {ti} carries indices "
                        f"({tok.sentence_index}, {tok.token_index})"
                    )

    def tokens(self) -> Iterator[Token]:
        for sentence in self.sentences:
            yield from sentence

    def body_tokens(self) -> Iterator[Token]:
        return (t for t in self.tokens() if t.section is Section.BODY)


@dataclass(frozen=True)
class EmailThread:
    """An ordered email conversation parsed from a single thread file."""

    id: str
    messages: tuple[EmailMessage, ...] = ()
    source_path: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "messages", _as_tuple(self.messages))
        for i, msg in enumerate(self.messages):
            if msg.index != i:
                raise ValueError(
                    f"thread {self.id}: message at position {i} has index {msg.index}"
                )
        last_end = 0
        for msg in self.messages:
            for sentence in msg.sentences:
                for tok in sentence:
                    if tok.char_start < last_end:
                        raise ValueError(_overlap_message(self.id, tok.text, tok.char_start, last_end))
                    last_end = tok.char_end

    def tokens(self) -> Iterator[Token]:
        for msg in self.messages:
            yield from msg.tokens()

    def sentence(self, message_index: int, sentence_index: int) -> tuple[Token, ...]:
        return self.messages[message_index].sentences[sentence_index]


def _overlap_message(thread_id: str, text: str, char_start: int, last_end: int) -> str:
    """What a thread reports of a token that starts before the previous one ends."""
    return f"thread {thread_id}: token {text!r} at char {char_start} overlaps previous token ending at {last_end}"


_MESSAGE_DEFAULTS = {f.name: f.default for f in fields(EmailMessage)}


def _assemble_thread(thread_id: str, messages, source_path: Optional[str] = None) -> EmailThread:
    """A thread from fields that hold every invariant the constructors check,
    set as the generated ``__init__`` sets them, without ``__post_init__``. Each
    of ``messages`` is a dict of fields with at least ``index`` and ``sentences``."""
    setattr_ = object.__setattr__
    built = []
    for values in messages:
        message = object.__new__(EmailMessage)
        for name, default in _MESSAGE_DEFAULTS.items():
            setattr_(message, name, values.get(name, default))
        built.append(message)
    thread = object.__new__(EmailThread)
    setattr_(thread, "id", thread_id)
    setattr_(thread, "messages", tuple(built))
    setattr_(thread, "source_path", source_path)
    return thread


@dataclass(frozen=True, order=True, slots=True, init=False)
class Mention:
    """A token span referring to an entity, addressed sentence-relative.

    Equality and hashing use only the four location fields; the optional
    entity type never influences identity, so scorers compare spans exactly.
    ``__init__`` is written out, as for :class:`Token`, because every chain
    of every document read builds its mentions through it.
    """

    message_index: int
    sentence_index: int
    start_token: int
    end_token: int
    entity_type: Optional[EntityType] = field(default=None, compare=False)

    def __init__(
        self,
        message_index: int,
        sentence_index: int,
        start_token: int,
        end_token: int,
        entity_type: Optional[EntityType] = None,
    ) -> None:
        if message_index < 0:
            raise ValueError("message_index must be nonnegative")
        if sentence_index < 0:
            raise ValueError("sentence_index must be nonnegative")
        if start_token < 0:
            raise ValueError("start_token must be nonnegative")
        if end_token < start_token:
            raise ValueError(f"mention span [{start_token}, {end_token}] is inverted")
        setattr_ = object.__setattr__
        setattr_(self, "message_index", message_index)
        setattr_(self, "sentence_index", sentence_index)
        setattr_(self, "start_token", start_token)
        setattr_(self, "end_token", end_token)
        setattr_(self, "entity_type", entity_type)

    @property
    def location(self) -> tuple[int, int, int, int]:
        return (self.message_index, self.sentence_index, self.start_token, self.end_token)


# Sorts mentions in the order Mention's own comparisons give, but compares
# the four location fields in C instead of calling the generated __lt__.
mention_order = attrgetter("message_index", "sentence_index", "start_token", "end_token")


@dataclass(frozen=True)
class CoreferenceChain:
    """A nonempty group of mentions asserted to refer to one entity."""

    chain_id: int
    mentions: tuple[Mention, ...]

    def __post_init__(self) -> None:
        if self.chain_id < 0:
            raise ValueError("chain_id must be nonnegative")
        object.__setattr__(self, "mentions", _as_tuple(self.mentions))
        if not self.mentions:
            raise ValueError(f"chain {self.chain_id} has no mentions")

    def __len__(self) -> int:
        return len(self.mentions)


@dataclass(frozen=True)
class AnnotatedDocument:
    """An email thread together with its coreference chains (key or response)."""

    thread: EmailThread
    chains: tuple[CoreferenceChain, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "chains", _as_tuple(self.chains))

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
