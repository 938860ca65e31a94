"""Shared fixtures and synthetic-document builders."""
from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime
from pathlib import Path

import pytest

from threadcoref.model import (
    AnnotatedDocument,
    CoreferenceChain,
    EmailMessage,
    EmailThread,
    Mention,
    Section,
    Token,
)
from threadcoref.parsing import RawThread, parse_thread

DATA_DIR = Path(__file__).parent / "data"
CORPUS10_DIR = DATA_DIR / "corpus10"


@pytest.fixture(scope="session")
def example1_text() -> str:
    return (DATA_DIR / "example1.txt").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def example1_thread(example1_text) -> EmailThread:
    return parse_thread(RawThread(id="example1", text=example1_text))


def find_span(
    thread: EmailThread,
    texts: list[str],
    message_index: int | None = None,
    section: Section | None = None,
) -> Mention:
    """Locate the first contiguous token-text sequence and return its Mention."""
    for msg in thread.messages:
        if message_index is not None and msg.index != message_index:
            continue
        for si, sentence in enumerate(msg.sentences):
            if section is not None and sentence[0].section is not section:
                continue
            words = [t.text for t in sentence]
            for start in range(len(words) - len(texts) + 1):
                if words[start : start + len(texts)] == texts:
                    return Mention(msg.index, si, start, start + len(texts) - 1)
    raise AssertionError(f"span {texts!r} not found")


@pytest.fixture(scope="session")
def example1_mentions(example1_thread) -> dict[str, Mention]:
    t = example1_thread
    return {
        "from_email": find_span(t, ["g..barkowsky@enron.com"], section=Section.HEADER),
        "to_email": find_span(t, ["theresa.staab@enron.com"], section=Section.HEADER),
        "x_from": find_span(t, ["Barkowsky", ",", "Gloria", "G", "."]),
        "x_to": find_span(t, ["Staab", ",", "Theresa"]),
        "i": find_span(t, ["I"], section=Section.BODY),
        "you": find_span(t, ["you"], section=Section.BODY),
        "crestone": find_span(t, ["Crestone", "and", "Lost", "Creek"]),
    }


@pytest.fixture(scope="session")
def example1_document(example1_thread, example1_mentions) -> AnnotatedDocument:
    m = example1_mentions
    chains = (
        CoreferenceChain(1, (m["from_email"], m["x_from"], m["i"])),
        CoreferenceChain(2, (m["to_email"], m["x_to"], m["you"])),
        CoreferenceChain(3, (m["crestone"],)),
    )
    return AnnotatedDocument(thread=example1_thread, chains=chains)


@pytest.fixture(scope="session")
def corpus10_threads() -> list[EmailThread]:
    threads = []
    for path in sorted(CORPUS10_DIR.glob("*.txt")):
        raw = RawThread(id=path.name, text=path.read_text(encoding="utf-8"), source_path=path.name)
        threads.append(parse_thread(raw))
    return threads


# ---------------------------------------------------------------------------
# Direct model builders (no parser involved)
# ---------------------------------------------------------------------------

def tiny_thread(
    token_counts: list[int],
    dates: list[datetime] | None = None,
    thread_id: str = "tiny",
) -> EmailThread:
    """Thread of bare BODY-token messages with the given per-message sizes."""
    char = 0
    messages = []
    for mi, count in enumerate(token_counts):
        toks = []
        for ti in range(count):
            text = f"w{mi}x{ti}"
            toks.append(
                Token(text, 0, ti, mi, Section.BODY, char, char + len(text))
            )
            char += len(text) + 1
        messages.append(
            EmailMessage(
                index=mi,
                date=dates[mi] if dates else None,
                from_addr=f"sender{mi}@example.com",
                sentences=(tuple(toks),) if toks else (),
            )
        )
    return EmailThread(id=thread_id, messages=tuple(messages))


def build_fields(doc):
    """A document as nested plain values: the fields of the thread and of each
    message by name, the type of each of them, and each token with its type and the
    type of every field, so that a bool or float offset shows."""
    thread = doc.thread
    return (
        type(thread),
        {name: value for name, value in thread._asdict().items() if name != "messages"},
        [
            (
                type(message),
                {name: value for name, value in message._asdict().items() if name != "sentences"},
                [[(type(t), tuple((type(v), v) for v in t)) for t in sent] for sent in message.sentences],
            )
            for message in thread.messages
        ],
        doc.chains,
    )


def checked_document(doc):
    """``doc`` rebuilt by the checked constructors, every token by ``Token``."""
    thread = doc.thread
    messages = tuple(
        EmailMessage(**{**m._asdict(), "sentences": tuple(tuple(Token(*t) for t in s) for s in m.sentences)})
        for m in thread.messages
    )
    return doc._replace(thread=EmailThread(thread.id, messages, thread.source_path))


# ---------------------------------------------------------------------------
# Random chain sets for metric properties
# ---------------------------------------------------------------------------

def random_partition(rng: random.Random, items: list) -> list[frozenset]:
    items = list(items)
    rng.shuffle(items)
    chains = []
    i = 0
    while i < len(items):
        size = rng.randint(1, min(4, len(items) - i))
        chains.append(frozenset(items[i : i + size]))
        i += size
    return chains


def random_key_response(rng: random.Random) -> tuple[list[frozenset], list[frozenset]]:
    n = rng.randint(2, 14)
    universe = list(range(n))
    key_items = rng.sample(universe, rng.randint(1, n))
    resp_items = rng.sample(universe, rng.randint(1, n))
    return random_partition(rng, key_items), random_partition(rng, resp_items)


# ---------------------------------------------------------------------------
# Synthetic raw email threads with derived gold annotation
# ---------------------------------------------------------------------------

PEOPLE = [
    ("Johnson, Alice", "alice.johnson@acme.com"),
    ("Smith, Bob", "bob.smith@acme.com"),
    ("Davis, Carol", "carol.davis@beta.org"),
    ("Brown, Dan", "dan.brown@beta.org"),
    ("Clark, Eve", "eve.clark@gamma.net"),
    ("Harris, Frank", "frank.harris@delta.io"),
]

ENTITIES = [
    "Falcon Venture",
    "Panther Pipeline",
    "Midway Plant",
    "Crestone Project",
    "Venture Capital Group",
    "Capital Desk",
]

_SINGULAR_TEMPLATES = [
    "I will send the {e} summary tomorrow.",
    "Please send me the {e} draft today.",
    "My notes on {e} are attached.",
]
_SECOND_TEMPLATES = [
    "Can you review the {e} numbers?",
    "Your comments on {e} are welcome.",
]
_PLURAL_TEMPLATES = [
    "We should discuss {e} next week.",
    "Our group approved the {e} plan.",
]
_PLAIN_TEMPLATES = [
    "The {e} report is ready.",
    "Nothing new happened on {e} today.",
]

_PRONOUN_WORDS = {
    "i": "sender", "me": "sender", "my": "sender",
    "you": "recipient", "your": "recipient",
    "we": "plural", "our": "plural", "us": "plural",
}

_BASE_DATE = datetime(2001, 12, 17, 15, 0, 0, tzinfo=timezone.utc)


def synthetic_raw_text(
    rng: random.Random, include_plural: bool = True, max_messages: int = 4
) -> tuple[str, list[dict]]:
    """Build a newest-first raw thread; returns text plus per-message facts."""
    n = rng.randint(1, max_messages)
    people = rng.sample(PEOPLE, min(len(PEOPLE), rng.randint(2, 4)))
    blocks = []
    facts = []
    for k in range(n):
        sender = rng.choice(people)
        others = [p for p in people if p != sender]
        recipients = rng.sample(others, rng.randint(1, min(2, len(others))))
        date = _BASE_DATE - timedelta(hours=k * 3 + rng.randint(0, 1))
        templates = list(_SINGULAR_TEMPLATES + _SECOND_TEMPLATES + _PLAIN_TEMPLATES)
        if include_plural:
            templates += _PLURAL_TEMPLATES
        body_lines = []
        for _ in range(rng.randint(1, 3)):
            template = rng.choice(templates)
            entity = rng.choice(ENTITIES)
            body_lines.append(template.format(e=entity))
        date_field = "Date" if k == 0 else "Sent"
        header = [
            f"From: {sender[1]}",
            f"{date_field}: {format_datetime(date)}",
            f"To: {', '.join(addr for _, addr in recipients)}",
            "Subject: RE: status" if k else "Subject: status",
        ]
        if k == 0:
            header.append(f"X-From: {sender[0]}")
            header.append(f"X-To: {'; '.join(name for name, _ in recipients)}")
        prefix = [] if k == 0 else ["-----Original Message-----"]
        blocks.append("\n".join(prefix + header + [""] + body_lines))
        facts.append({"sender": sender, "recipients": recipients, "date": date})
    return "\n\n".join(blocks) + "\n", facts


def derive_mentions(thread: EmailThread) -> list[Mention]:
    """Locate header participants, body pronouns and entity spans."""
    mentions = []
    for msg in thread.messages:
        for si, sentence in enumerate(msg.sentences):
            words = [t.text for t in sentence]
            section = sentence[0].section
            if section is Section.HEADER:
                field = words[0].casefold() if len(words) > 1 and words[1] == ":" else None
                if field in ("from", "to", "cc"):
                    for ti, t in enumerate(sentence):
                        if "@" in t.text:
                            mentions.append(Mention(msg.index, si, ti, ti))
                elif field in ("x-from", "x-to", "x-cc"):
                    for name, _ in PEOPLE:
                        parts = name.replace(",", " , ").split()
                        for start in range(2, len(words) - len(parts) + 1):
                            if words[start : start + len(parts)] == parts:
                                mentions.append(
                                    Mention(msg.index, si, start, start + len(parts) - 1)
                                )
            elif section is Section.BODY:
                for ti, t in enumerate(sentence):
                    if t.text.casefold() in _PRONOUN_WORDS:
                        mentions.append(Mention(msg.index, si, ti, ti))
                for entity in ENTITIES:
                    parts = entity.split()
                    for start in range(len(words) - len(parts) + 1):
                        if words[start : start + len(parts)] == parts:
                            mentions.append(
                                Mention(msg.index, si, start, start + len(parts) - 1)
                            )
    return sorted(set(mentions))


def derive_gold_chains(
    thread: EmailThread, mentions: list[Mention], facts: list[dict]
) -> tuple[CoreferenceChain, ...]:
    """Gold grouping from construction facts (independent of the resolvers).

    Person chains hold a participant's header mentions plus first-person
    pronouns of messages they sent; second-person pronouns go to the first
    recipient. Plural pronouns form one thread chain; entity names one
    chain per entity.
    """
    from threadcoref.model import mention_text

    groups: dict[str, list[Mention]] = {}
    for mention in mentions:
        text = mention_text(thread, mention)
        folded = text.casefold()
        fact = facts[mention.message_index]
        if folded in _PRONOUN_WORDS:
            role = _PRONOUN_WORDS[folded]
            if role == "sender":
                key = f"person:{fact['sender'][1]}"
            elif role == "recipient":
                key = f"person:{fact['recipients'][0][1]}"
            else:
                key = "plural"
        elif "@" in folded:
            key = f"person:{folded}"
        else:
            for name, addr in PEOPLE:
                if folded == name.replace(",", " , ").casefold():
                    key = f"person:{addr}"
                    break
            else:
                key = f"entity:{folded}"
        groups.setdefault(key, []).append(mention)
    chains = []
    for cid, key in enumerate(sorted(groups)):
        chains.append(CoreferenceChain(chain_id=cid, mentions=tuple(sorted(groups[key]))))
    return tuple(chains)


def synthetic_document(
    rng: random.Random, include_plural: bool = True, max_messages: int = 4
) -> tuple[AnnotatedDocument, list[Mention]]:
    text, facts = synthetic_raw_text(rng, include_plural, max_messages)
    thread = parse_thread(RawThread(id=f"synth-{rng.randint(0, 10**9)}", text=text))
    mentions = derive_mentions(thread)
    chains = derive_gold_chains(thread, mentions, facts)
    return AnnotatedDocument(thread=thread, chains=chains), mentions
