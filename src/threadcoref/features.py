"""Conversational features over parsed threads.

Three per-thread features: the message identifier of each token (MI), the
section label of each token (SI), and temporal reordering of the thread's
messages (REV). MI and SI are pure projections of the token stream; REV
rebuilds the thread with messages sorted by date, remapping message indices
and token offsets, and can carry an attached annotation along consistently.
"""
from __future__ import annotations

from typing import NamedTuple

from .model import (
    AnnotatedDocument,
    CoreferenceChain,
    EmailMessage,
    EmailThread,
    Mention,
    Section,
    Token,
    ToolkitError,
    _assemble_thread,
    _tuple_new,
    mention_order,
)


class MissingDate(ToolkitError):
    """A message lacks a parseable Date header, so the thread cannot be reordered."""

    def __init__(self, message_index: int):
        super().__init__(f"message {message_index} has no parseable date")
        self.message_index = message_index


class FeatureAnnotation(NamedTuple):
    """Per-token MI and SI sequences in thread order."""

    mi: tuple[int, ...]
    si: tuple[Section, ...]


def message_identifier(thread: EmailThread) -> tuple[int, ...]:
    """MI: a token belonging to message i maps to i."""
    return tuple(t.message_index for t in thread.tokens())


def section_info(thread: EmailThread) -> tuple[Section, ...]:
    """SI: projection of each token's section label."""
    return tuple(t.section for t in thread.tokens())


def feature_annotation(thread: EmailThread) -> FeatureAnnotation:
    return FeatureAnnotation(mi=message_identifier(thread), si=section_info(thread))


def date_permutation(thread: EmailThread) -> list[int]:
    """Mapping old message index -> new index under a stable date sort of
    dates that all have a time zone or all have none; others do not compare."""
    for msg in thread.messages:
        if msg.date is None:
            raise MissingDate(msg.index)
    zoned = [msg.date.utcoffset() is not None for msg in thread.messages]
    if any(zoned) and not all(zoned):
        raise ToolkitError(
            f"message {zoned.index(True)} is dated with a time zone and message "
            f"{zoned.index(False)} without one, so they cannot be ordered"
        )
    order = sorted(range(len(thread.messages)), key=lambda i: thread.messages[i].date)
    perm = [0] * len(order)
    for new_index, old_index in enumerate(order):
        perm[old_index] = new_index
    return perm


def _shift_message(msg: EmailMessage, new_index: int, new_base: int) -> tuple[dict, int]:
    """The fields of ``msg`` renumbered to new_index, its token offsets shifted
    to start at new_base, and the base for the next message.

    The shift keeps every token's order and length, so each token is built
    directly.
    """
    moved = msg._asdict()
    moved["index"] = new_index
    if not msg.sentences:
        return moved, new_base
    shift = new_base - msg.sentences[0][0].char_start
    moved["sentences"] = tuple(
        tuple(
            _tuple_new(Token, (text, si, ti, new_index, section, cs + shift, ce + shift))
            for text, si, ti, _, section, cs, ce in sentence
        )
        for sentence in msg.sentences
    )
    return moved, msg.sentences[-1][-1].char_end + shift + 1


def _reorder(thread: EmailThread, perm: list[int]) -> EmailThread:
    """``thread`` with message i moved to index perm[i], and token offsets
    shifted so the thread-level stream stays strictly increasing."""
    order = sorted(range(len(perm)), key=lambda old: perm[old])
    messages = []
    base = 0
    for new_index, old_index in enumerate(order):
        moved, base = _shift_message(thread.messages[old_index], new_index, base)
        messages.append(moved)
    return _assemble_thread(thread.id, messages, thread.source_path)


def reverse_thread(thread: EmailThread) -> EmailThread:
    """Reorder messages by date, oldest first; ties keep their order.

    Message indices are renumbered 0..N-1 in the new order and token offsets
    are shifted so the thread-level stream stays strictly increasing. The
    multiset of messages and every token's text are preserved. Raises
    MissingDate when any message has no parseable date.
    """
    perm = date_permutation(thread)
    return thread if perm == list(range(len(perm))) else _reorder(thread, perm)


def reverse_document(doc: AnnotatedDocument) -> AnnotatedDocument:
    """reverse_thread plus consistent remapping of mention message indices."""
    perm = date_permutation(doc.thread)
    if perm == list(range(len(perm))):
        return doc
    thread = _reorder(doc.thread, perm)
    chains = tuple(
        CoreferenceChain(
            chain_id=chain.chain_id,
            mentions=tuple(
                sorted(
                    (
                        Mention(
                            perm[m.message_index],
                            m.sentence_index,
                            m.start_token,
                            m.end_token,
                            m.entity_type,
                        )
                        for m in chain.mentions
                    ),
                    key=mention_order,
                )
            ),
        )
        for chain in doc.chains
    )
    return AnnotatedDocument(thread=thread, chains=chains)
