"""Conversational features over parsed threads.

Three per-thread features: the message identifier of each token (MI), the
section label of each token (SI), and temporal reordering of the thread's
messages (REV). MI and SI are pure projections of the token stream; REV
sorts the messages by date, remapping message indices and token offsets,
and carries an attached annotation along. The messages move in one place,
as a native record's (``serialization._record_messages``): ``features_line``
writes the moved record, and ``reverse_document`` builds its document again.
"""
from __future__ import annotations

from datetime import datetime, timezone
from typing import NamedTuple, Optional, Sequence

from . import serialization
from .model import (
    AnnotatedDocument,
    CoreferenceChain,
    EmailThread,
    Mention,
    Section,
    ToolkitError,
    _tuple_new,
    mention_order,
    record_dates,
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
    """Mapping old message index -> new index under a stable date sort.

    A date without a time zone is ordered as if it had the UTC offset of the
    thread's first message dated with one; the dates themselves do not change.
    """
    return _date_permutation([msg.date for msg in thread.messages])


def _date_permutation(dates: Sequence[Optional[datetime]]) -> list[int]:
    """``date_permutation`` of the messages dated ``dates``."""
    for index, date in enumerate(dates):
        if date is None:
            raise MissingDate(index)
    offsets = [date.utcoffset() for date in dates]
    first = next((offset for offset in offsets if offset is not None), None)
    if first is not None:
        zone = timezone(first)
        dates = [date.replace(tzinfo=zone) if offset is None else date for date, offset in zip(dates, offsets)]
    order = sorted(range(len(dates)), key=dates.__getitem__)
    perm = [0] * len(order)
    for new_index, old_index in enumerate(order):
        perm[old_index] = new_index
    return perm


def reverse_thread(thread: EmailThread) -> EmailThread:
    """Reorder messages by date, oldest first; ties keep their order.

    Message indices are renumbered 0..N-1 in the new order and token offsets
    are shifted so the thread-level stream stays strictly increasing. The
    multiset of messages and every token's text are preserved. Raises
    MissingDate when any message has no parseable date.
    """
    return reverse_document(AnnotatedDocument(thread)).thread


def _moved_chains(chains: Sequence[CoreferenceChain], perm: list[int]) -> tuple[CoreferenceChain, ...]:
    """``chains`` with each mention moved to message perm[i] from message i,
    and each chain's mentions sorted again. A chain keeps its id and its
    mention count, and a mention its other fields, so each is built directly."""
    return tuple(
        _tuple_new(CoreferenceChain, (
            chain.chain_id,
            tuple(sorted((_tuple_new(Mention, (perm[m[0]], *m[1:])) for m in chain.mentions), key=mention_order)),
        ))
        for chain in chains
    )


def reverse_document(doc: AnnotatedDocument) -> AnnotatedDocument:
    """reverse_thread plus consistent remapping of mention message indices.

    The thread is moved as its native record, through the reorder that
    ``features_line`` uses (``serialization._record_messages``), and built
    again by ``serialization.record_to_document``.
    """
    perm = date_permutation(doc.thread)
    if perm == list(range(len(perm))):
        return doc
    order = sorted(range(len(perm)), key=perm.__getitem__)
    record = serialization.document_to_record(AnnotatedDocument(doc.thread))
    record["messages"] = serialization._record_messages(record["messages"], order)
    return AnnotatedDocument(serialization.record_to_document(record).thread, _moved_chains(doc.chains, perm))


def features_line(line: str, record: dict, chains: Sequence[CoreferenceChain], features: Sequence[str], rev: bool) -> str:
    """The output line of the ``features`` command for a checked native
    ``line``, whose parsed JSON is ``record`` and whose chains are ``chains``.

    It is what ``write_native`` writes, with the ``features`` columns, of the
    document the line decodes to, after ``reverse_document`` with ``rev``,
    except that a line that needs no reordering keeps its messages as given
    where ``serialization.replace_chains`` can splice it. It is written from
    the record's JSON, and no token is built.
    """
    if rev:
        perm = _date_permutation(record_dates(record))
        if perm != list(range(len(perm))):
            order = sorted(range(len(perm)), key=perm.__getitem__)
            return serialization.replace_chains(line, record, _moved_chains(chains, perm), features, order)
    return serialization.replace_chains(line, record, chains, features)
