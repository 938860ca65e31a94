"""Corpus extraction-and-filtering pipeline.

Classifies candidate threads into accept/reject categories and aggregates a
distribution report. Threads from auto-generated maildir folders are
dropped before classification; every remaining thread receives exactly one
verdict under a fixed precedence:

    EXCLUSION_OVERLAP > DUPLICATE > NO_CONTENT > INVALID_ATTACHMENT
    > NON_ENGLISH > TOO_SHORT > ACCEPTED

The rules are those that cut the corpus, and their thresholds are fixed.
The one value a caller sets is ``min_messages``, below which a thread is
too short.

Classification reads a small ``ThreadSummary`` of each thread, so a caller
can read threads one at a time and keep only their summaries.
``summarize_record`` makes it from a checked native record's JSON, the form
that both the parser and the JSONL reader give: it rebuilds each message
body once and runs the content checks (no content, inline attachment,
non-English) over those bodies; they have no public entry point of their
own. ``filter_corpus`` summarizes a parsed thread through its record.
Duplicate detection needs a read-only fingerprint index built over the
whole candidate set in a single pass, and a postings index from each
fingerprint to the threads that hold it, so a thread is checked only
against the holders of its rarest fingerprint. ``filter_summaries``
applies the directory rule, the length rule and the precedence.
"""
from __future__ import annotations

import enum
import hashlib
import re
from collections import Counter
from datetime import datetime
from pathlib import PurePath
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from . import serialization, wordlists
from .model import AnnotatedDocument, EmailMessage, EmailThread, Section, ToolkitError, utf8_input


class FilterCategory(enum.Enum):
    ACCEPTED = "accepted"
    TOO_SHORT = "too_short"
    DUPLICATE = "duplicate"
    NO_CONTENT = "no_content"
    INVALID_ATTACHMENT = "invalid_attachment"
    NON_ENGLISH = "non_english"
    EXCLUSION_OVERLAP = "exclusion_overlap"


# Rejection checks in precedence order; ACCEPTED is the fallthrough.
_PRECEDENCE = (
    FilterCategory.EXCLUSION_OVERLAP,
    FilterCategory.DUPLICATE,
    FilterCategory.NO_CONTENT,
    FilterCategory.INVALID_ATTACHMENT,
    FilterCategory.NON_ENGLISH,
    FilterCategory.TOO_SHORT,
)

REPORT_ORDER = _PRECEDENCE + (FilterCategory.ACCEPTED,)


class FilterVerdict(NamedTuple):
    thread_id: str
    category: FilterCategory
    detail: str = ""


class ExclusionSet(NamedTuple):
    """Message fingerprints of a held-out corpus; overlap means rejection."""

    fingerprints: frozenset[str] = frozenset()

    @classmethod
    def from_threads(cls, threads: Iterable[EmailThread]) -> "ExclusionSet":
        prints = set()
        for thread in threads:
            for msg in thread.messages:
                prints.add(fingerprint_message(msg))
        return cls(frozenset(prints))

    @classmethod
    def from_file(cls, path) -> "ExclusionSet":
        """The fingerprints of a file of one per line, as ``fingerprint_message`` writes them."""
        with open(path, encoding="utf-8") as fp, utf8_input(path):
            lines = [line.strip() for line in fp.read().splitlines()]
        for line_no, line in enumerate(lines, start=1):
            # any other file, such as a verdicts table, would pass as one that excludes nothing
            if line and not _FINGERPRINT_RE.fullmatch(line):
                raise ToolkitError(
                    f"exclusion file {path}: line {line_no} is not a message fingerprint (16 lowercase hex digits)"
                )
        return cls(frozenset(filter(None, lines)))


# An inline attachment is a run of hex digits, spaces and newlines of at least
# _HEX_MIN_RUN characters, at least _HEX_MIN_FRACTION of them digits. A thread
# of at least _LANGUAGE_MIN_TOKENS body tokens is non-English when fewer than
# _STOPWORD_MIN_FRACTION of them are English stopwords.
_HEX_MIN_RUN = 512
_HEX_MIN_FRACTION = 0.95
_LANGUAGE_MIN_TOKENS = 50
_STOPWORD_MIN_FRACTION = 0.02

_SUBJECT_PREFIX_RE = re.compile(r"^\s*((re|fw|fwd)\s*:\s*)+", re.IGNORECASE)
_WHITESPACE_RE = re.compile(r"\s+")
# what fingerprint_message writes: an 8-byte digest in hex
_FINGERPRINT_RE = re.compile(r"[0-9a-f]{16}")


def _normalized_subject(subject: Optional[str]) -> str:
    if not subject:
        return ""
    return _WHITESPACE_RE.sub(" ", _SUBJECT_PREFIX_RE.sub("", subject)).strip().casefold()


def _body(sentences: Iterable[list[str]]) -> tuple[list[str], str]:
    """The texts of a message's body tokens, given a list per sentence, and
    its body text rebuilt from them: spaces within a sentence, newlines
    between."""
    words: list[str] = []
    parts = []
    for sentence_words in sentences:
        if sentence_words:
            words += sentence_words
            parts.append(" ".join(sentence_words))
    return words, "\n".join(parts)


def _fingerprint(date: Optional[datetime], sender: Optional[str], subject: Optional[str], body: str) -> str:
    minute = date.strftime("%Y-%m-%d %H:%M") if date else ""
    body = _WHITESPACE_RE.sub(" ", body).strip()
    canonical = "\x1f".join([_normalized_subject(subject), minute, (sender or "").casefold(), body])
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()


def fingerprint_message(msg: EmailMessage) -> str:
    """Stable 64-bit hex fingerprint of a message's canonical content.

    Canonical form: subject with Re:/Fw: prefixes stripped, date truncated
    to minutes, sender lowercased, body text with whitespace collapsed.
    """
    body = _body([t.text for t in sentence if t.section is Section.BODY] for sentence in msg.sentences)[1]
    return _fingerprint(msg.date, msg.from_addr, msg.subject, body)


def build_corpus_index(threads: Iterable[EmailThread]) -> dict[str, Counter]:
    """Fingerprint multiset per thread id, for duplicate detection."""
    return {t.id: Counter(map(fingerprint_message, t.messages)) for t in threads}


def _is_submultiset(small: Counter, big: Counter) -> bool:
    return all(big[key] >= count for key, count in small.items())


def _is_contained(thread_id: str, own: Counter, corpus_index: Mapping[str, Counter]) -> bool:
    for other_id, other in corpus_index.items():
        if other_id == thread_id:
            continue
        if not _is_submultiset(own, other):
            continue
        if _is_submultiset(other, own):
            # identical: break the tie by id
            if thread_id > other_id:
                return True
        else:
            return True
    return False


def _postings(corpus_index: Mapping[str, Counter]) -> dict[str, dict[str, Counter]]:
    """Per fingerprint, the threads of ``corpus_index`` that hold it, as a
    sub-index of the same shape."""
    postings: dict[str, dict[str, Counter]] = {}
    for thread_id, prints in corpus_index.items():
        for key, count in prints.items():
            if count > 0:
                postings.setdefault(key, {})[thread_id] = prints
    return postings


def _containers(
    own: Counter, corpus_index: Mapping[str, Counter], postings: Mapping[str, Mapping[str, Counter]]
) -> Mapping[str, Counter]:
    """The threads that can contain ``own``: a container holds each of its
    fingerprints, so it is among the holders of the rarest one. A multiset
    that needs no fingerprint fits in every thread."""
    needed = [key for key, count in own.items() if count > 0]
    if not needed:
        return corpus_index
    return min((postings.get(key, {}) for key in needed), key=len)


def detect_duplicate(
    thread: EmailThread, corpus_index: Mapping[str, Counter]
) -> bool:
    """True when the thread's messages all occur inside some other thread.

    A thread whose fingerprint multiset is contained in another thread's is
    a duplicate (or a fragment of the larger conversation). For identical
    threads the lexicographically smaller id survives.
    """
    own = corpus_index.get(thread.id)
    if own is None:
        own = Counter(map(fingerprint_message, thread.messages))
    return _is_contained(thread.id, own, corpus_index)


# Message bodies, as _body gives them, are what the content checks read.
_Bodies = Sequence[tuple[list[str], str]]


def _is_no_content(bodies: _Bodies) -> bool:
    """True when strictly more than half of the messages have empty bodies."""
    empty = sum(1 for words, _ in bodies if not words)
    return empty * 2 > len(bodies)


# maximal runs of characters that an inline hex attachment is made of
_HEX_RUN = re.compile(r"[0-9a-fA-F \n]+")


def _has_hex_attachment(bodies: _Bodies) -> bool:
    """True when a message body embeds a long inline-attachment hex blob."""
    for _, body in bodies:
        for run in _HEX_RUN.findall(body):
            if len(run) >= _HEX_MIN_RUN:
                digits = len(run) - run.count(" ") - run.count("\n")
                if digits / len(run) >= _HEX_MIN_FRACTION:
                    return True
    return False


def _is_non_english(bodies: _Bodies) -> bool:
    """Stopword-hit language guard; short bodies are never rejected."""
    tokens = sum(len(words) for words, _ in bodies)
    if tokens < _LANGUAGE_MIN_TOKENS:
        return False
    is_stopword = wordlists.ENGLISH_STOPWORDS.__contains__
    hits = sum(sum(map(is_stopword, map(str.casefold, words))) for words, _ in bodies)
    return hits / tokens < _STOPWORD_MIN_FRACTION


def _in_excluded_directory(source_path: Optional[str]) -> bool:
    if not source_path:
        return False
    parts = PurePath(source_path).parts[:-1]
    return any(p in wordlists.EXCLUDED_DIRECTORIES for p in parts)


class FilterReport(NamedTuple):
    """Distribution of verdicts per category, in fixed report order."""

    counts: tuple[tuple[FilterCategory, int], ...] = ()
    dropped_directories: int = 0

    @property
    def total(self) -> int:
        return sum(count for _, count in self.counts)


class ThreadSummary(NamedTuple):
    """What classification needs of one thread, so the thread itself can go.

    ``content`` is the first of the content checks (no content, inline
    attachment, non-English, in precedence order) that rejects the thread,
    or None.
    """

    id: str
    source_path: Optional[str]
    fingerprints: Counter
    message_count: int
    content: Optional[FilterCategory]


_CONTENT_DETAILS = {
    FilterCategory.NO_CONTENT: "over half of messages have no body",
    FilterCategory.INVALID_ATTACHMENT: "inline hex attachment",
    FilterCategory.NON_ENGLISH: "stopword hit rate below threshold",
}


def summarize_record(record: dict) -> ThreadSummary:
    """The summary of the thread of a checked native record, such as
    ``serialization.decode_record`` or ``parsing.parse_record`` gives, read
    from its JSON: the date, sender, subject and body token texts of each
    message. Each message body is rebuilt once, for every check, and no
    token is built."""
    body = Section.BODY.code
    messages = [
        (date, m.get("from"), m.get("subject"), _body([t[0] for t in s if t[1] == body] for s in m["sentences"]))
        for date, m in zip(serialization.record_dates(record), record["messages"])
    ]
    bodies = [body for *_, body in messages]
    if _is_no_content(bodies):
        content = FilterCategory.NO_CONTENT
    elif _has_hex_attachment(bodies):
        content = FilterCategory.INVALID_ATTACHMENT
    elif _is_non_english(bodies):
        content = FilterCategory.NON_ENGLISH
    else:
        content = None
    return ThreadSummary(
        id=record["id"],
        source_path=record.get("source_path"),
        fingerprints=Counter(_fingerprint(date, sender, subject, text) for date, sender, subject, (_, text) in messages),
        message_count=len(messages),
        content=content,
    )


def _classify(
    summary: ThreadSummary,
    corpus_index: Mapping[str, Counter],
    postings: Mapping[str, Mapping[str, Counter]],
    exclusion: ExclusionSet,
    min_messages: int,
) -> FilterVerdict:
    own = corpus_index.get(summary.id) or summary.fingerprints
    if exclusion.fingerprints:
        overlap = len(set(own) & exclusion.fingerprints)
        if overlap:
            return FilterVerdict(
                summary.id,
                FilterCategory.EXCLUSION_OVERLAP,
                f"{overlap} message(s) overlap the exclusion set",
            )
    if _is_contained(summary.id, own, _containers(own, corpus_index, postings)):
        return FilterVerdict(summary.id, FilterCategory.DUPLICATE, "contained in another thread")
    if summary.content is not None:
        return FilterVerdict(summary.id, summary.content, _CONTENT_DETAILS[summary.content])
    if summary.message_count < min_messages:
        return FilterVerdict(
            summary.id,
            FilterCategory.TOO_SHORT,
            f"{summary.message_count} message(s), need {min_messages}",
        )
    return FilterVerdict(summary.id, FilterCategory.ACCEPTED, "")


def filter_corpus(
    threads: Sequence[EmailThread], exclusion: ExclusionSet = ExclusionSet(), min_messages: int = 4
) -> tuple[list[FilterVerdict], FilterReport]:
    """Classify every candidate thread; verdicts partition the candidate set.

    Threads stored under excluded directories are dropped before
    classification and appear only in the report's dropped count. A thread
    of fewer than ``min_messages`` messages is too short.
    """
    summaries = [summarize_record(serialization.document_to_record(AnnotatedDocument(t))) for t in threads]
    return filter_summaries(summaries, exclusion, min_messages)


def filter_summaries(
    summaries: Sequence[ThreadSummary], exclusion: ExclusionSet, min_messages: int
) -> tuple[list[FilterVerdict], FilterReport]:
    """``filter_corpus`` over thread summaries."""
    candidates = [s for s in summaries if not _in_excluded_directory(s.source_path)]
    dropped = len(summaries) - len(candidates)
    index = {s.id: s.fingerprints for s in candidates}
    postings = _postings(index)
    verdicts = [_classify(s, index, postings, exclusion, min_messages) for s in candidates]
    tally = Counter(v.category for v in verdicts)
    report = FilterReport(
        counts=tuple((cat, tally.get(cat, 0)) for cat in REPORT_ORDER),
        dropped_directories=dropped,
    )
    return verdicts, report
