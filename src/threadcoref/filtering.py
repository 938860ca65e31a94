"""Corpus extraction-and-filtering pipeline.

Classifies candidate threads into accept/reject categories and aggregates a
distribution report. Threads from auto-generated maildir folders are
dropped before classification; every remaining thread receives exactly one
verdict under a fixed precedence:

    EXCLUSION_OVERLAP > DUPLICATE > NO_CONTENT > INVALID_ATTACHMENT
    > NON_ENGLISH > TOO_SHORT > ACCEPTED

All detectors are pure functions of thread content; duplicate detection
additionally needs a read-only fingerprint index built over the whole
candidate set in a single pass. Classification reads a small
``ThreadSummary`` of each thread, so a caller can read threads one at a
time and keep only their summaries.
"""
from __future__ import annotations

import enum
import hashlib
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import PurePath
from typing import Iterable, Mapping, Optional, Sequence

from . import wordlists
from .model import EmailMessage, EmailThread, Section, utf8_input


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


@dataclass(frozen=True)
class FilterVerdict:
    thread_id: str
    category: FilterCategory
    detail: str = ""


@dataclass(frozen=True)
class ExclusionSet:
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
        with open(path, encoding="utf-8") as fp, utf8_input(path):
            lines = fp.read().splitlines()
        return cls(frozenset(l.strip() for l in lines if l.strip()))


@dataclass(frozen=True)
class FilterConfig:
    min_messages: int = 4
    hex_min_run: int = 512
    hex_min_fraction: float = 0.95
    stopword_min_fraction: float = 0.02
    language_min_tokens: int = 50
    excluded_directories: frozenset[str] = wordlists.EXCLUDED_DIRECTORIES
    stopwords: frozenset[str] = wordlists.ENGLISH_STOPWORDS


DEFAULT_FILTER_CONFIG = FilterConfig()

_SUBJECT_PREFIX_RE = re.compile(r"^\s*((re|fw|fwd)\s*:\s*)+", re.IGNORECASE)


def _normalized_subject(subject: Optional[str]) -> str:
    if not subject:
        return ""
    return re.sub(r"\s+", " ", _SUBJECT_PREFIX_RE.sub("", subject)).strip().casefold()


def _body_text(msg: EmailMessage) -> str:
    """Body reconstructed from tokens: spaces within a sentence, newlines between."""
    parts = []
    for sentence in msg.sentences:
        words = [t.text for t in sentence if t.section is Section.BODY]
        if words:
            parts.append(" ".join(words))
    return "\n".join(parts)


def fingerprint_message(msg: EmailMessage) -> str:
    """Stable 64-bit hex fingerprint of a message's canonical content.

    Canonical form: subject with Re:/Fw: prefixes stripped, date truncated
    to minutes, sender lowercased, body text with whitespace collapsed.
    """
    date = msg.date.strftime("%Y-%m-%d %H:%M") if msg.date else ""
    sender = (msg.from_addr or "").casefold()
    body = re.sub(r"\s+", " ", _body_text(msg)).strip()
    canonical = "\x1f".join([_normalized_subject(msg.subject), date, sender, body])
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()


def thread_fingerprints(thread: EmailThread) -> Counter:
    return Counter(fingerprint_message(m) for m in thread.messages)


def build_corpus_index(threads: Iterable[EmailThread]) -> dict[str, Counter]:
    """Fingerprint multiset per thread id, for duplicate detection."""
    return {t.id: thread_fingerprints(t) for t in threads}


def is_valid_length(
    thread: EmailThread, config: FilterConfig = DEFAULT_FILTER_CONFIG
) -> bool:
    return len(thread.messages) >= config.min_messages


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
        own = thread_fingerprints(thread)
    return _is_contained(thread.id, own, corpus_index)


def detect_no_content(thread: EmailThread) -> bool:
    """True when strictly more than half of the messages have empty bodies."""
    if not thread.messages:
        return False
    empty = sum(1 for m in thread.messages if not any(m.body_tokens()))
    return empty * 2 > len(thread.messages)


# maximal runs of characters that an inline hex attachment is made of
_HEX_RUN = re.compile(r"[0-9a-fA-F \n]+")


def detect_invalid_attachment(
    thread: EmailThread, config: FilterConfig = DEFAULT_FILTER_CONFIG
) -> bool:
    """True when a message body embeds a long inline-attachment hex blob."""
    for msg in thread.messages:
        for run in _HEX_RUN.findall(_body_text(msg)):
            if len(run) >= config.hex_min_run:
                digits = len(run) - run.count(" ") - run.count("\n")
                if digits / len(run) >= config.hex_min_fraction:
                    return True
    return False


def detect_non_english(
    thread: EmailThread, config: FilterConfig = DEFAULT_FILTER_CONFIG
) -> bool:
    """Stopword-hit language guard; short bodies are never rejected."""
    tokens = [t for m in thread.messages for t in m.body_tokens()]
    if len(tokens) < config.language_min_tokens:
        return False
    hits = sum(1 for t in tokens if t.text.casefold() in config.stopwords)
    return hits / len(tokens) < config.stopword_min_fraction


def in_excluded_directory(
    thread: EmailThread, config: FilterConfig = DEFAULT_FILTER_CONFIG
) -> bool:
    return _in_excluded_directory(thread.source_path, config)


def _in_excluded_directory(source_path: Optional[str], config: FilterConfig) -> bool:
    if not source_path:
        return False
    parts = PurePath(source_path).parts[:-1]
    return any(p in config.excluded_directories for p in parts)


@dataclass(frozen=True)
class FilterReport:
    """Distribution of verdicts per category, in fixed report order."""

    counts: tuple[tuple[FilterCategory, int], ...] = ()
    dropped_directories: int = 0

    @property
    def total(self) -> int:
        return sum(count for _, count in self.counts)

    def count(self, category: FilterCategory) -> int:
        return dict(self.counts).get(category, 0)


@dataclass(frozen=True)
class ThreadSummary:
    """What classification needs of one thread, so the thread itself can go.

    ``content`` is the first of the content checks (no content, inline
    attachment, non-English, in precedence order) that rejects the thread,
    or None; it depends on the ``FilterConfig`` the summary was made with.
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


def summarize_thread(
    thread: EmailThread, config: FilterConfig = DEFAULT_FILTER_CONFIG
) -> ThreadSummary:
    if detect_no_content(thread):
        content = FilterCategory.NO_CONTENT
    elif detect_invalid_attachment(thread, config):
        content = FilterCategory.INVALID_ATTACHMENT
    elif detect_non_english(thread, config):
        content = FilterCategory.NON_ENGLISH
    else:
        content = None
    return ThreadSummary(
        id=thread.id,
        source_path=thread.source_path,
        fingerprints=thread_fingerprints(thread),
        message_count=len(thread.messages),
        content=content,
    )


def _classify(
    summary: ThreadSummary,
    corpus_index: Mapping[str, Counter],
    exclusion: ExclusionSet,
    config: FilterConfig,
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
    if _is_contained(summary.id, own, corpus_index):
        return FilterVerdict(summary.id, FilterCategory.DUPLICATE, "contained in another thread")
    if summary.content is not None:
        return FilterVerdict(summary.id, summary.content, _CONTENT_DETAILS[summary.content])
    if summary.message_count < config.min_messages:
        return FilterVerdict(
            summary.id,
            FilterCategory.TOO_SHORT,
            f"{summary.message_count} message(s), need {config.min_messages}",
        )
    return FilterVerdict(summary.id, FilterCategory.ACCEPTED, "")


def filter_corpus(
    threads: Sequence[EmailThread],
    exclusion: ExclusionSet = ExclusionSet(),
    config: FilterConfig = DEFAULT_FILTER_CONFIG,
) -> tuple[list[FilterVerdict], FilterReport]:
    """Classify every candidate thread; verdicts partition the candidate set.

    Threads stored under excluded directories are dropped before
    classification and appear only in the report's dropped count.
    """
    return filter_summaries([summarize_thread(t, config) for t in threads], exclusion, config)


def filter_summaries(
    summaries: Sequence[ThreadSummary],
    exclusion: ExclusionSet = ExclusionSet(),
    config: FilterConfig = DEFAULT_FILTER_CONFIG,
) -> tuple[list[FilterVerdict], FilterReport]:
    """``filter_corpus`` over thread summaries made with the same ``config``."""
    candidates = [s for s in summaries if not _in_excluded_directory(s.source_path, config)]
    dropped = len(summaries) - len(candidates)
    index = {s.id: s.fingerprints for s in candidates}
    verdicts = [_classify(s, index, exclusion, config) for s in candidates]
    tally = Counter(v.category for v in verdicts)
    report = FilterReport(
        counts=tuple((cat, tally.get(cat, 0)) for cat in REPORT_ORDER),
        dropped_directories=dropped,
    )
    return verdicts, report
