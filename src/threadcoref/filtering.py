"""Corpus extraction-and-filtering pipeline.

Classifies candidate threads into accept/reject categories and aggregates a
distribution report. Threads from auto-generated maildir folders are
dropped before classification; every remaining thread receives exactly one
verdict under a fixed precedence:

    EXCLUSION_OVERLAP > DUPLICATE > NO_CONTENT > INVALID_ATTACHMENT
    > NON_ENGLISH > TOO_SHORT > ACCEPTED

All detectors are pure functions of thread content; duplicate detection
additionally needs a read-only fingerprint index built over the whole
candidate set in a single pass, and a postings index from each fingerprint
to the threads that hold it, so a thread is checked only against the
holders of its rarest fingerprint. Classification reads a small
``ThreadSummary`` of each thread, so a caller can read threads one at a
time and keep only their summaries.
"""
from __future__ import annotations

import enum
import hashlib
import re
from collections import Counter
from pathlib import PurePath
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

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
        with open(path, encoding="utf-8") as fp, utf8_input(path):
            lines = fp.read().splitlines()
        return cls(frozenset(l.strip() for l in lines if l.strip()))


class FilterConfig(NamedTuple):
    min_messages: int = 4
    hex_min_run: int = 512
    hex_min_fraction: float = 0.95
    stopword_min_fraction: float = 0.02
    language_min_tokens: int = 50
    excluded_directories: frozenset[str] = wordlists.EXCLUDED_DIRECTORIES
    stopwords: frozenset[str] = wordlists.ENGLISH_STOPWORDS


DEFAULT_FILTER_CONFIG = FilterConfig()

_SUBJECT_PREFIX_RE = re.compile(r"^\s*((re|fw|fwd)\s*:\s*)+", re.IGNORECASE)
_WHITESPACE_RE = re.compile(r"\s+")


def _normalized_subject(subject: Optional[str]) -> str:
    if not subject:
        return ""
    return _WHITESPACE_RE.sub(" ", _SUBJECT_PREFIX_RE.sub("", subject)).strip().casefold()


def _message_body(msg: EmailMessage) -> tuple[list[str], str]:
    """The texts of a message's body tokens, and its body text rebuilt from
    them: spaces within a sentence, newlines between."""
    words: list[str] = []
    parts = []
    for sentence in msg.sentences:
        sentence_words = [t.text for t in sentence if t.section is Section.BODY]
        if sentence_words:
            words += sentence_words
            parts.append(" ".join(sentence_words))
    return words, "\n".join(parts)


def _fingerprint(msg: EmailMessage, body: str) -> str:
    date = msg.date.strftime("%Y-%m-%d %H:%M") if msg.date else ""
    sender = (msg.from_addr or "").casefold()
    body = _WHITESPACE_RE.sub(" ", body).strip()
    canonical = "\x1f".join([_normalized_subject(msg.subject), date, sender, body])
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()


def fingerprint_message(msg: EmailMessage) -> str:
    """Stable 64-bit hex fingerprint of a message's canonical content.

    Canonical form: subject with Re:/Fw: prefixes stripped, date truncated
    to minutes, sender lowercased, body text with whitespace collapsed.
    """
    return _fingerprint(msg, _message_body(msg)[1])


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
        own = thread_fingerprints(thread)
    return _is_contained(thread.id, own, corpus_index)


# Message bodies, as _message_body gives them, are what the content checks read.
_Bodies = Sequence[tuple[list[str], str]]


def _bodies(thread: EmailThread) -> list[tuple[list[str], str]]:
    return [_message_body(m) for m in thread.messages]


def _is_no_content(bodies: _Bodies) -> bool:
    empty = sum(1 for words, _ in bodies if not words)
    return empty * 2 > len(bodies)


# maximal runs of characters that an inline hex attachment is made of
_HEX_RUN = re.compile(r"[0-9a-fA-F \n]+")


def _has_hex_attachment(bodies: _Bodies, config: FilterConfig) -> bool:
    for _, body in bodies:
        for run in _HEX_RUN.findall(body):
            if len(run) >= config.hex_min_run:
                digits = len(run) - run.count(" ") - run.count("\n")
                if digits / len(run) >= config.hex_min_fraction:
                    return True
    return False


def _is_non_english(bodies: _Bodies, config: FilterConfig) -> bool:
    tokens = sum(len(words) for words, _ in bodies)
    if tokens < config.language_min_tokens:
        return False
    is_stopword = config.stopwords.__contains__
    hits = sum(sum(map(is_stopword, map(str.casefold, words))) for words, _ in bodies)
    return hits / tokens < config.stopword_min_fraction


def detect_no_content(thread: EmailThread) -> bool:
    """True when strictly more than half of the messages have empty bodies."""
    return _is_no_content(_bodies(thread))


def detect_invalid_attachment(
    thread: EmailThread, config: FilterConfig = DEFAULT_FILTER_CONFIG
) -> bool:
    """True when a message body embeds a long inline-attachment hex blob."""
    return _has_hex_attachment(_bodies(thread), config)


def detect_non_english(
    thread: EmailThread, config: FilterConfig = DEFAULT_FILTER_CONFIG
) -> bool:
    """Stopword-hit language guard; short bodies are never rejected."""
    return _is_non_english(_bodies(thread), config)


def in_excluded_directory(
    thread: EmailThread, config: FilterConfig = DEFAULT_FILTER_CONFIG
) -> bool:
    return _in_excluded_directory(thread.source_path, config)


def _in_excluded_directory(source_path: Optional[str], config: FilterConfig) -> bool:
    if not source_path:
        return False
    parts = PurePath(source_path).parts[:-1]
    return any(p in config.excluded_directories for p in parts)


class FilterReport(NamedTuple):
    """Distribution of verdicts per category, in fixed report order."""

    counts: tuple[tuple[FilterCategory, int], ...] = ()
    dropped_directories: int = 0

    @property
    def total(self) -> int:
        return sum(count for _, count in self.counts)

    def count(self, category: FilterCategory) -> int:
        return dict(self.counts).get(category, 0)


class ThreadSummary(NamedTuple):
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
    """The thread's summary; each message body is rebuilt once, for every check."""
    bodies = _bodies(thread)
    if _is_no_content(bodies):
        content = FilterCategory.NO_CONTENT
    elif _has_hex_attachment(bodies, config):
        content = FilterCategory.INVALID_ATTACHMENT
    elif _is_non_english(bodies, config):
        content = FilterCategory.NON_ENGLISH
    else:
        content = None
    return ThreadSummary(
        id=thread.id,
        source_path=thread.source_path,
        fingerprints=Counter(_fingerprint(m, body) for m, (_, body) in zip(thread.messages, bodies)),
        message_count=len(thread.messages),
        content=content,
    )


def _classify(
    summary: ThreadSummary,
    corpus_index: Mapping[str, Counter],
    postings: Mapping[str, Mapping[str, Counter]],
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
    if _is_contained(summary.id, own, _containers(own, corpus_index, postings)):
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
    postings = _postings(index)
    verdicts = [_classify(s, index, postings, exclusion, config) for s in candidates]
    tally = Counter(v.category for v in verdicts)
    report = FilterReport(
        counts=tuple((cat, tally.get(cat, 0)) for cat in REPORT_ORDER),
        dropped_directories=dropped,
    )
    return verdicts, report
