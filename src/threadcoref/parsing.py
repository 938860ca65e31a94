"""Parse raw email-thread text into structured, tokenized messages.

A thread file is a maildir-style plain-text conversation: a header block,
a body, and usually older messages embedded as quoted replies behind
separator lines ("-----Original Message-----", "Forwarded by ...") or fresh
header blocks. All functions here are pure; threads can be parsed
concurrently with no shared state.

The tokenizer is deliberately simple: whitespace split, punctuation peeled
off token edges, contraction suffixes split ("I'll" -> "I", "'ll"), email
addresses kept whole. Sentences break at terminal punctuation in the body
and at line breaks in header/footer sections (each header line is one
sentence). All fixtures shipped with the package are self-consistent with
these rules.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime
from email.utils import parsedate_to_datetime, parseaddr
from functools import lru_cache
from itertools import takewhile
from pathlib import Path
from typing import Optional, Sequence

from . import wordlists
from .model import EmailThread, Section, Token, ToolkitError, _assemble_thread, _intern, _tuple_new


class UnparseableThread(ToolkitError):
    """Raised when raw text contains no recognizable header block."""


@dataclass(frozen=True)
class RawThread:
    """Unparsed thread file contents."""

    id: str
    text: str
    source_path: Optional[str] = None


@dataclass(frozen=True)
class ParserConfig:
    """Marker phrases controlling message splitting and footer detection."""

    separator_markers: tuple[str, ...] = wordlists.SEPARATOR_MARKERS
    footer_markers: tuple[str, ...] = wordlists.FOOTER_MARKERS

    @classmethod
    def from_files(
        cls,
        separators: str | Path | None = None,
        footers: str | Path | None = None,
    ) -> "ParserConfig":
        return cls(
            separator_markers=(
                wordlists.load_phrase_file(separators)
                if separators
                else wordlists.SEPARATOR_MARKERS
            ),
            footer_markers=(
                wordlists.load_phrase_file(footers)
                if footers
                else wordlists.FOOTER_MARKERS
            ),
        )


DEFAULT_CONFIG = ParserConfig()

_HEADER_LINE_RE = re.compile(r"^([A-Za-z][A-Za-z0-9-]*)\s*:\s?(.*)$")

# Fields that prove we are looking at an email header at all.
_KNOWN_FIELDS = frozenset(
    [
        "message-id", "date", "sent", "from", "to", "cc", "bcc", "subject",
        "mime-version", "content-type", "content-transfer-encoding",
        "x-from", "x-to", "x-cc", "x-bcc", "x-folder", "x-origin", "x-filename",
    ]
)

SENDER_FIELDS = frozenset(["from", "x-from"])
RECIPIENT_FIELDS = frozenset(["to", "cc", "bcc", "x-to", "x-cc", "x-bcc"])


def _lines_with_offsets(text: str) -> list[tuple[str, int]]:
    lines = []
    offset = 0
    for raw in text.splitlines(keepends=True):
        line = raw.rstrip("\r\n")
        lines.append((line, offset))
        offset += len(raw)
    return lines


@lru_cache(maxsize=16)
def _marker_search(markers: tuple[str, ...]):
    """``search`` of a pattern that finds any of ``markers`` as a substring.

    No markers match nothing; an empty marker matches every string, as
    ``"" in s`` does.
    """
    if not markers:
        return re.compile(r"(?!)").search
    return re.compile("|".join(map(re.escape, markers))).search


def _is_separator(line: str, config: ParserConfig) -> bool:
    return _marker_search(config.separator_markers)(line.casefold()) is not None


def _header_field(line: str) -> Optional[str]:
    """Casefolded field name of a ``Name: value`` line, or None for any other line."""
    m = _HEADER_LINE_RE.match(line)
    return m.group(1).casefold() if m else None


def _starts_fresh_header_block(names: Sequence[Optional[str]], i: int) -> bool:
    """A From: line opening a header run with Date:/Sent: and Subject: in it.

    ``names`` holds the ``_header_field`` of each line. The run is the
    consecutive stretch of header lines starting at i, capped at 10 lines; it
    never extends past prose, blank lines, or separators, so a later
    message's headers cannot satisfy the check for an earlier line.
    """
    if names[i] != "from":
        return False
    run = set(takewhile(lambda name: name is not None, names[i : i + 10]))
    return ("date" in run or "sent" in run) and "subject" in run


def split_messages(
    raw: RawThread, config: ParserConfig = DEFAULT_CONFIG
) -> list[tuple[str, int]]:
    """Cut a thread file into per-message slices of (text, char offset).

    Boundaries open at separator-marker lines and at fresh header blocks.
    Slices cover disjoint regions in file order; the first slice starts at
    offset 0. Raises UnparseableThread when the file contains no known
    header line at all.
    """
    if not raw.text.strip():
        raise UnparseableThread(f"thread {raw.id}: empty text")
    lines = _lines_with_offsets(raw.text)
    texts = [l for l, _ in lines]
    names = [_header_field(l) for l in texts]
    if _KNOWN_FIELDS.isdisjoint(names):
        raise UnparseableThread(f"thread {raw.id}: no header block found")

    boundaries = [0]
    for i in range(1, len(texts)):
        line = texts[i]
        is_boundary = _is_separator(line, config) or _starts_fresh_header_block(names, i)
        if not is_boundary:
            continue
        # Suppress a split when the running segment holds nothing but its
        # own separator/blank lines (e.g. a marker immediately followed by
        # the quoted header it announces).
        segment = texts[boundaries[-1] : i]
        if all(not l.strip() or _is_separator(l, config) for l in segment):
            continue
        boundaries.append(i)

    slices = []
    for k, start_line in enumerate(boundaries):
        end_line = boundaries[k + 1] if k + 1 < len(boundaries) else len(lines)
        start_char = lines[start_line][1]
        end_char = (
            lines[end_line][1] if end_line < len(lines) else len(raw.text)
        )
        slices.append((raw.text[start_char:end_char], start_char))
    return slices


@dataclass(frozen=True)
class HeaderFields:
    """Best-effort header extraction; absent fields stay None/empty."""

    date: Optional[datetime] = None
    from_addr: Optional[str] = None
    to_addrs: tuple[str, ...] = ()
    cc_addrs: tuple[str, ...] = ()
    subject: Optional[str] = None
    x_from: Optional[str] = None
    x_to: tuple[str, ...] = ()
    x_cc: tuple[str, ...] = ()


def split_address_list(value: str) -> tuple[str, ...]:
    """Split a recipient header value on commas/semicolons.

    Semicolons always separate. A comma separates unless the accumulated
    item has no "@" and the text after the comma starts with an uppercase
    letter: that pattern is a "Last, First" display name, not a list break.
    Quoted stretches are never split.
    """
    items: list[str] = []
    buf: list[str] = []
    in_quotes = False

    def flush() -> None:
        item = "".join(buf).replace('"', "").strip()
        if item:
            items.append(item)
        buf.clear()

    for i, ch in enumerate(value):
        if ch == '"':
            in_quotes = not in_quotes
            buf.append(ch)
        elif ch == ";" and not in_quotes:
            flush()
        elif ch == "," and not in_quotes:
            current = "".join(buf)
            rest = value[i + 1 :].lstrip()
            if "@" in current or not rest[:1].isupper():
                flush()
            else:
                buf.append(ch)
        else:
            buf.append(ch)
    flush()
    return tuple(items)


def _header_block(lines: Sequence[str], config: ParserConfig) -> tuple[int, dict[str, str]]:
    """The leading header region of a message slice: its end and its fields.

    The region covers leading separator/blank lines, then header lines with
    their folded continuations; the first blank or ordinary line after a
    header line closes it, and without a header line it is empty. A
    separator line inside it adds to no field. A repeated field joins its
    nonempty values with ", ", and a continuation joins the field before it
    with a space. Field names are casefolded.
    """
    start = 0
    n = len(lines)
    while start < n and (not lines[start].strip() or _is_separator(lines[start], config)):
        start += 1
    end = 0
    fields: dict[str, str] = {}
    current: Optional[str] = None
    for i in range(start, n):
        line = lines[i]
        name = _header_field(line)
        # past a header line (end > 0), a nonblank line indented by a space or tab continues it
        if name is None and not (end and line[:1] in (" ", "\t") and line.strip()):
            break
        end = i + 1
        if _is_separator(line, config):
            continue
        if name is None:
            if current:
                fields[current] = f"{fields[current]} {line.strip()}".strip()
            continue
        current = name
        value = line.partition(":")[2].strip()
        if name not in fields:
            fields[name] = value
        elif value:
            fields[name] = f"{fields[name]}, {value}"
    return end, fields


def _footer_region_start(
    lines: Sequence[str], header_end: int, config: ParserConfig
) -> int:
    search = _marker_search(config.footer_markers)
    for j in range(header_end, len(lines)):
        if search(lines[j].casefold()):
            return j
    return len(lines)


def assign_sections(
    message_text: str, config: ParserConfig = DEFAULT_CONFIG
) -> list[Section]:
    """Per-line section labels for one message slice.

    Tokens inherit the label of their line, so per-message labels always
    follow the pattern HEADER* BODY* FOOTER*.
    """
    lines = message_text.splitlines()
    header_end, _ = _header_block(lines, config)
    footer_start = _footer_region_start(lines, header_end, config)
    return (
        [Section.HEADER] * header_end
        + [Section.BODY] * (footer_start - header_end)
        + [Section.FOOTER] * (len(lines) - footer_start)
    )


def parse_header(message_text: str, config: ParserConfig = DEFAULT_CONFIG) -> HeaderFields:
    """Extract the known header fields from the top of a message slice.

    Unknown header lines are not errors; they simply stay header-section
    tokens. Address lists split per split_address_list; a missing field is
    absent (None or empty tuple), never an empty string.
    """
    _, fields = _header_block(message_text.splitlines(), config)

    date = None
    for key in ("date", "sent"):
        if key in fields:
            try:
                date = parsedate_to_datetime(fields[key])
                break
            except (TypeError, ValueError):
                continue

    from_addr = None
    if "from" in fields and fields["from"]:
        value = fields["from"]
        if "<" in value:
            _, addr = parseaddr(value)
            from_addr = addr or value.strip()
        else:
            from_addr = value.strip()

    return HeaderFields(
        date=date,
        from_addr=from_addr,
        to_addrs=split_address_list(fields.get("to", "")),
        cc_addrs=split_address_list(fields.get("cc", "")),
        subject=fields.get("subject") or None,
        x_from=fields.get("x-from") or None,
        x_to=split_address_list(fields.get("x-to", "")),
        x_cc=split_address_list(fields.get("x-cc", "")),
    )


_LEADING_PUNCT = set("([{<\"“”‘’`")
_TRAILING_PUNCT = set(")]}>\"“”‘’`,;:!?'")
_CONTRACTIONS = ("'ll", "'ve", "'re", "'m", "'d", "'s", "n't")
_CONTRACTION_RE = re.compile(r"^(.+?)(n't|'ll|'ve|'re|'m|'d|'s)$", re.IGNORECASE)
_TERMINAL_RE = re.compile(r"^[.?!]+$")
# A chunk of none of the characters _split_chunk acts on is one token, and
# such a chunk with one trailing mark of _END_MARKS is two; group 1 is the
# word and group 2 the mark. Any other chunk matches only the last branch.
_END_MARKS = ".,;:!?"
_SPECIAL = "".join(sorted(_LEADING_PUNCT | _TRAILING_PUNCT | {"'", ".", "@"}))
_CHUNK_RE = re.compile(rf"([^\s{re.escape(_SPECIAL)}]+)([{re.escape(_END_MARKS)}]?)(?!\S)|\S+")


def _split_chunk(chunk: str, start: int) -> list[tuple[str, int, int]]:
    """Split one whitespace-delimited chunk into (text, char_start, char_end)."""
    out: list[tuple[str, int, int]] = []
    # leading punctuation, except apostrophes that open a contraction token
    while chunk:
        ch = chunk[0]
        if ch in _LEADING_PUNCT or (
            ch == "'" and not chunk.casefold().startswith(_CONTRACTIONS)
        ):
            out.append((ch, start, start + 1))
            chunk = chunk[1:]
            start += 1
        else:
            break
    trailing: list[tuple[str, int, int]] = []
    while chunk:
        ch = chunk[-1]
        if ch in _TRAILING_PUNCT or (ch == "." and len(chunk) > 1):
            end = start + len(chunk)
            trailing.append((ch, end - 1, end))
            chunk = chunk[:-1]
        else:
            break
    if chunk:
        if "@" in chunk or chunk.casefold() in _CONTRACTIONS:
            out.append((chunk, start, start + len(chunk)))
        else:
            m = _CONTRACTION_RE.match(chunk)
            if m and "'" not in m.group(1):
                stem, suffix = m.group(1), m.group(2)
                out.append((stem, start, start + len(stem)))
                out.append((suffix, start + len(stem), start + len(chunk)))
            else:
                out.append((chunk, start, start + len(chunk)))
    out.extend(reversed(trailing))
    return out


def _tokenize_line(line: str, line_offset: int) -> list[tuple[str, int, int]]:
    toks: list[tuple[str, int, int]] = []
    append = toks.append
    for m in _CHUNK_RE.finditer(line):
        word, mark = m.groups()
        start = line_offset + m.start()
        if word is None:
            toks.extend(_split_chunk(m.group(), start))
            continue
        end = start + len(word)
        append((word, start, end))
        if mark:
            append((mark, end, end + 1))
    return toks


def tokenize_and_sentence_split(
    text: str,
    *,
    sections: Optional[Sequence[Section]] = None,
    message_index: int = 0,
    base_offset: int = 0,
) -> tuple[tuple[Token, ...], ...]:
    """Tokenize one message slice into sentences of Tokens.

    ``sections`` gives one Section per line (defaults to all BODY). Header
    and footer lines become one sentence each; body sentences break after a
    terminal-punctuation token and may span lines.
    """
    lines = _lines_with_offsets(text)
    if sections is None:
        sections = [Section.BODY] * len(lines)
    if len(sections) != len(lines):
        raise ValueError(
            f"sections length {len(sections)} != line count {len(lines)}"
        )

    raw_sentences: list[tuple[Section, list[tuple[str, int, int]]]] = []
    body_current: list[tuple[str, int, int]] = []

    def flush_body() -> None:
        if body_current:
            raw_sentences.append((Section.BODY, list(body_current)))
            body_current.clear()

    for (line, offset), section in zip(lines, sections):
        toks = _tokenize_line(line, base_offset + offset)
        if section is Section.BODY:
            for tok in toks:
                body_current.append(tok)
                # only a token that ends in a terminal mark can be all terminal marks
                if tok[0][-1] in ".?!" and _TERMINAL_RE.match(tok[0]):
                    flush_body()
        else:
            flush_body()
            if toks:
                raw_sentences.append((section, toks))
    flush_body()

    # texts are nonempty strings, indices count from 0 and offsets rise, so
    # with these argument types every Token check holds and each token is
    # built directly; any other argument goes through Token and its checks
    direct = (
        type(message_index) is int
        and message_index >= 0
        and type(base_offset) is int
        and base_offset >= 0
        and all(isinstance(section, Section) for section in sections)
    )
    # sentences from lists: tuple() of a generator resizes a 10-slot tuple, so a freed
    # sentence would fill another size's free list, which only a full collection empties
    return tuple(
        tuple([
            _tuple_new(Token, (_intern(t), si, ti, message_index, section, cs, ce))
            if direct
            else Token(t, si, ti, message_index, section, cs, ce)
            for ti, (t, cs, ce) in enumerate(toks)
        ])
        for si, (section, toks) in enumerate(raw_sentences)
    )


def parse_thread(raw: RawThread, config: ParserConfig = DEFAULT_CONFIG) -> EmailThread:
    """Parse a raw thread file into an EmailThread.

    Message indices follow file order, which for quoted threads is most
    recent first. Deterministic: parsing the same bytes twice yields
    structurally equal threads. Slices are disjoint and in file order, so the
    thread holds every invariant the constructors check and is assembled
    without running them again.
    """
    messages = []
    for i, (text, offset) in enumerate(split_messages(raw, config)):
        sentences = tokenize_and_sentence_split(
            text,
            sections=assign_sections(text, config),
            message_index=i,
            base_offset=offset,
        )
        messages.append({**vars(parse_header(text, config)), "index": i, "sentences": sentences})
    return _assemble_thread(raw.id, messages, raw.source_path)


def header_field_of_sentence(sentence: Sequence[Token]) -> Optional[str]:
    """Casefolded header field name of a header-line sentence, if any.

    A header sentence tokenizes as NAME ":" VALUE...; returns NAME when the
    sentence is a header line, else None.
    """
    if len(sentence) >= 2 and sentence[0].section is Section.HEADER and sentence[1].text == ":":
        return sentence[0].text.casefold()
    return None
