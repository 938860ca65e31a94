"""Parse raw email-thread text into structured, tokenized messages.

A thread file is a maildir-style plain-text conversation: a header block,
a body, and usually older messages embedded as quoted replies behind
separator lines ("-----Original Message-----", "Forwarded by ...") or fresh
header blocks. All functions here are pure; threads can be parsed
concurrently with no shared state.

``parse_record`` reads a thread in one walk over its lines: the text is
split once, each line's field name and separator flag are computed once,
messages are cut where those flags say, each message's header block is
walked once for both its end and its fields, and each line is tokenized at
its own offset in the thread. It gives the thread's native record, which
``parse`` writes and ``filter`` summarizes, and builds no token;
``parse_thread`` builds the thread from that record through
``serialization.record_to_document``. Per-line section codes exist only
inside the walk. The stage functions ``split_messages``, ``parse_header``
and ``tokenize_and_sentence_split`` are views over the same helpers, for
one thread or one message slice.

The tokenizer is deliberately simple: whitespace split, punctuation peeled
off token edges, contraction suffixes split ("I'll" -> "I", "'ll"), email
addresses kept whole. Sentences break at terminal punctuation in the body
and at line breaks in header/footer sections (each header line is one
sentence). All fixtures shipped with the package are self-consistent with
these rules.
"""
from __future__ import annotations

import re
from datetime import datetime
from functools import lru_cache
from itertools import accumulate, takewhile
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import serialization, wordlists
from .model import EmailThread, Section, Token, ToolkitError


class UnparseableThread(ToolkitError):
    """Raised when raw text contains no recognizable header block."""


class RawThread(NamedTuple):
    """Unparsed thread file contents."""

    id: str
    text: str
    source_path: Optional[str] = None


class ParserConfig(NamedTuple):
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

# a header line starts with its field name and a colon; a line never holds a line break
_FIELD_NAME_RE = re.compile(r"([A-Za-z][A-Za-z0-9-]*)\s*:")

# Fields that prove we are looking at an email header at all.
_KNOWN_FIELDS = frozenset(
    [
        "message-id", "date", "sent", "from", "to", "cc", "bcc", "subject",
        "mime-version", "content-type", "content-transfer-encoding",
        "x-from", "x-to", "x-cc", "x-bcc", "x-folder", "x-origin", "x-filename",
    ]
)

# str.splitlines() ends a line at "\r\n" and at each of these
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"

# the section codes of the native format, which label lines and tokens
_HEADER, _BODY, _FOOTER = Section.HEADER.code, Section.BODY.code, Section.FOOTER.code


@lru_cache(maxsize=16)
def _marker_search(markers: tuple[str, ...]):
    """``search`` of a pattern that finds any of ``markers`` as a substring.

    No markers match nothing; an empty marker matches every string, as
    ``"" in s`` does.
    """
    if not markers:
        return re.compile(r"(?!)").search
    return re.compile("|".join(map(re.escape, markers))).search


def _header_field(line: str) -> Optional[str]:
    """Casefolded field name of a ``Name: value`` line, or None for any other line."""
    m = _FIELD_NAME_RE.match(line)
    return m.group(1).casefold() if m else None


def _line_facts(
    lines: Iterable[str], folded: Iterable[str], config: ParserConfig
) -> tuple[Iterator[Optional[str]], Iterator[Optional[re.Match]]]:
    """What the grammar reads of each line: its ``_header_field``, and its
    separator marker match, None when it holds no separator marker.

    ``folded`` gives the casefolded lines, which the marker searches read.
    Each line is read when it is asked for, so a walk that stops early
    reads no lines past its end.
    """
    return map(_header_field, lines), map(_marker_search(config.separator_markers), folded)


class _Lines(NamedTuple):
    """The lines of a text and what the grammar reads of each line, once."""

    text: list[str]  # each line as str.splitlines() gives it
    offsets: list[int]  # where each line starts, then the length of the text
    folded: list[str]  # each line casefolded
    names: list[Optional[str]]  # each line's _header_field
    separators: list[Optional[re.Match]]  # each line's separator marker match


def _read_lines(text: str, config: ParserConfig) -> _Lines:
    pieces = text.splitlines(keepends=True)
    # a piece holds no line break but the one that ends it, so rstrip removes exactly that
    lines = [piece.rstrip(_LINE_BREAKS) for piece in pieces]
    folded = [line.casefold() for line in lines]
    names, separators = map(list, _line_facts(lines, folded, config))
    return _Lines(lines, [0, *accumulate(map(len, pieces))], folded, names, separators)


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


def _message_starts(raw: RawThread, lines: _Lines) -> list[int]:
    """The first line of each message of a thread, in file order.

    A separator line and a fresh header block open a message, unless the
    running message holds nothing but blank and separator lines (e.g. a
    marker immediately followed by the quoted header it announces). Raises
    UnparseableThread when the text is blank or holds no known header line.
    """
    if not raw.text.strip():
        raise UnparseableThread(f"thread {raw.id}: empty text")
    names = lines.names
    if _KNOWN_FIELDS.isdisjoint(names):
        raise UnparseableThread(f"thread {raw.id}: no header block found")
    starts = [0]
    content = False  # the running message holds a line that is neither blank nor a separator
    for i, (line, name, separator) in enumerate(zip(lines.text, names, lines.separators)):
        if content and (separator or (name == "from" and _starts_fresh_header_block(names, i))):
            starts.append(i)
            content = False
        if not content and not separator and line.strip():
            content = True
    return starts


def _header_walk(
    lines: Sequence[str], names: Iterable[Optional[str]], separators: Iterable[Optional[re.Match]]
) -> tuple[int, dict[str, str]]:
    """The header region of a message's lines: the line it ends before and its fields.

    ``names`` and ``separators`` give each line's ``_line_facts``; the walk
    reads them up to the line that closes the region. The region covers
    leading separator/blank lines, then header lines with their folded
    continuations; the first blank or ordinary line after a header line
    closes it, and without a header line it is empty. A separator line
    inside it adds to no field. A repeated field joins its nonempty values
    with ", ", and a continuation joins the field before it with a space.
    Field names are casefolded.
    """
    end = 0
    fields: dict[str, str] = {}
    current: Optional[str] = None
    leading = True  # no line but separator and blank lines read yet
    for i, (line, name, separator) in enumerate(zip(lines, names, separators)):
        if leading:
            if separator or not line.strip():
                continue
            leading = False
        # past a header line (end > 0), a nonblank line indented by a space or tab continues it
        if name is None and not (end and line[:1] in (" ", "\t") and line.strip()):
            break
        end = i + 1
        if separator:
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


def _sections(count: int, header_end: int, body: Iterable[str], config: ParserConfig) -> list[str]:
    """Section codes of a message's ``count`` lines, whose header region ends before line ``header_end``.

    ``body`` gives the casefolded lines from ``header_end`` on. The first
    of them that holds a footer marker opens the footer region, which runs
    to the end of the message.
    """
    search = _marker_search(config.footer_markers)
    footer_start = header_end
    for line in body:
        if search(line):
            break
        footer_start += 1
    return [_HEADER] * header_end + [_BODY] * (footer_start - header_end) + [_FOOTER] * (count - footer_start)


def split_messages(
    raw: RawThread, config: ParserConfig = DEFAULT_CONFIG
) -> list[tuple[str, int]]:
    """Cut a thread file into per-message slices of (text, char offset).

    Boundaries open at separator-marker lines and at fresh header blocks.
    Slices cover disjoint regions in file order; the first slice starts at
    offset 0. Raises UnparseableThread when the file contains no known
    header line at all.
    """
    lines = _read_lines(raw.text, config)
    bounds = [lines.offsets[i] for i in _message_starts(raw, lines)] + [len(raw.text)]
    return [(raw.text[a:b], a) for a, b in zip(bounds, bounds[1:])]


class HeaderFields(NamedTuple):
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


# the time of a 12-hour clock, as in "Sent: Monday, May 14, 2001 3:10 PM"; group 1 is AM or PM
_MERIDIEM_RE = re.compile(r"\d:\d\d(?::\d\d)?\s*([AaPp][Mm])\b")


# Lotus Notes dates, as in "Date: 05/15/2001 08:55 AM", which email.utils cannot read
_NOTES_DATE_FORMATS = ("%m/%d/%Y %I:%M %p", "%m/%d/%Y %I:%M:%S %p")


def _parse_date(value: str) -> Optional[datetime]:
    """A Date:/Sent: value as a datetime, or None when it is no date.

    email.utils would read an AM or PM after the time as an unknown time
    zone and keep the hour as written, so it is cut out first and applied
    to the hour after: 3:10 PM is 15:10 and 12:05 AM is 00:05. A value that
    email.utils cannot read is tried as a Lotus Notes date, month first.
    """
    # imported here, so that a command that never parses a header never loads email
    from email.utils import parsedate_to_datetime

    meridiem = _MERIDIEM_RE.search(value)
    given = value
    if meridiem:
        value = value[: meridiem.start(1)] + value[meridiem.end(1) :]
    try:
        date = parsedate_to_datetime(value)
    except (TypeError, ValueError):
        for notes_format in _NOTES_DATE_FORMATS:
            try:
                return datetime.strptime(given.strip(), notes_format)
            except ValueError:
                pass
        return None
    if meridiem and 1 <= date.hour <= 12:
        date = date.replace(hour=date.hour % 12 + (12 if meridiem.group(1)[0] in "Pp" else 0))
    return date


def _header_values(fields: dict[str, str]) -> tuple:
    """The message fields, in the order of HeaderFields, that a header block's fields give."""
    date = None
    for key in ("date", "sent"):
        if key in fields:
            date = _parse_date(fields[key])
            if date is not None:
                break

    from_addr = None
    value = fields.get("from")
    if value:
        if "<" in value:
            from email.utils import parseaddr

            from_addr = parseaddr(value)[1] or value.strip()
        else:
            from_addr = value.strip()

    return (
        date,
        from_addr,
        split_address_list(fields.get("to", "")),
        split_address_list(fields.get("cc", "")),
        fields.get("subject") or None,
        fields.get("x-from") or None,
        split_address_list(fields.get("x-to", "")),
        split_address_list(fields.get("x-cc", "")),
    )


def parse_header(message_text: str, config: ParserConfig = DEFAULT_CONFIG) -> HeaderFields:
    """Extract the known header fields from the top of a message slice.

    Unknown header lines are not errors; they simply stay header-section
    tokens. Address lists split per split_address_list; a missing field is
    absent (None or empty tuple), never an empty string.
    """
    lines = message_text.splitlines()
    fields = _header_walk(lines, *_line_facts(lines, map(str.casefold, lines), config))[1]
    return HeaderFields(*_header_values(fields))


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


def _sentences(lines: Sequence[str], offsets: Iterable[int], sections: Sequence) -> list[list[list]]:
    """Sentences of ``lines``, each line tokenized at its offset, as a native
    record holds them: each token a list of its text, its line's entry of
    ``sections`` and its offsets.

    A line whose entry is the body code is body text: a body sentence ends
    after a token of terminal marks and may span lines. Any other line that
    holds a token is one sentence.
    """
    sentences: list[list[list]] = []
    body: list[list] = []  # the open body sentence
    for line, offset, section in zip(lines, offsets, sections):
        toks = _tokenize_line(line, offset)
        if section == _BODY:
            for t, cs, ce in toks:
                body.append([t, section, cs, ce])
                # only a token that ends in a terminal mark can be all terminal marks
                if t[-1] in ".?!" and _TERMINAL_RE.match(t):
                    sentences.append(body)
                    body = []
        else:
            if body:
                sentences.append(body)
                body = []
            if toks:
                sentences.append([[t, section, cs, ce] for t, cs, ce in toks])
    if body:
        sentences.append(body)
    return sentences


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
    terminal-punctuation token and may span lines. Each token goes through
    Token, which raises what it raises.
    """
    pieces = text.splitlines(keepends=True)
    if sections is None:
        sections = [Section.BODY] * len(pieces)
    if len(sections) != len(pieces):
        raise ValueError(
            f"sections length {len(sections)} != line count {len(pieces)}"
        )
    # a body line goes in as the body code; any other entry goes in boxed in a
    # tuple, which is no code, and comes out to Token, which checks it
    labels = [_BODY if section is Section.BODY else (section,) for section in sections]
    # trailing line-break characters make no token, so each piece is tokenized whole
    offsets = accumulate(map(len, pieces[:-1]), initial=base_offset)
    return tuple(
        tuple([
            Token(t, si, ti, message_index, Section.BODY if label == _BODY else label[0], cs, ce)
            for ti, (t, label, cs, ce) in enumerate(sentence)
        ])
        for si, sentence in enumerate(_sentences(pieces, offsets, labels))
    )


def parse_record(raw: RawThread, config: ParserConfig = DEFAULT_CONFIG) -> dict:
    """The native record of a raw thread file, with no chains: what
    ``serialization.write_native`` writes of the thread ``parse_thread``
    gives, made in one walk, with no token built.

    Messages follow file order, which for quoted threads is most recent
    first. Deterministic: parsing the same bytes twice yields equal records.
    """
    lines = _read_lines(raw.text, config)
    starts = _message_starts(raw, lines)
    messages = []
    for start, stop in zip(starts, [*starts[1:], len(lines.text)]):
        text = lines.text[start:stop]
        header_end, fields = _header_walk(text, lines.names[start:stop], lines.separators[start:stop])
        sections = _sections(len(text), header_end, lines.folded[start + header_end : stop], config)
        sentences = _sentences(text, lines.offsets[start:stop], sections)
        messages.append(serialization._message_record(*_header_values(fields), sentences))
    return {"id": raw.id, "source_path": raw.source_path, "messages": messages, "chains": []}


def parse_thread(raw: RawThread, config: ParserConfig = DEFAULT_CONFIG) -> EmailThread:
    """Parse a raw thread file into an EmailThread: the thread of
    ``parse_record``'s record, built by ``serialization.record_to_document``.

    Message indices follow file order. Slices are disjoint and in file
    order, so the record passes every check and its thread is assembled
    without running the constructors' checks.
    """
    return serialization.record_to_document(parse_record(raw, config)).thread
