"""Read/write the CoNLL coreference column format and the native JSONL format.

The CoNLL writer flattens a thread's tokens in document order and encodes
mentions in the last column with "(id" / "id)" / "(id)" entries, pipe
separated, exactly as coreference scorers expect. The reader is its
inverse: it rebuilds tokens and chains (a single-message skeleton; header
structure is not representable in the column format).

The native format keeps everything: one JSON record per line per thread,
losslessly round-tripping headers, sections, offsets, chains and entity
types, and streamable over large corpora.
"""
from __future__ import annotations

import json
from datetime import datetime
from typing import IO, Iterable, Iterator, Optional, Sequence

from .model import (
    AnnotatedDocument,
    CoreferenceChain,
    EmailThread,
    EntityType,
    Mention,
    Section,
    Token,
    ToolkitError,
    _assemble_thread,
    _intern,
    _overlap_message,
    _tuple_new,
    mention_order,
    utf8_input,
)


class MalformedColumn(ToolkitError):
    """A CoNLL coreference column could not be parsed."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class OverlappingIdenticalSpan(ToolkitError):
    """Two chains claim the identical token span (invalid document)."""


class NativeSchemaError(ToolkitError):
    """A native record violates the expected schema at JSON ``path``, on line ``line_number`` if known."""

    def __init__(self, path: str, message: str, line_number: Optional[int] = None):
        where = f"{path}: " if line_number is None else f"line {line_number}: {path}: "
        super().__init__(where + message)
        self.path = path
        self.message = message
        self.line_number = line_number

    def __reduce__(self):
        # rebuilt from every field, so the error survives a worker process
        return type(self), (self.path, self.message, self.line_number)


# ---------------------------------------------------------------------------
# Addressing helpers
# ---------------------------------------------------------------------------

def global_sentences(thread: EmailThread) -> list[tuple[int, int, tuple[Token, ...]]]:
    """Sentences in thread order as (message_index, sentence_index, tokens)."""
    out = []
    for msg in thread.messages:
        for si, sentence in enumerate(msg.sentences):
            out.append((msg.index, si, sentence))
    return out


def mention_to_absolute(thread: EmailThread, mention: Mention) -> tuple[int, int]:
    """Inclusive absolute token indices of a mention in the flattened stream."""
    base = 0
    for mi, si, sentence in global_sentences(thread):
        if (mi, si) == (mention.message_index, mention.sentence_index):
            return base + mention.start_token, base + mention.end_token
        base += len(sentence)
    raise ValueError(f"mention {mention.location} addresses no sentence in thread")


def mention_from_absolute(
    thread: EmailThread, start: int, end: int, entity_type: Optional[EntityType] = None
) -> Mention:
    """Inverse of mention_to_absolute; the span must stay inside one sentence."""
    base = 0
    for mi, si, sentence in global_sentences(thread):
        if start < base + len(sentence):
            if end >= base + len(sentence) or start < base:
                raise ValueError(
                    f"absolute span [{start}, {end}] crosses a sentence boundary"
                )
            return Mention(mi, si, start - base, end - base, entity_type)
        base += len(sentence)
    raise ValueError(f"absolute span [{start}, {end}] exceeds document length")


# ---------------------------------------------------------------------------
# CoNLL column format
# ---------------------------------------------------------------------------

def write_conll(doc: AnnotatedDocument) -> str:
    """Serialize one document to CoNLL coreference columns."""
    sentences = global_sentences(doc.thread)
    sent_pos = {(mi, si): g for g, (mi, si, _) in enumerate(sentences)}

    starts: dict[tuple[int, int], list[tuple[int, int]]] = {}
    ends: dict[tuple[int, int], list[tuple[int, int]]] = {}
    singles: dict[tuple[int, int], list[int]] = {}
    seen_spans: dict[tuple, int] = {}
    for chain in doc.chains:
        for m in chain.mentions:
            span = m.location
            if span in seen_spans:
                raise OverlappingIdenticalSpan(
                    f"span {span} claimed by chains {seen_spans[span]} and {chain.chain_id}"
                )
            seen_spans[span] = chain.chain_id
            g = sent_pos.get((m.message_index, m.sentence_index))
            if g is None:
                raise ValueError(f"mention {span} addresses no sentence")
            if m.start_token == m.end_token:
                singles.setdefault((g, m.start_token), []).append(chain.chain_id)
            else:
                starts.setdefault((g, m.start_token), []).append((m.end_token, chain.chain_id))
                ends.setdefault((g, m.end_token), []).append((m.start_token, chain.chain_id))

    lines = [f"#begin document ({doc.thread.id}); part 000"]
    for g, (_, _, sentence) in enumerate(sentences):
        for ti, token in enumerate(sentence):
            entries = []
            for end_tok, cid in sorted(starts.get((g, ti), []), key=lambda x: (-x[0], x[1])):
                entries.append(f"({cid}")
            for cid in sorted(singles.get((g, ti), [])):
                entries.append(f"({cid})")
            for start_tok, cid in sorted(ends.get((g, ti), []), key=lambda x: (-x[0], x[1])):
                entries.append(f"{cid})")
            coref = "|".join(entries) if entries else "-"
            lines.append(f"{doc.thread.id}\t0\t{ti}\t{token.text}\t{coref}")
        lines.append("")
    lines.append("#end document")
    return "\n".join(lines) + "\n"


def write_conll_documents(docs: Iterable[AnnotatedDocument]) -> str:
    return "".join(write_conll(doc) for doc in docs)


def _skeleton_document(
    doc_id: str, sentences: list[list[str]], chains: dict[int, list[tuple[int, int, int]]]
) -> AnnotatedDocument:
    # indices, nonempty words and rising offsets hold by construction, so
    # each token is built without Token's checks
    offset = 0
    body = Section.BODY
    token_sentences = []
    for si, words in enumerate(sentences):
        toks = []
        for ti, word in enumerate(words):
            end = offset + len(word)
            toks.append(_tuple_new(Token, (_intern(word), si, ti, 0, body, offset, end)))
            offset = end + 1
        token_sentences.append(tuple(toks))
    return _chains_document(doc_id, [{"index": 0, "sentences": tuple(token_sentences)}], chains)


def _chains_document(
    doc_id: str, messages: list, chains: dict[int, list[tuple[int, int, int]]]
) -> AnnotatedDocument:
    chain_objs = tuple(
        CoreferenceChain(
            chain_id=cid,
            mentions=tuple(
                sorted(
                    (Mention(0, s, start, end) for (s, start, end) in spans),
                    key=mention_order,
                )
            ),
        )
        for cid, spans in sorted(chains.items())
    )
    return AnnotatedDocument(thread=_assemble_thread(doc_id, messages), chains=chain_objs)


def read_conll_documents(text: str) -> list[AnnotatedDocument]:
    """Parse CoNLL column text into document skeletons (tokens + chains)."""
    return list(iter_conll_documents(text.splitlines()))


def iter_conll(path, *, thread: bool = True) -> Iterator[AnnotatedDocument]:
    """Read a CoNLL column file one document at a time, in file order.

    Lines split as ``str.splitlines`` splits the whole text, so a file reads
    as ``read_conll_documents`` reads its text.
    """
    with open(path, encoding="utf-8") as fp, utf8_input(path):
        yield from stream_conll_documents(fp, thread=thread)


def stream_conll_documents(fp: Iterable[str], *, thread: bool = True) -> Iterator[AnnotatedDocument]:
    """The documents of an open CoNLL text file, read from its lines as ``iter_conll`` reads them."""
    # each "\n"-ended piece splits exactly as it does inside the whole text
    return iter_conll_documents((line for chunk in fp for line in chunk.splitlines()), thread=thread)


def iter_conll_documents(lines: Iterable[str], *, thread: bool = True) -> Iterator[AnnotatedDocument]:
    """Parse CoNLL column lines, yielding each document at its ``#end document``.

    Every line is checked either way; with ``thread`` false no token is built,
    and each document's thread holds no message. A span that a document
    holds twice, in one chain or in two, is an error at the line that closes
    its second copy.
    """
    doc_id: Optional[str] = None
    sentences: list[list[str]] = []
    current: list[str] = []
    owners: dict[tuple[int, int, int], int] = {}
    open_spans: dict[int, list[tuple[int, int]]] = {}
    line_no = 0

    def close_sentence() -> None:
        if current:
            sentences.append(list(current))
            current.clear()

    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if stripped.startswith("#begin document"):
            if doc_id is not None:
                raise MalformedColumn(line_no, "nested #begin document")
            try:
                doc_id = stripped.split("(", 1)[1].split(")", 1)[0]
            except IndexError:
                raise MalformedColumn(line_no, "malformed #begin document line") from None
            sentences, current, owners, open_spans = [], [], {}, {}
            continue
        if stripped.startswith("#end document"):
            if doc_id is None:
                raise MalformedColumn(line_no, "#end document without #begin")
            close_sentence()
            if any(stack for stack in open_spans.values()):
                open_ids = sorted(cid for cid, stack in open_spans.items() if stack)
                raise MalformedColumn(line_no, f"unclosed span(s) for chain(s) {open_ids}")
            chains: dict[int, list[tuple[int, int, int]]] = {}
            for span, cid in owners.items():
                chains.setdefault(cid, []).append(span)
            if thread:
                yield _skeleton_document(doc_id, sentences, chains)
            else:
                yield _chains_document(doc_id, [], chains)
            doc_id = None
            continue
        if stripped.startswith("#"):
            continue
        if not stripped:
            close_sentence()
            continue
        if doc_id is None:
            raise MalformedColumn(line_no, "token row outside a document")
        cols = stripped.split()
        if len(cols) < 5:
            raise MalformedColumn(line_no, f"expected >= 5 columns, got {len(cols)}")
        word = cols[3]
        coref = cols[-1]
        sent_index = len(sentences)
        tok_index = len(current)
        current.append(word)
        if coref == "-" or coref == "_":
            continue
        for entry in coref.split("|"):
            opens = entry.startswith("(")
            closes = entry.endswith(")")
            cid_text = entry[opens : len(entry) - closes]
            # int() also reads non-ASCII digits, and str.isdigit() passes some it cannot read
            if not (opens or closes) or not (cid_text.isdigit() and cid_text.isascii()):
                raise MalformedColumn(line_no, f"bad coref entry {entry!r}")
            cid = int(cid_text)
            if not closes:
                open_spans.setdefault(cid, []).append((sent_index, tok_index))
                continue
            if opens:
                span = (sent_index, tok_index, tok_index)
            else:
                stack = open_spans.get(cid)
                if not stack:
                    raise MalformedColumn(line_no, f"closing unopened span for chain {cid}")
                open_sent, open_tok = stack.pop()
                if open_sent != sent_index:
                    raise MalformedColumn(
                        line_no, f"span for chain {cid} crosses a sentence boundary"
                    )
                span = (sent_index, open_tok, tok_index)
            if span in owners:
                raise MalformedColumn(
                    line_no,
                    f"chain {cid}: span at sentence {span[0]}, tokens {span[1]}-{span[2]} "
                    f"is already in chain {owners[span]}",
                )
            owners[span] = cid
    if doc_id is not None:
        # line_no is now the number of lines
        raise MalformedColumn(line_no, "missing #end document")


def read_conll(text: str) -> AnnotatedDocument:
    """Parse column text that holds exactly one document."""
    docs = read_conll_documents(text)
    if len(docs) != 1:
        raise MalformedColumn(0, f"expected exactly one document, found {len(docs)}")
    return docs[0]


# ---------------------------------------------------------------------------
# Native JSONL format
# ---------------------------------------------------------------------------

_CODE_SECTIONS = {section.code: section for section in Section}


def document_to_record(
    doc: AnnotatedDocument, features: Sequence[str] = ()
) -> dict:
    thread = doc.thread
    messages = []
    for msg in thread.messages:
        messages.append(
            {
                "date": msg.date.isoformat() if msg.date else None,
                "from": msg.from_addr,
                "to": list(msg.to_addrs),
                "cc": list(msg.cc_addrs),
                "subject": msg.subject,
                "x_from": msg.x_from,
                "x_to": list(msg.x_to),
                "x_cc": list(msg.x_cc),
                "sentences": [
                    [
                        [t.text, t.section.code, t.char_start, t.char_end]
                        for t in sentence
                    ]
                    for sentence in msg.sentences
                ],
            }
        )
    chains = [
        {
            "id": chain.chain_id,
            "mentions": [
                [
                    m.message_index,
                    m.sentence_index,
                    m.start_token,
                    m.end_token,
                    m.entity_type.value if m.entity_type else None,
                ]
                for m in chain.mentions
            ],
        }
        for chain in doc.chains
    ]
    record = {
        "id": thread.id,
        "source_path": thread.source_path,
        "messages": messages,
        "chains": chains,
    }
    if features:
        columns = {}
        if "mi" in features:
            columns["mi"] = [
                [[t.message_index for t in sentence] for sentence in msg.sentences]
                for msg in thread.messages
            ]
        if "si" in features:
            columns["si"] = [
                [[t.section.code for t in sentence] for sentence in msg.sentences]
                for msg in thread.messages
            ]
        record["features"] = columns
    return record


def _expect_integers(names: tuple[str, ...], values, path: str) -> None:
    """Raise ``NativeSchemaError`` at ``path`` unless every value is an exact JSON integer."""
    for name, value in zip(names, values):
        if type(value) is not int:
            raise NativeSchemaError(path, f"{name} must be an integer, got {value!r}")


def _decode_sentences(raw_sentences: list, mi: int, last_end: int, build: bool) -> tuple:
    """Message ``mi``'s tokens in one checked pass: its sentences (none unless
    ``build``), each sentence's length, the running char_end, and the first
    token that starts before the previous one ends as (text, start, previous end).

    A token with a nonempty string text, a known section code and integer
    offsets with ``last_end <= start < end`` is built directly; any other goes
    through ``Token``, so its error keeps its message, and offsets that ``Token``
    accepts but that are not integers are rejected.
    """
    sentences = []
    lengths = []
    overlap = None
    for si, sent in enumerate(raw_sentences):
        if not (isinstance(sent, list) and sent):
            raise NativeSchemaError(f"$.messages[{mi}].sentences[{si}]", "must be a nonempty list")
        toks = []
        for ti, item in enumerate(sent):
            if not isinstance(item, list) or len(item) != 4:
                raise NativeSchemaError(
                    f"$.messages[{mi}].sentences[{si}][{ti}]",
                    "token must be [text, section, char_start, char_end]",
                )
            text, code, cs, ce = item
            try:
                section = _CODE_SECTIONS[code]
            except (KeyError, TypeError):
                raise NativeSchemaError(
                    f"$.messages[{mi}].sentences[{si}][{ti}]", f"unknown section code {code!r}"
                ) from None
            if type(text) is str and text and type(cs) is type(ce) is int and last_end <= cs < ce:
                if build:
                    toks.append(_tuple_new(Token, (_intern(text), si, ti, mi, section, cs, ce)))
            else:
                try:
                    token = Token(text, si, ti, mi, section, cs, ce)
                except (TypeError, ValueError) as exc:
                    raise NativeSchemaError(f"$.messages[{mi}].sentences[{si}][{ti}]", str(exc)) from None
                # Token compares offsets, which a bool or a float also passes
                _expect_integers(("char_start", "char_end"), (cs, ce), f"$.messages[{mi}].sentences[{si}][{ti}]")
                if cs < last_end and overlap is None:
                    overlap = (token.text, cs, last_end)
                if build:
                    toks.append(token)
            last_end = ce
        if build:
            sentences.append(tuple(toks))
        lengths.append(len(sent))
    return tuple(sentences), lengths, last_end, overlap


_TEXT_FIELDS = ("from", "subject", "x_from")
_ADDRESS_LIST_FIELDS = ("to", "cc", "x_to", "x_cc")


def _decode_message(rec, i: int, last_end: int, build: bool) -> tuple:
    """Message ``i``'s fields, then what ``_decode_sentences`` gives after its sentences."""
    if not isinstance(rec, dict):
        raise NativeSchemaError(f"$.messages[{i}]", "must be an object")
    raw_sentences = rec.get("sentences")
    if not isinstance(raw_sentences, list):
        raise NativeSchemaError(f"$.messages[{i}].sentences", "must be a list")
    date = None
    if rec.get("date") is not None:
        try:
            date = datetime.fromisoformat(rec["date"])
        except (TypeError, ValueError):
            raise NativeSchemaError(f"$.messages[{i}].date", f"bad timestamp {rec['date']!r}") from None
    sentences, lengths, last_end, overlap = _decode_sentences(raw_sentences, i, last_end, build)
    for name in _TEXT_FIELDS:
        value = rec.get(name)
        if value is not None and not isinstance(value, str):
            raise NativeSchemaError(f"$.messages[{i}].{name}", "must be a string or null")
    for name in _ADDRESS_LIST_FIELDS:
        value = rec.get(name, [])
        if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
            raise NativeSchemaError(f"$.messages[{i}].{name}", "must be a list of strings")
    fields = {
        "index": i,
        "date": date,
        "from_addr": rec.get("from"),
        "to_addrs": tuple(rec.get("to", [])),
        "cc_addrs": tuple(rec.get("cc", [])),
        "subject": rec.get("subject"),
        "x_from": rec.get("x_from"),
        "x_to": tuple(rec.get("x_to", [])),
        "x_cc": tuple(rec.get("x_cc", [])),
        "sentences": sentences,
    }
    return fields, lengths, last_end, overlap


_MENTION_FIELDS = ("message_index", "sentence_index", "start_token", "end_token")
_ENTITY_TYPES = {entity_type.value: entity_type for entity_type in EntityType}


def _decode_chain(rec, ci: int, chain_ids: set, owners: dict, lengths: list) -> CoreferenceChain:
    """Chain ``ci``. ``chain_ids`` holds the ids of the chains before it and
    ``owners`` maps their mention locations to their ids; both take this chain's.
    ``lengths`` holds each message's sentence lengths.

    A mention of four integers with ``0 <= start <= end``, and a chain with a
    nonnegative id, are built directly; any other goes through ``Mention`` or
    ``CoreferenceChain``, so its error keeps its message.
    """
    if not isinstance(rec, dict):
        raise NativeSchemaError(f"$.chains[{ci}]", "must be an object")
    chain_id = rec.get("id")
    if type(chain_id) is not int:
        raise NativeSchemaError(f"$.chains[{ci}].id", "chain id must be an int")
    if chain_id in chain_ids:
        raise NativeSchemaError(f"$.chains[{ci}].id", f"chain id {chain_id} is repeated")
    chain_ids.add(chain_id)
    raw_mentions = rec.get("mentions")
    if not (isinstance(raw_mentions, list) and raw_mentions):
        raise NativeSchemaError(f"$.chains[{ci}].mentions", "must be a nonempty list")
    mentions = []
    for mi, item in enumerate(raw_mentions):
        if not (isinstance(item, list) and len(item) in (4, 5)):
            raise NativeSchemaError(
                f"$.chains[{ci}].mentions[{mi}]",
                "mention must be [message, sentence, start, end, entity_type?]",
            )
        etype = None
        if len(item) == 5 and item[4] is not None:
            try:
                etype = _ENTITY_TYPES[item[4]]
            except (KeyError, TypeError):
                raise NativeSchemaError(
                    f"$.chains[{ci}].mentions[{mi}]", f"unknown entity type {item[4]!r}"
                ) from None
        location = m, s, start, end = item[0], item[1], item[2], item[3]
        if type(m) is type(s) is type(start) is type(end) is int and m >= 0 and s >= 0 and 0 <= start <= end:
            mentions.append(_tuple_new(Mention, (m, s, start, end, etype)))
        else:
            try:
                mentions.append(Mention(m, s, start, end, etype))
            except (TypeError, ValueError) as exc:
                raise NativeSchemaError(f"$.chains[{ci}].mentions[{mi}]", str(exc)) from None
            # Mention compares its fields, which a bool or a float also passes
            _expect_integers(_MENTION_FIELDS, location, f"$.chains[{ci}].mentions[{mi}]")
        if not (m < len(lengths) and s < len(lengths[m]) and end < lengths[m][s]):
            raise NativeSchemaError(f"$.chains[{ci}].mentions[{mi}]", f"mention at {location} addresses no token")
        if location in owners:
            raise NativeSchemaError(
                f"$.chains[{ci}].mentions[{mi}]",
                f"mention at {location} is already in chain {owners[location]}",
            )
        owners[location] = chain_id
    if chain_id >= 0:
        return _tuple_new(CoreferenceChain, (chain_id, tuple(mentions)))
    try:
        return CoreferenceChain(chain_id, mentions)
    except ValueError as exc:
        raise NativeSchemaError(f"$.chains[{ci}]", str(exc)) from None


def record_to_document(record: dict, *, thread: bool = True) -> AnnotatedDocument:
    """Build a document from one decoded native record, checking its schema.

    A violation raises ``NativeSchemaError`` naming the JSON path of the
    offending value; paths are formatted only once a check has failed. A
    token that starts before the previous one ends is reported at ``$``,
    after every message has decoded. With ``thread`` false every check still
    runs, but no token is built and the document's thread holds no message.
    """
    if not isinstance(record, dict):
        raise NativeSchemaError("$", "record must be an object")
    if not isinstance(record.get("id"), str):
        raise NativeSchemaError("$.id", "thread id must be a string")
    raw_messages = record.get("messages")
    if not isinstance(raw_messages, list):
        raise NativeSchemaError("$.messages", "must be a list")
    messages = []
    lengths = []
    last_end, overlap = 0, None
    for i, rec in enumerate(raw_messages):
        fields, sentence_lengths, last_end, found = _decode_message(rec, i, last_end, thread)
        messages.append(fields)
        lengths.append(sentence_lengths)
        overlap = overlap or found
    if overlap:
        raise NativeSchemaError("$", _overlap_message(record["id"], *overlap))
    built = _assemble_thread(record["id"], messages if thread else (), record.get("source_path"))
    raw_chains = record.get("chains", [])
    if not isinstance(raw_chains, list):
        raise NativeSchemaError("$.chains", "must be a list")
    chain_ids: set = set()
    owners: dict = {}
    chains = tuple(_decode_chain(rec, ci, chain_ids, owners, lengths) for ci, rec in enumerate(raw_chains))
    return AnnotatedDocument(thread=built, chains=chains)


def write_native(
    docs: Iterable[AnnotatedDocument], fp: IO[str], features: Sequence[str] = ()
) -> None:
    """Write one JSON record per line; key order is fixed for determinism."""
    for doc in docs:
        record = document_to_record(doc, features=features)
        fp.write(json.dumps(record, ensure_ascii=False, allow_nan=False, separators=(",", ":")))
        fp.write("\n")


def write_native_string(
    docs: Iterable[AnnotatedDocument], features: Sequence[str] = ()
) -> str:
    import io

    buf = io.StringIO()
    write_native(docs, buf, features=features)
    return buf.getvalue()


def _nonblank_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    for line_no, line in enumerate(lines, start=1):
        if line.strip():
            yield line_no, line


def iter_native_lines(path) -> Iterator[tuple[int, str]]:
    """The nonblank lines of a JSONL file, each with its 1-based line number,
    read one at a time, as ``read_native`` splits the file's text."""
    with open(path, encoding="utf-8") as fp, utf8_input(path):
        yield from stream_native_lines(fp)


def stream_native_lines(fp: Iterable[str]) -> Iterator[tuple[int, str]]:
    """The nonblank lines of an open JSONL text file, numbered as ``iter_native_lines`` numbers them."""
    # a text file in universal-newline mode turns "\r\n" and "\r" into "\n",
    # as Path.read_text does, and then ends its lines at "\n" only
    for line_no, line in _nonblank_lines(fp):
        yield line_no, line[:-1] if line.endswith("\n") else line


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def decode_line(line: str, line_no: int, *, thread: bool = True) -> AnnotatedDocument:
    """Decode one JSONL line; every error, bad JSON, NaN and Infinity included,
    names the line number. ``thread`` is as for ``record_to_document``."""
    try:
        record = json.loads(line, parse_constant=_reject_constant)
    except ValueError as exc:
        raise NativeSchemaError(f"line {line_no}", f"invalid JSON: {exc}") from None
    try:
        return record_to_document(record, thread=thread)
    except NativeSchemaError as exc:
        raise NativeSchemaError(exc.path, exc.message, line_no) from None


def iter_native(path) -> Iterator[tuple[int, AnnotatedDocument]]:
    """Read a native JSONL file one record at a time: (line number, document)."""
    for line_no, line in iter_native_lines(path):
        yield line_no, decode_line(line, line_no)


def read_native(source: IO[str] | str) -> list[AnnotatedDocument]:
    """Read JSONL records into annotated documents."""
    text = source if isinstance(source, str) else source.read()
    # only "\n" ends a record: str.splitlines() would also split at U+2028,
    # U+2029 and U+0085, which write_native leaves raw inside strings
    return [decode_line(line, line_no) for line_no, line in _nonblank_lines(text.split("\n"))]
