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

import itertools
import json
from datetime import datetime
from typing import IO, Callable, Iterable, Iterator, Optional, Sequence

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
)


class MalformedColumn(ToolkitError):
    """A CoNLL coreference column could not be parsed."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class OverlappingIdenticalSpan(ToolkitError):
    """Two chains claim the identical token span (invalid document)."""


class NativeSchemaError(ToolkitError):
    """A native record violates the expected schema at JSON ``path``, on line
    ``line_number`` and in the document of id ``document_id`` if known."""

    def __init__(
        self, path: str, message: str, line_number: Optional[int] = None, document_id: Optional[str] = None
    ):
        where = "" if line_number is None else f"line {line_number}: "
        if document_id is not None:
            where += f"document {document_id!r}: "
        super().__init__(f"{where}{path}: {message}")
        self.path = path
        self.message = message
        self.line_number = line_number
        self.document_id = document_id

    def __reduce__(self):
        # rebuilt from every field, so the error survives a worker process
        return type(self), (self.path, self.message, self.line_number, self.document_id)


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


# ---------------------------------------------------------------------------
# CoNLL column format
# ---------------------------------------------------------------------------

def write_conll(doc: AnnotatedDocument) -> str:
    """Serialize one document to CoNLL coreference columns.

    The document id is the first column of every row and sits between the
    parentheses of the ``#begin document`` line, so an id that is empty or
    holds whitespace, a ``)`` or a leading ``#`` would read back as another
    document. A token text is the fourth column, so one that holds
    whitespace, as ``str.split`` counts it, would read back cut short or
    split its row. A mention that addresses no token would be dropped or
    left unclosed. Such an id, text or mention is an error.
    """
    doc_id = doc.thread.id
    if doc_id.split() != [doc_id] or doc_id.startswith("#") or ")" in doc_id:
        raise ToolkitError(
            f"document id {doc_id!r} cannot be written to CoNLL: an id there must be nonempty "
            "and hold no whitespace, no ')' and no leading '#'"
        )
    sentences = global_sentences(doc.thread)
    sent_pos = {(mi, si): g for g, (mi, si, _) in enumerate(sentences)}
    lengths = [[len(sentence) for sentence in msg.sentences] for msg in doc.thread.messages]

    starts: dict[tuple[int, int], list[tuple[int, int]]] = {}
    ends: dict[tuple[int, int], list[tuple[int, int]]] = {}
    singles: dict[tuple[int, int], list[int]] = {}
    seen_spans: dict[tuple, int] = {}
    for chain in doc.chains:
        for m in chain.mentions:
            span = m.location
            if not _addresses_token(lengths, m.message_index, m.sentence_index, m.end_token):
                raise ToolkitError(
                    f"document {doc_id!r}: mention at {span} addresses no token and cannot be written to CoNLL"
                )
            if span in seen_spans:
                raise OverlappingIdenticalSpan(
                    f"span {span} claimed by chains {seen_spans[span]} and {chain.chain_id}"
                )
            seen_spans[span] = chain.chain_id
            g = sent_pos[(m.message_index, m.sentence_index)]
            if m.start_token == m.end_token:
                singles.setdefault((g, m.start_token), []).append(chain.chain_id)
            else:
                starts.setdefault((g, m.start_token), []).append((m.end_token, chain.chain_id))
                ends.setdefault((g, m.end_token), []).append((m.start_token, chain.chain_id))

    lines = [f"#begin document ({doc_id}); part 000"]
    for g, (_, _, sentence) in enumerate(sentences):
        for ti, token in enumerate(sentence):
            if token.text.split() != [token.text]:
                raise ToolkitError(
                    f"document {doc_id!r}: token {token.text!r} at message {token.message_index}, sentence "
                    f"{token.sentence_index}, token {ti} cannot be written to CoNLL: a token there must hold "
                    "no whitespace"
                )
            entries = []
            for end_tok, cid in sorted(starts.get((g, ti), []), key=lambda x: (-x[0], x[1])):
                entries.append(f"({cid}")
            for cid in sorted(singles.get((g, ti), [])):
                entries.append(f"({cid})")
            for start_tok, cid in sorted(ends.get((g, ti), []), key=lambda x: (-x[0], x[1])):
                entries.append(f"{cid})")
            coref = "|".join(entries) if entries else "-"
            lines.append(f"{doc_id}\t0\t{ti}\t{token.text}\t{coref}")
        lines.append("")
    lines.append("#end document")
    return "\n".join(lines) + "\n"


def write_conll_documents(docs: Iterable[AnnotatedDocument]) -> str:
    return "".join(write_conll(doc) for doc in docs)


def _skeleton_document(doc: AnnotatedDocument, sentences: list[list[str]]) -> AnnotatedDocument:
    """``doc``, a document that the CoNLL reader yields, with the thread of one
    message that its word lists ``sentences`` make: body tokens one space apart."""
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
    thread = _assemble_thread(doc.thread.id, [{"index": 0, "sentences": tuple(token_sentences)}])
    return AnnotatedDocument(thread=thread, chains=doc.chains)


def _chains_document(doc_id: str, chains: dict[int, list[tuple[int, int, int]]]) -> AnnotatedDocument:
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
    return AnnotatedDocument(thread=_assemble_thread(doc_id, ()), chains=chain_objs)


def read_conll_documents(text: str) -> list[AnnotatedDocument]:
    """Parse CoNLL column text into document skeletons (tokens + chains)."""
    return [_skeleton_document(doc, words) for doc, words, _ in iter_conll_documents(text.splitlines())]


# Lines read from a CoNLL stream at a time: each batch is split in one call,
# and memory holds one batch, not the file.
_CONLL_BATCH_LINES = 4096


def stream_conll_documents(fp: Iterable[str]) -> Iterator[tuple[AnnotatedDocument, list[list[str]], int]]:
    """The documents of an open CoNLL text file, one at a time, in file order.

    Lines split as ``str.splitlines`` splits the whole text, so a file reads
    as ``read_conll_documents`` reads its text.
    """
    # a batch of "\n"-ended lines splits exactly as it does inside the whole text
    pieces = iter(fp)
    batches = iter(lambda: "".join(itertools.islice(pieces, _CONLL_BATCH_LINES)).splitlines(), [])
    return iter_conll_documents(itertools.chain.from_iterable(batches))


def iter_conll_documents(lines: Iterable[str]) -> Iterator[tuple[AnnotatedDocument, list[list[str]], int]]:
    """Parse CoNLL column lines, yielding each document at its ``#end document``.

    Each line is split once at whitespace: no column makes a blank line,
    which ends a sentence; a first column that starts with "#" makes a
    comment or a document marker; anything else is a token row. Every line
    is checked, and no token is built: each document comes with the words
    of each of its sentences and the number of its ``#begin document`` line,
    and its thread holds no message. A span that a document holds twice, in
    one chain or in two, is an error at the line that closes its second copy.
    """
    doc_id: Optional[str] = None
    begin = 0  # the line number of the open document's #begin document
    sentences: list[list[str]] = []
    current: list[str] = []
    owners: dict[tuple[int, int, int], int] = {}
    open_spans: dict[int, list[tuple[int, int]]] = {}
    line_no = 0

    for line_no, line in enumerate(lines, start=1):
        cols = line.split()
        if not cols:
            if current:
                sentences.append(current)
                current = []
            continue
        if cols[0][0] == "#":
            stripped = line.strip()
            if stripped.startswith("#begin document"):
                if doc_id is not None:
                    raise MalformedColumn(line_no, "nested #begin document")
                # the id is what the parentheses hold, and both must be there
                _, opened, rest = stripped.partition("(")
                doc_id, closed, _ = rest.partition(")")
                if not (opened and closed):
                    raise MalformedColumn(line_no, "malformed #begin document line")
                begin, sentences, current, owners, open_spans = line_no, [], [], {}, {}
            elif stripped.startswith("#end document"):
                if doc_id is None:
                    raise MalformedColumn(line_no, "#end document without #begin")
                if current:
                    sentences.append(current)
                    current = []
                if any(open_spans.values()):
                    open_ids = sorted(cid for cid, stack in open_spans.items() if stack)
                    raise MalformedColumn(line_no, f"unclosed span(s) for chain(s) {open_ids}")
                chains: dict[int, list[tuple[int, int, int]]] = {}
                for span, cid in owners.items():
                    chains.setdefault(cid, []).append(span)
                yield _chains_document(doc_id, chains), sentences, begin
                doc_id = None
            continue
        if doc_id is None:
            # a byte order mark hides the "#" of the line it starts
            if cols[0][0] == "\ufeff":
                raise MalformedColumn(line_no, "unexpected UTF-8 byte order mark")
            raise MalformedColumn(line_no, "token row outside a document")
        if len(cols) < 5:
            raise MalformedColumn(line_no, f"expected >= 5 columns, got {len(cols)}")
        coref = cols[-1]
        tok_index = len(current)
        current.append(cols[3])
        if coref == "-" or coref == "_":
            continue
        sent_index = len(sentences)
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


def _chain_records(chains: Iterable[CoreferenceChain]) -> list:
    return [
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
        for chain in chains
    ]


def document_to_record(
    doc: AnnotatedDocument, features: Sequence[str] = ()
) -> dict:
    thread = doc.thread
    record = {
        "id": thread.id,
        "source_path": thread.source_path,
        "messages": [
            _message_record(
                *msg[1:9],
                [[[t.text, t.section.code, t.char_start, t.char_end] for t in sentence] for sentence in msg.sentences],
            )
            for msg in thread.messages
        ],
        "chains": _chain_records(doc.chains),
    }
    if features:
        record["features"] = _feature_columns(_record_codes(record["messages"]), features)
    return record


def _message_record(date, sender, to, cc, subject, x_from, x_to, x_cc, sentences: list) -> dict:
    """One message of a native record, its keys in the order ``write_native``
    writes them: the fields of ``EmailMessage`` from ``date`` to ``x_cc``,
    and the sentences as lists of [text, section code, char_start, char_end]."""
    return {
        "date": None if date is None else date.isoformat(),
        "from": sender,
        "to": list(to),
        "cc": list(cc),
        "subject": subject,
        "x_from": x_from,
        "x_to": list(x_to),
        "x_cc": list(x_cc),
        "sentences": sentences,
    }


def _feature_columns(codes: list, features: Sequence[str]) -> dict:
    """The ``features`` value of a record whose tokens have the section
    ``codes``, a list per message of a list per sentence: each token's
    message index (``mi``) and section code (``si``), as ``features`` asks."""
    columns = {}
    if "mi" in features:
        columns["mi"] = [[[mi] * len(sentence) for sentence in message] for mi, message in enumerate(codes)]
    if "si" in features:
        columns["si"] = codes
    return columns


def _expect_integers(names: tuple[str, ...], values, path: str) -> None:
    """Raise ``NativeSchemaError`` at ``path`` unless every value is an exact JSON integer."""
    for name, value in zip(names, values):
        if type(value) is not int:
            raise NativeSchemaError(path, f"{name} must be an integer, got {value!r}")


# the codes as a tuple: "in" compares, so a code that is a list or a dict
# fails the test instead of raising as a dict lookup would
_CODES = tuple(_CODE_SECTIONS)


def _check_token(item, mi: int, si: int, ti: int) -> None:
    """Raise ``NativeSchemaError`` unless ``item`` is a token that ``Token``
    accepts, so that an error keeps its message, with integer offsets."""
    path = f"$.messages[{mi}].sentences[{si}][{ti}]"
    if not isinstance(item, list) or len(item) != 4:
        raise NativeSchemaError(path, "token must be [text, section, char_start, char_end]")
    text, code, cs, ce = item
    try:
        section = _CODE_SECTIONS[code]
    except (KeyError, TypeError):
        raise NativeSchemaError(path, f"unknown section code {code!r}") from None
    try:
        Token(text, si, ti, mi, section, cs, ce)
    except (TypeError, ValueError) as exc:
        raise NativeSchemaError(path, str(exc)) from None
    # Token compares offsets, which a bool or a float also passes
    _expect_integers(("char_start", "char_end"), (cs, ce), path)


def _decode_sentences(raw_sentences: list, mi: int, last_end: int) -> tuple:
    """Check message ``mi``'s tokens in one pass; give each sentence's length,
    the running char_end, and the first token that starts before the
    previous one ends as (text, start, previous end).

    A token with a nonempty string text, a known section code and integer
    offsets with ``last_end <= start < end`` passes; any other goes through
    ``_check_token``. The loop keeps no token and counts no token index.
    """
    lengths = []
    overlap = None
    for si, sent in enumerate(raw_sentences):
        if not (isinstance(sent, list) and sent):
            raise NativeSchemaError(f"$.messages[{mi}].sentences[{si}]", "must be a nonempty list")
        for item in sent:
            if isinstance(item, list) and len(item) == 4:
                text, code, cs, ce = item
                if (code in _CODES and type(text) is str and text and type(cs) is type(ce) is int
                        and last_end <= cs < ce):
                    last_end = ce
                    continue
            # a check other than the overlap fails wherever the item stands,
            # so the first place of this very item is the one an error names
            _check_token(item, mi, si, next(i for i, other in enumerate(sent) if other is item))
            text, _, cs, ce = item
            if cs < last_end and overlap is None:
                overlap = (text, cs, last_end)
            last_end = ce
        lengths.append(len(sent))
    return lengths, last_end, overlap


_TEXT_FIELDS = ("from", "subject", "x_from")
_ADDRESS_LIST_FIELDS = ("to", "cc", "x_to", "x_cc")


def _decode_message(rec, i: int, last_end: int) -> tuple:
    """Check message ``i``'s fields; give what ``_decode_sentences`` gives for its sentences."""
    if not isinstance(rec, dict):
        raise NativeSchemaError(f"$.messages[{i}]", "must be an object")
    raw_sentences = rec.get("sentences")
    if not isinstance(raw_sentences, list):
        raise NativeSchemaError(f"$.messages[{i}].sentences", "must be a list")
    try:
        _message_date(rec)
    except (TypeError, ValueError):
        raise NativeSchemaError(f"$.messages[{i}].date", f"bad timestamp {rec['date']!r}") from None
    checked = _decode_sentences(raw_sentences, i, last_end)
    for name in _TEXT_FIELDS:
        value = rec.get(name)
        if value is not None and not isinstance(value, str):
            raise NativeSchemaError(f"$.messages[{i}].{name}", "must be a string or null")
    for name in _ADDRESS_LIST_FIELDS:
        value = rec.get(name, [])
        if not (isinstance(value, list) and all(isinstance(v, str) for v in value)):
            raise NativeSchemaError(f"$.messages[{i}].{name}", "must be a list of strings")
    return checked


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
        if not _addresses_token(lengths, m, s, end):
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


def _addresses_token(lengths: list, message: int, sentence: int, end: int) -> bool:
    """Whether a mention of nonnegative indices that ends at token ``end``
    addresses tokens of messages with the sentence ``lengths``."""
    return message < len(lengths) and sentence < len(lengths[message]) and end < lengths[message][sentence]


def first_stray_mention(mentions: Iterable[Mention], lengths: list) -> Optional[Mention]:
    """The first of ``mentions`` that addresses no token of messages with
    the sentence ``lengths``, a list of lists per message, or None."""
    return next((m for m in mentions if not _addresses_token(lengths, m[0], m[1], m[3])), None)


def record_to_document(record: dict) -> AnnotatedDocument:
    """Build a document from one decoded native record, checking its schema.

    A violation raises ``NativeSchemaError`` naming the JSON path of the
    offending value; paths are formatted only once a check has failed. A
    token that starts before the previous one ends is reported at ``$``,
    after every message has been checked. Once the whole record has passed,
    ``record_sentence`` builds each sentence's tokens.
    """
    doc, _ = _threadless_document(record)
    messages = [
        {
            "index": mi,
            "date": _message_date(message),
            "from_addr": message.get("from"),
            "to_addrs": tuple(message.get("to", [])),
            "cc_addrs": tuple(message.get("cc", [])),
            "subject": message.get("subject"),
            "x_from": message.get("x_from"),
            "x_to": tuple(message.get("x_to", [])),
            "x_cc": tuple(message.get("x_cc", [])),
            "sentences": tuple([record_sentence(record, mi, si) for si in range(len(message["sentences"]))]),
        }
        for mi, message in enumerate(record["messages"])
    ]
    return AnnotatedDocument(_assemble_thread(doc.thread.id, messages, doc.thread.source_path), doc.chains)


def _threadless_document(record) -> tuple[AnnotatedDocument, list]:
    """The document of one decoded native record with a thread of no
    messages, and each message's list of sentence lengths; every check of
    ``record_to_document`` runs."""
    if not isinstance(record, dict):
        raise NativeSchemaError("$", "record must be an object")
    if not isinstance(record.get("id"), str):
        raise NativeSchemaError("$.id", "thread id must be a string")
    raw_messages = record.get("messages")
    if not isinstance(raw_messages, list):
        raise NativeSchemaError("$.messages", "must be a list")
    lengths = []
    last_end, overlap = 0, None
    for i, rec in enumerate(raw_messages):
        sentence_lengths, last_end, found = _decode_message(rec, i, last_end)
        lengths.append(sentence_lengths)
        overlap = overlap or found
    if overlap:
        raise NativeSchemaError("$", _overlap_message(record["id"], *overlap))
    thread = _assemble_thread(record["id"], (), record.get("source_path"))
    return AnnotatedDocument(thread=thread, chains=_decode_chains(record.get("chains", []), lengths)), lengths


def _decode_chains(raw_chains, lengths: list) -> tuple[CoreferenceChain, ...]:
    """The chains of a record whose messages have the sentence ``lengths``."""
    if not isinstance(raw_chains, list):
        raise NativeSchemaError("$.chains", "must be a list")
    chain_ids: set = set()
    owners: dict = {}
    return tuple(_decode_chain(rec, ci, chain_ids, owners, lengths) for ci, rec in enumerate(raw_chains))


def _encode(value) -> str:
    """``value`` as write_native writes it: compact, and non-ASCII kept raw."""
    return json.dumps(value, ensure_ascii=False, allow_nan=False, separators=(",", ":"))


def write_native(
    docs: Iterable[AnnotatedDocument], fp: IO[str], features: Sequence[str] = ()
) -> None:
    """Write one JSON record per line; key order is fixed for determinism."""
    for doc in docs:
        fp.write(record_line(document_to_record(doc, features=features)))


def record_line(record: dict) -> str:
    """A native record as ``write_native`` writes it: one line of compact JSON."""
    return _encode(record) + "\n"


def write_native_string(
    docs: Iterable[AnnotatedDocument], features: Sequence[str] = ()
) -> str:
    import io

    buf = io.StringIO()
    write_native(docs, buf, features=features)
    return buf.getvalue()


def stream_native_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """The nonblank lines of an open JSONL text file, or of a JSONL text split
    at "\n", one at a time, each with its 1-based line number."""
    # a text file in universal-newline mode turns "\r\n" and "\r" into "\n",
    # as Path.read_text does, and then ends its lines at "\n" only
    for line_no, line in enumerate(lines, start=1):
        if line.strip():
            yield line_no, line[:-1] if line.endswith("\n") else line


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def decode_record(line: str, line_no: int) -> tuple[dict, AnnotatedDocument, list]:
    """Decode one JSONL line into its parsed JSON record, its document with a
    thread of no messages, and each message's list of sentence lengths.

    Every error, bad JSON, NaN and Infinity included, names the line number,
    and an error in a record whose id is a string names the document too.
    Every check of ``record_to_document`` runs, and ``record_sentence``
    builds the tokens of any one sentence of the returned record.
    """
    record, (doc, lengths) = _decoded(line, line_no, _threadless_document)
    return record, doc, lengths


def _decoded(line: str, line_no: int, decode: Callable[[dict], object]) -> tuple:
    """The parsed JSON record of one JSONL line and ``decode`` of it, each
    error named as ``decode_record`` names it."""
    try:
        record = json.loads(line, parse_constant=_reject_constant)
    except ValueError as exc:
        raise NativeSchemaError(f"line {line_no}", f"invalid JSON: {exc}") from None
    try:
        return record, decode(record)
    except NativeSchemaError as exc:
        doc_id = record.get("id") if isinstance(record, dict) else None
        raise NativeSchemaError(exc.path, exc.message, line_no, doc_id if isinstance(doc_id, str) else None) from None


_TAIL_KEYS = (("chains",), ("chains", "features"))


def decode_repeat(
    line: str, line_no: int, first: tuple[str, dict, AnnotatedDocument, list]
) -> Optional[AnnotatedDocument]:
    """The document of ``line`` if it repeats the bytes of ``first``'s line up
    to and including their top-level ``,"chains":``, else None.

    ``first`` is a line with the record, threadless document and sentence
    lengths that ``decode_record`` gave for it. The cut is the splice rule's
    (``_chains_key_at``), so the shared bytes hold the id, the source path
    and every message, all checked once already. Only the rest of ``line`` is
    parsed, and its keys must be ``chains``, or ``chains`` then ``features``:
    JSON keeps a repeated key's last value, which would replace a shared one.
    Its chains are checked against ``first``'s sentences, and an error reads
    as ``decode_record`` words it. Any other line is left to ``decode_record``.
    """
    first_line, record, doc, lengths = first
    cut = _chains_key_at(first_line, record)
    if cut < 0 or not line.startswith(first_line[: cut + len(_CHAINS_KEY)]):
        return None
    try:
        tail = json.loads("{" + line[cut + 1 :], parse_constant=_reject_constant)
    except ValueError:
        return None
    if tuple(tail) not in _TAIL_KEYS:
        return None
    try:
        return AnnotatedDocument(doc.thread, _decode_chains(tail["chains"], lengths))
    except NativeSchemaError as exc:
        raise NativeSchemaError(exc.path, exc.message, line_no, doc.thread.id) from None


def decode_line(line: str, line_no: int) -> AnnotatedDocument:
    """The document of one JSONL line with its thread, decoded and checked as
    ``decode_record`` does."""
    return _decoded(line, line_no, record_to_document)[1]


def record_sentence(record: dict, message_index: int, sentence_index: int) -> tuple[Token, ...]:
    """The tokens of one sentence of a record that ``record_to_document`` has
    checked; the only place where native JSON becomes tokens. Each token of
    a checked record is a list of a nonempty text, a section code and
    integer offsets, so each is built directly."""
    sentence = record["messages"][message_index]["sentences"][sentence_index]
    return tuple([
        _tuple_new(Token, (_intern(text), sentence_index, ti, message_index, _CODE_SECTIONS[code], cs, ce))
        for ti, (text, code, cs, ce) in enumerate(sentence)
    ])


def record_counts(record: dict, doc: AnnotatedDocument) -> tuple:
    """What ``metrics.tally_corpus`` counts of a record that ``decode_record``
    gave with its document: the message count, the word count, the chains,
    and the text of the token at (message, sentence, token index), each read
    from the JSON without building a token."""
    messages = record["messages"]
    words = sum([len(sentence) for message in messages for sentence in message["sentences"]])
    return len(messages), words, doc.chains, lambda mi, si, ti: messages[mi]["sentences"][si][ti][0]


def record_first_token(record: dict) -> Callable[[Mention], list]:
    """A function that gives the first token of a mention of a record that
    ``decode_record`` checked, as the JSON holds it: a list of its text, its
    section code and its offsets. No token is built."""
    messages = record["messages"]
    return lambda mention: messages[mention[0]]["sentences"][mention[1]][mention[2]]


_NATIVE_KEYS = ("id", "source_path", "messages", "chains")
_CHAINS_KEY = ',"chains":'


def replace_chains(
    line: str,
    record: dict,
    chains: Sequence[CoreferenceChain],
    features: Sequence[str] = (),
    order: Optional[Sequence[int]] = None,
) -> str:
    """The output line of a checked input ``line``, whose parsed JSON is
    ``record``, with its chains replaced by ``chains`` and the ``features``
    columns that ``write_native`` writes; with ``order``, the old indices of
    the messages in their new order, the messages are moved too.

    Without ``order``, the new chains are spliced into the input: the line up
    to its top-level ``,"chains":``, then the encoded chains and features,
    then ``}``. This holds when the record's keys are those ``write_native``
    writes, in its order, with an optional ``features`` last, and the line
    starts with the bytes that ``write_native`` gives for its ``id`` and
    ``source_path``; the messages are then kept byte for byte as given. The
    last ``,"chains":`` of the line is the top-level one when what follows
    it, read after a ``{``, is one JSON object: a key nested deeper would
    leave a bracket unclosed or one closed too many. Deciding this encodes no
    message. Any other record, and every record with ``order``, is written
    from its checked JSON as ``write_native`` writes the document it decodes
    to (``_record_messages``), and no token is built either way.
    """
    if order is None and (cut := _chains_key_at(line, record)) >= 0:
        tail = f',"features":{_encode(_feature_columns(_record_codes(record["messages"]), features))}' if features else ""
        return f"{line[:cut]}{_CHAINS_KEY}{_encode(_chain_records(chains))}{tail}}}\n"
    messages = _record_messages(record["messages"], order)
    out = {
        "id": record["id"],
        "source_path": record.get("source_path"),
        "messages": messages,
        "chains": _chain_records(chains),
    }
    if features:
        out["features"] = _feature_columns(_record_codes(messages), features)
    return record_line(out)


def _record_codes(messages: list) -> list:
    """The section codes of a checked record's tokens, a list per message of a list per sentence."""
    return [[[token[1] for token in sentence] for sentence in message["sentences"]] for message in messages]


def _message_date(message: dict) -> Optional[datetime]:
    date = message.get("date")
    return None if date is None else datetime.fromisoformat(date)


def record_dates(record: dict) -> list[Optional[datetime]]:
    """The date of each message of a checked record, or None where it has none."""
    return [_message_date(message) for message in record["messages"]]


def _record_messages(messages: list, order: Optional[Sequence[int]]) -> list:
    """The messages of a checked record as ``document_to_record`` writes the
    messages it decodes to, in ``order`` if given.

    The JSON already holds each token as ``document_to_record`` writes it, a
    list of its text, section code and integer offsets, so sentences are
    kept as they are. A date is written in ``isoformat``. Moved messages have
    their token offsets shifted, each message's by one constant, so that it
    starts one past the end of the message before it, or at 0; a token list
    is made anew only where that constant is not 0. This is the one reorder
    of the package: ``features`` moves records and threads through it.
    """
    out = []
    base = 0
    for old in range(len(messages)) if order is None else order:
        message = messages[old]
        sentences = message["sentences"]
        if order is not None and sentences:
            shift = base - sentences[0][0][2]
            base = sentences[-1][-1][3] + shift + 1
            if shift:
                sentences = [[[text, code, cs + shift, ce + shift] for text, code, cs, ce in s] for s in sentences]
        out.append(_message_record(
            _message_date(message), message.get("from"), message.get("to", []), message.get("cc", []),
            message.get("subject"), message.get("x_from"), message.get("x_to", []), message.get("x_cc", []),
            sentences,
        ))
    return out


def _chains_key_at(line: str, record: dict) -> int:
    """Where the top-level ``,"chains":`` of ``line`` starts if the splice
    rule of ``replace_chains`` holds, else -1."""
    keys = tuple(record)
    if keys != _NATIVE_KEYS and keys != (*_NATIVE_KEYS, "features"):
        return -1
    prefix = f'{{"id":{_encode(record["id"])},"source_path":{_encode(record["source_path"])},"messages":'
    cut = line.rfind(_CHAINS_KEY)
    if cut < len(prefix) or not line.startswith(prefix):
        return -1
    try:
        json.loads("{" + line[cut + 1 :])
    except ValueError:
        return -1
    return cut


def read_native(source: IO[str] | str) -> list[AnnotatedDocument]:
    """Read JSONL records into annotated documents."""
    text = source if isinstance(source, str) else source.read()
    # only "\n" ends a record: str.splitlines() would also split at U+2028,
    # U+2029 and U+0085, which write_native leaves raw inside strings
    return [decode_line(line, line_no) for line_no, line in stream_native_lines(text.split("\n"))]
