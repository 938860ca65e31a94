"""Brute-force scoring oracles, independent of the package implementations.

Everything here favors obviousness over speed: exact rational arithmetic,
explicit enumeration of alignments and mention pairs, no shared code with
threadcoref.metrics. Results are the ground truth that the fast scorers
must reproduce.

The last section keeps the straightforward implementations that faster
package code replaced: the native record decoder with its token type, the
CoNLL document builder through the checked constructors, B³ and LEA by
chain-set intersection, the error categorizer by set intersection per chain
pair, the character loop of the hex-attachment detector, the tokenizer
that split every chunk, marker tests by substring, the thread summary that
rebuilt each body once per check, the duplicate check that scanned the
whole corpus per thread, and the header grammar of separate line
predicates read by a region walk and a second field walk. Differential
tests require the package to agree with them. They share the package's
unchanged helpers (chain normalization, model types, the chunk splitter,
the marker search).
"""
from __future__ import annotations

import hashlib
import re
from collections import Counter
from datetime import datetime
from email.utils import parsedate_to_datetime, parseaddr
from fractions import Fraction
from itertools import combinations, permutations
from typing import Optional

from threadcoref import errors as _errors
from threadcoref import filtering as _filtering
from threadcoref import metrics as _metrics
from threadcoref import parsing as _parsing
from threadcoref.model import (
    AnnotatedDocument,
    CoreferenceChain,
    EmailMessage,
    EmailThread,
    EntityType,
    Mention,
    Section,
    Token,
    mention_order,
)
from threadcoref.serialization import NativeSchemaError


def _norm(chains) -> list[frozenset]:
    return [frozenset(c) for c in chains if len(frozenset(c)) > 0]


def prf(p_num, p_den, r_num, r_den) -> tuple[Fraction, Fraction, Fraction]:
    p = Fraction(p_num, p_den) if p_den else Fraction(0)
    r = Fraction(r_num, r_den) if r_den else Fraction(0)
    f = 2 * p * r / (p + r) if p + r else Fraction(0)
    return p, r, f


def muc_oracle(key, response) -> tuple[Fraction, Fraction, Fraction]:
    key = _norm(key)
    response = _norm(response)

    def half(chains, others):
        num = 0
        den = 0
        for chain in chains:
            # partition of the chain by the other side; absent mentions are
            # singleton parts
            parts = 0
            covered = set()
            for other in others:
                if chain & other:
                    parts += 1
                    covered |= chain & other
            parts += len(chain - covered)
            num += len(chain) - parts
            den += len(chain) - 1
        return num, den

    r_num, r_den = half(key, response)
    p_num, p_den = half(response, key)
    return prf(p_num, p_den, r_num, r_den)


def b_cubed_oracle(key, response) -> tuple[Fraction, Fraction, Fraction]:
    key = _norm(key)
    response = _norm(response)

    def half(chains, others):
        total = Fraction(0)
        count = 0
        for chain in chains:
            for mention in chain:
                count += 1
                containing = [o for o in others if mention in o]
                if containing:
                    total += Fraction(len(chain & containing[0]), len(chain))
        return total, count

    r_num, r_den = half(key, response)
    p_num, p_den = half(response, key)
    p = p_num / p_den if p_den else Fraction(0)
    r = r_num / r_den if r_den else Fraction(0)
    f = 2 * p * r / (p + r) if p + r else Fraction(0)
    return p, r, f


def ceaf_e_best_total(key, response) -> Fraction:
    """Maximum total phi4 similarity over all one-to-one chain alignments."""
    key = _norm(key)
    response = _norm(response)
    if not key or not response:
        return Fraction(0)

    def phi4(a, b):
        return Fraction(2 * len(a & b), len(a) + len(b))

    small, large = (key, response) if len(key) <= len(response) else (response, key)
    best = Fraction(0)
    for chosen in permutations(range(len(large)), len(small)):
        total = sum((phi4(small[i], large[j]) for i, j in enumerate(chosen)), Fraction(0))
        best = max(best, total)
    return best


def ceaf_e_oracle(key, response) -> tuple[Fraction, Fraction, Fraction]:
    key = _norm(key)
    response = _norm(response)
    total = ceaf_e_best_total(key, response)
    return prf(total, len(response), total, len(key))


def lea_oracle(key, response) -> tuple[Fraction, Fraction, Fraction]:
    """LEA by explicit pair enumeration rather than intersection sizes."""
    key = _norm(key)
    response = _norm(response)

    def half(chains, others):
        num = Fraction(0)
        den = 0
        for chain in chains:
            den += len(chain)
            if len(chain) == 1:
                resolved = 1 if any(chain == o for o in others if len(o) == 1) else 0
                links = 1
            else:
                resolved = 0
                for a, b in combinations(sorted(chain, key=repr), 2):
                    if any(a in o and b in o for o in others):
                        resolved += 1
                links = len(chain) * (len(chain) - 1) // 2
            num += Fraction(len(chain) * resolved, links)
        return num, den

    r_num, r_den = half(key, response)
    p_num, p_den = half(response, key)
    p = p_num / p_den if p_den else Fraction(0)
    r = r_num / r_den if r_den else Fraction(0)
    f = 2 * p * r / (p + r) if p + r else Fraction(0)
    return p, r, f


def conll_avg_oracle(key, response) -> Fraction:
    _, _, f_muc = muc_oracle(key, response)
    _, _, f_b3 = b_cubed_oracle(key, response)
    _, _, f_ceafe = ceaf_e_oracle(key, response)
    return (f_muc + f_b3 + f_ceafe) / 3


def overlap_partition_oracle(word_sets: dict) -> list[frozenset]:
    """Transitive closure by repeated pairwise merging until a fixed point."""
    groups = [frozenset([k]) for k in word_sets]
    changed = True
    while changed:
        changed = False
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                words_i = set().union(*(word_sets[m] for m in groups[i]))
                words_j = set().union(*(word_sets[m] for m in groups[j]))
                if words_i & words_j:
                    groups[i] = groups[i] | groups[j]
                    del groups[j]
                    changed = True
                    break
            if changed:
                break
    return sorted(groups, key=lambda g: sorted(g)[0] if g else None)


# ---------------------------------------------------------------------------
# Reference implementations replaced by faster package code
# ---------------------------------------------------------------------------

class ReferenceToken:
    """The token the reference decoder builds, with the checks in their old order.

    A plain class, not a dataclass: the benchmark loads this file without
    registering it as a module, and a dataclass cannot be built there.
    """

    def __init__(self, text, sentence_index, token_index, message_index, section, char_start, char_end):
        self.text = text
        self.sentence_index = sentence_index
        self.token_index = token_index
        self.message_index = message_index
        self.section = section
        self.char_start = char_start
        self.char_end = char_end
        if not self.text:
            raise ValueError("token text must be nonempty")
        for name in ("sentence_index", "token_index", "message_index", "char_start"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if self.char_end <= self.char_start:
            raise ValueError(
                f"char_start must be < char_end, got [{self.char_start}, {self.char_end})"
            )
        if not isinstance(self.section, Section):
            raise ValueError(f"section must be a Section, got {self.section!r}")


_CODE_SECTIONS = {"h": Section.HEADER, "b": Section.BODY, "f": Section.FOOTER}


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise NativeSchemaError(path, message)


def record_to_document_reference(record: dict) -> AnnotatedDocument:
    """Native record decoder that formats every path and checks item by item."""
    _expect(isinstance(record, dict), "$", "record must be an object")
    _expect(isinstance(record.get("id"), str), "$.id", "thread id must be a string")
    _expect(isinstance(record.get("messages"), list), "$.messages", "must be a list")
    messages = []
    for i, rec in enumerate(record["messages"]):
        path = f"$.messages[{i}]"
        _expect(isinstance(rec, dict), path, "must be an object")
        _expect(isinstance(rec.get("sentences"), list), f"{path}.sentences", "must be a list")
        date = None
        if rec.get("date") is not None:
            try:
                date = datetime.fromisoformat(rec["date"])
            except (TypeError, ValueError):
                raise NativeSchemaError(f"{path}.date", f"bad timestamp {rec['date']!r}") from None
        sentences = []
        for si, sent in enumerate(rec["sentences"]):
            spath = f"{path}.sentences[{si}]"
            _expect(isinstance(sent, list) and sent, spath, "must be a nonempty list")
            toks = []
            for ti, item in enumerate(sent):
                tpath = f"{spath}[{ti}]"
                _expect(
                    isinstance(item, list) and len(item) == 4, tpath,
                    "token must be [text, section, char_start, char_end]",
                )
                text, code, cs, ce = item
                _expect(code in _CODE_SECTIONS, tpath, f"unknown section code {code!r}")
                try:
                    toks.append(
                        ReferenceToken(
                            text=text,
                            sentence_index=si,
                            token_index=ti,
                            message_index=i,
                            section=_CODE_SECTIONS[code],
                            char_start=cs,
                            char_end=ce,
                        )
                    )
                except (TypeError, ValueError) as exc:
                    raise NativeSchemaError(tpath, str(exc)) from None
            sentences.append(tuple(toks))
        try:
            messages.append(
                EmailMessage(
                    index=i,
                    date=date,
                    from_addr=rec.get("from"),
                    to_addrs=tuple(rec.get("to", [])),
                    cc_addrs=tuple(rec.get("cc", [])),
                    subject=rec.get("subject"),
                    x_from=rec.get("x_from"),
                    x_to=tuple(rec.get("x_to", [])),
                    x_cc=tuple(rec.get("x_cc", [])),
                    sentences=tuple(sentences),
                )
            )
        except (TypeError, ValueError) as exc:
            raise NativeSchemaError(path, str(exc)) from None
    try:
        thread = EmailThread(
            id=record["id"], messages=tuple(messages), source_path=record.get("source_path")
        )
    except (TypeError, ValueError) as exc:
        raise NativeSchemaError("$", str(exc)) from None

    chains = []
    _expect(isinstance(record.get("chains", []), list), "$.chains", "must be a list")
    for ci, rec in enumerate(record.get("chains", [])):
        path = f"$.chains[{ci}]"
        _expect(isinstance(rec, dict), path, "must be an object")
        _expect(isinstance(rec.get("id"), int), f"{path}.id", "chain id must be an int")
        _expect(
            isinstance(rec.get("mentions"), list) and rec["mentions"],
            f"{path}.mentions",
            "must be a nonempty list",
        )
        mentions = []
        for mi, item in enumerate(rec["mentions"]):
            mpath = f"{path}.mentions[{mi}]"
            _expect(
                isinstance(item, list) and len(item) in (4, 5),
                mpath,
                "mention must be [message, sentence, start, end, entity_type?]",
            )
            etype = None
            if len(item) == 5 and item[4] is not None:
                try:
                    etype = EntityType(item[4])
                except ValueError:
                    raise NativeSchemaError(mpath, f"unknown entity type {item[4]!r}") from None
            try:
                mentions.append(Mention(item[0], item[1], item[2], item[3], etype))
            except (TypeError, ValueError) as exc:
                raise NativeSchemaError(mpath, str(exc)) from None
        try:
            chains.append(CoreferenceChain(chain_id=rec["id"], mentions=tuple(mentions)))
        except ValueError as exc:
            raise NativeSchemaError(path, str(exc)) from None
    return AnnotatedDocument(thread=thread, chains=tuple(chains))


def _muc_half_reference(chains, others) -> tuple[float, float]:
    """One role of MUC by counting the partitions of each chain: one per chain
    of the other side holding its mentions (the last such chain, for a mention
    in several), plus one per mention the other side lacks."""
    membership = {m: i for i, chain in enumerate(others) for m in chain}
    num = 0.0
    den = 0.0
    for chain in chains:
        partitions = set()
        absent = 0
        for m in chain:
            if m in membership:
                partitions.add(membership[m])
            else:
                absent += 1
        num += len(chain) - (len(partitions) + absent)
        den += len(chain) - 1
    return num, den


def muc_parts_reference(key, response) -> "_metrics.MetricParts":
    """MUC parts from a mention-to-chain membership map."""
    k = _metrics.as_chain_sets(key)
    r = _metrics.as_chain_sets(response)
    r_num, r_den = _muc_half_reference(k, r)
    p_num, p_den = _muc_half_reference(r, k)
    return _metrics.MetricParts(p_num, p_den, r_num, r_den)


def _b3_half_reference(chains, others) -> tuple[float, float]:
    """One role of B³ by intersecting each mention's chain with the other side's
    chain that holds it (the last such chain, for a mention in several)."""
    membership = {m: i for i, chain in enumerate(others) for m in chain}
    num = 0.0
    count = 0
    for chain in chains:
        for m in chain:
            count += 1
            other = others[membership[m]] if m in membership else frozenset()
            num += len(chain & other) / len(chain)
    return num, float(count)


def b_cubed_parts_reference(key, response) -> "_metrics.MetricParts":
    """B³ parts by one chain intersection per mention."""
    k = _metrics.as_chain_sets(key)
    r = _metrics.as_chain_sets(response)
    r_num, r_den = _b3_half_reference(k, r)
    p_num, p_den = _b3_half_reference(r, k)
    return _metrics.MetricParts(p_num, p_den, r_num, r_den)


def _lea_half_reference(chains, others) -> tuple[float, float]:
    num = 0.0
    den = 0.0
    for chain in chains:
        den += len(chain)
        if len(chain) == 1:
            resolved = 1.0 if any(chain <= o and len(o) == 1 for o in others) else 0.0
            links = 1.0
        else:
            resolved = sum(_link_count(len(chain & o)) for o in others)
            links = _link_count(len(chain))
        num += len(chain) * resolved / links
    return num, den


def _link_count(size: int) -> float:
    return size * (size - 1) / 2.0


def lea_parts_reference(key, response) -> "_metrics.MetricParts":
    """LEA parts by intersecting every key chain with every response chain."""
    k = _metrics.as_chain_sets(key)
    r = _metrics.as_chain_sets(response)
    r_num, r_den = _lea_half_reference(k, r)
    p_num, p_den = _lea_half_reference(r, k)
    return _metrics.MetricParts(p_num, p_den, r_num, r_den)


def align_chains_reference(key, response) -> tuple[tuple[int, int], ...]:
    """Alignment pairs by a scan over every response chain per key chain."""
    pairs = []
    for kc in key:
        k_set = set(kc.mentions)
        best: Optional[CoreferenceChain] = None
        best_overlap = 0
        for rc in response:
            overlap = len(k_set & set(rc.mentions))
            if overlap == 0:
                continue
            if (
                best is None
                or overlap > best_overlap
                or (
                    overlap == best_overlap
                    and (len(rc) > len(best) or (len(rc) == len(best) and rc.chain_id < best.chain_id))
                )
            ):
                best = rc
                best_overlap = overlap
        if best is not None:
            pairs.append((kc.chain_id, best.chain_id))
    return tuple(pairs)


def _lookup(pairs, key_chain_id):
    for k, r in pairs:
        if k == key_chain_id:
            return r
    return None


def categorize_errors_reference(thread, key, response) -> "_errors.ErrorReport":
    """Error counts with a set intersection for every key x response chain pair."""
    key_to_resp = align_chains_reference(key, response)
    resp_to_key = align_chains_reference(response, key)
    resp_by_id = {c.chain_id: c for c in response}
    key_by_id = {c.chain_id: c for c in key}
    is_pronoun, in_header = _errors._is_pronoun_mention, _errors._in_header

    missing_pronoun = missing_header = missing_other = 0
    missing_chains = 0
    incorrect_pronoun = incorrect_other = 0
    decomposed = 0
    new_chains = 0

    for kc in key:
        aligned_id = _lookup(key_to_resp, kc.chain_id)
        if aligned_id is None:
            missing_chains += 1
        else:
            aligned = set(resp_by_id[aligned_id].mentions)
            for m in kc.mentions:
                if m in aligned:
                    continue
                if is_pronoun(thread, m):
                    missing_pronoun += 1
                elif in_header(thread, m):
                    missing_header += 1
                else:
                    missing_other += 1
        k_set = set(kc.mentions)
        touched = sum(1 for rc in response if k_set & set(rc.mentions))
        if touched >= 2:
            decomposed += 1
            new_chains += touched

    for rc in response:
        aligned_id = _lookup(resp_to_key, rc.chain_id)
        if aligned_id is None:
            continue
        aligned = set(key_by_id[aligned_id].mentions)
        for m in rc.mentions:
            if m in aligned:
                continue
            if is_pronoun(thread, m):
                incorrect_pronoun += 1
            else:
                incorrect_other += 1

    return _errors.ErrorReport(
        missing_pronoun_refs=missing_pronoun,
        missing_header_refs=missing_header,
        missing_other_refs=missing_other,
        missing_chains=missing_chains,
        incorrect_pronoun_refs=incorrect_pronoun,
        incorrect_other_refs=incorrect_other,
        decomposed_chain_count=decomposed,
        new_chain_count=new_chains,
    )


def skeleton_document_reference(doc_id, sentences, chains) -> AnnotatedDocument:
    """A CoNLL document built through the checked constructors: every token by
    ``Token``, the message and the thread by theirs."""
    offset = 0
    token_sentences = []
    for si, words in enumerate(sentences):
        toks = []
        for ti, word in enumerate(words):
            toks.append(
                Token(
                    text=word,
                    sentence_index=si,
                    token_index=ti,
                    message_index=0,
                    section=Section.BODY,
                    char_start=offset,
                    char_end=offset + len(word),
                )
            )
            offset += len(word) + 1
        token_sentences.append(tuple(toks))
    message = EmailMessage(index=0, sentences=tuple(token_sentences))
    thread = EmailThread(id=doc_id, messages=(message,))
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
    return AnnotatedDocument(thread=thread, chains=chain_objs)


_HEX_CHARS = set("0123456789abcdefABCDEF \n")
_HEX_DIGITS = set("0123456789abcdefABCDEF")


def detect_invalid_attachment_reference(thread, config=_filtering.DEFAULT_FILTER_CONFIG) -> bool:
    """The hex-attachment check by walking each body character by character."""
    for msg in thread.messages:
        body = body_text_reference(msg)
        i, n = 0, len(body)
        while i < n:
            if body[i] not in _HEX_CHARS:
                i += 1
                continue
            j = i
            while j < n and body[j] in _HEX_CHARS:
                j += 1
            run = body[i:j]
            if len(run) >= config.hex_min_run:
                digits = sum(1 for c in run if c in _HEX_DIGITS)
                if digits / len(run) >= config.hex_min_fraction:
                    return True
            i = j
    return False


def tokenize_line_reference(line: str, line_offset: int) -> list[tuple[str, int, int]]:
    """Every whitespace-delimited chunk through the chunk splitter."""
    toks = []
    for m in re.finditer(r"\S+", line):
        toks.extend(_parsing._split_chunk(m.group(), line_offset + m.start()))
    return toks


def sentence_split_reference(text: str, sections=None) -> tuple[tuple[Token, ...], ...]:
    """Sentences of checked Tokens: a body sentence ends after an all-terminal
    token, a header or footer line is one sentence."""
    lines = []
    offset = 0
    for raw in text.splitlines(keepends=True):
        lines.append((raw.rstrip("\r\n"), offset))
        offset += len(raw)
    if sections is None:
        sections = [Section.BODY] * len(lines)
    raw_sentences = []
    body = []
    for (line, offset), section in zip(lines, sections):
        toks = tokenize_line_reference(line, offset)
        if section is Section.BODY:
            for tok in toks:
                body.append(tok)
                if re.match(r"^[.?!]+$", tok[0]):
                    raw_sentences.append((Section.BODY, body))
                    body = []
        else:
            if body:
                raw_sentences.append((Section.BODY, body))
                body = []
            if toks:
                raw_sentences.append((section, toks))
    if body:
        raw_sentences.append((Section.BODY, body))
    return tuple(
        tuple(Token(t, si, ti, 0, section, cs, ce) for ti, (t, cs, ce) in enumerate(toks))
        for si, (section, toks) in enumerate(raw_sentences)
    )


def has_marker_reference(line: str, markers) -> bool:
    folded = line.casefold()
    return any(marker in folded for marker in markers)


def footer_region_start_reference(lines, header_end: int, markers) -> int:
    for j in range(header_end, len(lines)):
        if has_marker_reference(lines[j], markers):
            return j
    return len(lines)


def body_text_reference(msg) -> str:
    """Body reconstructed from tokens: spaces within a sentence, newlines between."""
    parts = []
    for sentence in msg.sentences:
        words = [t.text for t in sentence if t.section is Section.BODY]
        if words:
            parts.append(" ".join(words))
    return "\n".join(parts)


def fingerprint_message_reference(msg) -> str:
    subject = ""
    if msg.subject:
        stripped = re.sub(r"^\s*((re|fw|fwd)\s*:\s*)+", "", msg.subject, flags=re.IGNORECASE)
        subject = re.sub(r"\s+", " ", stripped).strip().casefold()
    date = msg.date.strftime("%Y-%m-%d %H:%M") if msg.date else ""
    sender = (msg.from_addr or "").casefold()
    body = re.sub(r"\s+", " ", body_text_reference(msg)).strip()
    canonical = "\x1f".join([subject, date, sender, body])
    return hashlib.blake2b(canonical.encode("utf-8"), digest_size=8).hexdigest()


def detect_no_content_reference(thread) -> bool:
    messages = thread.messages
    return sum(1 for m in messages if not any(m.body_tokens())) * 2 > len(messages)


def detect_non_english_reference(thread, config=_filtering.DEFAULT_FILTER_CONFIG) -> bool:
    tokens = [t for m in thread.messages for t in m.body_tokens()]
    if len(tokens) < config.language_min_tokens:
        return False
    hits = sum(1 for t in tokens if t.text.casefold() in config.stopwords)
    return hits / len(tokens) < config.stopword_min_fraction


def summarize_thread_reference(thread, config=_filtering.DEFAULT_FILTER_CONFIG):
    """Each content check over the whole thread on its own, in precedence order."""
    content = None
    if detect_no_content_reference(thread):
        content = _filtering.FilterCategory.NO_CONTENT
    elif detect_invalid_attachment_reference(thread, config):
        content = _filtering.FilterCategory.INVALID_ATTACHMENT
    elif detect_non_english_reference(thread, config):
        content = _filtering.FilterCategory.NON_ENGLISH
    return _filtering.ThreadSummary(
        id=thread.id,
        source_path=thread.source_path,
        fingerprints=Counter(fingerprint_message_reference(m) for m in thread.messages),
        message_count=len(thread.messages),
        content=content,
    )


def _submultiset_reference(small, big) -> bool:
    return all(big[key] >= count for key, count in small.items())


def is_duplicate_reference(thread_id, own, corpus_index) -> bool:
    """Contained in some other thread of the index; of identical ones, the lowest id survives."""
    for other_id, other in corpus_index.items():
        if other_id != thread_id and _submultiset_reference(own, other):
            if not _submultiset_reference(other, own) or thread_id > other_id:
                return True
    return False


def duplicate_verdicts_reference(summaries, config=_filtering.DEFAULT_FILTER_CONFIG) -> list[bool]:
    """Per summary outside the excluded directories, whether it is a duplicate,
    by scanning every indexed thread."""
    candidates = [s for s in summaries if not _filtering._in_excluded_directory(s.source_path, config)]
    index = {s.id: s.fingerprints for s in candidates}
    return [is_duplicate_reference(s.id, index.get(s.id) or s.fingerprints, index) for s in candidates]


# The header grammar as separate predicates and two walks over one region,
# before one field-name rule and one walk replaced them.
_HEADER_LINE_RE = re.compile(r"^([A-Za-z][A-Za-z0-9-]*)\s*:\s?(.*)$")
_FROM_FIELD_RE = re.compile(r"^from\s*:", re.IGNORECASE)
_DATE_FIELD_RE = re.compile(r"^(date|sent)\s*:", re.IGNORECASE)
_SUBJECT_FIELD_RE = re.compile(r"^subject\s*:", re.IGNORECASE)


def _is_header_line_reference(line: str) -> bool:
    return _HEADER_LINE_RE.match(line) is not None


def starts_fresh_header_block_reference(lines, i: int) -> bool:
    """A From: line opening a run of at most 10 header lines with Date:/Sent: and Subject:."""
    if not _FROM_FIELD_RE.match(lines[i]):
        return False
    run = []
    for line in lines[i : i + 10]:
        if not _is_header_line_reference(line):
            break
        run.append(line)
    has_date = any(_DATE_FIELD_RE.match(l) for l in run)
    has_subject = any(_SUBJECT_FIELD_RE.match(l) for l in run)
    return has_date and has_subject


def split_messages_reference(raw, config=_parsing.DEFAULT_CONFIG) -> list[tuple[str, int]]:
    if not raw.text.strip():
        raise _parsing.UnparseableThread(f"thread {raw.id}: empty text")
    lines = _parsing._lines_with_offsets(raw.text)
    texts = [l for l, _ in lines]
    known = (_HEADER_LINE_RE.match(l) for l in texts)
    if not any(m is not None and m.group(1).casefold() in _parsing._KNOWN_FIELDS for m in known):
        raise _parsing.UnparseableThread(f"thread {raw.id}: no header block found")
    boundaries = [0]
    for i in range(1, len(texts)):
        line = texts[i]
        if not (_parsing._is_separator(line, config) or starts_fresh_header_block_reference(texts, i)):
            continue
        segment = texts[boundaries[-1] : i]
        if all(not l.strip() or _parsing._is_separator(l, config) for l in segment):
            continue
        boundaries.append(i)
    slices = []
    for k, start_line in enumerate(boundaries):
        end_line = boundaries[k + 1] if k + 1 < len(boundaries) else len(lines)
        start_char = lines[start_line][1]
        end_char = lines[end_line][1] if end_line < len(lines) else len(raw.text)
        slices.append((raw.text[start_char:end_char], start_char))
    return slices


def header_region_end_reference(lines, config=_parsing.DEFAULT_CONFIG) -> int:
    """Leading separator/blank lines, then header lines and their folded continuations."""
    i = 0
    n = len(lines)
    while i < n and (not lines[i].strip() or _parsing._is_separator(lines[i], config)):
        i += 1
    saw_header = False
    while i < n:
        line = lines[i]
        if _is_header_line_reference(line):
            saw_header = True
            i += 1
        elif saw_header and line[:1] in (" ", "\t") and line.strip():
            i += 1
        else:
            break
    return i if saw_header else 0


def assign_sections_reference(message_text: str, config=_parsing.DEFAULT_CONFIG) -> list[Section]:
    lines = message_text.splitlines()
    header_end = header_region_end_reference(lines, config)
    footer_start = footer_region_start_reference(lines, header_end, config.footer_markers)
    return (
        [Section.HEADER] * header_end
        + [Section.BODY] * (footer_start - header_end)
        + [Section.FOOTER] * (len(lines) - footer_start)
    )


def parse_header_reference(message_text: str, config=_parsing.DEFAULT_CONFIG) -> "_parsing.HeaderFields":
    """The fields of the region's lines, read in a second walk over the region."""
    lines = message_text.splitlines()
    header_end = header_region_end_reference(lines, config)
    fields: dict[str, str] = {}
    current: Optional[str] = None
    for line in lines[:header_end]:
        if _parsing._is_separator(line, config) or not line.strip():
            continue
        m = _HEADER_LINE_RE.match(line)
        if m:
            current = m.group(1).casefold()
            value = m.group(2).strip()
            if current in fields and value:
                fields[current] = f"{fields[current]}, {value}"
            elif current not in fields:
                fields[current] = value
        elif current and line[:1] in (" ", "\t"):
            fields[current] = (fields.get(current, "") + " " + line.strip()).strip()

    date = None
    for key in ("date", "sent"):
        if key in fields:
            try:
                date = parsedate_to_datetime(fields[key])
                break
            except (TypeError, ValueError):
                continue
    from_addr = None
    if fields.get("from"):
        value = fields["from"]
        if "<" in value:
            _, addr = parseaddr(value)
            from_addr = addr or value.strip()
        else:
            from_addr = value.strip()
    split = _parsing.split_address_list
    return _parsing.HeaderFields(
        date=date,
        from_addr=from_addr,
        to_addrs=split(fields.get("to", "")),
        cc_addrs=split(fields.get("cc", "")),
        subject=fields.get("subject") or None,
        x_from=fields.get("x-from") or None,
        x_to=split(fields.get("x-to", "")),
        x_cc=split(fields.get("x-cc", "")),
    )
