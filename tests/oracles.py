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
whole corpus per thread, the header grammar of separate line
predicates read by a region walk and a second field walk, and the thread
parser that ran the four stage functions one after another, each
splitting its message slice into lines again, the CoNLL line reader that
stripped every line and tested it against each marker prefix, and the
chain sets, overlap rows, error categorizer and correction bookkeeping
keyed by the mentions themselves rather than by their locations, the
``resolve`` and ``features`` lines that decoded and re-encoded the whole
record, the date reorder that moved a thread's tokens message by message,
and the ``errors`` report over fully decoded key threads.
Differential tests require the package to agree with them. They share the
package's unchanged helpers (model types, the metric halves, the chunk
splitter, the address-list splitter).

At the end are test helpers that the package does not need: absolute
token addresses of mentions, which tests compare across a CoNLL round trip.
"""
from __future__ import annotations

import hashlib
import re
from collections import Counter, defaultdict
from datetime import datetime
from email.utils import parsedate_to_datetime, parseaddr
from fractions import Fraction
from itertools import combinations, permutations
from typing import Optional

from threadcoref import baselines as _baselines
from threadcoref import errors as _errors
from threadcoref import filtering as _filtering
from threadcoref import metrics as _metrics
from threadcoref import parsing as _parsing
from threadcoref import wordlists as _wordlists
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
    mention_tokens,
)
from threadcoref import serialization as _serialization
from threadcoref.serialization import MalformedColumn, NativeSchemaError


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


def as_chain_sets_mention_keyed(chains) -> list[frozenset]:
    """Chains as frozensets of their members themselves, each ``Mention``
    compared through ``Mention.__eq__``, in canonical order."""
    out = []
    for chain in chains:
        if isinstance(chain, CoreferenceChain):
            out.append(frozenset(chain.mentions))
        else:
            out.append(frozenset(chain))
    out = [c for c in out if c]
    out.sort(key=_chain_order_mention_keyed)
    return out


def _chain_order_mention_keyed(chain: frozenset) -> tuple[int, list]:
    return len(chain), sorted(
        (0, m.location) if isinstance(m, Mention) else (1, repr(m)) for m in chain
    )


def overlap_rows_mention_keyed(k, r) -> list[dict[int, int]]:
    """Overlap rows with the members themselves as dict keys."""
    owners: dict = {}
    for j, chain in enumerate(r):
        for m in chain:
            owners.setdefault(m, []).append(j)
    rows = []
    for chain in k:
        row: dict[int, int] = {}
        for m in chain:
            for j in owners.get(m, ()):
                row[j] = row.get(j, 0) + 1
        rows.append(row)
    return rows


def metric_parts_mention_keyed(key, response) -> tuple:
    """(MUC, B³, CEAFE, LEA) parts from the package's halves over the
    mention-keyed chain sets and overlap rows."""
    k = as_chain_sets_mention_keyed(key)
    r = as_chain_sets_mention_keyed(response)
    rows = overlap_rows_mention_keyed(k, r)
    table = (k, r, rows, _metrics.transpose_rows(rows, len(r)))
    return (
        _metrics._two_sided(_metrics._muc_half, *table),
        _metrics._two_sided(_metrics._b3_half, *table),
        _metrics._ceaf_e(k, r, rows),
        _metrics._two_sided(_metrics._lea_half, *table),
    )


def align_chains_mention_keyed(key, response) -> "_errors.ChainAlignment":
    rows = overlap_rows_mention_keyed([set(c.mentions) for c in key], [set(c.mentions) for c in response])
    return _errors._alignment(key, response, rows)


def _is_pronoun_mention_reference(thread, mention) -> bool:
    """A single-token mention whose token's casefolded text is a pronoun, read from the thread's tokens."""
    if mention.start_token != mention.end_token:
        return False
    return mention_tokens(thread, mention)[0].text.casefold() in _wordlists.ALL_PRONOUNS


def _in_header_reference(thread, mention) -> bool:
    return mention_tokens(thread, mention)[0].section is Section.HEADER


def categorize_errors_mention_keyed(thread, key, response) -> "_errors.ErrorReport":
    """The error categorizer over overlap rows, with mention sets."""
    key_sets = [set(c.mentions) for c in key]
    resp_sets = [set(c.mentions) for c in response]
    rows = overlap_rows_mention_keyed(key_sets, resp_sets)
    key_to_resp = _errors._alignment(key, response, rows).mapping()
    resp_to_key = _errors._alignment(response, key, _metrics.transpose_rows(rows, len(response))).mapping()
    resp_index = {c.chain_id: j for j, c in enumerate(response)}
    key_index = {c.chain_id: i for i, c in enumerate(key)}
    is_pronoun, in_header = _is_pronoun_mention_reference, _in_header_reference
    counts = dict.fromkeys(_errors.ErrorReport._fields, 0)
    for kc, row in zip(key, rows):
        aligned_id = key_to_resp.get(kc.chain_id)
        if aligned_id is None:
            counts["missing_chains"] += 1
        else:
            aligned = resp_sets[resp_index[aligned_id]]
            for m in kc.mentions:
                if m in aligned:
                    continue
                if is_pronoun(thread, m):
                    counts["missing_pronoun_refs"] += 1
                elif in_header(thread, m):
                    counts["missing_header_refs"] += 1
                else:
                    counts["missing_other_refs"] += 1
        if len(row) >= 2:
            counts["decomposed_chain_count"] += 1
            counts["new_chain_count"] += len(row)
    for rc in response:
        aligned_id = resp_to_key.get(rc.chain_id)
        if aligned_id is None:
            continue
        aligned = key_sets[key_index[aligned_id]]
        for m in rc.mentions:
            if m in aligned:
                continue
            if is_pronoun(thread, m):
                counts["incorrect_pronoun_refs"] += 1
            else:
                counts["incorrect_other_refs"] += 1
    return _errors.ErrorReport(**counts)


def _span_overlap_mention_keyed(a: Mention, b: Mention) -> int:
    if (a.message_index, a.sentence_index) != (b.message_index, b.sentence_index):
        return 0
    lo = max(a.start_token, b.start_token)
    hi = min(a.end_token, b.end_token)
    return max(0, hi - lo + 1)


def correction_stats_mention_keyed(predicted, gold) -> "_metrics.CorrectionStats":
    """Correction bookkeeping with mention sets, sorted by ``Mention.__lt__``."""
    pred = set(predicted)
    gold_set = set(gold)
    unchanged = pred & gold_set
    open_pred = sorted(pred - unchanged)
    open_gold = sorted(gold_set - unchanged)
    pairs = []
    for p in open_pred:
        for g in open_gold:
            overlap = _span_overlap_mention_keyed(p, g)
            if overlap > 0:
                pairs.append((-overlap, p, g))
    pairs.sort()
    used_pred: set = set()
    used_gold: set = set()
    corrected = 0
    for _, p, g in pairs:
        if p in used_pred or g in used_gold:
            continue
        used_pred.add(p)
        used_gold.add(g)
        corrected += 1
    return _metrics.CorrectionStats(
        added=len(open_gold) - corrected,
        corrected=corrected,
        deleted=len(open_pred) - corrected,
        unchanged=len(unchanged),
    )


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
    k = as_chain_sets_mention_keyed(key)
    r = as_chain_sets_mention_keyed(response)
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
    k = as_chain_sets_mention_keyed(key)
    r = as_chain_sets_mention_keyed(response)
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
    k = as_chain_sets_mention_keyed(key)
    r = as_chain_sets_mention_keyed(response)
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
    is_pronoun, in_header = _is_pronoun_mention_reference, _in_header_reference

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


def iter_conll_documents_reference(lines):
    """The CoNLL line reader that strips every line and tests it against each
    marker prefix in turn, yielding each document at its ``#end document``.

    Every line is checked, and no token is built: each document, whose thread
    holds no message, comes with the words of its sentences and the number
    of its ``#begin document`` line. A span that a
    document holds twice, in one chain or in two, is an error at the line
    that closes its second copy.
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
            if "(" not in stripped or ")" not in stripped.split("(", 1)[1]:
                raise MalformedColumn(line_no, "malformed #begin document line")
            doc_id = stripped.split("(", 1)[1].split(")", 1)[0]
            begin, sentences, current, owners, open_spans = line_no, [], [], {}, {}
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
            yield _serialization._chains_document(doc_id, chains), sentences, begin
            doc_id = None
            continue
        if stripped.startswith("#"):
            continue
        if not stripped:
            close_sentence()
            continue
        if doc_id is None:
            # a byte order mark hides the "#" of the line it starts
            if stripped.startswith("\ufeff"):
                raise MalformedColumn(line_no, "unexpected UTF-8 byte order mark")
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


_HEX_CHARS = set("0123456789abcdefABCDEF \n")
_HEX_DIGITS = set("0123456789abcdefABCDEF")


def detect_invalid_attachment_reference(thread, min_run=512, min_fraction=0.95) -> bool:
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
            if len(run) >= min_run:
                digits = sum(1 for c in run if c in _HEX_DIGITS)
                if digits / len(run) >= min_fraction:
                    return True
            i = j
    return False


def tokenize_line_reference(line: str, line_offset: int) -> list[tuple[str, int, int]]:
    """Every whitespace-delimited chunk through the chunk splitter."""
    toks = []
    for m in re.finditer(r"\S+", line):
        toks.extend(_parsing._split_chunk(m.group(), line_offset + m.start()))
    return toks


def sentence_split_reference(
    text: str, sections=None, message_index: int = 0, base_offset: int = 0
) -> tuple[tuple[Token, ...], ...]:
    """Sentences of checked Tokens: a body sentence ends after an all-terminal
    token, a header or footer line is one sentence."""
    lines = lines_with_offsets_reference(text)
    if sections is None:
        sections = [Section.BODY] * len(lines)
    raw_sentences = []
    body = []
    for (line, offset), section in zip(lines, sections):
        toks = tokenize_line_reference(line, base_offset + offset)
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
        tuple(Token(t, si, ti, message_index, section, cs, ce) for ti, (t, cs, ce) in enumerate(toks))
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
    return sum(1 for m in messages if not any(t.section is Section.BODY for t in m.tokens())) * 2 > len(messages)


def detect_non_english_reference(thread, min_tokens=50, min_fraction=0.02) -> bool:
    tokens = [t for m in thread.messages for t in m.tokens() if t.section is Section.BODY]
    if len(tokens) < min_tokens:
        return False
    hits = sum(1 for t in tokens if t.text.casefold() in _wordlists.ENGLISH_STOPWORDS)
    return hits / len(tokens) < min_fraction


def summarize_thread_reference(thread, hex_run=512, hex_fraction=0.95, min_tokens=50, stopword_fraction=0.02):
    """Each content check over the whole thread on its own, in precedence order."""
    content = None
    if detect_no_content_reference(thread):
        content = _filtering.FilterCategory.NO_CONTENT
    elif detect_invalid_attachment_reference(thread, hex_run, hex_fraction):
        content = _filtering.FilterCategory.INVALID_ATTACHMENT
    elif detect_non_english_reference(thread, min_tokens, stopword_fraction):
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


def duplicate_verdicts_reference(summaries) -> list[bool]:
    """Per summary outside the excluded directories, whether it is a duplicate,
    by scanning every indexed thread."""
    candidates = [s for s in summaries if not _filtering._in_excluded_directory(s.source_path)]
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


def lines_with_offsets_reference(text: str) -> list[tuple[str, int]]:
    """Each line of ``text`` with only its "\r" and "\n" cut off, and its offset."""
    lines = []
    offset = 0
    for raw in text.splitlines(keepends=True):
        lines.append((raw.rstrip("\r\n"), offset))
        offset += len(raw)
    return lines


def split_messages_reference(raw, config=_parsing.DEFAULT_CONFIG) -> list[tuple[str, int]]:
    if not raw.text.strip():
        raise _parsing.UnparseableThread(f"thread {raw.id}: empty text")
    lines = lines_with_offsets_reference(raw.text)
    texts = [l for l, _ in lines]
    known = (_HEADER_LINE_RE.match(l) for l in texts)
    if not any(m is not None and m.group(1).casefold() in _parsing._KNOWN_FIELDS for m in known):
        raise _parsing.UnparseableThread(f"thread {raw.id}: no header block found")
    boundaries = [0]
    for i in range(1, len(texts)):
        line = texts[i]
        if not (
            has_marker_reference(line, config.separator_markers) or starts_fresh_header_block_reference(texts, i)
        ):
            continue
        segment = texts[boundaries[-1] : i]
        if all(not l.strip() or has_marker_reference(l, config.separator_markers) for l in segment):
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
    while i < n and (not lines[i].strip() or has_marker_reference(lines[i], config.separator_markers)):
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
    """The fields of the region's lines, read in a second walk over the region.

    The date is as email.utils reads it, which keeps the hour of a 12-hour
    time as written; the differential tests generate no AM/PM dates."""
    lines = message_text.splitlines()
    header_end = header_region_end_reference(lines, config)
    fields: dict[str, str] = {}
    current: Optional[str] = None
    for line in lines[:header_end]:
        if has_marker_reference(line, config.separator_markers) or not line.strip():
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


def parse_thread_reference(raw, config=_parsing.DEFAULT_CONFIG) -> EmailThread:
    """The stages one after another, each reading its message slice again: cut
    the thread into slices, then label, read the header of and tokenize each
    slice, and build the thread through the checked constructors."""
    messages = []
    for i, (text, offset) in enumerate(split_messages_reference(raw, config)):
        sentences = sentence_split_reference(text, assign_sections_reference(text, config), i, offset)
        fields = parse_header_reference(text, config)._asdict()
        messages.append(EmailMessage(index=i, sentences=sentences, **fields))
    return EmailThread(raw.id, tuple(messages), raw.source_path)


def _normalize_mention_words_reference(thread, mention) -> frozenset[str]:
    words: set[str] = set()
    for tok in mention_tokens(thread, mention):
        text = tok.text.casefold()
        if "@" in text:
            local = text.split("@", 1)[0]
            words.update(w for w in re.split(r"[\W_]+", local) if w)
        else:
            words.update(w for w in re.split(r"[\W_]+", text) if w)
    return frozenset(w for w in words if w not in _wordlists.ENGLISH_STOPWORDS)


def _chain_overlapping_mentions_reference(thread, mentions) -> list[tuple[Mention, ...]]:
    order = sorted(set(mentions), key=mention_order)
    uf = _baselines._UnionFind(len(order))
    by_word: dict[str, list[int]] = defaultdict(list)
    for i, mention in enumerate(order):
        if mention_tokens(thread, mention)[0].section is Section.FOOTER:
            continue
        for word in _normalize_mention_words_reference(thread, mention):
            by_word[word].append(i)
    for indices in by_word.values():
        for other in indices[1:]:
            uf.union(indices[0], other)
    groups = sorted(uf.groups().values(), key=lambda idxs: min(idxs))
    return [tuple(order[i] for i in sorted(idxs)) for idxs in groups]


def _build_participant_index_reference(thread, mentions) -> "_baselines.ParticipantIndex":
    senders: dict[int, list[Mention]] = defaultdict(list)
    recipients: dict[int, list[Mention]] = defaultdict(list)
    for mention in sorted(set(mentions), key=mention_order):
        if _baselines.mention_pronoun_class(thread, mention) is not _baselines.PronounClass.OTHER:
            continue
        tokens = mention_tokens(thread, mention)
        if tokens[0].section is not Section.HEADER:
            continue
        sentence = thread.sentence(mention.message_index, mention.sentence_index)
        field = _baselines.header_field_of_sentence(sentence)
        if field in _baselines.SENDER_FIELDS:
            senders[mention.message_index].append(mention)
        elif field in _baselines.RECIPIENT_FIELDS:
            recipients[mention.message_index].append(mention)

    entries = []
    for i in range(len(thread.messages)):
        sender_words = [_normalize_mention_words_reference(thread, s) for s in senders.get(i, [])]
        pronoun_recipients = tuple(
            r
            for r in recipients.get(i, [])
            if not any(
                words and words == _normalize_mention_words_reference(thread, r)
                for words in sender_words
            )
        )
        entries.append(
            _baselines.MessageParticipants(
                senders=tuple(senders.get(i, [])),
                recipients=tuple(recipients.get(i, [])),
                pronoun_recipients=pronoun_recipients,
            )
        )
    return _baselines.ParticipantIndex(by_message=tuple(entries))


def resolve_reference(thread, mentions, plural_as_thread_chain: bool) -> "_baselines.Resolution":
    """The header baselines stage after stage: overlap chaining, the
    participant index, then pronoun linking, each sorting and deduplicating
    the mentions through their hash and looking their tokens up again."""
    PronounClass, UnresolvedPronoun = _baselines.PronounClass, _baselines.UnresolvedPronoun
    order = sorted(set(mentions), key=mention_order)
    index_of = {m: i for i, m in enumerate(order)}
    uf = _baselines._UnionFind(len(order))
    unresolved: list = []

    classes = {m: _baselines.mention_pronoun_class(thread, m) for m in order}
    in_footer = {
        m: mention_tokens(thread, m)[0].section is Section.FOOTER for m in order
    }
    non_pronominal = [m for m in order if classes[m] is PronounClass.OTHER]

    for group in _chain_overlapping_mentions_reference(thread, non_pronominal):
        first = index_of[group[0]]
        for other in group[1:]:
            uf.union(first, index_of[other])

    participants = _build_participant_index_reference(thread, non_pronominal)
    for entry in participants.by_message:
        if len(entry.senders) > 1:
            first = index_of[entry.senders[0]]
            for alias in entry.senders[1:]:
                uf.union(first, index_of[alias])

    plural_root: Optional[int] = None
    for mention in order:
        pclass = classes[mention]
        if pclass is PronounClass.OTHER or in_footer[mention]:
            continue
        entry = participants.by_message[mention.message_index]
        mi = index_of[mention]
        if pclass is PronounClass.FIRST_SINGULAR:
            if entry.senders:
                uf.union(mi, index_of[entry.senders[0]])
            else:
                unresolved.append(
                    UnresolvedPronoun(mention, pclass, "no sender mention in message header")
                )
        elif pclass is PronounClass.SECOND:
            if entry.pronoun_recipients:
                for r in entry.pronoun_recipients:
                    uf.union(mi, index_of[r])
            else:
                unresolved.append(
                    UnresolvedPronoun(mention, pclass, "no recipient mention in message header")
                )
        elif pclass is PronounClass.FIRST_PLURAL:
            if plural_as_thread_chain:
                if plural_root is None:
                    plural_root = mi
                else:
                    uf.union(mi, plural_root)
            else:
                targets = list(entry.senders) + list(entry.pronoun_recipients)
                if targets:
                    for t in targets:
                        uf.union(mi, index_of[t])
                else:
                    unresolved.append(
                        UnresolvedPronoun(mention, pclass, "no participant mention in message header")
                    )

    groups = sorted(uf.groups().values(), key=lambda idxs: min(idxs))
    chains = tuple(
        CoreferenceChain(chain_id=cid, mentions=tuple(order[i] for i in sorted(idxs)))
        for cid, idxs in enumerate(groups)
    )
    return _baselines.Resolution(chains=chains, unresolved=tuple(unresolved))


def resolve_line_reference(line: str, line_no: int, baseline: str) -> str:
    """The output line of ``resolve`` for one input line, by a full decode,
    the public resolver and a full re-encode."""
    doc = _serialization.decode_line(line, line_no)
    resolver = _baselines.resolve_hb1 if baseline == "hb1" else _baselines.resolve_hb2
    chains = resolver(doc.thread, doc.mentions()).chains
    return _serialization.write_native_string([AnnotatedDocument(thread=doc.thread, chains=chains)])


def reverse_document_reference(doc: AnnotatedDocument) -> AnnotatedDocument:
    """``reverse_document`` by the thread-level reorder that moving the native
    record replaced: each message's tokens are built again through the checked
    constructors, shifted so that the message starts one past the end of the
    message before it, or at 0, and each mention moves with its message."""
    # imported here: perfbench/checks.py loads this file, and its process
    # should load no module that its checks do not run
    from threadcoref.features import date_permutation

    perm = date_permutation(doc.thread)
    if perm == list(range(len(perm))):
        return doc
    messages = []
    base = 0
    for new, old in enumerate(sorted(range(len(perm)), key=perm.__getitem__)):
        msg = doc.thread.messages[old]
        shift = base - msg.sentences[0][0].char_start if msg.sentences else 0
        sentences = tuple(
            tuple(t._replace(message_index=new, char_start=t.char_start + shift, char_end=t.char_end + shift)
                  for t in sentence)
            for sentence in msg.sentences
        )
        messages.append(msg._replace(index=new, sentences=sentences))
        if msg.sentences:
            base = msg.sentences[-1][-1].char_end + shift + 1
    chains = tuple(
        CoreferenceChain(c.chain_id, tuple(sorted(m._replace(message_index=perm[m.message_index]) for m in c.mentions)))
        for c in doc.chains
    )
    return AnnotatedDocument(EmailThread(doc.thread.id, tuple(messages), doc.thread.source_path), chains)


def features_line_reference(line: str, line_no: int, features=(), rev: bool = False) -> str:
    """The output line of ``features`` for one input line, by a full decode,
    ``reverse_document_reference`` with ``rev``, and a full re-encode."""
    doc = _serialization.decode_line(line, line_no)
    if rev:
        doc = reverse_document_reference(doc)
    return _serialization.write_native_string([doc], features=features)


def errors_report_reference(key_lines, response_lines) -> "_errors.ErrorReport":
    """The summed error report of ``errors`` on two native files given as
    lines, by ``categorize_errors`` on the key's fully decoded threads."""
    key = _serialization.read_native("\n".join(key_lines))
    response = {doc.thread.id: doc for doc in _serialization.read_native("\n".join(response_lines))}
    total = _errors.ErrorReport()
    for doc in key:
        total = total + _errors.categorize_errors(doc.thread, doc.chains, response[doc.thread.id].chains)
    return total


# ---------------------------------------------------------------------------
# Test helpers: absolute token addresses, which survive the single-message
# skeleton a CoNLL read builds
# ---------------------------------------------------------------------------

def mention_to_absolute(thread, mention) -> tuple[int, int]:
    """Inclusive absolute token indices of a mention in the flattened stream."""
    base = 0
    for mi, si, sentence in _serialization.global_sentences(thread):
        if (mi, si) == (mention.message_index, mention.sentence_index):
            return base + mention.start_token, base + mention.end_token
        base += len(sentence)
    raise ValueError(f"mention {mention.location} addresses no sentence in thread")


def mention_from_absolute(thread, start: int, end: int, entity_type=None) -> Mention:
    """Inverse of mention_to_absolute; the span must stay inside one sentence."""
    base = 0
    for mi, si, sentence in _serialization.global_sentences(thread):
        if start < base + len(sentence):
            if end >= base + len(sentence) or start < base:
                raise ValueError(f"absolute span [{start}, {end}] crosses a sentence boundary")
            return Mention(mi, si, start - base, end - base, entity_type)
        base += len(sentence)
    raise ValueError(f"absolute span [{start}, {end}] exceeds document length")
