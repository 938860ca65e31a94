"""Seeded, deterministic workload generator for the benchmark.

``generate(workload, seed, out_dir, scale)`` writes everything the CLI reads
and everything the checks compare against:

    threads/...        raw maildir-style thread files (the CLI's thread input)
    gold.jsonl         the parsed threads with gold chains (native format)
    response.jsonl     the same threads with seeded, perturbed chains
    gold.conll         gold as CoNLL columns
    response.conll     response as CoNLL columns
    exclude.txt        exclusion fingerprints (a held-out corpus plus planted hits)
    expected.json      planted filter distribution, corpus counts, planted errors

Threads follow the style of the test suite's synthetic threads: a header
block per message, quoted replies behind "-----Original Message-----", and
body sentences with pronoun and entity mentions. Filler sentences come from
``tests/data/corpus10``. Gold chains, filter verdicts and corpus counts are
known by construction; the package is used only to tokenize (so the gold
file addresses real tokens) and to fingerprint the held-out messages.

For one (workload, seed, scale) every byte written is the same.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime
from pathlib import Path

from threadcoref import filtering, serialization, wordlists
from threadcoref.model import AnnotatedDocument, CoreferenceChain, EmailThread, Mention, Section
from threadcoref.parsing import RawThread, parse_thread

WORKLOADS = ("mail_wide", "mail_long", "mail_dups")

ROOT = Path(__file__).resolve().parent.parent
CORPUS10 = ROOT / "tests" / "data" / "corpus10"

FIRST_NAMES = (
    "Alice Bob Carol Dan Eve Frank Grace Heidi Ivan Judy Karl Laura Mike Nora "
    "Oscar Paula Quinn Rita Sam Tina"
).split()
LAST_NAMES = (
    "Johnson Smith Davis Brown Clark Harris Lopez Young King Wright Scott Green "
    "Baker Adams Nelson Hill Ramirez Campbell Mitchell Roberts"
).split()
DOMAINS = ("acme.com", "beta.org", "gamma.net", "delta.io")

# Entity names are PREFIX SUFFIX pairs; no prefix occurs in the filler text,
# so every prefix-suffix pair in a body is a planted mention.
ENTITY_PREFIXES = (
    "Aster Birch Cobalt Dune Ember Fjord Garnet Harbor Iris Jasper Kestrel Lumen "
    "Maple Nimbus Onyx Pebble Quartz Raven Sable Tundra Umber Vesper Willow Xenon "
    "Yarrow Zephyr Alder Basalt Cedar Drift Elm Flint Granite Hazel Indigo Juniper "
    "Kelp Larch Mica Nettle"
).split()
ENTITY_SUFFIXES = (
    "Project Pipeline Plant Venture Fund Desk Terminal Station Contract Account "
    "Portfolio Facility Program Group Partnership Deal Index Field Unit Line"
).split()

ENTITY_PAIRS = frozenset((p, s) for p in ENTITY_PREFIXES for s in ENTITY_SUFFIXES)

MENTION_TEMPLATES = (
    "I will send the {e} summary tomorrow.",
    "Please send me the {e} draft today.",
    "My notes on {e} are attached.",
    "Can you review the {e} numbers?",
    "Your comments on {e} are welcome.",
    "We should discuss {e} next week.",
    "Our group approved the {e} plan.",
    "The {e} report is ready.",
    "Nothing new happened on {e} today.",
    "The {e} team met the {f} staff.",
)
ROLE_OF = {
    "i": "sender", "me": "sender", "my": "sender",
    "you": "recipient", "your": "recipient",
    "we": "plural", "our": "plural",
}
SPANISH_WORDS = (
    "gracias informe completo manana equipo comenzara revision durante semana "
    "adjunto encontraras trimestral cifras actualizadas departamento quedo "
    "pendiente comentarios necesitamos finales antes viernes preparar "
    "presentacion comite directivo favor enviarlas pronto estimado listo lunes "
    "proximo saludos cordiales desde oficina central"
).split()
FOOTER = (
    "This e-mail is confidential. If you are not the intended recipient please\n"
    "delete it and notify the sender."
)
BASE_DATE = datetime(2000, 1, 3, 9, 0, 0, tzinfo=timezone.utc)

# Verdict names in the order of the CLI's filter report.
REPORT_ORDER = tuple(c.value for c in filtering.REPORT_ORDER)


@dataclass(frozen=True)
class Person:
    name: str  # "Last, First"
    addr: str


@dataclass
class Message:
    sender: Person
    recipients: list[Person]
    date: datetime
    subject: str
    body: list[str] = field(default_factory=list)
    footer: bool = False


@dataclass
class ThreadSpec:
    path: str
    messages: list[Message]  # newest first, as the thread file stores them
    kind: str  # normal | copy | fragment | no_content | hex | non_english | exclusion | excluded_dir
    base: int = -1  # index of the conversation a copy/fragment re-emits


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------

def _filler_sentences() -> list[str]:
    """English body sentences from corpus10 that hold no annotatable words."""
    banned = set(ROLE_OF) | {p.casefold() for p in ENTITY_PREFIXES}
    out = []
    for path in sorted(CORPUS10.glob("*.txt")):
        thread = parse_thread(RawThread(id=path.name, text=path.read_text(encoding="utf-8")))
        for msg in thread.messages:
            for sentence in msg.sentences:
                words = [t.text for t in sentence]
                if sentence[0].section is not Section.BODY or words[-1] not in (".", "?"):
                    continue
                folded = {w.casefold() for w in words}
                if folded & banned or not folded & wordlists.ENGLISH_STOPWORDS:
                    continue
                if any("'" in w or (len(w) > 1 and not w.isalpha()) for w in words):
                    continue
                out.append(_render(words))
    return sorted(set(out))


def _render(words: list[str]) -> str:
    text = ""
    for w in words:
        text += w if (not text or w in ".,?!;:") else " " + w
    return text


class _Source:
    """Seeded source of people, entities, dates and message bodies."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.filler = _filler_sentences()
        self.people = [
            Person(f"{last}, {first}", f"{first}.{last}@{DOMAINS[(i + j) % len(DOMAINS)]}".lower())
            for i, first in enumerate(FIRST_NAMES)
            for j, last in enumerate(LAST_NAMES)
        ]
        self.entities = [f"{p} {s}" for p, s in sorted(ENTITY_PAIRS)]
        self.serial = 0

    def conversation(self, n_messages: int, n_people: int, entity_pool: list[str],
                     mention_sentences: tuple[int, int], filler_sentences: tuple[int, int]) -> list[Message]:
        """A fresh conversation, newest message first, with dates unique to the minute."""
        rng = self.rng
        self.serial += 1
        start = BASE_DATE + timedelta(days=3 * self.serial)
        people = rng.sample(self.people, n_people)
        subject = f"{rng.choice(entity_pool)} status"
        messages = []
        for k in range(n_messages):
            sender = rng.choice(people)
            others = [p for p in people if p is not sender]
            recipients = rng.sample(others, rng.randint(1, min(2, len(others))))
            body = [
                rng.choice(MENTION_TEMPLATES).format(e=rng.choice(entity_pool), f=rng.choice(entity_pool))
                for _ in range(rng.randint(*mention_sentences))
            ]
            body += rng.sample(self.filler, rng.randint(*filler_sentences))
            rng.shuffle(body)
            date = start - timedelta(minutes=5 * k + rng.randint(0, 4))
            messages.append(Message(sender, recipients, date, subject, body, footer=rng.random() < 0.1))
        return messages

    def entity_pool(self, size: int) -> list[str]:
        return self.rng.sample(self.entities, size)

    def short_conversation(self, n_messages: int) -> list[Message]:
        return self.conversation(n_messages, self.rng.randint(2, 4), self.entity_pool(8), (1, 3), (0, 2))

    def no_content(self) -> list[Message]:
        messages = self.short_conversation(4)
        for msg in messages[1:]:
            msg.body = []
            msg.footer = False
        return messages

    def hex_attachment(self) -> list[Message]:
        messages = self.short_conversation(3)
        blob = ["".join(self.rng.choice("0123456789abcdef") for _ in range(64)) for _ in range(10)]
        messages[0].body = ["The raw scan dump is below."] + blob
        return messages

    def non_english(self) -> list[Message]:
        messages = self.short_conversation(3)
        for msg in messages:
            words = [self.rng.choice(SPANISH_WORDS) for _ in range(30)]
            msg.body = [" ".join(words[i : i + 10]) for i in range(0, 30, 10)]
            msg.footer = False
        return messages

    def path(self, directory: str = "inbox") -> str:
        user = self.rng.randrange(12)
        return f"u{user:02d}/{directory}/{self.rng.getrandbits(40):010x}.txt"


def _render_thread(messages: list[Message]) -> str:
    blocks = []
    for k, msg in enumerate(messages):
        header = [
            f"From: {msg.sender.addr}",
            f"{'Date' if k == 0 else 'Sent'}: {format_datetime(msg.date)}",
            f"To: {', '.join(r.addr for r in msg.recipients)}",
            f"Subject: {'RE: ' if k < len(messages) - 1 else ''}{msg.subject}",
        ]
        if k == 0:
            header.append(f"X-From: {msg.sender.name}")
            header.append(f"X-To: {'; '.join(r.name for r in msg.recipients)}")
        prefix = [] if k == 0 else ["-----Original Message-----"]
        body = list(msg.body) + ([FOOTER] if msg.footer else [])
        blocks.append("\n".join(prefix + header + [""] + body))
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# Workload shapes
# ---------------------------------------------------------------------------

def _planted_mix(b: _Source, counts: dict[str, int]) -> list[ThreadSpec]:
    """Threads planted for each rejection category the filter knows."""
    specs = []
    for _ in range(counts.get("no_content", 0)):
        specs.append(ThreadSpec(b.path(), b.no_content(), "no_content"))
    for _ in range(counts.get("hex", 0)):
        specs.append(ThreadSpec(b.path(), b.hex_attachment(), "hex"))
    for _ in range(counts.get("non_english", 0)):
        specs.append(ThreadSpec(b.path(), b.non_english(), "non_english"))
    for _ in range(counts.get("exclusion", 0)):
        specs.append(ThreadSpec(b.path(), b.short_conversation(3), "exclusion"))
    for _ in range(counts.get("excluded_dir", 0)):
        directory = b.rng.choice(sorted(wordlists.EXCLUDED_DIRECTORIES))
        specs.append(ThreadSpec(b.path(directory), b.short_conversation(3), "excluded_dir"))
    for _ in range(counts.get("too_short", 0)):
        specs.append(ThreadSpec(b.path(), b.short_conversation(2), "normal"))
    return specs


def _reemit(b: _Source, specs: list[ThreadSpec], base: int, how: str, size: int = 0) -> ThreadSpec:
    """An exact copy, an older-prefix fragment or a nested window of a conversation.

    A nested window has ``size`` messages when given, else a random size.
    """
    messages = specs[base].messages
    n = len(messages)
    if how == "copy":
        picked = list(messages)
    elif how == "prefix":  # the conversation as it stood before its newest k messages
        picked = messages[b.rng.randint(1, n - 1):]
    else:  # nested: an inner window, itself inside some prefix fragment
        lo = b.rng.randint(1, n - 1 - size) if size else b.rng.randint(1, n - 2)
        picked = messages[lo : lo + size] if size else messages[lo : b.rng.randint(lo + 1, n - 1)]
    return ThreadSpec(b.path(), picked, "copy" if how == "copy" else "fragment", base)


def _shape(workload: str, b: _Source, scale: float) -> list[ThreadSpec]:
    rng = b.rng
    if workload == "mail_wide":
        n = round(130 * scale)
        # thread lengths cycle through 1..8, so the corpus size hardly depends on the seed
        lengths = [1 + i % 8 for i in range(round(n * 0.78))]
        rng.shuffle(lengths)
        specs = [
            ThreadSpec(b.path(), b.conversation(k, rng.randint(2, 4), b.entity_pool(10), (1, 3), (0, 2)), "normal")
            for k in lengths
        ]
        specs += _planted_mix(b, dict.fromkeys(("no_content", "hex", "non_english", "exclusion", "excluded_dir"), round(n * 0.02)))
        bases = [i for i, s in enumerate(specs) if s.kind == "normal" and len(s.messages) >= 3]
        for _ in range(round(n * 0.1)):
            specs.append(_reemit(b, specs, rng.choice(bases), rng.choice(("copy", "prefix", "nested"))))
        return specs
    if workload == "mail_long":
        n_threads = 3
        n_messages = max(12, round(120 * scale))
        pool = max(24, round(220 * scale))
        specs = [
            ThreadSpec(b.path(), b.conversation(n_messages, 20, b.entity_pool(pool), (2, 4), (0, 1)), "normal")
            for _ in range(n_threads)
        ]
        specs += _planted_mix(b, dict.fromkeys(("no_content", "hex", "non_english", "exclusion", "excluded_dir", "too_short"), 1))
        specs.append(_reemit(b, specs, 0, "nested", size=4))
        return specs
    if workload == "mail_dups":
        n_bases = round(30 * scale)
        specs = [
            ThreadSpec(b.path(), b.conversation(rng.randint(4, 8), rng.randint(2, 4), b.entity_pool(10), (1, 3), (0, 2)), "normal")
            for _ in range(n_bases)
        ]
        for base in range(n_bases):
            for how in ("copy",) * rng.randint(1, 3) + ("prefix",) * rng.randint(2, 4) + ("nested",) * rng.randint(2, 4):
                specs.append(_reemit(b, specs, base, how))
        specs += _planted_mix(b, dict.fromkeys(("no_content", "hex", "non_english", "exclusion", "excluded_dir", "too_short"), 1))
        return specs
    raise ValueError(f"unknown workload {workload!r}")


def _expected_verdicts(specs: list[ThreadSpec]) -> dict[str, int]:
    """Planted filter distribution, from how each thread was built.

    Threads in excluded directories are dropped before classification. A
    fragment is always a duplicate; of a conversation and its exact copies
    only the lowest id survives.
    """
    groups: dict[int, list[ThreadSpec]] = {}
    for i, spec in enumerate(specs):
        if spec.kind == "normal":
            groups.setdefault(i, []).append(spec)
        elif spec.kind == "copy":
            groups.setdefault(spec.base, []).append(spec)
    counts = dict.fromkeys(REPORT_ORDER, 0)
    for spec in specs:
        if spec.kind == "fragment":
            counts["duplicate"] += 1
        elif spec.kind == "no_content":
            counts["no_content"] += 1
        elif spec.kind == "hex":
            counts["invalid_attachment"] += 1
        elif spec.kind == "non_english":
            counts["non_english"] += 1
        elif spec.kind == "exclusion":
            counts["exclusion_overlap"] += 1
    for members in groups.values():
        survivor = min(members, key=lambda s: s.path)
        counts["duplicate"] += len(members) - 1
        counts["accepted" if len(survivor.messages) >= 4 else "too_short"] += 1
    counts["total"] = sum(counts[c] for c in REPORT_ORDER)
    return counts


# ---------------------------------------------------------------------------
# Gold annotation, response perturbation
# ---------------------------------------------------------------------------

def _gold_chains(thread: EmailThread, spec: ThreadSpec, people: dict) -> tuple[CoreferenceChain, ...]:
    """Chains from construction facts: participants, pronoun roles, entity names."""
    groups: dict[str, list[Mention]] = {}

    def add(key: str, mention: Mention) -> None:
        groups.setdefault(key, []).append(mention)

    for msg, facts in zip(thread.messages, spec.messages):
        for si, sentence in enumerate(msg.sentences):
            words = [t.text for t in sentence]
            section = sentence[0].section
            if section is Section.HEADER and len(words) > 2 and words[1] == ":":
                field_name = words[0].casefold()
                if field_name in ("from", "to"):
                    for ti, w in enumerate(words[2:], start=2):
                        if "@" in w:
                            add(f"person:{w}", Mention(msg.index, si, ti, ti))
                elif field_name in ("x-from", "x-to"):
                    for ti in range(2, len(words) - 2):
                        name = f"{words[ti]}, {words[ti + 2]}"
                        if words[ti + 1] == "," and name in people:
                            add(f"person:{people[name]}", Mention(msg.index, si, ti, ti + 2))
            elif section is Section.BODY:
                for ti, w in enumerate(words):
                    role = ROLE_OF.get(w.casefold())
                    if role == "sender":
                        add(f"person:{facts.sender.addr}", Mention(msg.index, si, ti, ti))
                    elif role == "recipient":
                        add(f"person:{facts.recipients[0].addr}", Mention(msg.index, si, ti, ti))
                    elif role == "plural":
                        add("plural", Mention(msg.index, si, ti, ti))
                    elif ti + 1 < len(words) and (w, words[ti + 1]) in ENTITY_PAIRS:
                        add(f"entity:{w} {words[ti + 1]}", Mention(msg.index, si, ti, ti + 1))
    return tuple(
        CoreferenceChain(cid, tuple(sorted(groups[key]))) for cid, key in enumerate(sorted(groups))
    )


def _perturb(rng: random.Random, doc: AnnotatedDocument) -> tuple[AnnotatedDocument, dict]:
    """Seeded response: split, drop and merge chains; drop, shift and add mentions.

    Each chain takes part in at most one chain-level operation, and chains
    that lose or shift mentions keep at least one exact one, so the planted
    decomposed and missing chains are exactly what the error report counts.
    Shifted and added spans never overlap another span, which keeps the
    response representable in CoNLL columns.
    """
    chains = [list(c.mentions) for c in doc.chains]
    order = list(range(len(chains)))
    rng.shuffle(order)
    n_split = max(1, round(len(chains) * 0.08)) if len(chains) >= 8 else 0
    split = [i for i in order if len(chains[i]) >= 2][:n_split]
    rest = [i for i in order if i not in split]
    dropped = rest[: round(len(chains) * 0.04)]
    rest = rest[len(dropped):]
    n_merge = min(round(len(chains) * 0.04), len(rest) // 2)
    merged = [(rest[2 * k], rest[2 * k + 1]) for k in range(n_merge)]
    others = rest[2 * n_merge:]

    occupied: dict[tuple[int, int], set[int]] = {}
    for chain in chains:
        for m in chain:
            occupied.setdefault((m.message_index, m.sentence_index), set()).update(
                range(m.start_token, m.end_token + 1)
            )
    out: list[list[Mention]] = []
    for i in split:
        cut = rng.randint(1, len(chains[i]) - 1)
        out += [chains[i][:cut], chains[i][cut:]]
    for a, b in merged:
        out.append(chains[a] + chains[b])
    for i in others:
        chain = list(chains[i])
        keep = rng.randrange(len(chain))
        for j in range(len(chain)):
            roll = rng.random()
            if j == keep:
                continue
            if roll < 0.05:
                chain[j] = None
            elif roll < 0.09:
                chain[j] = _shift(doc.thread, chain[j], occupied, rng) or chain[j]
        out.append([m for m in chain if m is not None])
    added = 0
    body = [
        (msg.index, si, len(s)) for msg in doc.thread.messages
        for si, s in enumerate(msg.sentences) if s[0].section is Section.BODY
    ]
    for _ in range(round(sum(map(len, chains)) * 0.03) if body else 0):
        mi, si, n = rng.choice(body)
        t = rng.randrange(n)
        covered = occupied.setdefault((mi, si), set())
        if t in covered:
            continue
        covered.add(t)
        added += 1
        if out and rng.random() < 0.5:
            rng.choice(out).append(Mention(mi, si, t, t))
        else:
            out.append([Mention(mi, si, t, t)])
    response = tuple(
        CoreferenceChain(cid, tuple(c)) for cid, c in enumerate(sorted(sorted(c) for c in out if c))
    )
    planted = {"decomposed_chains": len(split), "missing_chains": len(dropped), "added_mentions": added}
    return AnnotatedDocument(thread=doc.thread, chains=response), planted


def _shift(thread: EmailThread, mention: Mention, occupied: dict, rng: random.Random):
    """A span one token longer or shorter in the same sentence, or None."""
    n = len(thread.sentence(mention.message_index, mention.sentence_index))
    covered = occupied[(mention.message_index, mention.sentence_index)]
    start, end = mention.start_token, mention.end_token
    options = [(start, end + 1, end + 1), (start - 1, end, start - 1)]
    options = [(s, e, new) for s, e, new in options if 0 <= new < n and new not in covered]
    if end > start:
        options.append((start, end - 1, None))
    if not options:
        return None
    s, e, new = rng.choice(options)
    if new is not None:
        covered.add(new)
    return Mention(mention.message_index, mention.sentence_index, s, e)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

@dataclass
class Workload:
    """Paths of the generated files, plus the in-memory documents behind them."""

    root: Path
    threads: list[EmailThread]  # parsed from the thread files, in CLI (path) order
    gold: list[AnnotatedDocument]
    response: list[AnnotatedDocument]
    expected: dict


def generate(workload: str, seed: int, out_dir: Path, scale: float = 1.0) -> Workload:
    rng = random.Random(f"{workload}:{seed}:{scale}")
    b = _Source(rng)
    specs = _shape(workload, b, scale)
    paths = [s.path for s in specs]
    if len(set(paths)) != len(paths):
        raise RuntimeError("generated thread paths collide; change the seed")

    out_dir.mkdir(parents=True, exist_ok=True)
    texts = {}
    for spec in specs:
        target = out_dir / "threads" / spec.path
        target.parent.mkdir(parents=True, exist_ok=True)
        texts[spec.path] = _render_thread(spec.messages)
        target.write_text(texts[spec.path], encoding="utf-8")

    people = {p.name: p.addr for p in b.people}
    ordered = sorted(specs, key=lambda s: s.path)
    threads = [parse_thread(RawThread(id=s.path, text=texts[s.path], source_path=s.path)) for s in ordered]
    gold = [AnnotatedDocument(t, _gold_chains(t, s, people)) for t, s in zip(threads, ordered)]
    response, planted = [], {"decomposed_chains": 0, "missing_chains": 0, "added_mentions": 0}
    for doc in gold:
        resp, p = _perturb(rng, doc)
        response.append(resp)
        for key in planted:
            planted[key] += p[key]

    # Exclusion file: a held-out corpus plus one message of each planted thread.
    held_out = [parse_thread(RawThread(id=f"held{i}", text=_render_thread(b.short_conversation(4)))) for i in range(5)]
    prints = set(filtering.ExclusionSet.from_threads(held_out).fingerprints)
    for thread, spec in zip(threads, ordered):
        if spec.kind == "exclusion":
            prints.add(filtering.fingerprint_message(rng.choice(thread.messages)))

    with open(out_dir / "gold.jsonl", "w", encoding="utf-8") as fp:
        serialization.write_native(gold, fp)
    with open(out_dir / "response.jsonl", "w", encoding="utf-8") as fp:
        serialization.write_native(response, fp)
    (out_dir / "gold.conll").write_text(serialization.write_conll_documents(gold), encoding="utf-8")
    (out_dir / "response.conll").write_text(serialization.write_conll_documents(response), encoding="utf-8")
    (out_dir / "exclude.txt").write_text("".join(p + "\n" for p in sorted(prints)), encoding="utf-8")

    mentions = [m for d in gold for c in d.chains for m in c.mentions]
    pronouns = sum(
        1 for d in gold for c in d.chains for m in c.mentions
        if m.start_token == m.end_token
        and d.thread.sentence(m.message_index, m.sentence_index)[m.start_token].text.casefold() in ROLE_OF
    )
    chain_sizes = [len(c) for d in gold for c in d.chains]
    expected = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "filter": _expected_verdicts(specs),
        "dropped_directories": sum(1 for s in specs if s.kind == "excluded_dir"),
        "stats": {
            "email_threads": len(specs),
            "email_messages": sum(len(s.messages) for s in specs),
            "words": sum(1 for t in threads for _ in t.tokens()),
            "coreference_chains": len(chain_sizes),
            "annotated_mentions": len(mentions),
            "annotated_pronouns": pronouns,
            "longest_chain_length": max(chain_sizes),
            "average_chain_length": f"{len(mentions) / len(chain_sizes):.4f}",
        },
        "planted_errors": planted,
    }
    (out_dir / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return Workload(out_dir, threads, gold, response, expected)
