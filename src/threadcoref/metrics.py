"""Coreference evaluation: MUC, B³, CEAFE and LEA, plus the CoNLL average.

Scorers compare a key (gold) chain set against a response (predicted) chain
set over exact-match mention identities. Each metric reduces to precision
and recall numerator/denominator parts, so documents can be scored
independently and micro-averaged by summing parts in a fixed order.

Also here: mention-detection scoring, manual-correction statistics, and
whole-corpus statistics.
"""
from __future__ import annotations

import math
from typing import AbstractSet, Hashable, Iterable, NamedTuple, Sequence

from . import wordlists
from .model import AnnotatedDocument, CoreferenceChain, Mention, mention_text

ChainSets = Sequence[frozenset]
# row i of one side maps index j of the other side to |chain_i & other_j| > 0
Rows = list[dict[int, int]]


def as_chain_sets(chains: Iterable) -> list[frozenset]:
    """Normalize chain collections to frozensets of hashable mention ids.

    Chains are put into a canonical order so that summation order, and with
    it every score, is bit-identical under any permutation of the input.
    """
    out = []
    for chain in chains:
        if isinstance(chain, CoreferenceChain):
            out.append(frozenset(chain.mentions))
        else:
            out.append(frozenset(chain))
    out = [c for c in out if c]
    out.sort(key=_chain_order)
    return out


def _chain_order(chain: frozenset) -> tuple[int, list]:
    """A sort key that ignores the order of a chain's members: its size, then
    its members' keys sorted. A mention is keyed by its location, any other
    hashable by its repr."""
    return len(chain), sorted(
        (0, m.location) if isinstance(m, Mention) else (1, repr(m)) for m in chain
    )


class MetricScore(NamedTuple):
    precision: float
    recall: float
    f1: float
    flags: tuple[str, ...] = ()


def f1_score(precision: float, recall: float) -> float:
    if precision + recall > 0:
        return 2 * precision * recall / (precision + recall)
    return 0.0


class MetricParts(NamedTuple):
    """Numerator/denominator sums; add parts across documents to micro-average."""

    p_num: float = 0.0
    p_den: float = 0.0
    r_num: float = 0.0
    r_den: float = 0.0
    flags: tuple[str, ...] = ()

    def __add__(self, other: "MetricParts") -> "MetricParts":
        return MetricParts(
            self.p_num + other.p_num,
            self.p_den + other.p_den,
            self.r_num + other.r_num,
            self.r_den + other.r_den,
            tuple(dict.fromkeys(self.flags + other.flags)),
        )

    def score(self) -> MetricScore:
        flags = list(self.flags)
        if self.p_den <= 0:
            flags.append("undefined-precision")
        if self.r_den <= 0:
            flags.append("undefined-recall")
        p = self.p_num / self.p_den if self.p_den > 0 else 0.0
        r = self.r_num / self.r_den if self.r_den > 0 else 0.0
        return MetricScore(p, r, f1_score(p, r), tuple(dict.fromkeys(flags)))


def _overlap_table(key: Iterable, response: Iterable) -> tuple[ChainSets, ChainSets, Rows, Rows]:
    """Both chain sets, their overlap rows, and the rows seen from the response side."""
    k = as_chain_sets(key)
    r = as_chain_sets(response)
    rows = overlap_rows(k, r)
    return k, r, rows, transpose_rows(rows, len(r))


def _two_sided(half, k: ChainSets, r: ChainSets, rows: Rows, cols: Rows) -> MetricParts:
    """Parts of a metric whose recall is ``half`` of the key side and whose
    precision is ``half`` of the response side; a half takes (chains, others,
    rows) and gives (numerator, denominator)."""
    r_num, r_den = half(k, r, rows)
    p_num, p_den = half(r, k, cols)
    return MetricParts(p_num, p_den, r_num, r_den)


def _muc_half(chains: ChainSets, others: ChainSets, rows: Rows) -> tuple[float, float]:
    """Link-based numerator/denominator for one role of MUC, from its overlap rows.

    A chain K_i falls into one partition per chain of the other side it
    shares mentions with, plus one per mention the other side lacks, so it
    keeps |K_i| - len(row) - (|K_i| - sum(row)) = sum(row) - len(row) links.
    """
    num = 0.0
    den = 0.0
    for chain, row in zip(chains, rows):
        num += sum(row.values()) - len(row)
        den += len(chain) - 1
    return num, den


def muc_parts(key: Iterable, response: Iterable) -> MetricParts:
    return _two_sided(_muc_half, *_overlap_table(key, response))


def muc(key: Iterable, response: Iterable) -> MetricScore:
    """MUC: minimal-link score; singleton chains are invisible to it."""
    return muc_parts(key, response).score()


def _b3_half(chains: ChainSets, others: ChainSets, rows: Rows) -> tuple[float, float]:
    """Per-mention overlap ratios of one side from its overlap rows.

    Each of the n_ij mentions a chain shares with chain j of the other side
    scores n_ij / |K_i|, so the chain adds sum(n_ij²) / |K_i|.
    """
    num = 0.0
    count = 0
    for chain, row in zip(chains, rows):
        count += len(chain)
        num += sum(n * n for n in row.values()) / len(chain)
    return num, float(count)


def b_cubed(key: Iterable, response: Iterable) -> MetricScore:
    return b_cubed_parts(key, response).score()


def b_cubed_parts(key: Iterable, response: Iterable) -> MetricParts:
    """B³: per-mention overlap ratios; unaligned mentions contribute zero."""
    return _two_sided(_b3_half, *_overlap_table(key, response))


def phi4(a: frozenset, b: frozenset) -> float:
    return 2.0 * len(a & b) / (len(a) + len(b))


def overlap_rows(k: Sequence[AbstractSet], r: Sequence[AbstractSet]) -> Rows:
    """Sparse overlap counts: row i maps response index j to |K_i & R_j| > 0.

    Counts are exact intersection sizes even when a mention sits in several
    chains of one side; the metrics and the error categorizer all read them.
    """
    owners: dict[Hashable, list[int]] = {}
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


def transpose_rows(rows: Rows, width: int) -> Rows:
    """The same counts seen from the other side: ``width`` rows indexed by j."""
    cols: Rows = [{} for _ in range(width)]
    for i, row in enumerate(rows):
        for j, n in row.items():
            cols[j][i] = n
    return cols


def _components(rows: Rows) -> Iterable[tuple[list[int], list[int]]]:
    """Connected components of the overlap graph as sorted (key, response) indices.

    Chains that overlap nothing on the other side belong to no component.
    """
    keys_of: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        for j in row:
            keys_of.setdefault(j, []).append(i)
    seen = [False] * len(rows)
    for start, row in enumerate(rows):
        if seen[start] or not row:
            continue
        seen[start] = True
        ks, rs = [start], set()
        stack = [start]
        while stack:
            for j in rows[stack.pop()]:
                if j in rs:
                    continue
                rs.add(j)
                for i in keys_of[j]:
                    if not seen[i]:
                        seen[i] = True
                        ks.append(i)
                        stack.append(i)
        yield sorted(ks), sorted(rs)


def _max_weight_assignment(weights: list[list[float]]) -> list[float]:
    """Weights of a maximum-weight assignment of every row to a distinct column.

    Hungarian method with shortest augmenting paths and dual potentials,
    O(n²m) for n rows <= m columns. Among columns at the same distance a free
    one ends the search at once, which keeps runs of zero-weight pairs cheap;
    remaining ties go to the lowest index, so the result is deterministic.
    """
    n, m = len(weights), len(weights[0])
    if n > m:
        weights = [list(col) for col in zip(*weights)]
        n, m = m, n
    inf = math.inf
    u = [0.0] * (n + 1)
    v = [0.0] * (m + 1)
    owner = [0] * (m + 1)  # owner[j]: 1-based row assigned to column j, 0 if free
    way = [0] * (m + 1)
    costs = [[0.0] + [-w for w in row] for row in weights]
    for i in range(1, n + 1):
        owner[0] = i
        j0 = 0
        minv = [inf] * (m + 1)
        free = list(range(1, m + 1))
        visited = [0]
        while owner[j0]:
            i0 = owner[j0]
            row = costs[i0 - 1]
            ui0 = u[i0]
            delta = inf
            j1 = 0
            for j in free:
                cur = row[j] - ui0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta or (minv[j] == delta and not owner[j]):
                    delta = minv[j]
                    j1 = j
            for j in visited:
                u[owner[j]] += delta
                v[j] -= delta
            for j in free:
                minv[j] -= delta
            free.remove(j1)
            visited.append(j1)
            j0 = j1
        while j0:
            j1 = way[j0]
            owner[j0] = owner[j1]
            j0 = j1
    return [weights[owner[j] - 1][j - 1] for j in range(1, m + 1) if owner[j]]


def ceaf_e_parts(key: Iterable, response: Iterable) -> MetricParts:
    """CEAFE parts from an exact optimal alignment, solved per overlap component.

    Pairs of chains with no shared mention have phi4 = 0 and add nothing, so
    the optimum over the whole key x response matrix is the sum of the optima
    over the connected components of the sparse overlap graph.
    """
    k = as_chain_sets(key)
    r = as_chain_sets(response)
    return _ceaf_e(k, r, overlap_rows(k, r))


def _ceaf_e(k: ChainSets, r: ChainSets, rows: Rows) -> MetricParts:
    chosen: list[float] = []
    for ks, rs in _components(rows):
        weights = [
            [2.0 * rows[i].get(j, 0) / (len(k[i]) + len(r[j])) for j in rs] for i in ks
        ]
        chosen.extend(_max_weight_assignment(weights))
    total = math.fsum(chosen)
    return MetricParts(total, float(len(r)), total, float(len(k)))


def ceaf_e(key: Iterable, response: Iterable) -> MetricScore:
    """CEAFE: optimal one-to-one chain alignment under the phi4 similarity."""
    return ceaf_e_parts(key, response).score()


def _link_count(size: int) -> float:
    return size * (size - 1) / 2.0


def _lea_half(chains: ChainSets, others: ChainSets, rows: Rows) -> tuple[float, float]:
    """Resolved links per chain from its overlap row: the sum of link(n_ij)."""
    num = 0.0
    den = 0.0
    for chain, row in zip(chains, rows):
        den += len(chain)
        if len(chain) == 1:
            # its one mention is resolved when the chain holding it is a singleton
            resolved = 1.0 if any(len(others[j]) == 1 for j in row) else 0.0
            links = 1.0
        else:
            resolved = 0.0
            for n in row.values():
                resolved += _link_count(n)
            links = _link_count(len(chain))
        num += len(chain) * resolved / links
    return num, den


def lea_parts(key: Iterable, response: Iterable) -> MetricParts:
    return _two_sided(_lea_half, *_overlap_table(key, response))


def lea(key: Iterable, response: Iterable) -> MetricScore:
    """LEA: entity-size-weighted ratio of resolved links per entity.

    Singleton entities count one self-link, resolved only by a matching
    singleton on the other side.
    """
    return lea_parts(key, response).score()


class ScoreReport(NamedTuple):
    muc: MetricScore
    b3: MetricScore
    ceafe: MetricScore
    lea: MetricScore
    conll_avg_f1: float


def conll_average(key: Iterable, response: Iterable) -> ScoreReport:
    """All four metrics plus the unweighted mean of the MUC/B³/CEAFE F1s."""
    return score_documents([(key, response)])


def score_documents(pairs: Iterable[tuple[Iterable, Iterable]]) -> ScoreReport:
    """Micro-average scores over (key, response) document pairs.

    Parts are accumulated in input order, so the reduction is deterministic
    no matter how the per-document work was scheduled.
    """
    muc_sum = b3_sum = ceafe_sum = lea_sum = MetricParts()
    for key, response in pairs:
        k, r, rows, cols = _overlap_table(key, response)
        muc_sum = muc_sum + _two_sided(_muc_half, k, r, rows, cols)
        b3_sum = b3_sum + _two_sided(_b3_half, k, r, rows, cols)
        ceafe_sum = ceafe_sum + _ceaf_e(k, r, rows)
        lea_sum = lea_sum + _two_sided(_lea_half, k, r, rows, cols)
    muc_score, b3_score = muc_sum.score(), b3_sum.score()
    ceafe_score, lea_score = ceafe_sum.score(), lea_sum.score()
    avg = (muc_score.f1 + b3_score.f1 + ceafe_score.f1) / 3.0
    return ScoreReport(
        muc=muc_score, b3=b3_score, ceafe=ceafe_score, lea=lea_score, conll_avg_f1=avg
    )


def mention_detection_score(
    predicted: Iterable[Mention], gold: Iterable[Mention]
) -> MetricScore:
    """Exact-boundary mention detection P/R/F1."""
    pred = set(predicted)
    gold_set = set(gold)
    hits = len(pred & gold_set)
    flags = []
    if not pred:
        flags.append("empty-predictions")
    if not gold_set:
        flags.append("empty-gold")
    p = hits / len(pred) if pred else 0.0
    r = hits / len(gold_set) if gold_set else 0.0
    return MetricScore(p, r, f1_score(p, r), tuple(flags))


class CorrectionStats(NamedTuple):
    """Bookkeeping of a manual correction pass over predicted mentions.

    The four counts are summable parts: add the stats of several documents
    to get corpus totals, from which precision, recall and F1 follow.
    """

    added: int = 0
    corrected: int = 0
    deleted: int = 0
    unchanged: int = 0

    def __add__(self, other: "CorrectionStats") -> "CorrectionStats":
        return CorrectionStats(
            self.added + other.added,
            self.corrected + other.corrected,
            self.deleted + other.deleted,
            self.unchanged + other.unchanged,
        )

    @property
    def predicted_total(self) -> int:
        return self.unchanged + self.corrected + self.deleted

    @property
    def gold_total(self) -> int:
        return self.unchanged + self.corrected + self.added

    @property
    def precision(self) -> float:
        total = self.predicted_total
        return (self.unchanged + self.corrected) / total if total else 0.0

    @property
    def recall(self) -> float:
        total = self.gold_total
        return (self.unchanged + self.corrected) / total if total else 0.0

    @property
    def f1(self) -> float:
        return f1_score(self.precision, self.recall)


def _span_overlap(a: Mention, b: Mention) -> int:
    if (a.message_index, a.sentence_index) != (b.message_index, b.sentence_index):
        return 0
    lo = max(a.start_token, b.start_token)
    hi = min(a.end_token, b.end_token)
    return max(0, hi - lo + 1)


def correction_stats(
    predicted: Iterable[Mention], gold: Iterable[Mention]
) -> CorrectionStats:
    """Classify predictions against corrected gold mentions.

    Exact matches are unchanged; remaining predictions pair greedily with
    overlapping unconsumed gold spans (largest overlap first) as corrected;
    leftovers are deleted (predictions) or added (gold).
    """
    pred = set(predicted)
    gold_set = set(gold)
    unchanged = pred & gold_set
    open_pred = sorted(pred - unchanged)
    open_gold = sorted(gold_set - unchanged)

    pairs = []
    for p in open_pred:
        for g in open_gold:
            overlap = _span_overlap(p, g)
            if overlap > 0:
                pairs.append((-overlap, p, g))
    pairs.sort()

    used_pred: set[Mention] = set()
    used_gold: set[Mention] = set()
    corrected = 0
    for _, p, g in pairs:
        if p in used_pred or g in used_gold:
            continue
        used_pred.add(p)
        used_gold.add(g)
        corrected += 1

    return CorrectionStats(
        added=len(open_gold) - corrected,
        corrected=corrected,
        deleted=len(open_pred) - corrected,
        unchanged=len(unchanged),
    )


class CorpusStats(NamedTuple):
    thread_count: int
    message_count: int
    word_count: int
    chain_count: int
    mention_count: int
    pronoun_count: int
    longest_chain: int
    average_chain_length: float


def corpus_stats(documents: Iterable[AnnotatedDocument]) -> CorpusStats:
    """Aggregate corpus statistics over annotated documents."""
    threads = messages = words = chains = mentions = pronouns = 0
    longest = 0
    for doc in documents:
        threads += 1
        messages += len(doc.thread.messages)
        words += sum(1 for _ in doc.thread.tokens())
        for chain in doc.chains:
            chains += 1
            mentions += len(chain)
            longest = max(longest, len(chain))
            for m in chain.mentions:
                if (
                    m.start_token == m.end_token
                    and mention_text(doc.thread, m).casefold() in wordlists.ALL_PRONOUNS
                ):
                    pronouns += 1
    average = mentions / chains if chains else 0.0
    return CorpusStats(
        thread_count=threads,
        message_count=messages,
        word_count=words,
        chain_count=chains,
        mention_count=mentions,
        pronoun_count=pronouns,
        longest_chain=longest,
        average_chain_length=average,
    )
