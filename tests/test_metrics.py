import random

import pytest

import oracles
from conftest import random_key_response, random_partition
from threadcoref.metrics import (
    CorpusStats,
    MetricParts,
    as_chain_sets,
    b_cubed,
    b_cubed_parts,
    ceaf_e,
    ceaf_e_parts,
    conll_average,
    correction_stats,
    corpus_stats,
    f1_score,
    lea,
    lea_parts,
    member_keys,
    mention_detection_score,
    muc,
    muc_parts,
    score_documents,
)
from threadcoref.model import (
    AnnotatedDocument,
    CoreferenceChain,
    EntityType,
    Mention,
    Section,
    Token,
    EmailMessage,
    EmailThread,
)

# the hand-worked toy pair: values frozen from brute-force computation
TOY_KEY = [{"a", "b", "c"}, {"d", "e"}]
TOY_RESPONSE = [{"a", "b"}, {"c", "d", "e"}]

# the reference implementation's published worked example
REF_KEY = [{"a", "b", "c"}, {"d", "e", "f", "g"}]
REF_RESPONSE = [{"a", "b"}, {"c", "d"}, {"f", "g", "h", "i"}]

APPROX = 1e-12


class TestToyCase:
    def test_muc_two_thirds(self):
        score = muc(TOY_KEY, TOY_RESPONSE)
        assert score.precision == pytest.approx(2 / 3, abs=APPROX)
        assert score.recall == pytest.approx(2 / 3, abs=APPROX)
        assert score.f1 == pytest.approx(2 / 3, abs=APPROX)

    def test_b_cubed_eleven_fifteenths(self):
        score = b_cubed(TOY_KEY, TOY_RESPONSE)
        assert score.precision == pytest.approx(11 / 15, abs=APPROX)
        assert score.recall == pytest.approx(11 / 15, abs=APPROX)

    def test_ceafe_point_eight(self):
        score = ceaf_e(TOY_KEY, TOY_RESPONSE)
        assert score.precision == pytest.approx(0.8, abs=APPROX)
        assert score.recall == pytest.approx(0.8, abs=APPROX)

    def test_lea_point_six(self):
        score = lea(TOY_KEY, TOY_RESPONSE)
        assert score.precision == pytest.approx(0.6, abs=APPROX)
        assert score.recall == pytest.approx(0.6, abs=APPROX)

    def test_conll_average(self):
        report = conll_average(TOY_KEY, TOY_RESPONSE)
        expected = (2 / 3 + 11 / 15 + 0.8) / 3
        assert report.conll_avg_f1 == pytest.approx(expected, abs=APPROX)
        assert report.conll_avg_f1 == pytest.approx(0.7333, abs=5e-5)


class TestReferenceWorkedExample:
    """Published outputs of the community reference implementation."""

    def test_muc(self):
        score = muc(REF_KEY, REF_RESPONSE)
        assert score.recall == pytest.approx(0.4, abs=1e-4)
        assert score.precision == pytest.approx(0.4, abs=1e-4)

    def test_b_cubed(self):
        score = b_cubed(REF_KEY, REF_RESPONSE)
        assert score.precision == pytest.approx(0.5, abs=1e-4)
        assert score.recall == pytest.approx(0.4167, abs=1e-4)
        assert score.f1 == pytest.approx(0.4545, abs=1e-4)

    def test_ceafe(self):
        score = ceaf_e(REF_KEY, REF_RESPONSE)
        assert score.precision == pytest.approx(0.4333, abs=1e-4)
        assert score.recall == pytest.approx(0.65, abs=1e-4)
        assert score.f1 == pytest.approx(0.52, abs=1e-4)

    def test_lea(self):
        score = lea(REF_KEY, REF_RESPONSE)
        assert score.precision == pytest.approx(1 / 3, abs=1e-4)
        assert score.recall == pytest.approx(5 / 21, abs=1e-4)


class TestEdgeCases:
    def test_identity_perfect_scores(self):
        for metric in (muc, b_cubed, ceaf_e, lea):
            score = metric(TOY_KEY, TOY_KEY)
            assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_all_singleton_response_zero_muc_recall(self):
        response = [{"a"}, {"b"}, {"c"}, {"d"}, {"e"}]
        score = muc(TOY_KEY, response)
        assert score.recall == 0.0

    def test_all_singleton_key_flagged(self):
        key = [{"a"}, {"b"}]
        score = muc(key, [{"a", "b"}])
        assert score.recall == 0.0
        assert "undefined-recall" in score.flags

    def test_singleton_self_match(self):
        for metric in (b_cubed, ceaf_e, lea):
            score = metric([{"x"}], [{"x"}])
            assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_ceafe_one_response_chain_bounds_recall(self):
        key = [{"a"}, {"b"}, {"c"}]
        response = [{"a", "b", "c"}]
        score = ceaf_e(key, response)
        assert score.recall <= 1 / 3 + APPROX

    def test_chain_objects_accepted(self):
        chains = (CoreferenceChain(0, (Mention(0, 0, 0, 0), Mention(0, 0, 1, 1))),)
        score = muc(chains, chains)
        assert score.f1 == 1.0


class TestOracleAgreement:
    def test_random_pairs_match_brute_force(self):
        rng = random.Random(101)
        pairs = [(TOY_KEY, TOY_RESPONSE), (REF_KEY, REF_RESPONSE)]
        pairs += [random_key_response(rng) for _ in range(60)]
        for key, response in pairs:
            o_muc = oracles.muc_oracle(key, response)
            o_b3 = oracles.b_cubed_oracle(key, response)
            o_ceafe = oracles.ceaf_e_oracle(key, response)
            o_lea = oracles.lea_oracle(key, response)
            for ours, theirs in (
                (muc(key, response), o_muc),
                (b_cubed(key, response), o_b3),
                (ceaf_e(key, response), o_ceafe),
                (lea(key, response), o_lea),
            ):
                assert ours.precision == pytest.approx(float(theirs[0]), abs=1e-9)
                assert ours.recall == pytest.approx(float(theirs[1]), abs=1e-9)
                assert ours.f1 == pytest.approx(float(theirs[2]), abs=1e-9)

    def test_role_symmetry(self):
        rng = random.Random(99)
        for _ in range(40):
            key, response = random_key_response(rng)
            for metric in (muc, b_cubed, ceaf_e, lea):
                ab = metric(key, response)
                ba = metric(response, key)
                assert ab.precision == pytest.approx(ba.recall, abs=APPROX)
                assert ab.recall == pytest.approx(ba.precision, abs=APPROX)

    def test_permutation_invariance(self):
        rng = random.Random(55)
        key, response = random_key_response(rng)
        base = conll_average(key, response)
        for _ in range(5):
            k = key[:]
            r = response[:]
            rng.shuffle(k)
            rng.shuffle(r)
            shuffled = conll_average(k, r)
            assert shuffled == base


def _ceafe_case(rng: random.Random, max_mentions: int) -> tuple[list[frozenset], list[frozenset]]:
    """Random key/response partitions over partly shared mentions.

    Chains of up to four mentions cross each other, so components often hold
    two or more chains on each side; singletons, mentions on one side only and
    empty sides all occur.
    """
    n = rng.randint(1, max_mentions)

    def side() -> list[frozenset]:
        if rng.random() < 0.05:
            return []
        return random_partition(rng, rng.sample(range(n), rng.randint(1, n)))

    return side(), side()


def _has_crossed_component(key, response) -> bool:
    """True if some overlapping pair has both chains overlapping a second chain."""
    def degree(chain, others):
        return sum(1 for o in others if chain & o)

    return any(
        k & r and degree(k, response) >= 2 and degree(r, key) >= 2
        for k in key
        for r in response
    )


class TestCeafeDifferential:
    """CEAFE's per-component assignment against brute force and a dense solver."""

    def test_small_cases_equal_brute_force(self):
        rng = random.Random(2105)
        crossed = singletons = empty = one_sided = 0
        cases = 0
        while cases < 2000:
            key, response = _ceafe_case(rng, 10)
            if len(key) > 6 or len(response) > 6:
                continue
            cases += 1
            crossed += _has_crossed_component(key, response)
            singletons += any(len(c) == 1 for c in key + response)
            empty += not key or not response
            one_sided += bool(set().union(*key) ^ set().union(*response))
            parts = ceaf_e_parts(key, response)
            brute = oracles.ceaf_e_best_total(key, response)
            assert abs(parts.p_num - float(brute)) < 1e-12, (key, response)
            assert parts.r_num == parts.p_num
            assert (parts.p_den, parts.r_den) == (len(response), len(key))
        assert min(crossed, singletons, empty, one_sided) >= 50

    def test_larger_cases_match_dense_assignment(self):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = random.Random(1005)
        crossed = 0
        for _ in range(600):
            key, response = _ceafe_case(rng, 160)
            key, response = key[:60], response[:60]
            crossed += _has_crossed_component(key, response)
            total = ceaf_e_parts(key, response).p_num
            if not key or not response:
                assert total == 0.0
                continue
            sim = [[2.0 * len(k & r) / (len(k) + len(r)) for r in response] for k in key]
            rows, cols = scipy_optimize.linear_sum_assignment(sim, maximize=True)
            dense = sum(sim[i][j] for i, j in zip(rows, cols))
            assert abs(total - dense) < 1e-9, (key, response)
        assert crossed >= 300

    def test_bit_identical_under_chain_permutation(self):
        rng = random.Random(77)
        for _ in range(300):
            key, response = _ceafe_case(rng, 120)
            base = ceaf_e_parts(key, response)
            for _ in range(3):
                k, r = key[:], response[:]
                rng.shuffle(k)
                rng.shuffle(r)
                assert ceaf_e_parts(k, r) == base


class TestMicroAverage:
    def test_parts_sum_over_documents(self):
        rng = random.Random(7)
        doc_pairs = [random_key_response(rng) for _ in range(4)]
        combined = score_documents(doc_pairs)
        muc_sum = sum((muc_parts(k, r) for k, r in doc_pairs), muc_parts([], []))
        assert combined.muc == muc_sum.score()
        b3_sum = sum((b_cubed_parts(k, r) for k, r in doc_pairs), b_cubed_parts([], []))
        assert combined.b3 == b3_sum.score()

    def test_avg_is_mean_of_three(self):
        rng = random.Random(13)
        for _ in range(20):
            key, response = random_key_response(rng)
            report = conll_average(key, response)
            mean = (report.muc.f1 + report.b3.f1 + report.ceafe.f1) / 3
            assert report.conll_avg_f1 == mean


class TestMentionDetection:
    def m(self, i):
        return Mention(0, 0, i, i)

    def test_identity(self):
        gold = [self.m(i) for i in range(5)]
        score = mention_detection_score(gold, gold)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_one_spurious_over_nine(self):
        gold = [self.m(i) for i in range(9)]
        pred = gold + [self.m(50)]
        score = mention_detection_score(pred, gold)
        assert score.precision == pytest.approx(0.9)
        assert score.recall == 1.0

    def test_empty_sides_flagged(self):
        score = mention_detection_score([], [self.m(0)])
        assert score.precision == 0.0
        assert "empty-predictions" in score.flags


class TestCorrectionStats:
    def m(self, sentence, start, end):
        return Mention(0, sentence, start, end)

    def test_identity(self):
        gold = [self.m(0, 0, 1), self.m(1, 2, 2)]
        stats = correction_stats(gold, gold)
        assert stats.unchanged == len(gold)
        assert stats.added == stats.corrected == stats.deleted == 0
        assert stats.precision == stats.recall == stats.f1 == 1.0

    def test_hand_constructed_case(self):
        m1 = self.m(0, 0, 1)       # exact match
        m2 = self.m(1, 2, 4)       # prediction overlapping m2_gold
        m2_gold = self.m(1, 3, 5)
        m3 = self.m(2, 0, 0)       # spurious prediction
        m4 = self.m(3, 1, 2)       # gold with no prediction
        stats = correction_stats([m1, m2, m3], [m1, m2_gold, m4])
        assert stats.unchanged == 1
        assert stats.corrected == 1
        assert stats.deleted == 1
        assert stats.added == 1
        # brute-force overlap matrix confirms exactly one overlapping pair
        overlaps = [
            (p, g)
            for p in (m2, m3)
            for g in (m2_gold, m4)
            if p.sentence_index == g.sentence_index
            and p.start_token <= g.end_token
            and g.start_token <= p.end_token
        ]
        assert overlaps == [(m2, m2_gold)]

    def test_totals_invariant(self):
        rng = random.Random(3)
        for _ in range(50):
            pred = {
                Mention(0, rng.randint(0, 3), s, s + rng.randint(0, 2))
                for s in rng.sample(range(20), rng.randint(0, 8))
            }
            gold = {
                Mention(0, rng.randint(0, 3), s, s + rng.randint(0, 2))
                for s in rng.sample(range(20), rng.randint(0, 8))
            }
            stats = correction_stats(pred, gold)
            assert stats.predicted_total == len(pred)
            assert stats.gold_total == len(gold)

    def test_greedy_prefers_larger_overlap(self):
        pred = [self.m(0, 0, 5)]
        g_small = self.m(0, 5, 6)
        g_big = self.m(0, 2, 6)
        stats = correction_stats(pred, [g_small, g_big])
        assert stats.corrected == 1
        assert stats.added == 1


class TestCorpusStats:
    def make_doc(self):
        words = ["I", "saw", "Crestone", "today", "."]
        toks = tuple(
            Token(w, 0, i, 0, Section.BODY, sum(len(x) + 1 for x in words[:i]), sum(len(x) + 1 for x in words[:i]) + len(w))
            for i, w in enumerate(words)
        )
        thread = EmailThread(
            id="d", messages=(EmailMessage(index=0, sentences=(toks,)),)
        )
        chains = (
            CoreferenceChain(0, (Mention(0, 0, 0, 0), Mention(0, 0, 1, 1), Mention(0, 0, 3, 3))),
            CoreferenceChain(1, (Mention(0, 0, 2, 2),)),
        )
        return AnnotatedDocument(thread=thread, chains=chains)

    def test_counts(self):
        stats = corpus_stats([self.make_doc()])
        assert stats.thread_count == 1
        assert stats.message_count == 1
        assert stats.word_count == 5
        assert stats.chain_count == 2
        assert stats.mention_count == 4
        assert stats.longest_chain == 3
        assert stats.average_chain_length == pytest.approx(2.0)
        assert stats.pronoun_count == 1  # just "I"

    def test_multi_token_mention_is_never_a_pronoun(self):
        doc = self.make_doc()
        doc = doc._replace(chains=(*doc.chains, CoreferenceChain(2, (Mention(0, 0, 0, 1),))))
        assert corpus_stats([doc]).pronoun_count == 1  # "I saw" starts with "I"

    def test_empty_corpus(self):
        stats = corpus_stats([])
        assert stats == CorpusStats(0, 0, 0, 0, 0, 0, 0, 0.0)

    def test_invariant_longest_at_least_average(self):
        stats = corpus_stats([self.make_doc()])
        assert stats.longest_chain >= stats.average_chain_length


class TestF1Helper:
    def test_zero_when_both_zero(self):
        assert f1_score(0.0, 0.0) == 0.0

    def test_harmonic_mean(self):
        assert f1_score(0.5, 1.0) == pytest.approx(2 / 3)


class TestLeaDifferential:
    """LEA from the sparse overlap rows against the chain-intersection reference."""

    def test_parts_identical_to_reference(self):
        rng = random.Random(4041)
        singletons = empty = shared = 0
        for _ in range(1500):
            key, response = _ceafe_case(rng, 40)
            if response and rng.random() < 0.2:
                # one mention in two response chains: still exact intersections
                mention = rng.choice(sorted(set().union(*response)))
                j = rng.randrange(len(response))
                response[j] = response[j] | {mention}
                shared += sum(mention in c for c in response) >= 2
            singletons += any(len(c) == 1 for c in key + response)
            empty += not key or not response
            assert lea_parts(key, response) == oracles.lea_parts_reference(key, response), (
                key, response)
        assert min(singletons, empty, shared) >= 50

    def test_score_documents_sums_reference_parts(self):
        rng = random.Random(4042)
        pairs = [_ceafe_case(rng, 30) for _ in range(40)]
        expected = MetricParts()
        for key, response in pairs:
            expected = expected + oracles.lea_parts_reference(key, response)
        assert score_documents(pairs).lea == expected.score()


class TestB3Differential:
    """B³ from the sparse overlap rows against the per-mention intersection reference."""

    @staticmethod
    def _close(a: MetricParts, b: MetricParts) -> bool:
        return (a.p_den, a.r_den, a.flags) == (b.p_den, b.r_den, b.flags) and all(
            abs(x - y) <= 1e-12 * max(1.0, abs(y)) for x, y in ((a.p_num, b.p_num), (a.r_num, b.r_num))
        )

    def test_parts_match_reference(self):
        rng = random.Random(5051)
        singletons = empty = 0
        for _ in range(1500):
            key, response = _ceafe_case(rng, 40)
            singletons += any(len(c) == 1 for c in key + response)
            empty += not key or not response
            got, want = b_cubed_parts(key, response), oracles.b_cubed_parts_reference(key, response)
            assert self._close(got, want), (key, response, got, want)
        assert min(singletons, empty) >= 50

    def test_shared_mention_counts_every_intersection(self):
        # {1, 2} against {1, 2} and {1}: mention 1 sits in both response chains
        parts = b_cubed_parts([frozenset({1, 2})], [frozenset({1, 2}), frozenset({1})])
        assert (parts.r_num, parts.r_den) == ((2 * 2 + 1 * 1) / 2, 2.0)
        assert (parts.p_num, parts.p_den) == (2 * 2 / 2 + 1 * 1 / 1, 3.0)

    def test_score_documents_sums_reference_parts(self):
        rng = random.Random(5052)
        pairs = [_ceafe_case(rng, 30) for _ in range(40)]
        expected = MetricParts()
        for key, response in pairs:
            expected = expected + oracles.b_cubed_parts_reference(key, response)
        got = score_documents(pairs).b3
        want = expected.score()
        assert abs(got.precision - want.precision) <= 1e-12
        assert abs(got.recall - want.recall) <= 1e-12
        assert got.flags == want.flags


class TestMucDifferential:
    """MUC from the sparse overlap rows against the membership-map reference."""

    def test_parts_identical_to_reference(self):
        rng = random.Random(6061)
        singletons = empty = 0
        for _ in range(1500):
            key, response = _ceafe_case(rng, 40)
            singletons += any(len(c) == 1 for c in key + response)
            empty += not key or not response
            assert muc_parts(key, response) == oracles.muc_parts_reference(key, response), (
                key, response)
        assert min(singletons, empty) >= 50

    def test_shared_mention_counts_in_each_chain(self):
        # {1, 2} against {1, 2} and {1}: mention 1 sits in both response chains,
        # so the key chain overlaps two chains holding three of its mentions
        parts = muc_parts([frozenset({1, 2})], [frozenset({1, 2}), frozenset({1})])
        assert (parts.r_num, parts.r_den) == (3 - 2, 1.0)
        assert (parts.p_num, parts.p_den) == ((2 - 1) + (1 - 1), 1.0)

    def test_score_documents_sums_reference_parts(self):
        rng = random.Random(6062)
        pairs = [_ceafe_case(rng, 30) for _ in range(40)]
        expected = MetricParts()
        for key, response in pairs:
            expected = expected + oracles.muc_parts_reference(key, response)
        assert score_documents(pairs).muc == expected.score()


class _SubMention(Mention):
    """A Mention subclass: it equals no Mention, and sorts by its location."""

    __slots__ = ()


# every kind of member the scorers take besides a mention: equal numbers of
# three types, strings, a 1-tuple, and plain tuples of mention locations
_OTHER_MEMBERS = (0, 1, 1.0, True, "a", "b", ("a",), None, (0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, 2))
_ENTITY_TYPES = (None, *EntityType)


def _random_member(rng: random.Random):
    loc = (rng.randrange(2), rng.randrange(2), rng.randrange(3), 0)
    loc = loc[:3] + (loc[2] + rng.randrange(2),)
    roll = rng.random()
    if roll < 0.65:
        # two sides often hold one location with different entity types
        return Mention(*loc, rng.choice(_ENTITY_TYPES))
    if roll < 0.8:
        return loc
    if roll < 0.85:
        return _SubMention(*loc)
    return rng.choice(_OTHER_MEMBERS)


def _random_chains(rng: random.Random, chain_ids) -> list:
    """Chains of random members, each a CoreferenceChain, a set, a frozenset or a list."""
    out = []
    for _ in range(rng.randrange(6)):
        members = [_random_member(rng) for _ in range(rng.randint(1, 5))]
        shape = rng.randrange(4)
        if shape == 0:
            out.append(CoreferenceChain(next(chain_ids), tuple(members)))
        else:
            out.append((set, frozenset, list)[shape - 1](members))
    rng.shuffle(out)
    return out


def _outcome(func, *args) -> str:
    try:
        return repr(func(*args))
    except Exception as exc:  # the same failure counts as the same outcome
        return type(exc).__name__


class TestLocationKeyDifferential:
    """The scorers, keyed by location, against the same scorers keyed by the
    mentions themselves (kept in ``oracles``): every part bit for bit."""

    def test_metric_parts_identical(self):
        rng = random.Random(1931)
        seen = dict.fromkeys(("twins", "tuples", "others", "sub"), 0)
        for _ in range(2000):
            ids = iter(range(100))
            key, response = _random_chains(rng, ids), _random_chains(rng, ids)
            members = [m for c in key + response for m in (c.mentions if isinstance(c, CoreferenceChain) else c)]
            mentions = [m for m in members if type(m) is Mention]
            seen["twins"] += len({m.location for m in mentions}) < len({(m.location, m.entity_type) for m in mentions})
            seen["tuples"] += any(type(m) is tuple and len(m) == 4 for m in members)
            seen["others"] += any(not isinstance(m, tuple) for m in members)
            seen["sub"] += any(type(m) is _SubMention for m in members)
            want = oracles.metric_parts_mention_keyed(key, response)
            got = (muc_parts(key, response), b_cubed_parts(key, response), ceaf_e_parts(key, response),
                   lea_parts(key, response))
            assert repr(got) == repr(want), (key, response)
            # the chains come in the order the mention-keyed sets come in
            assert as_chain_sets(key) == [
                frozenset(member_keys(c)) for c in oracles.as_chain_sets_mention_keyed(key)]
        assert min(seen.values()) >= 100, seen

    def test_score_documents_identical(self):
        rng = random.Random(1932)
        pairs = [(_random_chains(rng, iter(range(50))), _random_chains(rng, iter(range(50, 100)))) for _ in range(200)]
        sums = [MetricParts()] * 4
        for key, response in pairs:
            sums = [a + b for a, b in zip(sums, oracles.metric_parts_mention_keyed(key, response))]
        report = score_documents(pairs)
        assert repr((report.muc, report.b3, report.ceafe, report.lea)) == repr(tuple(s.score() for s in sums))

    def test_correction_stats_identical(self):
        rng = random.Random(1933)
        compared = 0
        for _ in range(3000):
            predicted = [_random_member(rng) for _ in range(rng.randrange(8))]
            gold = [_random_member(rng) for _ in range(rng.randrange(8))]
            if rng.random() < 0.5:
                # mentions alone: every case pairs and sorts
                predicted = [m for m in predicted if type(m) is Mention]
                gold = [m for m in gold if type(m) is Mention]
            want = _outcome(oracles.correction_stats_mention_keyed, predicted, gold)
            if want.startswith("CorrectionStats("):
                compared += 1
                assert _outcome(correction_stats, iter(predicted), iter(gold)) == want, (predicted, gold)
        assert compared >= 1500
