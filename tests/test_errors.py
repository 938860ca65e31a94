import random

import oracles
from conftest import find_span, synthetic_document
from threadcoref.errors import ErrorReport, align_chains, categorize_errors
from threadcoref.model import CoreferenceChain, EntityType, Mention


def chains(*groups, start_id=0):
    return tuple(
        CoreferenceChain(chain_id=start_id + i, mentions=tuple(sorted(g)))
        for i, g in enumerate(groups)
    )


def m(sentence, start, end=None):
    return Mention(0, sentence, start, start if end is None else end)


class TestAlignChains:
    def test_identity(self):
        key = chains([m(0, 0), m(0, 1)], [m(1, 0)])
        alignment = align_chains(key, key)
        assert alignment.pairs == ((0, 0), (1, 1))

    def test_maximum_overlap_wins(self):
        key = chains([m(0, 0), m(0, 1), m(0, 2)])
        response = chains([m(0, 0), m(0, 1)], [m(0, 2)])
        assert align_chains(key, response).mapping().get(0) == 0

    def test_disjoint_chain_unmapped(self):
        key = chains([m(0, 0)])
        response = chains([m(9, 9)])
        assert align_chains(key, response).mapping().get(0) is None

    def test_tie_prefers_larger_response_chain(self):
        key = chains([m(0, 0), m(0, 5)])
        response = chains([m(0, 0)], [m(0, 5), m(0, 6), m(0, 7)])
        assert align_chains(key, response).mapping().get(0) == 1

    def test_tie_then_lower_chain_id(self):
        key = chains([m(0, 0), m(0, 5)])
        response = chains([m(0, 0), m(0, 8)], [m(0, 5), m(0, 9)], start_id=4)
        assert align_chains(key, response).mapping().get(0) == 4


class TestCategorizeErrorsAbstractSpans:
    def test_perfect_response_zero_report(self, example1_thread):
        key = chains([m(6, 2), m(7, 1)], [m(7, 5, 8)])
        report = categorize_errors(example1_thread, key, key)
        assert report == ErrorReport()

    def test_decomposed_chain_fixture(self, example1_thread):
        # one four-mention body chain split into two predicted chains
        key = chains([m(6, 0), m(6, 2), m(7, 1), m(7, 3)])
        response = chains([m(6, 0), m(6, 2)], [m(7, 1), m(7, 3)])
        report = categorize_errors(example1_thread, key, response)
        assert report.decomposed_chain_count == 1
        assert report.new_chain_count == 2
        assert report.missing_chains == 0

    def test_missing_chain_counted_not_mentions(self, example1_thread):
        key = chains([m(6, 0), m(6, 4)], [m(7, 2)])
        response = chains([m(6, 0), m(6, 4)])
        report = categorize_errors(example1_thread, key, response)
        assert report.missing_chains == 1
        assert report.missing_pronoun_refs == 0
        assert report.missing_other_refs == 0

    def test_chain_partition_arithmetic(self, example1_thread):
        rng = random.Random(31)
        for _ in range(40):
            doc, mentions = synthetic_document(rng)
            if not doc.chains:
                continue
            key = doc.chains
            # response: random regrouping of a mention subset
            sample = [x for x in mentions if rng.random() < 0.7]
            groups = []
            for mention in sample:
                if groups and rng.random() < 0.5:
                    groups[rng.randrange(len(groups))].append(mention)
                else:
                    groups.append([mention])
            response = chains(*groups) if groups else ()
            report = categorize_errors(doc.thread, key, response)
            single_mapped = 0
            for kc in key:
                k_set = set(kc.mentions)
                touched = sum(1 for rc in response if k_set & set(rc.mentions))
                if touched == 1:
                    single_mapped += 1
            assert (
                report.decomposed_chain_count + single_mapped + report.missing_chains
                == len(key)
            )


class TestSubtypes:
    def test_missing_pronoun_vs_header_vs_other(self, example1_thread, example1_mentions):
        e = example1_mentions
        key = chains(
            [e["from_email"], e["x_from"], e["i"]],
            [e["to_email"], e["x_to"], e["you"]],
        )
        # drop one pronoun, one header mention and keep the rest grouped
        response = chains(
            [e["from_email"], e["x_from"]],
            [e["to_email"], e["you"]],
        )
        report = categorize_errors(example1_thread, key, response)
        assert report.missing_pronoun_refs == 1  # "I"
        assert report.missing_header_refs == 1   # "Staab, Theresa"
        assert report.missing_other_refs == 0

    def test_pronoun_takes_precedence_over_header(self, example1_thread, example1_mentions):
        e = example1_mentions
        i_mention = e["i"]
        assert i_mention.start_token == i_mention.end_token
        key = chains([e["from_email"], i_mention])
        response = chains([e["from_email"]])
        report = categorize_errors(example1_thread, key, response)
        assert report.missing_pronoun_refs == 1
        assert report.missing_header_refs == 0

    def test_third_person_counts_as_pronoun(self):
        from threadcoref.parsing import RawThread, parse_thread

        thread = parse_thread(
            RawThread(id="t", text="From: a@x.com\nSubject: s\n\nShe called. Panther Pipeline won.\n")
        )
        she = find_span(thread, ["She"])
        panther = find_span(thread, ["Panther", "Pipeline"])
        key = chains([she, panther])
        response = chains([panther])
        report = categorize_errors(thread, key, response)
        assert report.missing_pronoun_refs == 1
        assert report.missing_other_refs == 0

    def test_incorrectly_chained_subtypes(self, example1_thread, example1_mentions):
        e = example1_mentions
        key = chains(
            [e["from_email"], e["x_from"]],
            [e["you"]],
            [e["crestone"]],
        )
        # response wrongly adds "you" and "Crestone..." to the sender chain
        response = chains([e["from_email"], e["x_from"], e["you"], e["crestone"]])
        report = categorize_errors(example1_thread, key, response)
        assert report.incorrect_pronoun_refs == 1
        assert report.incorrect_other_refs == 1


class TestStability:
    def test_report_stable_under_chain_reordering(self, example1_thread, example1_mentions):
        e = example1_mentions
        key = chains(
            [e["from_email"], e["x_from"], e["i"]],
            [e["to_email"], e["x_to"], e["you"]],
            [e["crestone"]],
        )
        response = chains(
            [e["from_email"], e["x_from"]],
            [e["to_email"], e["you"], e["crestone"]],
        )
        base = categorize_errors(example1_thread, key, response)
        rng = random.Random(2)
        for _ in range(8):
            k = list(key)
            r = list(response)
            rng.shuffle(k)
            rng.shuffle(r)
            assert categorize_errors(example1_thread, tuple(k), tuple(r)) == base

    def test_reports_sum(self):
        a = ErrorReport(missing_pronoun_refs=1, new_chain_count=2)
        b = ErrorReport(missing_pronoun_refs=2, decomposed_chain_count=1)
        total = a + b
        assert total.missing_pronoun_refs == 3
        assert total.new_chain_count == 2
        assert total.decomposed_chain_count == 1


class TestOverlapRowsDifferential:
    """Alignment and error counts from overlap rows against the pairwise-scan reference."""

    def test_randomized_documents_match_reference(self):
        rng = random.Random(907)
        shared = repeated_ids = cases = 0
        while cases < 60:
            doc, mentions = synthetic_document(rng)
            if not doc.chains:
                continue
            cases += 1
            key = doc.chains
            groups = []
            for mention in mentions:
                if rng.random() < 0.2:
                    continue
                if groups and rng.random() < 0.6:
                    groups[rng.randrange(len(groups))].append(mention)
                else:
                    groups.append([mention])
            if len(groups) >= 2 and rng.random() < 0.5:
                # a mention in two response chains: touched counts both
                donor, target = rng.sample(range(len(groups)), 2)
                groups[target].append(rng.choice(groups[donor]))
                shared += 1
            response = chains(*groups)
            if len(response) >= 2 and rng.random() < 0.3:
                # a repeated chain id: lookups by id keep their first/last rules
                response = response + (CoreferenceChain(response[0].chain_id, response[1].mentions),)
                repeated_ids += 1
            for k, r in ((key, response), (response, key)):
                assert align_chains(k, r).pairs == oracles.align_chains_reference(k, r)
            report = categorize_errors(doc.thread, key, response)
            assert report == oracles.categorize_errors_reference(doc.thread, key, response)
        assert shared >= 15 and repeated_ids >= 5

    def test_mention_in_two_response_chains_touches_both(self, example1_thread):
        key = chains([m(6, 0), m(6, 2)])
        response = chains([m(6, 0), m(6, 2)], [m(6, 0)])
        report = categorize_errors(example1_thread, key, response)
        assert (report.decomposed_chain_count, report.new_chain_count) == (1, 2)
        assert report == oracles.categorize_errors_reference(example1_thread, key, response)


def _outcome(func, *args) -> str:
    try:
        return repr(func(*args))
    except Exception as exc:  # the same failure counts as the same outcome
        return type(exc).__name__


class TestLocationKeyDifferential:
    """Alignment and error counts keyed by location against the same code
    keyed by the mentions themselves (kept in ``oracles``)."""

    def test_randomized_documents_identical(self):
        rng = random.Random(1934)
        twins = tuples = cases = 0
        while cases < 150:
            doc, mentions = synthetic_document(rng)
            if not doc.chains:
                continue
            cases += 1
            groups = []
            for mention in mentions:
                if rng.random() < 0.15:
                    continue
                if rng.random() < 0.3:
                    # the same location with another entity type
                    other = rng.choice([t for t in (None, *EntityType) if t is not mention.entity_type])
                    mention = mention._replace(entity_type=other)
                    twins += 1
                if groups and rng.random() < 0.6:
                    groups[rng.randrange(len(groups))].append(mention)
                else:
                    groups.append([mention])
            key = [CoreferenceChain(c.chain_id, tuple(rng.sample(c.mentions, len(c.mentions)))) for c in doc.chains]
            response = [CoreferenceChain(i, tuple(g)) for i, g in enumerate(groups)]
            if response and rng.random() < 0.3:
                # a plain tuple of a location in both sides' chains matches no mention
                location = rng.choice(mentions).location
                i, j = rng.randrange(len(key)), rng.randrange(len(response))
                key[i] = key[i]._replace(mentions=key[i].mentions + (location,))
                response[j] = response[j]._replace(mentions=(location,) + response[j].mentions)
                tuples += 1
            rng.shuffle(key)
            rng.shuffle(response)
            for k, r in ((key, response), (response, key)):
                assert repr(align_chains(k, r)) == repr(oracles.align_chains_mention_keyed(k, r))
                assert _outcome(categorize_errors, doc.thread, k, r) == _outcome(
                    oracles.categorize_errors_mention_keyed, doc.thread, k, r)
        assert twins >= 100 and tuples >= 20
