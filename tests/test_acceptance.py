"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expected values tagged as derived were computed with the brute-force
oracles in oracles.py before being frozen here.
"""
import random
import re
import time
from contextlib import contextmanager

import pytest

import oracles
from conftest import (
    CORPUS10_DIR,
    find_span,
    random_key_response,
    synthetic_document,
    tiny_thread,
)
from threadcoref import cli
from threadcoref.baselines import chain_overlapping_mentions, resolve_hb1, resolve_hb2
from threadcoref.cli import main
from threadcoref.errors import ErrorReport, categorize_errors
from threadcoref.features import message_identifier, reverse_document, reverse_thread, section_info
from threadcoref.filtering import ExclusionSet, FilterCategory, filter_corpus, fingerprint_message
from threadcoref.metrics import b_cubed, ceaf_e, ceaf_e_parts, conll_average, lea, muc
from threadcoref.model import CoreferenceChain, Section, validate_document
from threadcoref.serialization import (
    read_conll,
    read_native,
    write_conll,
    write_native,
    write_native_string,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {number:02d} {name}: PASS", flush=True)


# ---------------------------------------------------------------------------
# 1. Metric oracle equivalence
# ---------------------------------------------------------------------------

HAND_PAIRS = [
    # the derived toy case: MUC 2/3, B3 11/15, CEAFE 0.8, LEA 0.6
    ([{"a", "b", "c"}, {"d", "e"}], [{"a", "b"}, {"c", "d", "e"}]),
    # the reference implementation's worked example
    ([{"a", "b", "c"}, {"d", "e", "f", "g"}], [{"a", "b"}, {"c", "d"}, {"f", "g", "h", "i"}]),
    # identity, small and large
    ([{"a", "b"}], [{"a", "b"}]),
    ([{"a", "b", "c"}, {"d"}, {"e", "f"}], [{"a", "b", "c"}, {"d"}, {"e", "f"}]),
    # all-singleton sides
    ([{"a"}, {"b"}, {"c"}], [{"a", "b", "c"}]),
    ([{"a", "b", "c"}], [{"a"}, {"b"}, {"c"}]),
    ([{"a"}, {"b"}], [{"a"}, {"b"}]),
    # complete disagreement and disjoint mention sets
    ([{"a", "b"}, {"c", "d"}], [{"a", "c"}, {"b", "d"}]),
    ([{"a", "b"}], [{"x", "y"}]),
    # twinless mentions on each side
    ([{"a", "b", "c"}], [{"a", "b"}]),
    ([{"a", "b"}], [{"a", "b", "c"}]),
    ([{"a", "b"}, {"c"}], [{"a", "b", "z"}]),
    # one big chain against fragments
    ([{"a", "b", "c", "d", "e", "f"}], [{"a", "b"}, {"c", "d"}, {"e", "f"}]),
    ([{"a", "b"}, {"c", "d"}, {"e", "f"}], [{"a", "b", "c", "d", "e", "f"}]),
    # singleton vs entity containing it
    ([{"a"}], [{"a", "b"}]),
    ([{"a"}], [{"a"}]),
    # asymmetric sizes and partial overlaps
    ([{"a", "b", "c", "d"}, {"e", "f"}], [{"a", "b"}, {"c", "e"}, {"d", "f"}]),
    ([{"a", "b", "c"}, {"d", "e", "f"}], [{"a", "d"}, {"b", "e"}, {"c", "f"}]),
    ([{"a", "b", "c", "d", "e"}], [{"a", "b", "c", "d", "e"}]),
    ([{"a", "b", "c", "d", "e"}], [{"a"}, {"b", "c", "d", "e"}]),
    # nested decompositions with extra chains
    ([{"a", "b", "c", "d"}], [{"a", "b"}, {"c", "d"}, {"x", "y"}]),
    ([{"a", "b"}, {"c", "d"}, {"e"}], [{"a", "b", "c"}, {"d"}, {"e"}]),
]


def test_criterion_1_metric_oracle_equivalence():
    with criterion(1, "metric oracle equivalence"):
        assert len(HAND_PAIRS) >= 20
        start = time.perf_counter()
        # frozen derived values for the toy case
        toy_key, toy_response = HAND_PAIRS[0]
        assert muc(toy_key, toy_response).f1 == pytest.approx(2 / 3, abs=1e-4)
        assert b_cubed(toy_key, toy_response).f1 == pytest.approx(11 / 15, abs=1e-4)
        assert ceaf_e(toy_key, toy_response).f1 == pytest.approx(0.8, abs=1e-4)
        assert lea(toy_key, toy_response).f1 == pytest.approx(0.6, abs=1e-4)
        for key, response in HAND_PAIRS:
            checks = [
                (muc(key, response), oracles.muc_oracle(key, response)),
                (b_cubed(key, response), oracles.b_cubed_oracle(key, response)),
                (ceaf_e(key, response), oracles.ceaf_e_oracle(key, response)),
                (lea(key, response), oracles.lea_oracle(key, response)),
            ]
            for ours, reference in checks:
                assert ours.precision == pytest.approx(float(reference[0]), abs=1e-4)
                assert ours.recall == pytest.approx(float(reference[1]), abs=1e-4)
                assert ours.f1 == pytest.approx(float(reference[2]), abs=1e-4)
            avg = conll_average(key, response).conll_avg_f1
            assert avg == pytest.approx(float(oracles.conll_avg_oracle(key, response)), abs=1e-4)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"battery took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. CEAFE assignment correctness
# ---------------------------------------------------------------------------

def test_criterion_2_ceafe_assignment_exact():
    with criterion(2, "CEAFE assignment equals brute force"):
        rng = random.Random(424242)
        for trial in range(200):
            n = rng.randint(2, 12)
            universe = list(range(n))
            key, response = [], []
            while not key or not response or len(key) > 6 or len(response) > 6:
                key_items = rng.sample(universe, rng.randint(1, n))
                resp_items = rng.sample(universe, rng.randint(1, n))
                key, response = [], []
                i = 0
                while i < len(key_items):
                    size = rng.randint(1, min(4, len(key_items) - i))
                    key.append(frozenset(key_items[i : i + size]))
                    i += size
                i = 0
                while i < len(resp_items):
                    size = rng.randint(1, min(4, len(resp_items) - i))
                    response.append(frozenset(resp_items[i : i + size]))
                    i += size
            parts = ceaf_e_parts(key, response)
            brute = oracles.ceaf_e_best_total(key, response)
            assert abs(parts.p_num - float(brute)) < 1e-12, (trial, key, response)


# ---------------------------------------------------------------------------
# 3. Metric properties on randomized documents
# ---------------------------------------------------------------------------

def test_criterion_3_metric_properties():
    with criterion(3, "metric identity/symmetry/permutation/average"):
        rng = random.Random(909)
        metrics = (muc, b_cubed, ceaf_e, lea)
        for _ in range(500):
            key, response = random_key_response(rng)
            all_singletons = all(len(c) == 1 for c in key)
            for metric in metrics:
                identity = metric(key, key)
                if metric is muc and all_singletons:
                    # no links exist: undefined denominators report 0 + flag
                    assert identity.f1 == 0.0
                    assert "undefined-recall" in identity.flags
                else:
                    assert (identity.precision, identity.recall, identity.f1) == (1.0, 1.0, 1.0)
                forward = metric(key, response)
                backward = metric(response, key)
                assert forward.precision == pytest.approx(backward.recall, abs=1e-12)
                assert forward.recall == pytest.approx(backward.precision, abs=1e-12)
            report = conll_average(key, response)
            assert report.conll_avg_f1 == (report.muc.f1 + report.b3.f1 + report.ceafe.f1) / 3
            shuffled_key = key[:]
            shuffled_response = response[:]
            rng.shuffle(shuffled_key)
            rng.shuffle(shuffled_response)
            assert conll_average(shuffled_key, shuffled_response) == report


# ---------------------------------------------------------------------------
# 4. Example 1 baseline fixture
# ---------------------------------------------------------------------------

def test_criterion_4_example1_baselines(example1_thread, example1_mentions):
    with criterion(4, "Hb1/Hb2 reproduce the worked-example chains"):
        e = example1_mentions
        mentions = list(e.values())
        expected = {
            frozenset({e["from_email"], e["x_from"], e["i"]}),
            frozenset({e["to_email"], e["x_to"], e["you"]}),
            frozenset({e["crestone"]}),
        }
        hb1 = resolve_hb1(example1_thread, mentions)
        assert {frozenset(c.mentions) for c in hb1.chains} == expected
        hb2 = resolve_hb2(example1_thread, mentions)
        assert {frozenset(c.mentions) for c in hb2.chains} == expected


# ---------------------------------------------------------------------------
# 5. Baseline partition properties on randomized documents
# ---------------------------------------------------------------------------

def test_criterion_5_baseline_properties():
    with criterion(5, "baseline partition/agreement/plural/overlap properties"):
        from threadcoref.model import mention_text

        rng = random.Random(7171)
        plural_words = {"we", "us", "our", "ours", "ourselves"}
        plural_free = 0
        for _ in range(200):
            include_plural = rng.random() < 0.6
            doc, mentions = synthetic_document(rng, include_plural=include_plural)
            thread = doc.thread
            hb1 = resolve_hb1(thread, mentions)
            hb2 = resolve_hb2(thread, mentions)
            for resolution in (hb1, hb2):
                flat = sorted(m for c in resolution.chains for m in c.mentions)
                assert flat == sorted(set(mentions))
            texts = {mention_text(thread, m).casefold() for m in mentions}
            if not texts & plural_words:
                plural_free += 1
                assert {frozenset(c.mentions) for c in hb1.chains} == {
                    frozenset(c.mentions) for c in hb2.chains
                }
            plural_chains = [
                c
                for c in hb2.chains
                if any(mention_text(thread, m).casefold() in plural_words for m in c.mentions)
            ]
            assert len(plural_chains) <= 1
            # overlap chaining: order invariance and union-find transitivity
            non_pronominal = [
                m for m in mentions
                if mention_text(thread, m).casefold() not in plural_words | {
                    "i", "me", "my", "you", "your", "us", "our"
                }
            ]
            base = chain_overlapping_mentions(thread, non_pronominal)
            shuffled = non_pronominal[:]
            rng.shuffle(shuffled)
            assert chain_overlapping_mentions(thread, shuffled) == base
            eligible = {
                m: (
                    frozenset()
                    if next(iter([thread.messages[m.message_index]
                                  .sentences[m.sentence_index][m.start_token].section]))
                    is Section.FOOTER
                    else oracles._normalize_mention_words_reference(thread, m)
                )
                for m in sorted(set(non_pronominal))
            }
            expected = {frozenset(g) for g in oracles.overlap_partition_oracle(eligible)}
            assert {frozenset(g) for g in base} == expected
        assert plural_free >= 30


# ---------------------------------------------------------------------------
# 6. Filtering distribution and boundaries
# ---------------------------------------------------------------------------

def test_criterion_6_filter_distribution(corpus10_threads):
    with criterion(6, "filter verdict distribution and boundaries"):
        hotel = next(t for t in corpus10_threads if t.id == "hotel.txt")
        exclusion = ExclusionSet(frozenset(fingerprint_message(m) for m in hotel.messages))
        verdicts, report = filter_corpus(corpus10_threads, exclusion)
        counts = {cat: n for cat, n in report.counts}
        assert counts[FilterCategory.DUPLICATE] == 2
        assert counts[FilterCategory.NO_CONTENT] == 1
        assert counts[FilterCategory.INVALID_ATTACHMENT] == 1
        assert counts[FilterCategory.NON_ENGLISH] == 1
        assert counts[FilterCategory.EXCLUSION_OVERLAP] == 1
        assert counts[FilterCategory.ACCEPTED] == 4
        assert report.total == len(corpus10_threads)

        # length boundary: 3 messages rejected, 4 accepted
        three = tiny_thread([1, 1, 1], thread_id="three")
        four = tiny_thread([1, 1, 1, 1], thread_id="four")
        v3, _ = filter_corpus([three])
        v4, _ = filter_corpus([four])
        assert v3[0].category is FilterCategory.TOO_SHORT
        assert v4[0].category is FilterCategory.ACCEPTED

        # no-content boundary: exactly half empty is kept
        half = tiny_thread([1, 1, 0, 0], thread_id="half")
        v_half, _ = filter_corpus([half])
        assert v_half[0].category is not FilterCategory.NO_CONTENT
        majority = tiny_thread([1, 0, 0, 0], thread_id="majority")
        v_majority, _ = filter_corpus([majority])
        assert v_majority[0].category is FilterCategory.NO_CONTENT


# ---------------------------------------------------------------------------
# 7. Serialization round trips and column-format acceptance
# ---------------------------------------------------------------------------

def _strict_conll_check(text):
    """Independent column-format validation (no shared code with the reader)."""
    problems = []
    open_stacks = {}
    in_doc = False
    entry_re = re.compile(r"^(\((\d+)\)|\((\d+)|(\d+)\))$")
    for line_no, line in enumerate(text.splitlines(), 1):
        if line.startswith("#begin document ("):
            if in_doc:
                problems.append(f"{line_no}: nested begin")
            in_doc = True
            continue
        if line.startswith("#end document"):
            if not in_doc:
                problems.append(f"{line_no}: end without begin")
            if any(open_stacks.values()):
                problems.append(f"{line_no}: unbalanced parentheses")
            in_doc = False
            open_stacks = {}
            continue
        if not line.strip():
            continue
        if not in_doc:
            problems.append(f"{line_no}: row outside document")
            continue
        cols = line.split("\t")
        if len(cols) != 5:
            problems.append(f"{line_no}: expected 5 columns")
            continue
        if not cols[2].isdigit():
            problems.append(f"{line_no}: bad word index")
        if cols[4] == "-":
            continue
        for entry in cols[4].split("|"):
            m = entry_re.match(entry)
            if not m:
                problems.append(f"{line_no}: bad entry {entry!r}")
            elif m.group(3):
                open_stacks.setdefault(m.group(3), []).append(line_no)
            elif m.group(4):
                stack = open_stacks.get(m.group(4))
                if not stack:
                    problems.append(f"{line_no}: close without open")
                else:
                    stack.pop()
    if in_doc:
        problems.append("missing #end document")
    return problems


def test_criterion_7_serialization_round_trips():
    with criterion(7, "read-write identity and column-format acceptance"):
        from oracles import mention_to_absolute

        rng = random.Random(515)
        for _ in range(100):
            doc, _ = synthetic_document(rng)
            assert validate_document(doc) == []
            native = read_native(write_native_string([doc]))[0]
            assert native == doc
            column_text = write_conll(doc)
            assert _strict_conll_check(column_text) == []
            skeleton = read_conll(column_text)
            assert [t.text for t in skeleton.thread.tokens()] == [
                t.text for t in doc.thread.tokens()
            ]
            original = {
                frozenset(mention_to_absolute(doc.thread, m) for m in c.mentions)
                for c in doc.chains
            }
            recovered = {
                frozenset(mention_to_absolute(skeleton.thread, m) for m in c.mentions)
                for c in skeleton.chains
            }
            assert recovered == original


# ---------------------------------------------------------------------------
# 8. Error taxonomy
# ---------------------------------------------------------------------------

def test_criterion_8_error_taxonomy(example1_thread):
    with criterion(8, "error taxonomy zero/decomposition/stability"):
        rng = random.Random(88)
        doc, _ = synthetic_document(rng)
        perfect = categorize_errors(doc.thread, doc.chains, doc.chains)
        assert perfect == ErrorReport()

        from threadcoref.model import Mention

        spans = [Mention(0, 6, 0, 0), Mention(0, 6, 2, 2), Mention(0, 7, 1, 1), Mention(0, 7, 3, 3)]
        key = (CoreferenceChain(0, tuple(spans)),)
        response = (
            CoreferenceChain(0, tuple(spans[:2])),
            CoreferenceChain(1, tuple(spans[2:])),
        )
        report = categorize_errors(example1_thread, key, response)
        assert report.decomposed_chain_count == 1
        assert report.new_chain_count == 2

        key_multi = (
            CoreferenceChain(0, tuple(spans[:2])),
            CoreferenceChain(1, tuple(spans[2:])),
        )
        base = categorize_errors(example1_thread, key_multi, response)
        for _ in range(10):
            k = list(key_multi)
            r = list(response)
            rng.shuffle(k)
            rng.shuffle(r)
            assert categorize_errors(example1_thread, tuple(k), tuple(r)) == base


# ---------------------------------------------------------------------------
# 9. Feature operations
# ---------------------------------------------------------------------------

def test_criterion_9_feature_ops(corpus10_threads, example1_thread):
    with criterion(9, "REV idempotence, validity preservation, MI/SI projections"):
        fixtures = list(corpus10_threads) + [example1_thread]
        for thread in fixtures:
            mi = message_identifier(thread)
            expected_mi = []
            for msg in thread.messages:
                expected_mi.extend([msg.index] * sum(1 for _ in msg.tokens()))
            assert list(mi) == expected_mi
            si = section_info(thread)
            order = {Section.HEADER: "h", Section.BODY: "b", Section.FOOTER: "f"}
            flat = "".join(order[s] for s in si)
            pos = 0
            for msg in thread.messages:
                size = sum(1 for _ in msg.tokens())
                assert re.fullmatch(r"h*b*f*", flat[pos : pos + size])
                pos += size

            once = reverse_thread(thread)
            assert reverse_thread(once) == once
            assert sorted(t.text for t in once.tokens()) == sorted(
                t.text for t in thread.tokens()
            )

        rng = random.Random(99)
        for _ in range(40):
            doc, _ = synthetic_document(rng)
            assert validate_document(doc) == []
            reversed_doc = reverse_document(doc)
            assert validate_document(reversed_doc) == []
            assert reverse_document(reversed_doc) == reversed_doc


# ---------------------------------------------------------------------------
# 10. End-to-end determinism
# ---------------------------------------------------------------------------

def _run_pipeline(workdir, jobs):
    out = workdir / f"run-jobs{jobs}"
    out.mkdir(parents=True)
    parsed = out / "parsed.jsonl"
    featured = out / "featured.jsonl"
    assert main(["parse", "--in", str(CORPUS10_DIR), "--out", str(parsed), "--jobs", str(jobs)]) == 0
    assert main(["features", "--in", str(parsed), "--out", str(featured),
                 "--mi", "--si", "--rev"]) == 0

    rng = random.Random(31337)
    gold = out / "gold.jsonl"
    docs = [synthetic_document(rng)[0] for _ in range(10)]
    with open(gold, "w", encoding="utf-8") as fp:
        write_native(docs, fp)
    resolved = {}
    for baseline in ("hb1", "hb2"):
        target = out / f"{baseline}.jsonl"
        assert main(["resolve", "--baseline", baseline, "--in", str(gold), "--out", str(target), "--jobs", str(jobs)]) == 0
        resolved[baseline] = target

    import contextlib
    import io

    reports = {}
    for baseline, target in resolved.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["score", "--key", str(gold), "--response", str(target)]) == 0
            assert main(["errors", "--key", str(gold), "--response", str(target)]) == 0
        reports[baseline] = buf.getvalue()

    artifacts = {p.name: p.read_bytes() for p in (parsed, featured, gold, *resolved.values())}
    return artifacts, reports


def test_criterion_10_end_to_end_determinism(tmp_path, monkeypatch):
    # corpus10 fills one chunk of 32 items, which --jobs runs in process: chunks
    # of two make --jobs 8 run its pool
    monkeypatch.setattr(cli, "_CHUNK_SIZE", 2)
    with criterion(10, "pipeline byte-identical across runs and worker counts"):
        start = time.perf_counter()
        first, first_reports = _run_pipeline(tmp_path / "a", jobs=1)
        second, second_reports = _run_pipeline(tmp_path / "b", jobs=1)
        parallel, parallel_reports = _run_pipeline(tmp_path / "c", jobs=8)
        assert first == second == parallel
        assert first_reports == second_reports == parallel_reports
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s"
