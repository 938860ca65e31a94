import random

from conftest import find_span, synthetic_document
from oracles import overlap_partition_oracle
from threadcoref.baselines import (
    PronounClass,
    build_participant_index,
    chain_overlapping_mentions,
    classify_pronoun,
    mention_pronoun_class,
    normalize_mention_words,
    resolve_hb1,
    resolve_hb2,
)
from threadcoref.model import Mention, Section, mention_text
from threadcoref.parsing import RawThread, parse_thread


def partition_of(chains):
    return {frozenset(c.mentions) for c in chains}


def parse(text, thread_id="t"):
    return parse_thread(RawThread(id=thread_id, text=text))


class TestPronounClass:
    def test_word_lists(self):
        assert classify_pronoun("I") is PronounClass.FIRST_SINGULAR
        assert classify_pronoun("Myself") is PronounClass.FIRST_SINGULAR
        assert classify_pronoun("YOU") is PronounClass.SECOND
        assert classify_pronoun("yourselves") is PronounClass.SECOND
        assert classify_pronoun("We") is PronounClass.FIRST_PLURAL
        assert classify_pronoun("ours") is PronounClass.FIRST_PLURAL
        assert classify_pronoun("he") is PronounClass.OTHER
        assert classify_pronoun("Falcon") is PronounClass.OTHER

    def test_multi_token_mention_never_pronominal(self, example1_thread, example1_mentions):
        assert (
            mention_pronoun_class(example1_thread, example1_mentions["crestone"])
            is PronounClass.OTHER
        )
        assert (
            mention_pronoun_class(example1_thread, example1_mentions["i"])
            is PronounClass.FIRST_SINGULAR
        )


class TestNormalization:
    def test_email_local_part_words(self, example1_thread, example1_mentions):
        words = normalize_mention_words(example1_thread, example1_mentions["from_email"])
        assert words == {"g", "barkowsky"}

    def test_display_name_words(self, example1_thread, example1_mentions):
        words = normalize_mention_words(example1_thread, example1_mentions["x_from"])
        assert words == {"barkowsky", "gloria", "g"}

    def test_stopwords_dropped(self, example1_thread, example1_mentions):
        words = normalize_mention_words(example1_thread, example1_mentions["crestone"])
        assert words == {"crestone", "lost", "creek"}


class TestParticipantIndex:
    def test_example1_roles(self, example1_thread, example1_mentions):
        m = example1_mentions
        mentions = list(m.values())
        index = build_participant_index(example1_thread, mentions)
        entry = index.for_message(0)
        sender_texts = {mention_text(example1_thread, s) for s in entry.senders}
        recipient_texts = {mention_text(example1_thread, r) for r in entry.recipients}
        assert sender_texts == {"g..barkowsky@enron.com", "Barkowsky , Gloria G ."}
        assert recipient_texts == {"theresa.staab@enron.com", "Staab , Theresa"}
        assert entry.pronoun_recipients == entry.recipients

    def test_headerless_message_empty_entry(self):
        thread = parse("From: a@x.com\nSubject: s\n\nhello there.\n")
        index = build_participant_index(thread, [])
        assert index.for_message(0).senders == ()
        assert index.for_message(0).recipients == ()

    def test_sender_on_to_line_excluded_from_pronoun_recipients(self):
        thread = parse(
            "From: alice.johnson@acme.com\n"
            "To: alice.johnson@acme.com, bob.smith@acme.com\n"
            "Subject: s\n\nCan you check this?\n"
        )
        sender = find_span(thread, ["alice.johnson@acme.com"])
        self_recipient = Mention(0, 1, 2, 2)
        other_recipient = find_span(thread, ["bob.smith@acme.com"])
        assert mention_text(thread, self_recipient) == "alice.johnson@acme.com"
        index = build_participant_index(thread, [sender, self_recipient, other_recipient])
        entry = index.for_message(0)
        assert set(entry.recipients) == {self_recipient, other_recipient}
        assert set(entry.pronoun_recipients) == {other_recipient}


class TestOverlapChaining:
    def test_display_name_merges_with_address(self, example1_thread, example1_mentions):
        m = example1_mentions
        groups = chain_overlapping_mentions(
            example1_thread, [m["to_email"], m["x_to"], m["crestone"]]
        )
        assert {frozenset(g) for g in groups} == {
            frozenset({m["to_email"], m["x_to"]}),
            frozenset({m["crestone"]}),
        }

    def test_disjoint_words_stay_apart(self, example1_thread, example1_mentions):
        m = example1_mentions
        groups = chain_overlapping_mentions(example1_thread, [m["crestone"], m["x_from"]])
        assert len(groups) == 2

    def test_transitive_closure(self):
        thread = parse(
            "From: a@x.com\nSubject: s\n\n"
            "Falcon Venture is live. Venture Capital Group agreed. Capital Desk signed.\n"
        )
        a = find_span(thread, ["Falcon", "Venture"])
        b = find_span(thread, ["Venture", "Capital", "Group"])
        c = find_span(thread, ["Capital", "Desk"])
        words = {m: normalize_mention_words(thread, m) for m in (a, b, c)}
        assert words[a] & words[c] == set()
        groups = chain_overlapping_mentions(thread, [a, b, c])
        assert {frozenset(g) for g in groups} == {frozenset({a, b, c})}
        # union-find result equals brute-force transitive closure
        oracle = overlap_partition_oracle(words)
        assert {frozenset(g) for g in groups} == {frozenset(g) for g in oracle}

    def test_order_invariance(self, example1_thread, example1_mentions):
        m = example1_mentions
        mentions = [m["to_email"], m["x_to"], m["crestone"], m["from_email"], m["x_from"]]
        base = chain_overlapping_mentions(example1_thread, mentions)
        rng = random.Random(3)
        for _ in range(10):
            shuffled = mentions[:]
            rng.shuffle(shuffled)
            assert chain_overlapping_mentions(example1_thread, shuffled) == base

    def test_footer_mentions_never_merge(self):
        thread = parse(
            "From: a@x.com\nSubject: s\n\n"
            "The Falcon Venture report is due.\n\n"
            "This e-mail is confidential. Falcon Venture distribution lists apply.\n"
        )
        body = find_span(thread, ["Falcon", "Venture"], section=Section.BODY)
        footer = find_span(thread, ["Falcon", "Venture"], section=Section.FOOTER)
        groups = chain_overlapping_mentions(thread, [body, footer])
        assert {frozenset(g) for g in groups} == {frozenset({body}), frozenset({footer})}


class TestHb1:
    def test_example1_partition_matches_worked_example(self, example1_thread, example1_mentions):
        m = example1_mentions
        resolution = resolve_hb1(example1_thread, list(m.values()))
        assert partition_of(resolution.chains) == {
            frozenset({m["from_email"], m["x_from"], m["i"]}),
            frozenset({m["to_email"], m["x_to"], m["you"]}),
            frozenset({m["crestone"]}),
        }
        assert resolution.unresolved == ()

    def test_no_pronouns_disjoint_mentions_all_singletons(self):
        thread = parse(
            "From: zz@qq.org\nSubject: s\n\nPanther Pipeline opened. Midway Plant closed.\n"
        )
        a = find_span(thread, ["Panther", "Pipeline"])
        b = find_span(thread, ["Midway", "Plant"])
        resolution = resolve_hb1(thread, [a, b])
        assert partition_of(resolution.chains) == {frozenset({a}), frozenset({b})}

    def test_we_links_sender_and_recipient(self):
        thread = parse(
            "From: alice.johnson@acme.com\nTo: bob.smith@acme.com\nSubject: s\n\n"
            "We should meet.\n"
        )
        sender = find_span(thread, ["alice.johnson@acme.com"])
        recipient = find_span(thread, ["bob.smith@acme.com"])
        we = find_span(thread, ["We"])
        resolution = resolve_hb1(thread, [sender, recipient, we])
        assert partition_of(resolution.chains) == {frozenset({sender, recipient, we})}

    def test_second_person_merges_all_recipients(self):
        thread = parse(
            "From: alice.johnson@acme.com\nTo: bob.smith@acme.com, eve.clark@gamma.net\n"
            "Subject: s\n\nCan you respond?\n"
        )
        sender = find_span(thread, ["alice.johnson@acme.com"])
        r1 = find_span(thread, ["bob.smith@acme.com"])
        r2 = find_span(thread, ["eve.clark@gamma.net"])
        you = find_span(thread, ["you"])
        resolution = resolve_hb1(thread, [sender, r1, r2, you])
        assert partition_of(resolution.chains) == {
            frozenset({sender}),
            frozenset({r1, r2, you}),
        }

    def test_unresolved_pronoun_recorded(self):
        thread = parse("From: a@x.com\nSubject: s\n\nCan you respond?\n")
        you = find_span(thread, ["you"])
        resolution = resolve_hb1(thread, [you])
        assert partition_of(resolution.chains) == {frozenset({you})}
        assert len(resolution.unresolved) == 1
        assert resolution.unresolved[0].mention == you
        assert resolution.unresolved[0].pronoun_class is PronounClass.SECOND

    def test_cross_message_sender_merging_links_pronouns(self):
        text = (
            "Date: Mon, 17 Dec 2001 12:00:00 -0800\n"
            "From: alice.johnson@acme.com\nTo: bob.smith@acme.com\nSubject: RE: s\n\n"
            "I signed it.\n\n"
            "-----Original Message-----\n"
            "From: alice.johnson@acme.com\nSent: Mon, 17 Dec 2001 10:00:00 -0800\n"
            "To: bob.smith@acme.com\nSubject: s\n\nI will sign tomorrow.\n"
        )
        thread = parse(text)
        s0 = find_span(thread, ["alice.johnson@acme.com"], message_index=0)
        s1 = find_span(thread, ["alice.johnson@acme.com"], message_index=1)
        i0 = find_span(thread, ["I"], message_index=0)
        i1 = find_span(thread, ["I"], message_index=1)
        resolution = resolve_hb1(thread, [s0, s1, i0, i1])
        assert partition_of(resolution.chains) == {frozenset({s0, s1, i0, i1})}


class TestHb2:
    def test_plural_chain_spans_thread_not_participants(self):
        text = (
            "Date: Mon, 17 Dec 2001 12:00:00 -0800\n"
            "From: alice.johnson@acme.com\nTo: bob.smith@acme.com\nSubject: RE: s\n\n"
            "We are ready.\n\n"
            "-----Original Message-----\n"
            "From: bob.smith@acme.com\nSent: Mon, 17 Dec 2001 10:00:00 -0800\n"
            "To: alice.johnson@acme.com\nSubject: s\n\nWe need a plan.\n"
        )
        thread = parse(text)
        a0 = find_span(thread, ["alice.johnson@acme.com"], message_index=0)
        b0 = find_span(thread, ["bob.smith@acme.com"], message_index=0)
        a1 = find_span(thread, ["alice.johnson@acme.com"], message_index=1)
        b1 = find_span(thread, ["bob.smith@acme.com"], message_index=1)
        we0 = find_span(thread, ["We"], message_index=0)
        we1 = find_span(thread, ["We"], message_index=1)
        resolution = resolve_hb2(thread, [a0, b0, a1, b1, we0, we1])
        parts = partition_of(resolution.chains)
        assert frozenset({we0, we1}) in parts
        # per-participant chains merge across messages, untouched by plurals
        assert frozenset({a0, a1}) in parts
        assert frozenset({b0, b1}) in parts

    def test_equals_hb1_without_plurals(self, example1_thread, example1_mentions):
        mentions = list(example1_mentions.values())
        hb1 = resolve_hb1(example1_thread, mentions)
        hb2 = resolve_hb2(example1_thread, mentions)
        assert partition_of(hb1.chains) == partition_of(hb2.chains)


class TestRandomizedProperties:
    def test_partition_and_variant_agreement(self):
        rng = random.Random(17)
        plural_free = 0
        for _ in range(80):
            include_plural = rng.random() < 0.5
            doc, mentions = synthetic_document(rng, include_plural=include_plural)
            for resolver in (resolve_hb1, resolve_hb2):
                resolution = resolver(doc.thread, mentions)
                out = [m for c in resolution.chains for m in c.mentions]
                assert sorted(out) == sorted(set(mentions))  # exact partition
            texts = {
                mention_text(doc.thread, m).casefold() for m in mentions
            }
            if not texts & {"we", "us", "our", "ours", "ourselves"}:
                plural_free += 1
                hb1 = resolve_hb1(doc.thread, mentions)
                hb2 = resolve_hb2(doc.thread, mentions)
                assert partition_of(hb1.chains) == partition_of(hb2.chains)
        assert plural_free >= 10

    def test_rev_does_not_change_partitions(self):
        from threadcoref.features import date_permutation, reverse_document
        from threadcoref.model import AnnotatedDocument, CoreferenceChain

        rng = random.Random(41)
        checked = 0
        for _ in range(60):
            doc, mentions = synthetic_document(rng)
            if len(doc.thread.messages) < 2:
                continue
            perm = date_permutation(doc.thread)
            if perm == sorted(perm):
                continue
            wrapped = AnnotatedDocument(
                thread=doc.thread,
                chains=(CoreferenceChain(0, tuple(sorted(set(mentions)))),),
            )
            reversed_doc = reverse_document(wrapped)
            reversed_mentions = [m for c in reversed_doc.chains for m in c.mentions]
            for resolver in (resolve_hb1, resolve_hb2):
                base = resolver(doc.thread, mentions)
                remapped = {
                    frozenset(
                        m._replace(message_index=perm[m.message_index])
                        for m in c.mentions
                    )
                    for c in base.chains
                }
                after = resolver(reversed_doc.thread, reversed_mentions)
                assert {frozenset(c.mentions) for c in after.chains} == remapped
            checked += 1
        assert checked >= 15

    def test_hb2_at_most_one_plural_chain(self):
        rng = random.Random(29)
        for _ in range(60):
            doc, mentions = synthetic_document(rng, include_plural=True)
            resolution = resolve_hb2(doc.thread, mentions)
            plural_words = {"we", "us", "our", "ours", "ourselves"}
            plural_chains = [
                c
                for c in resolution.chains
                if any(
                    mention_text(doc.thread, m).casefold() in plural_words
                    for m in c.mentions
                )
            ]
            assert len(plural_chains) <= 1
            if plural_chains:
                # the plural chain holds nothing but plural pronouns
                assert all(
                    mention_text(doc.thread, m).casefold() in plural_words
                    for m in plural_chains[0].mentions
                )
