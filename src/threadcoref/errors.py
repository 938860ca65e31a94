"""Automatic categorization of prediction errors.

Errors fall into four groups: references missing from an aligned chain
(subtyped pronoun / header / other), whole chains missing from the
response, references chained incorrectly (pronoun / other), and gold
chains decomposed into several predicted chains. The categorizer is a
deterministic approximation of a human pass: each key chain aligns to the
response chain with maximum mention overlap, ties broken toward the larger
response chain, then the lower chain id.
"""
from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from . import wordlists
from .metrics import member_keys, overlap_rows, transpose_rows
from .model import (
    CoreferenceChain,
    EmailThread,
    Mention,
    Section,
    mention_tokens,
)


class ChainAlignment(NamedTuple):
    """Greedy maximum-overlap mapping from key chain ids to response chain ids."""

    pairs: tuple[tuple[int, int], ...] = ()

    def mapping(self) -> dict[int, int]:
        """Key chain id -> response chain id; the first pair of a repeated key id wins."""
        return dict(reversed(self.pairs))


def _alignment(
    key: Sequence[CoreferenceChain],
    response: Sequence[CoreferenceChain],
    rows: list[dict[int, int]],
) -> ChainAlignment:
    """Alignment read from overlap rows.

    Ties on overlap go to the larger response chain, then the lower chain id,
    then the earlier chain, as a scan over ``response`` in order would pick.
    """
    pairs = []
    for kc, row in zip(key, rows):
        if row:
            best = min(
                row, key=lambda j: (-row[j], -len(response[j]), response[j].chain_id, j)
            )
            pairs.append((kc.chain_id, response[best].chain_id))
    return ChainAlignment(pairs=tuple(pairs))


def align_chains(
    key: Sequence[CoreferenceChain], response: Sequence[CoreferenceChain]
) -> ChainAlignment:
    """Map each key chain to its best-overlapping response chain.

    Unmapped when no response chain shares a mention. Several key chains
    may map to the same response chain.
    """
    key_sets = [set(member_keys(c.mentions)) for c in key]
    rows = overlap_rows(key_sets, [set(member_keys(c.mentions)) for c in response])
    return _alignment(key, response, rows)


class ErrorReport(NamedTuple):
    missing_pronoun_refs: int = 0
    missing_header_refs: int = 0
    missing_other_refs: int = 0
    missing_chains: int = 0
    incorrect_pronoun_refs: int = 0
    incorrect_other_refs: int = 0
    decomposed_chain_count: int = 0
    new_chain_count: int = 0

    def __add__(self, other: "ErrorReport") -> "ErrorReport":
        return ErrorReport(
            self.missing_pronoun_refs + other.missing_pronoun_refs,
            self.missing_header_refs + other.missing_header_refs,
            self.missing_other_refs + other.missing_other_refs,
            self.missing_chains + other.missing_chains,
            self.incorrect_pronoun_refs + other.incorrect_pronoun_refs,
            self.incorrect_other_refs + other.incorrect_other_refs,
            self.decomposed_chain_count + other.decomposed_chain_count,
            self.new_chain_count + other.new_chain_count,
        )


def categorize_errors(
    thread: EmailThread,
    key: Sequence[CoreferenceChain],
    response: Sequence[CoreferenceChain],
) -> ErrorReport:
    """Count prediction errors per category for one document.

    A perfect response yields the zero report. Every gold mention lands in
    at most one missing-reference subtype; subtype precedence is pronoun,
    then header, then other.
    """

    def first_token(mention: Mention) -> tuple[str, str]:
        token = mention_tokens(thread, mention)[0]
        return token.text, token.section.code

    return _categorize(first_token, key, response)


_HEADER = Section.HEADER.code


def _categorize(
    lookup: Callable[[Mention], Sequence],
    key: Sequence[CoreferenceChain],
    response: Sequence[CoreferenceChain],
) -> ErrorReport:
    """``categorize_errors`` of a document whose mention's first token has
    the text ``lookup(mention)[0]`` and the section code ``lookup(mention)[1]``."""

    def is_pronoun(mention: Mention) -> bool:
        return mention.start_token == mention.end_token and lookup(mention)[0].casefold() in wordlists.ALL_PRONOUNS

    # mentions are compared by their keys (metrics.member_keys)
    key_keys = [member_keys(c.mentions) for c in key]
    resp_keys = [member_keys(c.mentions) for c in response]
    key_sets = [set(keys) for keys in key_keys]
    resp_sets = [set(keys) for keys in resp_keys]
    rows = overlap_rows(key_sets, resp_sets)
    key_to_resp = _alignment(key, response, rows).mapping()
    resp_to_key = _alignment(response, key, transpose_rows(rows, len(response))).mapping()
    # chain id -> position, so the aligned chain's mention set is reused
    resp_index = {c.chain_id: j for j, c in enumerate(response)}
    key_index = {c.chain_id: i for i, c in enumerate(key)}

    missing_pronoun = missing_header = missing_other = 0
    missing_chains = 0
    incorrect_pronoun = incorrect_other = 0
    decomposed = 0
    new_chains = 0

    for kc, keys, row in zip(key, key_keys, rows):
        aligned_id = key_to_resp.get(kc.chain_id)
        if aligned_id is None:
            missing_chains += 1
        else:
            aligned = resp_sets[resp_index[aligned_id]]
            for m, k in zip(kc.mentions, keys):
                if k in aligned:
                    continue
                if is_pronoun(m):
                    missing_pronoun += 1
                elif lookup(m)[1] == _HEADER:
                    missing_header += 1
                else:
                    missing_other += 1
        touched = len(row)
        if touched >= 2:
            decomposed += 1
            new_chains += touched

    for rc, keys in zip(response, resp_keys):
        aligned_id = resp_to_key.get(rc.chain_id)
        if aligned_id is None:
            continue
        aligned = key_sets[key_index[aligned_id]]
        for m, k in zip(rc.mentions, keys):
            if k in aligned:
                continue
            if is_pronoun(m):
                incorrect_pronoun += 1
            else:
                incorrect_other += 1

    return ErrorReport(
        missing_pronoun_refs=missing_pronoun,
        missing_header_refs=missing_header,
        missing_other_refs=missing_other,
        missing_chains=missing_chains,
        incorrect_pronoun_refs=incorrect_pronoun,
        incorrect_other_refs=incorrect_other,
        decomposed_chain_count=decomposed,
        new_chain_count=new_chains,
    )
