"""Entity coreference toolkit for email threads.

Parse maildir-style thread files into sectioned, tokenized messages; filter
corpora by validity rules; resolve coreference with two rule-based header
baselines; score predictions with MUC, B³, CEAFE and LEA; and categorize
prediction errors. See README.md for the CLI and demos/ for worked
examples of each capability.

Submodules are imported on first use of a name that lives in them, so
``import threadcoref`` (and each CLI command) loads only what it runs.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = (
    "baselines",
    "errors",
    "features",
    "filtering",
    "metrics",
    "model",
    "parsing",
    "serialization",
    "wordlists",
)

# public name -> submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        (
            "AnnotatedDocument",
            "CoreferenceChain",
            "EmailMessage",
            "EmailThread",
            "EntityType",
            "Mention",
            "Section",
            "Token",
            "ToolkitError",
            "mention_text",
            "mention_tokens",
            "validate_document",
        ),
        "model",
    ),
    **dict.fromkeys(("ParserConfig", "RawThread", "UnparseableThread", "parse_thread"), "parsing"),
    **dict.fromkeys(
        (
            "ExclusionSet",
            "FilterCategory",
            "FilterVerdict",
            "ThreadSummary",
            "filter_corpus",
            "filter_summaries",
            "fingerprint_message",
        ),
        "filtering",
    ),
    **dict.fromkeys(
        (
            "FeatureAnnotation",
            "MissingDate",
            "message_identifier",
            "reverse_document",
            "reverse_thread",
            "section_info",
        ),
        "features",
    ),
    **dict.fromkeys(
        (
            "ParticipantIndex",
            "PronounClass",
            "Resolution",
            "build_participant_index",
            "chain_overlapping_mentions",
            "resolve_hb1",
            "resolve_hb2",
        ),
        "baselines",
    ),
    **dict.fromkeys(
        (
            "CorpusStats",
            "CorrectionStats",
            "MetricScore",
            "ScoreReport",
            "b_cubed",
            "ceaf_e",
            "conll_average",
            "correction_stats",
            "corpus_stats",
            "lea",
            "mention_detection_score",
            "muc",
            "score_documents",
        ),
        "metrics",
    ),
    **dict.fromkeys(("ChainAlignment", "ErrorReport", "align_chains", "categorize_errors"), "errors"),
    **dict.fromkeys(
        (
            "MalformedColumn",
            "NativeSchemaError",
            "OverlappingIdenticalSpan",
            "read_conll",
            "read_conll_documents",
            "read_native",
            "write_conll",
            "write_conll_documents",
            "write_native",
            "write_native_string",
        ),
        "serialization",
    ),
}

__all__ = sorted((*_EXPORTS, *_SUBMODULES))


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
