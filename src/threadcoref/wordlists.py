"""Shipped word lists and marker phrases.

Every list here is a default: the parser and filter accept replacements
loaded from plain-text files (one entry per line, UTF-8, ``#`` comments).
"""
from __future__ import annotations

from pathlib import Path

from .model import utf8_input

FIRST_PERSON_SINGULAR = frozenset(["i", "me", "my", "mine", "myself"])

SECOND_PERSON = frozenset(["you", "your", "yours", "yourself", "yourselves"])

FIRST_PERSON_PLURAL = frozenset(["we", "us", "our", "ours", "ourselves"])

# Third-person forms are never resolved by the header baselines but count as
# pronouns for corpus statistics and error subtyping.
THIRD_PERSON = frozenset(
    "he him his himself she her hers herself it its itself "
    "they them their theirs themselves".split()
)

ALL_PRONOUNS = FIRST_PERSON_SINGULAR | SECOND_PERSON | FIRST_PERSON_PLURAL | THIRD_PERSON

# English function words. Doubles as the hit list for the stopword-based
# language guard and as the ignore list for word-overlap chaining, where it
# keeps mentions like "Crestone and Lost Creek" from chaining on "and".
ENGLISH_STOPWORDS = frozenset(
    """
    a about above after again against all am an and any are as at be because
    been before being below between both but by can could did do does doing
    down during each few for from further had has have having he her here
    hers herself him himself his how i if in into is it its itself just me
    more most my myself no nor not now of off on once only or other our ours
    ourselves out over own re same she should so some such than that the
    their theirs them themselves then there these they this those through to
    too under until up very was we were what when where which while who whom
    why will with would you your yours yourself yourselves
    """.split()
)

# Lines containing one of these phrases (casefolded substring match) start a
# new message slice.
SEPARATOR_MARKERS = (
    "-----original message-----",
    "-----original appointment-----",
    "- forwarded by",
    "begin forwarded message",
)

# A line containing one of these phrases opens the footer region, which runs
# to the end of the message. Footer tokens are excluded from baseline
# mention chaining.
FOOTER_MARKERS = (
    "this e-mail is the property of",
    "this e-mail is confidential",
    "this email and any attachments are confidential",
    "the information contained in this e-mail",
    "this message is for the designated recipient only",
    "if you are not the intended recipient",
    "privileged and confidential",
    "to unsubscribe",
)

# Auto-generated or redundant maildir folders dropped before corpus
# filtering.
EXCLUDED_DIRECTORIES = frozenset(
    [
        "all_documents",
        "discussion_threads",
        "drafts",
        "deleted_items",
        "sent_items",
        "sent",
        "_sent_mail",
        "_sent",
    ]
)


def load_phrase_file(path: str | Path) -> tuple[str, ...]:
    """Read one casefolded phrase per line; blank lines and # comments skipped."""
    with utf8_input(path):
        text = Path(path).read_text(encoding="utf-8")
    phrases = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            phrases.append(line.casefold())
    return tuple(phrases)
