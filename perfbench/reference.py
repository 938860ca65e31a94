"""Fixed reference work that the benchmark times around every CLI step.

    python3 perfbench/reference.py

It does what a CLI command does, without the program and in about 0.5 s:
start an interpreter, import numpy and a set of standard modules, then run a
fixed pure-Python workload of JSON, regular expression, string and dict
work. Nothing here depends on the seed or on ``src/``, so its time tracks
only the speed of the host at that moment. ``run.py`` divides each sample
of a CLI step by the mean time of this script just before and just after it.
"""
import argparse  # noqa: F401
import collections
import csv  # noqa: F401
import email.parser  # noqa: F401
import json
import re
import statistics  # noqa: F401

import numpy  # noqa: F401

WORD = re.compile(r"[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]")
TEXT = ("Please send me the Aster Project draft today, and the 42 notes on it. "
        "I will review your comments -- they are welcome. ") * 8


def main() -> int:
    counts: collections.Counter = collections.Counter()
    for i in range(600):
        tokens = WORD.findall(TEXT)
        record = {"id": i, "tokens": [[t, j, t.lower()] for j, t in enumerate(tokens)]}
        decoded = json.loads(json.dumps(record))
        counts.update(t[2] for t in decoded["tokens"])
        spans = {(j, j + len(t[0])) for j, t in enumerate(decoded["tokens"])}
        counts["spans"] += len(spans)
    return 0 if counts["the"] == 600 * 16 else 1


if __name__ == "__main__":
    raise SystemExit(main())
