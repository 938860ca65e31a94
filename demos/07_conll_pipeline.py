"""End-to-end: parse, resolve, serialize to CoNLL columns, score.

The same flow is available from the command line:

    threadcoref parse   --in demos/data --out corpus.jsonl
    threadcoref resolve --baseline hb1 --in gold.jsonl --out pred.jsonl
    threadcoref score   --key gold.jsonl --response pred.jsonl
"""
from pathlib import Path

from threadcoref import AnnotatedDocument, CoreferenceChain, Mention, RawThread, parse_thread
from threadcoref.baselines import resolve_hb1
from threadcoref.metrics import score_documents
from threadcoref.serialization import read_conll, write_conll

DATA = Path(__file__).parent / "data"

text = (DATA / "example1.txt").read_text(encoding="utf-8")
thread = parse_thread(RawThread(id="example1", text=text))
gold = AnnotatedDocument(
    thread=thread,
    chains=(
        CoreferenceChain(1, (Mention(0, 1, 2, 2), Mention(0, 4, 2, 6), Mention(0, 6, 2, 2))),
        CoreferenceChain(2, (Mention(0, 2, 2, 2), Mention(0, 5, 2, 4), Mention(0, 7, 1, 1))),
        CoreferenceChain(3, (Mention(0, 7, 5, 8),)),
    ),
)

resolution = resolve_hb1(thread, sorted(gold.mentions()))
predicted = AnnotatedDocument(thread=thread, chains=resolution.chains)

column_text = write_conll(predicted)
print("CoNLL columns (first rows):")
for line in column_text.splitlines()[:6]:
    print(f"  {line}")

round_tripped = read_conll(column_text)
print(f"\nround-trip chains: {len(round_tripped.chains)}")

report = score_documents([(gold.chains, predicted.chains)])
print(f"baseline vs gold, CoNLL average F1: {report.conll_avg_f1:.4f}")
