"""Per-layer metrics from spans recorded around calls into each module.

The traced run replays the CLI's steps in-process on the generated
workload. Spans are recorded here, in the benchmark, by wrapping the public
functions of each ``threadcoref`` module for the length of one pass; the
package itself is unchanged and the wrappers are removed afterwards. Each
span holds its name, start, end and parent. Spans, counts and self times
stay in memory and are written out once, at the end of the run.

Every ``<layer>.<function>.s`` metric is busy time: the summed duration of
the function's outermost spans. ``*.growth`` divides that time at full scale
by the time on the same seed's one-tenth-scale workload.
"""
from __future__ import annotations

import functools
import gc
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import threadcoref
from threadcoref import baselines, errors, features, filtering, metrics, model, parsing, serialization
from threadcoref.model import AnnotatedDocument, Token
from threadcoref.parsing import RawThread

import generate

# Public functions wrapped in spans, by module (layer).
TRACED = {
    parsing: ("parse_thread", "split_messages", "parse_header", "tokenize_and_sentence_split"),
    model: ("validate_document",),
    serialization: ("write_native", "read_native", "record_to_document", "write_conll_documents",
                    "read_conll_documents"),
    filtering: ("fingerprint_message", "build_corpus_index", "detect_duplicate", "filter_corpus"),
    features: ("reverse_document", "feature_annotation"),
    baselines: ("resolve_hb1", "resolve_hb2", "chain_overlapping_mentions", "build_participant_index"),
    metrics: ("as_chain_sets", "muc_parts", "b_cubed_parts", "ceaf_e_parts", "lea_parts", "score_documents",
              "correction_stats", "corpus_stats"),
    errors: ("align_chains", "categorize_errors"),
}
# The one-tenth-scale pass is short enough for host jitter to matter, so it
# is repeated and each busy time is the median over the repeats.
TENTH_REPEATS = 3
GROWTH = ("parsing.parse_thread", "serialization.read_native", "filtering.filter_corpus",
          "metrics.score_documents", "errors.categorize_errors")
# CLI command -> end-to-end metric; the in-process stage of the same name
# makes the library calls the command makes.
CLI_STAGES = {
    "parse": "parse_s", "filter": "filter_s", "features": "features_s", "resolve": "resolve_s",
    "score": "score_s", "errors": "errors_s", "stats": "stats_s", "correction-stats": "correction_stats_s",
}


class Tracer:
    """Spans kept in memory: [name, start, end, parent index or -1]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                return func(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced

    def busy(self) -> dict[str, float]:
        """Per name, the summed duration of spans not nested in a span of the same name."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                out[name] += end - start
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span[0]] += 1
        return out

    def self_time(self) -> dict[str, float]:
        """Per name, span durations minus the time their child spans cover."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return out


@contextmanager
def instrumented(tracer: Tracer):
    """Swap every traced function, wherever the package refers to it, for a wrapper."""
    originals = {}
    for module, names in TRACED.items():
        layer = module.__name__.rsplit(".", 1)[1]
        for name in names:
            func = getattr(module, name)
            originals[id(func)] = (func, tracer.wrap(f"{layer}.{name}", func))
    decode = json.loads
    json.loads = tracer.wrap("serialization.json_decode", decode)
    restore = []
    modules = [m for n, m in sys.modules.items() if n == "threadcoref" or n.startswith("threadcoref.")]
    try:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(module, attr, originals[id(value)][1])
                    restore.append((module.__dict__, attr, value))
                elif isinstance(value, dict):  # dispatch tables such as metrics._PARTS_FUNCS
                    for key, item in list(value.items()):
                        if callable(item) and id(item) in originals and originals[id(item)][0] is item:
                            value[key] = originals[id(item)][1]
                            restore.append((value, key, item))
        yield
    finally:
        json.loads = decode
        for mapping, key, value in reversed(restore):
            mapping[key] = value


def _read(path: Path) -> list[AnnotatedDocument]:
    return serialization.read_native(path.read_text(encoding="utf-8"))


def pipeline(w: generate.Workload, tracer: Tracer, scratch: Path) -> dict:
    """The CLI's steps in-process, each under a ``stage.<command>`` span; returns counts."""
    root = w.root
    scratch.mkdir(exist_ok=True)
    with tracer.span("stage.parse"):
        files = sorted(p for p in (root / "threads").rglob("*") if p.is_file())
        threads = []
        for path in files:
            rel = path.relative_to(root / "threads").as_posix()
            raw = RawThread(id=rel, text=path.read_text(encoding="utf-8", errors="replace"), source_path=rel)
            threads.append(parsing.parse_thread(raw))
        with open(scratch / "parsed.jsonl", "w", encoding="utf-8") as fp:
            serialization.write_native([AnnotatedDocument(thread=t) for t in threads], fp)

    rows = [(t.text, t.sentence_index, t.token_index, t.message_index, t.section, t.char_start, t.char_end)
            for thread in threads for t in thread.tokens()]
    with tracer.span("model.Token"):
        for row in rows:
            Token(*row)

    with tracer.span("stage.filter"):
        threads = [d.thread for d in _read(scratch / "parsed.jsonl")]
        exclusion = filtering.ExclusionSet.from_file(root / "exclude.txt")
        _, report = filtering.filter_corpus(threads, exclusion)

    with tracer.span("stage.features"):
        reordered = [features.reverse_document(d) for d in _read(root / "gold.jsonl")]
        with open(scratch / "features.jsonl", "w", encoding="utf-8") as fp:
            serialization.write_native(reordered, fp, features=["mi", "si"])
    for doc in reordered:
        features.feature_annotation(doc.thread)

    with tracer.span("stage.resolve"):
        gold = _read(root / "gold.jsonl")
        resolutions = [baselines.resolve_hb1(d.thread, sorted(set(d.mentions()))) for d in gold]
        with open(scratch / "resolved.jsonl", "w", encoding="utf-8") as fp:
            serialization.write_native(
                [AnnotatedDocument(d.thread, r.chains) for d, r in zip(gold, resolutions)], fp)
    for doc in gold:
        baselines.resolve_hb2(doc.thread, sorted(set(doc.mentions())))
        model.validate_document(doc)

    with tracer.span("stage.score"):
        key, response = _read(root / "gold.jsonl"), _read(root / "response.jsonl")
        metrics.score_documents([(k.chains, r.chains) for k, r in zip(key, response)])

    (scratch / "gold.conll").write_text(serialization.write_conll_documents(key), encoding="utf-8")
    (scratch / "response.conll").write_text(serialization.write_conll_documents(response), encoding="utf-8")
    with tracer.span("stage.score_conll"):
        ckey = serialization.read_conll_documents((scratch / "gold.conll").read_text(encoding="utf-8"))
        cresponse = serialization.read_conll_documents((scratch / "response.conll").read_text(encoding="utf-8"))
        metrics.score_documents([(k.chains, r.chains) for k, r in zip(ckey, cresponse)])

    with tracer.span("stage.errors"):
        key, response = _read(root / "gold.jsonl"), _read(root / "response.jsonl")
        for k, r in zip(key, response):
            errors.categorize_errors(k.thread, k.chains, r.chains)

    with tracer.span("stage.stats"):
        metrics.corpus_stats(_read(root / "gold.jsonl"))

    with tracer.span("stage.correction-stats"):
        pred, gold = _read(root / "response.jsonl"), _read(root / "gold.jsonl")
        for p, g in zip(pred, gold):
            metrics.correction_stats(p.mentions(), g.mentions())

    pronouns = sum(
        1 for doc in gold for m in set(doc.mentions())
        if baselines.mention_pronoun_class(doc.thread, m) is not baselines.PronounClass.OTHER
        and model.mention_tokens(doc.thread, m)[0].section is not model.Section.FOOTER
    )
    unresolved = sum(len(r.unresolved) for r in resolutions)
    verdicts = {cat.value: count for cat, count in report.counts}
    return {
        "parsing.threads": len(threads),
        "parsing.tokens": len(rows),
        "serialization.native_bytes": (scratch / "parsed.jsonl").stat().st_size,
        **{f"filtering.verdicts.{cat}": n for cat, n in verdicts.items()},
        "filtering.duplicate_ratio": verdicts["duplicate"] / report.total,
        "baselines.mentions": sum(len(set(d.mentions())) for d in gold),
        "baselines.resolved_pronoun_ratio": (pronouns - unresolved) / pronouns,
        "metrics.key_chains": sum(len(d.chains) for d in key),
        "metrics.response_chains": sum(len(d.chains) for d in response),
    }


SPAN_METRICS = tuple(
    f"{module.__name__.rsplit('.', 1)[1]}.{name}" for module, names in TRACED.items() for name in names
) + ("model.Token", "serialization.json_decode")


def per_layer(w: generate.Workload, end_to_end: dict[str, float], out_path: Path) -> dict[str, dict]:
    """Warm-up, untraced, traced and repeated traced one-tenth-scale passes; returns the per-layer metrics."""
    scratch = w.root / "inproc"
    # Move the generated workload out of the collector's view, so the passes
    # pay for garbage collection roughly what a fresh CLI process pays.
    gc.collect()
    gc.freeze()
    try:
        pipeline(w, Tracer(), scratch)  # untimed: the first pass pays for cold caches
        plain = Tracer()
        start = time.perf_counter()
        pipeline(w, plain, scratch)
        plain_s = time.perf_counter() - start

        traced = Tracer()
        start = time.perf_counter()
        with instrumented(traced):
            counts = pipeline(w, traced, scratch)
        traced_s = time.perf_counter() - start

        small = generate.generate(w.expected["workload"], w.expected["seed"], w.root / "tenth",
                                  scale=w.expected["scale"] / 10)
        tenths = []
        for _ in range(TENTH_REPEATS):
            tenth = Tracer()
            with instrumented(tenth):
                pipeline(small, tenth, small.root / "inproc")
            tenths.append(tenth.busy())
    finally:
        gc.unfreeze()

    busy, stage = traced.busy(), plain.busy()
    busy_tenth = {name: statistics.median(t[name] for t in tenths) for name in tenths[0]}
    out: dict[str, dict] = {}
    for name in SPAN_METRICS:
        out[f"{name}.s"] = {"value": busy[name], "unit": "s"}
    for name in GROWTH:
        out[f"{name}.growth"] = {"value": busy[name] / busy_tenth[name], "unit": "ratio"}
    for name, value in counts.items():
        unit = "ratio" if name.endswith("_ratio") else "bytes" if name.endswith("_bytes") else "count"
        out[name] = {"value": value, "unit": unit}
    for command, metric in CLI_STAGES.items():
        overhead = end_to_end[metric] - end_to_end["setup_s"] - stage[f"stage.{command}"]
        out[f"cli.{command}.overhead_s"] = {"value": overhead, "unit": "s"}
    out["metrics.score_documents.share"] = {
        "value": busy["metrics.score_documents"] / end_to_end["score_s"], "unit": "ratio"}
    out["errors.categorize_errors.share"] = {
        "value": busy["errors.categorize_errors"] / end_to_end["errors_s"], "unit": "ratio"}
    out["trace.overhead_ratio"] = {"value": traced_s / plain_s, "unit": "ratio"}

    out_path.write_text(json.dumps({
        "workload": w.expected["workload"], "seed": w.expected["seed"], "package": threadcoref.__version__,
        "span_fields": ["name", "start", "end", "parent"],
        "spans": traced.spans,
        "calls": traced.calls(),
        "self_time_s": traced.self_time(),
        "busy_s": busy,
        "tenth_scale_busy_s": busy_tenth,
        "untraced_stage_s": stage,
        "untraced_pass_s": plain_s,
        "traced_pass_s": traced_s,
        "end_to_end": end_to_end,
        "metrics": out,
    }) + "\n", encoding="utf-8")
    return out
