"""In-memory spans and counters around calls into textaudit's public functions.

The tracer rebinds a function in every ``textaudit`` module that holds it
(and a method on its class), so the program's own code is not touched.
Layer boundaries get spans (name, start, end, parent); functions called
thousands of times per audit get counters only, because a span per call
would cost more than the call.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, name: str, fn, on_call=None):
        """Wrap ``fn`` so every call records a span; ``on_call(args)`` may add counts."""
        spans, open_, clock = self.spans, self._open, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            record = [name, clock(), None, open_[-1] if open_ else None]
            open_.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.add(name + ".errors")
                raise
            finally:
                open_.pop()
                record[2] = clock()

        return wrapper

    def counter(self, name: str, fn, timed: bool = False):
        """Wrap ``fn`` to count calls under ``name`` and, if ``timed``, their seconds."""
        counts, clock = self.counts, self.clock
        counts.setdefault(name, 0)
        if not timed:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted
        seconds = name + "_s"
        counts.setdefault(seconds, 0.0)

        @functools.wraps(fn)
        def timed_call(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[seconds] += clock() - start
                counts[name] += 1

        return timed_call

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}), encoding="utf-8")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append((end - start) - covered)
    return result


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, total seconds and total self seconds."""
    out: dict[str, dict[str, float]] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
    return out


def _rebind(original, wrapper) -> None:
    for module_name, module in list(sys.modules.items()):
        if module_name == "textaudit" or module_name.startswith("textaudit."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def instrument(tracer: Tracer) -> None:
    """Install spans and counters on textaudit's public functions (importing it first)."""
    import textaudit.cli  # noqa: F401  loads every module that is rebound below
    from textaudit import (
        classbias,
        corpus,
        databias,
        embedbias,
        explain,
        lexicon,
        mining,
        modeliface,
        report,
    )

    def texts_arg(counter_name, position):
        return lambda args: tracer.add(counter_name, len(args[position]))

    spans = [
        (modeliface, "predict_batch", "modeliface.predict_batch",
         texts_arg("modeliface.texts_requested", 0)),
        (modeliface, "load_predictions", "modeliface.load_predictions", None),
        (corpus, "load_dataset", "corpus.load_dataset", None),
        (mining, "annotate_corpus", "mining.annotate_corpus", None),
        (mining, "annotations_to_jsonl", "mining.annotations_to_jsonl", None),
        (databias, "identity_term_frequencies", "databias.identity", None),
        (databias, "subgroup_reference_frequencies", "databias.subgroup", None),
        (databias, "frequency_table_csv", "report.render", None),
        (embedbias, "load_embeddings", "embedbias.load", None),
        (embedbias, "embedding_bias", "embedbias.bias", None),
        (embedbias, "embedding_bias_csv", "report.render", None),
        (classbias, "performance_report", "classbias.performance", None),
        (classbias, "subgroup_probability_stats", "classbias.subgroup_stats", None),
        (classbias, "fairness_metrics", "classbias.fairness", None),
        (classbias, "swap_favor_analysis", "classbias.swap", None),
        (classbias, "expand_templates", "classbias.counterfactual", None),
        (classbias, "counterfactual_bias", "classbias.counterfactual", None),
        (classbias, "counterfactual_probability_stats", "classbias.counterfactual", None),
        (explain, "local_explain", "explain.local", None),
        (explain, "global_importance", "explain.global", None),
        (report, "render_report", "report.render", None),
    ]
    spans += [
        (lexicon, loader, "lexicon.load", None)
        for loader in (
            "load_lexicon", "default_lexicon", "load_gazetteer", "default_gazetteer",
            "load_identity_terms", "default_identity_terms", "load_neutral_words",
            "default_neutral_words", "load_templates", "default_templates",
        )
    ]
    for module, attr, name, on_call in spans:
        original = getattr(module, attr)
        _rebind(original, tracer.span(name, original, on_call))

    for module, attr, name, timed in (
        (corpus, "tokenize", "corpus.tokenize", True),
        (mining, "term_occurrences", "mining.term_occurrences", False),
        (classbias, "swap_text", "classbias.swap_text", False),
    ):
        original = getattr(module, attr)
        _rebind(original, tracer.counter(name, original, timed))

    lex = lexicon.AttributeLexicon
    lex.abbreviations = tracer.counter("lexicon.abbreviations", lex.abbreviations)
    sent = texts_arg("modeliface.texts_sent", 1)
    for cls, attr, name, on_call in (
        (modeliface.SubprocessAdapter, "score_batch", "modeliface.score_batch", sent),
        (modeliface.HttpAdapter, "score_batch", "modeliface.score_batch", sent),
        (explain.GlobalImportance, "to_csv", "report.render", None),
    ):
        setattr(cls, attr, tracer.span(name, getattr(cls, attr), on_call))

    lookup = modeliface.PredictionCache.lookup
    tracer.counts.setdefault("modeliface.cache_lookups", 0)
    tracer.counts.setdefault("modeliface.cache_hits", 0)

    @functools.wraps(lookup)
    def counted_lookup(self, text):
        value = lookup(self, text)
        tracer.counts["modeliface.cache_lookups"] += 1
        if value is not None:
            tracer.counts["modeliface.cache_hits"] += 1
        return value

    modeliface.PredictionCache.lookup = counted_lookup
