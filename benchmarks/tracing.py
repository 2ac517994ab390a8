"""Spans around the pipeline's layers, recorded from outside the package.

``Tracer.install`` replaces public functions at the names the pipeline
looks them up by (``corg.pipeline.build_index``, ``corg.fol.clausify``,
``Prefilter.apply_indices`` ...) with wrappers that record one span per
call: name, start, end, parent span and problem id.  Spans stay in memory
until ``write`` is called.  A name that no longer exists is reported as an
absent layer instead of failing, so the package can drop a function
without breaking the benchmark.

A layer's self time is its spans' durations minus the time covered by
their child spans; the self times of all layers sum to the duration of the
root spans (``total_s``).
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# Span name -> the per-layer metric its self time is reported under.
LAYER_OF_SPAN = {
    "kg.load": "kg.load_s",
    "embeddings.load": "embeddings.load_s",
    "pipeline.init": "pipeline.self_s",
    "selection.prefilter_build": "selection.prefilter_build_s",
    "pipeline.run_problem": "pipeline.self_s",
    "selection.prefilter": "selection.prefilter_s",
    "fol.translate": "fol.translate_s",
    "selection.index": "selection.index_self_s",
    "fol.symbols": "fol.symbols_s",
    "selection.select": "selection.select_s",
    "fol.clausify": "fol.clausify_s",
    "fol.parse": "fol.parse_s",
    "model.saturate": "model.saturate_s",
    "model.extract": "model.extract_s",
    "scorer.score": "scorer.score_s",
    "pipeline.report": "pipeline.report_s",
}

CALLS_OF_SPAN = {name: name + "_calls" for name in
                 ("fol.symbols", "fol.translate", "fol.clausify", "fol.parse")}


def _count_prefilter(counts, args, result):
    counts["prefilter.kept"] += len(result)


def _count_index(counts, args, result):
    counts["index.axioms"] += len(result)


def _count_select(counts, args, result):
    indexed = len(args[0])
    if indexed:
        counts["select.texts"] += 1
        counts["select.frac_sum"] += len(result) / indexed


def _count_saturate(counts, args, result):
    counts["saturate.texts"] += 1
    counts["saturate.atoms"] += len(result)
    counts["saturate.incomplete"] += not result.complete


# (module, attribute path, span name, counter) for every wrapped entry point,
# at the names the pipeline looks them up by.
ENTRY_POINTS = [
    ("corg.selection", "Prefilter.__init__", "selection.prefilter_build", None),
    ("corg.selection", "Prefilter.apply_indices", "selection.prefilter", _count_prefilter),
    ("corg.fol", "translate_existential", "fol.translate", None),
    ("corg.fol", "translate_factual", "fol.translate", None),
    ("corg.fol", "translate_inverse", "fol.translate", None),
    ("corg.pipeline", "build_index", "selection.index", _count_index),
    ("corg.selection", "symbols", "fol.symbols", None),
    ("corg.fol", "symbols", "fol.symbols", None),
    ("corg.pipeline", "sine_select", "selection.select", _count_select),
    ("corg.pipeline", "similarity_sine_select", "selection.select", _count_select),
    ("corg.fol", "clausify", "fol.clausify", None),
    # text -> ground facts: content words, or reading and parsing a formula file
    ("corg.pipeline", "text_to_facts", "fol.parse", None),
    ("corg.pipeline", "saturate", "model.saturate", _count_saturate),
    ("corg.pipeline", "extract_symbols", "model.extract", None),
    ("corg.pipeline", "score_pair", "scorer.score", None),
]


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []  # [name, start, end, parent index, problem id]
        self.problem: int | None = None
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.counts["calls." + name] += 1
        self.spans.append([name, 0.0, 0.0, parent, self.problem])
        self._stack.append(index)
        return index

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = self._open(name)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index][1:3] = start, end

    def wrap(self, module: str, path: str, name: str, count=None):
        owner = importlib.import_module(module)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None)
        if fn is None:
            self.absent.append(f"{module}.{path}")
            return
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:  # re-entry: one span
                return fn(*args, **kwargs)
            index = self._open(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if count is not None:
                count(counts, args, result)
            return result

        setattr(owner, attr, traced)

    def install(self):
        if self.enabled:
            for module, path, name, count in ENTRY_POINTS:
                self.wrap(module, path, name, count)

    def layers(self) -> dict[str, float]:
        """Self time per layer metric, calls per fol layer, and the total."""
        self_time = [end - start for _, start, end, _, _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                self_time[parent] -= end - start
        out = dict.fromkeys(LAYER_OF_SPAN.values(), 0.0)
        out.update({metric: int(self.counts["calls." + name])
                    for name, metric in CALLS_OF_SPAN.items()})
        total = 0.0
        for (name, start, end, parent, _), own in zip(self.spans, self_time):
            out[LAYER_OF_SPAN[name]] += own
            if parent < 0:
                total += end - start
        out["trace.total_s"] = total
        return out

    def write(self, path: Path):
        """Spans as JSON lines: name, start, end, parent index, problem id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
