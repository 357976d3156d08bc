"""Spans and counters recorded from outside the program.

`Tracer.install` wraps the functions behind the per-layer metrics
(`SPANS`), every public function of `analytics`, and the provider
classes' call methods, and then patches each name in every `esgpipe`
module that holds the original function. A wrapper must sit where the
caller looks the name up: `agent` imports `build_query`, `search`,
`rerank` and `assemble_evidence` by name, `pipeline` imports
`kb.build`/`build_naive`, and `cli` and `evaluation` import
`build_document_kb`/`extract_document`. Helpers behind no metric
(`providers.tokenize`, `metadata.render_question`, ...) are left alone,
so their time stays in their caller's self time: the reranker's
re-tokenising counts in `providers.rerank.s`.

A span is (id, name, start, end, parent id); spans of one thread nest,
so a span's self time is its duration minus its children's durations.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

# layer -> the functions of `esgpipe.<layer>` wrapped as spans `<layer>.<name>`
SPANS = {
    "cli": ("build_or_load_kb",),
    "docmodel": ("ingest",),
    "metadata": ("load_registry",),
    "kb": ("build", "build_naive", "chunk_text", "summarize", "save", "load"),
    "retrieval": ("build_query", "search", "rerank", "assemble_evidence"),
    "agent": ("build_prompt", "parse_reply", "extract_indicator"),
    "pipeline": ("build_document_kb", "extract_document"),
    "evaluation": ("evaluate_document", "validate_label_set"),
}
# Every public function of this layer is wrapped; `analytics.s` sums them.
WHOLE_LAYER = "analytics"

# (class name, method) -> span name
PROVIDER_METHODS = {
    ("HashEmbedder", "embed"): "providers.embed",
    ("HttpEmbedder", "embed"): "providers.embed",
    ("MockChatProvider", "complete"): "providers.chat",
    ("HttpChatProvider", "complete"): "providers.chat",
    ("JaccardReranker", "score"): "providers.rerank",
    ("HttpReranker", "score"): "providers.rerank",
}

# Per-layer metrics: name -> unit. `.calls` and `.s` come from spans of
# the same name (`.s` is self time); the rest from hooks below.
PER_LAYER_UNITS = {
    "cli.kb_cache.hits": "count",
    "cli.kb_cache.misses": "count",
    "docmodel.ingest.calls": "count",
    "docmodel.ingest.s": "s",
    "metadata.load_registry.s": "s",
    "kb.build.calls": "count",
    "kb.build.s": "s",
    "kb.build_naive.s": "s",
    "kb.chunk_text.s": "s",
    "kb.summarize.calls": "count",
    "kb.entries": "count",
    "kb.save.calls": "count",
    "kb.save.s": "s",
    "kb.load.calls": "count",
    "kb.load.s": "s",
    "providers.embed.calls": "count",
    "providers.embed.texts": "count",
    "providers.embed.s": "s",
    "providers.chat.calls": "count",
    "providers.chat.s": "s",
    "providers.rerank.calls": "count",
    "providers.rerank.candidates": "count",
    "providers.rerank.s": "s",
    "retrieval.build_query.calls": "count",
    "retrieval.build_query.distinct": "count",
    "retrieval.build_query.distinct_ratio": "ratio",
    "retrieval.build_query.s": "s",
    "retrieval.search.calls": "count",
    "retrieval.search.rows_scored": "count",
    "retrieval.search.s": "s",
    "retrieval.rerank.s": "s",
    "retrieval.assemble_evidence.s": "s",
    "retrieval.evidence_chars": "chars",
    "agent.build_prompt.s": "s",
    "agent.prompt_chars": "chars",
    "agent.parse_reply.calls": "count",
    "agent.parse_reply.s": "s",
    "agent.extract_indicator.calls": "count",
    "agent.extract_indicator.s": "s",
    "pipeline.build_document_kb.calls": "count",
    "pipeline.extract_document.s": "s",
    "evaluation.evaluate_document.s": "s",
    "evaluation.validate_label_set.calls": "count",
    "analytics.s": "s",
    "trace.overhead_s": "s",
}


def _prompt_chars(prompt) -> int:
    return sum(len(m["content"]) for m in prompt.to_messages())


# span name -> (counter name, f(args, result) -> int)
HOOKS = {
    "kb.build": ("kb.entries", lambda a, r: len(r.entries)),
    "kb.build_naive": ("kb.entries", lambda a, r: len(r.entries)),
    "providers.embed": ("providers.embed.texts", lambda a, r: len(a[1])),
    "providers.rerank": ("providers.rerank.candidates", lambda a, r: len(a[2])),
    "retrieval.search": (
        "retrieval.search.rows_scored",
        lambda a, r: len(a[0].entries) * len(a[1].vectors),
    ),
    "retrieval.assemble_evidence": ("retrieval.evidence_chars", lambda a, r: r.total_chars),
    "agent.build_prompt": ("agent.prompt_chars", lambda a, r: _prompt_chars(r)),
}


class Tracer:
    """Spans and counters of a traced pass: `install` patches the program
    for the rest of the process, `metrics` gives the per-layer figures."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.counters: Counter[str] = Counter()
        self.queries: set[tuple[str, ...]] = set()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._local.__dict__.setdefault("stack", [])
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent))
            if hook is not None:
                counter, measure = hook
                n = measure(_bind(fn, args, kwargs), result)
                with tracer._lock:
                    tracer.counters[counter] += n
            if name == "retrieval.build_query":
                with tracer._lock:
                    tracer.queries.add(tuple(result.query_texts))
            return result

        return wrapper

    def install(self) -> None:
        targets = {
            (layer, attr): getattr(importlib.import_module(f"esgpipe.{layer}"), attr)
            for layer, attrs in SPANS.items()
            for attr in attrs
        }
        whole = importlib.import_module(f"esgpipe.{WHOLE_LAYER}")
        for attr, obj in vars(whole).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == whole.__name__
                and not attr.startswith("_")
            ):
                targets[(WHOLE_LAYER, attr)] = obj
        wrapped = {id(fn): self._wrap(f"{layer}.{attr}", fn) for (layer, attr), fn in targets.items()}
        for name, module in list(sys.modules.items()):
            if name != "esgpipe" and not name.startswith("esgpipe."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    setattr(module, attr, wrapped[id(obj)])
        providers = importlib.import_module("esgpipe.providers")
        for (cls_name, method), span in PROVIDER_METHODS.items():
            cls = getattr(providers, cls_name)
            setattr(cls, method, self._wrap(span, vars(cls)[method]))

    def metrics(self) -> dict[str, float]:
        by_id = {s[0]: s for s in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for span_id, _name, start, end, parent in self.spans:
            if parent in by_id:
                child_time[parent] += end - start
        calls: Counter[str] = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _parent in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child_time[span_id]
        misses = sum(
            1
            for _id, name, _s, _e, parent in self.spans
            if name == "pipeline.build_document_kb"
            and parent in by_id
            and by_id[parent][1] == "cli.build_or_load_kb"
        )
        out: dict[str, float] = {}
        for metric in PER_LAYER_UNITS:
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls[base]
            elif metric == "analytics.s":
                out[metric] = sum(v for k, v in self_s.items() if k.startswith("analytics."))
            elif kind == "s":
                out[metric] = self_s[base]
            else:
                out[metric] = self.counters[metric]
        out["cli.kb_cache.misses"] = misses
        out["cli.kb_cache.hits"] = calls["cli.build_or_load_kb"] - misses
        out["retrieval.build_query.distinct"] = len(self.queries)
        n_queries = calls["retrieval.build_query"]
        out["retrieval.build_query.distinct_ratio"] = (
            len(self.queries) / n_queries if n_queries else 0.0
        )
        del out["trace.overhead_s"]  # set by the caller, which knows the untraced time
        return out

    def export(self) -> dict:
        """The recorded spans, counters and queries, as JSON-able lists."""
        return {
            "spans": self.spans,
            "counters": dict(self.counters),
            "queries": sorted(self.queries),
        }

    def absorb(self, state: dict) -> None:
        """Adds another tracer's `export`, renumbering its spans."""
        offset = 1 + max((span[0] for span in self.spans), default=-1)
        for span_id, name, start, end, parent in state["spans"]:
            self.spans.append(
                (span_id + offset, name, start, end, parent + offset if parent >= 0 else -1)
            )
        self.counters.update(state["counters"])
        self.queries.update(tuple(q) for q in state["queries"])

    def write_spans(self, path: Path) -> None:
        """One JSON object per span: id, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for span_id, name, start, end, parent in sorted(self.spans):
                f.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start": start, "end": end, "parent": parent}
                    )
                    + "\n"
                )


def _bind(fn, args, kwargs) -> tuple:
    """Positional view of a call, so hooks can index arguments."""
    if not kwargs:
        return args
    bound = inspect.signature(fn).bind(*args, **kwargs)
    return tuple(bound.arguments.values())


class CallCounter:
    """Counts provider calls and texts with the least wrapping, for runs
    without tracing."""

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()

    def install(self) -> None:
        providers = importlib.import_module("esgpipe.providers")
        counts = self.counts
        lock = threading.Lock()

        def counted(fn, key, texts):
            @functools.wraps(fn)
            def wrapper(self_, arg, *rest, **kw):
                with lock:
                    counts[key] += 1
                    if texts:
                        counts["embed_texts"] += len(arg)
                return fn(self_, arg, *rest, **kw)

            return wrapper

        for cls_name, method, key, texts in (
            ("HashEmbedder", "embed", "embed_calls", True),
            ("HttpEmbedder", "embed", "embed_calls", True),
            ("MockChatProvider", "complete", "chat_calls", False),
            ("HttpChatProvider", "complete", "chat_calls", False),
        ):
            cls = getattr(providers, cls_name)
            setattr(cls, method, counted(vars(cls)[method], key, texts))

    def snapshot(self) -> dict[str, int]:
        return {k: self.counts[k] for k in ("embed_calls", "embed_texts", "chat_calls")}
