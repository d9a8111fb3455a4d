"""Outside-in tracing of parley's layers for the traced benchmark run.

``Tracer.install`` wraps the public functions of each module (layer) named in
``TARGETS``. A function that other modules import by name is replaced in
every loaded ``parley`` module that holds it, so each caller finds the
wrapper where it looks the name up. Spans (id, parent, name, thread, start,
end) stay in memory until the run ends; ``layer_metrics`` turns them into
the per-layer metrics, and ``write_spans`` dumps them as JSON lines.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, attribute or Class.method, span name); the span name's first part
# is the layer, which is the module name.
TARGETS = (
    ("parley.pipeline", "Pipeline.stage_run", "pipeline.run"),
    ("parley.pipeline", "Pipeline.stage_score", "pipeline.score"),
    ("parley.pipeline", "Pipeline.stage_features", "pipeline.features"),
    ("parley.pipeline", "Pipeline.stage_style", "pipeline.style"),
    ("parley.pipeline", "Pipeline.stage_analyze", "pipeline.analyze"),
    ("parley.pipeline", "Pipeline.stage_report", "pipeline.report"),
    ("parley.pipeline", "build_observation_rows", "pipeline.observation_rows"),
    ("parley.session", "run_session", "session.run_session"),
    ("parley.tournament", "TranscriptStore.append", "tournament.append"),
    ("parley.tournament", "TranscriptStore.load", "tournament.store_load"),
    ("parley.tournament", "write_checkpoint", "tournament.checkpoint"),
    ("parley.agents", "ChatModelClient.complete", "agents.complete"),
    ("parley.scoring", "extract_agreement", "scoring.extract"),
    ("parley.scoring", "score_outcome", "scoring.score"),
    ("parley.features", "feature_rows", "features.rows"),
    ("parley.features", "Lexicon.matches", "features.lexicon"),
    ("parley.features", "build_tfidf", "features.tfidf"),
    ("parley.stats", "fit_with_clusters", "stats.fit"),
    ("parley.stats", "build_design", "stats.design"),
    ("parley.stats", "fit_model", "stats.model"),
    ("parley.stats", "multiway_vcov", "stats.vcov"),
    ("parley.tables", "write_table", "tables.write"),
    ("parley.tables", "read_table", "tables.read"),
)

LAYERS = ("pipeline", "session", "tournament", "agents", "scoring", "features", "stats", "tables")
TRANSPORT_SPAN = "transport.call"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Counters taken at the same boundary as the span: (args, kwargs, result) -> n
COUNTERS = {
    "session.run_session": ("session.utterances", lambda a, k, r: len(r.utterances)),
    "tournament.checkpoint": (
        "tournament.checkpoint_bytes",
        lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path")),
    ),
    "stats.fit": ("stats.rows_fit", lambda a, k, r: len(_arg(a, k, 0, "rows"))),
    "tables.write": ("tables.rows_written", lambda a, k, r: len(_arg(a, k, 2, "rows"))),
    "tables.read": ("tables.rows_read", lambda a, k, r: len(r[1])),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, float, float]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._count_lock = threading.Lock()

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            # a worker thread's first span hangs off the main thread's
            # outermost open span, i.e. the pipeline stage that spawned it
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[0] if tracer._main_stack else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (span_id, parent, name, threading.get_ident(), start, end)
                )
            if counter is not None:
                key, measure = counter
                n = measure(args, kwargs, result)
                with tracer._count_lock:
                    tracer.counts[key] += n
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, span_name in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, self.wrap(span_name, original))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(span_name, original)
            for name, mod in list(sys.modules.items()):
                if name.split(".")[0] == "parley" and getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapped)

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: each span's duration minus the part of its
        interval that its child spans cover (children may overlap when they
        run on several threads)."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, _, start, end in self.spans:
            children[parent].append((start, end))
        totals = {layer: 0.0 for layer in LAYERS}
        for span_id, _, name, _, start, end in self.spans:
            layer = name.split(".")[0]
            if layer not in totals:
                continue
            covered, cursor = 0.0, start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            totals[layer] += (end - start) - covered
        return totals

    def layer_metrics(self, wall_s: float, concurrency_limit: int, negotiations: int) -> dict:
        busy: Counter = Counter()
        calls: Counter = Counter()
        for _, _, name, _, start, end in self.spans:
            busy[name] += end - start
            calls[name] += 1

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "pipeline.run_s": busy["pipeline.run"],
            "pipeline.score_s": busy["pipeline.score"],
            "pipeline.features_s": busy["pipeline.features"],
            "pipeline.analyze_s": busy["pipeline.analyze"],
            "pipeline.report_s": busy["pipeline.report"],
            "pipeline.observation_rows_s": busy["pipeline.observation_rows"],
            "pipeline.observation_rows_calls": calls["pipeline.observation_rows"],
            "session.busy_s": busy["session.run_session"],
            "session.negotiations": calls["session.run_session"],
            "session.utterances": self.counts["session.utterances"],
            "tournament.append_s": busy["tournament.append"],
            "tournament.appends": calls["tournament.append"],
            "tournament.checkpoint_s": busy["tournament.checkpoint"],
            "tournament.checkpoint_writes": calls["tournament.checkpoint"],
            "tournament.checkpoint_mb": self.counts["tournament.checkpoint_bytes"] / 1e6,
            "tournament.store_load_s": busy["tournament.store_load"],
            "tournament.store_loads": calls["tournament.store_load"],
            "agents.requests": calls["agents.complete"],
            "agents.transport_calls": calls[TRANSPORT_SPAN],
            "agents.complete_s": busy["agents.complete"],
            "agents.transport_s": busy[TRANSPORT_SPAN],
            "agents.overhead_s": busy["agents.complete"] - busy[TRANSPORT_SPAN],
            "agents.pool_utilization": ratio(busy[TRANSPORT_SPAN], wall_s * concurrency_limit),
            "scoring.extract_s": busy["scoring.extract"],
            "scoring.extracts": calls["scoring.extract"],
            "scoring.score_s": busy["scoring.score"],
            "scoring.scores": calls["scoring.score"],
            "scoring.scores_per_negotiation": ratio(calls["scoring.score"], negotiations),
            "features.rows_s": busy["features.rows"],
            "features.transcripts": calls["features.rows"],
            "features.lexicon_s": busy["features.lexicon"],
            "features.lexicon_calls": calls["features.lexicon"],
            "features.tfidf_s": busy["features.tfidf"],
            "features.tfidf_builds": calls["features.tfidf"],
            "features.tfidf_builds_per_transcript": ratio(
                calls["features.tfidf"], calls["features.rows"]
            ),
            "stats.fit_s": busy["stats.fit"],
            "stats.fits": calls["stats.fit"],
            "stats.rows_fit": self.counts["stats.rows_fit"],
            "stats.design_s": busy["stats.design"],
            "stats.model_s": busy["stats.model"],
            "stats.vcov_s": busy["stats.vcov"],
            "tables.write_s": busy["tables.write"],
            "tables.rows_written": self.counts["tables.rows_written"],
            "tables.read_s": busy["tables.read"],
            "tables.rows_read": self.counts["tables.rows_read"],
            "trace.spans": len(self.spans),
        }
        for layer, seconds in self.self_times().items():
            m[f"{layer}.self_s"] = seconds
        return m

    def write_spans(self, path: Path, origin: float) -> None:
        """One JSON object per span; times in seconds from ``origin``."""
        with open(path, "w") as fh:
            for span_id, parent, name, thread, start, end in sorted(
                self.spans, key=lambda s: s[4]
            ):
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "thread": thread,
                            "start": round(start - origin, 7),
                            "end": round(end - origin, 7),
                        }
                    )
                    + "\n"
                )
