"""Spans recorded from the benchmark around the program's layer calls.

``install`` wraps the public entry point of each layer (a function or
method the layer above calls) so that every call opens and closes a
span in an in-memory :class:`Recorder`.  Nothing under ``src/`` changes;
the wrappers are removed again by the returned ``undo``.  At the end of
a run the spans are written in the ``repro.obs.trace`` JSON-lines
format, so ``repro-trace check`` and ``repro-trace html`` open them.

A layer's self time is its spans' durations minus the time their
direct child spans cover.
"""

from __future__ import annotations

import cProfile
import functools
import json
import os
import pstats
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter


class Recorder:
    """Begin/end events of nested spans, kept in memory."""

    def __init__(self) -> None:
        #: ("b", span id, parent id, name, layer, t) / ("e", span id, t)
        self.events: List[tuple] = []
        self._stack: List[int] = []
        self._next = 1

    def begin(self, name: str, layer: str) -> int:
        span = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self.events.append(("b", span, parent, name, layer, _clock()))
        self._stack.append(span)
        return span

    def end(self) -> None:
        self.events.append(("e", self._stack.pop(), _clock()))

    def add(self, name: str, layer: str, start: float, end: float,
            parent: Optional[int] = None) -> int:
        """A closed span reconstructed from measured endpoints (used for
        time spent in another process, from its timing fields)."""
        span = self._next
        self._next += 1
        self.events.append(("b", span, parent, name, layer, start))
        self.events.append(("e", span, end))
        return span

    # ------------------------------------------------------------------

    def spans(self) -> Dict[int, dict]:
        """``{id: {"name", "layer", "parent", "start", "end"}}``."""
        out: Dict[int, dict] = {}
        for event in self.events:
            if event[0] == "b":
                _, span, parent, name, layer, start = event
                out[span] = {"name": name, "layer": layer,
                             "parent": parent, "start": start, "end": None}
            else:
                out[event[1]]["end"] = event[2]
        return out

    def self_ms(self) -> Dict[str, float]:
        """Self time per layer, in milliseconds."""
        spans = self.spans()
        child_time: Dict[int, float] = defaultdict(float)
        for span in spans.values():
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals: Dict[str, float] = defaultdict(float)
        for span_id, span in spans.items():
            own = span["end"] - span["start"] - child_time[span_id]
            totals[span["layer"]] += own * 1000.0
        return dict(totals)

    def durations_ms(self, name: str) -> List[float]:
        return [
            (span["end"] - span["start"]) * 1000.0
            for span in self.spans().values() if span["name"] == name
        ]

    def write_jsonl(self, path: str, process: Optional[str] = None) -> int:
        """Write the spans as ``repro.obs.trace`` records.

        Without ``process`` the records form one single-process trace
        (``validate_nesting``).  With it, every root span gets its own
        process track ``<process>.<n>`` with a wall-clock epoch anchor,
        which is how overlapping requests of an open-loop run nest
        (``validate_stitched``)."""
        spans = self.spans()
        if not spans:
            return 0
        origin = min(span["start"] for span in spans.values())
        epoch = time.time() - (_clock() - origin)
        children: Dict[Optional[int], List[int]] = defaultdict(list)
        for span_id in sorted(spans, key=lambda i: (spans[i]["start"], i)):
            children[spans[span_id]["parent"]].append(span_id)
        records: List[dict] = []

        def emit(span_id: int, track: Optional[str]) -> None:
            # Depth first, so every span closes after its children even
            # where two stamps are equal.
            span = spans[span_id]
            begin = {
                "ts": round(span["start"] - origin, 6), "kind": "begin",
                "span": span_id, "parent": span["parent"],
                "name": span["name"], "attrs": {"layer": span["layer"]},
            }
            end = {
                "ts": round(span["end"] - origin, 6), "kind": "end",
                "span": span_id, "name": span["name"],
                "elapsed": round(span["end"] - span["start"], 6),
            }
            if track is not None:
                begin["process"] = end["process"] = track
                if span["parent"] is None:
                    begin["trace"] = "perfbench"
                    begin["epoch"] = round(epoch + begin["ts"], 6)
            records.append(begin)
            for child in children[span_id]:
                emit(child, track)
            records.append(end)

        for root in children[None]:
            emit(root, None if process is None else f"{process}.{root}")
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)


def _wrap(recorder: Recorder, function: Callable, name: str,
          layer: str) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        recorder.begin(name, layer)
        try:
            return function(*args, **kwargs)
        finally:
            recorder.end()
    return wrapper


def _layer_points():
    """(owner, attribute, span name, layer) of every wrapped call; the
    owner is a module or a class."""
    import repro.analysis.driver as driver
    import repro.baselines.meta as meta
    import repro.serve.service as service
    from repro.analysis.results import AnalysisResult
    from repro.prolog.program import Program
    from repro.serve.callgraph import CallGraph
    from repro.serve.scheduler import SCCScheduler
    from repro.serve.store import ResultStore

    return [
        (Program, "from_text", "prolog.parse", "prolog"),
        (driver, "compile_program", "wam.compile", "wam.compile"),
        (driver.Analyzer, "analyze", "analysis.analyze", "analysis"),
        (driver.Analyzer, "pattern_fixpoint", "analysis.pattern_fixpoint",
         "analysis"),
        (AnalysisResult, "stable_dict", "analysis.stable_dict", "analysis"),
        (meta.MetaAnalyzer, "__init__", "baselines.meta.init",
         "baselines.meta"),
        (meta.MetaAnalyzer, "analyze", "baselines.meta.analyze",
         "baselines.meta"),
        (service, "predicate_fingerprints", "serve.fingerprint.predicates",
         "serve.fingerprint"),
        (CallGraph, "merkle_fingerprints", "serve.fingerprint.merkle",
         "serve.fingerprint"),
        (service, "request_fingerprint", "serve.fingerprint.request",
         "serve.fingerprint"),
        (CallGraph, "from_compiled", "serve.callgraph.build",
         "serve.callgraph"),
        (CallGraph, "reachable_sccs", "serve.callgraph.reachable",
         "serve.callgraph"),
        (ResultStore, "get", "serve.store.get", "serve.store"),
        (ResultStore, "put", "serve.store.put", "serve.store"),
        (SCCScheduler, "analyze", "serve.scheduler.analyze",
         "serve.scheduler"),
        (service.AnalysisService, "handle", "serve.service.handle",
         "serve.service"),
    ]


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer entry point; returns the function that restores
    the originals."""
    restore = []
    for owner, attr, name, layer in _layer_points():
        original = owner.__dict__[attr]
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(
                _wrap(recorder, original.__func__, name, layer))
        else:
            replacement = _wrap(recorder, original, name, layer)
        setattr(owner, attr, replacement)
        restore.append((owner, attr, original))

    def undo() -> None:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)
    return undo


# ----------------------------------------------------------------------
# Module profile: cProfile attached from the benchmark, by module.

#: Metric prefix → source files (relative to src/repro) it aggregates.
PROFILE_MODULES = {
    "analysis.patterns": ("analysis/patterns.py",),
    "analysis.aunify": ("analysis/aunify.py",),
    "analysis.aheap": ("analysis/aheap.py", "wam/cells.py"),
    "domain": ("domain/",),
    "analysis.machine": ("analysis/machine.py", "wam/machine.py"),
    "analysis.table": ("analysis/table.py",),
}
#: Functions of analysis/patterns.py whose call counts are reported.
PATTERN_FUNCTIONS = (
    "abstract_cells", "canonicalize", "materialize_pattern", "pattern_lub",
)


def profile_modules(work: Callable[[], None]) -> Dict[str, float]:
    """Run ``work`` under cProfile; self time (ms) and call counts per
    module group, each group's share of the profiled time, and the call
    counts of the pattern-boundary functions."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        work()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    marker = os.sep + "repro" + os.sep
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    function_calls: Dict[str, int] = defaultdict(int)
    total = 0.0
    for (filename, _, function), (_, ncalls, tottime, _, _) in stats.items():
        total += tottime
        if marker not in filename:
            continue
        relative = filename.split(marker, 1)[1].replace(os.sep, "/")
        for group, files in PROFILE_MODULES.items():
            if any(relative.startswith(prefix) for prefix in files):
                self_s[group] += tottime
                calls[group] += ncalls
        if relative == "analysis/patterns.py" and (
                function in PATTERN_FUNCTIONS):
            function_calls[function] += ncalls
    out: Dict[str, float] = {}
    for group in PROFILE_MODULES:
        out[f"{group}.self_ms"] = self_s[group] * 1000.0
        out[f"{group}.calls"] = calls[group]
    for group in ("analysis.patterns", "analysis.machine"):
        out[f"{group}.share"] = self_s[group] / total if total else 0.0
    for function in PATTERN_FUNCTIONS:
        out[f"analysis.patterns.{function}.calls"] = function_calls[function]
    return out
