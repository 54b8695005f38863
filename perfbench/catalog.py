"""Every metric the benchmark reports: name, unit and direction.

``BENCHMARK.json`` at the repository root lists the same metrics (the
test in ``test_inputs.py`` keeps the two equal); ``predictions.json``
says which end-to-end metric each per-layer metric should move, on
which workload.
"""

from __future__ import annotations

from typing import List, Tuple

#: Van Roy program names, in Table 1 order (the per-program rows).
PROGRAMS = (
    "log10", "ops8", "times10", "divide10", "tak", "nreverse", "qsort",
    "query", "zebra", "serialise", "queens_8",
)

#: (name, unit, better, bound) — reported by every workload untraced.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("served_frac", "fraction", "higher", 0.01),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("mean_ms", "ms", "lower", 0.25),
    ("tail_ms", "ms", "lower", 0.25),
    ("rate_per_s", "1/s", "higher", 0.25),
]

#: Layers, as span and self-time names use them.
LAYERS = (
    "bench", "prolog", "wam.compile", "analysis", "baselines.meta",
    "serve.fingerprint", "serve.callgraph", "serve.store",
    "serve.scheduler", "serve.service", "serve.supervisor", "serve.worker",
    "serve.shard", "serve.gateway",
)

_PROFILE_GROUPS = (
    "analysis.patterns", "analysis.aunify", "analysis.aheap", "domain",
    "analysis.machine", "analysis.table",
)


def _per_layer() -> List[Tuple[str, str, str]]:
    rows = [
        ("prolog.parse_ms", "ms", "lower"),
        ("prolog.parse_share_warm", "ratio", "lower"),
        ("wam.compile_ms", "ms", "lower"),
        ("wam.code_size", "count", "lower"),
        ("analysis.analyze_ms", "ms", "lower"),
        ("analysis.iterations", "count", "lower"),
        ("analysis.instructions", "count", "lower"),
        ("analysis.table_entries", "count", "lower"),
    ]
    rows += [(f"analysis.analyze_ms.{p}", "ms", "lower") for p in PROGRAMS]
    for group in _PROFILE_GROUPS:
        rows += [(f"{group}.self_ms", "ms", "lower"),
                 (f"{group}.calls", "count", "lower")]
    rows += [("analysis.patterns.share", "ratio", "lower"),
             ("analysis.machine.share", "ratio", "lower")]
    rows += [
        (f"analysis.patterns.{function}.calls", "count", "lower")
        for function in ("abstract_cells", "canonicalize",
                         "materialize_pattern", "pattern_lub")
    ]
    rows += [
        ("baselines.meta_ms", "ms", "lower"),
        ("baselines.meta_goals", "count", "lower"),
        ("baselines.meta_ratio", "ratio", "higher"),
    ]
    rows += [(f"baselines.meta_ratio.{p}", "ratio", "higher")
             for p in PROGRAMS]
    rows += [
        ("serve.fingerprint_ms", "ms", "lower"),
        ("serve.callgraph_ms", "ms", "lower"),
        ("serve.store.hit_ratio", "ratio", "higher"),
        ("serve.store.entries", "count", "lower"),
        ("serve.store.bytes", "bytes", "lower"),
        ("serve.store.evictions", "count", "lower"),
        ("serve.scheduler.instr_ratio", "ratio", "lower"),
        ("serve.scheduler.pass_ratio", "ratio", "lower"),
        ("serve.scheduler.seeded_share", "ratio", "higher"),
        ("serve.service.cold_overhead", "ratio", "lower"),
        ("serve.service.warm_over_fp", "ratio", "lower"),
        ("serve.service.prepared", "count", "higher"),
        ("serve.worker.ready_s", "s", "lower"),
        ("serve.worker.handle_ms", "ms", "lower"),
        ("serve.supervisor.pipe_ms", "ms", "lower"),
        ("serve.shard.queue_ms", "ms", "lower"),
        ("serve.shard.depth_max", "count", "lower"),
        ("serve.shard.shed", "count", "lower"),
        ("serve.gateway.wire_ms", "ms", "lower"),
        ("bench.gen_lag_ms", "ms", "lower"),
        ("bench.trace_overhead", "ratio", "lower"),
        ("bench.span_coverage", "ratio", "higher"),
    ]
    rows += [(f"self_ms.{layer}", "ms", "lower") for layer in LAYERS]
    return rows


PER_LAYER: List[Tuple[str, str, str]] = _per_layer()


def units(traced: bool) -> dict:
    if traced:
        return {name: unit for name, unit, _ in PER_LAYER}
    return {name: unit for name, unit, _, _ in END_TO_END}
