"""Parent side of the in-process workloads (table1, serve-edits).

Builds the seeded inputs and the reference answers, starts
``target.py`` (the process under test) several times to sample set-up,
hands the last one the job, and turns what it returns into metrics.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import catalog
from calib import host_factor
from common import (
    BENCH_DIR,
    children_peak_rss_mb,
    geomean,
    median,
    out_path,
    percentile,
    source_env,
    summarize,
    tail_percentile,
)

#: Set-up samples per run (the last one also runs the job).
SETUP_SAMPLES = 15
#: The table1 tail is read at the percentile the tail rule gives for
#: this many rounds (220 program runs: the p95).
TAIL_ROUNDS = 20
#: Longest a process under test may run before it is killed.
CHILD_TIMEOUT_S = 150.0


def spawn_target(workload: str, job_path: str) -> Tuple[float, Optional[dict]]:
    """Start ``target.py``; return (seconds until ready, result)."""
    started = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "target.py"), workload,
         job_path],
        stdout=subprocess.PIPE, env=source_env(), text=True,
    )
    try:
        ready = process.stdout.readline()
        setup = time.perf_counter() - started
        if not ready.startswith('{"ready"'):
            raise RuntimeError(f"target did not become ready: {ready!r}")
        rest, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if process.poll() is None:
            process.kill()
        process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"target exited {process.returncode}")
    lines = [line for line in rest.splitlines() if line.strip()]
    return setup, (json.loads(lines[-1]) if lines else None)


def run_job(workload: str, job: dict, tag: str) -> Tuple[List[tuple], dict]:
    """Sample set-up ``SETUP_SAMPLES`` times, each with the host factor
    measured just before; the last process also runs ``job``."""
    job_path = out_path(f"job-{tag}.json")
    with open(job_path, "w", encoding="utf-8") as handle:
        json.dump(job, handle)
    setups = []
    try:
        for sample in range(SETUP_SAMPLES):
            factor = host_factor()
            setup, result = spawn_target(
                workload, job_path if sample == SETUP_SAMPLES - 1 else "-")
            setups.append((setup, factor))
    finally:
        os.remove(job_path)
    return setups, result


# ----------------------------------------------------------------------
# References: from-scratch answers and bare layer costs, off the clock.


def references(stream: List[dict]) -> Dict[Tuple, dict]:
    """Per distinct (text, entries): digest of the from-scratch
    ``stable_dict`` plus the bare parse/compile/analyze costs."""
    from repro.analysis import driver
    from repro.prolog.program import Program
    from target import digest

    out: Dict[Tuple, dict] = {}
    for item in stream:
        key = (item["text"], tuple(item["entries"]))
        if key in out:
            continue
        t0 = time.perf_counter()
        program = Program.from_text(item["text"])
        t1 = time.perf_counter()
        compiled = driver.compile_program(program)
        t2 = time.perf_counter()
        result = driver.Analyzer(compiled).analyze(item["entries"])
        t3 = time.perf_counter()
        out[key] = {
            "digest": digest(result.stable_dict()),
            "parse": (t1 - t0) * 1e3, "compile": (t2 - t1) * 1e3,
            "analyze": (t3 - t2) * 1e3, "bare": (t3 - t0) * 1e3,
            "iterations": result.iterations,
            "instructions": result.instructions_executed,
            "table_entries": sum(1 for _ in result.table.all_entries()),
            "code_size": compiled.total_size(),
        }
    return out


# ----------------------------------------------------------------------


def table1(seed: int, seconds: int, trace: bool) -> dict:
    from inputs import table1_order

    order = table1_order(seed)
    tag = f"table1-{seed}-{os.getpid()}"
    job = {"order": order, "seconds": seconds, "trace": trace,
           "trace_path": out_path(f"trace-{tag}.jsonl")}
    setups, result = run_job("table1", job, tag)
    rounds = result["rounds"]
    attempted = sum(len(r["rows"]) for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    sums = {
        key: median([sum(row[key] for row in r["rows"].values())
                     for r in rounds])
        for key in ("parse", "compile", "analyze", "pipeline", "meta")
    }
    base = _base(attempted, failed, setups)
    lines = [
        f"table1: {len(rounds)} rounds of {len(order)} programs, "
        f"{failed} wrong answers",
        f"  analyze_ms {sums['analyze']:.3f} ms  (sum over the programs, "
        f"median of rounds)",
        f"  pipeline_ms {sums['pipeline']:.3f} ms  (parse+compile+analyze)",
        f"  baselines.meta_ms {sums['meta']:.3f} ms",
    ]
    if not trace:
        # Calibrated: each round divided by the host factor around it.
        scaled = [[row["pipeline"] / r["factor"] for row in r["rows"].values()]
                  for r in rounds]
        # Pooled over the rounds, read at the percentile the rule gives
        # for TAIL_ROUNDS rounds, so it does not move with the number of
        # rounds a run fits in.
        pct = tail_percentile(TAIL_ROUNDS * len(order))
        pooled = [v for part in scaled for v in part]
        base["e2e"] = {
            "mean_ms": sum(pooled) / len(pooled),
            "tail_ms": percentile(pooled, pct),
            "rate_per_s": len(pooled) / (sum(pooled) / 1e3),
        }
        lines.append(
            f"  calibrated: mean_ms {base['e2e']['mean_ms']:.3f}, tail_ms "
            f"p{pct:g} of {attempted} program runs; host factor "
            f"{median([r['factor'] for r in rounds]):.3f}")
        base["lines"] = lines
        return base
    per_program = {
        name: {
            key: median([r["rows"][name][key] for r in rounds])
            for key in ("analyze", "meta")
        } for name in order
    }
    first = rounds[0]["rows"]
    layer = {
        "prolog.parse_ms": sums["parse"],
        "wam.compile_ms": sums["compile"],
        "wam.code_size": sum(row["code_size"] for row in first.values()),
        "analysis.analyze_ms": sums["analyze"],
        "analysis.iterations": sum(
            row["iterations"] for row in first.values()),
        "analysis.instructions": sum(
            row["instructions"] for row in first.values()),
        "analysis.table_entries": sum(
            row["table_entries"] for row in first.values()),
        "baselines.meta_ms": sums["meta"],
        "baselines.meta_goals": sum(
            row["meta_goals"] for row in first.values()),
        "baselines.meta_ratio": geomean([
            per_program[name]["meta"] / per_program[name]["analyze"]
            for name in order]),
    }
    for name in order:
        layer[f"analysis.analyze_ms.{name}"] = per_program[name]["analyze"]
        layer[f"baselines.meta_ratio.{name}"] = (
            per_program[name]["meta"] / per_program[name]["analyze"])
    layer.update(result["profile"])
    layer.update(_trace_accounting(result))
    base["layer"] = layer
    base["lines"] = lines + _trace_lines(result, job["trace_path"])
    return base


def serve_edits(seed: int, seconds: int, trace: bool) -> dict:
    from inputs import SESSIONS, edit_sessions

    # The traced run needs one session: its figures are per pass.
    sessions = edit_sessions(seed, 1 if trace else SESSIONS)
    refs = references([item for stream in sessions for item in stream])
    keyed = [[(item["text"], tuple(item["entries"])) for item in stream]
             for stream in sessions]
    stream, keys = sessions[0], keyed[0]
    tag = f"serve-edits-{seed}-{os.getpid()}"
    job = {"sessions": [
               {"stream": s, "digests": [refs[k]["digest"] for k in ks]}
               for s, ks in zip(sessions, keyed)],
           "seconds": seconds, "trace": trace,
           "trace_path": out_path(f"trace-{tag}.jsonl")}
    setups, result = run_job("serve-edits", job, tag)
    passes = result["rounds"]
    attempted = sum(len(p["requests"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    base = _base(attempted, failed, setups)
    by_outcome: Dict[str, List[float]] = {}
    tails: Dict[str, List[float]] = {}
    for p in passes:
        per_pass: Dict[str, List[float]] = {}
        for request in p["requests"]:
            per_pass.setdefault(request["outcome"], []).append(
                request["latency"])
        for outcome, samples in per_pass.items():
            by_outcome.setdefault(outcome, []).extend(samples)
            tails.setdefault(outcome, []).append(summarize(samples)["tail"])
    lines = [f"serve-edits: {len(passes)} passes over {len(sessions)} "
             f"sessions of {len(stream)} requests, {failed} wrong answers"]
    for label, outcome in (("warm_ms", "hit"), ("incr_ms", "incremental"),
                           ("cold_ms", "miss")):
        samples = by_outcome.get(outcome, [])
        per_pass_n = len(samples) // max(1, len(passes))
        lines.append(
            f"  {label}.p50 {median(samples):.3f} ms  {label}.tail "
            f"{median(tails.get(outcome, [])):.3f} ms (p"
            f"{summarize(samples[:per_pass_n])['tail_pct']:g} of "
            f"{per_pass_n}/pass)")
    if not trace:
        # Calibrated: each request divided by the host factor of its
        # block of the pass.  Pass i replays session i mod the number
        # of sessions through a fresh service, so each request's
        # latency is the median of its passes: a slow spell of the host
        # in one pass does not reach the figures.  The tail is each
        # session's tail, averaged over the sessions.
        typical = [
            [median([p["requests"][i]["latency"] / p["requests"][i]["factor"]
                     for p in passes[k::len(sessions)]])
             for i in range(len(session))]
            for k, session in enumerate(sessions)
        ]
        pooled = [v for session in typical for v in session]
        mean = sum(pooled) / len(pooled)
        pct = tail_percentile(len(stream))
        base["e2e"] = {
            "mean_ms": mean,
            "tail_ms": sum(percentile(session, pct) for session in typical)
            / len(typical),
            "rate_per_s": 1e3 / mean,
        }
        factor = median([r["factor"] for r in passes[0]["requests"]])
        lines.append(
            f"  calibrated: mean_ms {base['e2e']['mean_ms']:.3f}, tail_ms "
            f"p{pct:g} of each session's {len(stream)} requests, mean of "
            f"{len(sessions)} sessions; host factor {factor:.3f}")
        base["lines"] = lines
        return base
    base["layer"] = _serve_layers(keys, refs, result)
    base["lines"] = lines + _trace_lines(result, job["trace_path"])
    return base


def _serve_layers(keys, refs, result) -> dict:
    from repro.bench import BENCHMARKS

    passes = result["rounds"]
    first = passes[0]
    requests = first["requests"]
    misses = [i for i, r in enumerate(requests) if r["outcome"] == "miss"]
    hits = [i for i, r in enumerate(requests) if r["outcome"] == "hit"]
    incrementals = [i for i, r in enumerate(requests)
                    if r["outcome"] == "incremental"]
    distinct = list(refs.values())
    per_request = result["per_request"][-1]
    hit_rows = [per_request[i] for i in hits]

    def span_ms(row, *names):
        return sum(row.get(name, 0.0) for name in names)

    fingerprint = [span_ms(row, "serve.fingerprint.predicates",
                           "serve.fingerprint.merkle",
                           "serve.fingerprint.request")
                   for row in per_request]
    hit_latency = median([
        median([p["requests"][i]["latency"] for p in passes]) for i in hits])
    store = first["store"]
    lookups = store["hits"] + store["misses"]
    layer = {
        "prolog.parse_ms": median([span_ms(r, "prolog.parse")
                                   for r in per_request]),
        "prolog.parse_share_warm": median([
            span_ms(r, "prolog.parse") / span_ms(r, "serve.service.handle")
            for r in hit_rows]),
        "wam.compile_ms": median([
            r["wam.compile"] for r in per_request if "wam.compile" in r]),
        "wam.code_size": median([ref["code_size"] for ref in distinct]),
        "analysis.analyze_ms": median([ref["analyze"] for ref in distinct]),
        "analysis.iterations": sum(ref["iterations"] for ref in distinct),
        "analysis.instructions": sum(ref["instructions"] for ref in distinct),
        "analysis.table_entries": sum(
            ref["table_entries"] for ref in distinct),
        "serve.fingerprint_ms": median(fingerprint),
        "serve.callgraph_ms": median([
            span_ms(per_request[i], "serve.callgraph.build") for i in misses]),
        "serve.store.hit_ratio": store["hits"] / lookups if lookups else 0.0,
        "serve.store.entries": store["entries"],
        "serve.store.bytes": store["bytes"],
        "serve.store.evictions": store["evictions"],
        "serve.scheduler.instr_ratio": (
            sum(requests[i]["instructions"] for i in misses)
            / sum(refs[keys[i]]["instructions"] for i in misses)),
        "serve.scheduler.pass_ratio": (
            sum(_passes(requests[i]["schedule"]) for i in misses)
            / sum(refs[keys[i]]["iterations"] for i in misses)),
        "serve.scheduler.seeded_share": (
            sum(requests[i]["sccs_seeded"] for i in incrementals)
            / max(1, sum(requests[i]["sccs_total"] for i in incrementals))),
        "serve.service.cold_overhead": median([
            median([p["requests"][i]["latency"] for p in passes])
            / refs[keys[i]]["bare"] for i in misses]),
        "serve.service.warm_over_fp": hit_latency / median([
            fingerprint[i] for i in hits]),
        "serve.service.prepared": first["prepared"],
    }
    by_source = {b.source: b.name for b in BENCHMARKS}
    for (text, _), ref in refs.items():
        if text in by_source:
            layer[f"analysis.analyze_ms.{by_source[text]}"] = ref["analyze"]
    layer.update(result["profile"])
    layer.update(_trace_accounting(result))
    return layer


def _base(attempted: int, failed: int, setups: List[tuple]) -> dict:
    """Counts, set-up (calibrated and raw) and peak memory."""
    return {
        "attempted": attempted, "failed": failed,
        "setup_s": median([setup / factor for setup, factor in setups]),
        "setup_raw_s": median([setup for setup, _ in setups]),
        "peak_rss_mb": children_peak_rss_mb(),
    }


def _passes(schedule: dict) -> int:
    return (schedule["discovery_passes"] + schedule["stabilization_passes"]
            + schedule["verification_passes"])


def _trace_accounting(result: dict) -> dict:
    """Self time per layer (median over traced rounds), the tracing
    overhead and the share of traced wall time inside spans."""
    untraced = median([r["wall_ms"] for r in result["rounds"]])
    traced = median([r["wall_ms"] for r in result["traced"]])
    selfs = result["self_ms"]
    layer = {
        f"self_ms.{name}": median([s.get(name, 0.0) for s in selfs])
        for name in catalog.LAYERS
    }
    covered = median([sum(s.values()) for s in selfs])
    layer["bench.trace_overhead"] = (traced - untraced) / untraced
    layer["bench.span_coverage"] = covered / traced
    return layer


def _trace_lines(result: dict, trace_path: str) -> List[str]:
    untraced = median([r["wall_ms"] for r in result["rounds"]])
    traced = median([r["wall_ms"] for r in result["traced"]])
    covered = median([sum(s.values()) for s in result["self_ms"]])
    return [
        f"  trace: untraced round {untraced:.1f} ms, traced {traced:.1f} ms,"
        f" layer self times sum to {covered:.1f} ms",
        f"  trace written to {os.path.relpath(trace_path)}",
    ]
