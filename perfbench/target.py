"""The process under test for the in-process workloads.

``python3 perfbench/target.py WORKLOAD JOB_FILE`` imports the program,
constructs what the workload serves from, prints one ``{"ready": ...}``
line (the end of set-up), then reads the job written by ``run.py`` and
runs it: timed rounds, or alternating untraced/traced rounds plus one
profiled round.  Its last stdout line is the JSON result.  With
``JOB_FILE`` of ``-`` it stops after the ready line (a set-up sample).

Answers are checked here, off the clock: table1 against the reference
meta-interpreter, serve-edits against digests of from-scratch analyses
that ``run.py`` computed before this process started.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

from calib import between, host_factor
from common import require_source

require_source()

_clock = time.perf_counter


def digest(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# table1: parse, compile and analyze each Van Roy program from scratch,
# interleaved with the reference meta-interpreter on the same program.


def table_map(table) -> dict:
    return {
        (indicator, entry.calling): entry.success
        for indicator, entry in table.all_entries()
    }


class Table1:
    def __init__(self) -> None:
        from repro.analysis import driver
        from repro.baselines import MetaAnalyzer
        from repro.bench import BENCHMARKS
        from repro.prolog.program import Program

        self.driver = driver
        self.meta = MetaAnalyzer
        self.program = Program
        self.benchmarks = {b.name: b for b in BENCHMARKS}

    def round(self, order, recorder=None, calibrate: bool = False) -> dict:
        """One pass over the programs; per-program timings in ms.  A
        round is short, so ``run_job`` calibrates it as a whole."""
        rows = {}
        failed = 0
        driver = self.driver
        for name in order:
            bench = self.benchmarks[name]
            if recorder is not None:
                recorder.begin("bench.request", "bench")
            t0 = _clock()
            program = self.program.from_text(bench.source)
            t1 = _clock()
            compiled = driver.compile_program(program)
            t2 = _clock()
            result = driver.Analyzer(compiled).analyze([bench.entry])
            t3 = _clock()
            row = {
                "parse": (t1 - t0) * 1e3, "compile": (t2 - t1) * 1e3,
                "analyze": (t3 - t2) * 1e3, "pipeline": (t3 - t0) * 1e3,
                "iterations": result.iterations,
                "instructions": result.instructions_executed,
                "table_entries": sum(1 for _ in result.table.all_entries()),
                "code_size": compiled.total_size(),
            }
            meta = self.meta(bench.source)
            t4 = _clock()
            reference = meta.analyze([bench.entry])
            t5 = _clock()
            row["meta"] = (t5 - t4) * 1e3
            row["meta_goals"] = reference.goals_interpreted
            if (reference.iterations != result.iterations
                    or table_map(reference.table) != table_map(result.table)):
                failed += 1
            if recorder is not None:
                recorder.end()
            rows[name] = row
        return {"rows": rows, "failed": failed}

    def profile_work(self, order):
        """The analyze calls of one round, with parsing and compiling
        done beforehand, so the module profile covers analysis only."""
        prepared = [
            (self.driver.compile_program(
                self.program.from_text(self.benchmarks[name].source)),
             self.benchmarks[name].entry)
            for name in order
        ]

        def work() -> None:
            for compiled, entry in prepared:
                self.driver.Analyzer(compiled).analyze([entry])
        return work


# ----------------------------------------------------------------------
# serve-edits: one in-process AnalysisService, closed loop, one client.


#: Requests of the session run under the profiler (a fixed prefix, so
#: call counts repeat exactly for a seed).
PROFILE_PREFIX = 150
#: Requests between two host-speed measurements.
BLOCK = 50


class ServeEdits:
    def __init__(self) -> None:
        from repro.serve.service import AnalysisService

        self.factory = AnalysisService
        self.service = AnalysisService()

    def fresh(self):
        if self.service is None:
            self.service = self.factory()
        service, self.service = self.service, None
        return service

    def round(self, job, recorder=None, calibrate: bool = False) -> dict:
        """One pass of the session through a fresh service.  With
        ``calibrate`` the host's speed is measured every ``BLOCK``
        requests and each request carries the factor of its block."""
        service = self.fresh()
        stream = job["stream"]
        expected = job["digests"]
        requests = []
        failed = 0
        factors = []
        for index, item in enumerate(stream):
            if calibrate and index % BLOCK == 0:
                factors.append(host_factor())
            request = {"op": "analyze", "text": item["text"],
                       "entries": item["entries"]}
            if recorder is not None:
                recorder.begin("bench.request", "bench")
            t0 = _clock()
            response = service.handle(request)
            t1 = _clock()
            if recorder is not None:
                recorder.end()
            ok = bool(response.get("ok")) and response.get(
                "status") == "exact" and digest(
                    response.get("result")) == expected[index]
            if not ok:
                failed += 1
            cache = response.get("cache", {})
            timing = response.get("timing", {})
            requests.append({
                "latency": (t1 - t0) * 1e3,
                "outcome": cache.get("outcome", "error"),
                "instructions": timing.get("instructions"),
                "schedule": cache.get("schedule"),
                "sccs_seeded": cache.get("sccs_seeded"),
                "sccs_total": cache.get("sccs_total"),
            })
        if calibrate:
            factors.append(host_factor())
            for index, request in enumerate(requests):
                request["factor"] = between(factors, index // BLOCK)
        stats = service.stats()
        return {"requests": requests, "failed": failed,
                "store": stats["store"],
                "prepared": stats["programs_prepared"]}

    def profile_work(self, job):
        """A fixed prefix of the session through a fresh service."""
        prefix = dict(job, stream=job["stream"][:PROFILE_PREFIX],
                      digests=job["digests"][:PROFILE_PREFIX])
        return lambda: self.round(prefix)


WORKLOADS = {"table1": Table1, "serve-edits": ServeEdits}


def run_job(workload, job: dict) -> dict:
    seconds = job["seconds"]
    # What each round runs, taken in turn: table1's program order, or
    # serve-edits' sessions (every one runs at least once).
    arguments = job["sessions"] if "sessions" in job else [job["order"]]
    argument = arguments[0]
    if not job["trace"]:
        rounds = []
        factors = [host_factor()]
        started = _clock()
        while len(rounds) < len(arguments) or _clock() - started < seconds:
            rounds.append(workload.round(
                arguments[len(rounds) % len(arguments)], calibrate=True))
            factors.append(host_factor())
        for index, result in enumerate(rounds):
            result["factor"] = between(factors, index)
        return {"rounds": rounds}
    import spans

    untraced, traced = [], []
    recorders = []
    started = _clock()
    while len(traced) < 2 or _clock() - started < seconds:
        t0 = _clock()
        untraced.append(workload.round(argument))
        untraced[-1]["wall_ms"] = (_clock() - t0) * 1e3
        recorder = spans.Recorder()
        undo = spans.install(recorder)
        try:
            # The round span gives the benchmark's own loop work (the
            # answer checks) to the "bench" layer, so the layers' self
            # times add up to the traced round.
            t0 = _clock()
            recorder.begin("bench.round", "bench")
            traced.append(workload.round(argument, recorder))
            recorder.end()
            traced[-1]["wall_ms"] = (_clock() - t0) * 1e3
        finally:
            undo()
        recorders.append(recorder)
    recorders[-1].write_jsonl(job["trace_path"])
    profile = spans.profile_modules(workload.profile_work(argument))
    return {
        "rounds": untraced,
        "traced": traced,
        "self_ms": [rec.self_ms() for rec in recorders],
        "per_request": [per_request(rec) for rec in recorders],
        "profile": profile,
    }


def per_request(recorder) -> list:
    """One row per ``bench.request`` span: the summed duration of each
    span name below it, in ms."""
    spans_ = recorder.spans()
    request_of = {}
    rows = []
    for span_id in sorted(spans_):
        span = spans_[span_id]
        if span["name"] == "bench.request":
            request_of[span_id] = len(rows)
            rows.append({})
            continue
        owner = request_of.get(span["parent"])
        if owner is None:
            continue
        request_of[span_id] = owner
        row = rows[owner]
        row[span["name"]] = row.get(span["name"], 0.0) + (
            span["end"] - span["start"]) * 1e3
    return rows


def main(argv) -> int:
    name, job_path = argv[1], argv[2]
    workload = WORKLOADS[name]()
    print(json.dumps({"ready": True}), flush=True)
    if job_path == "-":
        return 0
    with open(job_path, "r", encoding="utf-8") as handle:
        job = json.load(handle)
    result = run_job(workload, job)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
