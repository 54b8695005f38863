"""The analysis service: requests in, cached or freshly computed facts out.

:class:`AnalysisService` is the long-lived object behind the
``repro-serve`` CLI.  One request names a program (inline text or a
file), entry calling patterns, and optionally analysis knobs and a
budget; the response carries the analysis (or lint) facts plus cache
and degradation status.  The serving invariant:

    **Served results are the results a from-scratch ``analyze()`` of the
    current program text would produce.**  The cache can only make
    answers faster, never different: full-result hits are keyed by
    fingerprints covering everything the analysis depends on, every
    miss runs the driver's own fixpoint (a cold miss does exactly the
    work of ``analyze()``), and seeded runs end with a thawed
    verification sweep that recomputes anything a stale summary could
    have influenced (see :mod:`repro.serve.scheduler`).

Request protocol (JSON object per line on stdin, response per line on
stdout; see docs/serve.md):

``{"op": "analyze", "file": "p.pl", "entries": ["main(g, var)"]}``
``{"op": "analyze", "text": "...", "entries": [...], "budget": {"max_steps": 10000}}``
``{"op": "lint", "file": "p.pl", "entries": [...]}``
``{"op": "stats"}`` / ``{"op": "invalidate"}`` / ``{"op": "shutdown"}``

Degraded results (budget trips, injected faults) are reported with
``"status": "degraded"`` and are **never stored**: a later request with
a healthier budget must recompute, not inherit imprecision.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..analysis.driver import Analyzer, parse_entry_spec
from ..errors import ReproError
from ..prolog.library import with_library
from ..prolog.program import Program
from ..robust import Budget
from ..wam.compile import CompilerOptions
from .callgraph import CallGraph
from .fingerprint import (
    config_fingerprint,
    entry_fingerprint,
    predicate_fingerprints,
    request_fingerprint,
)
from .scheduler import SCCScheduler, Seed
from .store import (
    DiskStore,
    ResultStore,
    entry_from_json,
    table_to_json,
)

#: Cache outcome of one analyze request.
HIT = "hit"           # full-result fingerprint match; no fixpoint ran
INCREMENTAL = "incremental"  # some SCC summaries reused, rest recomputed
MISS = "miss"         # nothing reusable

#: Programs the prepared-program memo holds (least recently used out).
PREPARED_MEMO_SIZE = 64


@dataclass
class ServiceConfig:
    """Server-wide settings; per-request knobs may tighten, not loosen."""

    depth: int = 4
    list_aware: bool = True
    subsumption: bool = False
    on_undefined: str = "error"
    environment_trimming: bool = True
    library: bool = False
    #: Server-wide per-request resource caps (None = unlimited).
    budget: Optional[Budget] = None
    #: In-memory store caps.
    max_entries: Optional[int] = 1024
    max_bytes: Optional[int] = 64 * 1024 * 1024
    #: Optional on-disk store directory.
    store_dir: Optional[str] = None
    #: Write-ahead journal for the disk store (replayed on startup).
    journal: bool = False
    #: Checkpoint cadence: snapshot the extension table every this many
    #: fixpoint passes (plus once on budget-deadline proximity), so a
    #: crashed or budget-tripped request resumes instead of restarting.
    #: None disables checkpointing entirely.
    checkpoint_every: Optional[int] = 16


class AnalysisService:
    """A long-lived analyzer with content-addressed result reuse."""

    def __init__(self, config: Optional[ServiceConfig] = None, tracer=None):
        self.config = config if config is not None else ServiceConfig()
        #: repro.obs: the service always carries a registry — per-request
        #: accounting costs a few counter bumps, and the ``metrics`` op /
        #: ``stats`` snapshot need something to report.  It is threaded
        #: into every analyzer, table and machine the service creates, so
        #: the per-instruction and table counters aggregate here too.
        from ..obs.metrics import MetricsRegistry

        self.metrics = MetricsRegistry()
        #: Optional repro.obs.Tracer for request → entry spec → SCC spans
        #: (the ``--trace-out`` flag of repro-serve).
        self.tracer = tracer
        self.store = ResultStore(
            max_entries=self.config.max_entries,
            max_bytes=self.config.max_bytes,
            disk=(
                DiskStore(
                    self.config.store_dir,
                    journal=self.config.journal,
                    metrics=self.metrics,
                )
                if self.config.store_dir
                else None
            ),
            metrics=self.metrics,
        )
        self.requests_served = 0
        #: SHA-256 of a program text → (Program, Analyzer, CallGraph,
        #: Merkle fps): an LRU, so a warm request skips the parser.
        self._prepared: "OrderedDict[bytes, Tuple]" = OrderedDict()
        #: Extra checkpoint sink: the worker loop points this at stdout
        #: so every snapshot also reaches the supervisor as an interim
        #: wire line (resume-on-retry survives the worker's death even
        #: without a shared disk store).
        self.checkpoint_wire_sink = None
        #: Chaos hook (set per request by the worker loop from a
        #: ``_chaos {"kill_at_iteration": m}`` directive): SIGKILL this
        #: process at the m-th fixpoint pass of the request, *after*
        #: the pass's checkpoint decision — the deterministic stand-in
        #: for a crash mid-fixpoint.
        self.kill_at_iteration: Optional[int] = None

    # ------------------------------------------------------------------
    # Request handling.

    def handle(self, request: dict) -> dict:
        """Process one request dict; never raises for request-level
        failures — errors come back as ``{"ok": false, ...}``."""
        started = time.perf_counter()
        op = request.get("op", "analyze")
        # Trace context (docs/tracing.md): stripped like _chaos, and —
        # when this service traces — turned into a cross-process parent
        # edge on the request's root span.
        trace_context = request.pop("_trace", None)
        if self.tracer is not None:
            self.tracer.begin(
                "request",
                _parent_ref=(
                    trace_context.get("parent")
                    if isinstance(trace_context, dict) else None
                ),
                op=op,
            )
        try:
            response = self._dispatch(request)
        except ReproError as error:
            response = {"ok": False, "error": str(error)}
        except (OSError, ValueError, KeyError, TypeError) as error:
            response = {"ok": False, "error": f"bad request: {error}"}
        finally:
            if self.tracer is not None:
                self.tracer.end()
        if "id" in request:
            response["id"] = request["id"]
        response.setdefault("op", request.get("op"))
        elapsed = time.perf_counter() - started
        response["elapsed_ms"] = round(elapsed * 1000.0, 3)
        self.requests_served += 1
        metrics = self.metrics
        metrics.counter("serve.requests", op=str(op)).inc()
        metrics.histogram("serve.request.seconds").observe(elapsed)
        if not response.get("ok", True):
            metrics.counter("serve.errors").inc()
        return response

    def _dispatch(self, request: dict) -> dict:
        op = request.get("op", "analyze")
        if op == "analyze":
            return self._analyze(request)
        if op == "lint":
            return self._lint(request)
        if op == "stats":
            return {"ok": True, "stats": self.stats()}
        if op == "metrics":
            return {"ok": True, "metrics": self.metrics.snapshot()}
        if op == "invalidate":
            self.store.clear()
            self._prepared.clear()
            return {"ok": True, "invalidated": True}
        if op == "shutdown":
            return {"ok": True, "shutdown": True}
        raise ValueError(f"unknown op {op!r}")

    # ------------------------------------------------------------------

    def _load_text(self, request: dict) -> str:
        if "text" in request:
            return request["text"]
        if "file" in request:
            with open(request["file"], "r", encoding="utf-8") as handle:
                return handle.read()
        raise ValueError("request needs 'text' or 'file'")

    def _budget_for(self, request: dict) -> Optional[Budget]:
        """The request's effective budget: server caps tightened by the
        request's own limits; a fresh object every time."""
        spec = request.get("budget")
        requested = None
        if spec:
            requested = Budget(
                max_steps=spec.get("max_steps"),
                max_iterations=spec.get("max_iterations"),
                max_table_entries=spec.get("max_table_entries"),
                deadline=spec.get("deadline"),
            )
        base = self.config.budget
        if base is not None:
            return base.tightened(requested)
        if requested is not None:
            return requested.copy()
        return None

    def _prepare(self, text: str):
        """Parse, compile and fingerprint ``text``, memoized by the
        SHA-256 of the text: a warm request hashes its text and runs
        neither the parser nor the predicate fingerprints.  ``library``
        is server-wide, so one text always prepares to one program."""
        key = hashlib.sha256(text.encode("utf-8", "surrogatepass")).digest()
        memo = self._prepared
        cached = memo.get(key)
        if cached is not None:
            memo.move_to_end(key)
            # The tracer can change between requests (workers swap in a
            # per-request tracer); keep the memoized analyzer in sync so
            # cached programs still emit entry_spec spans.
            cached[1].tracer = self.tracer
            return cached
        config = self.config
        program = (
            with_library(text) if config.library else Program.from_text(text)
        )
        analyzer = Analyzer(
            program,
            options=CompilerOptions(
                environment_trimming=config.environment_trimming
            ),
            depth=config.depth,
            list_aware=config.list_aware,
            subsumption=config.subsumption,
            on_undefined=config.on_undefined,
            metrics=self.metrics,
            tracer=self.tracer,
        )
        graph = CallGraph.from_compiled(analyzer.compiled)
        merkle = graph.merkle_fingerprints(predicate_fingerprints(program))
        prepared = (program, analyzer, graph, merkle)
        memo[key] = prepared
        if len(memo) > PREPARED_MEMO_SIZE:
            memo.popitem(last=False)
        return prepared

    def _config_fp(self) -> str:
        config = self.config
        return config_fingerprint(
            depth=config.depth,
            list_aware=config.list_aware,
            subsumption=config.subsumption,
            on_undefined=config.on_undefined,
            environment_trimming=config.environment_trimming,
        )

    # ------------------------------------------------------------------

    def _analyze(self, request: dict) -> dict:
        response, _, _ = self._analyze_core(request, need_live=False)
        return response

    def _analyze_core(self, request: dict, need_live: bool):
        """The shared analyze path.

        Returns ``(response, live_result, prepared)``; ``live_result`` is
        the in-process :class:`AnalysisResult` when the fixpoint actually
        ran (or when ``need_live`` forces a seeded run on a full-result
        hit — seeded means zero re-iteration of clean components), else
        None; ``prepared`` is the ``(program, analyzer, graph, merkle)``
        the request was answered from.
        """
        text = self._load_text(request)
        entries = request.get("entries")
        if not entries:
            raise ValueError("request needs non-empty 'entries'")
        prepared = self._prepare(text)
        _, analyzer, graph, merkle = prepared
        specs = [parse_entry_spec(entry) for entry in entries]
        config_fp = self._config_fp()
        entry_fps = [entry_fingerprint(spec) for spec in specs]
        reachable = graph.reachable_sccs([spec.indicator for spec in specs])
        request_fp = request_fingerprint(
            config_fp, entry_fps, [merkle[i] for i in reachable]
        )
        scc_keys = [f"scc:{merkle[i]}:{config_fp}" for i in reachable]
        # ---- full-result hit: no fixpoint, no seed decoding -----------
        cached = None if need_live else self.store.get(f"result:{request_fp}")
        if cached is not None:
            self.metrics.counter("serve.cache", outcome=HIT).inc()
            return (
                {
                    "ok": True,
                    "status": cached["status"],
                    "result": cached,
                    "cache": {
                        "outcome": HIT,
                        "sccs_total": len(reachable),
                        "sccs_seeded": sum(
                            key in self.store for key in scc_keys
                        ),
                    },
                },
                None,
                prepared,
            )
        # ---- gather seeds from clean SCC summaries --------------------
        seeds: List[Seed] = []
        seeded_sccs = 0
        for key in scc_keys:
            stored = self.store.get(key)
            if stored is None:
                continue
            seeded_sccs += 1
            for item in stored["entries"]:
                seeds.append(entry_from_json(item))
        # ---- resume from the best valid checkpoint --------------------
        # Two sources, largest cursor wins: one attached to the request
        # (the supervisor replays the newest snapshot a crashed worker
        # shipped up the wire) and one in the durable store (survives
        # every worker in the pool dying).  Both sources are
        # best-effort: an invalid snapshot is ignored and counted, never
        # an error.
        from ..robust import checkpoint as ckpt

        checkpoint_key = f"{self.store.CHECKPOINT_PREFIX}{request_fp}"
        resume = None
        for candidate in (
            request.get("resume"),
            self.store.get_checkpoint(checkpoint_key),
        ):
            if candidate is None:
                continue
            loaded = ckpt.load(
                candidate, config=config_fp, key=request_fp,
                metrics=self.metrics,
            )
            if loaded is not None and (
                resume is None
                or ckpt.cursor_iterations(loaded)
                > ckpt.cursor_iterations(resume)
            ):
                resume = loaded
        resume_base = ckpt.cursor_iterations(resume) if resume else 0
        if resume is not None:
            self.metrics.counter("resume.attempts").inc()
        # ---- checkpoint policy ----------------------------------------
        budget = self._budget_for(request)
        policy = None
        if self.config.checkpoint_every is not None or self.kill_at_iteration:
            kill_at = self.kill_at_iteration

            def checkpoint_sink(snap: dict) -> None:
                self.store.put_checkpoint(checkpoint_key, snap)
                if self.checkpoint_wire_sink is not None:
                    self.checkpoint_wire_sink(snap)

            def on_pass(pass_number: int) -> None:
                if kill_at is not None and pass_number >= kill_at:
                    import os
                    import signal

                    os.kill(os.getpid(), signal.SIGKILL)

            policy = ckpt.CheckpointPolicy(
                checkpoint_sink,
                every=self.config.checkpoint_every,
                budget=budget,
                config=config_fp,
                key=request_fp,
                entries=specs,
                base_iterations=resume_base,
                attempts=(
                    resume["cursor"].get("attempts", 0) + 1 if resume else 1
                ),
                metrics=self.metrics,
                on_pass=on_pass if kill_at is not None else None,
            )
        # ---- run the seeded fixpoint ----------------------------------
        scheduler = SCCScheduler(analyzer, graph)
        result, stats = scheduler.analyze(
            specs,
            seeds=seeds,
            budget=budget,
            on_budget=request.get("on_budget", "degrade"),
            checkpoint=policy,
            resume=resume,
        )
        if result.status == "exact":
            # Forward progress complete: the checkpoint is garbage now.
            self.store.drop_checkpoint(checkpoint_key)
        stable = result.stable_dict()
        full_hit = need_live and f"result:{request_fp}" in self.store
        outcome = HIT if full_hit else (INCREMENTAL if seeds else MISS)
        self.metrics.counter("serve.cache", outcome=outcome).inc()
        # ---- store (exact results only) -------------------------------
        if result.status == "exact":
            self.store.put(f"result:{request_fp}", stable)
            # Summaries are what the converged passes reached: calling
            # patterns only an earlier pass met would be stale seeds.
            reached = set().union(
                *(report.touched for report in result.entry_reports)
            )
            dirty_sccs = {
                owner
                for indicator, _ in reached
                if (owner := graph.scc_of.get(indicator)) is not None
            }
            for scc_index in dirty_sccs:
                self.store.put(
                    f"scc:{merkle[scc_index]}:{config_fp}",
                    {"entries": table_to_json(
                        result.table, graph.members(scc_index), reached
                    )},
                )
        response = {
            "ok": True,
            "status": result.status,
            "result": stable,
            "timing": {
                "seconds": result.seconds,
                "iterations": result.iterations,
                "instructions": result.instructions_executed,
            },
            "cache": {
                "outcome": outcome,
                "sccs_total": len(reachable),
                "sccs_seeded": seeded_sccs,
                "schedule": stats.to_dict(),
            },
        }
        return response, result, prepared

    # ------------------------------------------------------------------

    def _lint(self, request: dict) -> dict:
        """Lint = the (cached) analysis plus the bytecode verifier and
        the source rules, which are cheap and run fresh every time.

        The rule engine needs a live :class:`AnalysisResult`, so a
        full-result cache hit still runs one fully-seeded pass — no
        clean component is re-iterated."""
        from ..lint import lint_source, verify_compiled
        from ..lint.diagnostics import LintReport

        analysis, result, prepared = self._analyze_core(
            request, need_live=True
        )
        if not analysis.get("ok") or result is None:
            return analysis
        program, analyzer, _, _ = prepared
        report = LintReport()
        file_name = request.get("file", "?")
        report.extend(verify_compiled(analyzer.compiled, file=file_name))
        report.extend(lint_source(program, result, file=file_name))
        report.sort()
        return {
            "ok": True,
            "status": result.status,
            "cache": analysis["cache"],
            "lint": report.to_dict(),
        }

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "requests_served": self.requests_served,
            "store": self.store.stats(),
            "programs_prepared": len(self._prepared),
            "metrics": self.metrics.snapshot(),
        }


# ----------------------------------------------------------------------
# The request loop and batch mode (used by the repro-serve CLI).


#: Longest request line serve_loop accepts; beyond it the line is
#: drained and answered with an error instead of being buffered whole.
MAX_REQUEST_LINE = 10 * 1024 * 1024


def serve_loop(
    service, stdin, stdout, max_line_bytes: int = MAX_REQUEST_LINE
) -> int:
    """JSON-lines request/response loop; returns the exit status.

    Hardened against hostile or broken clients: malformed JSON, a
    non-object request, or a line longer than ``max_line_bytes``
    (drained without ever holding it in memory) each produce a
    structured ``{"ok": false, ...}`` response and the loop keeps
    serving; a ``shutdown`` request, EOF, or EOF mid-line ends the loop
    cleanly with status 0.  ``service`` is anything with
    ``handle(request) -> response`` — the in-process
    :class:`AnalysisService` or a :class:`~repro.serve.supervisor.Supervisor`.

    Shed input — oversized and malformed lines — is counted in the
    service's metrics registry (``serve.input.oversized`` /
    ``serve.input.malformed``), not only answered with a structured
    error, so operators can see protocol abuse in the ``metrics`` op.
    """
    metrics = getattr(service, "metrics", None)
    while True:
        line = stdin.readline(max_line_bytes + 1)
        if not line:
            break  # EOF
        if len(line) > max_line_bytes and not line.endswith("\n"):
            # Oversized: throw away the rest of the line in bounded
            # chunks, answer with an error, keep serving.
            while True:
                chunk = stdin.readline(max_line_bytes)
                if not chunk or chunk.endswith("\n"):
                    break
            if metrics is not None:
                metrics.counter("serve.input.oversized").inc()
            response = {
                "ok": False,
                "error": (
                    f"request line exceeds {max_line_bytes} bytes"
                ),
            }
        else:
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            except ValueError as error:
                if metrics is not None:
                    metrics.counter("serve.input.malformed").inc()
                response = {"ok": False, "error": f"bad JSON: {error}"}
            else:
                if not isinstance(request, dict):
                    if metrics is not None:
                        metrics.counter("serve.input.malformed").inc()
                    response = {
                        "ok": False, "error": "request must be an object"
                    }
                else:
                    response = service.handle(request)
        stdout.write(json.dumps(response, sort_keys=True) + "\n")
        stdout.flush()
        if response.get("shutdown"):
            break
    return 0


def run_batch(
    service,
    files: Sequence[str],
    entries: Sequence[str],
    passes: int = 2,
    stdout=None,
) -> dict:
    """Analyze every file ``passes`` times through the service.

    The per-file responses of each pass are written as JSON lines; the
    returned summary counts cache outcomes per pass — the second pass
    over unchanged files should be all hits."""
    summary: dict = {"passes": [], "files": list(files)}
    for pass_index in range(passes):
        counts = {HIT: 0, INCREMENTAL: 0, MISS: 0, "error": 0, "degraded": 0}
        for path in files:
            response = service.handle(
                {"op": "analyze", "file": path, "entries": list(entries)}
            )
            if stdout is not None:
                stdout.write(json.dumps(response, sort_keys=True) + "\n")
            if not response.get("ok"):
                counts["error"] += 1
                continue
            counts[response["cache"]["outcome"]] += 1
            if response["status"] != "exact":
                counts["degraded"] += 1
        summary["passes"].append(counts)
    # A Supervisor fronts workers and has no store of its own; its
    # stats() block stands in.
    summary["store"] = (
        service.store.stats()
        if hasattr(service, "store")
        else service.stats()
    )
    return summary


__all__ = [
    "HIT",
    "INCREMENTAL",
    "MAX_REQUEST_LINE",
    "MISS",
    "AnalysisService",
    "ServiceConfig",
    "run_batch",
    "serve_loop",
]
