"""The analysis service (repro.serve.service) and the SCC scheduler.

The contract under test everywhere: whatever the cache state, a served
result equals a from-scratch ``analyze()`` (compared via
``stable_dict``), and a full-result hit answers without running any
fixpoint at all.
"""

import io
import json

import pytest

from repro.analysis.driver import Analyzer, parse_entry_spec
from repro.bench.programs import BENCHMARKS
from repro.errors import BudgetExceeded
from repro.prolog.program import Program
from repro.robust import Budget, FaultPlan
import repro.serve.service as service_module
from repro.serve import (
    HIT,
    INCREMENTAL,
    MISS,
    AnalysisService,
    SCCScheduler,
    ServiceConfig,
    run_batch,
    serve_loop,
)
from repro.serve.service import PREPARED_MEMO_SIZE

NREV = """
nrev([], []).
nrev([H|T], R) :- nrev(T, RT), append(RT, [H], R).
append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).
"""

ENTRY = "nrev(glist, var)"

#: Passes a cold analysis of NREV from ENTRY takes; one fewer is a
#: budget no cold request can finish in.
COLD_PASSES = Analyzer(Program.from_text(NREV)).analyze([ENTRY]).iterations


def _scratch(text, entries):
    return Analyzer(Program.from_text(text)).analyze(entries).stable_dict()


def _service(**kwargs):
    return AnalysisService(ServiceConfig(**kwargs))


# ----------------------------------------------------------------------
# The scheduler alone: equivalence with the monolithic driver.


def test_scheduler_matches_driver_without_seeds():
    analyzer = Analyzer(Program.from_text(NREV))
    result, stats = SCCScheduler(analyzer).analyze([parse_entry_spec(ENTRY)])
    assert result.stable_dict() == _scratch(NREV, [ENTRY])
    assert result.status == "exact"


@pytest.mark.parametrize(
    "text, entries",
    [
        pytest.param(b.source, [b.entry], id=b.name) for b in BENCHMARKS
    ] + [
        pytest.param(
            NREV + "\nmain :- nrev([1,2], R).\n",
            ["main", ENTRY, "append(glist, glist, var)"],
            id="three-entries",
        ),
    ],
)
def test_cold_request_does_the_bare_analyzers_work(text, entries):
    # A cold served request runs the driver's Kleene loop and nothing
    # else: the same passes, the same instructions, the same answer.
    bare = Analyzer(Program.from_text(text)).analyze(entries)
    response = _service().handle(
        {"op": "analyze", "text": text, "entries": entries}
    )
    assert response["cache"]["outcome"] == MISS
    assert response["timing"]["iterations"] == bare.iterations
    assert response["timing"]["instructions"] == bare.instructions_executed
    assert response["result"] == bare.stable_dict()


def test_scheduler_matches_driver_multiple_entries():
    text = NREV + "\nmain :- nrev([1,2], R).\n"
    entries = ["main", ENTRY, "append(glist, glist, var)"]
    analyzer = Analyzer(Program.from_text(text))
    specs = [parse_entry_spec(entry) for entry in entries]
    result, _ = SCCScheduler(analyzer).analyze(specs)
    assert result.stable_dict() == _scratch(text, entries)
    # reports come back in input order, not schedule order
    assert [str(r.spec) for r in result.entry_reports] == \
        [str(spec) for spec in specs]


def test_scheduler_budget_degrades_like_driver():
    analyzer = Analyzer(Program.from_text(NREV))
    result, _ = SCCScheduler(analyzer).analyze(
        [parse_entry_spec(ENTRY)], budget=Budget(max_iterations=1)
    )
    assert result.status == "degraded"
    # degraded is sound: ⊤ success patterns, not missing entries
    info = result.predicate(("nrev", 2))
    assert info is not None and info.status == "degraded"


def test_scheduler_budget_raise_mode():
    analyzer = Analyzer(Program.from_text(NREV))
    with pytest.raises(BudgetExceeded):
        SCCScheduler(analyzer).analyze(
            [parse_entry_spec(ENTRY)],
            budget=Budget(max_iterations=1),
            on_budget="raise",
        )


def test_scheduler_fault_injection_degrades():
    analyzer = Analyzer(Program.from_text(NREV))
    result, _ = SCCScheduler(analyzer).analyze(
        [parse_entry_spec(ENTRY)], fault_plan=FaultPlan(at_table_update=2)
    )
    assert result.status == "degraded"


def test_scheduler_wrong_seed_is_corrected():
    # Cache validity is a performance matter, never a soundness one:
    # even a *wrong* seed (nrev "fails" on glist) must be fixed by the
    # verification sweep.
    analyzer = Analyzer(Program.from_text(NREV))
    spec = parse_entry_spec(ENTRY)
    wrong = [(spec.indicator, spec.pattern, None, frozenset())]
    result, _ = SCCScheduler(analyzer).analyze([spec], seeds=wrong)
    assert result.stable_dict() == _scratch(NREV, [ENTRY])


# ----------------------------------------------------------------------
# The service: cache outcomes and equivalence.


def test_cold_warm_and_equivalence():
    service = _service()
    request = {"op": "analyze", "text": NREV, "entries": [ENTRY]}
    cold = service.handle(request)
    warm = service.handle(request)
    scratch = _scratch(NREV, [ENTRY])
    assert cold["ok"] and cold["cache"]["outcome"] == MISS
    assert warm["ok"] and warm["cache"]["outcome"] == HIT
    assert cold["result"] == scratch and warm["result"] == scratch
    # the full-result hit never ran a fixpoint
    assert "timing" not in warm


def test_incremental_edit_reuses_clean_sccs():
    service = _service()
    service.handle({"op": "analyze", "text": NREV, "entries": [ENTRY]})
    edited = NREV + "\nnrev([x], [x]).\n"
    response = service.handle(
        {"op": "analyze", "text": edited, "entries": [ENTRY]}
    )
    assert response["cache"]["outcome"] == INCREMENTAL
    assert response["cache"]["sccs_seeded"] >= 1
    assert response["result"] == _scratch(edited, [ENTRY])


def test_edit_outside_reachable_code_still_full_hits():
    service = _service()
    service.handle({"op": "analyze", "text": NREV, "entries": [ENTRY]})
    edited = NREV + "\nunrelated(x) :- unrelated(x).\n"
    response = service.handle(
        {"op": "analyze", "text": edited, "entries": [ENTRY]}
    )
    assert response["cache"]["outcome"] == HIT


def test_degraded_results_are_not_cached():
    service = _service()
    tight = {
        "op": "analyze", "text": NREV, "entries": [ENTRY],
        "budget": {"max_iterations": 1},
    }
    degraded = service.handle(tight)
    assert degraded["status"] == "degraded"
    # No *result* or SCC summary is cached — only a checkpoint snapshot
    # (a different namespace: pre-widening fixpoint progress, kept so
    # the healthy follow-up resumes instead of re-deriving).
    assert not [
        key for key in service.store._data if not key.startswith("checkpoint:")
    ]
    assert [
        key for key in service.store._data if key.startswith("checkpoint:")
    ]
    # a healthy request afterwards recomputes and gets the exact result
    healthy = service.handle({"op": "analyze", "text": NREV, "entries": [ENTRY]})
    assert healthy["status"] == "exact"
    assert healthy["cache"]["outcome"] == MISS
    assert healthy["result"] == _scratch(NREV, [ENTRY])
    # ...and the checkpoint was garbage-collected on exact completion.
    assert not [
        key for key in service.store._data if key.startswith("checkpoint:")
    ]


def test_per_request_budget_tightens_server_budget():
    service = _service(budget=Budget(max_iterations=2))
    effective = service._budget_for({"budget": {"max_iterations": 50}})
    assert effective.max_iterations == 2  # server cap wins
    effective = service._budget_for({"budget": {"max_iterations": 1}})
    assert effective.max_iterations == 1  # request may ask for less
    # fresh object per request: counters independent
    assert effective is not service.config.budget
    assert effective.iterations_used == 0


def test_budget_exhaustion_in_one_request_does_not_leak():
    # checkpoint_every=None isolates the budget-accounting contract;
    # with checkpointing on, the second request would legitimately
    # resume and finish (see test below).
    service = _service(
        budget=Budget(max_iterations=COLD_PASSES - 1), checkpoint_every=None
    )
    first = service.handle({"op": "analyze", "text": NREV, "entries": [ENTRY]})
    assert first["status"] == "degraded"  # not enough iterations cold
    again = service.handle({"op": "analyze", "text": NREV, "entries": [ENTRY]})
    # the second request gets its own allowance, not the leftovers
    assert again["status"] == "degraded"
    assert again["cache"]["outcome"] == MISS


def test_budget_trips_make_cumulative_progress_via_checkpoints():
    # With checkpointing on, each degraded attempt banks its fixpoint
    # progress: repeated identical requests under the same insufficient
    # per-request budget eventually complete exactly — and the exact
    # result equals a from-scratch run.
    service = _service(
        budget=Budget(max_iterations=COLD_PASSES - 1), checkpoint_every=1
    )
    request = {"op": "analyze", "text": NREV, "entries": [ENTRY]}
    statuses = []
    for _ in range(8):
        response = service.handle(dict(request))
        statuses.append(response["status"])
        if response["status"] == "exact":
            break
    assert statuses[0] == "degraded"
    assert statuses[-1] == "exact"
    assert response["result"] == _scratch(NREV, [ENTRY])
    snapshot = service.metrics.snapshot()
    assert snapshot["resume.attempts"]["value"] >= 1
    assert snapshot["checkpoint.gc"]["value"] >= 1


def test_config_change_misses():
    service = _service()
    service.handle({"op": "analyze", "text": NREV, "entries": [ENTRY]})
    other = _service(depth=3)
    other.store = service.store  # same store, different config
    response = other.handle({"op": "analyze", "text": NREV, "entries": [ENTRY]})
    assert response["cache"]["outcome"] == MISS


def test_lint_op_uses_cache_and_reports():
    service = _service(on_undefined="top")
    request = {"op": "lint", "text": NREV, "entries": [ENTRY]}
    first = service.handle(request)
    second = service.handle(request)
    assert first["ok"] and second["ok"]
    assert second["cache"]["outcome"] == HIT
    assert first["lint"] == second["lint"]


def test_error_requests_are_answered_not_raised():
    service = _service()
    assert service.handle({"op": "analyze"})["ok"] is False
    assert service.handle({"op": "analyze", "text": "p(a)."})["ok"] is False
    assert service.handle({"op": "nope"})["ok"] is False
    bad_syntax = service.handle(
        {"op": "analyze", "text": "p(", "entries": ["p"]}
    )
    assert bad_syntax["ok"] is False and "error" in bad_syntax


def test_disk_store_survives_service_restart(tmp_path):
    directory = str(tmp_path / "cache")
    first = _service(store_dir=directory)
    first.handle({"op": "analyze", "text": NREV, "entries": [ENTRY]})
    second = _service(store_dir=directory)
    response = second.handle(
        {"op": "analyze", "text": NREV, "entries": [ENTRY]}
    )
    assert response["cache"]["outcome"] == HIT


# ----------------------------------------------------------------------
# The prepared-program memo: a warm hit costs a text hash, not a parse.


@pytest.fixture
def front_end_calls(monkeypatch):
    """Counts program parses and predicate-fingerprint runs."""
    calls = {"parse": 0, "fingerprint": 0}
    from_text = Program.from_text
    fingerprints = service_module.predicate_fingerprints

    def counting_from_text(*args, **kwargs):
        calls["parse"] += 1
        return from_text(*args, **kwargs)

    def counting_fingerprints(*args, **kwargs):
        calls["fingerprint"] += 1
        return fingerprints(*args, **kwargs)

    monkeypatch.setattr(Program, "from_text", staticmethod(counting_from_text))
    monkeypatch.setattr(
        service_module, "predicate_fingerprints", counting_fingerprints
    )
    return calls


@pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
def test_warm_hit_runs_no_parse_and_no_fingerprint(bench, front_end_calls):
    service = _service()
    request = {"op": "analyze", "text": bench.source, "entries": [bench.entry]}
    service.handle(dict(request))
    assert front_end_calls == {"parse": 1, "fingerprint": 1}
    warm = service.handle(dict(request))
    assert warm["cache"]["outcome"] == HIT
    assert front_end_calls == {"parse": 1, "fingerprint": 1}


def test_warm_hit_response_is_byte_identical():
    # Answered from the memo or after a fresh parse, a hit is the same
    # bytes: sccs_seeded counts stored summaries without decoding them.
    service = _service()
    request = {"op": "analyze", "text": NREV, "entries": [ENTRY]}
    service.handle(dict(request))

    def hit():
        response = service.handle(dict(request))
        del response["elapsed_ms"]
        return json.dumps(response, sort_keys=True)

    from_memo = hit()
    service._prepared.clear()
    assert hit() == from_memo
    assert json.loads(from_memo) == {
        "ok": True,
        "op": "analyze",
        "status": "exact",
        "result": _scratch(NREV, [ENTRY]),
        "cache": {"outcome": HIT, "sccs_total": 2, "sccs_seeded": 2},
    }


def test_warm_hit_gets_no_scc_summary(monkeypatch):
    service = _service()
    request = {"op": "analyze", "text": NREV, "entries": [ENTRY]}
    service.handle(dict(request))
    keys = []
    get = service.store.get

    def recording_get(key):
        keys.append(key)
        return get(key)

    monkeypatch.setattr(service.store, "get", recording_get)
    assert service.handle(dict(request))["cache"]["outcome"] == HIT
    assert keys and not [key for key in keys if key.startswith("scc:")]


def test_prepared_memo_is_an_lru_of_64(front_end_calls):
    service = _service()

    def ask(i):
        response = service.handle(
            {"op": "analyze", "text": f"p{i}(a).", "entries": [f"p{i}(var)"]}
        )
        assert response["ok"]

    for i in range(64):
        ask(i)
    ask(0)   # the oldest insert, just used
    ask(64)  # the 65th distinct text evicts p1, not p0
    assert service.stats()["programs_prepared"] == PREPARED_MEMO_SIZE == 64
    parses = front_end_calls["parse"]
    ask(0)
    assert front_end_calls["parse"] == parses
    ask(1)
    assert front_end_calls["parse"] == parses + 1


def test_invalidate_empties_the_prepared_memo(front_end_calls):
    service = _service()
    request = {"op": "analyze", "text": NREV, "entries": [ENTRY]}
    service.handle(dict(request))
    assert service.handle({"op": "invalidate"})["invalidated"]
    assert service.stats()["programs_prepared"] == 0
    assert service.handle(dict(request))["cache"]["outcome"] == MISS
    assert front_end_calls["parse"] == 2


def test_library_program_warm_hit_runs_no_parse(front_end_calls):
    service = _service(library=True)
    request = {
        "op": "analyze",
        "text": "main(L) :- append([a], [b], L).\n",
        "entries": ["main(var)"],
    }
    assert service.handle(dict(request))["cache"]["outcome"] == MISS
    parses = front_end_calls["parse"]
    assert service.handle(dict(request))["cache"]["outcome"] == HIT
    assert front_end_calls["parse"] == parses


def test_comment_only_edit_misses_the_memo_but_hits_the_store(
    front_end_calls,
):
    service = _service()
    service.handle({"op": "analyze", "text": NREV, "entries": [ENTRY]})
    response = service.handle(
        {"op": "analyze", "text": "% a comment\n" + NREV, "entries": [ENTRY]}
    )
    assert front_end_calls["parse"] == 2
    assert response["cache"]["outcome"] == HIT
    assert response["result"] == _scratch(NREV, [ENTRY])


def test_lint_checks_the_program_it_analyzed(tmp_path, monkeypatch):
    # The file is rewritten after the analysis: the lint rules must
    # still see the analyzed program, not the new text.
    path = tmp_path / "p.pl"
    path.write_text(NREV)
    analyze_core = AnalysisService._analyze_core

    def analyze_then_rewrite(self, request, need_live):
        answer = analyze_core(self, request, need_live)
        path.write_text(NREV + "nrev(X, Y) :- Z = 1.\n")
        return answer

    monkeypatch.setattr(AnalysisService, "_analyze_core", analyze_then_rewrite)
    response = _service(on_undefined="top").handle(
        {"op": "lint", "file": str(path), "entries": [ENTRY]}
    )
    assert response["ok"]
    assert response["lint"]["diagnostics"] == []


# ----------------------------------------------------------------------
# SCC summaries: what a cold request stores as seeds.


@pytest.mark.parametrize("name, stored", [("nreverse", 3), ("serialise", 9)])
def test_cold_request_stores_only_converged_summaries(name, stored):
    # The cold table also holds calling patterns only an early pass met;
    # they are not stored as seeds, and the served table stays whole.
    bench = next(b for b in BENCHMARKS if b.name == name)
    service = _service()
    response = service.handle(
        {"op": "analyze", "text": bench.source, "entries": [bench.entry]}
    )
    summaries = [
        service.store.get(key)
        for key in list(service.store._data)
        if key.startswith("scc:")
    ]
    assert sum(len(summary["entries"]) for summary in summaries) == stored
    bare = Analyzer(Program.from_text(bench.source)).analyze([bench.entry])
    assert len(bare.table) > stored
    assert response["result"] == bare.stable_dict()


@pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
def test_incremental_answer_after_a_cold_request(bench):
    from repro.bench.emit import _edit

    service = _service()
    service.handle(
        {"op": "analyze", "text": bench.source, "entries": [bench.entry]}
    )
    edited = _edit(bench.source, bench.entry)
    response = service.handle(
        {"op": "analyze", "text": edited, "entries": [bench.entry]}
    )
    assert response["cache"]["outcome"] == INCREMENTAL
    assert response["result"] == _scratch(edited, [bench.entry])


# ----------------------------------------------------------------------
# The request loop and batch mode.


def test_serve_loop_protocol():
    service = _service()
    stdin = io.StringIO("\n".join([
        json.dumps({"op": "analyze", "text": NREV, "entries": [ENTRY], "id": 7}),
        "",  # blank lines are skipped
        "this is not json",
        json.dumps([1, 2, 3]),
        json.dumps({"op": "stats"}),
        json.dumps({"op": "shutdown"}),
        json.dumps({"op": "analyze", "text": NREV, "entries": [ENTRY]}),
    ]) + "\n")
    stdout = io.StringIO()
    assert serve_loop(service, stdin, stdout) == 0
    responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
    assert len(responses) == 5  # nothing after shutdown
    assert responses[0]["id"] == 7 and responses[0]["ok"]
    assert responses[1]["ok"] is False  # bad JSON
    assert responses[2]["ok"] is False  # non-object
    assert responses[3]["stats"]["requests_served"] >= 1
    assert responses[4]["shutdown"] is True


def test_serve_loop_oversized_line_is_answered_and_survived():
    service = _service()
    good = json.dumps({"op": "analyze", "text": NREV, "entries": [ENTRY]})
    stdin = io.StringIO(
        '{"op": "analyze", "text": "' + "x" * 4096 + '"}\n'
        + good + "\n"
        + json.dumps({"op": "shutdown"}) + "\n"
    )
    stdout = io.StringIO()
    assert serve_loop(service, stdin, stdout, max_line_bytes=1024) == 0
    responses = [json.loads(line) for line in stdout.getvalue().splitlines()]
    assert len(responses) == 3
    assert responses[0]["ok"] is False
    assert "exceeds" in responses[0]["error"]
    assert responses[1]["ok"] is True  # the loop kept serving
    assert responses[1]["result"] == _scratch(NREV, [ENTRY])
    assert responses[2]["shutdown"] is True


def test_serve_loop_oversized_line_never_buffered_whole():
    """The oversized line is drained in bounded chunks, not held."""
    class CountingIO(io.StringIO):
        def __init__(self, text, cap):
            super().__init__(text)
            self.cap = cap

        def readline(self, size=-1):
            assert 0 < size <= self.cap + 1
            return super().readline(size)

    cap = 64
    stdin = CountingIO('{"pad": "' + "y" * 1000 + '"}\n', cap)
    stdout = io.StringIO()
    assert serve_loop(_service(), stdin, stdout, max_line_bytes=cap) == 0
    [response] = [json.loads(l) for l in stdout.getvalue().splitlines()]
    assert response["ok"] is False


def test_serve_loop_eof_mid_line_exits_cleanly():
    service = _service()
    # The stream ends without a trailing newline, mid-request.
    stdin = io.StringIO('{"op": "stats"')
    stdout = io.StringIO()
    assert serve_loop(service, stdin, stdout) == 0
    [response] = [json.loads(l) for l in stdout.getvalue().splitlines()]
    assert response["ok"] is False  # answered, not crashed


def test_run_batch_second_pass_hits(tmp_path):
    path = tmp_path / "nrev.pl"
    path.write_text(NREV)
    service = _service()
    summary = run_batch(service, [str(path)], [ENTRY], passes=2)
    assert summary["passes"][0][MISS] == 1
    assert summary["passes"][1][HIT] == 1
    assert summary["passes"][1]["error"] == 0


def test_serve_loop_counts_oversized_and_malformed_in_metrics():
    service = _service()
    stdin = io.StringIO(
        '{"op": "analyze", "text": "' + "x" * 4096 + '"}\n'
        + "this is not json\n"
        + json.dumps([1, 2, 3]) + "\n"
        + json.dumps({"op": "shutdown"}) + "\n"
    )
    stdout = io.StringIO()
    assert serve_loop(service, stdin, stdout, max_line_bytes=1024) == 0
    snapshot = service.metrics.snapshot()
    assert snapshot["serve.input.oversized"]["value"] == 1
    assert snapshot["serve.input.malformed"]["value"] == 2
