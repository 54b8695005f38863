"""The fixpoint driver: compile once, iterate the abstract WAM to a fixpoint.

The extension-table scheme needs iterative deepening (paper Section 2.2):
one pass explores every calling pattern once, recording lubbed success
patterns; recursive calls see the previous iteration's summaries.  The
driver re-runs the entry goals until a whole pass leaves the table
unchanged — the least fixpoint of the dataflow analysis.

Entry calling patterns are written in a small Prolog-ish spec language::

    analyze(text, "nrev(glist, var)")
    analyze(text, "main")                    # arity 0
    analyze(text, "p(any, f(g, X), X)")      # shared variable = aliasing

Argument spec atoms: ``any``, ``nv``, ``g``/``ground``, ``const``,
``atom``, ``int``/``integer``, ``var``, ``[]``; ``<sort>list`` shorthands
(``glist``, ``intlist``, ``anylist``, ...) and ``list(Spec)`` build α-list
types; compound specs build structure skeletons; repeated variables express
must-aliasing.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from ..domain.concrete import DEFAULT_DEPTH
from ..domain.lattice import Tree
from ..domain.sorts import AbsSort
from ..errors import AnalysisError, BudgetExceeded, InjectedFault, ReproError
from ..prolog.parser import parse_term
from ..robust import (
    STATUS_DEGRADED,
    STATUS_EXACT,
    STATUS_FAILED,
    Budget,
)
from ..prolog.program import Program
from ..prolog.terms import (
    NIL,
    Atom,
    Indicator,
    Int,
    Struct,
    Term,
    Var,
    indicator_of,
)
from ..wam.compile import CompiledProgram, CompilerOptions, compile_program
from .machine import AbstractMachine
from .patterns import Node, Pattern, canonicalize
from .results import AnalysisResult
from .table import ExtensionTable


@dataclass(frozen=True)
class EntrySpec:
    """A top-level calling pattern to start the analysis from."""

    indicator: Indicator
    pattern: Pattern

    def __str__(self) -> str:
        return f"{self.indicator[0]}{self.pattern}"


_SORT_ATOMS: Dict[str, AbsSort] = {
    "any": AbsSort.ANY,
    "nv": AbsSort.NV,
    "g": AbsSort.GROUND,
    "ground": AbsSort.GROUND,
    "const": AbsSort.CONST,
    "atom": AbsSort.ATOM,
    "int": AbsSort.INTEGER,
    "integer": AbsSort.INTEGER,
    "var": AbsSort.VAR,
}

_LIST_SHORTHANDS: Dict[str, AbsSort] = {
    f"{name}list": sort for name, sort in _SORT_ATOMS.items()
}


def _spec_tree(term: Term) -> Tree:
    """Convert a spec term to a type tree (for inner positions)."""
    node = _spec_node(term, itertools.count(), {})
    from .patterns import node_to_tree

    return node_to_tree(node)


def _spec_node(term: Term, counter, var_ids: Dict[int, int]) -> Node:
    if isinstance(term, Var):
        ident = var_ids.get(id(term))
        if ident is None:
            ident = next(counter)
            var_ids[id(term)] = ident
        return ("i", AbsSort.VAR, ident)
    if term == NIL:
        from ..domain.lattice import EMPTY_T

        return ("li", EMPTY_T, next(counter))
    if isinstance(term, Atom):
        sort = _SORT_ATOMS.get(term.name)
        if sort is not None:
            return ("i", sort, next(counter))
        list_sort = _LIST_SHORTHANDS.get(term.name)
        if list_sort is not None:
            return ("li", ("s", list_sort), next(counter))
        raise AnalysisError(
            f"unknown abstract spec atom {term.name!r} "
            f"(use any/nv/g/const/atom/int/var or <sort>list)"
        )
    if isinstance(term, Int):
        return ("i", AbsSort.INTEGER, next(counter))
    assert isinstance(term, Struct)
    if term.name == "list" and term.arity == 1:
        return ("li", _spec_tree(term.args[0]), next(counter))
    children = tuple(_spec_node(a, counter, var_ids) for a in term.args)
    return ("f", term.name, term.arity, children)


def parse_entry_spec(spec: Union[str, Term, EntrySpec]) -> EntrySpec:
    """Parse an entry spec like ``"nrev(glist, var)"``."""
    if isinstance(spec, EntrySpec):
        return spec
    term = parse_term(spec) if isinstance(spec, str) else spec
    if not term.is_callable():
        raise AnalysisError(f"entry spec is not callable: {term}")
    indicator = indicator_of(term)
    counter = itertools.count()
    var_ids: Dict[int, int] = {}
    if isinstance(term, Struct):
        nodes = tuple(_spec_node(a, counter, var_ids) for a in term.args)
    else:
        nodes = ()
    return EntrySpec(indicator, canonicalize(Pattern(nodes)))


#: Cap on table entries embedded per ``table_state`` event — a runaway
#: table must not turn the trace file into the bottleneck.
STATE_DUMP_MAX_ENTRIES = 200


class _StateDumper:
    """Emits capped ``table_state`` events for the time-travel viewer.

    One event per fixpoint pass (``--trace-states N`` bounds the total),
    each carrying a :meth:`ExtensionTable.state_dump` snapshot with the
    *frontier* marked — the entries whose ``updates`` count moved since
    the previous dump, i.e. what this pass actually touched.  Only ever
    constructed when a tracer is present and ``trace_states > 0``.
    """

    __slots__ = ("remaining", "_last")

    def __init__(self, budget: int):
        self.remaining = budget
        self._last: Dict[str, int] = {}

    def dump(self, tracer, table: ExtensionTable, **attrs) -> None:
        if self.remaining <= 0:
            return
        self.remaining -= 1
        state = table.state_dump(max_entries=STATE_DUMP_MAX_ENTRIES)
        seen: Dict[str, int] = {}
        for entry in state["entries"]:
            key = entry["key"]
            seen[key] = entry["updates"]
            entry["frontier"] = entry["updates"] != self._last.get(key, -1)
        self._last = seen
        tracer.event("table_state", state=state, **attrs)


@dataclass
class EntryReport:
    """How the analysis of one entry spec went.

    ``status`` is ``"exact"`` when the spec reached its fixpoint,
    ``"degraded"`` when a budget trip or injected fault interrupted it
    (its table entries were soundly widened to ⊤), and ``"failed"`` when
    an analysis error did (likewise widened).  ``reason`` carries the
    triggering exception's message for degraded/failed specs.
    """

    spec: EntrySpec
    status: str = STATUS_EXACT
    iterations: int = 0
    reason: Optional[str] = None
    #: Serve bookkeeping, not part of :meth:`to_dict`: entries planted
    #: from a resumed checkpoint, passes of the seeded verification
    #: sweep (included in ``iterations``) and seeds it dropped as
    #: unreached.
    resume_planted: int = 0
    verification_passes: int = 0
    seeds_dropped: int = 0
    #: The (indicator, calling) keys the converged pass reached (exact
    #: specs only): what the result store keeps as summaries.
    touched: Optional[set] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "entry": str(self.spec),
            "status": self.status,
            "iterations": self.iterations,
            "reason": self.reason,
        }


class Analyzer:
    """Compile a program once, then run analyses against it.

    Resource governance (see :mod:`repro.robust`): pass a ``budget``
    and/or ``fault_plan`` to bound the run.  ``on_budget`` selects what
    happens when a budget trips (or a fault fires) while analyzing one
    entry spec:

    * ``"raise"`` (default) — propagate the exception, as the ungoverned
      analyzer always did;
    * ``"degrade"`` — widen that spec's table entries to ⊤ (sound but
      imprecise), record the spec as ``degraded``/``failed`` in the
      result's ``entry_reports``, and keep analyzing the remaining
      entry specs.

    Entry specs are analyzed in *isolation* — each gets its own
    extension table and abstract machine, and the per-spec tables are
    merged by lub at the end.  This is what makes degradation local:
    a fault while exploring one entry cannot corrupt another entry's
    summaries.  For exact runs the merged table equals the old shared
    -table fixpoint, because each calling pattern's summaries depend
    only on the program and the pattern itself.
    """

    def __init__(
        self,
        program: Union[Program, str, CompiledProgram],
        options: Optional[CompilerOptions] = None,
        depth: int = DEFAULT_DEPTH,
        max_iterations: int = 100,
        list_aware: bool = True,
        subsumption: bool = False,
        on_undefined: str = "error",
        budget: Optional[Budget] = None,
        fault_plan=None,
        on_budget: str = "raise",
        metrics=None,
        tracer=None,
        trace_states: int = 0,
    ):
        if on_budget not in ("raise", "degrade"):
            raise ValueError(
                f"on_budget must be 'raise' or 'degrade', not {on_budget!r}"
            )
        if isinstance(program, str):
            program = Program.from_text(program)
        if isinstance(program, CompiledProgram):
            self.compiled = program
        else:
            self.compiled = compile_program(program, options)
        self.depth = depth
        self.max_iterations = max_iterations
        self.list_aware = list_aware
        self.subsumption = subsumption
        self.on_undefined = on_undefined
        self.budget = budget
        self.fault_plan = fault_plan
        self.on_budget = on_budget
        #: repro.obs: an optional MetricsRegistry threaded into every
        #: table and machine this analyzer creates, and an optional
        #: span tracer for the structural layers (entry spec → pass).
        #: Both default to None, which keeps every instrumented site a
        #: single identity check.
        self.metrics = metrics
        self.tracer = tracer
        #: With a tracer set and ``trace_states > 0``, emit up to that
        #: many per-pass ``table_state`` events (the time-travel data of
        #: docs/tracing.md).  0 — the default — adds nothing to the hot
        #: path beyond the existing tracer None checks.
        self.trace_states = trace_states
        self._state_dumper: Optional[_StateDumper] = None

    # ------------------------------------------------------------------

    def _dump_state(self, table: ExtensionTable, **attrs) -> None:
        if self._state_dumper is not None and self.tracer is not None:
            self._state_dumper.dump(self.tracer, table, **attrs)

    def pattern_fixpoint(
        self,
        machine: AbstractMachine,
        indicator: Indicator,
        pattern: Pattern,
        budget: Optional[Budget] = None,
        fault_plan=None,
        on_pass=None,
        trace_touches: bool = False,
    ) -> int:
        """The Kleene loop: re-run one calling pattern until a whole pass
        leaves the machine's table unchanged.

        Returns the number of passes run; charges ``budget`` one
        iteration per pass.  ``on_pass`` (if given) is called with no
        arguments after every completed pass — the checkpoint trigger
        hook.  With ``trace_touches`` every pass starts a fresh
        reachability trace, so on return ``machine.table.touched`` holds
        exactly the keys the converged pass reached.
        """
        table = machine.table
        label = str(EntrySpec(indicator, pattern))
        iterations = 0
        while True:
            if fault_plan is not None and fault_plan.watches("iteration"):
                fault_plan.fire("iteration")
            if budget is not None:
                budget.charge_iteration()
            iterations += 1
            if self.metrics is not None:
                self.metrics.counter("analysis.iterations").inc()
            if self.tracer is not None:
                self.tracer.event(
                    "fixpoint_iteration", pattern=label, pass_number=iterations
                )
            if trace_touches:
                table.begin_touch_trace()
            before = table.changes
            machine.run_pattern(indicator, pattern)
            if self.tracer is not None:
                self._dump_state(table, pattern=label, pass_number=iterations)
            if on_pass is not None:
                on_pass()
            if table.changes == before:
                return iterations

    def analyze(
        self,
        entries: Sequence[Union[str, Term, EntrySpec]],
        checkpoint=None,
        resume: Optional[dict] = None,
    ) -> AnalysisResult:
        """Run the fixpoint analysis from the given entry patterns, under
        this analyzer's budget, fault plan and ``on_budget`` policy.

        ``checkpoint`` and ``resume`` are as for :meth:`run`.
        """
        specs = [parse_entry_spec(entry) for entry in entries]
        if not specs:
            raise AnalysisError("at least one entry spec is required")
        budget = self.budget
        if budget is None:
            # Preserve the historical max_iterations contract through the
            # same governance path as an explicit budget.
            budget = Budget(max_iterations=self.max_iterations)
        return self.run(
            specs, budget=budget, fault_plan=self.fault_plan,
            on_budget=self.on_budget, checkpoint=checkpoint, resume=resume,
        )

    def run(
        self,
        specs: Sequence[EntrySpec],
        budget: Budget,
        seeds: Sequence[tuple] = (),
        fault_plan=None,
        on_budget: str = "raise",
        checkpoint=None,
        resume: Optional[dict] = None,
    ) -> AnalysisResult:
        """Analyze each entry spec in its own table, then merge by lub.

        Per spec: plant the ``resume`` snapshot unfrozen, plant the
        ``seeds`` — known-final ``(indicator, calling, success,
        may_share)`` summaries — frozen, and iterate the entry with
        :meth:`pattern_fixpoint`.  Without seeds that is the whole run.
        With seeds, a verification sweep follows: thaw the table,
        re-run the entry until nothing changes, and restrict the table
        to the keys the last pass reached.  A wrong seed is therefore
        re-explored and corrected: it can cost passes, never answers.
        Each exact spec's :attr:`EntryReport.touched` holds the keys its
        last pass reached; an unseeded spec reads them off the entries
        that pass explored, untraced, and keeps its table whole.

        ``checkpoint`` is an optional
        :class:`~repro.robust.checkpoint.CheckpointPolicy`: it is
        notified after every pass and flushed with the pre-widening
        table when a spec degrades, so the partial work survives the
        ⊤-widening that follows.  ``resume`` is a checkpoint snapshot
        already validated with :func:`repro.robust.checkpoint.load`.
        Intermediate iterates are ⊑ the least fixpoint, so a resumed run
        converges to exactly the result a from-scratch run produces, in
        fewer passes.
        """
        budget.start()
        table = ExtensionTable()  # the merged, ungoverned result table
        reports: List[EntryReport] = []
        instructions = 0
        started = time.perf_counter()
        metrics = self.metrics
        tracer = self.tracer
        self._state_dumper = (
            _StateDumper(self.trace_states)
            if tracer is not None and self.trace_states > 0
            else None
        )
        for spec in specs:
            spec_table = ExtensionTable(
                budget=budget, fault_plan=fault_plan, metrics=metrics
            )
            report = EntryReport(spec)
            if resume is not None:
                from ..robust.checkpoint import plant

                report.resume_planted = plant(
                    resume, spec_table, metrics=metrics
                )
            for indicator, calling, success, share in seeds:
                spec_table.seed(indicator, calling, success, share)
            touched = spec_table.begin_touch_trace() if seeds else None
            machine = AbstractMachine(
                self.compiled, spec_table, depth=self.depth,
                list_aware=self.list_aware, subsumption=self.subsumption,
                on_undefined=self.on_undefined,
                budget=budget, fault_plan=fault_plan,
                metrics=metrics,
            )
            on_pass = None if checkpoint is None else (
                lambda: checkpoint.note_pass((table, spec_table))
            )
            spec_started = time.perf_counter()
            if tracer is not None:
                tracer.begin("entry_spec", spec=str(spec), seeds=len(seeds))
            try:
                self.pattern_fixpoint(
                    machine, spec.indicator, spec.pattern,
                    budget, fault_plan, on_pass,
                )
                if seeds:
                    if tracer is not None:
                        tracer.event("verification_sweep")
                    spec_table.thaw()
                    report.verification_passes = self.pattern_fixpoint(
                        machine, spec.indicator, spec.pattern,
                        budget, fault_plan, on_pass, trace_touches=True,
                    )
                    report.seeds_dropped = spec_table.restrict_to(
                        spec_table.touched
                    )
                    report.touched = spec_table.touched
                else:
                    # Unfrozen, a table's entries reached in a pass are
                    # exactly those explored in it.
                    report.touched = {
                        (indicator, entry.calling)
                        for indicator, entry in spec_table.all_entries()
                        if entry.explored_iteration == machine.iteration
                    }
            except (BudgetExceeded, InjectedFault) as exc:
                if on_budget == "raise":
                    if tracer is not None:
                        tracer.end(error=repr(exc))
                    raise
                # Persist the pre-widening iterate first: after the
                # widening below, this spec's partial work would be
                # unrecoverable (⊤ entries are never checkpointed).
                if checkpoint is not None:
                    checkpoint.flush((table, spec_table))
                report.status = STATUS_DEGRADED
                report.reason = str(exc)
            except ReproError as exc:
                if on_budget == "raise":
                    if tracer is not None:
                        tracer.end(error=repr(exc))
                    raise
                report.status = STATUS_FAILED
                report.reason = str(exc)
            spec_table.end_touch_trace()
            report.iterations = machine.iteration
            if tracer is not None:
                tracer.end(status=report.status)
            if metrics is not None:
                metrics.histogram("analysis.entry.seconds").observe(
                    time.perf_counter() - spec_started
                )
                metrics.counter(
                    "analysis.specs", status=report.status
                ).inc()
            if report.status != STATUS_EXACT:
                # Sound degradation: whatever partial summaries the
                # interrupted exploration left may under-approximate, so
                # widen everything this spec touched to ⊤ — including
                # the entry's own pattern, materialized if need be —
                # after dropping seeds it never consulted.
                spec_table.disarm()
                if touched is not None:
                    spec_table.restrict_to(touched)
                spec_table.entry(spec.indicator, spec.pattern)
                spec_table.widen_to_top(report.status)
            table.merge(spec_table)
            instructions += machine.instruction_count
            reports.append(report)
        return AnalysisResult(
            table=table,
            compiled=self.compiled,
            entries=list(specs),
            iterations=sum(report.iterations for report in reports),
            instructions_executed=instructions,
            seconds=time.perf_counter() - started,
            depth=self.depth,
            entry_reports=reports,
        )


def analyze(
    program: Union[Program, str, CompiledProgram],
    *entries: Union[str, Term, EntrySpec],
    options: Optional[CompilerOptions] = None,
    depth: int = DEFAULT_DEPTH,
    list_aware: bool = True,
    subsumption: bool = False,
    on_undefined: str = "error",
    budget: Optional[Budget] = None,
    fault_plan=None,
    on_budget: str = "raise",
) -> AnalysisResult:
    """One-call API: compile ``program`` and analyze from ``entries``."""
    analyzer = Analyzer(
        program, options=options, depth=depth, list_aware=list_aware,
        subsumption=subsumption, on_undefined=on_undefined,
        budget=budget, fault_plan=fault_plan, on_budget=on_budget,
    )
    return analyzer.analyze(list(entries))
