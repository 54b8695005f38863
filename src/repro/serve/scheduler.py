"""Served fixpoint runs: the driver's Kleene iteration, seeded from the store.

Every served request runs the same engine as a bare analysis,
:meth:`repro.analysis.driver.Analyzer.run`, once per entry spec:

1. **Resume** — a validated checkpoint snapshot is planted unfrozen: a
   Kleene restart from the recorded intermediate iterate.

2. **Seed** — summaries cached for *clean* SCCs (Merkle fingerprint
   unchanged, see :mod:`repro.serve.callgraph`) are planted as frozen
   table entries.  The abstract machine returns frozen summaries without
   re-running any clause.

3. **Iterate** — the entry pattern is re-run until a pass leaves the
   table unchanged (:meth:`~repro.analysis.driver.Analyzer.pattern_fixpoint`).

4. **Verify & restrict** (only when seeds were planted) — the table is
   thawed and the entry re-run until unchanged; the table is then
   restricted to the keys the last pass touched, dropping stale seeds
   the edited program no longer reaches.  This sweep makes the served
   result independent of cache state: even a wrong seed is re-explored
   and corrected, so cache validity is a performance matter, never a
   soundness one.

With no seeds this is exactly :meth:`Analyzer.analyze`, so a cold served
request does the bare analyzer's work.  This module only adds the serve
bookkeeping around it: :class:`ScheduleStats` and the
``serve.scheduler.*`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..analysis.driver import Analyzer, EntrySpec
from ..analysis.patterns import Pattern
from ..analysis.results import AnalysisResult
from ..prolog.terms import Indicator
from ..robust import Budget
from .callgraph import CallGraph

#: A seedable summary: (indicator, calling, success, may_share).
Seed = Tuple[Indicator, Pattern, Optional[Pattern], frozenset]


@dataclass
class ScheduleStats:
    """What one served run did (observability).

    ``discovery_passes`` is always 0 — the served engine has no
    discovery phase — and stays so readers of the pass keys keep
    working; ``stabilization_passes`` counts the Kleene passes and
    ``verification_passes`` the seeded sweep's."""

    sccs_total: int = 0
    seeds_planted: int = 0
    seeds_dropped: int = 0
    discovery_passes: int = 0
    stabilization_passes: int = 0
    verification_passes: int = 0
    #: Entries planted from a resumed checkpoint (0 = fresh run).
    resume_planted: int = 0

    def to_dict(self) -> dict:
        return {
            "sccs_total": self.sccs_total,
            "seeds_planted": self.seeds_planted,
            "seeds_dropped": self.seeds_dropped,
            "discovery_passes": self.discovery_passes,
            "stabilization_passes": self.stabilization_passes,
            "verification_passes": self.verification_passes,
            "resume_planted": self.resume_planted,
        }


class SCCScheduler:
    """Runs served analyses over one compiled program."""

    def __init__(self, analyzer: Analyzer, graph: Optional[CallGraph] = None):
        self.analyzer = analyzer
        self.graph = graph if graph is not None else CallGraph.from_compiled(
            analyzer.compiled
        )

    def analyze(
        self,
        specs: Sequence[EntrySpec],
        seeds: Sequence[Seed] = (),
        budget: Optional[Budget] = None,
        fault_plan=None,
        on_budget: str = "degrade",
        checkpoint=None,
        resume: Optional[dict] = None,
    ) -> Tuple[AnalysisResult, ScheduleStats]:
        """Analyze ``specs``, reusing ``seeds`` where the program reaches
        them.  Returns the result plus scheduling statistics.

        ``checkpoint`` and ``resume`` are as for
        :meth:`~repro.analysis.driver.Analyzer.run`."""
        if budget is None:
            budget = Budget(max_iterations=self.analyzer.max_iterations)
        result = self.analyzer.run(
            specs,
            budget=budget,
            seeds=seeds,
            fault_plan=fault_plan,
            on_budget=on_budget,
            checkpoint=checkpoint,
            resume=resume,
        )
        reports = result.entry_reports
        verification = sum(r.verification_passes for r in reports)
        stats = ScheduleStats(
            sccs_total=len(self.graph.sccs),
            seeds_planted=len(seeds) * len(specs),
            seeds_dropped=sum(r.seeds_dropped for r in reports),
            stabilization_passes=result.iterations - verification,
            verification_passes=verification,
            resume_planted=sum(r.resume_planted for r in reports),
        )
        metrics = self.analyzer.metrics
        if metrics is not None:
            for name, value in stats.to_dict().items():
                if value:
                    metrics.counter(f"serve.scheduler.{name}").inc(value)
        return result, stats


__all__ = ["SCCScheduler", "ScheduleStats", "Seed"]
