"""The predicate call graph of a compiled program, condensed into SCCs.

The graph is read off the *compiled WAM code*, not the source: a
predicate's callees are exactly the targets of its ``call``/``execute``
instructions.  That automatically accounts for the control-construct
normalization (``;``/``->``/``\\+`` become auxiliary ``$or_n``/``$not_n``
predicates with real calls) and ignores builtins, which compile to
``builtin`` instructions and have fixed semantics.

The condensation (Tarjan, iterative) yields the strongly connected
components in **bottom-up order**: every component appears after the
components it calls.  The Merkle fingerprints below are computed in
that order, so every callee's fingerprint exists before its callers'.
The service stores and seeds analysis summaries per component; the
fixpoint itself is the driver's, run over the whole entry.

Each SCC carries a *Merkle fingerprint*: a digest of its member
predicates' content fingerprints plus the fingerprints of the SCCs it
calls.  A one-clause edit therefore changes exactly the fingerprints of
its own SCC and the SCCs that transitively call it — the invalidation
rule of the result store falls out of the hashing scheme.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..prolog.terms import Indicator, format_indicator
from ..wam.compile import CompiledProgram
from .fingerprint import _hash

#: Instructions whose first operand is a callee indicator.
_CALL_OPS = ("call", "execute")


def call_edges(compiled: CompiledProgram) -> Dict[Indicator, List[Indicator]]:
    """Caller → ordered callees, one entry per predicate with code.

    Synthetic ``$query_<n>`` predicates (compiled on demand for concrete
    queries) are excluded; they are not part of the program.
    """
    code = compiled.code
    entries = sorted(
        (address, indicator)
        for indicator, address in code.entry.items()
        if not indicator[0].startswith("$query")
    )
    boundaries = [address for address, _ in entries] + [len(code.instructions)]
    edges: Dict[Indicator, List[Indicator]] = {}
    for position, (start, indicator) in enumerate(entries):
        end = boundaries[position + 1]
        callees: List[Indicator] = []
        seen: Set[Indicator] = set()
        for instruction in code.instructions[start:end]:
            if instruction.op in _CALL_OPS:
                target = instruction.args[0]
                if target not in seen:
                    seen.add(target)
                    callees.append(target)
        edges[indicator] = callees
    return edges


class CallGraph:
    """Predicates, their call edges, and the SCC condensation."""

    def __init__(self, edges: Dict[Indicator, List[Indicator]]):
        self.edges = edges
        #: SCCs in bottom-up (reverse topological) order: callees first.
        self.sccs: List[Tuple[Indicator, ...]] = []
        #: indicator → index into ``sccs``.
        self.scc_of: Dict[Indicator, int] = {}
        self._condense()
        #: SCC index → indices of the SCCs it calls (no self edges).
        self.scc_calls: Dict[int, FrozenSet[int]] = self._scc_edges()

    @staticmethod
    def from_compiled(compiled: CompiledProgram) -> "CallGraph":
        return CallGraph(call_edges(compiled))

    # ------------------------------------------------------------------

    def _condense(self) -> None:
        """Iterative Tarjan; emission order is callees-before-callers."""
        index: Dict[Indicator, int] = {}
        low: Dict[Indicator, int] = {}
        on_stack: Set[Indicator] = set()
        stack: List[Indicator] = []
        counter = 0
        # Callees referenced but never defined (undefined predicates under
        # the top/fail policies) are nodes too — leaves with no edges.
        nodes = list(self.edges)
        for callees in self.edges.values():
            for callee in callees:
                if callee not in self.edges:
                    nodes.append(callee)
        seen_nodes: Set[Indicator] = set()
        ordered_nodes: List[Indicator] = []
        for node in nodes:
            if node not in seen_nodes:
                seen_nodes.add(node)
                ordered_nodes.append(node)
        for root in ordered_nodes:
            if root in index:
                continue
            # Explicit DFS stack: (node, iterator position).
            work: List[Tuple[Indicator, int]] = [(root, 0)]
            while work:
                node, position = work.pop()
                if position == 0:
                    index[node] = low[node] = counter
                    counter += 1
                    stack.append(node)
                    on_stack.add(node)
                callees = self.edges.get(node, [])
                advanced = False
                while position < len(callees):
                    callee = callees[position]
                    position += 1
                    if callee not in index:
                        work.append((node, position))
                        work.append((callee, 0))
                        advanced = True
                        break
                    if callee in on_stack:
                        low[node] = min(low[node], index[callee])
                if advanced:
                    continue
                if low[node] == index[node]:
                    component: List[Indicator] = []
                    while True:
                        member = stack.pop()
                        on_stack.remove(member)
                        component.append(member)
                        if member == node:
                            break
                    scc_index = len(self.sccs)
                    self.sccs.append(tuple(sorted(component)))
                    for member in component:
                        self.scc_of[member] = scc_index
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])

    def _scc_edges(self) -> Dict[int, FrozenSet[int]]:
        result: Dict[int, Set[int]] = {i: set() for i in range(len(self.sccs))}
        for caller, callees in self.edges.items():
            source = self.scc_of[caller]
            for callee in callees:
                target = self.scc_of[callee]
                if target != source:
                    result[source].add(target)
        return {i: frozenset(targets) for i, targets in result.items()}

    # ------------------------------------------------------------------

    def members(self, scc_index: int) -> Tuple[Indicator, ...]:
        return self.sccs[scc_index]

    def reachable_sccs(self, roots: Sequence[Indicator]) -> List[int]:
        """SCC indices statically reachable from ``roots``, bottom-up order.

        Roots with no code at all (undefined entry predicates) are
        ignored; the analyzer reports those itself.
        """
        pending = [self.scc_of[root] for root in roots if root in self.scc_of]
        reached: Set[int] = set()
        while pending:
            current = pending.pop()
            if current in reached:
                continue
            reached.add(current)
            pending.extend(self.scc_calls[current])
        return [i for i in range(len(self.sccs)) if i in reached]

    def callers_closure(self, dirty: Set[int]) -> Set[int]:
        """``dirty`` plus every SCC that transitively calls into it."""
        reverse: Dict[int, Set[int]] = {i: set() for i in range(len(self.sccs))}
        for source, targets in self.scc_calls.items():
            for target in targets:
                reverse[target].add(source)
        result: Set[int] = set()
        pending = list(dirty)
        while pending:
            current = pending.pop()
            if current in result:
                continue
            result.add(current)
            pending.extend(reverse[current])
        return result

    # ------------------------------------------------------------------

    def merkle_fingerprints(
        self, predicate_fps: Dict[Indicator, str]
    ) -> List[str]:
        """One fingerprint per SCC covering the component *and everything
        below it*: members' content digests plus callee SCC fingerprints.

        Because ``sccs`` is bottom-up, one forward sweep suffices.
        Predicates absent from ``predicate_fps`` (undefined callees) hash
        as :data:`~repro.serve.fingerprint.UNDEFINED_PREDICATE`.
        """
        from .fingerprint import UNDEFINED_PREDICATE

        fingerprints: List[str] = []
        for scc_index, component in enumerate(self.sccs):
            parts = ["scc"]
            for member in component:
                parts.append(format_indicator(member))
                parts.append(
                    predicate_fps.get(member, UNDEFINED_PREDICATE)
                )
            for callee in sorted(self.scc_calls[scc_index]):
                parts.append(fingerprints[callee])
            fingerprints.append(_hash(parts))
        return fingerprints

    def to_dict(self) -> dict:
        """A JSON view (for diagnostics and tests)."""
        return {
            "sccs": [
                [format_indicator(member) for member in component]
                for component in self.sccs
            ],
            "calls": {
                str(i): sorted(self.scc_calls[i])
                for i in range(len(self.sccs))
            },
        }


__all__ = ["CallGraph", "call_edges"]
