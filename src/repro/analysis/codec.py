"""JSON round-trip of trees, nodes, patterns and table entries.

One canonical, ``PYTHONHASHSEED``-independent serialization shared by
every layer that persists analysis facts: the result store
(:mod:`repro.serve.store`), the checkpoint snapshots
(:mod:`repro.robust.checkpoint`) and the wire protocol.  Living under
``repro.analysis`` keeps it import-cycle-free — the robustness layer
may depend on it without pulling in the serve package.

Nothing here is process-specific: patterns round-trip through plain
JSON lists (no pickling), sort names travel as their enum names, and
:func:`table_to_json` sorts its output so two runs that reached the
same fixpoint serialize byte-identically.
"""

from __future__ import annotations

import json
from typing import FrozenSet, List, Optional, Tuple

from ..domain.sorts import AbsSort
from ..errors import AnalysisError
from ..prolog.terms import Indicator, format_indicator
from .patterns import Pattern, canonicalize
from .table import ExtensionTable, TableEntry


def tree_to_json(tree) -> list:
    kind = tree[0]
    if kind == "s":
        return ["s", AbsSort(tree[1]).name]
    if kind == "l":
        return ["l", tree_to_json(tree[1])]
    assert kind == "f"
    return ["f", tree[1], tree[2], [tree_to_json(arg) for arg in tree[3]]]


def tree_from_json(data) -> tuple:
    kind = data[0]
    if kind == "s":
        return ("s", AbsSort[data[1]])
    if kind == "l":
        return ("l", tree_from_json(data[1]))
    if kind != "f":
        raise AnalysisError(f"corrupt stored tree node kind {kind!r}")
    return ("f", data[1], data[2], tuple(tree_from_json(arg) for arg in data[3]))


def node_to_json(node) -> list:
    kind = node[0]
    if kind == "i":
        return ["i", AbsSort(node[1]).name, node[2]]
    if kind == "li":
        return ["li", tree_to_json(node[1]), node[2]]
    assert kind == "f"
    return ["f", node[1], node[2], [node_to_json(child) for child in node[3]]]


def node_from_json(data) -> tuple:
    kind = data[0]
    if kind == "i":
        return ("i", AbsSort[data[1]], data[2])
    if kind == "li":
        return ("li", tree_from_json(data[1]), data[2])
    if kind != "f":
        raise AnalysisError(f"corrupt stored pattern node kind {kind!r}")
    return ("f", data[1], data[2], tuple(node_from_json(child) for child in data[3]))


def pattern_to_json(pattern: Pattern) -> list:
    return [node_to_json(node) for node in pattern.args]


def pattern_from_json(data) -> Pattern:
    return canonicalize(Pattern(tuple(node_from_json(node) for node in data)))


def entry_to_json(indicator: Indicator, entry: TableEntry) -> dict:
    return {
        "predicate": format_indicator(indicator),
        "calling": pattern_to_json(entry.calling),
        "success": (
            pattern_to_json(entry.success)
            if entry.success is not None
            else None
        ),
        "may_share": sorted(list(pair) for pair in entry.may_share),
        "status": entry.status,
    }


def entry_from_json(data) -> Tuple[Indicator, Pattern, Optional[Pattern], FrozenSet]:
    name, _, arity = data["predicate"].rpartition("/")
    indicator = (name, int(arity))
    calling = pattern_from_json(data["calling"])
    success = (
        pattern_from_json(data["success"])
        if data["success"] is not None
        else None
    )
    may_share = frozenset(tuple(pair) for pair in data["may_share"])
    return indicator, calling, success, may_share


def table_to_json(
    table: ExtensionTable, indicators=None, keys=None
) -> List[dict]:
    """Serialize a table (or the entries of ``indicators`` only, and of
    those only the ``(indicator, calling)`` pairs in ``keys``), sorted
    for deterministic output."""
    wanted = set(indicators) if indicators is not None else None
    entries = [
        entry_to_json(indicator, entry)
        for indicator, entry in table.all_entries()
        if (wanted is None or indicator in wanted)
        and (keys is None or (indicator, entry.calling) in keys)
    ]
    entries.sort(key=lambda item: (item["predicate"], json.dumps(item["calling"])))
    return entries


__all__ = [
    "entry_from_json",
    "entry_to_json",
    "node_from_json",
    "node_to_json",
    "pattern_from_json",
    "pattern_to_json",
    "table_to_json",
    "tree_from_json",
    "tree_to_json",
]
