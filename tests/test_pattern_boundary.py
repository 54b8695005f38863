"""Exact answers at the pattern boundary, pinned.

The abstract machine turns heap cells into calling and success patterns
at every ``call`` and ``proceed``.  That conversion is the hottest code
of the analysis, so it is the code most likely to be rewritten for
speed.  A rewrite must not change a single answer: these pins hold, for
each of the 11 Table 1 programs and three analyzer settings,

* a digest of ``stable_dict()`` (the dataflow facts),
* a digest of the sorted extension table (every calling pattern and its
  success pattern),
* the fixpoint iteration count,
* the abstract instructions executed,
* the number of table entries.

Counts must repeat exactly.  To re-derive a row, run the analyzer on the
benchmark and feed the result to :func:`fingerprint`.
"""

import hashlib
import json

import pytest

from repro.analysis import Analyzer
from repro.bench import BENCHMARKS

SETTINGS = {
    "default": {},
    "no_lists": {"list_aware": False},
    "subsumption": {"subsumption": True},
}

#: (stable_dict digest, table digest, iterations, instructions, entries)
PINS = {
    "default": {
        "divide10": ("b3663f1a76ce6ae2", "518985d2755f70d9", 3, 1157, 7),
        "log10": ("b3663f1a76ce6ae2", "e72d7e9fd12bbb62", 3, 863, 6),
        "nreverse": ("c19e6dc9d1592cbc", "020506ac6840d984", 3, 376, 4),
        "ops8": ("b3663f1a76ce6ae2", "64db4d154a745e45", 2, 492, 8),
        "qsort": ("ac66dad65a3a1715", "20aee54998e3e49c", 2, 490, 4),
        "queens_8": ("e0ceb8fe998b7088", "22ae3947ebb78b01", 2, 302, 10),
        "query": ("d38b33349f9677ea", "64267254d4dd6006", 2, 424, 5),
        "serialise": ("ed86d7b7d7af6905", "8e7a4ddb44083e75", 4, 1002, 11),
        "tak": ("7f4f880f000188ba", "7c72032da9edc05c", 2, 122, 2),
        "times10": ("b3663f1a76ce6ae2", "d79116410b8c2da4", 3, 1085, 7),
        "zebra": ("1a5c4eb9c2e1bcb7", "d6c2b2e64502c317", 2, 756, 15),
    },
    "no_lists": {
        "divide10": ("b3663f1a76ce6ae2", "518985d2755f70d9", 3, 1157, 7),
        "log10": ("b3663f1a76ce6ae2", "e72d7e9fd12bbb62", 3, 863, 6),
        "nreverse": ("3f0f81fb69dbebe2", "88a721a678d80144", 3, 745, 12),
        "ops8": ("b3663f1a76ce6ae2", "64db4d154a745e45", 2, 492, 8),
        "qsort": ("4fed5c177fd3f9d3", "3dec39176e79ed56", 3, 1644, 20),
        "queens_8": ("c36ce11fabb3e145", "5eec67329298957f", 2, 988, 27),
        "query": ("726717a97dbfef9c", "1c1e7bda2c2f9ce5", 2, 424, 5),
        "serialise": ("88fbb88fc72c2d03", "b5301c7a936e7f82", 4, 3607, 42),
        "tak": ("7f4f880f000188ba", "7c72032da9edc05c", 2, 122, 2),
        "times10": ("b3663f1a76ce6ae2", "d79116410b8c2da4", 3, 1085, 7),
        "zebra": ("49c32bed04f2a726", "402a3b8536c0d105", 3, 4209, 80),
    },
    "subsumption": {
        "divide10": ("b3663f1a76ce6ae2", "fb9869311a745e8c", 3, 1100, 6),
        "log10": ("b3663f1a76ce6ae2", "e72d7e9fd12bbb62", 3, 863, 6),
        "nreverse": ("c19e6dc9d1592cbc", "020506ac6840d984", 3, 376, 4),
        "ops8": ("b3663f1a76ce6ae2", "64db4d154a745e45", 2, 492, 8),
        "qsort": ("ac66dad65a3a1715", "20aee54998e3e49c", 2, 490, 4),
        "queens_8": ("e0ceb8fe998b7088", "22ae3947ebb78b01", 2, 302, 10),
        "query": ("d38b33349f9677ea", "64267254d4dd6006", 2, 424, 5),
        "serialise": ("ed86d7b7d7af6905", "d09a09c804d3dd06", 4, 916, 10),
        "tak": ("7f4f880f000188ba", "7c72032da9edc05c", 2, 122, 2),
        "times10": ("b3663f1a76ce6ae2", "f3a36d2f6fb7556b", 3, 1028, 6),
        "zebra": ("1a5c4eb9c2e1bcb7", "d6c2b2e64502c317", 2, 756, 15),
    },
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fingerprint(result):
    table_text = "\n".join(sorted(result.table.to_text().splitlines()))
    return (
        _digest(json.dumps(result.stable_dict(), sort_keys=True)),
        _digest(table_text),
        result.iterations,
        result.instructions_executed,
        len(result.table),
    )


def test_every_benchmark_is_pinned():
    names = {bench.name for bench in BENCHMARKS}
    for setting in SETTINGS:
        assert set(PINS[setting]) == names


@pytest.mark.parametrize("setting", sorted(SETTINGS))
@pytest.mark.parametrize("bench", BENCHMARKS, ids=lambda b: b.name)
def test_answers_are_pinned(bench, setting):
    result = Analyzer(bench.source, **SETTINGS[setting]).analyze([bench.entry])
    assert fingerprint(result) == PINS[setting][bench.name]


@pytest.mark.parametrize("bench", BENCHMARKS[:3], ids=lambda b: b.name)
def test_counts_repeat(bench):
    first = fingerprint(Analyzer(bench.source).analyze([bench.entry]))
    second = fingerprint(Analyzer(bench.source).analyze([bench.entry]))
    assert first == second
