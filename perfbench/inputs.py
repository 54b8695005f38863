"""Seeded inputs.  Every request stream is built here, before any timing
starts; the program under test only ever sees the generated texts.

The same seed yields a byte-identical stream (``stream_bytes``), which
``test_inputs.py`` checks.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List

from common import require_source

require_source()

from repro.bench import BENCHMARKS  # noqa: E402
from repro.fuzz.grammar import generate_program  # noqa: E402
from repro.fuzz.mutate import STRUCTURAL_OPS, Mutator  # noqa: E402

#: Requests per pass of the edit session: 20% never-seen programs, 30%
#: edits, 50% unchanged repeats.  The live working set reaches 80
#: programs and ~200 distinct texts, past the service's 64-entry
#: prepared-program memo.
SESSION_LENGTH = 400
NEW_SHARE = 0.20
EDIT_SHARE = 0.30
#: Edits and repeats of each Van Roy program per session.  The Van Roy
#: programs are the session's most expensive requests, so fixing their
#: number keeps the cost mix, and with it the tail, the same whatever
#: the seed; the seed still picks the order, the edits and the
#: generated programs.
VAN_ROY_EDITS = 4
VAN_ROY_REPEATS = 6
#: Edits that change a predicate an entry reaches.  add_fact_predicate,
#: the fourth structural operator, adds a predicate no entry calls, so
#: the request fingerprint is unchanged and the service answers a hit.
EDIT_OPS = tuple(op for op in STRUCTURAL_OPS if op != "add_fact_predicate")

#: Independent edit sessions per serve-edits run.  The gated tail is
#: read among the ten or so most expensive requests of a session, and
#: which of those a seed draws moves one session's tail by about a
#: fifth.  Averaged over four sessions, the seed moves the tail's
#: ratio to the mean by about a twentieth.
SESSIONS = 4

#: Gateway requests drawn per run (far more than any run sends).
GATEWAY_STREAM = 20000


def table1_order(seed: int) -> List[str]:
    """The 11 Van Roy programs in a seeded order."""
    names = [benchmark.name for benchmark in BENCHMARKS]
    random.Random(seed).shuffle(names)
    return names


def edit_session(seed: int, length: int = SESSION_LENGTH) -> List[Dict]:
    """A seeded editing session: a list of ``{"kind", "doc", "text",
    "entries"}`` requests.  ``kind`` is ``new`` (a never-seen program),
    ``edit`` (one structural edit of a live program) or ``repeat`` (an
    unchanged live program)."""
    rng = random.Random(seed)
    new = int(length * NEW_SHARE)
    edits = int(length * EDIT_SHARE)
    docs = [{"text": b.source, "entries": [b.entry]} for b in BENCHMARKS]
    for index in range(new - len(docs)):
        generated = generate_program(seed * 100003 + index)
        docs.append({"text": generated.source,
                     "entries": list(generated.entries)})
    # Later requests of each program, as a seeded list of kinds.
    later: List[List[str]] = [
        ["edit"] * VAN_ROY_EDITS + ["repeat"] * VAN_ROY_REPEATS
        for _ in BENCHMARKS
    ] + [[] for _ in range(new - len(BENCHMARKS))]
    spare_edits = edits - VAN_ROY_EDITS * len(BENCHMARKS)
    spare_repeats = (length - new - edits
                     - VAN_ROY_REPEATS * len(BENCHMARKS))
    for kind, count in (("edit", spare_edits), ("repeat", spare_repeats)):
        for _ in range(count):
            later[rng.randrange(len(BENCHMARKS), new)].append(kind)
    for kinds in later:
        rng.shuffle(kinds)
    # A uniformly random interleaving; each program's first request is
    # its arrival.
    tokens = [doc for doc, kinds in enumerate(later)
              for _ in range(1 + len(kinds))]
    rng.shuffle(tokens)
    seen = set()
    stream: List[Dict] = []
    for doc in tokens:
        state = docs[doc]
        if doc not in seen:
            seen.add(doc)
            kind = "new"
        else:
            kind = later[doc].pop()
            if kind == "edit":
                mutator = Mutator(random.Random(rng.getrandbits(32)),
                                  EDIT_OPS)
                text, applied = mutator.mutate_text(state["text"])
                if applied:
                    state["text"] = text
                else:
                    kind = "repeat"
        stream.append({"kind": kind, "doc": doc, "text": state["text"],
                       "entries": state["entries"]})
    return stream


def edit_sessions(seed: int, count: int = SESSIONS) -> List[List[Dict]]:
    """``count`` independent edit sessions, each from its own seed."""
    return [edit_session(seed * SESSIONS + k) for k in range(count)]


def gateway_stream(seed: int, length: int = GATEWAY_STREAM) -> List[int]:
    """Indices into ``BENCHMARKS``: the hot-set program of each request."""
    rng = random.Random(seed)
    return [rng.randrange(len(BENCHMARKS)) for _ in range(length)]


def stream_bytes(workload: str, seed: int) -> bytes:
    """The workload's whole generated input, serialized canonically."""
    if workload == "table1":
        data = table1_order(seed)
    elif workload == "serve-edits":
        data = edit_sessions(seed)
    elif workload == "gateway":
        data = gateway_stream(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return json.dumps(data, sort_keys=True).encode("utf-8")
