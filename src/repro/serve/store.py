"""The analysis result store: content-addressed, capped, optionally on disk.

Two granularities are stored, both keyed by fingerprints from
:mod:`repro.serve.fingerprint`:

* **SCC summaries** — key ``scc:<merkle>:<config>``, value: every
  extension-table entry (calling pattern → success pattern, may-share,
  status) of the component's predicates from a previous *exact* run.
  Because the Merkle fingerprint covers the component and everything it
  calls, a clean key proves the cached summaries are still the exact
  fixpoint values; editing one clause changes the fingerprints of its
  SCC and its transitive callers, and only those keys go dark.

* **Full results** — key ``result:<request>``, value: the serialized
  response of a whole analyze request.  A hit answers without running
  any fixpoint at all.

Only ``exact`` results are ever stored: degraded (budget-tripped)
entries are sound but not final, so serving them from cache could leak
imprecision into runs that had budget to spare.  The service enforces
this; :meth:`ResultStore.put` double-checks it.

The in-memory layer is an LRU with entry- and byte-caps; the optional
disk layer is one JSON file per key (human-inspectable, safe to delete
at any time).  Serialization of patterns round-trips through plain JSON
— no pickling, nothing process-specific.

The disk layer is **self-healing**: every entry file carries a SHA-256
checksum of its canonical value text, verified on load; corrupt, torn
or unreadable files are moved to a ``quarantine/`` subdirectory (never
propagated to the caller — a quarantined entry is a cache miss, and
soundness rests on the seeded run's verification sweep anyway, so the
cost is only performance).  With ``journal=True`` a write-ahead journal
(``journal.jsonl``) records each put before the entry file is written;
on startup the journal is replayed — entries whose files are missing or
fail their checksum are rewritten from the journal — then truncated.  A
torn journal tail (crash mid-append) is detected and discarded, so a
recovered store is always either valid or absent.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import OrderedDict
from typing import Optional

# The JSON codecs moved to repro.analysis.codec (the checkpoint layer
# needs them without importing the serve package); re-exported here so
# existing importers keep working.
from ..analysis.codec import (  # noqa: F401  (re-exports)
    entry_from_json,
    entry_to_json,
    node_from_json,
    node_to_json,
    pattern_from_json,
    pattern_to_json,
    table_to_json,
    tree_from_json,
    tree_to_json,
)


# ----------------------------------------------------------------------
# The capped in-memory store.


class ResultStore:
    """A byte- and entry-capped LRU over JSON-serializable values.

    Values are stored as their compact-JSON text (the serialization *is*
    the size accounting), so whatever comes back out is guaranteed to be
    process-independent.  An optional :class:`DiskStore` acts as a
    second level: misses fall through to it, hits are promoted.
    """

    def __init__(
        self,
        max_entries: Optional[int] = 1024,
        max_bytes: Optional[int] = 64 * 1024 * 1024,
        disk: Optional["DiskStore"] = None,
        metrics=None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be positive")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.disk = disk
        self._data: "OrderedDict[str, str]" = OrderedDict()
        self.bytes_used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejected_degraded = 0
        #: repro.obs: optional MetricsRegistry mirroring the counters
        #: above under serve.store.* (see docs/observability.md).
        self.metrics = metrics

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: str) -> bool:
        return key in self._data or (
            self.disk is not None and self.disk.contains(key)
        )

    # ------------------------------------------------------------------

    def get(self, key: str):
        text = self._data.get(key)
        if text is not None:
            self._data.move_to_end(key)
            self.hits += 1
            if self.metrics is not None:
                self.metrics.counter("serve.store.hits").inc()
            return json.loads(text)
        if self.disk is not None:
            value = self.disk.get(key)
            if value is not None:
                self.hits += 1
                if self.metrics is not None:
                    self.metrics.counter("serve.store.hits").inc()
                self._install(key, json.dumps(value, sort_keys=True))
                return value
        self.misses += 1
        if self.metrics is not None:
            self.metrics.counter("serve.store.misses").inc()
        return None

    def put(self, key: str, value, status: str = "exact") -> bool:
        """Store ``value`` under ``key``; refused for non-exact results.

        Returns True when stored.  A value bigger than the whole byte
        cap is refused too (it would evict everything for nothing).
        """
        if status != "exact":
            self.rejected_degraded += 1
            if self.metrics is not None:
                self.metrics.counter("serve.store.rejected_degraded").inc()
            return False
        text = json.dumps(value, sort_keys=True)
        if self.max_bytes is not None and len(text) > self.max_bytes:
            return False
        self._install(key, text)
        if self.disk is not None:
            self.disk.put(key, text)
        return True

    # ------------------------------------------------------------------
    # The checkpoint namespace (see repro.robust.checkpoint).
    #
    # Checkpoints are *partial* fixpoint state by definition, so they
    # bypass the exact-only gate of :meth:`put` — but only under the
    # reserved ``checkpoint:`` prefix, so an ordinary result key can
    # never smuggle a non-exact value past the gate.  Durability,
    # checksums, quarantine and journal replay are all inherited from
    # the disk layer unchanged: a torn checkpoint is quarantined and
    # reads as a miss, which merely costs re-derivation.

    CHECKPOINT_PREFIX = "checkpoint:"

    def put_checkpoint(self, key: str, value) -> bool:
        """Store an intermediate fixpoint snapshot; returns True when
        stored (an oversized snapshot is refused like any value)."""
        if not key.startswith(self.CHECKPOINT_PREFIX):
            raise ValueError(
                f"checkpoint keys must start with {self.CHECKPOINT_PREFIX!r}"
            )
        text = json.dumps(value, sort_keys=True)
        if self.max_bytes is not None and len(text) > self.max_bytes:
            return False
        self._install(key, text)
        if self.disk is not None:
            self.disk.put(key, text)
        if self.metrics is not None:
            self.metrics.counter("checkpoint.stored").inc()
        return True

    def get_checkpoint(self, key: str):
        """The stored snapshot under ``key`` or None (same read path as
        :meth:`get`; the caller verifies the embedded checksum)."""
        if not key.startswith(self.CHECKPOINT_PREFIX):
            raise ValueError(
                f"checkpoint keys must start with {self.CHECKPOINT_PREFIX!r}"
            )
        return self.get(key)

    def drop_checkpoint(self, key: str) -> bool:
        """GC one checkpoint (memory and disk) after its request
        completed exactly; True when anything was dropped."""
        dropped = self.invalidate(key)
        if dropped and self.metrics is not None:
            self.metrics.counter("checkpoint.gc").inc()
        return dropped

    def _install(self, key: str, text: str) -> None:
        old = self._data.pop(key, None)
        if old is not None:
            self.bytes_used -= len(old)
        self._data[key] = text
        self.bytes_used += len(text)
        while self._over_cap():
            evicted_key, evicted = self._data.popitem(last=False)
            self.bytes_used -= len(evicted)
            self.evictions += 1
            if self.metrics is not None:
                self.metrics.counter("serve.store.evictions").inc()

    def _over_cap(self) -> bool:
        if self.max_entries is not None and len(self._data) > self.max_entries:
            return True
        if self.max_bytes is not None and self.bytes_used > self.max_bytes:
            return True
        return False

    # ------------------------------------------------------------------

    def invalidate(self, key: str) -> bool:
        """Drop one key (memory and disk); True if anything was dropped."""
        dropped = False
        text = self._data.pop(key, None)
        if text is not None:
            self.bytes_used -= len(text)
            dropped = True
        if self.disk is not None and self.disk.invalidate(key):
            dropped = True
        return dropped

    def clear(self) -> None:
        self._data.clear()
        self.bytes_used = 0
        if self.disk is not None:
            self.disk.clear()

    def stats(self) -> dict:
        counts = {
            "entries": len(self._data),
            "bytes": self.bytes_used,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "rejected_degraded": self.rejected_degraded,
        }
        if self.disk is not None:
            counts["disk"] = self.disk.stats()
        return counts


def _checksum(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class DiskStore:
    """One checksummed JSON file per key under a directory (a level-2
    store), with an optional write-ahead journal.

    Keys are fingerprint-built (hex digests and fixed prefixes), but they
    are sanitized anyway so a corrupt key cannot escape the directory.
    Every entry file is a record ``{"key", "sha256", "value"}`` where the
    digest covers the canonical (sorted-keys) serialization of the value;
    a file that is unreadable, torn, or fails its checksum is moved to
    ``quarantine/`` and behaves as a miss.  Pre-checksum (unwrapped)
    payload files from older stores are still readable.

    With ``journal=True``, each put appends the full record to
    ``journal.jsonl`` (flushed) *before* the entry file is written, so a
    write torn by a crash or power loss is repaired by :meth:`replay` on
    the next startup.  The journal is truncated after a successful
    replay and rotated when it outgrows ``JOURNAL_CAP`` — safe, because
    every journaled record was also written to its entry file.

    ``fault_plan`` arms the ``"store"`` chaos site (see
    :class:`repro.robust.FaultPlan`): at the configured put ordinals the
    entry file is deliberately written torn while the journal keeps the
    good record, exercising both the quarantine and the replay paths.
    """

    JOURNAL_NAME = "journal.jsonl"
    QUARANTINE_NAME = "quarantine"
    JOURNAL_CAP = 8 * 1024 * 1024

    def __init__(
        self,
        directory: str,
        journal: bool = False,
        fault_plan=None,
        metrics=None,
    ):
        self.directory = directory
        self.journal_enabled = journal
        self.fault_plan = fault_plan
        self.quarantined = 0
        self.checksum_failures = 0
        self.journal_replayed = 0
        self.journal_rotations = 0
        #: repro.obs: optional MetricsRegistry mirroring the self-healing
        #: counters under serve.store.* (quarantines, checksum failures,
        #: journal replays).
        self.metrics = metrics
        self._journal_handle = None
        os.makedirs(directory, exist_ok=True)
        if journal:
            self.replay()
            try:
                self._journal_handle = open(
                    self._journal_path(), "a", encoding="utf-8"
                )
            except OSError:
                self._journal_handle = None  # read-only dir: degrade

    # ------------------------------------------------------------------
    # Paths.

    def _path(self, key: str) -> str:
        safe = "".join(
            ch if ch.isalnum() or ch in "-_." else "_" for ch in key
        )
        return os.path.join(self.directory, safe + ".json")

    def _journal_path(self) -> str:
        return os.path.join(self.directory, self.JOURNAL_NAME)

    def _quarantine_dir(self) -> str:
        return os.path.join(self.directory, self.QUARANTINE_NAME)

    # ------------------------------------------------------------------
    # Records.

    @staticmethod
    def _record_text(key: str, text: str) -> str:
        # The value text is already canonical (compact sorted-keys JSON
        # from ResultStore), so splice it in verbatim: re-serializing
        # record["value"] with sort_keys reproduces it for verification.
        return (
            '{"key": ' + json.dumps(key)
            + ', "sha256": "' + _checksum(text)
            + '", "value": ' + text + "}"
        )

    def _verify(self, data):
        """The value inside a parsed record, or None when the checksum
        fails; unwrapped legacy payloads pass through unchecked."""
        if (
            isinstance(data, dict)
            and "sha256" in data
            and "value" in data
            and "key" in data
        ):
            text = json.dumps(data["value"], sort_keys=True)
            if _checksum(text) != data["sha256"]:
                self.checksum_failures += 1
                if self.metrics is not None:
                    self.metrics.counter(
                        "serve.store.checksum_failures"
                    ).inc()
                return None
            return data["value"]
        return data  # pre-checksum store format

    def _quarantine(self, path: str) -> None:
        """Move a damaged file out of the way instead of crashing or
        re-reading it forever; quarantined files are kept for forensics
        and are invisible to the store."""
        destination_dir = self._quarantine_dir()
        base = os.path.basename(path)
        try:
            os.makedirs(destination_dir, exist_ok=True)
            destination = os.path.join(destination_dir, base)
            suffix = 0
            while os.path.exists(destination):
                suffix += 1
                destination = os.path.join(
                    destination_dir, f"{base}.{suffix}"
                )
            os.replace(path, destination)
            self.quarantined += 1
            if self.metrics is not None:
                self.metrics.counter("serve.store.quarantined").inc()
        except OSError:
            try:
                os.unlink(path)
                self.quarantined += 1
                if self.metrics is not None:
                    self.metrics.counter("serve.store.quarantined").inc()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # The journal.

    def replay(self) -> int:
        """Replay the write-ahead journal: rewrite any entry whose file
        is missing, torn, or checksum-broken from its journaled record;
        a torn journal tail is discarded.  Returns the repair count and
        truncates the journal (every surviving record is now safely in
        its entry file)."""
        journal_path = self._journal_path()
        repaired = 0
        try:
            with open(journal_path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except OSError:
            return 0
        # Newest-valid-record-per-key wins: a key written several times
        # (checkpoints overwrite in place as the fixpoint advances) must
        # be repaired from its *latest* journaled state, not its first.
        latest: "OrderedDict[str, str]" = OrderedDict()
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                break  # torn tail: a crash mid-append; nothing after it
            if not (
                isinstance(record, dict)
                and isinstance(record.get("key"), str)
                and "sha256" in record
                and "value" in record
            ):
                break
            value_text = json.dumps(record["value"], sort_keys=True)
            if _checksum(value_text) != record["sha256"]:
                continue  # a corrupted journal record repairs nothing
            latest[record["key"]] = value_text
        for key, value_text in latest.items():
            path = self._path(key)
            current = None
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    current = self._verify(json.load(handle))
            except (OSError, ValueError):
                current = None
            # Repair when the file is damaged OR holds an older state
            # than the journal: each put journals *before* writing the
            # entry file, so a verified file that still differs from the
            # newest journaled record means the crash landed between the
            # append and the overwrite.
            if current is None or (
                json.dumps(current, sort_keys=True) != value_text
            ):
                self._write_file(path, self._record_text(key, value_text))
                repaired += 1
        self.journal_replayed += repaired
        if repaired and self.metrics is not None:
            self.metrics.counter("serve.store.journal.replayed").inc(repaired)
        try:
            with open(journal_path, "w", encoding="utf-8"):
                pass  # truncate: all records are applied and verified
        except OSError:
            pass
        return repaired

    def _journal_append(self, record_text: str) -> None:
        handle = self._journal_handle
        if handle is None:
            return
        try:
            if handle.tell() > self.JOURNAL_CAP:
                # Rotate by truncation: every earlier record's entry
                # file was already written atomically, so only the
                # record *about to be appended* needs journal cover.
                handle.seek(0)
                handle.truncate()
                # Rotation used to heal silently; operators watching
                # journal growth need to see the resets (stats op +
                # serve.store.* metrics).
                self.journal_rotations += 1
                if self.metrics is not None:
                    self.metrics.counter(
                        "serve.store.journal.rotated"
                    ).inc()
            handle.write(record_text + "\n")
            handle.flush()
        except (OSError, ValueError):
            pass  # full or closed: journaling degrades, puts continue

    # ------------------------------------------------------------------
    # The store protocol used by ResultStore.

    def contains(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def get(self, key: str):
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError:
            return None
        except ValueError:
            self._quarantine(path)  # torn write or bit rot: not JSON
            return None
        value = self._verify(data)
        if value is None:
            self._quarantine(path)
        return value

    def put(self, key: str, text: str) -> None:
        record_text = self._record_text(key, text)
        self._journal_append(record_text)
        if self.fault_plan is not None and self.fault_plan.probe("store"):
            # Injected torn write: the entry file gets half a record,
            # the journal (above) kept the good one.
            record_text = record_text[: max(1, len(record_text) // 2)]
        self._write_file(self._path(key), record_text)

    def _write_file(self, path: str, text: str) -> None:
        temporary = path + ".tmp"
        try:
            with open(temporary, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(temporary, path)
        except OSError:
            # A read-only or full disk must never take the service down;
            # the in-memory layer still has the value.
            try:
                os.unlink(temporary)
            except OSError:
                pass

    def invalidate(self, key: str) -> bool:
        try:
            os.unlink(self._path(key))
            return True
        except OSError:
            return False

    def clear(self) -> None:
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if name.endswith(".json"):
                try:
                    os.unlink(os.path.join(self.directory, name))
                except OSError:
                    pass
        if self._journal_handle is not None:
            try:
                self._journal_handle.seek(0)
                self._journal_handle.truncate()
            except (OSError, ValueError):
                pass

    def close(self) -> None:
        if self._journal_handle is not None:
            try:
                self._journal_handle.close()
            except OSError:
                pass
            self._journal_handle = None

    def stats(self) -> dict:
        return {
            "journal": self.journal_enabled,
            "quarantined": self.quarantined,
            "checksum_failures": self.checksum_failures,
            "journal_replayed": self.journal_replayed,
            "journal_rotations": self.journal_rotations,
        }


__all__ = [
    "DiskStore",
    "ResultStore",
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
