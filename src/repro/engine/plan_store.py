"""Append-only single-file plan journal with an in-memory index.

The disk layer of :mod:`repro.engine.plan_cache`: one journal holds
every planned launch and is opened once per process, so a corpus-squared
workload (full scale x every schedule x every launch variant) warm-starts
with one sequential scan instead of one ``open`` per plan.

The on-disk framing (magic/versioned header, ``<II`` len+crc32 records,
single ``O_APPEND`` write per record, truncated-tail and corrupt-record
tolerance) lives in :class:`~repro.engine.journal.RecordJournal`; this
module layers the plan-specific parts on top::

    payload := pickle((key, value))

Readers build an in-memory ``key -> RecordLocation`` index from one
journal scan at open; the newest record for a key wins.  Updated keys
leave dead records behind; :meth:`PlanStore.compact` rewrites the
journal with only the live ones (atomic ``os.replace``), and ``put``
auto-compacts past a dead-record ratio.

Failure tolerance follows the plan cache's contract -- the store can
only ever skip recomputation, never change behaviour: damaged tails and
corrupt records read as misses (see :mod:`repro.engine.journal`), and
:meth:`PlanStore.get` re-verifies the CRC *and* the stored key on every
read, so a stale index entry (e.g. another process compacted the file
under us) degrades to a miss instead of a wrong plan.
"""

from __future__ import annotations

import os
import pickle
import threading
from pathlib import Path
from typing import Any, Iterator

from .journal import (
    JOURNAL_HEADER as _HEADER,
    JOURNAL_RECORD as _RECORD,
    RecordJournal,
    RecordLocation,
)

__all__ = [
    "PlanStore",
    "STORE_FORMAT_VERSION",
    "STORE_MAGIC",
    "PLAN_STORE_COMPACT_RATIO_ENV",
]

#: Bump when the journal framing (header/record layout) changes; old
#: files then read as cold and are rotated on the first append.
STORE_FORMAT_VERSION = 1

STORE_MAGIC = b"RPSTORE1"

#: Dead-record ratio above which :meth:`PlanStore.put` auto-compacts the
#: journal.  ``0`` (or any non-positive value) disables auto-compaction.
PLAN_STORE_COMPACT_RATIO_ENV = "REPRO_PLAN_STORE_COMPACT_RATIO"

#: Default auto-compaction trigger: compact once half the journal is dead.
DEFAULT_COMPACT_RATIO = 0.5

#: Auto-compaction only fires once this many records are dead -- ratio
#: alone would thrash small journals (two updates of one key is "50%
#: dead") where compaction saves nothing worth a rewrite.
AUTO_COMPACT_MIN_DEAD = 64


def _compact_ratio_from_env() -> float:
    """The auto-compaction threshold from the environment knob.

    A malformed value warns and falls back to the default -- a tuning
    typo must degrade the optimization, never crash every planner (same
    contract as the problem-cache budgets).
    """
    raw = os.environ.get(PLAN_STORE_COMPACT_RATIO_ENV)
    if not raw:
        return DEFAULT_COMPACT_RATIO
    try:
        return float(raw)
    except ValueError:
        import warnings

        warnings.warn(
            f"ignoring non-numeric {PLAN_STORE_COMPACT_RATIO_ENV}={raw!r}; "
            f"using the default compaction ratio",
            RuntimeWarning,
            stacklevel=3,
        )
        return DEFAULT_COMPACT_RATIO


class PlanStore:
    """A key-value journal of planned launches (one file, many plans).

    ``get``/``put`` move arbitrary picklable ``(key, value)`` pairs; the
    plan cache stores versioned stats payloads, but the store itself is
    schema-agnostic.  All methods are thread-safe; cross-process safety
    comes from the record journal's whole-record ``O_APPEND`` writes
    plus read-time verification.
    """

    def __init__(self, path: str | Path, *, compact_ratio: float | None = None):
        self.path = Path(path)
        #: Dead-record ratio that triggers auto-compaction on ``put``
        #: (``None`` reads ``REPRO_PLAN_STORE_COMPACT_RATIO``, defaulting
        #: to 0.5; non-positive disables).
        self.compact_ratio = (
            _compact_ratio_from_env() if compact_ratio is None
            else float(compact_ratio)
        )
        self.hits = 0
        self.appends = 0
        self.auto_compactions = 0
        self.write_errors = 0
        self._write_error_warned = False
        #: Records superseded by a newer append for the same key (plus
        #: records whose payload could not be unpickled at scan time).
        self.dead_records = 0
        self._index: dict[Any, RecordLocation] = {}
        self._lock = threading.RLock()
        self._journal = RecordJournal(
            self.path, magic=STORE_MAGIC, version=STORE_FORMAT_VERSION
        )
        self._build_index()

    def _build_index(self) -> None:
        """Build the key index from one pass over the journal."""
        for location, payload in self._journal.records():
            try:
                key, _value = pickle.loads(payload)
            except Exception:  # framed fine, payload unusable: skip it
                self.dead_records += 1
                continue
            try:
                if key in self._index:
                    self.dead_records += 1
                self._index[key] = location
            except TypeError:  # unhashable key from a foreign writer
                self.dead_records += 1

    @property
    def scan_damage(self) -> bool:
        """True when the open scan hit a truncated tail or corrupt record."""
        return self._journal.scan_damage

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, key: Any) -> Any | None:
        """Return the newest value stored for ``key``, or ``None``.

        Every read re-verifies the record CRC and the stored key, so a
        stale or corrupted index entry degrades to a miss.
        """
        with self._lock:
            location = self._index.get(key)
            if location is None:
                return None
            payload = self._journal.read(location)
            if payload is None:
                del self._index[key]
                return None
            try:
                stored_key, value = pickle.loads(payload)
                matches = stored_key == key
            except Exception:
                # Unpicklable payload, or a key comparison that raises
                # (e.g. a spec type that since grew fields): a record we
                # cannot trust is a miss, never an error.
                del self._index[key]
                return None
            if not matches:
                del self._index[key]
                return None
            self.hits += 1
            return value

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._index

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def keys(self) -> Iterator[Any]:
        with self._lock:
            return iter(list(self._index))

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, key: Any, value: Any) -> None:
        """Append one record; the in-memory index points at it immediately.

        A failed append (disk full, injected journal fault) degrades to
        not persisting *this* record -- plans are pure, so losing one
        costs a future re-plan, never correctness.  The failure is
        counted (``write_errors``) and warned once per store.
        """
        payload = pickle.dumps((key, value), protocol=pickle.HIGHEST_PROTOCOL)
        with self._lock:
            if self._journal.closed:
                raise ValueError("PlanStore is closed")
            try:
                location = self._journal.append(payload)
            except (OSError, RuntimeError) as exc:
                self.write_errors += 1
                if not self._write_error_warned:
                    self._write_error_warned = True
                    import warnings

                    warnings.warn(
                        f"plan-store append to {self.path} failed "
                        f"({type(exc).__name__}: {exc}); the plan stays "
                        f"usable in memory but was not persisted",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                return
            if key in self._index:
                self.dead_records += 1
            self._index[key] = location
            self.appends += 1
            if self._should_auto_compact():
                self.compact()
                self.auto_compactions += 1

    def _should_auto_compact(self) -> bool:
        """True when the dead-record ratio crossed the compaction trigger."""
        if self.compact_ratio <= 0 or self.dead_records < AUTO_COMPACT_MIN_DEAD:
            return False
        total = self.dead_records + len(self._index)
        return self.dead_records >= self.compact_ratio * total

    def compact(self) -> int:
        """Rewrite the journal keeping only the newest record per key.

        Returns the number of dead records dropped.  The rewrite is
        atomic (temp file + ``os.replace``); a concurrent writer holding
        the old inode keeps appending to the orphan, which loses only
        *acceleration* -- plans are pure, so nothing can go wrong beyond
        a future re-plan.
        """
        with self._lock:
            live: list[tuple[Any, Any]] = []
            for key in list(self._index):
                value = self.get(key)
                if value is not None:
                    live.append((key, value))
            dropped = self.dead_records
            locations = self._journal.rewrite(
                pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL)
                for item in live
            )
            self._index = {
                key: location
                for (key, _value), location in zip(live, locations)
            }
            self.dead_records = 0
            return dropped

    # ------------------------------------------------------------------
    # Lifecycle & reporting
    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            self._journal.close()

    def info(self) -> dict:
        with self._lock:
            return {
                "path": str(self.path),
                "records": len(self._index),
                "appends": self.appends,
                "hits": self.hits,
                "write_errors": self.write_errors,
                "dead_records": self.dead_records,
                "file_bytes": self._journal.file_bytes(),
                "compact_ratio": self.compact_ratio,
                "auto_compactions": self.auto_compactions,
                "scan_damage": self.scan_damage,
            }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PlanStore({str(self.path)!r}, records={len(self)})"
