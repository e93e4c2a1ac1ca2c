"""On-disk memoization of sweep measurements, keyed by cost-model fingerprints.

Every cell of the paper's measurement matrix — one backend at one fleet
size — is a pure function of ``(backend configuration, n, seed,
periods, mode)``: the algorithms are deterministic and the machine
models are closed-form.  The cache exploits that by storing each
:class:`~repro.harness.sweep.PlatformMeasurement` under a SHA-256 key
derived from the backend's :meth:`~repro.backends.base.Backend.fingerprint_payload`
(its canonicalized ``describe()`` output plus the package version) and
the task parameters.

Consequences, by construction:

* a warm re-run of a sweep touches no cost model at all — every cell is
  served from disk;
* editing any cost-model constant changes that backend's ``describe()``
  output, hence its fingerprint, hence every affected key — only that
  backend's cells re-measure, everything else stays warm;
* a version bump invalidates the whole cache (models may have been
  recalibrated between releases).

Layout: a result-cache entry is JSON, human-inspectable; a stored trace
(:class:`TraceStore`, which the CLI roots at ``<root>/traces``) is the
trace's array buffer::

    <root>/v2/<key[:2]>/<key>.json
    <root>/traces/v3/<key[:2]>/<key>.trace

**Integrity.** Every entry carries a SHA-256 digest of its payload.  A
file that fails to parse, fails its digest, or decodes to the wrong
shape is *never* silently discarded: it is moved to
``<root>/quarantine/`` for post-mortem, counted on the store
(``quarantined``) and as ``atm_faults{kind="corrupt-entry"}`` beside a
``harness.fault`` span, and the read reports a miss so the cell
recomputes.  A missing file is an ordinary miss; any other ``OSError``
is counted (``io_errors`` / ``atm_faults{kind="io-error"}``) and
reported as a miss.  See ``docs/robustness.md`` for the fault
model and ``docs/parallel-and-caching.md`` for the key scheme.

**One cell store.**  :class:`CellStore` chains the places a finished
cell can live — an in-process LRU, the :class:`ResultCache`, a
checkpoint journal — and is the only lookup and commit path of the
sweep engine and the service.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from ..core.canonical import fingerprint_of
from ..core.sweepline import resolve_pruning
from ..obs.metrics import metric_inc
from .faults import fault_span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sweep imports us)
    from ..backends.base import Backend
    from ..core.trace import FunctionalTrace
    from ..service.journal import RequestJournal
    from .sweep import PlatformMeasurement

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "QUARANTINE_DIR",
    "CellStore",
    "ResultCache",
    "TraceStore",
]

#: Bump when the on-disk entry format changes; lives in the path, so a
#: schema change simply starts a fresh subtree instead of misreading.
#: v2: entries carry a SHA-256 content digest (``"sha256"``).
CACHE_SCHEMA_VERSION = 2

#: On-disk layout version of the trace tier (the *content* schema is
#: :data:`repro.core.trace.TRACE_SCHEMA_VERSION`, which also keys the
#: trace fingerprints).  v2: checksummed JSON entries; v3: checksummed
#: array buffers (``.trace`` files).
TRACE_STORE_VERSION = 3

#: File suffixes of store entries, every layout version's.
_ENTRY_SUFFIXES = (".json", ".trace")

#: Where the CLI keeps its cache unless told otherwise.
DEFAULT_CACHE_DIR = ".atm-repro-cache"

#: Subdirectory (under a store's root) receiving corrupt entries.
QUARANTINE_DIR = "quarantine"


class _CorruptEntry(Exception):
    """Internal: an on-disk entry failed verification or decoding."""


def _ambient_faults():
    """The ambient FaultPlan, if a sweep_options scope installed one."""
    from .parallel import current_options  # lazy: parallel imports us

    return current_options().faults


class _ChecksumStore:
    """Shared machinery of the two content-addressed stores.

    Subclasses say where entries live (``_subtree``, ``_suffix``) and
    how an entry's bytes encode and decode (``_encode``, ``_decode``);
    ``_decode`` verifies the entry's key, schema and digest, raising
    :class:`_CorruptEntry`.  This base class owns the integrity path
    both encodings share: atomic writes through a per-thread temp file,
    verified reads, quarantine of anything corrupt, and traffic
    counters (``hits`` / ``misses`` / ``stores`` / ``quarantined`` /
    ``io_errors``).
    """

    #: file name suffix of this store's entries.
    _suffix: str = ""
    #: fault kind a FaultPlan uses to corrupt entries of this store.
    _corrupt_kind: str = ""
    #: ``store`` label on the ``atm_store_requests`` metric family.
    _store_label: str = ""

    def _count(self, outcome: str) -> None:
        metric_inc("atm_store_requests", store=self._store_label, outcome=outcome)

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.quarantined = 0
        self.io_errors = 0

    # -- layout ---------------------------------------------------------

    def _subtree(self) -> str:
        raise NotImplementedError

    def _encode(self, key: str, value: Any) -> bytes:
        raise NotImplementedError

    def _decode(self, key: str, raw: bytes) -> Any:
        raise NotImplementedError

    def _path(self, key: str) -> Path:
        return self.root / self._subtree() / key[:2] / f"{key}{self._suffix}"

    # -- get / put ------------------------------------------------------

    def _read_verified(self, path: Path) -> Any:
        """Decode the entry at ``path``; raise :class:`_CorruptEntry`.

        The caller handles ``FileNotFoundError`` (an ordinary miss) and
        other ``OSError`` (an I/O problem, not corruption) separately —
        corruption means the *bytes* are there but wrong.
        """
        raw = path.read_bytes()
        try:
            return self._decode(path.stem, raw)
        except (ValueError, KeyError, TypeError) as exc:
            raise _CorruptEntry(f"entry does not decode: {exc!r}") from None

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt entry aside — visible, counted, never deleted."""
        qdir = self.root / QUARANTINE_DIR
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / path.name)
        except OSError:
            self.io_errors += 1
            self._count("io_error")
            fault_span("io-error", path=str(path))
            return
        self.quarantined += 1
        self._count("quarantined")
        fault_span(
            "corrupt-entry",
            store=type(self).__name__,
            path=str(path),
            reason=reason,
        )

    def get(self, key: str) -> Optional[Any]:
        """The stored object under ``key``, or None (counted).

        Failure handling is deliberately narrow: a missing file is a
        plain miss; corrupt bytes are quarantined and counted; an I/O
        error is counted.  Nothing is silently swallowed or deleted.
        """
        path = self._path(key)
        try:
            value = self._read_verified(path)
        except FileNotFoundError:
            self.misses += 1
            self._count("miss")
            return None
        except OSError:
            self.io_errors += 1
            self._count("io_error")
            fault_span("io-error", path=str(path))
            self.misses += 1
            self._count("miss")
            return None
        except _CorruptEntry as exc:
            self._quarantine(path, str(exc))
            self.misses += 1
            self._count("miss")
            return None
        self.hits += 1
        self._count("hit")
        return value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` (atomic, checksummed write)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # One temp file per thread: two threads may write one entry.
        tmp = path.with_name(f"{key}.tmp.{os.getpid()}.{threading.get_ident()}")
        tmp.write_bytes(self._encode(key, value))
        os.replace(tmp, path)
        self.stores += 1
        self._count("store")
        plan = _ambient_faults()
        if plan is not None and plan.should_inject(self._corrupt_kind, key, 0):
            plan.corrupt(path)

    # -- maintenance / introspection ------------------------------------

    def _subtrees(self) -> List[Path]:
        """This store's entry subtrees, one per layout version (``v*/``)."""
        if not self.root.is_dir():
            return []
        return sorted(
            p for p in self.root.iterdir()
            if p.is_dir() and p.name[:1] == "v" and p.name[1:].isdigit()
        )

    def _entry_paths(self) -> List[Path]:
        return [
            p
            for subtree in self._subtrees()
            for p in sorted(subtree.glob("??/*"))
            if p.suffix in _ENTRY_SUFFIXES
        ]

    def _quarantine_paths(self) -> List[Path]:
        qdir = self.root / QUARANTINE_DIR
        if not qdir.is_dir():
            return []
        return sorted(p for p in qdir.iterdir() if p.is_file())

    def stats(self) -> Dict[str, Any]:
        """Traffic counters plus what is on disk right now (entries of
        every layout version, stale ones included)."""
        entries = self._entry_paths()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "quarantined": self.quarantined,
            "quarantine_files": len(self._quarantine_paths()),
            "io_errors": self.io_errors,
        }

    def clear(self) -> int:
        """Delete this store's entries, of every layout version; returns
        the count.  Everything else under the root stays: quarantined
        entries, journals and other stores.  A root left empty goes."""
        removed = len(self._entry_paths())
        for subtree in self._subtrees():
            shutil.rmtree(subtree)
        try:
            self.root.rmdir()
        except OSError:
            pass  # absent, or holds what is not this store's to delete
        return removed

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {str(self.root)!r} hits={self.hits} "
            f"misses={self.misses} quarantined={self.quarantined}>"
        )


class ResultCache(_ChecksumStore):
    """Fingerprint-keyed store of per-cell sweep measurements.

    Instances also count their traffic (``hits`` / ``misses`` /
    ``stores`` / ``quarantined`` / ``io_errors``) so tests and the CLI
    can verify cache behaviour instead of inferring it from wall time
    alone.
    """

    _suffix = ".json"
    _corrupt_kind = "corrupt-result"
    _store_label = "result"

    # ------------------------------------------------------------------
    # keys
    # ------------------------------------------------------------------

    @staticmethod
    def key_for(
        backend: "Backend",
        *,
        n: int,
        seed: int,
        periods: int,
        mode: Any,
        pruning: Any = "off",
    ) -> str:
        """The cache key of one (backend, fleet-size) measurement cell.

        ``pruning`` is the candidate-pruning policy the cell runs under
        ("auto"/"on"/"off" or a
        :class:`~repro.core.sweepline.PruningPolicy`); the key holds its
        *effective* setting at ``n``, so an ``auto`` policy below its
        threshold keys identically to an explicit ``off``, and
        paper-scale cells share entries.
        """
        mode_value = getattr(mode, "value", mode)
        return fingerprint_of(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "backend": backend.fingerprint_payload(),
                "task": {
                    "n": int(n),
                    "seed": int(seed),
                    "periods": int(periods),
                    "mode": str(mode_value),
                    "pruning": "on" if resolve_pruning(pruning, n) else "off",
                },
            }
        )

    def _subtree(self) -> str:
        return f"v{CACHE_SCHEMA_VERSION}"

    def _encode(self, key: str, measurement: "PlatformMeasurement") -> bytes:
        payload = measurement.to_dict()
        entry = {
            "key": key,
            "schema": CACHE_SCHEMA_VERSION,
            "sha256": fingerprint_of(payload),
            "measurement": payload,
        }
        return json.dumps(entry, sort_keys=True).encode("utf-8")

    def _decode(self, key: str, raw: bytes) -> "PlatformMeasurement":
        from .sweep import PlatformMeasurement

        try:
            entry = json.loads(raw)
        except ValueError as exc:
            raise _CorruptEntry(f"not valid JSON: {exc}") from None
        if not isinstance(entry, dict):
            raise _CorruptEntry("entry is not a JSON object")
        if entry.get("key") != key:
            # The key and schema fields sit outside the payload digest;
            # a bit flip there must still read as corruption, not as a
            # valid entry under a different identity.
            raise _CorruptEntry("entry key does not match its path")
        if entry.get("schema") != CACHE_SCHEMA_VERSION:
            raise _CorruptEntry(f"unexpected entry schema {entry.get('schema')!r}")
        payload = entry.get("measurement")
        digest = entry.get("sha256")
        if payload is None or digest is None:
            raise _CorruptEntry("entry lacks 'measurement'/'sha256' fields")
        if digest != fingerprint_of(payload):
            raise _CorruptEntry("payload digest mismatch")
        return PlatformMeasurement.from_dict(payload)

    def get(self, key: str) -> Optional["PlatformMeasurement"]:
        """The cached measurement under ``key``, or None (counted)."""
        return super().get(key)

    def put(self, key: str, measurement: "PlatformMeasurement") -> None:
        """Store ``measurement`` under ``key`` (atomic checksummed write)."""
        super().put(key, measurement)


class TraceStore(_ChecksumStore):
    """On-disk tier for :class:`~repro.core.trace.FunctionalTrace` records.

    Keyed by :func:`repro.core.trace.trace_key` — the canonical
    fingerprint of one functional cell ``(n, seed, periods, mode,
    dropout, clutter)`` plus schema and library version, so a release
    that changes the functional algorithms starts fresh.  Backend
    fingerprints deliberately do **not** participate: the whole point of
    the trace tier is that one functional pass serves every backend.

    Each entry is the trace's checksummed array buffer
    (:meth:`~repro.core.trace.FunctionalTrace.to_bytes`), whose SHA-256
    covers its header and its arrays::

        <root>/v3/<key[:2]>/<key>.trace

    A read verifies the buffer's magic, digest and schema, and that the
    decoded trace's own key is the one in the path.  Corrupt entries
    are quarantined and report as misses, as in :class:`ResultCache`;
    see the module docstring for the full integrity contract.
    """

    _suffix = ".trace"
    _corrupt_kind = "corrupt-trace"
    _store_label = "trace"

    def _subtree(self) -> str:
        return f"v{TRACE_STORE_VERSION}"

    def _encode(self, key: str, trace: "FunctionalTrace") -> bytes:
        return trace.to_bytes()

    def _decode(self, key: str, raw: bytes) -> "FunctionalTrace":
        from ..core.trace import FunctionalTrace

        trace = FunctionalTrace.from_bytes(raw)
        if trace.key() != key:
            raise _CorruptEntry("entry key does not match its path")
        return trace

    def get(self, key: str) -> Optional["FunctionalTrace"]:
        """The stored trace under ``key``, or None (counted)."""
        return super().get(key)

    def put(self, key: str, trace: "FunctionalTrace") -> None:
        """Store ``trace`` under ``key`` (atomic checksummed write)."""
        super().put(key, trace)


class CellStore:
    """Finished measurement cells, probed through up to three tiers.

    The tiers, fastest first: an in-process LRU of ``memory_cells``
    measurements (0 = none), a :class:`ResultCache`, and a checkpoint
    journal (a :class:`~repro.service.journal.RequestJournal`, which
    serves the cells its last resume loaded).  :meth:`get`
    reads them in that order and copies a hit into the faster tiers
    that missed — a journal hit back-fills the cache and the LRU, a
    cache hit fills the LRU — and :meth:`put` writes every tier.

    Two threads may share one store (the service's event loop reads it
    while its dispatch thread commits): the LRU has its own lock, never
    held across disk I/O; each thread writes a cache entry through its
    own temp file; the journal serializes its appends, and its lookups
    never wait behind one.
    """

    def __init__(
        self,
        *,
        cache: Optional[ResultCache] = None,
        journal: Optional["RequestJournal"] = None,
        memory_cells: int = 0,
    ) -> None:
        self.cache = cache
        self.journal = journal
        self.memory_cells = max(0, int(memory_cells))
        self._lru: "OrderedDict[str, PlatformMeasurement]" = OrderedDict()
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        """Whether any tier exists; a store without one keys no cell."""
        return bool(self.memory_cells) or (
            self.cache is not None or self.journal is not None
        )

    def get(
        self, key: str
    ) -> Tuple[Optional["PlatformMeasurement"], Optional[str]]:
        """``(measurement, tier)`` from the first tier holding ``key``,
        where tier is ``memory``, ``cache`` or ``journal``; ``(None,
        None)`` when no tier holds it."""
        with self._lock:
            hit = self._lru.get(key)
            if hit is not None:
                self._lru.move_to_end(key)
        if hit is not None:
            return hit, "memory"
        if self.cache is not None:
            hit = self.cache.get(key)
            if hit is not None:
                self._fill_lru(key, hit)
                return hit, "cache"
        if self.journal is not None:
            hit = self.journal.lookup(key)
            if hit is not None:
                if self.cache is not None:
                    self.cache.put(key, hit)
                self._fill_lru(key, hit)
                return hit, "journal"
        return None, None

    def put(self, key: str, measurement: "PlatformMeasurement") -> None:
        """Write ``measurement`` to every tier.  The LRU first: a reader
        on another thread then finds the cell in memory while its disk
        tiers are written, and writes none itself.  Then the journal: a
        crash between the two disk writes leaves the cell journaled,
        where a resumed run looks for it, and closes its admission."""
        self._fill_lru(key, measurement)
        if self.journal is not None:
            self.journal.record_served(key, measurement)
        if self.cache is not None:
            self.cache.put(key, measurement)

    def _fill_lru(self, key: str, measurement: "PlatformMeasurement") -> None:
        if not self.memory_cells:
            return
        with self._lock:
            self._lru[key] = measurement
            self._lru.move_to_end(key)
            while len(self._lru) > self.memory_cells:
                self._lru.popitem(last=False)

    def memory_keys(self) -> List[str]:
        """The LRU's keys, least recently used first."""
        with self._lock:
            return list(self._lru)
