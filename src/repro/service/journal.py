"""The checkpoint journal of finished and admitted cells (docs/service.md).

One journal class serves both layers that must survive SIGKILL.  The
batch harness (``atm-repro report|search --resume``) and the service
(``atm-repro serve --resume``) both write a :class:`RequestJournal`
through :class:`~repro.harness.cache.CellStore`, whose journal tier it
is.  Line-digest and torn-line helpers live in
:mod:`repro.harness.faults`.

* ``admitted`` lines (service only) are appended — flushed and fsynced
  — *before* an admitted cell enters the dispatch queue, so the
  admission decision is durable before any client could observe it.
* ``served`` lines carry the full measurement payload of a finished
  cell; the cell store appends one for every fresh cell it commits.

On ``--resume`` the journal is loaded: its ``served`` measurements
answer :meth:`RequestJournal.lookup` (the store's slowest tier), and the
service re-enqueues ``admitted``-but-never-``served`` cells through the
normal batch dispatcher.  A cell served in this run is kept by key only
(the store's LRU and result cache serve it), so the journal's memory is
bounded by what the last resume loaded.  Because every measurement cell
is a pure function of ``(platform, n, seed, periods, mode)``, a
replayed cell produces **byte-identical** payloads to the uninterrupted
run — the chaos suites (``tests/harness/test_faults.py``,
``tests/service/test_chaos.py``) kill live runs and prove it.

Torn lines (SIGKILL mid-append, an injected ``corrupt-journal``
bit-flip, or a ``served`` payload that does not decode) are detected at
load and dropped — counted, never half-read.  A dropped ``admitted``
line is safe: its client never got an acknowledgement, and
re-requesting recomputes the same bytes.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Set, Union

from ..harness.faults import (
    FaultPlan,
    append_journal_line,
    decode_journal_line,
    encode_journal_line,
    fault_span,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..harness.sweep import PlatformMeasurement

__all__ = ["RequestJournal"]


class RequestJournal:
    """Write-ahead journal of admitted and served cells.

    One JSON line per event, each carrying a digest of the whole line::

        {"event": "admitted", "key": <cache fingerprint>,
         "cell": {"platform": ..., "n": ..., ...}, "sha256": ...}
        {"event": "served", "key": <cache fingerprint>,
         "measurement": {...}, "sha256": ...}

    ``key`` is the same :meth:`~repro.harness.cache.ResultCache.key_for`
    fingerprint the coalescing map and the result cache use, so a
    journal line can never resurrect a cell whose cost model changed
    between runs — the fingerprint embeds the backend ``describe()``
    and the library version.

    ``resume=False`` (a fresh run) discards any previous journal;
    ``resume=True`` loads it, exposing restored measurements via
    :meth:`lookup` and the unfinished remainder via :meth:`pending`.
    Lines appended in this run keep only their key, which dedupes later
    records and closes :meth:`pending`; :meth:`lookup` serves only what
    the resume loaded.
    Two threads may share one journal: appends go one at a time, so
    every line stays whole, and :meth:`lookup`, :meth:`pending` and
    :meth:`stats` never wait behind one's fsync.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        resume: bool = False,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.path = Path(path)
        self.resume = bool(resume)
        self.faults = faults
        #: torn / corrupt lines dropped while loading.
        self.dropped_lines = 0
        #: admit/served lines appended this run.
        self.recorded = 0
        #: lookups answered from a served line loaded at resume.
        self.resumed_cells = 0
        #: appends this run (the corrupt-journal injection key).
        self._append_seq = 0
        #: key -> validated cell dict, in admission order.
        self._admitted: Dict[str, Dict[str, Any]] = {}
        #: keys of every served line, loaded or appended.
        self._served: Set[str] = set()
        #: key -> measurement of a served line loaded at resume, decoded once.
        self._restored: Dict[str, "PlatformMeasurement"] = {}
        #: one append at a time, held across its fsync.
        self._lock = threading.Lock()
        #: the maps and counters; never held across I/O.
        self._maps = threading.Lock()
        if self.resume:
            self._load()
        elif self.path.exists():
            self.path.unlink()

    # -- loading --------------------------------------------------------

    def _load(self) -> None:
        from ..harness.sweep import PlatformMeasurement

        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return
        except OSError:
            fault_span("io-error", path=str(self.path))
            return
        if text and not text.endswith("\n"):
            # End the torn tail, so the next append starts its own line.
            append_journal_line(self.path, "")
        for line in text.splitlines():
            if not line.strip():
                continue
            record = decode_journal_line(line)
            if record is None or "key" not in record:
                self._drop_line()
                continue
            key = record["key"]
            event = record.get("event")
            if event == "admitted" and isinstance(record.get("cell"), dict):
                self._admitted.setdefault(key, record["cell"])
            elif event == "served":
                try:
                    measurement = PlatformMeasurement.from_dict(record["measurement"])
                except (KeyError, TypeError, ValueError):
                    self._drop_line()
                    continue
                self._served.add(key)
                self._restored[key] = measurement
            else:
                self._drop_line()

    def _drop_line(self) -> None:
        # A torn tail from SIGKILL mid-append, injected corruption, or
        # on-disk rot: drop the line, keep the rest — and say so.
        self.dropped_lines += 1
        fault_span("journal-torn-line", path=str(self.path))

    # -- appending ------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        """Append one line; the caller holds the append lock."""
        append_journal_line(self.path, encode_journal_line(record))
        self.recorded += 1
        self._append_seq += 1
        if self.faults is not None and self.faults.should_inject(
            "corrupt-journal", f"append#{self._append_seq}"
        ):
            self.faults.corrupt(self.path)

    def record_admitted(self, key: str, cell: Dict[str, Any]) -> None:
        """Durably record one admitted cell **before** it is enqueued."""
        with self._lock:
            if key in self._admitted or key in self._served:
                return
            self._append({"event": "admitted", "key": key, "cell": dict(cell)})
            with self._maps:
                self._admitted[key] = dict(cell)

    def record_served(self, key: str, measurement: "PlatformMeasurement") -> None:
        """Durably record one finished cell's full payload."""
        payload = measurement.to_dict()
        with self._lock:
            if key in self._served:
                return
            self._append({"event": "served", "key": key, "measurement": payload})
            with self._maps:
                self._served.add(key)

    # -- replay ---------------------------------------------------------

    def lookup(self, key: str) -> Optional["PlatformMeasurement"]:
        """The measurement of a served line loaded at resume, or None;
        every hit counts in ``resumed_cells``."""
        hit = self._restored.get(key)  # filled once, at load
        if hit is not None:
            with self._maps:
                self.resumed_cells += 1
        return hit

    def pending(self) -> Dict[str, Dict[str, Any]]:
        """Admitted-but-unserved ``key -> cell dict``, admission order."""
        with self._maps:
            return {
                key: dict(cell)
                for key, cell in self._admitted.items()
                if key not in self._served
            }

    def __len__(self) -> int:
        return len(self._admitted) + len(self._served)

    def stats(self) -> Dict[str, Any]:
        return {
            "path": str(self.path),
            "admitted": len(self._admitted),
            "served": len(self._served),
            "pending": len(self.pending()),
            "recorded": self.recorded,
            "resumed_cells": self.resumed_cells,
            "dropped_lines": self.dropped_lines,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<RequestJournal {str(self.path)!r} admitted={len(self._admitted)} "
            f"served={len(self._served)} pending={len(self.pending())}>"
        )
