"""Durable request journal for the sweep service (docs/service.md).

The batch harness survives SIGKILL because every finished cell is
checkpointed in a :class:`~repro.harness.faults.SweepJournal`.  The
service needs the same guarantee one layer up: **no admitted request is
ever lost**, even when the process dies mid-burst.  The
:class:`RequestJournal` gives the server a write-ahead log with the
same line-digest/torn-line discipline as the sweep journal (shared
helpers in :mod:`repro.harness.faults`):

* ``admitted`` lines are appended — flushed and fsynced — *before* an
  admitted cell enters the dispatch queue, so the admission decision is
  durable before any client could observe it.
* ``served`` lines carry the full measurement payload once the cell
  finishes, digest-verified exactly like a sweep-journal line.

On ``atm-repro serve --resume`` the journal is replayed: ``served``
measurements are restored straight into the in-process memory tier, and
``admitted``-but-never-``served`` cells are re-enqueued through the
normal batch dispatcher.  Because every measurement cell is a pure
function of ``(platform, n, seed, periods, mode)``, a replayed cell
produces **byte-identical** response payloads to the uninterrupted run
— the chaos suite (``tests/service/test_chaos.py``) SIGKILLs a live
server mid-burst and proves it.

Torn lines (SIGKILL mid-append, or an injected ``corrupt-journal``
bit-flip) are detected by the per-line digest and dropped — counted,
never half-read.  A dropped ``admitted`` line is safe: its client never
got an acknowledgement, and re-requesting recomputes the same bytes.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, Optional, Union

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
    """Write-ahead journal of admitted and served service cells.

    One JSON line per event, each carrying its own content digest::

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
        #: appends this run (the corrupt-journal injection key).
        self._append_seq = 0
        #: key -> validated cell dict, in admission order.
        self._admitted: Dict[str, Dict[str, Any]] = {}
        #: key -> measurement payload dict.
        self._served: Dict[str, Dict[str, Any]] = {}
        if self.resume:
            self._load()
        elif self.path.exists():
            self.path.unlink()

    # -- loading --------------------------------------------------------

    def _load(self) -> None:
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return
        except OSError:
            fault_span("io-error", path=str(self.path))
            return
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
            elif event == "served" and isinstance(record.get("measurement"), dict):
                self._served[key] = record["measurement"]
            else:
                self._drop_line()

    def _drop_line(self) -> None:
        # A torn tail from SIGKILL mid-append, injected corruption, or
        # on-disk rot: drop the line, keep the rest — and say so.
        self.dropped_lines += 1
        fault_span("journal-torn-line", path=str(self.path))

    # -- appending ------------------------------------------------------

    def _append(self, record: Dict[str, Any]) -> None:
        append_journal_line(self.path, encode_journal_line(record))
        self.recorded += 1
        self._append_seq += 1
        if self.faults is not None and self.faults.should_inject(
            "corrupt-journal", f"append#{self._append_seq}"
        ):
            self.faults.corrupt(self.path)

    def record_admitted(self, key: str, cell: Dict[str, Any]) -> None:
        """Durably record one admitted cell **before** it is enqueued."""
        if key in self._admitted or key in self._served:
            return
        self._admitted[key] = dict(cell)
        self._append({"event": "admitted", "key": key, "cell": dict(cell)})

    def record_served(self, key: str, measurement: "PlatformMeasurement") -> None:
        """Durably record one finished cell's full payload."""
        if key in self._served:
            return
        payload = measurement.to_dict()
        self._served[key] = payload
        self._append({"event": "served", "key": key, "measurement": payload})

    # -- replay ---------------------------------------------------------

    def lookup(self, key: str) -> Optional["PlatformMeasurement"]:
        """The journaled measurement under ``key``, or None."""
        payload = self._served.get(key)
        if payload is None:
            return None
        from ..harness.sweep import PlatformMeasurement

        return PlatformMeasurement.from_dict(payload)

    def served_items(self) -> Dict[str, Dict[str, Any]]:
        """Every served ``key -> measurement payload`` (loaded + new)."""
        return dict(self._served)

    def pending(self) -> Dict[str, Dict[str, Any]]:
        """Admitted-but-unserved ``key -> cell dict``, admission order."""
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
            "dropped_lines": self.dropped_lines,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<RequestJournal {str(self.path)!r} admitted={len(self._admitted)} "
            f"served={len(self._served)} pending={len(self.pending())}>"
        )
