"""Deterministic fault injection, retry policy and sweep checkpointing.

The paper's headline claim is about *dependability*: the AP and the
GPUs never miss an ATM deadline while the Xeon MIMD regularly does
(Section 6.2).  A harness that silently aborts — or silently recomputes
— when a pool worker dies or a cache file rots cannot credibly measure
that.  This module gives the sweep engine the same first-class fault
story the modelled machines get:

* :class:`FaultPlan` — a seeded, **deterministic** injector.  Given the
  same seed and rates it makes the same inject/skip decision for every
  ``(kind, shard, attempt)`` triple, in every process, so chaos tests
  are exactly reproducible and ``atm-repro report --inject-faults SPEC``
  can be replayed bit for bit.  Kinds: ``crash`` (the worker process
  dies), ``timeout`` (the worker hangs past the shard deadline),
  ``oserror`` (a transient ``OSError``), ``corrupt-result`` /
  ``corrupt-trace`` (a stored cache / trace entry is bit-flipped on
  disk after the write).  The service layer adds ``reset`` / ``stall``
  / ``corrupt-journal`` (:data:`SERVICE_FAULT_KINDS`), realised by
  ``atm-repro serve --inject-faults`` instead of the sweep engine.
* :class:`RetryPolicy` — bounded retries with a deterministic
  exponential backoff and an optional per-try timeout, consulted by
  the one attempt loop of :func:`repro.harness.parallel.measure_cells`.
* the journal line helpers — self-verifying, fsynced JSONL lines — of
  the one checkpoint journal,
  :class:`~repro.service.journal.RequestJournal`.  After a crash or
  SIGKILL, ``atm-repro report --resume`` serves finished cells from it
  and recomputes only the unfinished ones.

Because every measurement cell is a pure function of its arguments,
**a retried shard produces the same bytes as an untroubled one** — the
chaos suite (``tests/harness/test_faults.py``) asserts that a sweep
run under injected crashes, hangs and corruption stays byte-identical
to a fault-free serial run.  Every failure path emits a
``harness.fault`` span on the :mod:`repro.obs` collector and counts
its kind in the ``atm_faults`` metric.  See ``docs/robustness.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Union

from ..core.canonical import fingerprint_of
from ..obs import span as obs_span
from ..obs.metrics import metric_inc

__all__ = [
    "FAULT_KINDS",
    "SERVICE_FAULT_KINDS",
    "FaultPlan",
    "RetryPolicy",
    "decode_journal_line",
    "encode_journal_line",
    "fault_span",
    "parse_fault_spec",
]

#: Every injectable fault kind, in the order the executor probes them.
#: The first five are realised by the batch sweep engine; the service
#: layer adds connection resets, stalled handlers and journal bit-flips
#: (``atm-repro serve --inject-faults``, docs/service.md).
FAULT_KINDS = (
    "crash",
    "timeout",
    "oserror",
    "corrupt-result",
    "corrupt-trace",
    "reset",
    "stall",
    "corrupt-journal",
)

#: Fault kinds realised by the service front-end rather than the sweep
#: engine: ``reset`` (the connection is dropped before the response is
#: written), ``stall`` (the handler sleeps ``hang_s`` before answering)
#: and ``corrupt-journal`` (one bit of the request journal is flipped
#: after an append — the torn line must be detected and dropped on
#: resume, never half-read).
SERVICE_FAULT_KINDS = ("reset", "stall", "corrupt-journal")

#: Fault kinds that are realised *inside* a pool worker process (the
#: parent decides, the worker obeys — workers stay pure functions of
#: their argument tuple, exactly like the trace payloads).
WORKER_FAULT_KINDS = ("crash", "timeout", "oserror")


def fault_span(kind: str, **attrs: Any) -> None:
    """Emit one ``harness.fault`` span and count it as ``atm_faults{kind}``.

    Every failure path in the harness funnels through here, so a single
    ``report --trace`` shows exactly which shard faulted, how, and on
    which attempt.
    """
    with obs_span("harness.fault", cat="harness", kind=kind, **attrs):
        pass
    metric_inc("atm_faults", kind=kind)


# ---------------------------------------------------------------------------
# retry / backoff policy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """How the sweep engine's attempt loop reacts when a unit fails.

    Backoff is deterministic on purpose — ``backoff_s * 2**attempt``
    with no jitter — so two runs of the same chaos plan retry on the
    same schedule and the determinism contract extends to the fault
    path.
    """

    #: tries per unit where it runs — on the pool, then in the parent
    #: if the pool gives up on it; also how often one sweep's pool may
    #: break before the parent runs every unit left.
    max_attempts: int = 3
    #: base of the exponential backoff slept before each retry.
    backoff_s: float = 0.05
    #: deadline of one pool try, trace prefetch or cell; None waits
    #: forever (timeouts then only arise from injected hangs in tests).
    timeout_s: Optional[float] = None

    def backoff_for(self, attempt: int) -> float:
        """Seconds to sleep before retry number ``attempt`` (0-based)."""
        return self.backoff_s * (2.0 ** max(0, int(attempt)))

    def jittered_backoff_for(
        self,
        attempt: int,
        *,
        seed: int,
        key: str,
        cap_s: Optional[float] = None,
    ) -> float:
        """Capped exponential backoff with **deterministic** jitter.

        The service load generator spreads retry storms with jitter but
        must stay replayable, so the jitter factor is the same SHA-256
        draw the fault injector uses — a pure function of ``(seed, key,
        attempt)``, never a live RNG.  The returned delay is uniform in
        ``[base/2, base)`` where ``base`` is :meth:`backoff_for` capped
        at ``cap_s``.
        """
        base = self.backoff_for(attempt)
        if cap_s is not None:
            base = min(base, float(cap_s))
        return base * (0.5 + 0.5 * _draw(seed, "backoff-jitter", key, attempt))


# ---------------------------------------------------------------------------
# the deterministic injector
# ---------------------------------------------------------------------------


def _draw(seed: int, kind: str, key: str, attempt: int) -> float:
    """Uniform [0, 1) draw, a pure function of its arguments."""
    digest = hashlib.sha256(
        f"{seed}|{kind}|{key}|{attempt}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class FaultPlan:
    """Seeded decision table: which shard faults, how, on which attempt.

    ``rates`` maps a fault kind (see :data:`FAULT_KINDS`) to an
    injection probability.  A decision is the SHA-256 hash of
    ``(seed, kind, shard key, attempt)`` mapped onto [0, 1) and compared
    against the rate — no hidden state, no RNG object, so the same plan
    gives the same answers in any process and in any order of queries
    (the property tests pin this).

    By default only attempt 0 of a shard can fault
    (``faulted_attempts=1``): the first retry always succeeds, which is
    what makes "byte-identical to a fault-free run" testable end to
    end.  Raise ``faulted_attempts`` (``attempts=N`` in the spec) to
    exercise retry exhaustion and pool→inline degradation.
    """

    rates: Mapping[str, float] = field(default_factory=dict)
    seed: int = 0
    #: attempts 0..faulted_attempts-1 may fault; later retries run clean.
    faulted_attempts: int = 1
    #: how long an injected hang sleeps in the worker (must exceed the
    #: executor's ``timeout_s`` to register as a timeout).
    hang_s: float = 2.0

    def __post_init__(self) -> None:
        unknown = sorted(set(self.rates) - set(FAULT_KINDS))
        if unknown:
            raise ValueError(
                f"unknown fault kinds {unknown}; known: {list(FAULT_KINDS)}"
            )
        bad = {k: r for k, r in self.rates.items() if not 0.0 <= float(r) <= 1.0}
        if bad:
            raise ValueError(f"fault rates must be within [0, 1]: {bad}")

    # -- decisions ------------------------------------------------------

    def should_inject(self, kind: str, key: str, attempt: int = 0) -> bool:
        """Deterministically decide one ``(kind, shard, attempt)`` triple."""
        if attempt >= self.faulted_attempts:
            return False
        rate = float(self.rates.get(kind, 0.0))
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return _draw(self.seed, kind, key, attempt) < rate

    def worker_fault(
        self, key: str, attempt: int, kinds: Sequence[str] = WORKER_FAULT_KINDS
    ) -> Optional[str]:
        """The fault directive to ship to a pool worker, or None.

        Probes ``kinds`` (by default every :data:`WORKER_FAULT_KINDS`)
        in order, so at most one fault fires per attempt.
        """
        for kind in kinds:
            if self.should_inject(kind, key, attempt):
                return kind
        return None

    # -- corruption -----------------------------------------------------

    def corrupt(self, path: Union[str, Path]) -> None:
        """Flip one deterministic bit of the file at ``path``.

        The flipped position is a pure function of the plan seed and
        the file name, so repeated runs corrupt the same byte — and the
        store's SHA-256 verification must catch it either way.
        """
        path = Path(path)
        data = bytearray(path.read_bytes())
        if not data:
            data = bytearray(b"\x00")
        pos = int(_draw(self.seed, "corrupt-position", path.name, 0) * len(data))
        pos = min(pos, len(data) - 1)
        data[pos] ^= 0x01
        path.write_bytes(bytes(data))
        metric_inc("atm_faults", kind="corrupt")

    # -- serialization --------------------------------------------------

    def to_spec(self) -> str:
        """The ``--inject-faults`` spec string reproducing this plan."""
        parts = [f"{k}={self.rates[k]:g}" for k in FAULT_KINDS if k in self.rates]
        parts.append(f"seed={self.seed}")
        if self.faulted_attempts != 1:
            parts.append(f"attempts={self.faulted_attempts}")
        if self.hang_s != 2.0:
            parts.append(f"hang={self.hang_s:g}")
        return ",".join(parts)


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse an ``--inject-faults`` spec into a :class:`FaultPlan`.

    Grammar: comma-separated ``kind=rate`` entries (kinds from
    :data:`FAULT_KINDS`, rates in [0, 1]) plus the optional knobs
    ``seed=N``, ``attempts=N`` (how many attempts may fault) and
    ``hang=SECONDS`` (injected hang duration)::

        crash=0.5,timeout=0.25,corrupt-result=1,seed=7
    """
    rates: Dict[str, float] = {}
    seed = 0
    faulted_attempts = 1
    hang_s = 2.0
    for raw in spec.split(","):
        entry = raw.strip()
        if not entry:
            continue
        name, sep, value = entry.partition("=")
        name = name.strip()
        if not sep:
            raise ValueError(f"bad fault spec entry {entry!r}: expected kind=rate")
        try:
            if name == "seed":
                seed = int(value)
            elif name == "attempts":
                faulted_attempts = int(value)
            elif name == "hang":
                hang_s = float(value)
            elif name in FAULT_KINDS:
                rates[name] = float(value)
            else:
                raise ValueError(
                    f"unknown fault kind {name!r}; known: {list(FAULT_KINDS)}"
                    " plus seed=/attempts=/hang="
                )
        except ValueError as exc:
            if "unknown fault kind" in str(exc) or "expected kind" in str(exc):
                raise
            raise ValueError(f"bad fault spec entry {entry!r}: {exc}") from None
    return FaultPlan(
        rates=rates, seed=seed, faulted_attempts=faulted_attempts, hang_s=hang_s
    )


# ---------------------------------------------------------------------------
# the checkpoint journal
# ---------------------------------------------------------------------------


def encode_journal_line(record: Mapping[str, Any]) -> str:
    """One self-verifying journal line (no trailing newline).

    The line carries its own ``sha256`` digest of the whole record, so
    a line torn by SIGKILL mid-write — or rotted on disk — is detected
    and dropped by :func:`decode_journal_line`, never half-read.
    """
    body = {k: v for k, v in record.items() if k != "sha256"}
    body["sha256"] = fingerprint_of(body)
    return json.dumps(body, sort_keys=True)


def decode_journal_line(line: str) -> Optional[Dict[str, Any]]:
    """Parse and verify one journal line; None when torn or tampered."""
    try:
        record = json.loads(line)
        if not isinstance(record, dict):
            raise ValueError("journal line is not an object")
        digest = record["sha256"]
        body = {k: v for k, v in record.items() if k != "sha256"}
        if digest != fingerprint_of(body):
            raise ValueError("journal line digest mismatch")
    except (ValueError, KeyError, TypeError):
        return None
    return record


def append_journal_line(path: Union[str, Path], line: str) -> None:
    """Append one line, flushed **and fsynced** before returning.

    Only after the fsync may the caller treat the record as durable.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(line + "\n")
        fh.flush()
        os.fsync(fh.fileno())
