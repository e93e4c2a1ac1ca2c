"""The backend protocol every simulated architecture implements.

A *backend* is one platform from the paper's comparison: a specific
NVIDIA card, the ClearSpeed SIMD, the STARAN associative processor, the
16-core Xeon, or the plain NumPy reference.  All of them:

* mutate the :class:`~repro.core.types.FleetState` with **bit-identical
  results** (the algorithms are the same; only the machine differs), and
* return a :class:`~repro.core.types.TaskTiming` whose ``seconds`` field
  is the *modelled* execution time on that architecture.

The functional-equivalence requirement is what lets the repository test
all four machine models against the reference oracle.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Dict

from ..core.collision import DetectionMode
from ..core.types import FleetState, RadarFrame, TaskTiming

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.trace import CollisionRecord, TracePeriod

__all__ = ["Backend"]


class Backend(abc.ABC):
    """Abstract architecture backend for the three ATM tasks."""

    #: registry identifier, e.g. ``"cuda:titan-x-pascal"``.
    name: str = "abstract"

    #: True when repeated runs on identical input produce identical
    #: modelled times (the paper's determinism property; False for MIMD).
    deterministic_timing: bool = True

    @abc.abstractmethod
    def track_and_correlate(self, fleet: FleetState, frame: RadarFrame) -> TaskTiming:
        """Run Task 1 in place; return the platform's modelled timing."""

    @abc.abstractmethod
    def detect_and_resolve(
        self,
        fleet: FleetState,
        mode: DetectionMode = DetectionMode.SIGNED,
    ) -> TaskTiming:
        """Run fused Task 2+3 in place; return modelled timing."""

    # ------------------------------------------------------------------
    # trace replay (cost-only re-execution)
    # ------------------------------------------------------------------

    def track_timing_from_trace(self, period: "TracePeriod") -> TaskTiming:
        """Charge the Task-1 ledger from one recorded trace period.

        Must return a :class:`TaskTiming` byte-identical (after canonical
        JSON serialization) to what :meth:`track_and_correlate` returns
        on the fleet/frame state the period was recorded from.  The sweep
        harness measures every cell through this pair of methods (see
        docs/performance.md), so every measured backend implements them.
        """
        raise NotImplementedError(f"{self.name} does not support trace replay")

    def collision_timing_from_trace(self, collision: "CollisionRecord") -> TaskTiming:
        """Charge the Task-2+3 ledger from the recorded collision pass."""
        raise NotImplementedError(f"{self.name} does not support trace replay")

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    def _task_span(self, task: str, n_aircraft: int):
        """Open the mandatory per-invocation tracing span (see repro.obs).

        Every backend wraps its task body in ``with self._task_span(...)``
        so a profile of *any* platform shows the same top-level tree:
        one ``task1``/``task23`` span per invocation, category ``task``,
        with wall time recorded automatically and modelled time
        attributed by the backend.  A no-op when no collector is active.
        """
        from ..obs import span

        return span(task, cat="task", platform=self.name, n_aircraft=n_aircraft)

    def describe(self) -> Dict[str, Any]:
        """Human-readable platform description (overridden per machine).

        Always includes ``peak_throughput_ops_per_s``; the reference
        backend's 0.0 sentinel ("not a machine model") is reported as
        the number it is — consumers must not divide by it blindly.
        """
        return {
            "name": self.name,
            "deterministic_timing": self.deterministic_timing,
            "peak_throughput_ops_per_s": self.peak_throughput_ops_per_s(),
        }

    def peak_throughput_ops_per_s(self) -> float:
        """Peak useful-operation throughput, for §7.2-style normalization.

        Subclasses return their architecture's peak rate (e.g. CUDA
        cores x clock, PEs x clock).  The reference backend reports 0.0
        meaning "not a machine model".
        """
        return 0.0

    # ------------------------------------------------------------------
    # cost-model fingerprint (see docs/parallel-and-caching.md)
    # ------------------------------------------------------------------

    def fingerprint_payload(self) -> Dict[str, Any]:
        """The data the cost-model fingerprint is computed over.

        ``describe()`` is the contract surface here: every constant that
        feeds a backend's timing model must appear in its description
        (clocks, core/PE counts, per-op costs, block size, ...), because
        the result cache treats two backends with equal payloads as
        interchangeable.  The package version is included so a release
        that recalibrates models invalidates all prior cache entries.
        The payload is not canonicalized here: its consumers hash it
        through :func:`~repro.core.canonical.fingerprint_of`, which does.
        """
        from .. import __version__

        return {"describe": self.describe(), "library_version": __version__}

    def fingerprint(self) -> str:
        """Stable hex digest of :meth:`fingerprint_payload`.

        Equal across processes and dict key orderings; changed by any
        edit to the values ``describe()`` reports (and nothing else).
        """
        from ..core.canonical import fingerprint_of

        return fingerprint_of(self.fingerprint_payload())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name!r}>"
