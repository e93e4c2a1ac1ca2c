"""The one cell store: tier order, promotion, crash survival, two threads.

``CellStore`` chains an in-process LRU, the ``ResultCache`` and the
checkpoint journal.  A state machine drives it through puts, gets,
reopens standing in for SIGKILL, torn journal tails and corrupted cache
entries against a model of which tier holds which cell; an interleaved
test pauses a committing thread inside ``put`` and reads the store from
another, as the service's event loop does while its dispatch thread
commits.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.backends.registry import resolve_backend
from repro.core.collision import DetectionMode
from repro.harness.cache import CellStore, ResultCache
from repro.harness.faults import FaultPlan, decode_journal_line
from repro.harness.sweep import measure_platform
from repro.service import journal as journal_module
from repro.service.journal import RequestJournal

MEMORY_CELLS = 2
#: how long the interleaved commit waits for the reader before failing.
WAIT_S = 10.0
NS = (32, 64, 96, 128)
#: real cells; the last one is never put.
CELLS = [
    (
        ResultCache.key_for(
            resolve_backend("ap:staran"),
            n=n,
            seed=2018,
            periods=1,
            mode=DetectionMode.SIGNED,
        ),
        measure_platform("ap:staran", n, periods=1, cache=False),
    )
    for n in NS
]
PUTTABLE = range(len(CELLS) - 1)


class CellStoreMachine(RuleBasedStateMachine):
    """The model: the LRU's keys in recency order, the keys with a valid
    cache entry, the keys the open journal has a line for (which dedupe
    later puts), the keys it serves (loaded at the last reopen), and the
    journal's lines on disk as ``[key, intact]`` pairs."""

    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp())
        self.lru: "OrderedDict[str, None]" = OrderedDict()
        self.in_cache: set = set()
        self.journaled: set = set()
        self.in_journal: set = set()
        self.lines: list = []
        self._open(resume=False)

    def _open(self, *, resume: bool) -> None:
        self.cache = ResultCache(self.root / "cache")
        self.journal = RequestJournal(self.root / "journal.jsonl", resume=resume)
        self.store = CellStore(
            cache=self.cache, journal=self.journal, memory_cells=MEMORY_CELLS
        )

    def _touch(self, key: str) -> None:
        self.lru[key] = None
        self.lru.move_to_end(key)
        while len(self.lru) > MEMORY_CELLS:
            self.lru.popitem(last=False)

    def teardown(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)

    @rule(i=st.sampled_from(PUTTABLE))
    def put(self, i: int) -> None:
        key, measurement = CELLS[i]
        self.store.put(key, measurement)
        self.in_cache.add(key)
        if key not in self.journaled:
            self.journaled.add(key)
            self.lines.append([key, True])
        self._touch(key)

    @rule(i=st.sampled_from(range(len(CELLS))))
    def get(self, i: int) -> None:
        key, measurement = CELLS[i]
        stores, recorded = self.cache.stores, self.journal.recorded
        hit, tier = self.store.get(key)
        if key in self.lru:
            expected = "memory"
        elif key in self.in_cache:
            expected = "cache"
        elif key in self.in_journal:
            expected = "journal"
        else:
            expected = None
        assert tier == expected
        if expected is None:
            assert hit is None
            return
        assert hit.to_dict() == measurement.to_dict()
        # A hit is copied into the faster tiers only.
        assert self.journal.recorded == recorded
        assert self.cache.stores == stores + (tier == "journal")
        if tier == "journal":
            self.in_cache.add(key)
        self._touch(key)

    @rule()
    def reopen(self) -> None:
        """SIGKILL stand-in: a new process opens the same directory."""
        self._open(resume=True)
        self.lru.clear()
        self.in_journal = {key for key, intact in self.lines if intact}
        self.journaled = set(self.in_journal)

    @precondition(lambda self: self.lines and self.lines[-1][1])
    @rule()
    def tear_last_line(self) -> None:
        """SIGKILL mid-append: the last line loses its tail."""
        path = self.journal.path
        data = path.read_bytes()
        start = data.rstrip(b"\n").rfind(b"\n") + 1
        path.write_bytes(data[: start + (len(data) - start) // 2])
        self.lines[-1][1] = False
        self.reopen()

    @precondition(lambda self: self.in_cache)
    @rule(data=st.data())
    def corrupt_cache_entry(self, data) -> None:
        key = data.draw(st.sampled_from(sorted(self.in_cache)))
        FaultPlan(seed=11).corrupt(self.cache._path(key))
        self.in_cache.discard(key)

    @invariant()
    def lru_is_bounded_and_ordered(self) -> None:
        keys = self.store.memory_keys()
        assert len(keys) <= MEMORY_CELLS
        assert keys == list(self.lru)


TestCellStoreMachine = CellStoreMachine.TestCase
TestCellStoreMachine.settings = settings(
    max_examples=50, stateful_step_count=20, deadline=None
)


@pytest.mark.parametrize("memory_cells", [0, 2])
@pytest.mark.parametrize("pause_at", ["journal-append", "cache-rename"])
def test_reader_runs_inside_a_commit(tmp_path, monkeypatch, pause_at, memory_cells):
    """The service's two threads on one store, interleaved on purpose.

    The committing thread (the dispatch thread) stops inside ``put`` —
    holding the journal's append lock before its fsynced line, or between
    the cache entry's temp write and its rename — while the main thread
    (the event loop) reads the live cell, reads a cell restored from the
    journal, reads the journal's stats and, once the append lock is
    free, appends an ``admitted`` line.  None of that may wait for the
    commit or break it: the commit thread gives up its pause after
    ``WAIT_S`` and the test fails.
    """
    (key0, m0), (key1, m1) = CELLS[0], CELLS[1]
    path = tmp_path / "journal.jsonl"
    RequestJournal(path).record_served(key0, m0)
    journal = RequestJournal(path, resume=True)
    cache = ResultCache(tmp_path / "cache")
    store = CellStore(cache=cache, journal=journal, memory_cells=memory_cells)

    paused, resume = threading.Event(), threading.Event()
    outcome: dict = {}

    def pause_here() -> None:
        if threading.current_thread() is committer and not paused.is_set():
            paused.set()
            outcome["waited"] = resume.wait(WAIT_S)

    if pause_at == "journal-append":
        real_append = journal_module.append_journal_line

        def append(target, line):
            pause_here()
            real_append(target, line)

        monkeypatch.setattr(journal_module, "append_journal_line", append)
    else:
        real_replace = os.replace
        final = cache._path(key1)

        def replace(src, dst):
            if Path(dst) == final:
                pause_here()
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)

    def commit() -> None:
        try:
            store.put(key1, m1)
        except BaseException as exc:  # noqa: BLE001 - asserted below
            outcome["error"] = exc

    committer = threading.Thread(target=commit)
    committer.start()
    assert paused.wait(WAIT_S)
    live, live_tier = store.get(key1)
    restored, restored_tier = store.get(key0)
    stats = journal.stats()
    if pause_at == "cache-rename":
        journal.record_admitted("admitted-key", {"n": 1})
    resume.set()
    committer.join(WAIT_S)

    assert not committer.is_alive() and outcome.get("waited") is True
    assert "error" not in outcome, outcome.get("error")
    # The live cell: from memory when there is an LRU, which is filled
    # first; else nowhere yet — the journal serves only what it loaded.
    if memory_cells:
        assert live_tier == "memory" and live.to_dict() == m1.to_dict()
    else:
        assert (live, live_tier) == (None, None)
    assert restored_tier == "journal" and restored.to_dict() == m0.to_dict()
    assert stats["served"] == (1 if pause_at == "journal-append" else 2)
    # Only the restored line counts as resumed, never the live cell.
    assert journal.resumed_cells == 1
    # Both cache entries are whole, and no temp file is left behind.
    fresh = ResultCache(tmp_path / "cache")
    assert fresh.get(key1).to_dict() == m1.to_dict()
    assert fresh.get(key0).to_dict() == m0.to_dict()
    assert cache.quarantined == fresh.quarantined == 0
    assert sorted(p.name for p in (tmp_path / "cache").rglob("*.tmp.*")) == []
    lines = path.read_text(encoding="utf-8").splitlines()
    assert all(decode_journal_line(line) is not None for line in lines)
    assert len(lines) == 1 + journal.recorded
    assert len(store.memory_keys()) <= memory_cells


def test_journal_serves_only_what_its_resume_loaded(tmp_path):
    """A journal keeps the measurements it loaded, not the ones it
    appends: a cell evicted from the LRU is not served by the journal
    in the process that put it, but is after a resume."""
    path = tmp_path / "journal.jsonl"
    _key, measurement = CELLS[0]
    keys = [f"cell-{i}" for i in range(6)]
    store = CellStore(journal=RequestJournal(path), memory_cells=2)
    for key in keys:
        store.put(key, measurement)
    assert store.memory_keys() == keys[-2:]
    assert store.get(keys[0]) == (None, None)
    assert store.journal.stats()["served"] == len(keys)
    store.put(keys[0], measurement)
    assert store.journal.recorded == len(keys)  # still deduped by key

    resumed = CellStore(journal=RequestJournal(path, resume=True), memory_cells=2)
    hit, tier = resumed.get(keys[0])
    assert tier == "journal" and hit.to_dict() == measurement.to_dict()
    assert resumed.journal.resumed_cells == 1
