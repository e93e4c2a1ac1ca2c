"""Span tracing of a program's entry points, installed from outside it.

A :class:`Tracer` replaces functions and methods with thin wrappers that
record one span per call: layer, start, end, thread, parent span and an
optional note computed from the call's arguments and result.  Nothing
under ``src/`` is edited; :meth:`Tracer.uninstall` puts every original
binding back, so untraced runs measure the unpatched program.

Synchronous calls keep a per-thread span stack, so each span knows its
parent.  Coroutines interleave on one event loop, so they are recorded
as flat spans with no parent and no children.

:func:`attribute` turns spans into self time.  On each thread, every
instant belongs to the innermost synchronous span open at that instant;
when none is open, the coroutine spans open at that instant share it
equally; otherwise it is unattributed.  For properly nested synchronous
spans this is the usual "duration minus the time its child spans
cover", and the self times of one thread never add up to more than the
time that thread was observed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import pkgutil
import threading
import time
from collections import defaultdict
from types import ModuleType
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: One span: [id, layer, start, end, thread, parent id, is_async, note].
Span = List[Any]
Note = Optional[Callable[[tuple, Any], Any]]

ID, LAYER, START, END, THREAD, PARENT, ASYNC, NOTE = range(8)


class Tracer:
    """Records spans around wrapped callables; undoes its own patches."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        #: (container, key, original, is_item) in patch order.
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- wrapping ---------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn: Callable, note: Note = None) -> Callable:
        """A wrapper of ``fn`` that records one ``layer`` span per call."""
        spans, clock, ids = self.spans, time.perf_counter, self._ids

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                span_id = next(ids)
                start = clock()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    spans.append(
                        [span_id, layer, start, clock(), threading.get_ident(),
                         None, True, note(args, result) if note else None]
                    )

            return traced_async

        stack_of = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    [span_id, layer, start, end, threading.get_ident(),
                     parent, False, note(args, result) if note else None]
                )

        return traced

    # -- patching ---------------------------------------------------------

    def _bind(self, container: Any, key: str, value: Any, is_item: bool) -> None:
        original = container[key] if is_item else container.__dict__[key]
        self._patches.append((container, key, original, is_item))
        if is_item:
            container[key] = value
        else:
            setattr(container, key, value)

    def patch_function(
        self,
        fn: Callable,
        layer: str,
        modules: Iterable[ModuleType],
        note: Note = None,
    ) -> int:
        """Replace every module-global binding of ``fn`` with one wrapper.

        ``from x import f`` copies the binding, so the module that
        defines ``f`` is not the only place to patch: every module in
        ``modules`` is scanned for globals — and for values of
        module-level dicts, such as an experiment registry — that are
        ``fn`` itself.  Returns the bindings replaced.
        """
        wrapper = self.wrap(layer, fn, note)
        replaced = 0
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._bind(module, name, wrapper, is_item=False)
                    replaced += 1
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is fn:
                            self._bind(value, key, wrapper, is_item=True)
                            replaced += 1
        return replaced

    def patch_method(self, cls: type, name: str, layer: str, note: Note = None) -> None:
        """Replace ``cls.<name>`` (its own attribute) with a traced wrapper."""
        raw = cls.__dict__[name]
        if isinstance(raw, staticmethod):
            wrapped: Any = staticmethod(self.wrap(layer, raw.__func__, note))
        else:
            wrapped = self.wrap(layer, raw, note)
        self._bind(cls, name, wrapped, is_item=False)

    def uninstall(self) -> None:
        """Restore every binding this tracer replaced, newest first."""
        while self._patches:
            container, key, original, is_item = self._patches.pop()
            if is_item:
                container[key] = original
            else:
                setattr(container, key, original)

    @property
    def installed(self) -> int:
        return len(self._patches)


def import_package(package: str) -> List[ModuleType]:
    """Import ``package`` and every submodule, so all bindings exist."""
    root = importlib.import_module(package)
    modules = [root]
    for info in pkgutil.walk_packages(root.__path__, package + "."):
        modules.append(importlib.import_module(info.name))
    return modules


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------


def attribute(spans: Iterable[Span]) -> Tuple[Dict[str, float], Dict[int, float]]:
    """Self seconds per layer, and seconds covered per thread.

    See the module docstring for the rule.  Each thread is swept once
    over its span boundaries.
    """
    by_thread: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        by_thread[span[THREAD]].append(span)
    owned: Dict[str, float] = defaultdict(float)
    covered: Dict[int, float] = {}
    for thread, items in by_thread.items():
        events = []
        for span in items:
            events.append((span[START], 1, span))
            events.append((span[END], 0, span))
        # Ends sort before starts at the same instant, so back-to-back
        # spans never appear open together.
        events.sort(key=lambda e: (e[0], e[1]))
        open_sync: List[Span] = []
        open_async: List[Span] = []
        previous = None
        total = 0.0
        for at, is_start, span in events:
            if previous is not None and at > previous:
                dt = at - previous
                if open_sync:
                    innermost = max(open_sync, key=lambda s: (s[START], -s[END]))
                    owned[innermost[LAYER]] += dt
                    total += dt
                elif open_async:
                    share = dt / len(open_async)
                    for s in open_async:
                        owned[s[LAYER]] += share
                    total += dt
            group = open_async if span[ASYNC] else open_sync
            if is_start:
                group.append(span)
            else:
                group.remove(span)
            previous = at
        covered[thread] = total
    return dict(owned), covered


def children_index(spans: Iterable[Span]) -> Dict[Any, List[Span]]:
    """Parent span id -> its direct child spans."""
    index: Dict[Any, List[Span]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            index[span[PARENT]].append(span)
    return index


def descendants(span: Span, index: Dict[Any, List[Span]]) -> List[Span]:
    """Every span below ``span`` in the synchronous span tree."""
    out: List[Span] = []
    todo = list(index.get(span[ID], ()))
    while todo:
        child = todo.pop()
        out.append(child)
        todo.extend(index.get(child[ID], ()))
    return out
