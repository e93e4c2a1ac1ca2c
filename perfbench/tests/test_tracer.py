import asyncio
import types

import pytest

from tracer import ASYNC, LAYER, PARENT, Tracer, attribute


def span(i, layer, start, end, thread=1, parent=None, is_async=False):
    return [i, layer, start, end, thread, parent, is_async, None]


def test_nested_sync_self_time_excludes_children():
    spans = [
        span(0, "A", 0.0, 10.0),
        span(1, "B", 1.0, 4.0, parent=0),
        span(2, "C", 2.0, 3.0, parent=1),
        span(3, "D", 5.0, 8.0, parent=0),
    ]
    owned, covered = attribute(spans)
    assert owned == pytest.approx({"A": 4.0, "B": 2.0, "C": 1.0, "D": 3.0})
    assert covered == pytest.approx({1: 10.0})


def test_overlapping_async_spans_share_time_and_yield_to_sync_work():
    spans = [
        span(0, "X", 0.0, 6.0, is_async=True),
        span(1, "Y", 2.0, 10.0, is_async=True),
        span(2, "S", 3.0, 4.0),
    ]
    owned, covered = attribute(spans)
    assert owned == pytest.approx({"X": 3.5, "Y": 5.5, "S": 1.0})
    assert sum(owned.values()) == pytest.approx(covered[1]) == pytest.approx(10.0)


def test_threads_are_attributed_separately_and_gaps_are_unowned():
    spans = [
        span(0, "A", 0.0, 1.0, thread=1),
        span(1, "A", 2.0, 3.0, thread=1),  # back to back with nothing: a gap
        span(2, "B", 0.5, 2.5, thread=2),
    ]
    owned, covered = attribute(spans)
    assert owned == pytest.approx({"A": 2.0, "B": 2.0})
    assert covered == pytest.approx({1: 2.0, 2: 2.0})


def _fake_modules():
    m1 = types.ModuleType("fake_one")
    exec(
        "def g(x):\n    return x + 1\n\n"
        "def f(x):\n    return g(x) * 2\n",
        m1.__dict__,
    )
    m2 = types.ModuleType("fake_two")
    m2.g_alias = m1.g
    m2.REGISTRY = {"g": m1.g, "other": len}
    return m1, m2


def test_patch_function_replaces_every_binding_and_uninstall_restores_them():
    m1, m2 = _fake_modules()
    f, g = m1.f, m1.g
    tracer = Tracer()
    assert tracer.patch_function(g, "inner", [m1, m2]) == 3
    assert tracer.patch_function(f, "outer", [m1, m2]) == 1
    assert m2.g_alias is m1.g is m2.REGISTRY["g"] is not g
    assert m1.f(1) == 4 and m2.REGISTRY["g"](1) == 2
    by_layer = {}
    for s in tracer.spans:
        by_layer.setdefault(s[LAYER], []).append(s)
    outer = by_layer["outer"][0]
    assert by_layer["inner"][0][PARENT] == outer[0]
    assert outer[PARENT] is None and by_layer["inner"][1][PARENT] is None
    tracer.uninstall()
    assert m1.f is f and m1.g is g and m2.g_alias is g and m2.REGISTRY["g"] is g
    assert tracer.installed == 0


def test_methods_static_methods_and_coroutines():
    class Thing:
        @staticmethod
        def key(x):
            return f"k{x}"

        async def work(self, x):
            await asyncio.sleep(0)
            return Thing.key(x)

    raw_key, raw_work = Thing.__dict__["key"], Thing.__dict__["work"]
    tracer = Tracer()
    tracer.patch_method(Thing, "key", "keys", note=lambda args, result: result)
    tracer.patch_method(Thing, "work", "works")
    assert asyncio.run(Thing().work(3)) == "k3"
    keys = [s for s in tracer.spans if s[LAYER] == "keys"]
    works = [s for s in tracer.spans if s[LAYER] == "works"]
    assert keys[0][-1] == "k3" and not keys[0][ASYNC]
    # The coroutine is flat: no parent, and the sync call inside it is a root.
    assert works[0][ASYNC] and works[0][PARENT] is None and keys[0][PARENT] is None
    tracer.uninstall()
    assert Thing.__dict__["key"] is raw_key and Thing.__dict__["work"] is raw_work
