import importlib
import json
import sys
from pathlib import Path

import layers
import run
from tracer import LAYER, Tracer

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _bindings():
    """Identity snapshot of every module global, module-level dict value
    and class attribute reachable from the loaded ``repro`` modules,
    keyed by (container, name)."""
    snap = {}
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            snap[(id(module), attr)] = value
            if type(value) is dict:
                for key, item in list(value.items()):
                    snap[(id(value), key)] = item
            if isinstance(value, type):
                for key, item in list(vars(value).items()):
                    snap[(id(value), key)] = item
    return snap


def test_uninstall_restores_every_patched_binding():
    from tracer import import_package

    import_package("repro")
    before = _bindings()
    tracer = Tracer()
    layers.install(tracer)
    assert tracer.installed > len(layers.FUNCTIONS) + len(layers.METHODS)
    patched = _bindings()
    assert sum(1 for k, v in before.items() if patched.get(k) is not v) == tracer.installed
    tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_wrapped_program_gives_the_same_result_and_records_layers():
    sweep = importlib.import_module("repro.harness.sweep")
    measure_platform = sweep.measure_platform
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = sweep.measure_platform(
            "cuda:titan-x-pascal", 96, seed=11, periods=1, cache=False
        ).to_dict()
    finally:
        tracer.uninstall()
    assert sweep.measure_platform is measure_platform
    # The unwrapped direct path must give the same bytes (no trace memo).
    plain = measure_platform("cuda:titan-x-pascal", 96, seed=11, periods=1, cache=False, trace=False)
    assert traced == plain.to_dict()
    seen = {s[LAYER] for s in tracer.spans}
    assert {"harness.sweep", "core.trace", "core.setup", "cuda.replay", "core.tracking"} <= seen


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads(BENCHMARK.read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(layers.metric_units())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.RUNNERS)


def test_benchmark_json_states_the_fixed_settings():
    import service

    whys = {w["name"]: w["why"] for w in json.loads(BENCHMARK.read_text())["workloads"]}
    for name, (default, held_out) in run.SEEDS.items():
        assert f"Seeds: {default} default, {held_out} held out" in whys[name]
    assert f"{service.RATE_PER_S:g} req/s" in whys["service"]
    assert f"<= {service.LATENCY_LIMIT_MS:g} ms" in whys["service"]

