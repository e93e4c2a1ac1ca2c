"""Property tests for the canonicalizer and cost-model fingerprints.

The result cache's correctness rests on three properties of
:mod:`repro.core.canonical`: dict key order never matters, every value
change matters, and a fingerprint computed in one process equals the
same computation in any other (no ``repr``/``id``/hash-randomization
leakage).
"""

import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.registry import available_backends, resolve_backend
from repro.core.canonical import canonical_json, canonicalize, fingerprint_of

# JSON-able leaves; text alphabet is kept printable so canonical_json's
# ascii escaping stays an implementation detail rather than a test axis.
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12),
)

_values = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)

_dicts = st.dictionaries(st.text(max_size=8), _values, min_size=1, max_size=6)


def _shuffled(d: dict, rng: random.Random) -> dict:
    keys = list(d)
    rng.shuffle(keys)
    return {k: d[k] for k in keys}


class TestKeyOrderInvariance:
    @settings(max_examples=100, deadline=None)
    @given(_dicts, st.integers(min_value=0, max_value=2**31))
    def test_permuted_dicts_fingerprint_identically(self, d, shuffle_seed):
        permuted = _shuffled(d, random.Random(shuffle_seed))
        assert fingerprint_of(permuted) == fingerprint_of(d)

    def test_nested_key_order(self):
        a = {"outer": {"x": 1, "y": {"p": 2.5, "q": [1, 2]}}, "z": 0}
        b = {"z": 0, "outer": {"y": {"q": [1, 2], "p": 2.5}, "x": 1}}
        assert fingerprint_of(a) == fingerprint_of(b)


class TestValueSensitivity:
    @settings(max_examples=100, deadline=None)
    @given(_dicts, st.data())
    def test_any_leaf_change_changes_fingerprint(self, d, data):
        key = data.draw(st.sampled_from(sorted(d)))
        changed = dict(d)
        changed[key] = (
            "__mutated__"
            if changed[key] != "__mutated__"
            else "__mutated_differently__"
        )
        assert fingerprint_of(changed) != fingerprint_of(d)

    def test_list_order_is_significant(self):
        assert fingerprint_of({"a": [1, 2]}) != fingerprint_of({"a": [2, 1]})

    def test_type_of_container_is_significant(self):
        # {} and [] must not collide even when "equally empty".
        assert fingerprint_of({"a": {}}) != fingerprint_of({"a": []})

    def test_small_float_nudges_are_visible(self):
        base = {"clock_ghz": 1.531}
        nudged = {"clock_ghz": 1.531 * (1 + 1e-15)}
        assert fingerprint_of(base) != fingerprint_of(nudged)


class TestNumpyNormalization:
    def test_numpy_scalars_equal_python_scalars(self):
        assert fingerprint_of({"n": np.int64(96)}) == fingerprint_of({"n": 96})
        assert fingerprint_of({"x": np.float64(2.5)}) == fingerprint_of({"x": 2.5})
        assert fingerprint_of({"b": np.bool_(True)}) == fingerprint_of({"b": True})

    def test_tuples_and_arrays_become_lists(self):
        assert canonicalize((1, 2)) == [1, 2]
        assert canonicalize(np.arange(3)) == [0, 1, 2]
        assert fingerprint_of({"shape": (2, 3)}) == fingerprint_of({"shape": [2, 3]})

    def test_sets_are_order_free(self):
        assert fingerprint_of({"s": {3, 1, 2}}) == fingerprint_of({"s": {2, 3, 1}})

    def test_enums_fold_to_values(self):
        from repro.core.collision import DetectionMode

        assert canonicalize(DetectionMode.SIGNED) == DetectionMode.SIGNED.value

    def test_unknown_objects_are_rejected(self):
        with pytest.raises(TypeError, match="canonicalize"):
            canonicalize(object())

    @settings(max_examples=50, deadline=None)
    @given(_values)
    def test_canonical_json_is_always_loadable(self, value):
        loaded = json.loads(canonical_json(value))
        # idempotence: canonical form of the canonical form is itself.
        assert canonical_json(loaded) == canonical_json(value)


class TestCrossProcessStability:
    def test_fingerprint_stable_in_a_fresh_interpreter(self):
        """Same value, different process (fresh hash randomization seed)."""
        payload = {
            "name": "cuda:titan-x-pascal",
            "clock": 1.531,
            "caps": (6, 1),
            "n": np.int64(3840),
            "nested": {"b": [1.5, 2], "a": "text"},
        }
        local = fingerprint_of(payload)
        src = Path(__file__).resolve().parents[2] / "src"
        code = (
            "import numpy as np\n"
            "from repro.core.canonical import fingerprint_of\n"
            "payload = {'name': 'cuda:titan-x-pascal', 'clock': 1.531,"
            " 'caps': (6, 1), 'n': np.int64(3840),"
            " 'nested': {'b': [1.5, 2], 'a': 'text'}}\n"
            "print(fingerprint_of(payload))\n"
        )
        out = subprocess.run(
            [sys.executable, "-B", "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={"PYTHONPATH": str(src), "PYTHONHASHSEED": "random", "PATH": "/usr/bin:/bin"},
        )
        assert out.stdout.strip() == local

    def test_backend_fingerprints_are_stable_within_process(self):
        for name in available_backends():
            assert resolve_backend(name).fingerprint() == resolve_backend(name).fingerprint(), name

    def test_backend_fingerprints_are_pairwise_distinct(self):
        prints = {name: resolve_backend(name).fingerprint() for name in available_backends()}
        assert len(set(prints.values())) == len(prints), prints
