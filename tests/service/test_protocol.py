"""Schema validation of the service wire protocol (docs/service.md)."""

from __future__ import annotations

import json

import pytest

from repro.harness.cache import CellStore, ResultCache
from repro.backends.registry import resolve_backend
from repro.core.collision import DetectionMode
from repro.core.sweepline import PRUNE_MIN_N
from repro.harness.parallel import _probe_stores, current_options
from repro.service.protocol import (
    MAX_SERVED_N,
    CellRequest,
    ProtocolError,
    parse_cell_request,
    parse_sweep_request,
    payload_bytes,
)


class TestParseCellRequest:
    def test_minimal_request_gets_batch_defaults(self):
        req = parse_cell_request({"platform": "ap:staran", "n": 96})
        assert req == CellRequest(platform="ap:staran", n=96)
        assert (req.seed, req.periods, req.mode) == (2018, 3, "signed")

    def test_full_request_round_trips(self):
        req = parse_cell_request(
            {
                "platform": "cuda:titan-x-pascal",
                "n": 480,
                "seed": 7,
                "periods": 2,
                "mode": "paper-abs",
            }
        )
        assert req.detection_mode is DetectionMode.PAPER_ABS
        assert req.compat_key == (7, 2, "paper-abs")

    @pytest.mark.parametrize(
        "body",
        [
            "not a dict",
            {"n": 96},
            {"platform": "no-such-platform", "n": 96},
            {"platform": "ap:staran"},
            {"platform": "ap:staran", "n": 0},
            {"platform": "ap:staran", "n": MAX_SERVED_N + 1},
            {"platform": "ap:staran", "n": True},
            {"platform": "ap:staran", "n": "96"},
            {"platform": "ap:staran", "n": 96, "periods": 0},
            {"platform": "ap:staran", "n": 96, "seed": -1},
            {"platform": "ap:staran", "n": 96, "mode": "bogus"},
        ],
    )
    def test_invalid_bodies_raise_protocol_error(self, body):
        with pytest.raises(ProtocolError):
            parse_cell_request(body)

    def test_cache_key_matches_the_batch_harness(self):
        """The service keys a cell as the sweep engine commits it under
        the default options, below and at the pruning threshold."""
        backend = resolve_backend("ap:staran")
        opts = current_options()
        for n in (96, PRUNE_MIN_N - 1, PRUNE_MIN_N):
            req = parse_cell_request({"platform": "ap:staran", "n": n})
            key, hit = _probe_stores(
                "ap:staran",
                backend,
                n,
                seed=2018,
                periods=3,
                mode=DetectionMode.SIGNED,
                pruning=opts.pruning,
                jobs=opts.jobs,
                store=CellStore(memory_cells=1),
            )
            assert hit is None
            assert req.cache_key() == key, n
            if n < PRUNE_MIN_N:
                # Below the threshold the key is the unpruned one, as before.
                assert key == ResultCache.key_for(
                    backend, n=n, seed=2018, periods=3, mode=DetectionMode.SIGNED
                )


class TestParseSweepRequest:
    def test_cross_product_in_matrix_order(self):
        cells = parse_sweep_request(
            {"platforms": ["ap:staran", "mimd:xeon-16"], "ns": [96, 192]}
        )
        assert [(c.platform, c.n) for c in cells] == [
            ("ap:staran", 96),
            ("ap:staran", 192),
            ("mimd:xeon-16", 96),
            ("mimd:xeon-16", 192),
        ]
        assert len({c.compat_key for c in cells}) == 1

    @pytest.mark.parametrize(
        "body",
        [
            {"platforms": [], "ns": [96]},
            {"platforms": ["ap:staran"], "ns": []},
            {"platforms": ["ap:staran"], "ns": [96.5]},
            {"platforms": "ap:staran", "ns": [96]},
            {"platforms": ["ap:staran"], "ns": [0]},
            {"platforms": ["no-such"], "ns": [96]},
        ],
    )
    def test_invalid_sweeps_raise_protocol_error(self, body):
        with pytest.raises(ProtocolError):
            parse_sweep_request(body)

    def test_oversized_sweep_is_a_protocol_error(self):
        with pytest.raises(ProtocolError):
            parse_sweep_request(
                {"platforms": ["ap:staran"] * 65, "ns": list(range(1, 65))}
            )


class TestPayloadBytes:
    def test_matches_the_report_serializer(self):
        data = {"b": 2.5, "a": [1, 2], "nested": {"z": None, "y": "s"}}
        assert payload_bytes(data) == json.dumps(
            data, indent=2, sort_keys=True
        ).encode("utf-8")

    def test_requests_are_hashable_identity_keys(self):
        a = parse_cell_request({"platform": "ap:staran", "n": 96})
        b = parse_cell_request({"platform": "ap:staran", "n": 96, "seed": 2018})
        assert a == b and len({a, b}) == 1
