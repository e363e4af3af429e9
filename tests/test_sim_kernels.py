"""Kernel contract (:mod:`repro.sim.kernels`).

Three layers of pinning:

* **Wiring** — the kernel-routed engines hold a
  :class:`~repro.sim.kernels.numpy_backend.NumpyKernel`, no ``kernel``
  knob survives on the config or the factory, and the ``TimedKernel``
  telemetry wrapper times every op.
* **Bit-identity of the numpy kernel** — the kernel refactor moved the
  engines' inline hot loops behind the op interface; the pinned digests
  below were recorded on the pre-kernel scalar code, so any drift in the
  kernel is a test failure, not a re-pin.
* **Op semantics** — the conflict walk's vectorization is pinned directly
  against the obvious ``np.minimum.at`` semantics.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.replication import run_replication
from repro.sim import make_engine
from repro.sim.kernels import TimedKernel
from repro.sim.kernels.numpy_backend import NumpyKernel
from repro.sim.stacked import StackedFusedEngine


def replication_digest(config: ExperimentConfig, replication: int = 0) -> str:
    result = run_replication(config, replication)
    blob = json.dumps(result.to_dict(), sort_keys=True, default=float)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class TestSelection:
    def test_numpy_always_resolves(self):
        engine = StackedFusedEngine(10, 2, n_replications=2)
        assert type(engine._kernel) is NumpyKernel

    def test_config_has_no_kernel_knob(self):
        with pytest.raises(TypeError, match="kernel"):
            ExperimentConfig.for_case("case1", scale="smoke", kernel="numpy")

    def test_factory_has_no_kernel_knob(self):
        with pytest.raises(TypeError, match="kernel"):
            make_engine("turbo", 10, 2, kernel="numpy")

    def test_factory_threads_kernel_to_capable_engines(self):
        for name in ("turbo", "fused"):
            assert type(make_engine(name, 10, 2)._kernel) is NumpyKernel

    def test_non_kernel_engines_tolerate_the_defaults(self):
        for name in ("reference", "fast", "batch"):
            assert not hasattr(make_engine(name, 10, 2), "_kernel")


class TestTimedKernel:
    def test_wraps_and_times_ops(self):
        from repro.telemetry.registry import MetricsRegistry

        registry = MetricsRegistry()
        timed = TimedKernel(NumpyKernel(), registry)
        buf = np.full(7, 99, dtype=np.int64)
        # contract: pos ascending (game order), so the first writer wins
        codes = np.array([2, 2, 5], dtype=np.int64)
        pos = np.array([0, 1, 2], dtype=np.int64)
        timed.first_writer(buf, 99, codes, pos)
        expected = np.full(7, 99, dtype=np.int64)
        np.minimum.at(expected, codes, pos)
        np.testing.assert_array_equal(buf, expected)
        snapshot = registry.snapshot()
        assert snapshot["timers"]["kernel.walk_s"]["count"] == 1


class TestFirstWriterParity:
    """The conflict walk is the one op with a non-obvious vectorization
    (reversed scatter-assign standing in for ``minimum.at`` on ascending
    positions) — pin it directly against the obvious semantics."""

    @pytest.mark.parametrize("seed", [0, 7, 991])
    def test_matches_minimum_at(self, seed):
        kernel = NumpyKernel()
        rng = np.random.default_rng(seed)
        n_codes, n_events = 50, 200
        codes = rng.integers(0, n_codes, size=n_events).astype(np.int64)
        pos = np.sort(rng.integers(0, 10_000, size=n_events)).astype(np.int64)
        buf = np.empty(n_codes, dtype=np.int64)
        kernel.first_writer(buf, 1 << 60, codes, pos)
        expected = np.full(n_codes, 1 << 60, dtype=np.int64)
        np.minimum.at(expected, codes, pos)
        np.testing.assert_array_equal(buf, expected)


class TestNumpyBitIdentity:
    """The numpy kernel IS the pre-kernel engine code: digests recorded on
    the inline implementation before the refactor must keep verifying."""

    PINNED = [
        ("turbo", "case1", 1234, "68970e5a3bb396ae"),
        ("turbo", "case3", 1234, "fdd6e5abf8a9a80d"),
        ("turbo", "exchange_core", 1234, "670a6c26e4788d12"),
        ("turbo", "mobile_gauss", 7, "98d652ad93e77a57"),
        ("fused", "case1", 1234, "5d931f9d1726a965"),
        ("fused", "case3", 1234, "d3e38025ad52b233"),
        ("fused", "exchange_core", 1234, "2e6ad40dcbdf84a6"),
        ("fused", "mobile_gauss", 7, "c4af90387c207d1f"),
    ]

    @pytest.mark.parametrize("engine,case,seed,expected", PINNED)
    def test_pinned_digests(self, engine, case, seed, expected):
        config = ExperimentConfig.for_case(
            case, scale="smoke", engine=engine, seed=seed
        )
        assert replication_digest(config) == expected

    def test_config_hash_payload_has_no_kernel(self):
        config = ExperimentConfig.for_case("case1", scale="smoke")
        assert "kernel" not in config.describe()
