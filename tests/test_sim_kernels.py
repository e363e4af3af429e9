"""Kernel contract (:mod:`repro.sim.kernels`).

Four layers of pinning:

* **Wiring** — the kernel-routed engines hold a
  :class:`~repro.sim.kernels.numpy_backend.NumpyKernel`, no ``kernel``
  knob survives on the config or the factory, and the ``TimedKernel``
  telemetry wrapper times every op.
* **Bit-identity of the numpy kernel** — the kernel refactor moved the
  engines' inline hot loops behind the op interface; the pinned digests
  below were recorded on the pre-kernel scalar code, so any drift in the
  kernel is a test failure, not a re-pin.
* **Op semantics** — the conflict walk's vectorization is pinned directly
  against the obvious ``np.minimum.at`` semantics, and the sparse
  ``commit`` against the dense full-matrix formula it replaced.
* **Write-path invariants** — the ``known`` / ``pf_sum`` caches the sparse
  commit updates incrementally, and the conflict-walk buffer's resting
  fill, hold after every round of every engine path.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.strategy import Strategy
from repro.experiments.config import ExperimentConfig
from repro.experiments.replication import run_replication, run_replications_stacked
from repro.game.stats import TournamentStats
from repro.paths.distributions import LONGER_PATHS
from repro.paths.oracle import RandomPathOracle
from repro.reputation.exchange import ExchangeConfig
from repro.sim import make_engine
from repro.sim.fused import FusedEngine
from repro.sim.kernels import KernelState, TimedKernel
from repro.sim.kernels.numpy_backend import NumpyKernel
from repro.sim.stacked import StackedFusedEngine
from repro.sim.turbo import TurboEngine


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
    positions) — pin it directly against the obvious semantics.  The
    buffer holds ``fill`` on entry: callers keep it there between rounds."""

    @pytest.mark.parametrize("seed", [0, 7, 991])
    def test_matches_minimum_at(self, seed):
        kernel = NumpyKernel()
        rng = np.random.default_rng(seed)
        n_codes, n_events = 50, 200
        codes = rng.integers(0, n_codes, size=n_events).astype(np.int64)
        pos = np.sort(rng.integers(0, 10_000, size=n_events)).astype(np.int64)
        buf = np.full(n_codes, 1 << 60, dtype=np.int64)
        kernel.first_writer(buf, 1 << 60, codes, pos)
        expected = np.full(n_codes, 1 << 60, dtype=np.int64)
        np.minimum.at(expected, codes, pos)
        np.testing.assert_array_equal(buf, expected)


def kernel_state(ps: np.ndarray, pf: np.ndarray) -> KernelState:
    """A state bundle with just the reputation fields ``commit`` touches,
    caches derived from the matrices."""
    blank = KernelState(*([None] * len(KernelState._fields)))
    return blank._replace(
        ps=ps,
        pf=pf,
        ps_flat=ps.reshape(-1),
        pf_flat=pf.reshape(-1),
        known=np.count_nonzero(ps, axis=1).astype(np.int64),
        pf_sum=pf.sum(axis=1),
    )


def dense_commit(state: KernelState, pairs, pf_pairs) -> None:
    """The pre-sparse ``commit``: full-matrix bincounts and wholesale cache
    recomputes — the oracle the sparse form must reproduce exactly."""
    ps_flat, pf_flat = state.ps_flat, state.pf_flat
    mm = ps_flat.size
    ps_flat += np.bincount(pairs, minlength=mm)
    pf_flat += np.bincount(pf_pairs, minlength=mm)
    state.known[:] = np.count_nonzero(state.ps, axis=1)
    state.pf_sum[:] = state.pf.sum(axis=1)


class TestCommitParity:
    """The sparse commit equals the dense formula it replaced, cell for
    cell and cache for cache, across successive batches."""

    @pytest.mark.parametrize("m", [3, 100, 520])
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_matches_dense_commit(self, m, dtype, seed):
        rng = np.random.default_rng(seed)
        # start from a sparse, already-populated state with pf <= ps
        ps = np.where(rng.random((m, m)) < 0.05, rng.integers(1, 9, (m, m)), 0)
        pf = rng.integers(0, ps + 1)
        sparse = kernel_state(ps.copy(), pf.copy())
        dense = kernel_state(ps.copy(), pf.copy())
        kernel = NumpyKernel()
        # an empty batch first, then batches whose codes repeat heavily and
        # hit both fresh and already-nonzero cells
        for n_pairs in [0, 1, 2 * m, 5 * m, 3]:
            pairs = rng.integers(0, m * m, size=n_pairs).astype(dtype)
            if n_pairs:
                pairs[: n_pairs // 3] = pairs[0]
            pf_pairs = pairs[rng.random(n_pairs) < 0.6]
            kernel.commit(sparse, pairs, pf_pairs)
            dense_commit(dense, pairs, pf_pairs)
            for field in ("ps", "pf", "known", "pf_sum"):
                np.testing.assert_array_equal(
                    getattr(sparse, field), getattr(dense, field), err_msg=field
                )


def all_forward_engine(name="fused", n_pop=16, n_csn=4):
    """An all-forward population: on long paths every hop decides, so
    rounds conflict often enough to take the second-chance pass."""
    engine = make_engine(name, n_pop, n_csn)
    engine.set_strategies([Strategy.all_forward() for _ in range(n_pop)])
    return engine


def seatings_for(engine, n_tournaments, seed=3):
    rng = np.random.default_rng(seed)
    n_pop, n_csn = engine.n_population, engine.max_selfish
    return [
        [int(v) for v in rng.permutation(n_pop)] + engine.selfish_ids(n_csn)
        for _ in range(n_tournaments)
    ]


def assert_caches_consistent(engine) -> None:
    assert np.array_equal(engine.known, np.count_nonzero(engine.ps, axis=1))
    assert np.array_equal(engine.pf_sum, engine.pf.sum(axis=1))


@pytest.fixture
def round_audit(monkeypatch):
    """Check after every round pass that the reputation caches match the
    matrices and the conflict-walk buffer is back at its fill value."""
    audit = {"rounds": 0, "second_chance": 0}
    process_round = TurboEngine._process_round
    second_chance = FusedEngine._second_chance

    def audited_round(self, ctx, *args):
        process_round(self, ctx, *args)
        assert_caches_consistent(self)
        assert (ctx.writer_buf == ctx.walk_fill).all()
        audit["rounds"] += 1

    def counted_second_chance(self, *args):
        audit["second_chance"] += 1
        second_chance(self, *args)

    monkeypatch.setattr(TurboEngine, "_process_round", audited_round)
    monkeypatch.setattr(FusedEngine, "_second_chance", counted_second_chance)
    return audit


class TestWritePathInvariants:
    """Sparse commit relies on every writer keeping ``known`` and
    ``pf_sum`` exact, and the conflict walk on every round resetting the
    codes it scattered; both hold round by round on every engine path."""

    def test_turbo_tournament(self, round_audit):
        engine = all_forward_engine("turbo")
        oracle = RandomPathOracle(np.random.default_rng(5), LONGER_PATHS)
        engine.reset_generation()
        for seating in seatings_for(engine, 3):
            engine.run_tournament(seating, 8, oracle, TournamentStats())
        assert round_audit["rounds"] == 24

    def test_fused_generation_with_second_chance(self, round_audit):
        engine = all_forward_engine()
        oracle = RandomPathOracle(np.random.default_rng(5), LONGER_PATHS)
        engine.reset_generation()
        engine.run_generation(seatings_for(engine, 6), 10, oracle, TournamentStats())
        assert round_audit["rounds"] == 10
        assert round_audit["second_chance"] > 0
        assert engine._second_chance_games > 0

    def test_stacked_generation(self, round_audit):
        config = ExperimentConfig.for_case(
            "case3", scale="smoke", engine="fused", seed=7, replications=2
        )
        run_replications_stacked(config)
        assert round_audit["rounds"] > 0

    def test_exchange_fallback(self, round_audit):
        engine = all_forward_engine()
        oracle = RandomPathOracle(np.random.default_rng(5), LONGER_PATHS)
        engine.reset_generation()
        engine.run_generation(
            seatings_for(engine, 3),
            9,
            oracle,
            TournamentStats(),
            ExchangeConfig(enabled=True, interval=3, fanout=2),
            np.random.default_rng(17),
        )
        assert round_audit["rounds"] == 27
        # the last round ends in an exchange step, after the audit
        assert_caches_consistent(engine)


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
