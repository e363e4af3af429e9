"""Compute kernels for the speculative engines.

The turbo/fused/stacked engines are numpy-orchestrated, but their inner
loops fall into five narrow, state-free *ops* — path rating, the per-round
decision gather/scatter, the first-writer conflict walk, the batched
reputation commit, and the exact scalar conflict-replay with its watchdog
recurrence.  :class:`~repro.sim.kernels.numpy_backend.NumpyKernel`
implements them bit-identically to the historical inline implementation
(pinned by ``tests/test_sim_kernels.py``), with the reputation write path
made O(pairs written) per round.

:class:`TimedKernel` wraps the kernel with per-op telemetry timers
(``kernel.decision_s`` / ``kernel.replay_s`` / ``kernel.watchdog_s`` / ...)
so kernel time stays attributable in a ``--telemetry`` run's manifest
(``repro stats``); engines only apply it when telemetry is enabled, preserving the
zero-overhead contract.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["KernelState", "TimedKernel"]


class KernelState(NamedTuple):
    """The engine state a kernel op may read or mutate, as one bundle.

    Array fields are *views* of the owning engine's arrays (mutated in
    place by ``commit`` / ``watchdog`` / ``replay_decide``); scalars are
    the engine's trust/activity/payoff parameters.  Engines rebuild the
    bundle per entry point — allocation is a handful of references.
    """

    ps: np.ndarray  # (m, m) int64 — packets seen, observer x subject
    pf: np.ndarray  # (m, m) int64 — packets forwarded
    ps_flat: np.ndarray  # the (m*m,) views the gather/scatter ops use
    pf_flat: np.ndarray
    known: np.ndarray  # (m,) int64 — nonzero ps cells per observer
    pf_sum: np.ndarray  # (m,) int64 — row sums of pf
    strat_flat: np.ndarray  # (m * STRATEGY_LENGTH,) int8, CSN rows zero
    csn_lookup: np.ndarray  # (m,) bool — is this id a selfish seat?
    b0: float  # trust bounds (4-level table)
    b1: float
    b2: float
    band: float  # activity band
    fwd_pay: np.ndarray  # (4,) float64 — forward payoff by trust level
    disc_pay: np.ndarray  # (4,) float64 — discard payoff by trust level
    default_trust: int
    src_success: float
    src_failure: float
    send_pay: np.ndarray  # (m,) float64 — per-node payoff accumulators
    n_sent: np.ndarray  # (m,) int64
    fwd_pay_acc: np.ndarray
    n_fwd: np.ndarray
    disc_pay_acc: np.ndarray
    n_disc: np.ndarray


class TimedKernel:
    """Per-op telemetry timing around a kernel.

    One timer per op, named ``kernel.<op>_s``; engines install the wrapper
    only when telemetry is enabled, so the disabled path never pays it.
    """

    def __init__(self, inner, registry):
        self._inner = inner
        self._rate = registry.timer("kernel.rate_s")
        self._decision = registry.timer("kernel.decision_s")
        self._walk = registry.timer("kernel.walk_s")
        self._commit = registry.timer("kernel.commit_s")
        self._replay = registry.timer("kernel.replay_s")
        self._watchdog = registry.timer("kernel.watchdog_s")

    def rate_paths(self, state, cells, pad):
        with self._rate.time():
            return self._inner.rate_paths(state, cells, pad)

    def decide(self, state, jc, valid, cells_dec, trust, unknown, fwd, decided, success):
        with self._decision.time():
            return self._inner.decide(
                state, jc, valid, cells_dec, trust, unknown, fwd, decided, success
            )

    def first_writer(self, buf, fill, codes, pos):
        with self._walk.time():
            self._inner.first_writer(buf, fill, codes, pos)

    def commit(self, state, pairs, pf_pairs):
        with self._commit.time():
            self._inner.commit(state, pairs, pf_pairs)

    def replay_decide(self, state, source, nodes, lens, req, delivered, csn_free):
        with self._replay.time():
            return self._inner.replay_decide(
                state, source, nodes, lens, req, delivered, csn_free
            )

    def watchdog(self, state, source, deciders, flags, success):
        with self._watchdog.time():
            self._inner.watchdog(state, source, deciders, flags, success)
