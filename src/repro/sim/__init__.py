"""Simulation engines.

Five interchangeable implementations of the tournament semantics:

* :class:`repro.sim.reference.ReferenceEngine` — object-oriented, built from
  the auditable :mod:`repro.game` / :mod:`repro.core` pieces, supports event
  observation;
* :class:`repro.sim.fast.FastEngine` — flat-array hot loop for large
  reproduction sweeps;
* :class:`repro.sim.batch.BatchEngine` — struct-of-arrays numpy state with
  batched tournament-schedule drawing, the fastest *bit-identical* engine
  and the default (``ExperimentConfig.engine``);
* :class:`repro.sim.turbo.TurboEngine` — speculative round-vectorized engine
  under a **statistical** (distributional) equivalence contract: vectorized
  tournament draws and per-round game slates with conflict replay, validated
  by ``tests/test_engine_statistical.py`` rather than the bit-identity suite;
* :class:`repro.sim.fused.FusedEngine` — turbo's slate kernel widened to a
  whole generation: all tournaments of a generation are planned and executed
  as one stacked round-major pass (same statistical contract, one more
  tolerated relaxation: cross-tournament round lockstep).
  :func:`repro.tournament.evaluation.evaluate_generation` dispatches to its
  ``run_generation`` entry point via ``supports_generation_fusion``.

All engines support every path oracle (random/topology/mobile) and the
second-hand reputation-exchange extension.  The engines named in
:data:`BIT_IDENTICAL_ENGINES` consume randomness through the shared path
oracle and scheduler only and produce bit-identical trajectories under
identical seeds (see ``tests/test_engine_equivalence.py``); ``turbo``
reproduces the same outcome *distributions* (cooperation, fitness, Tables
5-9 aggregates) without replaying the same trajectories.
"""

from repro.sim.batch import BatchEngine
from repro.sim.fast import FastEngine
from repro.sim.fused import FusedEngine
from repro.sim.reference import ReferenceEngine
from repro.sim.stacked import StackedFusedEngine
from repro.sim.turbo import TurboEngine

__all__ = [
    "ReferenceEngine",
    "FastEngine",
    "BatchEngine",
    "TurboEngine",
    "FusedEngine",
    "StackedFusedEngine",
    "ENGINES",
    "BIT_IDENTICAL_ENGINES",
    "make_engine",
]

#: Engine registry, keyed by the ``--engine`` selector name.
ENGINES = {
    "reference": ReferenceEngine,
    "fast": FastEngine,
    "batch": BatchEngine,
    "turbo": TurboEngine,
    "fused": FusedEngine,
}

#: Engines guaranteed to produce identical trajectories under identical
#: seeds.  ``turbo`` is deliberately absent: its contract is statistical
#: equivalence (same outcome distributions, different trajectories).
BIT_IDENTICAL_ENGINES = ("reference", "fast", "batch")


def make_engine(
    name: str,
    n_population: int,
    max_selfish: int,
    trust_table=None,
    activity=None,
    payoffs=None,
):
    """Factory: build an engine by name (``"reference"``, ``"fast"``,
    ``"batch"``, ``"turbo"`` or ``"fused"``)."""
    from repro.core.payoff import PayoffConfig
    from repro.reputation.activity import ActivityClassifier
    from repro.reputation.trust import TrustTable

    trust_table = trust_table if trust_table is not None else TrustTable()
    activity = activity if activity is not None else ActivityClassifier()
    payoffs = payoffs if payoffs is not None else PayoffConfig()
    cls = ENGINES.get(name)
    if cls is None:
        raise ValueError(
            f"unknown engine {name!r} (expected one of {sorted(ENGINES)})"
        )
    return cls(n_population, max_selfish, trust_table, activity, payoffs)
