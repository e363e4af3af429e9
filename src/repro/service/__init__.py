"""Simulation-as-a-service: content-addressed job store, runner, and API.

The service is three thin layers over the experiment core, sharing the
scenario DSL (:mod:`repro.scenarios`) with the CLI:

* :class:`~repro.service.store.ResultStore` — a durable, content-addressed
  store: every job is keyed by the full telemetry-excluded ``config_hash``
  of its resolved scenario, so identical submissions dedupe into one run
  and one stored result, and job records survive process restarts.
* :class:`~repro.service.runner.JobRunner` — the execution loop: jobs move
  queued → running → done/failed; each run writes a canonical result
  payload plus a schema-validated telemetry run manifest (the status
  payload — there is no second reporting path), checkpoints into a shared
  store, and resumes from intact checkpoints after a crash bit-identically.
* :class:`~repro.service.endpoints.Service` — the framework-neutral HTTP
  surface (submit/status/result/stream/scenarios), served by a stdlib
  ``http.server`` skin (:mod:`repro.service.app`, ``repro serve``).
"""

from repro.service.endpoints import Service
from repro.service.runner import JobRunner
from repro.service.store import ResultStore

__all__ = ["ResultStore", "JobRunner", "Service"]
