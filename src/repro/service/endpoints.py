"""Framework-neutral service endpoints.

Every endpoint is a plain method returning ``(status_code, payload)``;
the stdlib server in :mod:`repro.service.app` is a thin skin over this one
class, so the endpoints are testable without HTTP.

The status payload for a finished job embeds its schema-validated
telemetry run manifest (written by
:func:`repro.telemetry.manifest.write_run_manifest` during execution):
job reporting *is* the telemetry layer, not a second bookkeeping path.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.service.runner import JobRunner

__all__ = ["Service"]

Response = tuple[int, dict]


class Service:
    """The submit/status/result/stream surface over a :class:`JobRunner`."""

    def __init__(
        self,
        runner: JobRunner,
        scenarios_dir: str | Path | None = None,
    ):
        self.runner = runner
        #: committed scenario library served by ``GET /scenarios`` and
        #: accepted in submissions as ``{"library": "<file stem>"}``
        self.scenarios_dir = (
            Path(scenarios_dir) if scenarios_dir is not None else None
        )

    # -- helpers --------------------------------------------------------------

    def _status_payload(self, record: Mapping[str, Any]) -> dict:
        payload = dict(record)
        manifest = self.runner.store.load_manifest(record)
        if manifest is not None:
            payload["manifest"] = manifest
        return payload

    def _library_payload(self, name: str) -> dict:
        from repro.scenarios import list_scenarios, load_scenario

        if self.scenarios_dir is None:
            raise ValueError("this service has no scenario library configured")
        for path in list_scenarios(self.scenarios_dir):
            if path.stem == name:
                return load_scenario(path)
        raise ValueError(f"unknown library scenario {name!r}")

    # -- endpoints ------------------------------------------------------------

    def healthz(self) -> Response:
        return 200, {"status": "ok", "counters": dict(self.runner.counters)}

    def list_scenarios(self) -> Response:
        if self.scenarios_dir is None:
            return 200, {"scenarios": []}
        from repro.scenarios import list_scenarios, load_scenario

        entries = []
        for path in list_scenarios(self.scenarios_dir):
            try:
                payload = load_scenario(path)
            except ValueError:
                continue  # the schema gate owns rejecting bad library files
            entries.append(
                {
                    "library": path.stem,
                    "name": payload["name"],
                    "case": payload["case"],
                    "scale": payload["scale"],
                    "description": payload["description"],
                }
            )
        return 200, {"scenarios": entries}

    def list_jobs(self) -> Response:
        return 200, {"jobs": self.runner.store.list_records()}

    def submit(self, body: Any) -> Response:
        """``POST /jobs``: a full scenario payload, or ``{"library": name}``.

        201 when new work was enqueued, 200 for a dedupe hit — either way
        the body is the job record (its ``job_id`` is the config hash).
        """
        if not isinstance(body, Mapping):
            return 400, {"error": "submission body must be a JSON object"}
        try:
            if set(body) == {"library"}:
                payload: Mapping[str, Any] = self._library_payload(
                    str(body["library"])
                )
            else:
                payload = body
            record, created = self.runner.submit(payload)
        except ValueError as exc:
            return 400, {"error": str(exc)}
        return (201 if created else 200), dict(record)

    def status(self, job_id: str) -> Response:
        """``GET /jobs/{id}``: the record, plus the run manifest when done."""
        record = self.runner.store.load_record(job_id)
        if record is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        return 200, self._status_payload(record)

    def result(self, job_id: str) -> Response:
        """``GET /jobs/{id}/result``: the canonical result payload."""
        record = self.runner.store.load_record(job_id)
        if record is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        if record["state"] != "done":
            return 409, {
                "error": f"job is {record['state']}, result not available"
            }
        result = self.runner.store.load_result(job_id)
        if result is None:
            return 500, {"error": "result file missing or unreadable"}
        return 200, result

    def stream(
        self,
        job_id: str,
        poll_s: float = 0.2,
        timeout_s: float = 600.0,
    ) -> Iterator[dict]:
        """``GET /jobs/{id}/stream``: status snapshots until terminal.

        Yields the status payload whenever the state changes (and once
        immediately), ending after a ``done``/``failed`` snapshot or when
        ``timeout_s`` expires — ndjson framing is the HTTP layer's job.
        """
        deadline = time.monotonic() + timeout_s
        last_state = None
        while time.monotonic() < deadline:
            record = self.runner.store.load_record(job_id)
            if record is None:
                yield {"error": f"unknown job {job_id!r}"}
                return
            if record["state"] != last_state:
                last_state = record["state"]
                yield self._status_payload(record)
                if last_state in ("done", "failed"):
                    return
            time.sleep(poll_s)
        yield {"error": f"stream timed out after {timeout_s}s"}
