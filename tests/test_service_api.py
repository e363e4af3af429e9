"""HTTP-layer tests for the service: the stdlib server that ``repro serve``
runs, a thin skin over :class:`~repro.service.endpoints.Service`.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.service.app import build_httpd, build_service

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIOS_DIR = REPO_ROOT / "scenarios"


@pytest.fixture()
def http_service(tmp_path):
    """A stdlib-served service on an ephemeral port; yields the base URL."""
    service = build_service(tmp_path / "store", scenarios_dir=SCENARIOS_DIR)
    httpd = build_httpd(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}"
    finally:
        httpd.shutdown()
        httpd.server_close()
        service.runner.stop()


def _get(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _post(url: str, payload) -> tuple[int, dict]:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestStdlibBackend:
    def test_full_round_trip_with_dedupe(self, http_service):
        code, health = _get(f"{http_service}/healthz")
        assert code == 200 and health["status"] == "ok"

        code, listing = _get(f"{http_service}/scenarios")
        assert code == 200
        assert any(s["library"] == "fig4_smoke" for s in listing["scenarios"])

        code, record = _post(f"{http_service}/jobs", {"library": "fig4_smoke"})
        assert code == 201
        job_id = record["job_id"]

        # duplicate submission dedupes: 200, same content address, one job
        code, again = _post(f"{http_service}/jobs", {"library": "fig4_smoke"})
        assert code == 200 and again["job_id"] == job_id
        code, jobs = _get(f"{http_service}/jobs")
        assert code == 200 and len(jobs["jobs"]) == 1

        # stream until terminal (the worker thread runs the job meanwhile)
        with urllib.request.urlopen(
            f"{http_service}/jobs/{job_id}/stream", timeout=120
        ) as response:
            snapshots = [json.loads(line) for line in response]
        assert snapshots[-1]["state"] == "done"

        # the status payload serves the schema-validated run manifest
        from repro.utils.validation import validate_run_manifest

        code, status = _get(f"{http_service}/jobs/{job_id}")
        assert code == 200 and status["state"] == "done"
        assert validate_run_manifest(status["manifest"])

        code, result = _get(f"{http_service}/jobs/{job_id}/result")
        assert code == 200 and result["replications"]

    def test_error_paths(self, http_service):
        assert _get(f"{http_service}/jobs/{'f' * 64}")[0] == 404
        assert _get(f"{http_service}/nope")[0] == 404
        assert _post(f"{http_service}/jobs", {"library": "nope"})[0] == 400
        code, payload = _post(f"{http_service}/jobs", {"bad": "scenario"})
        assert code == 400 and "error" in payload

    def test_post_rejects_invalid_json(self, http_service):
        request = urllib.request.Request(
            f"{http_service}/jobs", data=b"{broken", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(request, timeout=30)
        assert exc.value.code == 400
