"""REST front end: endpoints, NDJSON streaming, error mapping.

Everything runs against an ephemeral-port server with stdlib urllib —
the same stack a CI smoke job or a shell script with curl exercises.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.service import ServiceServer, SimulationService, TenantQuota


@pytest.fixture
def server(tmp_path):
    service = SimulationService(
        worker_slots=2, lanes=2, slice_steps=3, workdir=tmp_path
    )
    srv = ServiceServer(service, port=0)
    srv.start()
    yield srv
    srv.stop()


def request(server, method, path, body=None, timeout=60):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(
        server.url + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def stream(server, job_id, query="?follow=1", timeout=120):
    url = server.url + f"/jobs/{job_id}/stream{query}"
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        assert resp.headers["Content-Type"] == "application/x-ndjson"
        return [json.loads(line) for line in resp.read().decode().splitlines()]


class TestEndpoints:
    def test_healthz(self, server):
        assert request(server, "GET", "/healthz") == (200, {"ok": True})

    def test_submit_stream_and_detail(self, server):
        code, sub = request(
            server,
            "POST",
            "/jobs",
            {"spec": {"waters": 15, "steps": 5, "seed": 1, "traj_every": 2},
             "tenant": "a"},
        )
        assert code == 201
        jid = sub["id"]
        records = stream(server, jid)
        steps = [r["step"] for r in records if r["type"] == "step"]
        assert steps == [1, 2, 3, 4, 5]
        frames = [r for r in records if r["type"] == "frame"]
        assert frames[-1]["final"] is True
        # offset streaming returns the suffix only
        tail = stream(server, jid, query="?from=4&follow=1")
        assert tail == records[4:]
        code, detail = request(server, "GET", f"/jobs/{jid}")
        assert code == 200
        assert detail["state"] == "completed"
        assert detail["spec"]["waters"] == 15
        code, listing = request(server, "GET", "/jobs?tenant=a")
        assert code == 200 and len(listing["jobs"]) == 1

    def test_stats(self, server):
        code, stats = request(server, "GET", "/stats")
        assert code == 200
        assert stats["budget"]["total"] == 2

    def test_bad_spec_maps_to_400(self, server):
        code, body = request(
            server, "POST", "/jobs", {"spec": {"bogus": 1}}
        )
        assert code == 400 and "unknown spec field" in body["error"]
        code, body = request(server, "POST", "/jobs", {})
        assert code == 400 and "spec" in body["error"]
        for spec, message in (
            ({"waters": "abc"}, "waters must be int"),
            ({"workers": 2, "lb_strategy": "nope"}, "unknown LB strategy"),
            ({"workers": 2, "fault_plan": "kill=zz"}, "bad fault_plan"),
            ({"workers": 2, "fault_plan": "kill=5@1"}, "targets worker 5"),
            ({"rebalance_every": 3}, "needs workers >= 2"),
            ({"backend": "bogus"}, "backend must be one of auto, numpy, c"),
            ({"backend": "numba"}, "backend must be one of auto, numpy, c"),
        ):
            code, body = request(server, "POST", "/jobs", {"spec": spec})
            assert code == 400 and message in body["error"], (spec, body)

    def test_unknown_job_maps_to_404(self, server):
        code, body = request(server, "GET", "/jobs/nope")
        assert code == 404
        code, _ = request(server, "GET", "/not/a/resource")
        assert code == 404
        code, _ = request(server, "POST", "/jobs/nope/cancel")
        assert code == 404

    def test_suspend_resume_cancel_over_rest(self, server):
        code, sub = request(
            server,
            "POST",
            "/jobs",
            {"spec": {"waters": 15, "steps": 400, "seed": 2,
                      "checkpoint_every": 10}},
        )
        jid = sub["id"]
        code, body = request(server, "POST", f"/jobs/{jid}/suspend")
        assert code == 200
        server.service.wait(jid, ["suspended"], timeout=60)
        code, body = request(server, "POST", f"/jobs/{jid}/resume")
        # the scheduler thread may re-admit the job before the handler
        # serializes the response, so "running" is as valid as "queued"
        assert code == 200 and body["state"] in ("queued", "running")
        code, body = request(server, "POST", f"/jobs/{jid}/cancel")
        assert code == 200
        server.service.wait(jid, ["cancelled"], timeout=60)


class TestQuotaOverRest:
    def test_429_through_http(self, tmp_path):
        service = SimulationService(
            worker_slots=2,
            workdir=tmp_path,
            default_quota=TenantQuota(max_queued=0),
        )
        srv = ServiceServer(service, port=0)
        srv.start()
        try:
            code, body = request(
                srv, "POST", "/jobs", {"spec": {"waters": 10, "steps": 1}}
            )
            assert code == 429 and "max_queued=0" in body["error"]
        finally:
            srv.stop()


class TestShutdownEndpoint:
    def test_post_shutdown_stops_server(self, tmp_path):
        service = SimulationService(worker_slots=2, workdir=tmp_path)
        srv = ServiceServer(service, port=0)
        srv.start()
        code, body = request(srv, "POST", "/shutdown")
        assert code == 200 and body == {"stopping": True}
        assert srv.wait(timeout=30)
        # idempotent double-stop
        srv.stop()
