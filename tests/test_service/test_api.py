"""REST front end: endpoints, NDJSON streaming, error mapping.

Everything runs against an ephemeral-port server with stdlib urllib —
the same stack a CI smoke job or a shell script with curl exercises.
"""

import http.client
import json
import urllib.error
import urllib.parse
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import ServiceServer, SimulationService, TenantQuota
from repro.service.api import MAX_BODY_BYTES


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
            ({"workers": 2, "fault_plan": "slow=0@1-3xinf"}, "'slow=0@1-3xinf'"),
            ({"rebalance_every": 3}, "needs workers >= 2"),
            ({"backend": "bogus"}, "backend must be one of auto, numpy, c"),
            ({"backend": "numba"}, "backend must be one of auto, numpy, c"),
            ({"waters": 10**9}, "waters must lie in [1, 100000]"),
            ({"ewald": True, "kmax": 17}, "kmax must be <= 16"),
            ({"temperature": -5}, "temperature must be >= 0"),
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


def raw_request(server, method, path, data=None, timeout=30):
    """``(status, body lines)`` of one request whose body is raw bytes."""
    req = urllib.request.Request(server.url + path, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read().decode().splitlines()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode().splitlines()


@pytest.fixture(scope="module")
def idle_server(tmp_path_factory):
    """A server whose scheduler admits nothing: a fuzzed spec that happens
    to be valid is queued, never run.  Holds one cancelled job to stream."""
    service = SimulationService(
        worker_slots=2, workdir=tmp_path_factory.mktemp("fuzz")
    )
    service._admit_ready = lambda: None
    srv = ServiceServer(service, port=0)
    srv.start()
    job = service.submit({"waters": 10, "steps": 1}, tenant="stream")
    service.cancel(job.id)
    srv.stream_id = job.id
    yield srv
    srv.stop()


def post_announcing(server, length, body, timeout=10):
    """``(status, error)`` of a ``POST /jobs`` whose ``Content-Length`` says
    ``length`` and whose body is ``body``."""
    url = urllib.parse.urlsplit(server.url)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=timeout)
    try:
        conn.putrequest("POST", "/jobs")
        conn.putheader("Content-Length", length)
        conn.endheaders(body)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read()).get("error", "")
    finally:
        conn.close()


class TestBoundary:
    """Malformed requests get a JSON 4xx; the server keeps answering."""

    @pytest.mark.parametrize(
        "length, body",
        [("100000000", b"ab"), (str(MAX_BODY_BYTES + 1), b" " * (MAX_BODY_BYTES + 1))],
        ids=["announced", "sent"],
    )
    def test_a_body_over_the_cap_is_413_unread(self, idle_server, length, body):
        """Refused on its ``Content-Length``: nothing waits for 100 MB."""
        code, error = post_announcing(idle_server, length, body)
        assert code == 413 and f"{MAX_BODY_BYTES}-byte cap" in error
        assert request(idle_server, "GET", "/healthz") == (200, {"ok": True})

    @pytest.mark.parametrize("length", ["-1", "abc", "1.5"])
    def test_a_bad_content_length_is_400(self, idle_server, length):
        code, error = post_announcing(idle_server, length, b"{}")
        assert code == 400 and "Content-Length must be a byte count" in error
        assert request(idle_server, "GET", "/healthz") == (200, {"ok": True})

    def test_a_body_at_the_cap_is_read(self, idle_server):
        body = {"spec": {"waters": 10, "steps": 1}, "tenant": "cap", "pad": ""}
        body["pad"] = " " * (MAX_BODY_BYTES - len(json.dumps(body)))
        data = json.dumps(body).encode()
        assert len(data) == MAX_BODY_BYTES
        assert post_announcing(idle_server, str(len(data)), data)[0] == 201

    @pytest.mark.parametrize(
        "body",
        [{"spec": 5}, {"spec": []}, b'{"spec": {}, "priority": Infinity}'],
        ids=["spec-int", "spec-list", "priority-infinity"],
    )
    def test_malformed_submit_is_400(self, idle_server, body):
        data = body if isinstance(body, bytes) else json.dumps(body).encode()
        code, lines = raw_request(idle_server, "POST", "/jobs", data)
        assert code == 400 and "error" in json.loads(lines[0])
        assert request(idle_server, "GET", "/healthz") == (200, {"ok": True})

    @pytest.mark.parametrize("offset", ["abc", "-2", "1.5", "%20"])
    def test_bad_stream_offset_is_400(self, idle_server, offset):
        path = f"/jobs/{idle_server.stream_id}/stream?from={offset}"
        code, lines = raw_request(idle_server, "GET", path)
        assert code == 400 and "from must be" in json.loads(lines[0])["error"]
        assert request(idle_server, "GET", "/healthz") == (200, {"ok": True})

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        body=st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=8),
            lambda kids: st.lists(kids, max_size=3)
            | st.dictionaries(st.text(max_size=8), kids, max_size=3),
            max_leaves=8,
        )
        | st.fixed_dictionaries(
            {},
            optional={
                "spec": st.dictionaries(
                    st.sampled_from(["waters", "steps", "workers", "seed"]),
                    st.integers(-3, 40) | st.floats() | st.text(max_size=3),
                    max_size=3,
                ),
                "tenant": st.text(max_size=8) | st.integers(),
                "priority": st.integers() | st.floats() | st.text(max_size=3),
            },
        ),
        query=st.dictionaries(
            st.sampled_from(["from", "follow", "x"]), st.text(max_size=6),
            max_size=2,
        ),
    )
    def test_fuzzed_requests_get_json_2xx_or_4xx(self, idle_server, body, query):
        # json.dumps writes NaN / Infinity for non-finite floats, as a
        # careless client would
        code, lines = raw_request(
            idle_server, "POST", "/jobs", json.dumps(body).encode()
        )
        assert 200 <= code < 500, (code, lines)
        assert isinstance(json.loads(lines[0]), dict)
        path = f"/jobs/{idle_server.stream_id}/stream?" + urllib.parse.urlencode(
            query
        )
        code, lines = raw_request(idle_server, "GET", path)
        assert 200 <= code < 500, (code, lines)
        for line in lines:
            json.loads(line)
        assert request(idle_server, "GET", "/healthz") == (200, {"ok": True})


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
