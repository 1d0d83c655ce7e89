"""Stdlib REST front end for :class:`~repro.service.scheduler.SimulationService`.

No framework — a :class:`http.server.ThreadingHTTPServer` whose handler
threads only call the service's thread-safe surface.  Endpoints:

====== ============================== =======================================
GET    ``/healthz``                   liveness probe
GET    ``/stats``                     scheduler/budget/tenant counters
GET    ``/jobs[?tenant=t]``           job summaries
POST   ``/jobs``                      submit ``{"spec": {...}, "tenant",
                                      "priority"}`` → 201, 400 on a bad
                                      spec / tenant / priority or
                                      ``Content-Length``, 413 over
                                      :data:`MAX_BODY_BYTES`, 429 over
                                      quota
GET    ``/jobs/<id>``                 full job detail
GET    ``/jobs/<id>/stream``          NDJSON records; ``?from=N`` offsets
                                      (400 unless an index >= 0),
                                      ``&follow=1`` long-polls until the
                                      job is terminal or suspended
POST   ``/jobs/<id>/suspend``         checkpoint-and-release at the next
                                      slice boundary
POST   ``/jobs/<id>/resume``          re-enqueue a suspended job
POST   ``/jobs/<id>/cancel``          stop and discard
POST   ``/shutdown``                  stop accepting work, stop the server
====== ============================== =======================================

Streaming writes one JSON object per line and flushes per record, so a
client following a live job sees steps as they complete.  A job's
``workers`` are threads of the server process (worker processes only for
a spec with a ``fault_plan``); the ``worker_slots`` in ``/stats`` and job
details count cores leased by running jobs, not processes.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.service.jobs import JobState
from repro.service.quotas import QuotaError
from repro.service.scheduler import SimulationService

__all__ = ["ServiceServer", "serve"]

#: follow-mode poll interval — bounds stream latency, not correctness
_STREAM_POLL_S = 0.05

#: how often the listener checks for a stop request, which bounds
#: ``stop()``: the stdlib default of 0.5 s would make every stop wait that long
_SHUTDOWN_POLL_S = 0.05

#: the largest request body read: a submission is a few hundred bytes, and
#: a handler buffers all that ``Content-Length`` announces before parsing
MAX_BODY_BYTES = 64 * 1024


class _BodyTooLarge(ValueError):
    """A ``Content-Length`` over :data:`MAX_BODY_BYTES` (HTTP 413)."""


class _Handler(BaseHTTPRequestHandler):
    """One request; ``server.service`` is the shared scheduler."""

    protocol_version = "HTTP/1.1"

    # quiet by default; the CLI flips this for --verbose
    def log_message(self, fmt, *args):  # noqa: D102 - stdlib signature
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    @property
    def service(self) -> SimulationService:
        return self.server.service  # type: ignore[attr-defined]

    # ------------------------------------------------------------------ #
    def _json(self, status: int, payload) -> None:
        body = (json.dumps(payload) + "\n").encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._json(status, {"error": message})

    def _read_body(self) -> dict:
        # the length is judged before a byte of the body is read; a refused
        # body stays unread, and would be taken for the next request, so
        # the connection goes with it
        text = self.headers.get("Content-Length") or "0"
        if not (text.isascii() and text.isdigit()):
            self.close_connection = True
            raise ValueError(f"Content-Length must be a byte count, not {text!r}")
        length = int(text)
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            raise _BodyTooLarge(
                f"request body of {length} bytes is over the "
                f"{MAX_BODY_BYTES}-byte cap"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        data = json.loads(raw.decode())
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - stdlib name
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = {k: v[-1] for k, v in parse_qs(url.query).items()}
        try:
            if parts == ["healthz"]:
                self._json(200, {"ok": True})
            elif parts == ["stats"]:
                self._json(200, self.service.stats())
            elif parts == ["jobs"]:
                jobs = self.service.jobs(tenant=query.get("tenant"))
                self._json(200, {"jobs": [j.summary() for j in jobs]})
            elif len(parts) == 2 and parts[0] == "jobs":
                self._json(200, self.service.get(parts[1]).detail())
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "stream":
                self._stream(parts[1], query)
            else:
                self._error(404, f"no such resource {url.path!r}")
        except KeyError as exc:
            self._error(404, str(exc))
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream
        except ValueError as exc:  # a bad query, refused before any body
            self._error(400, str(exc))

    def do_POST(self) -> None:  # noqa: N802 - stdlib name
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        try:
            if parts == ["jobs"]:
                self._submit()
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] in (
                "suspend",
                "resume",
                "cancel",
            ):
                getattr(self.service, parts[2])(parts[1])
                self._json(200, self.service.get(parts[1]).summary())
            elif parts == ["shutdown"]:
                self._json(200, {"stopping": True})
                # shut down off-thread: this handler *is* a server thread
                threading.Thread(
                    target=self.server.stop,  # type: ignore[attr-defined]
                    daemon=True,
                ).start()
            else:
                self._error(404, f"no such resource {self.path!r}")
        except KeyError as exc:
            self._error(404, str(exc))
        except QuotaError as exc:
            self._error(429, str(exc))
        except _BodyTooLarge as exc:
            self._error(413, str(exc))
        except (ValueError, TypeError) as exc:
            self._error(400, str(exc))

    # ------------------------------------------------------------------ #
    def _submit(self) -> None:
        body = self._read_body()
        spec = body.get("spec")
        if spec is None:
            raise ValueError('body must carry a "spec" object')
        job = self.service.submit(
            spec,
            tenant=body.get("tenant", "default"),
            priority=body.get("priority", 0),
        )
        self._json(201, job.summary())

    def _stream(self, job_id: str, query: dict) -> None:
        job = self.service.get(job_id)  # KeyError → 404 before headers
        start = query.get("from", "0")
        if not (start.isascii() and start.isdigit()):
            raise ValueError(f"from must be a record index >= 0, not {start!r}")
        start = int(start)
        follow = query.get("follow", "0") not in ("0", "", "false")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        # stream length is unknown up front; close delimits the body
        self.send_header("Connection", "close")
        self.end_headers()
        sent = start
        idle_states = TERMINAL_OR_SUSPENDED
        while True:
            records = self.service.records(job_id, start=sent)
            for rec in records:
                self.wfile.write((json.dumps(rec) + "\n").encode())
            if records:
                self.wfile.flush()
            sent += len(records)
            if not follow or job.state in idle_states:
                # one more drain so records landing while we checked state
                # are not lost
                tail = self.service.records(job_id, start=sent)
                for rec in tail:
                    self.wfile.write((json.dumps(rec) + "\n").encode())
                self.wfile.flush()
                break
            time.sleep(_STREAM_POLL_S)


#: stream follow-mode stops once the job can emit nothing more
TERMINAL_OR_SUSPENDED = frozenset(
    {
        JobState.COMPLETED,
        JobState.FAILED,
        JobState.CANCELLED,
        JobState.SUSPENDED,
    }
)


class ServiceServer:
    """A :class:`SimulationService` behind a threading HTTP server."""

    def __init__(
        self,
        service: SimulationService,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self._httpd.service = service  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._httpd.stop = self.stop  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None
        self._stopped = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        """Bound (host, port) — port is concrete even when 0 was asked."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        """Start the scheduler and serve requests on a background thread."""
        if self._thread is not None:
            return
        self.service.start()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            args=(_SHUTDOWN_POLL_S,),
            name="repro-http",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the HTTP listener, then the scheduler (idempotent)."""
        if self._stopped.is_set():
            return
        self._stopped.set()
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        self.service.shutdown()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until :meth:`stop` ran (e.g. via POST /shutdown)."""
        return self._stopped.wait(timeout)

    def __enter__(self) -> "ServiceServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve(
    service: SimulationService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> ServiceServer:
    """Start a server for ``service``; returns it running."""
    server = ServiceServer(service, host=host, port=port, verbose=verbose)
    server.start()
    return server
