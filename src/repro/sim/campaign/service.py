"""HTTP status endpoint and the long-running campaign service.

Pure stdlib (``http.server``): a threading server whose handlers only
*read* the store (WAL keeps readers non-blocking) and the result cache.
The JSON schema below is the contract — tests lint it against the
handler output and against docs/CAMPAIGNS.md so the three can't drift.

Routes::

    GET /healthz                       -> {"ok": true}
    GET /v1/status                     -> service + per-campaign summaries
    GET /v1/campaigns                  -> {"campaigns": [name, ...]}
    GET /v1/campaigns/<name>           -> campaign_progress() document
    GET /v1/campaigns/<name>/merged    -> merged_partial() document

Unknown paths and unknown campaigns answer 404 with a JSON error body;
non-GET methods answer 405.  :class:`CampaignService` wraps the server
with a worker-subprocess fleet and a lease-expiry sweeper — the
``repro serve`` process.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import IO, Dict, List, Optional

from repro.sim.campaign.aggregate import campaign_progress, merged_partial
from repro.sim.campaign.store import CampaignStore
from repro.sim.runner.cache import ResultCache

#: The status JSON contract, keyed by route.  Tests assert the handler
#: emits exactly these keys and that docs/CAMPAIGNS.md documents each.
STATUS_SCHEMA: Dict[str, List[str]] = {
    "/healthz": ["ok"],
    "/v1/status": ["service", "campaigns"],
    "/v1/status#service": ["store", "cache", "uptime_seconds", "time"],
    "/v1/campaigns": ["campaigns"],
    "/v1/campaigns/<name>": [
        "campaign", "counts", "total", "progress", "dead_letters",
    ],
    "/v1/campaigns/<name>/merged": [
        "campaign", "total", "merged_over", "merged_metrics",
        "merged_timeseries",
    ],
    "error": ["error"],
}


class _StatusHandler(BaseHTTPRequestHandler):
    """Read-only JSON views over one store + cache (set on the server)."""

    server_version = "repro-campaign/1"

    # Handlers run on ThreadingHTTPServer worker threads; the store opens
    # a thread-local SQLite connection per handler thread automatically.
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        try:
            status, document = self._route(self.path)
        except Exception as exc:  # defensive: a handler bug must not hang
            status, document = 500, {"error": f"{type(exc).__name__}: {exc}"}
        body = json.dumps(document, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_POST(self) -> None:  # noqa: N802
        body = json.dumps({"error": "read-only endpoint; use GET"}).encode()
        self.send_response(405)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *_args) -> None:
        """Silence per-request stderr lines (the service logs itself)."""

    # ------------------------------------------------------------------
    def _route(self, path: str):
        store: CampaignStore = self.server.store      # type: ignore[attr-defined]
        cache: ResultCache = self.server.cache        # type: ignore[attr-defined]
        started: float = self.server.started          # type: ignore[attr-defined]
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            return 200, {"ok": True}
        if path == "/v1/status":
            return 200, {
                "service": {
                    "store": str(store.path),
                    "cache": str(cache.directory),
                    "uptime_seconds": time.time() - started,
                    "time": time.time(),
                },
                "campaigns": [
                    campaign_progress(store, name)
                    for name in store.campaigns()
                ],
            }
        if path == "/v1/campaigns":
            return 200, {"campaigns": store.campaigns()}
        parts = path.split("/")
        # /v1/campaigns/<name>[/merged]
        if len(parts) in (4, 5) and parts[1] == "v1" and parts[2] == "campaigns":
            name = parts[3]
            if name not in store.campaigns():
                return 404, {"error": f"unknown campaign {name!r}"}
            if len(parts) == 4:
                return 200, campaign_progress(store, name)
            if parts[4] == "merged":
                return 200, merged_partial(store, cache, name)
            return 404, {"error": f"unknown campaign view {parts[4]!r}"}
        return 404, {"error": f"unknown path {path!r}"}


class StatusServer:
    """Threaded HTTP server bound to an (ephemeral by default) port."""

    def __init__(
        self,
        store: CampaignStore,
        cache: ResultCache,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self._httpd = ThreadingHTTPServer((host, port), _StatusHandler)
        self._httpd.store = store          # type: ignore[attr-defined]
        self._httpd.cache = cache          # type: ignore[attr-defined]
        self._httpd.started = time.time()  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def start(self) -> "StatusServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join()
        self._httpd.server_close()


def spawn_worker_process(
    store_path: str,
    cache_dir: str,
    campaign: Optional[str] = None,
    once: bool = False,
    lease_seconds: Optional[float] = None,
    job_timeout: Optional[float] = None,
    stderr: Optional[IO[bytes]] = None,
) -> subprocess.Popen:
    """Start one ``repro worker`` subprocess against a (shared) store.

    The subprocess inherits the environment, so ``PYTHONPATH`` and the
    ``REPRO_CAMPAIGN_INJECT`` fault hook propagate — exactly what the
    fault harness needs to SIGKILL a worker mid-job.  Its stderr goes to
    ``stderr`` when given, else to ours.
    """
    argv = [
        sys.executable, "-m", "repro", "worker",
        "--store", store_path, "--cache-dir", cache_dir,
    ]
    if campaign:
        argv += ["--campaign", campaign]
    if once:
        argv += ["--once"]
    if lease_seconds is not None:
        argv += ["--lease", str(lease_seconds)]
    if job_timeout is not None:
        argv += ["--timeout", str(job_timeout)]
    return subprocess.Popen(argv, stderr=stderr)


class CampaignService:
    """``repro serve``: worker fleet + lease sweeper + status endpoint."""

    def __init__(
        self,
        store: CampaignStore,
        cache: ResultCache,
        workers: int = 1,
        host: str = "127.0.0.1",
        port: int = 0,
        sweep_seconds: float = 2.0,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.store = store
        self.cache = cache
        self.workers = workers
        self.sweep_seconds = sweep_seconds
        self.server = StatusServer(store, cache, host=host, port=port)
        self._procs: List[subprocess.Popen] = []
        self._stop = threading.Event()
        self._sweeper: Optional[threading.Thread] = None

    def start(self) -> "CampaignService":
        self.server.start()
        for _ in range(self.workers):
            self._procs.append(
                spawn_worker_process(
                    str(self.store.path),
                    str(self.cache.directory),
                    lease_seconds=self.store.policy.lease_seconds,
                    job_timeout=self.store.policy.job_timeout,
                )
            )
        self._sweeper = threading.Thread(target=self._sweep_loop, daemon=True)
        self._sweeper.start()
        return self

    def _sweep_loop(self) -> None:
        """Reclaim dead workers' leases and respawn crashed workers."""
        while not self._stop.wait(self.sweep_seconds):
            try:
                self.store.expire_leases()
            except Exception:  # pragma: no cover - sweep must never die
                continue
            for index, proc in enumerate(self._procs):
                if proc.poll() is not None and not self._stop.is_set():
                    self._procs[index] = spawn_worker_process(
                        str(self.store.path),
                        str(self.cache.directory),
                        lease_seconds=self.store.policy.lease_seconds,
                        job_timeout=self.store.policy.job_timeout,
                    )

    def wait_until_done(
        self, campaign: str, poll_seconds: float = 0.5,
        timeout: Optional[float] = None,
    ) -> bool:
        """Block until every job of ``campaign`` is done or dead-lettered."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            counts = self.store.counts(campaign)
            if counts["total"] and counts["queued"] + counts["leased"] == 0:
                return counts["failed"] == 0
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(poll_seconds)

    def stop(self) -> None:
        self._stop.set()
        if self._sweeper is not None:
            self._sweeper.join()
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait()
        self.server.stop()
