"""Typed Python client for the advisor service.

:class:`RemoteSession` mirrors the :class:`~repro.api.AdvisorSession`
surface over HTTP: the same frozen request dataclasses go out as JSON,
the same result dataclasses come back — decoded through their own
``from_dict``, so a remote call and an in-process call return equal
objects.  Built on :mod:`urllib` only; no third-party dependencies.

::

    from repro.client import RemoteSession

    remote = RemoteSession("http://127.0.0.1:8050")
    info = remote.deploy({"subscription": ..., ...})
    job = remote.collect(deployment=info.name)    # -> JobHandle, async
    job.wait(timeout=120)
    print(remote.advise(deployment=info.name).render_table())

Long-running sweeps are jobs: :meth:`RemoteSession.collect` returns a
:class:`JobHandle` immediately; ``wait()`` polls until the job reaches a
terminal state.  Everything else (deploy, advise, predict, compare,
plots) is synchronous.
"""

from __future__ import annotations

import errno
import json
import random
import socket
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.api.serde import coerce_request as _coerce
from repro.api.requests import (
    AdviseRequest,
    CollectRequest,
    PlotRequest,
    PredictRequest,
)
from repro.api.results import (
    AdviceResult,
    CollectResult,
    CompareResult,
    DataPointsResult,
    PlotResult,
    PredictResult,
    SessionInfo,
)
from repro.core.query import Query
from repro.errors import (
    ConfigError,
    RemoteError,
    RemoteJobFailed,
    RemoteTimeout,
)
from repro.fleet.jobstore import JobRecord
from repro import telemetry


class RemoteSession:
    """Session facade over the wire (module docstring).

    Parameters
    ----------
    base_url:
        Service root, e.g. ``http://127.0.0.1:8050``.
    timeout:
        Per-request socket timeout in seconds.
    retries:
        Extra attempts when the TCP connection is *refused* (a fleet
        worker just died and its replacement has not accepted yet).
        Refused means the request never reached a server, so retrying
        is safe for every method.  Attempts back off exponentially with
        jitter from ``backoff_s``.
    backoff_s:
        Base delay for the first retry.
    trace_dir:
        A state directory root to write *client-side* trace spans into
        (``traces-<deployment>.jsonl``, same ring the server appends
        to when it shares the filesystem).  ``None`` — the default —
        keeps client span emission off; the ``traceparent`` header is
        propagated on every request whenever a span context is active
        regardless, so server-side spans still link up.

    GET responses that arrive with an ``ETag`` are remembered per URL
    (bounded LRU); the next identical GET carries ``If-None-Match`` and
    transparently reuses the cached body when the server answers
    ``304 Not Modified``.
    """

    #: Bound on the per-URL conditional-GET cache.
    ETAG_CACHE_SIZE = 64

    def __init__(self, base_url: str, timeout: float = 30.0,
                 retries: int = 3, backoff_s: float = 0.05,
                 trace_dir: Optional[str] = None) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.backoff_s = backoff_s
        self.trace_dir = trace_dir
        self._etag_lock = threading.Lock()
        self._etag_cache: "OrderedDict[str, Tuple[str, str]]" = OrderedDict()

    # -- deployments ------------------------------------------------------------

    def deploy(self, config: Union[Mapping, str]) -> SessionInfo:
        """Deploy from a config mapping, or a *local* YAML file path."""
        if isinstance(config, str):
            from repro.core.config import MainConfig

            config = MainConfig.from_file(config).to_dict()
        elif not isinstance(config, Mapping):
            raise ConfigError(
                f"cannot deploy from {type(config).__name__}; "
                "pass a mapping or a YAML path"
            )
        data = self._call("POST", "/v1/deployments",
                          body={"config": dict(config)})
        return SessionInfo.from_dict(data)

    def list_deployments(self, limit: Optional[int] = None,
                         offset: int = 0) -> List[SessionInfo]:
        query: Dict[str, str] = {}
        if limit is not None:
            query["limit"] = str(limit)
        if offset:
            query["offset"] = str(offset)
        data = self._call("GET", "/v1/deployments", query=query or None)
        return [SessionInfo.from_dict(item) for item in data["deployments"]]

    def info(self, name: str) -> SessionInfo:
        return SessionInfo.from_dict(
            self._call("GET", f"/v1/deployments/{urllib.parse.quote(name)}")
        )

    def shutdown(self, name: str, purge_data: bool = False) -> None:
        query = {"purge_data": "true"} if purge_data else None
        self._call("DELETE", f"/v1/deployments/{urllib.parse.quote(name)}",
                   query=query)

    # -- data points ------------------------------------------------------------

    def datapoints(self, deployment: str,
                   query: Optional[Query] = None, /,
                   **kwargs) -> DataPointsResult:
        """One page of a deployment's stored points (server pushdown).

        Accepts a :class:`Query` or its fields as keyword arguments
        (``sku=...``, ``nnodes=(...)``, ``limit=...``, ...); the filter
        runs inside the server's storage engine and only the requested
        page travels over the wire.
        """
        if query is not None and kwargs:
            raise ConfigError(
                "pass either a Query or keyword arguments, not both"
            )
        q = query if query is not None else Query(**kwargs)
        params: Dict[str, Any] = {"deployment": deployment}
        if q.appname is not None:
            params["appname"] = q.appname
        if q.sku is not None:
            params["sku"] = q.sku
        if q.nnodes:
            params["nnodes"] = ",".join(str(n) for n in q.nnodes)
        if q.ppn is not None:
            params["ppn"] = str(q.ppn)
        if q.min_nodes is not None:
            params["min_nodes"] = str(q.min_nodes)
        if q.max_nodes is not None:
            params["max_nodes"] = str(q.max_nodes)
        if q.capacity is not None:
            params["capacity"] = q.capacity
        if not q.include_predicted:
            params["predicted"] = "false"
        if q.limit is not None:
            params["limit"] = str(q.limit)
        if q.offset:
            params["offset"] = str(q.offset)
        pairs = [(k, v) for k, v in params.items()]
        pairs += [("filter", f"{k}={v}") for k, v in q.appinputs.items()]
        pairs += [("tag", f"{k}={v}") for k, v in q.tags.items()]
        return DataPointsResult.from_dict(
            self._call("GET", "/v1/datapoints", query=pairs)
        )

    # -- jobs -------------------------------------------------------------------

    def collect(self, request: Optional[CollectRequest] = None,
                /, **kwargs) -> "JobHandle":
        """Submit an async collect job; returns immediately."""
        req = _coerce(CollectRequest, request, kwargs)
        with self._client_span("client.collect", req.deployment):
            data = self._call("POST", "/v1/jobs/collect",
                              body=req.to_dict())
        return JobHandle(self, JobRecord.from_dict(data))

    def predict_job(self, request: Optional[PredictRequest] = None,
                    /, **kwargs) -> "JobHandle":
        """Submit an async predict job (for expensive model sweeps)."""
        req = _coerce(PredictRequest, request, kwargs)
        with self._client_span("client.predict", req.deployment):
            data = self._call("POST", "/v1/jobs/predict",
                              body=req.to_dict())
        return JobHandle(self, JobRecord.from_dict(data))

    def job(self, job_id: str) -> JobRecord:
        return JobRecord.from_dict(
            self._call("GET", f"/v1/jobs/{urllib.parse.quote(job_id)}")
        )

    def jobs(self, deployment: Optional[str] = None,
             state: Optional[str] = None,
             limit: Optional[int] = None,
             offset: int = 0) -> List[JobRecord]:
        query = {}
        if deployment:
            query["deployment"] = deployment
        if state:
            query["state"] = state
        if limit is not None:
            query["limit"] = str(limit)
        if offset:
            query["offset"] = str(offset)
        data = self._call("GET", "/v1/jobs", query=query)
        return [JobRecord.from_dict(item) for item in data["jobs"]]

    def cancel(self, job_id: str) -> JobRecord:
        return JobRecord.from_dict(self._call(
            "POST", f"/v1/jobs/{urllib.parse.quote(job_id)}/cancel"
        ))

    # -- synchronous queries ----------------------------------------------------

    def advise(self, request: Optional[AdviseRequest] = None,
               /, **kwargs) -> AdviceResult:
        req = _coerce(AdviseRequest, request, kwargs)
        return AdviceResult.from_dict(
            self._call("POST", "/v1/advice", body=req.to_dict())
        )

    def predict(self, request: Optional[PredictRequest] = None,
                /, **kwargs) -> PredictResult:
        req = _coerce(PredictRequest, request, kwargs)
        return PredictResult.from_dict(
            self._call("POST", "/v1/predict", body=req.to_dict())
        )

    def compare(self, name_a: str, name_b: str) -> CompareResult:
        return CompareResult.from_dict(self._call(
            "GET", "/v1/compare", query={"a": name_a, "b": name_b}
        ))

    def plot(self, request: Optional[PlotRequest] = None,
             /, **kwargs) -> PlotResult:
        """Generate plots *server-side*; returns the server paths."""
        req = _coerce(PlotRequest, request, kwargs)
        return PlotResult.from_dict(
            self._call("POST", "/v1/plots", body=req.to_dict())
        )

    # -- service introspection --------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._call("GET", "/healthz")

    def metrics_text(self) -> str:
        return self._call("GET", "/metrics", raw=True)

    # -- plumbing ---------------------------------------------------------------

    @contextmanager
    def _client_span(self, name: str, deployment: str):
        """A client-side span written to the deployment's trace ring.

        Without ``trace_dir`` no span opens at all (the server then
        roots the trace itself); with it, the submit links client →
        server spans under one trace id via the ``traceparent`` header
        :meth:`_call` injects.
        """
        if not (self.trace_dir and deployment):
            yield
            return
        sink_token = telemetry.set_sink(
            telemetry.trace_path(self.trace_dir, deployment)
        )
        try:
            with telemetry.span(name, deployment=deployment):
                yield
        finally:
            telemetry.reset_sink(sink_token)

    def _call(self, method: str, path: str, body: Optional[dict] = None,
              query: Union[Dict[str, str], List, None] = None,
              raw: bool = False):
        url = self.base_url + path
        if query:
            url += "?" + urllib.parse.urlencode(query)
        data = None
        headers = {"Accept": "application/json"}
        traceparent = telemetry.current_traceparent()
        if traceparent:
            headers[telemetry.TRACEPARENT_HEADER] = traceparent
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        cached: Optional[Tuple[str, str]] = None
        if method == "GET" and data is None:
            with self._etag_lock:
                cached = self._etag_cache.get(url)
            if cached is not None:
                headers["If-None-Match"] = cached[0]
        request = urllib.request.Request(
            url, data=data, method=method, headers=headers
        )
        etag: Optional[str] = None
        attempt = 0
        while True:
            try:
                with urllib.request.urlopen(
                    request, timeout=self.timeout
                ) as response:
                    text = response.read().decode("utf-8")
                    etag = response.headers.get("ETag")
                break
            except urllib.error.HTTPError as exc:
                if exc.code == 304 and cached is not None:
                    etag, text = cached
                    break
                raise RemoteError(
                    _error_message(exc), status=exc.code
                ) from exc
            except (socket.timeout, TimeoutError) as exc:
                raise RemoteTimeout(
                    f"{method} {url} timed out after {self.timeout}s"
                ) from exc
            except urllib.error.URLError as exc:
                if isinstance(exc.reason, (socket.timeout, TimeoutError)):
                    raise RemoteTimeout(
                        f"{method} {url} timed out after {self.timeout}s"
                    ) from exc
                if _connection_refused(exc) and attempt < self.retries:
                    attempt += 1
                    time.sleep(self.backoff_s * (2 ** (attempt - 1))
                               * (0.5 + random.random()))
                    continue
                raise RemoteError(
                    f"{method} {url} failed: {exc.reason}"
                ) from exc
        if method == "GET" and etag:
            with self._etag_lock:
                self._etag_cache[url] = (etag, text)
                self._etag_cache.move_to_end(url)
                while len(self._etag_cache) > self.ETAG_CACHE_SIZE:
                    self._etag_cache.popitem(last=False)
        if raw:
            return text
        return json.loads(text) if text else None


@dataclass
class JobHandle:
    """A submitted job: poll it, wait for it, fetch its typed result."""

    session: RemoteSession
    record: JobRecord

    @property
    def id(self) -> str:
        return self.record.id

    def refresh(self) -> JobRecord:
        self.record = self.session.job(self.id)
        return self.record

    def cancel(self) -> JobRecord:
        self.record = self.session.cancel(self.id)
        return self.record

    def wait(self, timeout: float = 120.0, poll: float = 0.1,
             raise_on_failure: bool = True) -> JobRecord:
        """Poll until the job reaches a terminal state.

        Raises :class:`RemoteTimeout` if it does not finish in time and
        :class:`RemoteJobFailed` if it finished in a non-``done`` state
        (unless ``raise_on_failure`` is off).
        """
        deadline = time.monotonic() + timeout
        while True:
            record = self.refresh()
            if record.finished:
                if record.state != "done" and raise_on_failure:
                    raise RemoteJobFailed(
                        f"job {self.id} {record.state}: "
                        f"{record.error or 'no error recorded'}"
                    )
                return record
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RemoteTimeout(
                    f"job {self.id} still {record.state} after {timeout}s"
                )
            time.sleep(min(poll, max(remaining, 0.0)))

    def result(self) -> Union[CollectResult, PredictResult]:
        """The finished job's typed result (waits for no one)."""
        # The terminal record already carries the payload; only refresh
        # when we have not yet observed a terminal state.
        record = self.record if self.record.finished else self.refresh()
        if record.state != "done":
            raise RemoteJobFailed(
                f"job {self.id} has no result (state: {record.state}"
                + (f", error: {record.error}" if record.error else "")
                + ")"
            )
        cls = CollectResult if record.kind == "collect" else PredictResult
        return cls.from_dict(record.result or {})


def _connection_refused(exc: urllib.error.URLError) -> bool:
    """True when the TCP connection was refused (request never sent)."""
    reason = exc.reason
    if isinstance(reason, ConnectionRefusedError):
        return True
    return isinstance(reason, OSError) \
        and reason.errno == errno.ECONNREFUSED


def _error_message(exc: urllib.error.HTTPError) -> str:
    """Prefer the server's JSON error body over the bare status line."""
    try:
        detail = json.loads(exc.read().decode("utf-8"))
        return f"{detail.get('error', exc.reason)} (HTTP {exc.code})"
    except Exception:  # noqa: BLE001 - any body shape
        return f"HTTP {exc.code}: {exc.reason}"
