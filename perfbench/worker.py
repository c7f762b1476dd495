"""One fresh process's share of a benchmark workload.

``run.py`` starts this file once per round (``sweep``) or once per
set-up (``advise_serve``, ``ingest_advise``) with one JSON argument,
and reads one JSON object from the last line of its output.  Each
share starts from a fresh interpreter, so heap left over from an
earlier share cannot slow the next one, and set-up -- process start,
imports, deploy, corpus load, server start and warm-up -- is timed
from the moment the parent spawned it (wall clock) and as the CPU time
the share's processes used until then.
"""

from __future__ import annotations

import gc
import json
import os
import random
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from layers import (LayerTracer, install_advice, install_sweep,  # noqa: E402
                    merge)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _status_kb(pid: int, field: str) -> int:
    """One numeric field of ``/proc/<pid>/status`` (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _server_pids(supervisor: int) -> List[int]:
    """``fleet serve``'s supervisor and the server workers it forked."""
    return [supervisor] + [
        int(entry) for entry in os.listdir("/proc")
        if entry.isdigit() and _status_kb(int(entry), "PPid") == supervisor]


def _server_peak_rss_mb(pids: List[int]) -> float:
    """The largest ``VmHWM`` of the server processes (the worker that
    answers the requests).

    ``VmHWM`` is each process's own peak resident set; unlike
    ``RUSAGE_CHILDREN`` it carries nothing over from the parent that
    spawned it."""
    return max(_status_kb(pid, "VmHWM") for pid in pids) / 1024.0


_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _pids_cpu_s(pids: List[int]) -> float:
    """CPU seconds (user + system, every thread) the processes ``pids``
    have used so far, from ``/proc/<pid>/stat``."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total * _TICK_S


def _setup_s(cfg: Dict) -> float:
    return time.time() - cfg["spawned_at"]


# -- sweep ---------------------------------------------------------------------


def sweep(cfg: Dict) -> Dict:
    from repro.api.requests import CollectRequest
    from repro.api.session import AdvisorSession

    rng = random.Random(f"sweep/{cfg['seed']}/{cfg['index']}")
    session = AdvisorSession(state_dir=os.path.join(cfg["workdir"],
                                                    "state"))
    name = session.deploy(inputs.sweep_config(rng, "perfbenchsweep")).name
    setup_s = _setup_s(cfg)
    setup_cpu_s = time.process_time()

    tracer = LayerTracer() if cfg["traced"] else None
    if tracer is not None:
        install_sweep(tracer)
    started, started_cpu = time.perf_counter(), time.process_time()
    result = session.collect(CollectRequest(deployment=name))
    collect_s = time.perf_counter() - started
    collect_cpu_s = time.process_time() - started_cpu
    rss = _rss_mb()
    if tracer is not None:
        tracer.uninstall()

    grid = inputs.sweep_grid_size()
    errors = []
    if result.executed != grid:
        errors.append(f"executed {result.executed} != grid {grid}")
    if result.failed:
        errors.append(f"{result.failed} scenario(s) failed")
    stored = session.query_points(name)
    if len(stored) != result.completed:
        errors.append(f"{len(stored)} stored points != "
                      f"{result.completed} completed")
    point_cost = sum(p.cost_usd for p in stored)
    if abs(point_cost - result.task_cost_usd) > \
            1e-9 * max(abs(result.task_cost_usd), 1e-300):
        errors.append(f"task_cost_usd {result.task_cost_usd!r} != "
                      f"sum of point cost_usd {point_cost!r}")
    out = {"setup_s": setup_s, "setup_cpu_s": setup_cpu_s, "rss_mb": rss,
           "collect_s": collect_s, "collect_cpu_s": collect_cpu_s,
           "executed": result.executed, "completed": result.completed,
           "failed": result.failed, "engine": result.engine,
           "profile": dict(result.profile), "errors": errors}
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    return out


# -- shared corpus ---------------------------------------------------------------


def _load_corpus(session, rng: random.Random, name: str) -> None:
    """Load the seeded 50,000-point corpus into deployment ``name``."""
    from repro.core.dataset import DataPoint

    rows = inputs.corpus_rows(rng, inputs.CORPUS_POINTS, name)
    session.data_store(name).append_points(
        [DataPoint(**row) for row in rows])


def _advice_json(result) -> str:
    """An advice result as canonical JSON, engine labels dropped."""
    payload = result.to_dict()
    payload.pop("engine", None)
    payload.pop("engine_fallback", None)
    return json.dumps(payload, sort_keys=True)


# -- ingest_advise -----------------------------------------------------------------


def ingest_advise(cfg: Dict) -> Dict:
    from repro.api.requests import AdviseRequest
    from repro.api.session import AdvisorSession
    from repro.core.dataset import DataPoint

    rng = random.Random(f"ingest/{cfg['seed']}/{cfg['index']}")
    session = AdvisorSession(state_dir=os.path.join(cfg["workdir"],
                                                    "state"))
    name = session.deploy(inputs.corpus_config("perfbenchingest")).name
    _load_corpus(session, rng, name)
    ondemand = AdviseRequest(deployment=name)
    spot = AdviseRequest(deployment=name, capacity="spot")
    # Warm-up: the first snapshot build and the corpus's risk kernels.
    session.advise(ondemand)
    session.advise(spot)
    store = session.data_store(name)
    setup_s = _setup_s(cfg)
    setup_cpu_s = time.process_time()

    tracer = LayerTracer() if cfg["traced"] else None
    rounds: List[Dict] = []
    traces = []
    errors: List[str] = []
    failed = 0
    next_ts = float(inputs.CORPUS_POINTS)
    deadline = time.perf_counter() + cfg["seconds"]
    last = None
    while (time.perf_counter() < deadline
           or len(rounds) < cfg["min_rounds"]):
        batch = [DataPoint(**row) for row in inputs.corpus_rows(
            rng, inputs.INGEST_BATCH, name, fresh_share=inputs.INGEST_FRESH_SHARE, first_timestamp=next_ts)]
        next_ts += len(batch)
        # Every round starts from a collected heap, so it does not pay
        # for a collection of the previous round's garbage at a point
        # that varies from round to round.
        gc.collect()
        # Traced runs alternate: even rounds untraced, odd rounds traced.
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            install_advice(tracer)
        try:
            t0, c0 = time.perf_counter(), time.process_time()
            store.append_points(batch)
            t1, c1 = time.perf_counter(), time.process_time()
            first = session.advise(ondemand)
            t2, c2 = time.perf_counter(), time.process_time()
            first_spot = session.advise(spot)
            t3, c3 = time.perf_counter(), time.process_time()
        except Exception as exc:  # noqa: BLE001 - counted, then reported
            failed += 1
            errors.append(f"round {len(rounds)}: {exc!r}")
            break
        finally:
            if traced:
                tracer.uninstall()
                traces.append(tracer.snapshot())
                tracer.reset()
        expected = inputs.CORPUS_POINTS + \
            (len(rounds) + 1) * inputs.INGEST_BATCH
        for label, result in (("on-demand", first), ("spot", first_spot)):
            if not result.rows:
                errors.append(f"round {len(rounds)}: empty {label} advice")
            if result.dataset_points != expected:
                errors.append(f"round {len(rounds)}: {label} advice saw "
                              f"{result.dataset_points} points, "
                              f"expected {expected}")
        rounds.append({"append_s": t1 - t0, "advice_s": t2 - t1,
                       "spot_s": t3 - t2, "append_cpu_s": c1 - c0,
                       "advice_cpu_s": c2 - c1, "spot_cpu_s": c3 - c2,
                       "traced": traced})
        last = (first, first_spot)
    rss = _rss_mb()

    oracle = None
    if cfg["oracle"] and last is not None:
        # The last round's answers against the objects engine (the
        # correctness oracle) on the same store generation.
        oracle = True
        for label, result, request in (("on-demand", last[0], ondemand),
                                       ("spot", last[1], spot)):
            reference = session.advise(AdviseRequest(
                **{**request.to_dict(), "engine": "objects"}))
            if _advice_json(reference) != _advice_json(result):
                oracle = False
                errors.append(f"{label} advice differs from the objects "
                              f"engine on the last round")
    out = {"setup_s": setup_s, "setup_cpu_s": setup_cpu_s, "rss_mb": rss,
           "rounds": rounds,
           "failed": failed, "errors": errors, "oracle": oracle}
    if traces:
        out["trace"] = merge(traces)
    return out


# -- advise_serve ------------------------------------------------------------------

_SERIES = re.compile(r"^([A-Za-z_:][\w:]*)(?:\{(.*)\})?\s+(\S+)$")
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_metrics(text: str) -> Dict[tuple, float]:
    """Prometheus text -> {(name, frozenset(labels)): value}."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SERIES.match(line)
        if match is None:
            continue
        labels = frozenset(_LABEL.findall(match.group(2) or ""))
        out[(match.group(1), labels)] = float(match.group(3))
    return out


def metric_delta(before: Dict, after: Dict, name: str, **want) -> float:
    """Sum of ``after - before`` over the series of ``name`` whose
    labels include ``want``."""
    total = 0.0
    for (series, labels), value in after.items():
        if series != name:
            continue
        labels = dict(labels)
        if all(labels.get(k) == v for k, v in want.items()):
            total += value - before.get((series, frozenset(
                labels.items())), 0.0)
    return total


class Fleet:
    """``fleet serve --workers 1`` over the state dir, as a child.

    Construction only starts the process; :meth:`wait_ready` waits for
    its readiness line, so the server can import while the caller
    loads data."""

    def __init__(self, state_dir: str, root: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli.main", "--state-dir",
             state_dir, "fleet", "serve", "--port", "0", "--workers", "1",
             "--job-workers", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=root,
        )
        self.url = None
        self._drain = None

    def wait_ready(self) -> None:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            if line.startswith("FLEET READY"):
                fields = dict(part.split("=", 1)
                              for part in line.split()[2:])
                self.url = f"http://127.0.0.1:{fields['port']}"
                break
        if self.url is None:
            raise RuntimeError("fleet serve never became ready")
        self._drain = threading.Thread(target=self.proc.stdout.read,
                                       daemon=True)
        self._drain.start()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=20)
        if self._drain is not None:
            self._drain.join(timeout=5)
        self.proc.stdout.close()


def _wait_healthy(url: str) -> None:
    from repro.client import RemoteSession
    from repro.errors import RemoteError

    remote = RemoteSession(url, timeout=10, retries=20, backoff_s=0.05)
    deadline = time.monotonic() + 60
    while True:
        try:
            if remote.health().get("status") == "ok":
                return
        except RemoteError:
            if time.monotonic() > deadline:
                raise
        time.sleep(0.05)


def _clients(url: str, name: str, clients: int, timeout: float) -> List:
    """``clients`` RemoteSessions (no retries), warmed: each sends the
    hot set once, and the first request builds the server's snapshot."""
    from repro.api.requests import AdviseRequest
    from repro.client import RemoteSession

    sessions = [RemoteSession(url, timeout=timeout, retries=0)
                for _ in range(clients)]
    for remote in sessions:
        for spec in inputs.HOT_SET:
            remote.advise(AdviseRequest(deployment=name, **spec))
    return sessions


def _closed_loop(sessions: List, name: str, stream: List[tuple],
                 seconds: float, cpu) -> tuple:
    """One thread per session, each waiting for every reply before
    sending the next request of the shared stream.

    The stream is served one mix block (inputs.BLOCK requests) at a
    time: the clients meet at the end of each block, where ``cpu()``
    (server plus load-generator CPU seconds) is read, so every CPU
    window holds exactly one block of the stated mix.  The loop stops at
    the first block end after ``seconds``.  Returns (samples, wall
    seconds, payloads by stream index, CPU windows as (requests, CPU
    seconds) pairs)."""
    from repro.api.requests import AdviseRequest
    from repro.errors import RemoteError

    lock = threading.Lock()
    cursor = [0]
    samples: List[tuple] = []
    payloads: Dict[int, Dict] = {}
    marks = []
    stop = threading.Event()
    deadline = time.perf_counter() + seconds

    def block_end() -> None:
        marks.append((len(samples), cpu()))
        if (time.perf_counter() >= deadline
                or cursor[0] + inputs.BLOCK > len(stream)):
            stop.set()

    barrier = threading.Barrier(len(sessions), action=block_end)

    def client(remote) -> None:
        while not stop.is_set():
            with lock:
                index = cursor[0]
                block_done = index >= marks[-1][0] + inputs.BLOCK
                if not block_done:
                    cursor[0] += 1
            if block_done:
                barrier.wait()
                continue
            kind, spec = stream[index]
            started = time.perf_counter()
            try:
                result = remote.advise(AdviseRequest(deployment=name,
                                                     **spec))
                payload, ok = result.to_dict(), bool(result.rows)
            except RemoteError:
                payload, ok = None, False
            elapsed = time.perf_counter() - started
            with lock:
                samples.append((index, kind, elapsed, ok))
                payloads[index] = payload

    threads = [threading.Thread(target=client, args=(remote,))
               for remote in sessions]
    begin = time.perf_counter()
    marks.append((0, cpu()))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120)
    wall = time.perf_counter() - begin
    if any(thread.is_alive() for thread in threads):
        barrier.abort()
        raise RuntimeError("a load client did not finish")
    windows = [(n1 - n0, c1 - c0)
               for (n0, c0), (n1, c1) in zip(marks, marks[1:])]
    return samples, wall, payloads, windows


def _replay(session, name: str, specs: List[Dict], tracer) -> float:
    """``specs`` answered in process; returns wall seconds."""
    from repro.api.requests import AdviseRequest

    started = time.perf_counter()
    for spec in specs:
        result = session.advise(AdviseRequest(deployment=name, **spec))
        if tracer is not None:
            with tracer.span("serde", "serde.to_json"):
                json.dumps(result.to_dict())
        else:
            json.dumps(result.to_dict())
    return time.perf_counter() - started


#: Requests replayed in process by the traced run.  Every pass replays
#: the same misses but spot what-ifs of its own, so each pass runs its
#: risk kernels fresh, as the server did.
REPLAY_MISSES = 40
REPLAY_SPOTS = 6
REPLAY_PAIRS = 3
#: Replies compared against in-process advice, per kind, and how many
#: of the tail (filtered) ones are also compared against the objects
#: engine.
SAMPLE = {"hot": 3, "miss": 3, "spot": 2}
ORACLE_MISSES = 2


def advise_serve(cfg: Dict) -> Dict:
    from repro.api.requests import AdviseRequest
    from repro.api.session import AdvisorSession
    from repro.client import RemoteSession

    rng = random.Random(f"serve/{cfg['seed']}/{cfg['index']}")
    state_dir = os.path.join(cfg["workdir"], "state")
    session = AdvisorSession(state_dir=state_dir)
    name = session.deploy(inputs.corpus_config("perfbenchserve")).name
    # The server starts (and imports, on the other core) while the
    # corpus loads; it reads no data before the first request.
    fleet = Fleet(state_dir, cfg["root"])
    try:
        _load_corpus(session, rng, name)
        stream = inputs.request_stream(rng, cfg["stream"])
        fleet.wait_ready()
        _wait_healthy(fleet.url)
        sessions = _clients(fleet.url, name, cfg["clients"],
                            cfg["timeout"])
        server_pids = _server_pids(fleet.proc.pid)

        def cpu() -> float:
            return time.process_time() + _pids_cpu_s(server_pids)

        setup_s = _setup_s(cfg)
        setup_cpu_s = cpu()
        probe = RemoteSession(fleet.url, timeout=60, retries=0)
        before = parse_metrics(probe.metrics_text())
        samples, wall, payloads, windows = _closed_loop(
            sessions, name, stream, cfg["seconds"], cpu)
        after = parse_metrics(probe.metrics_text())
        rss = _server_peak_rss_mb(server_pids)
    finally:
        fleet.stop()

    errors: List[str] = []
    failed = sum(1 for s in samples if not s[3])
    advice = {"route": "/v1/advice"}
    requests_total = metric_delta(before, after,
                                  "advisor_http_requests_total", **advice)
    ok_statuses = sum(metric_delta(before, after,
                                   "advisor_http_requests_total",
                                   status=status, **advice)
                      for status in ("200", "304"))
    if int(round(requests_total)) != len(samples):
        errors.append(f"server saw {requests_total:.0f} advice requests, "
                      f"clients sent {len(samples)}")
    if ok_statuses != requests_total:
        errors.append(f"{requests_total - ok_statuses:.0f} advice replies "
                      f"were neither 200 nor 304")
    out = {
        "setup_s": setup_s, "setup_cpu_s": setup_cpu_s, "rss_mb": rss,
        "wall_s": wall, "windows": windows,
        "samples": [(kind, elapsed, ok) for _, kind, elapsed, ok
                    in samples],
        "failed": failed, "errors": errors,
        "server": {
            "requests": requests_total,
            "not_modified": metric_delta(before, after,
                                         "advisor_http_requests_total",
                                         status="304", **advice),
            "seconds_sum": metric_delta(before, after,
                                        "advisor_http_request_seconds_sum",
                                        **advice),
            "seconds_count": metric_delta(
                before, after, "advisor_http_request_seconds_count",
                **advice),
            "cache_hits": metric_delta(
                before, after, "advisor_response_cache_requests_total",
                result="hit"),
            "cache_misses": metric_delta(
                before, after, "advisor_response_cache_requests_total",
                result="miss"),
            "snapshot_builds": metric_delta(before, after,
                                            "advisor_snapshot_builds"),
            "snapshot_hits": metric_delta(before, after,
                                          "advisor_snapshot_hits"),
        },
    }

    if cfg["oracle"] or cfg["traced"]:
        # In process, warmed the way the server was: hot set first (the
        # snapshot build).
        local = AdvisorSession(state_dir=state_dir)
        for spec in inputs.HOT_SET:
            local.advise(AdviseRequest(deployment=name, **spec))
    if cfg["oracle"]:
        pick = random.Random(f"sample/{cfg['seed']}")
        checked = 0
        for kind, count in SAMPLE.items():
            seen = sorted({index for index, k, _, ok in samples
                           if k == kind and ok})
            for position, index in enumerate(
                    pick.sample(seen, min(count, len(seen)))):
                spec = stream[index][1]
                reply = json.dumps(payloads[index], sort_keys=True)
                expected = local.advise(AdviseRequest(
                    deployment=name, **spec))
                if reply != json.dumps(expected.to_dict(), sort_keys=True):
                    errors.append(f"{kind} reply #{index} differs from "
                                  f"in-process advice for {spec}")
                if kind == "miss" and position < ORACLE_MISSES:
                    # Filtered views are served only here; check them
                    # against the objects engine too.
                    reference = local.advise(AdviseRequest(
                        deployment=name, engine="objects", **spec))
                    if _advice_json(reference) != _advice_json(expected):
                        errors.append(f"miss reply #{index} differs from "
                                      f"the objects engine for {spec}")
                checked += 1
        out["sampled"] = checked
    if cfg["traced"]:
        misses = [spec for kind, spec in stream if kind == "miss"]
        misses = misses[:REPLAY_MISSES]
        # Spot what-ifs from the end of the stream: the load window never
        # reached them and the sample check never warmed their kernels.
        spots = [index for index, (kind, _) in enumerate(stream)
                 if kind == "spot"][-2 * REPLAY_PAIRS * REPLAY_SPOTS:]
        if spots[0] <= max(index for index, _, _, _ in samples):
            raise RuntimeError("request stream too short for the replay")
        spots = [stream[index][1] for index in spots]

        def specs(n: int) -> List[Dict]:
            return misses + spots[n * REPLAY_SPOTS:(n + 1) * REPLAY_SPOTS]

        # Untraced and traced passes alternate, so host-speed swings hit
        # both sides alike; totals cover every traced pass.
        tracer = LayerTracer()
        pairs = []
        for pair in range(REPLAY_PAIRS):
            untraced_s = _replay(local, name, specs(2 * pair), None)
            install_advice(tracer)
            try:
                traced_s = _replay(local, name, specs(2 * pair + 1), tracer)
            finally:
                tracer.uninstall()
            pairs.append((untraced_s, traced_s))
        out["replay"] = {"pairs": pairs,
                         "requests": REPLAY_MISSES + REPLAY_SPOTS,
                         "trace": tracer.snapshot()}
    return out


WORKLOADS = {"sweep": sweep, "ingest_advise": ingest_advise,
             "advise_serve": advise_serve}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    result = WORKLOADS[cfg["workload"]](cfg)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
