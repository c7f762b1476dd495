"""HPCAdvisor repo benchmark: one command, three workloads.

    python3 perfbench/run.py [--workload sweep|advise_serve|ingest_advise] \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; without ``--workload`` all three run in
turn.  Each workload runs through the public entry points users call,
on default settings (collect engine ``auto``, advice engine ``auto``),
in fresh worker processes (``worker.py``):

* ``sweep`` -- ``AdvisorSession.collect`` over a seeded 4,800-scenario
  LAMMPS grid, one fresh process per sweep;
* ``advise_serve`` -- ``fleet serve --workers 1`` over a 50,000-point
  deployment, driven by two closed-loop ``RemoteSession`` clients;
* ``ingest_advise`` -- rounds of ``append_points`` followed by the
  first on-demand and first spot advice on the new store generation.

With ``--trace 0`` the last output line is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run (see ``layers.py`` and ``NOTES.md``).  Correctness
checks are built in: any failed check makes ``correct`` false and the
exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
from layers import LAYERS, merge, self_shares  # noqa: E402

#: Fresh worker processes (set-ups) per untraced advise_serve and
#: ingest_advise run; the measured seconds are split between them.
SETUPS = 3
#: Sweeps per untraced run: at least this many (a sweep cannot be cut
#: short), then more until the measured collect time reaches --seconds.
MIN_SWEEPS = 4
#: A workload's run budget: this set-up allowance for each of its first
#: (at most four) worker shares, plus BUDGET_PER_SECOND x --seconds for
#: load, checks and the set-up of any further sweep.  Every worker is
#: killed when the budget runs out.
SETUP_ALLOWANCE_S = 25.0
BUDGET_PER_SECOND = 3.0
#: Load-generating client threads: no more than the host's cores.
CLIENTS = max(1, min(2, os.cpu_count() or 1))
#: RemoteSession timeout; a failed or refused request is counted as
#: this slow, so it misses every latency limit.
CLIENT_TIMEOUT_S = 60.0

#: End-to-end metrics.  Times are CPU times of the processes doing the
#: work (user + system, every thread; for advise_serve the server's and
#: the load generator's together): on a shared host the wall clock
#: swings with what other tenants run, while CPU time leaves out the
#: time the host gave them.  Wall-clock figures are printed beside them
#: as comments and reported by the traced run.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_cpu_s": "1/s",
    "p50_cpu_ms": "ms",
}

PER_LAYER = {
    # sweep
    "collector.scenario_s": "s", "collector.persist_s": "s",
    "collector.provision_s": "s", "collector.setup_s": "s",
    "perf.simulate_calls": "count", "perf.simulate_s": "s",
    "batch.task_calls": "count",
    "store.append_points_calls": "count", "store.append_points_s": "s",
    "store.sync_tasks_calls": "count", "store.sync_tasks_s": "s",
    "store.rows_written": "count",
    "sweep.engine": "code",
    # wall clock, every workload (untraced work of the traced run)
    "wall.setup_s": "s", "wall.throughput_per_s": "1/s",
    "wall.p50_ms": "ms",
    # advise_serve
    "serve_p99_ms": "ms",
    "client.hot_p50_ms": "ms", "client.miss_p50_ms": "ms",
    "client.spot_p50_ms": "ms", "client.not_modified_ratio": "ratio",
    "cache.hit_ratio": "ratio",
    "http.server_mean_ms": "ms", "http.transport_ms": "ms",
    "snapshot.builds": "count", "snapshot.hits": "count",
    "snapshot.view_s": "s",
    "columnar.capacity_columns_s": "s", "columnar.advise_columns_s": "s",
    "pareto.indices_s": "s",
    "cost.p95_calls": "count", "cost.p95_s": "s",
    "cost.expected_calls": "count",
    "cost.p95_kernel_calls": "count", "cost.p95_kernel_s": "s",
    "serde.to_json_s": "s",
    # ingest_advise
    "fresh_spot_p50_ms": "ms",
    "store.fetch_point_columns_s": "s",
    "snapshot.from_column_rows_s": "s",
    # every workload
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    "unattributed_share": "ratio",
    "trace_overhead_share": "ratio",
}

#: The journey-specific names each end-to-end metric carries per
#: workload (printed beside the shared names, which every workload must
#: report).
ALIASES = {
    "sweep": {"throughput_per_cpu_s": "sweep_scenarios_per_cpu_s",
              "p50_cpu_ms": "sweep_collect_p50_cpu_ms",
              "wall.throughput_per_s": "sweep_scenarios_per_s",
              "wall.p50_ms": "sweep_collect_p50_ms"},
    "advise_serve": {"throughput_per_cpu_s": "serve_requests_per_cpu_s",
                     "p50_cpu_ms": "serve_p50_cpu_ms_per_request",
                     "wall.throughput_per_s": "serve_rps",
                     "wall.p50_ms": "serve_p50_ms"},
    "ingest_advise": {"throughput_per_cpu_s": "fresh_advice_per_cpu_s",
                      "p50_cpu_ms": "fresh_advice_p50_cpu_ms",
                      "wall.throughput_per_s": "fresh_advice_per_s",
                      "wall.p50_ms": "fresh_advice_p50_ms"},
}

#: ``sweep.engine`` codes.
ENGINE_CODES = {"object": 0, "batched": 1}


class BenchError(RuntimeError):
    pass


# -- worker processes ----------------------------------------------------------


class Runner:
    """Starts worker shares under one run-wide deadline."""

    def __init__(self, workload: str, seed: int, workdir: str,
                 seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.budget_s = (SETUP_ALLOWANCE_S * max(SETUPS, MIN_SWEEPS)
                         + BUDGET_PER_SECOND * seconds)
        self.deadline = time.monotonic() + self.budget_s
        self.shares = 0

    def share(self, **cfg) -> Dict:
        self.shares += 1
        share_dir = os.path.join(self.workdir, f"share-{self.shares}")
        os.makedirs(share_dir)
        cfg.update(workload=self.workload, seed=self.seed,
                   root=ROOT, workdir=share_dir)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        cfg["spawned_at"] = time.time()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"),
             json.dumps(cfg)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, cwd=ROOT, start_new_session=True,
        )
        try:
            out, err = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            _kill_group(proc.pid)
            proc.communicate()
            raise BenchError(f"{self.workload} worker exceeded the "
                             f"{self.budget_s:.0f} s run budget") from None
        finally:
            # The worker leads its own process group; a fleet server it
            # failed to stop would still be in it.
            _kill_group(proc.pid)
            shutil.rmtree(share_dir, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"{self.workload} worker exited "
                             f"{proc.returncode}:\n{err[-4000:]}")
        return json.loads(out.strip().splitlines()[-1])


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1,
                       max(0, math.ceil(q / 100.0 * len(ordered)) - 1))]


def _errors(parts: List[Dict]) -> List[str]:
    return [e for part in parts for e in part.get("errors", [])]


def _layer_metrics(totals: Dict, per: float) -> Dict[str, float]:
    """Layer counters shared by the advice workloads, divided by ``per``."""
    incl, calls = totals["incl_s"], totals["calls"]
    return {
        "store.append_points_calls": calls.get("store.append_points", 0)
        / per,
        "store.append_points_s": incl.get("store.append_points", 0.0) / per,
        "store.rows_written": totals["rows"].get("store.append_points", 0)
        / per,
        "store.fetch_point_columns_s":
            incl.get("store.fetch_point_columns", 0.0) / per,
        "snapshot.from_column_rows_s":
            incl.get("snapshot.from_column_rows", 0.0) / per,
        "snapshot.view_s": incl.get("snapshot.view", 0.0) / per,
        "columnar.capacity_columns_s":
            incl.get("columnar.capacity_columns", 0.0) / per,
        "columnar.advise_columns_s":
            incl.get("columnar.advise_columns", 0.0) / per,
        "pareto.indices_s": incl.get("pareto.indices", 0.0) / per,
        "cost.p95_calls": calls.get("cost.p95", 0) / per,
        "cost.p95_s": incl.get("cost.p95", 0.0) / per,
        "cost.expected_calls": calls.get("cost.expected", 0) / per,
        "cost.p95_kernel_calls": calls.get("cost.p95_kernel", 0) / per,
        "cost.p95_kernel_s": incl.get("cost.p95_kernel", 0.0) / per,
        "serde.to_json_s": incl.get("serde.to_json", 0.0) / per,
    }


# -- sweep ---------------------------------------------------------------------


def run_sweep(runner: Runner, seconds: float, traced: bool) -> Dict:
    parts = []
    if traced:
        # Untraced and traced sweeps alternate, two of each.
        for index in range(4):
            parts.append(runner.share(traced=index % 2 == 1, index=index))
    else:
        while (len(parts) < MIN_SWEEPS
               or sum(p["collect_s"] for p in parts) < seconds):
            parts.append(runner.share(traced=False, index=len(parts)))
    plain = [p for p in parts if "trace" not in p]
    report = {
        "attempted": sum(p["executed"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "errors": _errors(parts),
        "summary": [f"sweeps={len(parts)} grid={inputs.sweep_grid_size()} "
                    f"engine={parts[0]['engine']}"],
    }
    report["end_to_end"] = {
        "setup_s": _median([p["setup_cpu_s"] for p in plain]),
        "peak_rss_mb": _median([p["rss_mb"] for p in plain]),
        # Total over the run; the median is per sweep.
        "throughput_per_cpu_s": sum(p["executed"] for p in plain)
        / sum(p["collect_cpu_s"] for p in plain),
        "p50_cpu_ms": _median([p["collect_cpu_s"] for p in plain]) * 1000.0,
    }
    report["wall"] = {
        "wall.setup_s": _median([p["setup_s"] for p in plain]),
        "wall.throughput_per_s": sum(p["executed"] for p in plain)
        / sum(p["collect_s"] for p in plain),
        "wall.p50_ms": _median([p["collect_s"] for p in plain]) * 1000.0,
    }
    if traced:
        traces = [p for p in parts if "trace" in p]
        totals = merge([p["trace"] for p in traces])
        per = float(len(traces))
        e2e = sum(p["collect_s"] for p in traces)
        incl, calls = totals["incl_s"], totals["calls"]
        profile = {stage: _median([p["profile"].get(stage, 0.0)
                                   for p in plain])
                   for stage in ("scenario", "persist", "provision",
                                 "setup")}
        layer = {
            "collector.scenario_s": profile["scenario"],
            "collector.persist_s": profile["persist"],
            "collector.provision_s": profile["provision"],
            "collector.setup_s": profile["setup"],
            "perf.simulate_calls": calls.get("perf.simulate", 0) / per,
            "perf.simulate_s": incl.get("perf.simulate", 0.0) / per,
            "batch.task_calls": calls.get("batch.task", 0) / per,
            "store.sync_tasks_calls": calls.get("store.sync_tasks", 0) / per,
            "store.sync_tasks_s": incl.get("store.sync_tasks", 0.0) / per,
            "sweep.engine": float(ENGINE_CODES.get(parts[0]["engine"], -1)),
        }
        layer.update({k: v for k, v in _layer_metrics(totals, per).items()
                      if k.startswith("store.append")})
        layer["store.rows_written"] = (
            totals["rows"].get("store.append_points", 0)
            + totals["rows"].get("store.sync_tasks", 0)) / per
        layer.update(self_shares(totals, e2e))
        layer["trace_overhead_share"] = (
            _median([p["collect_cpu_s"] for p in traces])
            / _median([p["collect_cpu_s"] for p in plain]) - 1.0)
        report["per_layer"] = layer
    return report


# -- ingest_advise -------------------------------------------------------------


def run_ingest(runner: Runner, seconds: float, traced: bool) -> Dict:
    setups = 1 if traced else SETUPS
    parts = [runner.share(traced=traced, seconds=seconds / setups,
                          min_rounds=6 if traced else 2,
                          oracle=index == setups - 1, index=index)
             for index in range(setups)]
    rounds = [r for p in parts for r in p["rounds"]]
    plain = [r for r in rounds if not r["traced"]]
    errors = _errors(parts)
    if all(p["oracle"] is None for p in parts):
        errors.append("no round was checked against the objects engine")
    total_s = sum(r["append_s"] + r["advice_s"] + r["spot_s"]
                  for r in plain)
    total_cpu_s = sum(r["append_cpu_s"] + r["advice_cpu_s"]
                      + r["spot_cpu_s"] for r in plain)
    report = {
        "attempted": 3 * len(rounds),
        "failed": sum(p["failed"] for p in parts),
        "errors": errors,
        "summary": [f"setups={setups} rounds={len(rounds)} "
                    f"batch={inputs.INGEST_BATCH} "
                    f"corpus={inputs.CORPUS_POINTS}"],
    }
    report["end_to_end"] = {
        "setup_s": _median([p["setup_cpu_s"] for p in parts]),
        "peak_rss_mb": _median([p["rss_mb"] for p in parts]),
        # Fresh advice answers (on-demand + spot) per CPU second of
        # round time, the append included.
        "throughput_per_cpu_s": 2 * len(plain) / total_cpu_s,
        "p50_cpu_ms": _median([r["advice_cpu_s"] for r in plain]) * 1000.0,
    }
    report["wall"] = {
        "wall.setup_s": _median([p["setup_s"] for p in parts]),
        "wall.throughput_per_s": 2 * len(plain) / total_s,
        "wall.p50_ms": _median([r["advice_s"] for r in plain]) * 1000.0,
    }
    if traced:
        traces = [r for r in rounds if r["traced"]]
        totals = parts[0]["trace"]
        per = float(len(traces))
        e2e = sum(r["append_s"] + r["advice_s"] + r["spot_s"]
                  for r in traces)
        layer = _layer_metrics(totals, per)
        layer["snapshot.builds"] = totals["calls"].get(
            "snapshot.from_column_rows", 0) / per
        layer["fresh_spot_p50_ms"] = _median(
            [r["spot_s"] for r in plain]) * 1000.0
        layer.update(self_shares(totals, e2e))
        traced_cpu_s = sum(r["append_cpu_s"] + r["advice_cpu_s"]
                           + r["spot_cpu_s"] for r in traces)
        layer["trace_overhead_share"] = (
            (traced_cpu_s / per) / (total_cpu_s / len(plain)) - 1.0)
        report["per_layer"] = layer
    return report


# -- advise_serve --------------------------------------------------------------


def run_serve(runner: Runner, seconds: float, traced: bool) -> Dict:
    setups = 1 if traced else SETUPS
    # Enough stream for a closed loop four times faster than measured.
    stream = int(400 * seconds / setups) + 1000
    parts = [runner.share(traced=traced, seconds=seconds / setups,
                          clients=CLIENTS, timeout=CLIENT_TIMEOUT_S,
                          stream=stream,
                          oracle=index == setups - 1, index=index)
             for index in range(setups)]
    samples = [s for p in parts for s in p["samples"]]
    ok = [elapsed for _, elapsed, good in samples if good]
    latencies = [elapsed if good else CLIENT_TIMEOUT_S
                 for _, elapsed, good in samples]
    errors = _errors(parts)
    if not any(p.get("sampled") for p in parts):
        errors.append("no reply was compared against in-process advice")
    wall = sum(p["wall_s"] for p in parts)
    windows = [w for p in parts for w in p["windows"]]
    report = {
        "attempted": len(samples),
        "failed": sum(p["failed"] for p in parts),
        "errors": errors,
        "summary": [f"setups={setups} clients={CLIENTS} "
                    f"requests={len(samples)} "
                    f"p99 over {len(latencies)} samples"],
    }
    report["end_to_end"] = {
        "setup_s": _median([p["setup_cpu_s"] for p in parts]),
        "peak_rss_mb": _median([p["rss_mb"] for p in parts]),
        # Per CPU second of server and load generator together; the
        # median is over windows of about CPU_WINDOW requests.
        "throughput_per_cpu_s": len(ok) / sum(c for _, c in windows),
        "p50_cpu_ms": _median([c / n for n, c in windows]) * 1000.0,
    }
    report["wall"] = {
        "wall.setup_s": _median([p["setup_s"] for p in parts]),
        "wall.throughput_per_s": len(ok) / wall,
        "wall.p50_ms": _p(latencies, 50) * 1000.0,
    }
    report["summary"].append(f"{len(windows)} CPU windows")
    if traced:
        server = {k: sum(p["server"][k] for p in parts)
                  for k in parts[0]["server"]}

        def kind_p50(kind: str) -> float:
            return _p([e for k, e, good in samples
                       if k == kind and good], 50) * 1000.0

        client_mean = sum(ok) / len(ok)
        server_mean = server["seconds_sum"] / server["seconds_count"]
        lookups = server["cache_hits"] + server["cache_misses"]
        replay = parts[0]["replay"]
        totals = replay["trace"]
        passes = len(replay["pairs"])
        layer = _layer_metrics(totals, float(passes))
        layer.update({
            "serve_p99_ms": _p(latencies, 99) * 1000.0,
            "client.hot_p50_ms": kind_p50("hot"),
            "client.miss_p50_ms": kind_p50("miss"),
            "client.spot_p50_ms": kind_p50("spot"),
            "client.not_modified_ratio":
                server["not_modified"] / server["requests"],
            "cache.hit_ratio": server["cache_hits"] / lookups
            if lookups else 0.0,
            "http.server_mean_ms": server_mean * 1000.0,
            "http.transport_ms": (client_mean - server_mean) * 1000.0,
            "snapshot.builds": server["snapshot_builds"],
            "snapshot.hits": server["snapshot_hits"],
        })
        layer.update(self_shares(
            totals, sum(traced for _, traced in replay["pairs"])))
        layer["trace_overhead_share"] = _median(
            [traced / untraced for untraced, traced in replay["pairs"]]) - 1.0
        report["per_layer"] = layer
        report["summary"].append(
            f"replayed {replay['requests']} miss/spot requests in process, "
            f"{passes} untraced/traced pass pairs; replay layer values are "
            f"per pass")
    return report


RUNNERS = {"sweep": run_sweep, "advise_serve": run_serve,
           "ingest_advise": run_ingest}


def run_workload(workload: str, args) -> Dict:
    """Run one workload, print its metrics, and return the result
    object (``correct``, ``attempted``, ``failed``, ``metrics``)."""
    scratch = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    try:
        runner = Runner(workload, args.seed, workdir, args.seconds)
        report = RUNNERS[workload](runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    if args.trace:
        values = {name: 0.0 for name in PER_LAYER}
        values.update(report["per_layer"])
        values.update(report["wall"])
        units = PER_LAYER
    else:
        values, units = report["end_to_end"], END_TO_END
    named = {**values, **report["wall"]}
    named_units = {**PER_LAYER, **units}
    for line in report["summary"]:
        print(f"# {workload}: {line}")
    print(f"# {workload}: attempted={report['attempted']} "
          f"succeeded={report['attempted'] - report['failed']} "
          f"failed={report['failed']}")
    for name, alias in ALIASES[workload].items():
        if name in named:
            print(f"# {alias} = {name} = {named[name]:.6g} "
                  f"{named_units[name]}")
    if not args.trace:
        print(f"# {workload}: wall-clock set-up "
              f"{report['wall']['wall.setup_s']:.6g} s")
    for error in report["errors"]:
        print(f"# CHECK FAILED: {error}")
    for name, value in values.items():
        print(f"{name:32} {value:14.6f} {units[name]}")
    return {
        "correct": not report["errors"] and report["failed"] == 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=(*RUNNERS, "all"),
                        help="one workload, or all of them in turn "
                             "(default)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program source under {ROOT}/src; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2

    workloads = list(RUNNERS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # The last line is the result: one object for one workload, else
    # one object per workload.
    print(json.dumps(results[workloads[0]] if len(workloads) == 1
                     else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
