"""Implementations of the CLI commands.

Every command is a thin presenter over :class:`repro.api.AdvisorSession`:
the session owns deployment, state, backend, dataset, and task-DB
lifecycle; this module only parses arguments into typed requests and
prints the typed results (as text, or as JSON with ``--json``).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.api import (
    AdviseRequest,
    AdvisorSession,
    CollectRequest,
    PlotRequest,
    PredictRequest,
)
from repro.core.statefiles import resolve_state_dir
from repro.errors import ReproError
from repro.units import fmt_duration, fmt_usd


def _session(state_dir: Optional[str]) -> AdvisorSession:
    """The CLI always persists state (default dir when none is given)."""
    return AdvisorSession(state_dir=resolve_state_dir(state_dir))


# -- deploy ------------------------------------------------------------------------


def deploy_create(state_dir: Optional[str], config_path: str) -> int:
    session = _session(state_dir)
    info = session.deploy(config_path)
    print(f"created deployment {info.name} in {info.region}")
    print(f"  resource group:  {info.name}")
    print(f"  vnet:            {info.vnet}")
    print(f"  storage account: {info.storage_account}")
    print(f"  batch account:   {info.batch_account}")
    if info.jumpbox:
        print(f"  jumpbox:         {info.jumpbox}")
    print(f"  scenarios:       {info.scenario_count}")
    for path in info.archived_data:
        print(f"  note: archived data of a previous deployment "
              f"named {info.name}: {path}")
    return 0


def deploy_list(state_dir: Optional[str], limit: Optional[int] = None,
                offset: int = 0, as_json: bool = False) -> int:
    import json

    session = _session(state_dir)
    total = session.count_deployments()
    infos = session.list_deployments(limit=limit, offset=offset)
    if as_json:
        print(json.dumps(
            {"deployments": [info.to_dict() for info in infos],
             "total": total, "limit": limit, "offset": offset}, indent=1
        ))
        return 0
    if not infos:
        print("(no deployments)")
        return 0
    print(f"{'NAME':<28} {'REGION':<16} {'APP':<12} SCENARIOS")
    for info in infos:
        scenarios = str(info.scenario_count) if info.scenario_count else "-"
        print(f"{info.name:<28} {info.region:<16} "
              f"{info.appname or '-':<12} {scenarios}")
    if len(infos) < total:
        print(f"({len(infos)} of {total} deployment(s); "
              "use --limit/--offset to page)")
    return 0


def deploy_shutdown(state_dir: Optional[str], name: str,
                    purge_data: bool = False) -> int:
    _session(state_dir).shutdown(name, purge_data=purge_data)
    # Simulated resources live in-process; removing the record is the
    # persistent part.  Report the same wording as the real tool.
    print(f"deployment {name} shut down; all resources deleted")
    if purge_data:
        print(f"collected data of {name} purged")
    return 0


# -- collect -------------------------------------------------------------------------


def collect(
    state_dir: Optional[str],
    name: str,
    backend: str = "azurebatch",
    smart_sampling: bool = False,
    delete_pools: bool = False,
    noise: Optional[float] = None,
    seed: Optional[int] = None,
    budget: Optional[float] = None,
    retry_failed: int = 0,
    parallel_pools: int = 1,
    capacity: str = "ondemand",
    recovery: str = "restart",
    eviction_rate: Optional[float] = None,
    eviction_seed: int = 0,
    checkpoint_interval: float = 600.0,
    checkpoint_overhead: float = 60.0,
    engine: str = "auto",
    show_report: bool = False,
    as_json: bool = False,
) -> int:
    if as_json and show_report:
        raise ReproError("--json cannot be combined with --report")
    session = _session(state_dir)
    result = session.collect(CollectRequest(
        deployment=name,
        backend=backend,
        smart_sampling=smart_sampling,
        delete_pools=delete_pools,
        noise=noise,
        seed=seed,
        budget_usd=budget,
        retry_failed=retry_failed,
        max_parallel_pools=parallel_pools,
        capacity=capacity,
        recovery=recovery,
        eviction_rate=eviction_rate,
        eviction_seed=eviction_seed,
        checkpoint_interval_s=checkpoint_interval,
        checkpoint_overhead_s=checkpoint_overhead,
        engine=engine,
    ))
    if as_json:
        print(result.to_json(indent=1))
        return 0 if result.ok else 1
    print(f"collection finished on {result.backend}:")
    print(f"  executed:  {result.executed} "
          f"(completed {result.completed}, failed {result.failed})")
    if result.skipped or result.predicted:
        print(f"  skipped:   {result.skipped} (smart sampling)")
        print(f"  predicted: {result.predicted} (smart sampling)")
    print(f"  task cost:           ${fmt_usd(result.task_cost_usd)}")
    print(f"  infrastructure cost: "
          f"${fmt_usd(result.infrastructure_cost_usd)}")
    print(f"  provisioning time:   "
          f"{fmt_duration(result.provisioning_overhead_s)}")
    print(f"  sweep makespan:      {fmt_duration(result.makespan_s)} "
          f"({result.max_parallel_pools} parallel pool(s))")
    if result.engine != "object" or result.engine_fallback:
        line = f"  engine:              {result.engine}"
        if result.engine_fallback:
            line += f" (fell back: {result.engine_fallback})"
        print(line)
    if result.capacity == "spot":
        print(f"  spot capacity:       {result.preemptions} preemption(s), "
              f"{fmt_duration(result.wasted_node_s)} node-time wasted "
              f"(recovery: {result.recovery})")
    print(f"  dataset:             {result.dataset_path} "
          f"({result.dataset_points} points)")
    for failure in result.failures:
        print(f"  FAILED: {failure}")
    if show_report:
        from repro.core.report import render_report

        print()
        print(render_report(result, session.dataset(name),
                            taskdb=session.taskdb(name),
                            title=f"Sweep report for {name}"), end="")
    return 0 if result.ok else 1


# -- plot ---------------------------------------------------------------------------


def plot(
    state_dir: Optional[str],
    name: str,
    output: Optional[str] = None,
    filters: Optional[Dict[str, str]] = None,
    sku: Optional[str] = None,
    subtitle: Optional[str] = None,
    as_json: bool = False,
) -> int:
    session = _session(state_dir)
    result = session.plot(PlotRequest(
        deployment=name,
        output_dir=output,
        filters=filters or {},
        sku=sku,
        subtitle=subtitle,
    ))
    if as_json:
        print(result.to_json(indent=1))
        return 0
    for path in result.paths:
        print(f"wrote {path}")
    return 0


# -- advice --------------------------------------------------------------------------


def advice(
    state_dir: Optional[str],
    name: str,
    sort_by: str = "time",
    filters: Optional[Dict[str, str]] = None,
    max_rows: Optional[int] = None,
    recipes: bool = False,
    spot: bool = False,
    capacity: Optional[str] = None,
    recovery: str = "checkpoint_restart",
    eviction_rate: Optional[float] = None,
    checkpoint_interval: float = 600.0,
    checkpoint_overhead: float = 60.0,
    engine: str = "auto",
    as_json: bool = False,
) -> int:
    if as_json and (recipes or spot):
        raise ReproError(
            "--json cannot be combined with --recipes or --spot"
        )
    session = _session(state_dir)
    result = session.advise(AdviseRequest(
        deployment=name,
        filters=filters or {},
        sort_by=sort_by,
        max_rows=max_rows,
        capacity=capacity or "",
        recovery=recovery,
        eviction_rate=eviction_rate,
        checkpoint_interval_s=checkpoint_interval,
        checkpoint_overhead_s=checkpoint_overhead,
        engine=engine,
    ))
    if as_json:
        print(result.to_json(indent=1))
        return 0
    print(result.render_table(), end="")
    if spot:
        from repro.cloud.eviction import EvictionModel
        from repro.core.cost import spot_savings_summary
        from repro.core.query import Query

        # Same region and price catalog as the advice table above, so the
        # summary and a `--capacity spot` table never disagree about the
        # same configuration.  The filter is pushed down to the store.
        region = str(session.record(name).get("region") or "") or None
        eviction = (EvictionModel.flat(eviction_rate, region=region)
                    if eviction_rate is not None else None)
        print("\n--- What-if: spot capacity (risk-adjusted) ---")
        print(spot_savings_summary(
            session.query_dataset(name, Query(appinputs=filters or {})),
            session.deployment(name).provider.prices,
            region=region,
            eviction=eviction,
            recovery=recovery,
            checkpoint_interval_s=checkpoint_interval,
            checkpoint_overhead_s=checkpoint_overhead,
        ), end="")
    if recipes and result.rows:
        recipe = session.recipe_for(result.rows[0], deployment=name,
                                    appname=result.appname)
        print("\n--- Slurm recipe for the top advice row ---")
        print(recipe.slurm_script)
        print("--- Cluster recipe ---")
        print(recipe.cluster_recipe)
    return 0


# -- predict (extension) ----------------------------------------------------------


def predict(
    state_dir: Optional[str],
    name: str,
    inputs: Dict[str, str],
    nnodes: Optional[list] = None,
    backend: str = "ridge",
    as_json: bool = False,
) -> int:
    """Predicted advice for new inputs, trained on the deployment's data."""
    session = _session(state_dir)
    result = session.predict(PredictRequest(
        deployment=name,
        inputs=inputs or {},
        nnodes=tuple(nnodes or ()),
        model=backend,
    ))
    if as_json:
        print(result.to_json(indent=1))
        return 0
    inputs_label = ", ".join(
        f"{k}={v}" for k, v in sorted(result.inputs.items())
    )
    print(f"predicted advice for {result.appname} ({inputs_label}) — "
          f"0 executions, trained on {result.trained_on} points"
          + (f", CV MAPE {result.cv_mape:.1%}" if result.cv_mape else ""))
    print(result.render_table(), end="")
    return 0


# -- data (extension: paginated point listings) ----------------------------------


def data(
    state_dir: Optional[str],
    name: str,
    appname: Optional[str] = None,
    sku: Optional[str] = None,
    nnodes: Optional[list] = None,
    capacity: Optional[str] = None,
    filters: Optional[Dict[str, str]] = None,
    tags: Optional[Dict[str, str]] = None,
    measured_only: bool = False,
    limit: Optional[int] = 50,
    offset: int = 0,
    as_json: bool = False,
) -> int:
    """Paginated listing of a deployment's stored points.

    The filter runs inside the storage engine (SQL pushdown on the
    SQLite backend), so paging a huge corpus never loads it whole.
    """
    from repro.core.query import Query

    session = _session(state_dir)
    result = session.datapoints(name, Query(
        appname=appname,
        sku=sku,
        nnodes=tuple(nnodes or ()),
        capacity=capacity,
        appinputs=filters or {},
        tags=tags or {},
        include_predicted=not measured_only,
        limit=limit,
        offset=offset,
    ))
    if as_json:
        print(result.to_json(indent=1))
        return 0
    if not result.total:
        print("(no matching data points)")
        return 0
    print(f"{'APP':<10} {'SKU':<22} {'NODES':>5} {'PPN':>4} "
          f"{'TIME(S)':>9} {'COST($)':>9}  CAP")
    for p in result.points:
        marker = " *" if p.predicted else ""
        print(f"{p.appname:<10} {p.sku:<22} {p.nnodes:>5} {p.ppn:>4} "
              f"{p.exec_time_s:>9.1f} {p.cost_usd:>9.4f}  "
              f"{p.capacity}{marker}")
    shown = len(result.points)
    print(f"({shown} of {result.total} matching point(s), offset "
          f"{result.offset}, store: {result.store_backend or 'memory'})")
    return 0


# -- compare (extension) ---------------------------------------------------------


def compare(state_dir: Optional[str], name_a: str, name_b: str,
            as_json: bool = False) -> int:
    """Matched-scenario comparison of two deployments' datasets."""
    from repro.core.compare import render_comparison

    session = _session(state_dir)
    comparison = session.compare(name_a, name_b)
    regressions = comparison.regressions()
    if as_json:
        from repro.api.results import CompareResult

        print(CompareResult.from_comparison(
            comparison, deployment_a=name_a, deployment_b=name_b,
        ).to_json(indent=1))
        return 1 if regressions else 0
    print(render_comparison(comparison, label_a=name_a, label_b=name_b),
          end="")
    if regressions:
        print(f"\n{len(regressions)} scenario(s) regressed by more than 5%")
        return 1
    return 0


# -- engines ---------------------------------------------------------------------


def engines(state_dir: Optional[str] = None, as_json: bool = False) -> int:
    """List the collect and advice read engines and what each covers."""
    from repro.core.columnar import describe_advice_engines
    from repro.simd import describe_engines
    from repro.simd.vector import vector_ready

    matrix = describe_engines()
    advice_matrix = describe_advice_engines()
    snapshots = _snapshot_statuses(state_dir)
    if as_json:
        import json

        print(json.dumps(
            {"engines": matrix, "vectorized_physics": vector_ready(),
             "advice_engines": advice_matrix, "snapshots": snapshots},
            indent=1,
        ))
        return 0
    for entry in matrix:
        print(f"{entry['engine']}: {entry['description']}")
        print(f"  preemption:  {'yes' if entry['preemption'] else 'no'}")
        print(f"  concurrency: {'yes' if entry['concurrency'] else 'no'}")
        print(f"  batching:    {'yes' if entry['batching'] else 'no'}")
        print(f"  coverage:    {entry['coverage']}")
    print("vectorized physics: "
          + ("available (numpy)" if vector_ready()
             else "unavailable (numpy missing; scalar table only)"))
    print()
    print("advice read engines:")
    for entry in advice_matrix:
        print(f"{entry['engine']}: {entry['description']}")
        print(f"  data access: {entry['data_access']}")
        print(f"  risk math:   {entry['risk_math']}")
        print(f"  coverage:    {entry['coverage']}")
    if snapshots:
        print()
        print("columnar snapshots:")
        for status in snapshots:
            state = ("fresh" if status["fresh"]
                     else "stale" if status["cached"] else "cold")
            rows = (f", {status['rows']} rows"
                    if status["rows"] is not None else "")
            if status["last_id"] is not None:
                rows += f", last id {status['last_id']}"
            fetch = "sql" if status["column_fetch"] else "objects"
            print(f"  {status['deployment']}: {state} "
                  f"({status['backend']}, column fetch: {fetch}{rows})")
    return 0


def _snapshot_statuses(state_dir: Optional[str]) -> list:
    """Per-deployment snapshot eligibility/staleness for ``engines``."""
    from repro.store.snapshot import snapshot_status

    session = _session(state_dir)
    if session.store is None:
        return []
    out = []
    for info in session.list_deployments():
        # Never-collected deployments are skipped: probing them would
        # create empty stores as a side effect.
        if not session.store.data_files(info.name):
            continue
        status = snapshot_status(session.data_store(info.name))
        status["deployment"] = info.name
        out.append(status)
    return out


# -- gui ------------------------------------------------------------------------------


def gui(state_dir: Optional[str], host: str = "127.0.0.1", port: int = 8040,
        once: bool = False) -> int:
    from repro.gui.server import serve

    return serve(_session(state_dir), host=host, port=port, once=once)


# -- service (extension: advisor-as-a-service) --------------------------------


def serve(state_dir: Optional[str], host: str = "127.0.0.1",
          port: int = 8050, workers: int = 4, once: bool = False) -> int:
    from repro.service.app import serve as serve_service

    return serve_service(resolve_state_dir(state_dir), host=host, port=port,
                         workers=workers, once=once)


def fleet_serve(state_dir: Optional[str], host: str = "127.0.0.1",
                port: int = 8050, workers: int = 2,
                job_workers: int = 4) -> int:
    from repro.fleet.supervisor import serve_fleet

    return serve_fleet(resolve_state_dir(state_dir), host=host, port=port,
                       workers=workers, job_workers=job_workers)


def trace(state_dir: Optional[str], name: str, show_all: bool = False,
          as_json: bool = False) -> int:
    """Print a deployment's recorded span tree(s) with timings."""
    import json

    from repro import telemetry
    from repro.core.statefiles import StateStore

    store = StateStore(root=resolve_state_dir(state_dir))
    events = telemetry.read_events(store.traces_path(name))
    if not events:
        print(f"(no traces recorded for {name})")
        return 1
    if as_json:
        print(json.dumps({"deployment": name, "events": events}, indent=1))
        return 0
    if show_all:
        blocks = [
            telemetry.render_tree(trace_events)
            for trace_events in telemetry.group_traces(events).values()
        ]
        print("\n\n".join(blocks))
        return 0
    latest = telemetry.latest_trace(events)
    print(telemetry.render_tree(latest[1]))
    return 0


def _print_job(record, as_json: bool) -> None:
    if as_json:
        print(record.to_json(indent=1))
        return
    print(f"job {record.id}: {record.state} "
          f"({record.kind} on {record.deployment})")
    if record.progress:
        total = record.progress.get("total", 0)
        done = (record.progress.get("completed", 0)
                + record.progress.get("failed", 0)
                + record.progress.get("skipped", 0)
                + record.progress.get("predicted", 0))
        print(f"  progress: {done}/{total} scenario(s)")
    if record.error:
        print(f"  error: {record.error}")


def submit(
    url: str,
    name: str,
    backend: str = "azurebatch",
    smart_sampling: bool = False,
    sampling_policy: Optional[str] = None,
    delete_pools: bool = False,
    noise: Optional[float] = None,
    seed: Optional[int] = None,
    budget: Optional[float] = None,
    retry_failed: int = 0,
    parallel_pools: int = 1,
    capacity: str = "ondemand",
    recovery: str = "restart",
    eviction_rate: Optional[float] = None,
    eviction_seed: int = 0,
    checkpoint_interval: float = 600.0,
    checkpoint_overhead: float = 60.0,
    engine: str = "auto",
    wait: bool = False,
    timeout: float = 600.0,
    as_json: bool = False,
    state_dir: Optional[str] = None,
    trace: bool = False,
) -> int:
    """Submit an async collect job to a running service.

    With ``trace``, the client opens its own span in the deployment's
    trace ring under ``state_dir`` and propagates the trace id to the
    service, so ``repro trace <deployment>`` afterwards shows one linked
    tree from this submit down to the worker's sweep stages.
    """
    from repro.client import RemoteSession

    remote = RemoteSession(
        url, trace_dir=resolve_state_dir(state_dir) if trace else None
    )
    job = remote.collect(CollectRequest(
        deployment=name,
        backend=backend,
        smart_sampling=smart_sampling,
        sampling_policy=sampling_policy,
        delete_pools=delete_pools,
        noise=noise,
        seed=seed,
        budget_usd=budget,
        retry_failed=retry_failed,
        max_parallel_pools=parallel_pools,
        capacity=capacity,
        recovery=recovery,
        eviction_rate=eviction_rate,
        eviction_seed=eviction_seed,
        checkpoint_interval_s=checkpoint_interval,
        checkpoint_overhead_s=checkpoint_overhead,
        engine=engine,
    ))
    if wait:
        job.wait(timeout=timeout, raise_on_failure=False)
    _print_job(job.record, as_json)
    # Any terminal state other than done is a failure for scripting.
    if job.record.finished and job.record.state != "done":
        return 1
    return 0


def status(url: str, job_id: Optional[str] = None,
           limit: Optional[int] = None, offset: int = 0,
           as_json: bool = False) -> int:
    """Show one job, or a (paginated) job listing, of a running service."""
    import json

    from repro.client import RemoteSession

    remote = RemoteSession(url)
    if job_id:
        _print_job(remote.job(job_id), as_json)
        return 0
    records = remote.jobs(limit=limit, offset=offset)
    if as_json:
        print(json.dumps({"jobs": [r.to_dict() for r in records]}, indent=1))
        return 0
    if not records:
        print("(no jobs)")
        return 0
    print(f"{'JOB':<18} {'STATE':<10} {'KIND':<8} DEPLOYMENT")
    for record in records:
        print(f"{record.id:<18} {record.state:<10} {record.kind:<8} "
              f"{record.deployment}")
    return 0


def result(url: str, job_id: str, timeout: float = 600.0,
           as_json: bool = False) -> int:
    """Wait for a job and print its typed result."""
    from repro.client import JobHandle, RemoteSession

    remote = RemoteSession(url)
    job = JobHandle(remote, remote.job(job_id))
    record = job.wait(timeout=timeout, raise_on_failure=False)
    if record.state != "done":
        _print_job(record, as_json)
        return 1
    payload = job.result()
    if as_json:
        print(payload.to_json(indent=1))
        return 0
    if record.kind == "collect":
        print(f"collection finished on {payload.backend}:")
        print(f"  executed:  {payload.executed} "
              f"(completed {payload.completed}, failed {payload.failed})")
        print(f"  task cost:           ${fmt_usd(payload.task_cost_usd)}")
        print(f"  sweep makespan:      {fmt_duration(payload.makespan_s)}")
        print(f"  dataset:             {payload.dataset_path} "
              f"({payload.dataset_points} points)")
        return 0 if payload.ok else 1
    print(payload.render_table(), end="")
    return 0
