"""HTML rendering for the GUI (no template engine, just functions).

Each page renders from an :class:`repro.api.AdvisorSession` — the same
facade the CLI and the examples use — so the GUI shows exactly what the
``advice``/``plot`` commands would say.
"""

from __future__ import annotations

import html
from typing import TYPE_CHECKING

from repro.core.plotdata import (
    efficiency, exectime_vs_cost, exectime_vs_nodes, speedup,
)
from repro.core.svg import render_chart
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.api.session import AdvisorSession

_STYLE = """
body { font-family: sans-serif; margin: 0; display: flex; }
nav { width: 210px; background: #0b2e4f; color: white; min-height: 100vh;
      padding: 18px; box-sizing: border-box; }
nav h1 { font-size: 18px; } nav a { color: #bcd9f5; display: block;
      margin: 8px 0; text-decoration: none; }
main { padding: 24px; flex: 1; }
table { border-collapse: collapse; margin: 12px 0; }
td, th { border: 1px solid #999; padding: 4px 10px; font-size: 14px; }
th { background: #eef; }
.charts { display: flex; flex-wrap: wrap; gap: 12px; }
.pred { color: #b35900; }
.evict { color: #a01515; white-space: nowrap; }
"""


def _page(title: str, body: str) -> str:
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{html.escape(title)}</title><style>{_STYLE}</style></head>"
        "<body><nav><h1>HPCAdvisor</h1>"
        "<a href='/'>Deployments</a>"
        "</nav><main>" + body + "</main></body></html>"
    )


def render_index(session: "AdvisorSession") -> str:
    """The landing page: all deployments with links to their views."""
    infos = session.list_deployments()
    if not infos:
        body = "<h2>Deployments</h2><p>No deployments yet. " \
               "Create one with <code>hpcadvisor-sim deploy create</code>.</p>"
        return _page("HPCAdvisor", body)
    rows = []
    for info in infos:
        name = html.escape(info.name)
        app = html.escape(info.appname or "-")
        region = html.escape(info.region)
        links = f"<a href='/deployment/{name}'>details</a>"
        if info.has_data:
            links += (f" | <a href='/plots/{name}'>plots</a>"
                      f" | <a href='/advice/{name}'>advice</a>"
                      f" | <a href='/bottlenecks/{name}'>bottlenecks</a>"
                      f" | <a href='/api/v1/datapoints?deployment={name}"
                      f"&limit=50'>points (JSON)</a>")
        rows.append(
            f"<tr><td>{name}</td><td>{region}</td><td>{app}</td>"
            f"<td>{info.dataset_points}</td><td>{links}</td></tr>"
        )
    body = (
        "<h2>Deployments</h2><table>"
        "<tr><th>Name</th><th>Region</th><th>App</th><th>Points</th>"
        "<th>Views</th></tr>" + "".join(rows) + "</table>"
    )
    return _page("HPCAdvisor - deployments", body)


def render_deployment(session: "AdvisorSession", name: str) -> str:
    record = session.record(name)
    info = session.info(name, record=record)
    config = record.get("config") or {}
    details = "".join(
        f"<tr><td>{html.escape(str(k))}</td>"
        f"<td><code>{html.escape(str(v))}</code></td></tr>"
        for k, v in sorted(config.items())
    )
    body = (
        f"<h2>Deployment {html.escape(name)}</h2>"
        f"<p>Region: {html.escape(info.region)} &middot; "
        f"Storage: {html.escape(info.storage_account or '-')} &middot; "
        f"Collected points: {info.dataset_points}</p>"
        f"<h3>Configuration</h3><table>{details}</table>"
        + _sweep_section(session, name)
    )
    return _page(f"HPCAdvisor - {name}", body)


def _sweep_section(session: "AdvisorSession", name: str) -> str:
    """Per-SKU sweep timeline from the task DB (empty before collect).

    With ``collect --parallel-pools`` > 1 the per-SKU windows overlap, so
    the makespan drops below the sum of the rows — the concurrency win at
    a glance.
    """
    records = [r for r in session.taskdb(name).all()
               if r.started_at is not None and r.finished_at is not None]
    if not records:
        return ""
    by_sku: dict = {}
    for r in records:
        by_sku.setdefault(r.scenario.sku_name, []).append(r)
    any_evictions = any(r.preemptions for r in records)
    rows = []
    for sku in sorted(by_sku):
        group = by_sku[sku]
        first = min(r.started_at for r in group)
        last = max(r.finished_at for r in group)
        done = sum(1 for r in group if r.status.value == "completed")
        evictions = sum(r.preemptions for r in group)
        marker = ""
        if any_evictions:
            cell = f"&#9889; {evictions}" if evictions else "-"
            marker = f"<td class='evict'>{cell}</td>"
        rows.append(
            f"<tr><td>{html.escape(sku)}</td><td>{len(group)}</td>"
            f"<td>{done}</td><td>{first:.0f}</td><td>{last:.0f}</td>"
            f"<td>{last - first:.0f}</td>{marker}</tr>"
        )
    makespan = (max(r.finished_at for r in records)
                - min(r.started_at for r in records))
    eviction_header = "<th>Evictions</th>" if any_evictions else ""
    note = ""
    if any_evictions:
        total = sum(r.preemptions for r in records)
        note = (f" The sweep ran on spot capacity and absorbed {total} "
                "eviction(s) (&#9889;); interrupted tasks recovered per "
                "the sweep's recovery policy.")
    return (
        "<h3>Sweep timeline</h3>"
        f"<p>Task makespan: {makespan:.0f}s simulated; overlapping SKU "
        f"windows mean the sweep ran pools concurrently.{note}</p>"
        "<table><tr><th>SKU</th><th>Tasks</th><th>Completed</th>"
        "<th>First start (s)</th><th>Last finish (s)</th>"
        "<th>Span (s)</th>" + eviction_header + "</tr>"
        + "".join(rows) + "</table>"
    )


def render_plots(session: "AdvisorSession", name: str) -> str:
    snap = session.snapshot(name)
    if not snap.n:
        raise ReproError(f"no dataset for deployment {name!r}")
    charts = []
    for builder in (exectime_vs_nodes, exectime_vs_cost, speedup, efficiency):
        charts.append(f"<div>{render_chart(builder(snap))}</div>")
    body = (
        f"<h2>Plots - {html.escape(name)}</h2>"
        f"<div class='charts'>{''.join(charts)}</div>"
    )
    return _page(f"HPCAdvisor - plots {name}", body)


def render_bottlenecks(session: "AdvisorSession", name: str) -> str:
    """Infrastructure-bottleneck view (paper Sec. III-F third strategy)."""
    from repro.sampling.bottleneck import BottleneckAnalyzer

    snap = session.snapshot(name)
    analyzer = BottleneckAnalyzer()
    for sku, nnodes, infra in zip(snap.sku_codes.tolist(),
                                  snap.nnodes.tolist(),
                                  snap.infra_codes.tolist()):
        analyzer.observe_dict(snap.skus[sku], nnodes, snap.infra_groups[infra])
    rows = "".join(
        "<tr><td>{sku}</td><td>{n}</td><td>{dom}</td><td>{comm:.0%}</td>"
        "<td>{sat}</td></tr>".format(
            sku=html.escape(report.sku), n=report.nnodes,
            dom=html.escape(report.dominant),
            comm=report.comm_fraction,
            sat="yes" if report.scaling_saturated else "",
        )
        for report in analyzer.reports()
    )
    body = (
        f"<h2>Bottlenecks - {html.escape(name)}</h2>"
        "<p>Dominant resource per configuration; saturated rows will not "
        "profit from more nodes of that VM type.</p>"
        "<table><tr><th>SKU</th><th>Nodes</th><th>Bottleneck</th>"
        "<th>Comm share</th><th>Saturated</th></tr>" + rows + "</table>"
    )
    return _page(f"HPCAdvisor - bottlenecks {name}", body)


def render_advice(session: "AdvisorSession", name: str,
                  sort_by: str = "time") -> str:
    result = session.advise(deployment=name, sort_by=sort_by)
    table_rows = "".join(
        "<tr{cls}><td>{t:.0f}</td><td>{c:.4f}</td><td>{n}</td><td>{s}</td></tr>"
        .format(
            cls=" class='pred'" if row.predicted else "",
            t=row.exec_time_s, c=row.cost_usd, n=row.nnodes, s=row.sku_short,
        )
        for row in result.rows
    )
    body = (
        f"<h2>Advice - {html.escape(name)}</h2>"
        "<p>Pareto front over execution time and cost "
        f"(sorted by {html.escape(sort_by)}). "
        f"<a href='/advice/{html.escape(name)}?sort=cost'>sort by cost</a> | "
        f"<a href='/advice/{html.escape(name)}?sort=time'>sort by time</a></p>"
        "<table><tr><th>Exectime(s)</th><th>Cost($)</th><th>Nodes</th>"
        "<th>SKU</th></tr>" + table_rows + "</table>"
    )
    return _page(f"HPCAdvisor - advice {name}", body)
