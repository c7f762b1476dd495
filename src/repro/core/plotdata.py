"""Series extraction for the paper's four plot types (Sec. III-D).

1. **Execution Time vs Number of Nodes** — per VM type (Fig. 2);
2. **Execution Time vs Cost** — per VM type (Fig. 3);
3. **Speed up** — vs the single smallest-node-count run of the same VM type
   (Fig. 4);
4. **Efficiency** — speedup over number of nodes (Fig. 5; values above 1
   are superlinear).

Series are keyed by the SKU short name (``hb120rs_v3`` style, as in the
paper's legends); the subtitle mirrors the paper's "atoms=860M"-style
annotation built from app variables or inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.query import Query
from repro.errors import DatasetError
from repro.store.snapshot import ColumnarSnapshot


def _columns(dataset, query: Optional[Query] = None) -> ColumnarSnapshot:
    """The builders' one input form: a :class:`ColumnarSnapshot`,
    filtered by ``query`` (None = everything).

    Snapshots (``AdvisorSession.snapshot``) pass through; a
    :class:`~repro.core.dataset.Dataset` or any sequence of points is
    encoded once with :meth:`ColumnarSnapshot.from_points`.
    """
    if not isinstance(dataset, ColumnarSnapshot):
        dataset = ColumnarSnapshot.from_points(list(dataset))
    return dataset.view(query)


@dataclass(frozen=True)
class Series:
    """One plotted line: a label plus (x, y) pairs sorted by x."""

    label: str
    points: Tuple[Tuple[float, float], ...]

    @property
    def xs(self) -> List[float]:
        return [p[0] for p in self.points]

    @property
    def ys(self) -> List[float]:
        return [p[1] for p in self.points]


@dataclass(frozen=True)
class PlotData:
    """A full chart: titled series with axis labels."""

    title: str
    xlabel: str
    ylabel: str
    series: Tuple[Series, ...]
    subtitle: str = ""

    def series_by_label(self, label: str) -> Series:
        for s in self.series:
            if s.label == label:
                return s
        raise DatasetError(f"no series labelled {label!r}")


def _short(sku: str) -> str:
    name = sku
    if name.lower().startswith("standard_"):
        name = name[len("standard_"):]
    return name.lower()


def _group_rows_by_sku(snap: ColumnarSnapshot) -> Dict[str, np.ndarray]:
    """Row indices per short SKU name, rows in store order.

    Distinct full SKU spellings can share one short name, so grouping
    goes through the code table and merges them.
    """
    codes_by_short: Dict[str, List[int]] = {}
    for code, sku in enumerate(snap.skus):
        codes_by_short.setdefault(_short(sku), []).append(code)
    out: Dict[str, np.ndarray] = {}
    for short, codes in sorted(codes_by_short.items()):
        rows = np.flatnonzero(np.isin(snap.sku_codes, codes))
        if rows.size:
            out[short] = rows
    return out


def _sorted_pairs(xs: np.ndarray, ys: np.ndarray) -> Tuple[Tuple[float, float], ...]:
    """``tuple(sorted(zip(xs, ys)))`` with native floats, via lexsort."""
    order = np.lexsort((ys, xs))
    return tuple(zip(xs[order].tolist(), ys[order].tolist()))


def _require_points(dataset, what: str) -> None:
    if len(dataset) == 0:
        raise DatasetError(f"no data points to build the {what} plot")


_SUBTITLE_VARS = {
    "LAMMPSATOMS": "atoms", "OFCELLS": "cells", "WRFGRIDPOINTS": "points",
    "GMXATOMS": "atoms", "NAMDATOMS": "atoms", "MMSIZE": "msize",
}


def default_subtitle(dataset) -> str:
    """Paper-style subtitle like ``atoms=860M`` from app vars or inputs:
    the first row whose app variables or inputs answer (almost always
    the first row), walked over the group codes."""
    snap = _columns(dataset)
    for var_code, inp_code in zip(snap.app_vars_codes.tolist(),
                                  snap.appinputs_codes.tolist()):
        app_vars = snap.app_vars_groups[var_code]
        for key in ("LAMMPSATOMS", "OFCELLS", "WRFGRIDPOINTS", "GMXATOMS",
                    "NAMDATOMS", "MMSIZE"):
            if key in app_vars:
                return f"{_SUBTITLE_VARS[key]}={_human(float(app_vars[key]))}"
        appinputs = snap.appinputs_groups[inp_code]
        if appinputs:
            return ",".join(f"{k}={v}" for k, v in sorted(appinputs.items()))
    return ""


def _human(value: float) -> str:
    for threshold, suffix in ((1e9, "B"), (1e6, "M"), (1e3, "K")):
        if value >= threshold:
            return f"{value / threshold:.0f}{suffix}"
    return f"{value:g}"


# -- the four plot types -------------------------------------------------------------


def exectime_vs_nodes(dataset, subtitle: Optional[str] = None,
                      query: Optional[Query] = None) -> PlotData:
    """Plot type 1 (the paper's Fig. 2)."""
    snap = _columns(dataset, query)
    _require_points(snap, "exec-time-vs-nodes")
    nodes = snap.nnodes.astype(np.float64)
    series = tuple(
        Series(label=sku, points=_sorted_pairs(nodes[rows],
                                               snap.exec_time_s[rows]))
        for sku, rows in _group_rows_by_sku(snap).items())
    return PlotData(
        title="Exectime",
        xlabel="Number of VMs",
        ylabel="Execution time (seconds)",
        series=series,
        subtitle=subtitle if subtitle is not None else default_subtitle(snap),
    )


def exectime_vs_cost(dataset, subtitle: Optional[str] = None,
                     query: Optional[Query] = None) -> PlotData:
    """Plot type 2 (the paper's Fig. 3): x = exec time, y = cost."""
    snap = _columns(dataset, query)
    _require_points(snap, "exec-time-vs-cost")
    series = tuple(
        Series(label=sku, points=_sorted_pairs(snap.exec_time_s[rows],
                                               snap.cost_usd[rows]))
        for sku, rows in _group_rows_by_sku(snap).items())
    return PlotData(
        title="Cost",
        xlabel="Execution time (seconds)",
        ylabel="Cost (USD)",
        series=series,
        subtitle=subtitle if subtitle is not None else default_subtitle(snap),
    )


def _speedups(snap: ColumnarSnapshot
              ) -> Iterator[Tuple[str, np.ndarray, np.ndarray]]:
    """(short SKU, node counts, speedups) per SKU over its timed rows.

    The paper defines speedup vs the single-node run; when a sweep starts
    above one node (their Figures start at 2), the smallest run is the
    reference and speedup is normalised by the node ratio.  ``argmin``
    picks the first minimal-node row in store order.
    """
    for sku, rows in _group_rows_by_sku(snap).items():
        ref = rows[int(np.argmin(snap.nnodes[rows]))]
        ref_work = float(snap.nnodes[ref]) * float(snap.exec_time_s[ref])
        keep = rows[snap.exec_time_s[rows] > 0]
        yield sku, snap.nnodes[keep], ref_work / snap.exec_time_s[keep]


def speedup(dataset, subtitle: Optional[str] = None,
            query: Optional[Query] = None) -> PlotData:
    """Plot type 3 (the paper's Fig. 4)."""
    snap = _columns(dataset, query)
    _require_points(snap, "speedup")
    series = tuple(
        Series(label=sku, points=_sorted_pairs(nodes.astype(np.float64),
                                               gains))
        for sku, nodes, gains in _speedups(snap))
    return PlotData(
        title="Speedup",
        xlabel="Number of VMs",
        ylabel="Speedup",
        series=series,
        subtitle=subtitle if subtitle is not None else default_subtitle(snap),
    )


def efficiency(dataset, subtitle: Optional[str] = None,
               query: Optional[Query] = None) -> PlotData:
    """Plot type 4 (the paper's Fig. 5): speedup / nodes, >1 is superlinear."""
    snap = _columns(dataset, query)
    _require_points(snap, "efficiency")
    series = tuple(
        Series(label=sku, points=_sorted_pairs(nodes.astype(np.float64),
                                               gains / nodes))
        for sku, nodes, gains in _speedups(snap))
    return PlotData(
        title="Efficiency",
        xlabel="Number of VMs",
        ylabel="Efficiency",
        series=series,
        subtitle=subtitle if subtitle is not None else default_subtitle(snap),
    )


def pareto_scatter(dataset) -> Tuple[PlotData, Series]:
    """The Fig. 6 concept plot: all scenarios plus the Pareto front line."""
    from repro.core.pareto import pareto_front

    snap = _columns(dataset)
    _require_points(snap, "pareto")
    all_points = list(_sorted_pairs(snap.exec_time_s, snap.cost_usd))
    front = pareto_front(all_points)
    scatter = PlotData(
        title="Advice based on pareto front",
        xlabel="Execution time (seconds)",
        ylabel="Cost (USD)",
        series=(Series(label="Scenarios", points=tuple(all_points)),),
    )
    return scatter, Series(label="Pareto Front", points=tuple(front))
