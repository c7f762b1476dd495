"""Per-layer tracing from outside the program.

:class:`LayerTracer` replaces a function with a timing wrapper at the
name its caller resolves (a module attribute, or a class attribute for
methods and classmethods), and restores the original on
:meth:`LayerTracer.uninstall`.  Wrappers keep a stack of open spans, so
each layer's *self* time is its span's duration minus the time its
child spans cover; time spent outside every span is the workload's
unattributed time.

Spans are kept in memory as running totals; nothing is written until
the benchmark prints its result.  The tracer assumes one calling
thread, which holds for every traced workload (sweep, ingest rounds,
and the in-process advice replay).
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

#: Marks a wrapped method the class inherited (restored by deletion).
_INHERITED = object()

#: Layers the tracer attributes self time to (module names of src/).
LAYERS = ("collector", "perf", "batch", "store", "snapshot", "columnar",
          "cost", "pareto", "serde")


class LayerTracer:
    """Wraps functions per layer and accumulates span totals."""

    def __init__(self) -> None:
        self._stack: List[list] = []
        self._active: Dict[str, int] = defaultdict(int)
        self._patches: List[tuple] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.rows: Dict[str, int] = defaultdict(int)
        self.root_s = 0.0

    # -- spans -----------------------------------------------------------------

    def _enter(self, layer: str, key: str) -> float:
        self._stack.append([layer, 0.0])
        self._active[key] += 1
        return time.perf_counter()

    def _exit(self, layer: str, key: str, started: float) -> None:
        elapsed = time.perf_counter() - started
        _, child = self._stack.pop()
        self.self_s[layer] += elapsed - child
        if self._stack:
            self._stack[-1][1] += elapsed
        else:
            self.root_s += elapsed
        self._active[key] -= 1
        if not self._active[key]:
            # Only the outermost span of a key counts, so a wrapped
            # function calling another one of the same key (simulate ->
            # simulate_shaped) is one call, not two.
            self.incl_s[key] += elapsed
            self.calls[key] += 1

    @contextmanager
    def span(self, layer: str, key: str):
        """A span around benchmark-side code (e.g. ``json.dumps``)."""
        started = self._enter(layer, key)
        try:
            yield
        finally:
            self._exit(layer, key, started)

    # -- wrapping --------------------------------------------------------------

    def _wrapper(self, fn: Callable, layer: str, key: str,
                 count_rows: Optional[int]) -> Callable:
        enter, leave, rows = self._enter, self._exit, self.rows

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_rows is not None and len(args) > count_rows:
                rows[key] += len(args[count_rows])
            started = enter(layer, key)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(layer, key, started)

        return traced

    def wrap(self, owner, attr: str, layer: str, key: str,
             count_rows: Optional[int] = None) -> None:
        """Wrap ``owner.attr`` (a module function, method or
        classmethod).  ``count_rows`` names the positional argument (a
        sequence) whose length is added to ``rows[key]``.  A missing
        attribute raises, so a renamed seam fails the traced run instead
        of going unseen."""
        if isinstance(owner, type):
            original = owner.__dict__.get(attr, _INHERITED)
            target = (inspect.getattr_static(owner, attr)
                      if original is _INHERITED else original)
        else:
            original = target = getattr(owner, attr)
        if isinstance(target, classmethod):
            replacement = classmethod(self._wrapper(
                target.__func__, layer, key, count_rows))
        else:
            replacement = self._wrapper(target, layer, key, count_rows)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def reset(self) -> None:
        """Zero the totals, keeping the installed wrappers."""
        self.self_s.clear()
        self.incl_s.clear()
        self.calls.clear()
        self.rows.clear()
        self.root_s = 0.0

    def snapshot(self) -> Dict:
        return {"self_s": dict(self.self_s), "incl_s": dict(self.incl_s),
                "calls": dict(self.calls), "rows": dict(self.rows),
                "root_s": self.root_s}


# -- the seams of each workload ------------------------------------------------


def install_sweep(tracer: LayerTracer) -> None:
    """collector, perf, batch and store seams of ``AdvisorSession.collect``."""
    from repro.batch.pool import BatchPool
    from repro.batch.service import BatchService
    from repro.core.collector import DataCollector
    from repro.perf.model import AppPerfModel
    import repro.simd.engine as simd_engine
    from repro.store.sqlite import SqliteStore

    # Only the collector's own functions, not `collect` as a whole: time
    # spent in no named layer (the event queue's drive, the execution
    # back-end's glue) must show up as unattributed.  These are the
    # seams SweepProfiler's stages cover, plus registration and the
    # sampler/engine decisions.
    for attr in ("_register_scenarios", "_resolve_engine", "_should_run",
                 "_record_result", "_save_state", "_fail_setup_group"):
        tracer.wrap(DataCollector, attr, "collector", "collector.stage")
    tracer.wrap(AppPerfModel, "simulate", "perf", "perf.simulate")
    tracer.wrap(AppPerfModel, "simulate_shaped", "perf", "perf.simulate")
    # The batched engine primes physics through these names; they only
    # fire when `auto` resolves to (or a caller asks for) `batched`.
    tracer.wrap(simd_engine, "prime_grid", "perf", "perf.simulate")
    tracer.wrap(simd_engine, "prime_spot_draws", "perf", "perf.simulate")
    for attr in ("start_task", "complete_task"):
        tracer.wrap(BatchService, attr, "batch", "batch.task")
    for attr in ("create_pool", "delete_pool", "create_job"):
        tracer.wrap(BatchService, attr, "batch", "batch.pool")
    for attr in ("begin_resize", "finish_resize"):
        tracer.wrap(BatchPool, attr, "batch", "batch.pool")
    tracer.wrap(SqliteStore, "append_points", "store",
                "store.append_points", count_rows=1)
    tracer.wrap(SqliteStore, "sync_tasks", "store", "store.sync_tasks",
                count_rows=1)


def install_advice(tracer: LayerTracer) -> None:
    """store, snapshot, columnar, cost, pareto and serde seams of
    ``AdvisorSession.advise`` on the columnar engine."""
    from repro.api.results import AdviceResult
    from repro.api.session import AdvisorSession
    import repro.core.columnar as columnar
    import repro.core.cost as cost
    import repro.store.snapshot as snapshot
    from repro.store.sqlite import SqliteStore

    tracer.wrap(SqliteStore, "append_points", "store",
                "store.append_points", count_rows=1)
    tracer.wrap(SqliteStore, "fetch_point_columns", "store",
                "store.fetch_point_columns")
    # session._advise_columnar resolves these at call time:
    # self.snapshot, then `from repro.store.snapshot import
    # snapshot_for_store` and `from repro.core.columnar import ...`.
    tracer.wrap(AdvisorSession, "snapshot", "snapshot", "snapshot.session")
    tracer.wrap(snapshot, "snapshot_for_store", "snapshot",
                "snapshot.for_store")
    tracer.wrap(snapshot.ColumnarSnapshot, "from_column_rows", "snapshot",
                "snapshot.from_column_rows")
    tracer.wrap(snapshot.ColumnarSnapshot, "view", "snapshot",
                "snapshot.view")
    for attr in ("advice_columns", "capacity_columns", "advise_columns"):
        tracer.wrap(columnar, attr, "columnar", f"columnar.{attr}")
    # capacity_columns and advise_columns call these through the names
    # imported into repro.core.columnar.
    tracer.wrap(columnar, "p95_spot_runtime_cached", "cost", "cost.p95")
    tracer.wrap(columnar, "expected_spot_runtime_cached", "cost",
                "cost.expected")
    # The Monte-Carlo kernel itself, behind the memo (cost's own global).
    tracer.wrap(cost, "p95_spot_runtime", "cost", "cost.p95_kernel")
    tracer.wrap(columnar, "pareto_indices_nd", "pareto", "pareto.indices")
    tracer.wrap(columnar, "pareto_indices", "pareto", "pareto.indices")
    tracer.wrap(AdviceResult, "to_dict", "serde", "serde.to_json")


def self_shares(totals: Dict, e2e_s: float) -> Dict[str, float]:
    """``<layer>.self_share`` for every layer, plus unattributed_share."""
    out = {f"{layer}.self_share": totals["self_s"].get(layer, 0.0) / e2e_s
           for layer in LAYERS}
    out["unattributed_share"] = max(0.0, e2e_s - totals["root_s"]) / e2e_s
    return out


def merge(parts: List[Dict]) -> Dict:
    """Sum several :meth:`LayerTracer.snapshot` results."""
    out = {"self_s": defaultdict(float), "incl_s": defaultdict(float),
           "calls": defaultdict(int), "rows": defaultdict(int),
           "root_s": 0.0}
    for part in parts:
        for field in ("self_s", "incl_s", "calls", "rows"):
            for key, value in part[field].items():
                out[field][key] += value
        out["root_s"] += part["root_s"]
    return out
