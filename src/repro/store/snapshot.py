"""Columnar dataset snapshots: NumPy struct-of-arrays over a store.

The advice read path historically rehydrated every stored point into a
:class:`~repro.core.dataset.DataPoint` and walked Python loops over the
objects — a cost every cache-missing request paid again.  A
:class:`ColumnarSnapshot` holds one deployment's corpus as parallel
NumPy arrays (numeric columns) plus dictionary-encoded tables (strings
and mappings), and an in-process :class:`SnapshotCache` shares it
across requests in a worker.

A store with a column fetch (SQLite) pays the full build **once**;
after that, each store generation *extends* the cached snapshot with
the rows appended since it was built.  Every snapshot records a cursor
``(store_id, last_id)``; the next fetch returns only rows with
``id > last_id``, and :meth:`ColumnarSnapshot.from_column_rows`
continues the base snapshot's dictionary encoders, so the extension is
field-for-field what a cold build over the whole corpus produces.  This
is sound because stored points are append-only (see
:mod:`repro.store.sqlite`).  A cursor from another database (purge,
redeploy) is refused by the store and the build starts from empty.
Stores without a column fetch (JSONL) rebuild through ``query_points``.

Freshness is keyed on the *same* change token the service's ETag
response cache uses — :meth:`StoreBackend.dataset_signature`, which on
SQLite is ``(store_id, generation)`` — so a snapshot can never serve
data an ETag would have revalidated: whenever the ETag key changes, the
snapshot misses and is extended or rebuilt, and vice versa.  Because
the token names the database, a purged and redeployed store never
matches its predecessor's entry, even at the same path and generation.

Row order is store order (``ORDER BY id`` / file order), identical to
``query_points()``, so positional indices agree with the object path.
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dataset import DataPoint
from repro.core.query import Query
from repro.store.base import POINT_COLUMN_FIELDS
from repro.telemetry import global_registry

__all__ = [
    "ColumnarSnapshot",
    "SnapshotCache",
    "snapshot_cache",
    "snapshot_for_store",
    "snapshot_status",
]


# -- telemetry --------------------------------------------------------------------

_BUILDS = global_registry().counter(
    "advisor_snapshot_builds",
    "Columnar snapshot materializations, by store backend kind and "
    "mode (full rebuild or delta extension).",
)
_HITS = global_registry().counter(
    "advisor_snapshot_hits",
    "Columnar snapshot cache hits, by store backend kind.",
)
_ROWS = global_registry().gauge(
    "advisor_snapshot_rows",
    "Rows in the most recently built columnar snapshot, by backend kind.",
)
_BUILD_SECONDS = global_registry().histogram(
    "advisor_snapshot_build_seconds",
    "Columnar snapshot build latency, by store backend kind and mode.",
)


def _parse_str_map(text: str) -> Dict[str, str]:
    return {str(k): str(v) for k, v in (json.loads(text) or {}).items()}


def _parse_float_map(text: str) -> Dict[str, float]:
    return {str(k): float(v) for k, v in (json.loads(text) or {}).items()}


#: Numeric store-row fields: (field, dtype).  The snapshot attribute
#: carries the field's name.
_NUMERIC_COLUMNS = (
    ("exec_time_s", np.float64), ("cost_usd", np.float64),
    ("timestamp", np.float64), ("wasted_node_s", np.float64),
    ("makespan_s", np.float64), ("nnodes", np.int64), ("ppn", np.int64),
    ("preemptions", np.int64), ("predicted", bool),
)

#: Dictionary-encoded store-row fields: (field, codes attribute,
#: values attribute, decode one raw value).
_DICT_COLUMNS = (
    ("appname", "appname_codes", "appnames", str),
    ("sku", "sku_codes", "skus", str),
    ("capacity", "capacity_codes", "capacities", str),
    ("deployment", "deployment_codes", "deployments", str),
    ("appinputs", "appinputs_codes", "appinputs_groups", _parse_str_map),
    ("app_vars", "app_vars_codes", "app_vars_groups", _parse_str_map),
    ("infra_metrics", "infra_codes", "infra_groups", _parse_float_map),
    ("tags", "tags_codes", "tags_groups", _parse_str_map),
)


@dataclass
class ColumnarSnapshot:
    """One corpus as parallel columns.

    Numeric fields are NumPy arrays (float64 / int64 / bool); string and
    mapping fields are dictionary-encoded — an ``int32`` code array plus
    a tuple of unique values (mappings keep their original key order so
    a rehydrated point is indistinguishable from the stored one).
    """

    n: int
    exec_time_s: np.ndarray
    cost_usd: np.ndarray
    timestamp: np.ndarray
    wasted_node_s: np.ndarray
    makespan_s: np.ndarray
    nnodes: np.ndarray
    ppn: np.ndarray
    preemptions: np.ndarray
    predicted: np.ndarray
    appname_codes: np.ndarray
    appnames: Tuple[str, ...]
    sku_codes: np.ndarray
    skus: Tuple[str, ...]
    capacity_codes: np.ndarray
    capacities: Tuple[str, ...]
    deployment_codes: np.ndarray
    deployments: Tuple[str, ...]
    appinputs_codes: np.ndarray
    appinputs_groups: Tuple[Dict[str, str], ...]
    app_vars_codes: np.ndarray
    app_vars_groups: Tuple[Dict[str, str], ...]
    infra_codes: np.ndarray
    infra_groups: Tuple[Dict[str, float], ...]
    tags_codes: np.ndarray
    tags_groups: Tuple[Dict[str, str], ...]
    #: The store's ``dataset_signature()`` at build time (None for
    #: ad-hoc snapshots over in-memory points or filtered views).
    signature: Optional[Tuple] = None
    #: ``(store_id, last_id)`` of the last store row held (None unless
    #: built by :meth:`from_column_rows` from a store fetch).
    cursor: Optional[Tuple[str, int]] = None
    #: Raw value -> code, per :data:`_DICT_COLUMNS` field: the encoder
    #: state a delta build continues (``from_column_rows`` only).
    _index: Dict[str, Dict[Any, int]] = field(default_factory=dict,
                                              repr=False)
    _lazy: Dict[str, Any] = field(default_factory=dict, repr=False)

    # -- derived tables (computed once per snapshot) -----------------------------

    def __len__(self) -> int:
        return self.n

    @property
    def skus_lower(self) -> Tuple[str, ...]:
        got = self._lazy.get("skus_lower")
        if got is None:
            got = tuple(s.lower() for s in self.skus)
            self._lazy["skus_lower"] = got
        return got

    @property
    def inputs_keys(self) -> Tuple[str, ...]:
        """``DataPoint.inputs_key()`` per appinputs group."""
        got = self._lazy.get("inputs_keys")
        if got is None:
            got = tuple(
                ",".join(f"{k}={v}" for k, v in sorted(g.items()))
                for g in self.appinputs_groups
            )
            self._lazy["inputs_keys"] = got
        return got

    def price_memo(self) -> Dict[Any, Any]:
        """Mutable per-snapshot memo for SKU/region price lookups.

        Keyed by the caller (catalog identity, sku, region, spot); dies
        with the snapshot, i.e. exactly one generation of the corpus.
        """
        return self._lazy.setdefault("price_memo", {})

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_points(cls, points: Sequence[DataPoint],
                    signature: Optional[Tuple] = None) -> "ColumnarSnapshot":
        fields: Dict[str, Any] = {
            name: np.asarray([getattr(p, name) for p in points], dtype=dtype)
            for name, dtype in _NUMERIC_COLUMNS}
        for name, codes_attr, values_attr, _ in _DICT_COLUMNS:
            seen: Dict[Any, int] = {}
            values: List[Any] = []
            codes: List[int] = []
            for p in points:
                raw = getattr(p, name)
                # Mapping groups key on the *ordered* item tuple, so the
                # rehydrated dict reproduces the stored key order exactly.
                key = tuple(raw.items()) if isinstance(raw, dict) else raw
                code = seen.get(key)
                if code is None:
                    code = seen[key] = len(values)
                    values.append(dict(raw) if isinstance(raw, dict)
                                  else raw)
                codes.append(code)
            fields[codes_attr] = np.asarray(codes, dtype=np.int32)
            fields[values_attr] = tuple(values)
        return cls(n=len(points), signature=signature, **fields)

    @classmethod
    def from_column_rows(cls, rows: Sequence[tuple],
                         signature: Optional[Tuple] = None,
                         base: Optional["ColumnarSnapshot"] = None,
                         cursor: Optional[Tuple[str, int]] = None,
                         ) -> "ColumnarSnapshot":
        """``base`` extended with raw store rows (``fetch_point_columns``).

        Row layout is :data:`repro.store.base.POINT_COLUMN_FIELDS`
        (trailing columns past those are ignored);
        mapping fields arrive as JSON object text and are parsed once
        per unique text (payloads are written with compact separators,
        so identical mappings share identical text).  The build is
        column-at-a-time — one transpose, then one dictionary-encoding
        comprehension per string/mapping column.

        With ``base`` (a snapshot from an earlier call) each encoder
        continues from a *copy* of the base's raw value -> code index,
        and the new arrays are concatenated after the base's: the
        result is exactly what one call over ``base``'s rows plus
        ``rows`` builds, and ``base`` itself is left untouched.  A full
        build is the same call with no base.
        """
        columns = dict(zip(POINT_COLUMN_FIELDS, zip(*rows) if rows
                           else ((),) * len(POINT_COLUMN_FIELDS)))
        fields: Dict[str, Any] = {}
        for name, dtype in _NUMERIC_COLUMNS:
            fields[name] = np.asarray(columns[name], dtype=dtype)
        index: Dict[str, Dict[Any, int]] = {}
        for name, codes_attr, values_attr, decode in _DICT_COLUMNS:
            # ``setdefault(v, len(seen))`` reads the size *before* the
            # (possible) insert, so unseen values get the next code in
            # first-seen order; ``decode`` runs once per new value.
            seen = dict(base._index[name]) if base is not None else {}
            first_new = len(seen)
            nxt = seen.setdefault
            fields[codes_attr] = np.asarray(
                [nxt(v, len(seen)) for v in columns[name]], dtype=np.int32)
            fields[values_attr] = tuple(
                decode(v) for v in islice(seen, first_new, None))
            index[name] = seen
        if base is not None:
            for attr, added in fields.items():
                fields[attr] = (getattr(base, attr) + added
                                if isinstance(added, tuple)
                                else np.concatenate((getattr(base, attr),
                                                     added)))
        return cls(n=(base.n if base is not None else 0) + len(rows),
                   signature=signature, cursor=cursor, _index=index,
                   **fields)

    # -- filtering ---------------------------------------------------------------

    def query_mask(self, query: Query) -> np.ndarray:
        """Boolean row mask replicating :meth:`Query.matches` exactly
        (window ignored, like ``matches``)."""
        mask = np.ones(self.n, dtype=bool)
        if self.n == 0:
            return mask
        if query.appname is not None:
            mask &= self._str_eq(self.appname_codes, self.appnames,
                                 query.appname)
        candidates = query.sku_candidates
        if candidates is not None:
            ok = [i for i, s in enumerate(self.skus_lower)
                  if s in candidates]
            mask &= np.isin(self.sku_codes, ok)
        if query.nnodes:
            mask &= np.isin(self.nnodes, list(query.nnodes))
        if query.ppn is not None:
            mask &= self.ppn == query.ppn
        if query.min_nodes is not None:
            mask &= self.nnodes >= query.min_nodes
        if query.max_nodes is not None:
            mask &= self.nnodes <= query.max_nodes
        if query.appinputs:
            ok = [i for i, g in enumerate(self.appinputs_groups)
                  if all(g.get(k) == str(v)
                         for k, v in query.appinputs.items())]
            mask &= np.isin(self.appinputs_codes, ok)
        if query.tags:
            ok = [i for i, g in enumerate(self.tags_groups)
                  if all(g.get(k) == str(v)
                         for k, v in query.tags.items())]
            mask &= np.isin(self.tags_codes, ok)
        if not query.include_predicted:
            mask &= ~self.predicted
        if query.capacity is not None:
            mask &= self._str_eq(self.capacity_codes, self.capacities,
                                 query.capacity)
        return mask

    @staticmethod
    def _str_eq(codes: np.ndarray, values: Tuple[str, ...],
                want: str) -> np.ndarray:
        try:
            code = values.index(want)
        except ValueError:
            return np.zeros(codes.shape, dtype=bool)
        return codes == code

    def view(self, query: Optional[Query]) -> "ColumnarSnapshot":
        """``Dataset.query`` in column space: filter mask, then the
        query's offset/limit window (None = the snapshot itself)."""
        if query is None:
            return self
        idx = np.flatnonzero(self.query_mask(query))
        if query.offset:
            idx = idx[query.offset:]
        if query.limit is not None:
            idx = idx[:query.limit]
        return self.select(idx)

    def select(self, mask: np.ndarray) -> "ColumnarSnapshot":
        """A filtered view (row subset; group tables shared, uncached)."""
        return ColumnarSnapshot(
            n=int(np.count_nonzero(mask)) if mask.dtype == bool
            else len(mask),
            exec_time_s=self.exec_time_s[mask],
            cost_usd=self.cost_usd[mask],
            timestamp=self.timestamp[mask],
            wasted_node_s=self.wasted_node_s[mask],
            makespan_s=self.makespan_s[mask],
            nnodes=self.nnodes[mask],
            ppn=self.ppn[mask],
            preemptions=self.preemptions[mask],
            predicted=self.predicted[mask],
            appname_codes=self.appname_codes[mask],
            appnames=self.appnames,
            sku_codes=self.sku_codes[mask],
            skus=self.skus,
            capacity_codes=self.capacity_codes[mask],
            capacities=self.capacities,
            deployment_codes=self.deployment_codes[mask],
            deployments=self.deployments,
            appinputs_codes=self.appinputs_codes[mask],
            appinputs_groups=self.appinputs_groups,
            app_vars_codes=self.app_vars_codes[mask],
            app_vars_groups=self.app_vars_groups,
            infra_codes=self.infra_codes[mask],
            infra_groups=self.infra_groups,
            tags_codes=self.tags_codes[mask],
            tags_groups=self.tags_groups,
            signature=None,
            _lazy={k: v for k, v in self._lazy.items()
                   if k in ("skus_lower", "inputs_keys")},
        )

    # -- rehydration -------------------------------------------------------------

    def point(self, i: int) -> DataPoint:
        """Rehydrate one row as a :class:`DataPoint`."""
        return DataPoint(
            appname=self.appnames[self.appname_codes[i]],
            sku=self.skus[self.sku_codes[i]],
            nnodes=int(self.nnodes[i]),
            ppn=int(self.ppn[i]),
            exec_time_s=float(self.exec_time_s[i]),
            cost_usd=float(self.cost_usd[i]),
            appinputs=dict(self.appinputs_groups[self.appinputs_codes[i]]),
            app_vars=dict(self.app_vars_groups[self.app_vars_codes[i]]),
            infra_metrics=dict(self.infra_groups[self.infra_codes[i]]),
            tags=dict(self.tags_groups[self.tags_codes[i]]),
            deployment=self.deployments[self.deployment_codes[i]],
            timestamp=float(self.timestamp[i]),
            predicted=bool(self.predicted[i]),
            capacity=self.capacities[self.capacity_codes[i]],
            preemptions=int(self.preemptions[i]),
            wasted_node_s=float(self.wasted_node_s[i]),
            makespan_s=float(self.makespan_s[i]),
        )

    def points(self) -> List[DataPoint]:
        return [self.point(i) for i in range(self.n)]


# -- the per-process snapshot cache ----------------------------------------------

class SnapshotCache:
    """Generation-keyed LRU of built snapshots (thread-safe)."""

    def __init__(self, capacity: int = 8) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Any, Tuple[Tuple, ColumnarSnapshot]]" \
            = OrderedDict()

    def get(self, key: Any,
            signature: Tuple) -> Optional[ColumnarSnapshot]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[0] != signature:
                return None
            self._entries.move_to_end(key)
            return entry[1]

    def put(self, key: Any, signature: Tuple,
            snapshot: ColumnarSnapshot) -> None:
        with self._lock:
            self._entries[key] = (signature, snapshot)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def peek(self, key: Any) -> Optional[Tuple[Tuple, ColumnarSnapshot]]:
        """(signature, snapshot) regardless of freshness, or None."""
        with self._lock:
            return self._entries.get(key)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


_CACHE = SnapshotCache()


def snapshot_cache() -> SnapshotCache:
    """The process-wide snapshot LRU (shared across sessions/requests)."""
    return _CACHE


def _cache_key(backend) -> Tuple[str, str]:
    return (backend.kind, backend.dataset_display_path)


def snapshot_for_store(backend,
                       cache: Optional[SnapshotCache] = None,
                       span=None) -> ColumnarSnapshot:
    """The backend's current corpus as a snapshot, via the LRU.

    A fresh entry (same ``dataset_signature``) is returned as-is.  A
    stale one is extended with the rows appended since its cursor; a
    missing one, or one whose cursor the store refuses (the database
    was replaced), is built from empty through the same call.  Backends
    without a column fetch rebuild through ``query_points``.  ``span``
    (a live telemetry span) receives the ``mode`` (``hit``/``full``/
    ``delta``) and ``delta_rows`` attributes.
    """
    cache = cache if cache is not None else _CACHE
    signature = backend.dataset_signature()
    key = _cache_key(backend)
    snap = cache.get(key, signature)
    if snap is not None:
        _HITS.labels(kind=backend.kind).inc()
        if span is not None:
            span.set("mode", "hit")
            span.set("delta_rows", 0)
        return snap
    entry = cache.peek(key)
    base = entry[1] if entry is not None else None
    start = time.perf_counter()
    if backend.supports_column_fetch:
        fetched = None
        if base is not None and base.cursor is not None:
            fetched = backend.fetch_point_columns(after=base.cursor)
        if fetched is None:
            base = None
            fetched = backend.fetch_point_columns()
        rows, cursor = fetched
        snap = ColumnarSnapshot.from_column_rows(
            rows, signature=signature, base=base, cursor=cursor)
    else:
        base = None
        rows = backend.query_points()
        snap = ColumnarSnapshot.from_points(rows, signature=signature)
    mode = "full" if base is None else "delta"
    _BUILD_SECONDS.labels(kind=backend.kind, mode=mode).observe(
        time.perf_counter() - start)
    _BUILDS.labels(kind=backend.kind, mode=mode).inc()
    _ROWS.labels(kind=backend.kind).set(float(snap.n))
    if span is not None:
        span.set("mode", mode)
        span.set("delta_rows", len(rows))
    cache.put(key, signature, snap)
    return snap


def snapshot_status(backend,
                    cache: Optional[SnapshotCache] = None) -> Dict[str, Any]:
    """Cache/freshness report for one backend (for ``repro engines``)."""
    cache = cache if cache is not None else _CACHE
    signature = backend.dataset_signature()
    entry = cache.peek(_cache_key(backend))
    snap = entry[1] if entry is not None else None
    return {
        "backend": backend.kind,
        "column_fetch": backend.supports_column_fetch,
        "cached": snap is not None,
        "fresh": snap is not None and entry[0] == signature,
        "rows": (snap.n if snap is not None else None),
        "last_id": (snap.cursor[1] if snap is not None and snap.cursor
                    else None),
        "signature": "/".join(str(part) for part in signature),
    }
