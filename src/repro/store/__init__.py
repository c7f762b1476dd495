"""repro.store: pluggable persistence engines for collected data.

The paper keeps collected sweep data "in a JSON file" (Sec. III-C); this
subsystem generalizes that into a :class:`StoreBackend` contract with
two engines:

* :class:`JsonlStore` — byte-compatible with the historical
  ``dataset-<name>.jsonl`` / ``tasks-<name>.json`` layout;
* :class:`SqliteStore` — the default: one WAL-mode SQLite database per
  deployment with indexed query pushdown and O(1) appends.

Selection (``resolve_backend``), per-deployment opening with
auto-detection, and transparent one-shot migration of legacy JSON
state (``open_deployment_store``) live here; see ``docs/STORAGE.md``
for the full model.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.core.query import Query
from repro.errors import ConfigError
from repro.store.base import StoreBackend
from repro.store.jsonl import JsonlStore
from repro.store.snapshot import (ColumnarSnapshot, SnapshotCache,
                                  snapshot_cache, snapshot_for_store,
                                  snapshot_status)
from repro.store.sqlite import SqliteStore

#: Environment knob selecting the engine for newly-opened state.
ENV_VAR = "REPRO_STORE"

#: Engines by name.
BACKENDS = ("jsonl", "sqlite")

#: Engine used when nothing else decides.
DEFAULT_BACKEND = "sqlite"

#: Process-wide override (the CLI's ``--store`` flag sets this).
_override: Optional[str] = None


def set_default_backend(kind: Optional[str]) -> None:
    """Override backend resolution for this process (None resets)."""
    global _override
    if kind is not None:
        kind = _validate(kind)
    _override = kind


def resolve_backend(explicit: Optional[str] = None) -> str:
    """Precedence: explicit argument > CLI override > ``REPRO_STORE`` >
    default (:data:`DEFAULT_BACKEND`)."""
    if explicit:
        return _validate(explicit)
    if _override:
        return _override
    env = os.environ.get(ENV_VAR)
    if env:
        return _validate(env)
    return DEFAULT_BACKEND


def _validate(kind: str) -> str:
    kind = kind.strip().lower()
    if kind not in BACKENDS:
        raise ConfigError(
            f"unknown store backend {kind!r}; expected one of {BACKENDS}"
        )
    return kind


def open_deployment_store(
    dataset_path: str,
    taskdb_path: str,
    db_path: str,
    backend: Optional[str] = None,
) -> StoreBackend:
    """Open one deployment's store, auto-detecting existing state.

    Resolution, in order:

    1. an existing SQLite database always wins — the data lives there,
       whatever the configured backend says;
    2. otherwise the configured backend (:func:`resolve_backend`);
    3. opening SQLite over legacy JSON state triggers a one-shot,
       lock-guarded migration: rows are copied into the database and
       the legacy files renamed to ``*.migrated`` so nothing reads the
       now-frozen copies by mistake.
    """
    if os.path.exists(db_path):
        return SqliteStore(db_path)
    choice = resolve_backend(backend)
    if choice == "jsonl":
        return JsonlStore(dataset_path, taskdb_path)
    if os.path.exists(dataset_path) or os.path.exists(taskdb_path):
        return _migrate_to_sqlite(dataset_path, taskdb_path, db_path)
    return SqliteStore(db_path)


def _migrate_to_sqlite(dataset_path: str, taskdb_path: str,
                       db_path: str) -> SqliteStore:
    """Copy legacy JSON state into a fresh SQLite store (one shot).

    The database is built at a temporary path and renamed into place
    only when complete: a crash mid-migration must never leave a
    schema-only database shadowing the intact legacy corpus (``db_path``
    existing is what makes every later open pick SQLite).
    """
    from repro.core.statefiles import file_lock

    # Same locks, same order, as a running collect: a migration must not
    # interleave with a sweep's appends.
    with file_lock(taskdb_path), file_lock(dataset_path):
        if os.path.exists(db_path):  # lost the race: already migrated
            return SqliteStore(db_path)
        tmp_path = db_path + ".migrating"
        if os.path.exists(tmp_path):  # debris of a crashed attempt
            os.unlink(tmp_path)
        legacy = JsonlStore(dataset_path, taskdb_path)
        building = SqliteStore(tmp_path)
        try:
            building.append_points(legacy.query_points())
            tasks = legacy.load_tasks()
            building.sync_tasks(tasks, tasks)
            if legacy.exists():
                # The legacy dataset file existed, so the corpus
                # "exists" even if it held zero points.
                building.flush_points()
        finally:
            building.close()  # checkpoints the WAL into the main file
        os.replace(tmp_path, db_path)  # the commit point
        # From here the database is authoritative; freezing the legacy
        # files aside is cleanup (a crash in between leaves them live
        # but ignored, since an existing database always wins).
        for path in (dataset_path, taskdb_path):
            if os.path.exists(path):
                os.replace(path, path + ".migrated")
    return SqliteStore(db_path)


__all__ = [
    "BACKENDS",
    "ColumnarSnapshot",
    "DEFAULT_BACKEND",
    "ENV_VAR",
    "JsonlStore",
    "Query",
    "SnapshotCache",
    "SqliteStore",
    "StoreBackend",
    "open_deployment_store",
    "resolve_backend",
    "set_default_backend",
    "snapshot_cache",
    "snapshot_for_store",
    "snapshot_status",
]
