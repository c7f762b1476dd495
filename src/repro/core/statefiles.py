"""State directory: deployments index and dataset locations.

The real tool keeps its working state under ``~/.hpcadvisor`` so CLI
invocations compose (``deploy create`` then ``collect`` then ``plot`` then
``advice``).  This reproduction does the same under a configurable state
directory (``HPCADVISOR_STATE_DIR`` or ``--state-dir``).

Because the cloud here is simulated in-process, a deployment record stores
the configuration needed to *deterministically reattach*: a fresh provider
replays the deployment on load.  The dataset and task DB are plain files,
so collected data genuinely persists across processes.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.config import MainConfig
from repro.core.deployer import Deployer, Deployment
from repro.errors import ConfigError, ResourceNotFound

if TYPE_CHECKING:  # pragma: no cover
    from repro.store.base import StoreBackend

ENV_VAR = "HPCADVISOR_STATE_DIR"
DEFAULT_DIRNAME = ".hpcadvisor-sim"

try:  # POSIX
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - Windows
    _fcntl = None
    import msvcrt as _msvcrt


class FileLock:
    """Advisory exclusive lock on ``<path>.lock``.

    Guards read-modify-write cycles on the state files (deployments
    index, task DBs, dataset appends) so concurrent service workers or
    CLI processes cannot interleave updates and lose each other's
    writes.  Advisory: every writer must take the lock; readers of the
    atomically-replaced files need not.  Excludes both other processes
    (``flock``/``msvcrt.locking`` on ``<path>.lock``) and other threads
    sharing this instance (an internal :class:`threading.RLock`, which
    also makes the lock reentrant for its owning thread).
    """

    def __init__(self, path: str) -> None:
        self.lock_path = path + ".lock"
        self._fh = None
        self._depth = 0
        self._tlock = threading.RLock()

    def acquire(self) -> "FileLock":
        self._tlock.acquire()
        # Only the RLock owner reaches here, so the depth counter and the
        # file handle are accessed by one thread at a time.
        try:
            if self._depth == 0:
                directory = os.path.dirname(os.path.abspath(self.lock_path))
                os.makedirs(directory, exist_ok=True)
                self._fh = open(self.lock_path, "a+")
                if _fcntl is not None:
                    _fcntl.flock(self._fh.fileno(), _fcntl.LOCK_EX)
                else:  # pragma: no cover - Windows
                    # LK_LOCK gives up after ~10 s; emulate a blocking
                    # wait with non-blocking attempts.
                    import time as _time

                    self._fh.seek(0)
                    while True:
                        try:
                            _msvcrt.locking(self._fh.fileno(),
                                            _msvcrt.LK_NBLCK, 1)
                            break
                        except OSError:
                            _time.sleep(0.05)
            self._depth += 1
        except BaseException:
            # A failed open/flock must not poison the (process-shared)
            # canonical instance: drop the handle and the RLock so other
            # threads can still try.
            if self._depth == 0 and self._fh is not None:
                self._fh.close()
                self._fh = None
            self._tlock.release()
            raise
        return self

    def release(self) -> None:
        # Probe ownership first: a non-owning thread must fail *before*
        # touching the depth counter or the flock, or it would silently
        # unlock the owner's critical section.
        if not self._tlock.acquire(blocking=False):
            raise RuntimeError(
                f"lock {self.lock_path!r} is not held by this thread"
            )
        try:
            if self._depth == 0:
                raise RuntimeError(f"lock {self.lock_path!r} is not held")
            self._depth -= 1
            if self._depth == 0:
                try:
                    if _fcntl is not None:
                        _fcntl.flock(self._fh.fileno(), _fcntl.LOCK_UN)
                    else:  # pragma: no cover - Windows
                        self._fh.seek(0)
                        _msvcrt.locking(self._fh.fileno(),
                                        _msvcrt.LK_UNLCK, 1)
                finally:
                    self._fh.close()
                    self._fh = None
            self._tlock.release()  # pairs with the acquire() being undone
        finally:
            self._tlock.release()  # pairs with the ownership probe above

    @property
    def held(self) -> bool:
        return self._depth > 0

    def __enter__(self) -> "FileLock":
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()


#: Canonical per-path lock instances for this process.  Acquirers are
#: ``AdvisorSession.collect`` (task-DB + dataset locks held from load to
#: save — the lost-update protection; the save methods themselves take
#: no lock) and ``StateStore``'s index methods.  Sharing one instance
#: per path makes same-thread nested acquisition reentrant, whereas two
#: independent ``flock`` fds on one path would deadlock the thread.
_CANONICAL_LOCKS: Dict[str, FileLock] = {}
_CANONICAL_GUARD = threading.Lock()


def file_lock(path: str) -> FileLock:
    """This process's canonical :class:`FileLock` for ``path``."""
    key = os.path.abspath(path)
    with _CANONICAL_GUARD:
        lock = _CANONICAL_LOCKS.get(key)
        if lock is None:
            lock = _CANONICAL_LOCKS[key] = FileLock(key)
        return lock


def atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (unique temp + rename).

    Readers never observe a partial file; concurrent writers each land a
    complete copy, last one wins.  Shared by the deployments index, task
    DBs, datasets, and the service's job records.
    """
    import tempfile

    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise




def resolve_state_dir(explicit: Optional[str] = None) -> str:
    """Precedence: explicit argument > environment variable > home default.

    ``~`` is expanded, so ``--state-dir ~/.hpcadvisor-sim`` and the
    documented ``AdvisorSession(state_dir="~/.hpcadvisor-sim")`` resolve
    to the home directory rather than a literal ``./~``.
    """
    if explicit:
        return os.path.abspath(os.path.expanduser(explicit))
    env = os.environ.get(ENV_VAR)
    if env:
        return os.path.abspath(os.path.expanduser(env))
    return os.path.join(os.path.expanduser("~"), DEFAULT_DIRNAME)


@dataclass
class StateStore:
    """Filesystem layout of the tool's persistent state.

    ``store_backend`` pins the persistence engine for data opened
    through this instance (``"jsonl"`` or ``"sqlite"``); ``None`` defers
    to :func:`repro.store.resolve_backend` (the ``REPRO_STORE``
    environment knob, default SQLite) with auto-detection of whatever
    engine already holds a deployment's data.
    """

    root: str
    store_backend: Optional[str] = None

    def __post_init__(self) -> None:
        os.makedirs(self.root, exist_ok=True)
        # The canonical per-path lock: save/remove hold it across their
        # whole read-modify-write cycle, and every store over this root
        # (in this process) shares the same reentrant instance.
        self._index_lock = file_lock(self.deployments_file)
        self._data_stores: Dict[str, "StoreBackend"] = {}
        self._data_stores_guard = threading.Lock()

    # -- paths ------------------------------------------------------------------

    @property
    def deployments_file(self) -> str:
        return os.path.join(self.root, "deployments.json")

    def dataset_path(self, deployment_name: str) -> str:
        return os.path.join(self.root, f"dataset-{deployment_name}.jsonl")

    def taskdb_path(self, deployment_name: str) -> str:
        return os.path.join(self.root, f"tasks-{deployment_name}.json")

    def db_path(self, deployment_name: str) -> str:
        """The deployment's SQLite database (SQLite backend only)."""
        return os.path.join(self.root, f"store-{deployment_name}.sqlite")

    def plots_dir(self, deployment_name: str) -> str:
        return os.path.join(self.root, f"plots-{deployment_name}")

    def traces_path(self, deployment_name: str) -> str:
        """The deployment's telemetry trace ring (JSON span lines)."""
        from repro.telemetry import trace_path

        return trace_path(self.root, deployment_name)

    def jobs_dir(self) -> str:
        """Where pre-fleet servers kept their JSON job records (imported
        once into ``fleet.sqlite`` at service start-up)."""
        return os.path.join(self.root, "jobs")

    # -- data stores -------------------------------------------------------------

    def data_store(self, deployment_name: str) -> "StoreBackend":
        """The deployment's (cached) persistence backend.

        Opening migrates legacy JSON state when the resolved engine is
        SQLite; a cached handle whose storage was deleted or swapped
        out (archive, purge, external rm) is transparently reopened.
        """
        from repro.store import open_deployment_store

        with self._data_stores_guard:
            cached = self._data_stores.get(deployment_name)
            if cached is not None and cached.is_valid():
                return cached
        # Open OUTSIDE the guard: opening may migrate legacy state under
        # the deployment's advisory file locks, and a sweep thread holds
        # those locks while calling back into data_store() — holding the
        # guard across the open would be a lock-order inversion (ABBA
        # deadlock with any concurrent reader triggering migration).
        store = open_deployment_store(
            self.dataset_path(deployment_name),
            self.taskdb_path(deployment_name),
            self.db_path(deployment_name),
            backend=self.store_backend,
        )
        with self._data_stores_guard:
            raced = self._data_stores.get(deployment_name)
            if raced is not None and raced is not cached and raced.is_valid():
                store.close()  # another thread opened first; keep theirs
                return raced
            if raced is not None:
                raced.close()  # the stale handle we are replacing
            self._data_stores[deployment_name] = store
        return store

    def release_data_store(self, deployment_name: str) -> None:
        """Close and forget the cached backend (before archive/purge)."""
        with self._data_stores_guard:
            store = self._data_stores.pop(deployment_name, None)
        if store is not None:
            store.close()

    def data_files(self, deployment_name: str) -> Tuple[str, ...]:
        """Every *existing* data file any backend may hold for the
        deployment (JSONL, task JSON, SQLite database + WAL sidecars)."""
        candidates = (
            self.dataset_path(deployment_name),
            self.taskdb_path(deployment_name),
            self.db_path(deployment_name),
            self.db_path(deployment_name) + "-wal",
            self.db_path(deployment_name) + "-shm",
        )
        return tuple(p for p in candidates if os.path.exists(p))

    # -- deployments index ----------------------------------------------------------

    def _read_index(self) -> Dict[str, Dict]:
        if not os.path.exists(self.deployments_file):
            return {}
        with open(self.deployments_file, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def _write_index(self, index: Dict[str, Dict]) -> None:
        atomic_write(self.deployments_file, json.dumps(index, indent=1))

    def save_deployment(self, deployment: Deployment) -> None:
        with self._index_lock:
            index = self._read_index()
            index[deployment.name] = deployment.to_record()
            self._write_index(index)

    def list_deployments(self) -> List[Dict]:
        return sorted(self._read_index().values(), key=lambda r: r["name"])

    def get_deployment_record(self, name: str) -> Dict:
        index = self._read_index()
        if name not in index:
            raise ResourceNotFound(
                f"deployment {name!r} not found in {self.deployments_file}"
            )
        return index[name]

    def remove_deployment(self, name: str, purge_data: bool = False) -> None:
        """Drop the deployment's index entry.

        With ``purge_data`` the deployment's persistent state goes too —
        dataset/task-DB/store files (whatever engine holds them), their
        ``.migrated`` leftovers, the advisory lock sidecars, and the
        plots directory — so a shut-down deployment leaves no orphaned
        files behind.  The default keeps the data: "release the
        resources, keep the data you paid for".
        """
        with self._index_lock:
            index = self._read_index()
            if name not in index:
                raise ResourceNotFound(f"deployment {name!r} not found")
            del index[name]
            self._write_index(index)
        if purge_data:
            self.purge_data(name)

    def purge_data(self, name: str) -> None:
        """Delete every file the deployment's data may live in.

        Purging is for *decommissioned* deployments: the index entry is
        already gone, so no new sweep can start.  A writer blocked on
        the advisory locks while we purge would, after unlink, hold a
        lock on an orphaned inode — callers gate purge behind shutdown
        (which refuses while jobs are active) for exactly this reason.
        """
        import shutil

        self.release_data_store(name)
        # Take the same locks (same order) a running collect holds, so a
        # purge cannot yank files out from under a sweep mid-flight.
        with file_lock(self.taskdb_path(name)), \
                file_lock(self.dataset_path(name)):
            doomed = list(self.data_files(name))
            doomed += [p + ".migrated" for p in
                       (self.dataset_path(name), self.taskdb_path(name))]
            # Both generations of the trace ring go with the data.
            traces = self.traces_path(name)
            doomed += [traces, traces + ".1"]
            for path in doomed:
                if os.path.exists(path):
                    os.unlink(path)
        # The lock sidecars themselves go last, after both are released.
        for path in (self.taskdb_path(name), self.dataset_path(name)):
            lock_path = path + ".lock"
            if os.path.exists(lock_path):
                os.unlink(lock_path)
        shutil.rmtree(self.plots_dir(name), ignore_errors=True)

    # -- reattachment -------------------------------------------------------------------

    def attach(self, name: str,
               deployer: Optional[Deployer] = None) -> Deployment:
        """Recreate the simulated deployment recorded under ``name``.

        The simulated control plane is deterministic, so replaying the
        deployment from its stored configuration reproduces an equivalent
        environment for the collector.  Pass ``deployer`` to replay onto
        an existing provider (e.g. a session's shared one).
        """
        record = self.get_deployment_record(name)
        config_dict = record.get("config")
        if not config_dict:
            raise ConfigError(
                f"deployment record {name!r} has no stored configuration"
            )
        config = MainConfig.from_dict(config_dict)
        deployer = deployer or Deployer()
        suffix = name[len(config.rgprefix):] if name.startswith(config.rgprefix) else None
        deployment = deployer.deploy(config, suffix=suffix)
        return deployment
