"""Incremental persistence end to end: crash safety, migration, parity.

The acceptance contract of the ``repro.store`` refactor:

* a sweep killed mid-flight keeps **every** completed point and task
  status on disk (no end-of-sweep save required) — under both engines;
* scheduled and sequential collection leave byte-identical JSONL files
  and row-identical SQLite corpora;
* an existing JSON state directory migrates to SQLite in place with
  identical advice output before and after.
"""

import os

import pytest

from repro.api import AdvisorSession
from repro.core.query import Query
from repro.core.statefiles import StateStore
from tests.conftest import make_config

BACKENDS = ("jsonl", "sqlite")


@pytest.fixture(params=BACKENDS)
def backend(request, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", request.param)
    return request.param


def _config(**kwargs):
    kwargs.setdefault("skus", ["Standard_HB120rs_v3", "Standard_HC44rs"])
    kwargs.setdefault("nnodes", [1, 2])
    return make_config(**kwargs)


class Boom(Exception):
    pass


class TestKillMidSweep:
    def test_completed_points_survive_an_aborted_sweep(self, tmp_path,
                                                       backend):
        """Abort after the second scenario outcome: both completed
        points and their task records must already be on disk."""
        state_dir = str(tmp_path / "state")
        session = AdvisorSession(state_dir=state_dir)
        info = session.deploy(_config())
        seen = []

        def bomb(report, total):
            seen.append(report.completed)
            if report.completed >= 2:
                raise Boom("simulated crash")

        with pytest.raises(Boom):
            session.collect(deployment=info.name, progress=bomb)
        assert max(seen) == 2

        # A *fresh* process (new session, new store handles) sees the
        # two completed points and resumes the remaining scenarios.
        fresh = AdvisorSession(state_dir=state_dir)
        assert len(fresh.dataset(info.name)) == 2
        statuses = fresh.taskdb(info.name).counts()
        assert statuses["completed"] == 2
        assert statuses["pending"] == 2
        resumed = fresh.collect(deployment=info.name)
        assert resumed.executed == 2  # only the unfinished half
        assert resumed.dataset_points == 4

    def test_kill_before_any_save_still_persists_first_point(
            self, tmp_path, backend):
        state_dir = str(tmp_path / "state")
        session = AdvisorSession(state_dir=state_dir)
        info = session.deploy(_config())

        def bomb(report, total):
            raise Boom("die on the very first outcome")

        with pytest.raises(Boom):
            session.collect(deployment=info.name, progress=bomb)
        fresh = AdvisorSession(state_dir=state_dir)
        assert len(fresh.dataset(info.name)) == 1


class TestBackendParity:
    def test_both_backends_collect_identical_measurements(self, tmp_path,
                                                          monkeypatch):
        points = {}
        for backend in BACKENDS:
            monkeypatch.setenv("REPRO_STORE", backend)
            session = AdvisorSession(state_dir=str(tmp_path / backend))
            info = session.deploy(_config())
            result = session.collect(deployment=info.name)
            assert result.store_backend == backend
            points[backend] = session.dataset(info.name).points()
        assert points["jsonl"] == points["sqlite"]

    def _sweep(self, state_dir, engine):
        """One full sweep at 1 pool on the given execution engine."""
        session = AdvisorSession(state_dir=state_dir)
        info = session.deploy(_config())
        result = session.collect(deployment=info.name, max_parallel_pools=1,
                                 engine=engine)
        assert result.engine == engine
        return session, info

    def test_scheduled_and_sequential_files_are_byte_identical(
            self, tmp_path, monkeypatch):
        """The incremental write path keeps the default walk and the
        batched kernel equal down to the stored JSONL bytes."""
        monkeypatch.setenv("REPRO_STORE", "jsonl")
        blobs = {}
        for engine in ("object", "batched"):
            session, info = self._sweep(str(tmp_path / engine), engine)
            path = session.store.dataset_path(info.name)
            with open(path, "rb") as fh:
                blobs[engine] = fh.read()
        assert blobs["object"] == blobs["batched"]

    def test_scheduled_and_sequential_sqlite_rows_identical(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "sqlite")
        rows = {}
        for engine in ("object", "batched"):
            session, info = self._sweep(str(tmp_path / engine), engine)
            rows[engine] = session.data_store(info.name).query_points()
        assert rows["object"] == rows["batched"]

    def test_higher_parallelism_keeps_measurements_identical(
            self, tmp_path, backend):
        """Overlapped pools may reorder appends and shift timestamps,
        but the stored measurements are the same set."""

        def measured(session, name):
            return sorted(
                (p.sku, p.nnodes, p.inputs_key(), p.exec_time_s, p.cost_usd)
                for p in session.dataset(name)
            )

        results = {}
        for label, pools in (("p1", 1), ("p2", 2)):
            session = AdvisorSession(state_dir=str(tmp_path / label))
            info = session.deploy(_config())
            session.collect(deployment=info.name, max_parallel_pools=pools)
            results[label] = measured(session, info.name)
        assert results["p1"] == results["p2"]


class TestInPlaceMigration:
    def test_jsonl_state_dir_migrates_with_identical_advice(self, tmp_path,
                                                            monkeypatch):
        state_dir = str(tmp_path / "state")
        # 1. Collect under the legacy JSONL engine.
        monkeypatch.setenv("REPRO_STORE", "jsonl")
        session = AdvisorSession(state_dir=state_dir)
        info = session.deploy(_config())
        session.collect(deployment=info.name)
        before = session.advise(deployment=info.name)
        legacy_dataset = session.store.dataset_path(info.name)
        assert os.path.exists(legacy_dataset)

        # 2. Re-open the same state dir under the SQLite default.
        monkeypatch.setenv("REPRO_STORE", "sqlite")
        migrated = AdvisorSession(state_dir=state_dir)
        after = migrated.advise(deployment=info.name)
        assert after.rows == before.rows
        assert after.dataset_points == before.dataset_points
        # Migration happened in place: the database exists, the legacy
        # files are frozen aside, and the task DB still knows everything
        # completed (a resume would re-run nothing).
        assert os.path.exists(migrated.store.db_path(info.name))
        assert not os.path.exists(legacy_dataset)
        assert os.path.exists(legacy_dataset + ".migrated")
        resumed = migrated.collect(deployment=info.name)
        assert resumed.executed == 0

    def test_migrated_store_keeps_appending(self, tmp_path, monkeypatch):
        state_dir = str(tmp_path / "state")
        monkeypatch.setenv("REPRO_STORE", "jsonl")
        session = AdvisorSession(state_dir=state_dir)
        info = session.deploy(_config(skus=["Standard_HB120rs_v3"]))
        session.collect(deployment=info.name)

        monkeypatch.setenv("REPRO_STORE", "sqlite")
        migrated = AdvisorSession(state_dir=state_dir)
        assert len(migrated.dataset(info.name)) == 2


class TestSessionQueryPushdown:
    def test_datapoints_pagination_and_total(self, tmp_path, backend):
        session = AdvisorSession(state_dir=str(tmp_path / "state"))
        info = session.deploy(_config())
        session.collect(deployment=info.name)
        page = session.datapoints(info.name, Query(limit=3))
        assert page.total == 4
        assert len(page.points) == 3
        assert page.has_more
        rest = session.datapoints(info.name, Query(limit=3, offset=3))
        assert len(rest.points) == 1
        assert not rest.has_more
        assert page.points + rest.points == tuple(
            session.dataset(info.name).points()
        )
        assert page.store_backend == backend

    def test_filtered_count_matches_query(self, tmp_path, backend):
        session = AdvisorSession(state_dir=str(tmp_path / "state"))
        info = session.deploy(_config())
        session.collect(deployment=info.name)
        q = Query(sku="hb120rs_v3")
        assert session.count_points(info.name, q) == 2
        assert len(session.query_points(info.name, q)) == 2

    def test_query_dataset_cold_cache_pushes_down(self, tmp_path, backend):
        state_dir = str(tmp_path / "state")
        session = AdvisorSession(state_dir=state_dir)
        info = session.deploy(_config())
        session.collect(deployment=info.name)
        # A brand-new session has no cached dataset: the filter runs in
        # the storage engine and returns only the matching points.
        cold = AdvisorSession(state_dir=state_dir)
        subset = cold.query_dataset(info.name, Query(nnodes=(2,)))
        assert sorted(p.sku for p in subset) == sorted(
            ["Standard_HB120rs_v3", "Standard_HC44rs"]
        )
        assert all(p.nnodes == 2 for p in subset)


class TestPurge:
    def test_shutdown_purge_removes_orphaned_state(self, tmp_path, backend):
        """Regression (ISSUE 5 satellite): remove_deployment used to drop
        only the index entry, leaving dataset/taskdb/store and lock
        files orphaned forever."""
        state_dir = str(tmp_path / "state")
        session = AdvisorSession(state_dir=state_dir)
        info = session.deploy(_config())
        session.collect(deployment=info.name)
        session.plot(deployment=info.name)
        assert session.store.data_files(info.name)

        session.shutdown(info.name, purge_data=True)
        assert session.store.data_files(info.name) == ()
        leftovers = [
            f for f in os.listdir(state_dir)
            if info.name in f and not f.startswith("archive")
        ]
        assert leftovers == []  # no data, no .lock, no plots dir

    def test_default_shutdown_keeps_data(self, tmp_path, backend):
        session = AdvisorSession(state_dir=str(tmp_path / "state"))
        info = session.deploy(_config())
        session.collect(deployment=info.name)
        session.shutdown(info.name)
        assert session.store.data_files(info.name)

    def test_store_level_purge_regression(self, tmp_path, backend):
        """StateStore.remove_deployment(purge_data=True) cleans the lock
        sidecars too."""
        session = AdvisorSession(state_dir=str(tmp_path / "state"))
        info = session.deploy(_config(skus=["Standard_HB120rs_v3"]))
        session.collect(deployment=info.name)
        store = StateStore(root=session.store.root)
        store.remove_deployment(info.name, purge_data=True)
        assert store.data_files(info.name) == ()
        assert not os.path.exists(
            store.dataset_path(info.name) + ".lock")
        assert not os.path.exists(store.taskdb_path(info.name) + ".lock")


class TestReadPathSideEffects:
    def test_listing_never_created_deployments_creates_no_files(
            self, tmp_path, backend):
        """`deploy list` over never-collected deployments must not
        litter the state dir with empty store databases."""
        state_dir = str(tmp_path / "state")
        session = AdvisorSession(state_dir=state_dir)
        for i in range(3):
            session.deploy(_config(rgprefix=f"ro{i}rg",
                                   skus=["Standard_HB120rs_v3"],
                                   nnodes=[1]))
        fresh = AdvisorSession(state_dir=state_dir)
        infos = fresh.list_deployments()
        assert [i.dataset_points for i in infos] == [0, 0, 0]
        # Lock sidecars appear at deploy time (pre-existing behavior);
        # what must NOT appear is any data file.
        files = [f for f in os.listdir(state_dir)
                 if not f.endswith(".lock")]
        assert not any(f.startswith("store-") for f in files)
        assert not any(f.startswith("dataset-") for f in files)

    def test_must_exist_read_does_not_create_database(self, tmp_path,
                                                      backend):
        import pytest as _pytest

        from repro.errors import ReproError

        session = AdvisorSession(state_dir=str(tmp_path / "state"))
        info = session.deploy(_config(skus=["Standard_HB120rs_v3"],
                                      nnodes=[1]))
        with _pytest.raises(ReproError, match="run collect first"):
            session.dataset(info.name)
        assert session.store.data_files(info.name) == ()


class TestFilterSemantics:
    def test_empty_nnodes_sequence_matches_nothing(self):
        """Historical Dataset.filter contract: nnodes=[] is an empty
        allow-set (matches nothing), unlike nnodes=None (no filter)."""
        from repro.core.dataset import DataPoint, Dataset

        data = Dataset([DataPoint(
            appname="lammps", sku="Standard_HB120rs_v3", nnodes=2,
            ppn=1, exec_time_s=1.0, cost_usd=0.1,
        )])
        assert len(data.filter(nnodes=[])) == 0
        assert len(data.filter(nnodes=None)) == 1
        assert len(data.filter(nnodes=[2])) == 1
