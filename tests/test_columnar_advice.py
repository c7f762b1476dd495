"""Columnar advice read path: equivalence and invalidation.

The columnar engine carries a hard contract: for any corpus and any
request, ``engine="columnar"`` returns *byte-identical* results to the
legacy per-DataPoint oracle (``engine="objects"``) — including error
messages.  Hypothesis drives random corpora and request shapes through
both engines over both store backends; separate tests pin snapshot
invalidation (append -> stale snapshot extended or rebuilt), the
agreement between the service ETag and the snapshot generation, and
that a snapshot extended by per-append deltas is field for field the
snapshot a cold build over the whole corpus produces.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.requests import ADVICE_ENGINE_CHOICES, AdviseRequest
from repro.api.session import AdvisorSession
from repro.core.columnar import (ADVICE_ENGINES, compare_snapshots,
                                 describe_advice_engines,
                                 resolve_advice_engine)
from repro.core.compare import compare_datasets
from repro.core.dataset import Dataset, DataPoint
from repro.core.query import Query
from repro.core.statefiles import StateStore
from repro.errors import AdvisorError, ReproError
from repro.predict.predictor import PerformancePredictor
from repro.store.snapshot import (ColumnarSnapshot, SnapshotCache,
                                  snapshot_for_store, snapshot_status)
from repro.store.sqlite import SqliteStore
from repro.telemetry import global_registry
from tests.conftest import make_config

SKUS = ("Standard_HB120rs_v3", "Standard_HC44rs")
STORE_BACKENDS = ("sqlite", "jsonl")

# -- corpus / request strategies -------------------------------------------------

_exec_times = st.floats(min_value=1.0, max_value=1e5, allow_nan=False)
_costs = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)


@st.composite
def datapoints(draw):
    exec_time = draw(_exec_times)
    spot = draw(st.booleans())
    return DataPoint(
        appname=draw(st.sampled_from(["lammps", "gromacs"])),
        sku=draw(st.sampled_from(SKUS)),
        nnodes=draw(st.integers(min_value=1, max_value=8)),
        ppn=draw(st.sampled_from([4, 100])),
        exec_time_s=exec_time,
        cost_usd=draw(_costs),
        appinputs={"BOXFACTOR": draw(st.sampled_from(["4", "8"]))},
        capacity="spot" if spot else "ondemand",
        preemptions=draw(st.integers(0, 3)) if spot else 0,
        makespan_s=exec_time * 1.25 if spot else 0.0,
        predicted=draw(st.booleans()),
        timestamp=float(draw(st.integers(0, 10_000))),
    )


corpora = st.lists(datapoints(), min_size=0, max_size=12)

advise_params = st.fixed_dictionaries({
    "appname": st.sampled_from([None, "lammps", "nothere"]),
    "sort_by": st.sampled_from(["time", "cost"]),
    "max_rows": st.sampled_from([None, 2]),
    "capacity": st.sampled_from(["", "ondemand", "spot"]),
    "nnodes": st.sampled_from([(), (2, 4)]),
    "eviction_rate": st.sampled_from([None, 12.0]),
})


def advise_outcome(session, name: str, engine: str, params) -> tuple:
    """The advice result (normalized) or the exact error it raised."""
    try:
        result = session.advise(AdviseRequest(deployment=name,
                                              engine=engine, **params))
    except ReproError as exc:
        return ("error", type(exc).__name__, str(exc))
    payload = result.to_dict()
    assert payload.pop("engine") == engine
    assert payload.pop("engine_fallback") == ""
    return ("ok", json.dumps(payload, sort_keys=True))


class TestEngineRegistry:
    def test_request_choices_mirror_core_engines(self):
        assert ADVICE_ENGINE_CHOICES == ADVICE_ENGINES

    def test_auto_resolves_to_columnar(self):
        assert resolve_advice_engine("auto")[0] == "columnar"

    def test_bad_engine_is_rejected_everywhere(self):
        with pytest.raises(AdvisorError):
            resolve_advice_engine("fortran")
        with pytest.raises(ReproError):
            AdviseRequest(deployment="d", engine="fortran")

    def test_described_engines_cover_choices(self):
        described = {row["engine"] for row in describe_advice_engines()}
        assert described == set(ADVICE_ENGINES)


class TestAdviceEquivalence:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(points=corpora, params=advise_params)
    def test_objects_and_columnar_agree(self, points, params):
        """Both engines, both store backends, spot and on-demand:
        identical rows or identical errors."""
        with tempfile.TemporaryDirectory() as root:
            for backend in STORE_BACKENDS:
                store = StateStore(root=os.path.join(root, backend),
                                   store_backend=backend)
                session = AdvisorSession(store=store)
                info = session.deploy(make_config(skus=list(SKUS)))
                session.data_store(info.name).append_points(points)
                objects = advise_outcome(session, info.name, "objects",
                                         params)
                columnar = advise_outcome(session, info.name, "columnar",
                                          params)
                assert objects == columnar, (backend, params)


class TestCompareEquivalence:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(points_a=corpora, points_b=corpora,
           query=st.sampled_from([None, Query(appname="lammps"),
                                  Query(nnodes=(1, 2, 4))]))
    def test_snapshot_compare_matches_dataset_compare(
            self, points_a, points_b, query):
        snap_a = ColumnarSnapshot.from_points(points_a)
        snap_b = ColumnarSnapshot.from_points(points_b)
        q = query or Query()
        legacy = compare_datasets(Dataset(points_a).query(q),
                                  Dataset(points_b).query(q))
        columnar = compare_snapshots(snap_a.view(q), snap_b.view(q))
        assert legacy == columnar


class TestPredictEquivalence:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(points=corpora,
           model=st.sampled_from(["ridge", "knn"]))
    def test_fit_columns_matches_fit(self, points, model):
        dataset = Dataset(points)
        snap = ColumnarSnapshot.from_points(points)

        from repro.core.scenarios import Scenario

        probe_scenario = Scenario(scenario_id="probe", sku_name=SKUS[0],
                                  nnodes=2, ppn=4, appname="lammps",
                                  appinputs={"BOXFACTOR": "4"})

        def run(fit, source):
            predictor = PerformancePredictor(backend=model)
            try:
                fit(predictor, source)
            except ReproError as exc:
                return ("error", type(exc).__name__, str(exc))
            return ("ok", predictor._spec,
                    float(predictor.predict_time(probe_scenario)))

        legacy = run(lambda p, s: p.fit(s), dataset)
        columnar = run(lambda p, s: p.fit_columns(s), snap)
        assert legacy == columnar


class TestSnapshotInvalidation:
    def _store(self, root, backend):
        store = StateStore(root=root, store_backend=backend)
        session = AdvisorSession(store=store)
        info = session.deploy(make_config(skus=list(SKUS)))
        return session, session.data_store(info.name), info.name

    @pytest.mark.parametrize("backend", STORE_BACKENDS)
    def test_append_rebuilds_stale_snapshot(self, tmp_path, backend):
        _, data, _ = self._store(str(tmp_path), backend)
        data.append_points([DataPoint(appname="lammps", sku=SKUS[0],
                                      nnodes=2, ppn=4, exec_time_s=10.0,
                                      cost_usd=1.0)])
        cache = SnapshotCache()
        first = snapshot_for_store(data, cache=cache)
        assert first.n == 1
        assert snapshot_for_store(data, cache=cache) is first  # LRU hit

        data.append_points([DataPoint(appname="lammps", sku=SKUS[1],
                                      nnodes=4, ppn=4, exec_time_s=9.0,
                                      cost_usd=2.0)])
        status = snapshot_status(data, cache=cache)
        assert status["cached"] and not status["fresh"]
        rebuilt = snapshot_for_store(data, cache=cache)
        assert rebuilt is not first
        assert rebuilt.n == 2
        assert snapshot_status(data, cache=cache)["fresh"]

    @pytest.mark.parametrize("backend", STORE_BACKENDS)
    def test_snapshot_generation_is_the_etag_generation(self, tmp_path,
                                                        backend):
        """The snapshot carries the exact ``dataset_signature`` the
        service response cache keys ETags on, so a fresh snapshot and a
        fresh ETag can never disagree about the corpus generation."""
        _, data, _ = self._store(str(tmp_path), backend)
        data.append_points([DataPoint(appname="lammps", sku=SKUS[0],
                                      nnodes=2, ppn=4, exec_time_s=10.0,
                                      cost_usd=1.0)])
        cache = SnapshotCache()
        snap = snapshot_for_store(data, cache=cache)
        assert snap.signature == data.dataset_signature()
        data.append_points([DataPoint(appname="lammps", sku=SKUS[0],
                                      nnodes=4, ppn=4, exec_time_s=8.0,
                                      cost_usd=2.0)])
        assert snap.signature != data.dataset_signature()
        assert (snapshot_for_store(data, cache=cache).signature
                == data.dataset_signature())


class TestServiceEtagAgreement:
    def test_append_moves_etag_and_advice_together(self, tmp_path):
        """A write invalidates the response cache and the snapshot in
        the same request: the ETag changes and the new advice reflects
        the appended point (no stale snapshot behind a fresh ETag)."""
        from repro.service.app import build_state
        from repro.service.router import Router

        state = build_state(str(tmp_path / "state"), workers=1)
        try:
            router = Router(state)
            config = make_config(skus=list(SKUS))
            response = router.handle(
                "POST", "/v1/deployments",
                json.dumps({"config": config.to_dict()}))
            assert response.status == 201, response.payload
            name = response.payload["name"]
            session = AdvisorSession(store=StateStore(
                root=str(tmp_path / "state")))
            session.data_store(name).append_points([DataPoint(
                appname="lammps", sku=SKUS[0], nnodes=2, ppn=4,
                exec_time_s=100.0, cost_usd=5.0)])

            first = router.handle("GET", f"/v1/advice?deployment={name}")
            assert first.status == 200
            etag = first.headers["ETag"]
            assert len(first.payload["rows"]) == 1

            # A strictly better point must both change the ETag and
            # appear in the recomputed advice.
            session.data_store(name).append_points([DataPoint(
                appname="lammps", sku=SKUS[1], nnodes=2, ppn=4,
                exec_time_s=50.0, cost_usd=1.0)])
            second = router.handle(
                "GET", f"/v1/advice?deployment={name}",
                headers={"If-None-Match": etag})
            assert second.status == 200
            assert second.headers["ETag"] != etag
            assert len(second.payload["rows"]) == 1
            assert second.payload["rows"][0]["exec_time_s"] == 50.0
        finally:
            state.close()

    def test_engine_param_selects_engine(self, tmp_path):
        from repro.service.app import build_state
        from repro.service.router import Router

        state = build_state(str(tmp_path / "state"), workers=1)
        try:
            router = Router(state)
            config = make_config(skus=list(SKUS))
            response = router.handle(
                "POST", "/v1/deployments",
                json.dumps({"config": config.to_dict()}))
            name = response.payload["name"]
            session = AdvisorSession(store=StateStore(
                root=str(tmp_path / "state")))
            session.data_store(name).append_points([DataPoint(
                appname="lammps", sku=SKUS[0], nnodes=2, ppn=4,
                exec_time_s=100.0, cost_usd=5.0)])
            payloads = {}
            for engine in ("objects", "columnar", "auto"):
                got = router.handle(
                    "GET",
                    f"/v1/advice?deployment={name}&engine={engine}")
                assert got.status == 200, got.payload
                payloads[engine] = dict(got.payload)
            assert payloads["objects"].pop("engine") == "objects"
            assert payloads["columnar"].pop("engine") == "columnar"
            assert payloads["auto"].pop("engine") == "columnar"
            for payload in payloads.values():
                payload.pop("engine_fallback")
            assert (payloads["objects"] == payloads["columnar"]
                    == payloads["auto"])
            bad = router.handle(
                "GET", f"/v1/advice?deployment={name}&engine=fortran")
            assert bad.status == 400
        finally:
            state.close()


# -- incremental snapshots (SQLite) ----------------------------------------------

#: SKUs, appinputs, tags and infra groups the delta tests draw from, so
#: groups first seen in a later batch and repeated mapping text both
#: occur.
DELTA_SKUS = SKUS + ("Standard_HB120rs_v2",)
DELTA_INPUTS = ({"BOXFACTOR": "4"}, {"BOXFACTOR": "8"},
                {"BOXFACTOR": "8", "NSTEPS": "200"})
DELTA_TAGS = ({}, {"run": "a"}, {"run": "b", "phase": "warm"})
DELTA_INFRA = ({}, {"p95_makespan_s": 1200.0}, {"cpu_util": 0.5})


@st.composite
def delta_points(draw):
    return dataclasses.replace(
        draw(datapoints()),
        sku=draw(st.sampled_from(DELTA_SKUS)),
        appinputs=dict(draw(st.sampled_from(DELTA_INPUTS))),
        tags=dict(draw(st.sampled_from(DELTA_TAGS))),
        infra_metrics=dict(draw(st.sampled_from(DELTA_INFRA))))


append_batches = st.lists(st.lists(delta_points(), max_size=5),
                          min_size=1, max_size=5)


class SpanRecorder:
    """Stands in for a live telemetry span: keeps the attributes."""

    def __init__(self) -> None:
        self.attrs = {}

    def set(self, key, value) -> None:
        self.attrs[key] = value


def cold_snapshot(store: SqliteStore) -> ColumnarSnapshot:
    """A full build over the whole store, with no cached base."""
    rows, cursor = store.fetch_point_columns()
    return ColumnarSnapshot.from_column_rows(
        rows, signature=store.dataset_signature(), cursor=cursor)


def snapshot_state(snap: ColumnarSnapshot) -> dict:
    """Every field but the lazy memo, deep-copied for later comparison."""
    return {f.name: copy.deepcopy(getattr(snap, f.name))
            for f in dataclasses.fields(snap) if f.name != "_lazy"}


def assert_same_state(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for name, value in want.items():
        if isinstance(value, np.ndarray):
            assert got[name].dtype == value.dtype, name
            assert np.array_equal(got[name], value), name
        else:
            assert got[name] == value, name
            if isinstance(value, tuple):
                # Group tables: same values *and* same types (a dict
                # where a dict was, a float where a float was).
                assert [type(v) for v in got[name]] == \
                    [type(v) for v in value], name


class TestIncrementalSnapshot:
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(batches=append_batches)
    def test_delta_extension_equals_cold_build(self, batches):
        """Random append sequences: after every append the cached
        snapshot equals a cold full build field for field, columnar
        advice equals the objects oracle, and extending never touches
        the base snapshot."""
        with tempfile.TemporaryDirectory() as root:
            session = AdvisorSession(store=StateStore(
                root=root, store_backend="sqlite"))
            name = session.deploy(make_config(skus=list(SKUS))).name
            store = session.data_store(name)
            cache = SnapshotCache()
            previous = None
            for batch in batches:
                before = (snapshot_state(previous)
                          if previous is not None else None)
                store.append_points(batch)
                span = SpanRecorder()
                snap = snapshot_for_store(store, cache=cache, span=span)
                if previous is None:
                    assert span.attrs["mode"] == "full"
                elif batch:
                    assert span.attrs == {"mode": "delta",
                                          "delta_rows": len(batch)}
                else:
                    assert span.attrs["mode"] == "hit"
                assert_same_state(snapshot_state(snap),
                                  snapshot_state(cold_snapshot(store)))
                if before is not None:
                    assert_same_state(snapshot_state(previous), before)
                    if snap is not previous:
                        for field, index in previous._index.items():
                            assert snap._index[field] is not index
                previous = snap
                for capacity in ("ondemand", "spot"):
                    params = {"capacity": capacity}
                    assert (advise_outcome(session, name, "columnar",
                                           params)
                            == advise_outcome(session, name, "objects",
                                              params)), capacity


def _point(sku: str = SKUS[0], exec_time_s: float = 10.0) -> DataPoint:
    return DataPoint(appname="lammps", sku=sku, nnodes=2, ppn=4,
                     exec_time_s=exec_time_s, cost_usd=1.0)


class TestSnapshotRobustness:
    @pytest.mark.parametrize("reused_inode", [False, True])
    def test_purge_and_redeploy_starts_from_the_new_database(
            self, tmp_path, monkeypatch, reused_inode):
        """Same name, same path, same generation count, warm cache: the
        snapshot holds only the new database's rows — also when the new
        file reuses the old inode number, because the signature names
        the database, not the inode."""
        session = AdvisorSession(store=StateStore(
            root=str(tmp_path), store_backend="sqlite"))
        config = make_config(skus=list(SKUS))
        name = session.deploy(config).name
        old = session.data_store(name)
        old.append_points([_point(SKUS[0], 10.0), _point(SKUS[0], 11.0)])
        old_id, old_signature = old.store_id, old.dataset_signature()
        old_ino = old._stat_ino()
        assert snapshot_for_store(old).n == 2  # warm process-wide cache

        session.shutdown(name, purge_data=True)
        assert session.deploy(config).name == name
        if reused_inode:
            # Every stat of the new file reports the old inode number.
            monkeypatch.setattr(SqliteStore, "_stat_ino",
                                lambda self: old_ino)
        new = session.data_store(name)
        assert new.store_id != old_id
        new.append_points([_point(SKUS[1], 7.0)])
        assert new.is_valid()
        assert new.dataset_signature()[1] == old_signature[1]
        assert new.dataset_signature() != old_signature
        span = SpanRecorder()
        snap = snapshot_for_store(new, span=span)
        assert span.attrs == {"mode": "full", "delta_rows": 1}
        assert snap.n == 1 and snap.skus == (SKUS[1],)
        assert snap.cursor[0] == new.store_id
        assert_same_state(snapshot_state(snap),
                          snapshot_state(cold_snapshot(new)))

    def test_second_handle_appends_are_picked_up_as_delta(self, tmp_path):
        path = str(tmp_path / "points.sqlite")
        store = SqliteStore(path)
        other = SqliteStore(path)
        try:
            assert other.store_id == store.store_id
            store.append_points([_point()])
            cache = SnapshotCache()
            assert snapshot_for_store(store, cache=cache).n == 1
            other.append_points([_point(SKUS[1], 5.0), _point()])
            span = SpanRecorder()
            snap = snapshot_for_store(store, cache=cache, span=span)
            assert span.attrs == {"mode": "delta", "delta_rows": 2}
            assert snap.n == 3
            assert_same_state(snapshot_state(snap),
                              snapshot_state(cold_snapshot(store)))
        finally:
            other.close()
            store.close()

    def test_commit_between_signature_and_fetch(self, tmp_path,
                                                monkeypatch):
        """The cursor comes from the fetched rows, not the signature: a
        row committed after the signature read is counted exactly once."""
        path = str(tmp_path / "points.sqlite")
        store = SqliteStore(path)
        other = SqliteStore(path)
        try:
            store.append_points([_point()])
            cache = SnapshotCache()
            snapshot_for_store(store, cache=cache)
            store.append_points([_point(exec_time_s=12.0)])
            read_signature = store.dataset_signature

            def signature_then_commit():
                signature = read_signature()
                other.append_points([_point(SKUS[1], 3.0)])
                return signature

            monkeypatch.setattr(store, "dataset_signature",
                                signature_then_commit)
            raced = snapshot_for_store(store, cache=cache)
            monkeypatch.undo()
            assert raced.n == 3
            assert raced.signature != store.dataset_signature()

            span = SpanRecorder()
            caught_up = snapshot_for_store(store, cache=cache, span=span)
            assert span.attrs == {"mode": "delta", "delta_rows": 0}
            assert caught_up.n == 3
            assert_same_state(snapshot_state(caught_up),
                              snapshot_state(cold_snapshot(store)))
        finally:
            other.close()
            store.close()

    def test_concurrent_readers_extend_consistently(self, tmp_path):
        """More reader threads than cores extend one shared cache while
        a second handle appends: every snapshot holds exactly the rows
        up to its cursor, and the last one equals a cold build."""
        import sys
        import threading

        path = str(tmp_path / "points.sqlite")
        store = SqliteStore(path)
        writer = SqliteStore(path)
        cache = SnapshotCache()
        done = threading.Event()
        failures = []

        def read():
            while not done.is_set():
                snap = snapshot_for_store(store, cache=cache)
                if snap.n != snap.cursor[1] or any(
                        len(snap._index[field]) != len(getattr(snap, values))
                        or snap.n != len(getattr(snap, codes))
                        for field, codes, values in (
                            ("sku", "sku_codes", "skus"),
                            ("tags", "tags_codes", "tags_groups"))):
                    failures.append((snap.n, snap.cursor))

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        readers = [threading.Thread(target=read) for _ in range(4)]
        try:
            for thread in readers:
                thread.start()
            for i in range(40):
                writer.append_points([
                    DataPoint(appname="lammps", sku=DELTA_SKUS[i % 3],
                              nnodes=2, ppn=4, exec_time_s=10.0 + i,
                              cost_usd=1.0, tags={"batch": str(i)})
                    for _ in range(3)])
        finally:
            done.set()
            for thread in readers:
                thread.join(timeout=30)
            sys.setswitchinterval(old_interval)
        try:
            assert not any(thread.is_alive() for thread in readers)
            assert failures == []
            final = snapshot_for_store(store, cache=cache)
            assert final.n == 120
            assert_same_state(snapshot_state(final),
                              snapshot_state(cold_snapshot(store)))
        finally:
            writer.close()
            store.close()

    def test_foreign_cursor_is_refused(self, tmp_path):
        first = SqliteStore(str(tmp_path / "a.sqlite"))
        second = SqliteStore(str(tmp_path / "b.sqlite"))
        try:
            first.append_points([_point()])
            _, cursor = first.fetch_point_columns()
            assert cursor == (first.store_id, 1)
            assert second.fetch_point_columns(after=cursor) is None
            assert first.fetch_point_columns(after=cursor) == ([], cursor)
        finally:
            second.close()
            first.close()


class TestSnapshotObservability:
    def test_builds_are_labelled_by_mode(self, tmp_path):
        store = SqliteStore(str(tmp_path / "points.sqlite"))
        try:
            family = global_registry().counter("advisor_snapshot_builds")

            def builds(mode):
                return family.labels(kind="sqlite", mode=mode).value

            full, delta = builds("full"), builds("delta")
            cache = SnapshotCache()
            store.append_points([_point()])
            snapshot_for_store(store, cache=cache)
            store.append_points([_point()])
            snapshot_for_store(store, cache=cache)
            assert (builds("full"), builds("delta")) == (full + 1,
                                                         delta + 1)
        finally:
            store.close()

    def test_status_reports_last_id(self, tmp_path):
        store = SqliteStore(str(tmp_path / "points.sqlite"))
        try:
            cache = SnapshotCache()
            assert snapshot_status(store, cache=cache)["last_id"] is None
            store.append_points([_point(), _point()])
            snapshot_for_store(store, cache=cache)
            status = snapshot_status(store, cache=cache)
            assert status["last_id"] == 2 and status["fresh"]
        finally:
            store.close()

    def test_engines_json_lists_last_id(self, tmp_path, capsys):
        from repro.cli.main import main

        state_dir = str(tmp_path / "state")
        session = AdvisorSession(store=StateStore(
            root=state_dir, store_backend="sqlite"))
        name = session.deploy(make_config(skus=list(SKUS))).name
        session.data_store(name).append_points([_point()])
        session.advise(AdviseRequest(deployment=name))
        capsys.readouterr()
        assert main(["--state-dir", state_dir, "engines", "--json"]) == 0
        snapshots = json.loads(capsys.readouterr().out)["snapshots"]
        assert [(s["deployment"], s["last_id"]) for s in snapshots] == \
            [(name, 1)]
