"""Wire contract of the paginated data routes (ISSUE 5).

``GET /v1/datapoints`` (query pushdown + pagination), the
``limit``/``offset`` windows on ``/v1/jobs`` and ``/v1/deployments``,
and the ``purge_data`` flag on ``DELETE /v1/deployments/<name>`` —
router-level (no sockets) plus the :class:`RemoteSession` mirror over a
real server.
"""

import json

import pytest

from repro.api.results import SessionInfo
from repro.service.app import build_state
from repro.service.router import Router
from tests.conftest import make_config


@pytest.fixture
def state(tmp_path):
    service_state = build_state(str(tmp_path / "state"), workers=2)
    yield service_state
    service_state.close()


@pytest.fixture
def router(state):
    return Router(state)


def deploy(router, prefix="dprg", **overrides):
    overrides.setdefault("skus",
                         ["Standard_HB120rs_v3", "Standard_HC44rs"])
    overrides.setdefault("nnodes", [1, 2])
    config = make_config(rgprefix=prefix, **overrides)
    response = router.handle("POST", "/v1/deployments",
                             json.dumps({"config": config.to_dict()}))
    assert response.status == 201, response.payload
    return SessionInfo.from_dict(response.payload)


def collect_done(router, name):
    response = router.handle("POST", "/v1/jobs/collect",
                             json.dumps({"deployment": name}))
    assert response.status == 202, response.payload
    record = router.state.jobs.wait(response.payload["id"], timeout=30)
    assert record.state == "done", record.error
    return record


class TestDatapointsRoute:
    def test_requires_deployment(self, router):
        response = router.handle("GET", "/v1/datapoints")
        assert response.status == 400

    def test_full_listing_with_default_page(self, router):
        info = deploy(router)
        collect_done(router, info.name)
        response = router.handle(
            "GET", f"/v1/datapoints?deployment={info.name}")
        assert response.status == 200
        payload = response.payload
        assert payload["total"] == 4
        assert len(payload["points"]) == 4
        assert payload["limit"] == 500  # bounded default page
        assert {p["sku"] for p in payload["points"]} == {
            "Standard_HB120rs_v3", "Standard_HC44rs",
        }

    def test_filter_pushdown_and_window(self, router):
        info = deploy(router)
        collect_done(router, info.name)
        response = router.handle(
            "GET",
            f"/v1/datapoints?deployment={info.name}"
            "&sku=hb120rs_v3&limit=1&offset=1",
        )
        payload = response.payload
        assert payload["total"] == 2  # total ignores the window
        assert len(payload["points"]) == 1
        assert payload["points"][0]["sku"] == "Standard_HB120rs_v3"
        assert payload["offset"] == 1

    def test_nnodes_and_appinput_filters(self, router):
        info = deploy(router)
        collect_done(router, info.name)
        response = router.handle(
            "GET",
            f"/v1/datapoints?deployment={info.name}"
            "&nnodes=2&filter=BOXFACTOR%3D4",
        )
        payload = response.payload
        assert payload["total"] == 2
        assert all(p["nnodes"] == 2 for p in payload["points"])

    def test_unknown_deployment_404s(self, router):
        response = router.handle("GET", "/v1/datapoints?deployment=ghost")
        assert response.status in (404, 422)

    def test_post_not_allowed(self, router):
        response = router.handle("POST", "/v1/datapoints", "{}")
        assert response.status == 405


class TestPaginatedListings:
    def test_deployments_listing_pages(self, router):
        for i in range(3):
            deploy(router, prefix=f"pag{i}rg",
                   skus=["Standard_HB120rs_v3"], nnodes=[1])
        response = router.handle("GET", "/v1/deployments?limit=2&offset=1")
        payload = response.payload
        assert payload["total"] == 3
        assert len(payload["deployments"]) == 2
        names = [d["name"] for d in payload["deployments"]]
        assert names == ["pag1rg-000", "pag2rg-000"]

    def test_jobs_listing_pages(self, router):
        info = deploy(router, skus=["Standard_HB120rs_v3"], nnodes=[1])
        for _ in range(3):
            collect_done(router, info.name)
        response = router.handle("GET", "/v1/jobs?limit=2")
        payload = response.payload
        assert payload["total"] == 3
        assert len(payload["jobs"]) == 2
        rest = router.handle("GET", "/v1/jobs?limit=2&offset=2").payload
        assert len(rest["jobs"]) == 1
        ids = [j["id"] for j in payload["jobs"]] + [
            j["id"] for j in rest["jobs"]]
        assert len(set(ids)) == 3  # no overlap, nothing lost


class TestPurgeRoute:
    def test_delete_with_purge_removes_data(self, router):
        info = deploy(router, skus=["Standard_HB120rs_v3"], nnodes=[1])
        collect_done(router, info.name)
        session = router.state.session
        assert session.store.data_files(info.name)
        response = router.handle(
            "DELETE", f"/v1/deployments/{info.name}?purge_data=true")
        assert response.status == 200
        assert response.payload["purged_data"] is True
        assert session.store.data_files(info.name) == ()

    def test_delete_without_purge_keeps_data(self, router):
        info = deploy(router, skus=["Standard_HB120rs_v3"], nnodes=[1])
        collect_done(router, info.name)
        response = router.handle(
            "DELETE", f"/v1/deployments/{info.name}")
        assert response.status == 200
        assert response.payload["purged_data"] is False
        assert router.state.session.store.data_files(info.name)


class TestRemoteSessionMirror:
    """The typed client speaks the same pagination dialect, over sockets."""

    @pytest.fixture
    def served(self, tmp_path):
        import threading

        from repro.service.app import make_server

        server = make_server(str(tmp_path / "state"),
                             host="127.0.0.1", port=0, workers=2)
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        try:
            yield f"http://127.0.0.1:{server.server_address[1]}"
        finally:
            server.shutdown()
            server.server_close()
            server.state.close()
            thread.join(timeout=10)

    def test_datapoints_round_trip(self, served):
        from repro.client import RemoteSession
        from repro.core.query import Query

        remote = RemoteSession(served, timeout=30)
        config = make_config(rgprefix="remrg",
                             skus=["Standard_HB120rs_v3",
                                   "Standard_HC44rs"],
                             nnodes=[1, 2])
        info = remote.deploy(config.to_dict())
        remote.collect(deployment=info.name).wait(timeout=60)

        page = remote.datapoints(info.name, Query(sku="hc44rs", limit=1))
        assert page.total == 2
        assert len(page.points) == 1
        assert page.has_more
        assert page.points[0].sku == "Standard_HC44rs"
        # keyword form, measured-only, full page
        all_points = remote.datapoints(info.name, limit=10)
        assert all_points.total == 4
        assert [p.to_dict() for p in all_points.points] == [
            p.to_dict() for p in
            remote.datapoints(info.name, Query(limit=10)).points
        ]

    def test_jobs_and_deployments_pagination(self, served):
        from repro.client import RemoteSession

        remote = RemoteSession(served, timeout=30)
        config = make_config(rgprefix="remprg",
                             skus=["Standard_HB120rs_v3"], nnodes=[1])
        info = remote.deploy(config.to_dict())
        remote.collect(deployment=info.name).wait(timeout=60)
        remote.collect(deployment=info.name).wait(timeout=60)

        assert len(remote.jobs(limit=1)) == 1
        assert len(remote.jobs(limit=1, offset=1)) == 1
        assert remote.jobs(limit=1)[0].id != \
            remote.jobs(limit=1, offset=1)[0].id
        assert len(remote.list_deployments(limit=1)) == 1

    def test_purge_over_the_wire(self, served, tmp_path):
        from repro.client import RemoteSession

        remote = RemoteSession(served, timeout=30)
        config = make_config(rgprefix="rempurg",
                             skus=["Standard_HB120rs_v3"], nnodes=[1])
        info = remote.deploy(config.to_dict())
        remote.collect(deployment=info.name).wait(timeout=60)
        remote.shutdown(info.name, purge_data=True)
        from repro.core.statefiles import StateStore

        store = StateStore(root=str(tmp_path / "state"))
        assert store.data_files(info.name) == ()
