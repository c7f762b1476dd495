"""Response-cache and conditional-request contract of the service tier.

Hot read routes (``GET /v1/advice``, ``GET /v1/datapoints``) carry a
strong ``ETag`` keyed on deployment + normalized query + the store's
dataset signature; an ``If-None-Match`` hit answers ``304`` with no
recompute, and any data write rolls the signature so stale entries can
never be served.  The pure cache machinery (key normalization, LRU,
stats) is covered here too.
"""

import json

import pytest

from repro.fleet.cache import ResponseCache, make_key
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


def deploy_collected(router, prefix="cachetestrg"):
    config = make_config(rgprefix=prefix)
    response = router.handle("POST", "/v1/deployments",
                             json.dumps({"config": config.to_dict()}))
    assert response.status == 201, response.payload
    name = response.payload["name"]
    response = router.handle("POST", "/v1/jobs/collect",
                             json.dumps({"deployment": name}))
    assert response.status == 202, response.payload
    record = router.state.jobs.wait(response.payload["id"], timeout=30)
    assert record.state == "done", record.error
    return name


class TestMakeKey:
    def test_query_order_is_normalized(self):
        sig = ("gen", 3)
        first = make_key("/v1/advice", "dep", {"a": "1", "b": "2"}, sig)
        second = make_key("/v1/advice", "dep", {"b": "2", "a": "1"}, sig)
        assert first == second

    def test_none_values_dropped(self):
        sig = ("gen", 3)
        assert make_key("/r", "d", {"a": "1", "b": None}, sig) \
            == make_key("/r", "d", {"a": "1"}, sig)

    def test_signature_and_route_distinguish(self):
        base = make_key("/v1/advice", "dep", {}, ("gen", 1))
        assert make_key("/v1/advice", "dep", {}, ("gen", 2)) != base
        assert make_key("/v1/datapoints", "dep", {}, ("gen", 1)) != base
        assert make_key("/v1/advice", "dep2", {}, ("gen", 1)) != base

    def test_nested_signature_is_hashable(self):
        key = make_key("/r", "d", {"q": "1"},
                       {"files": [{"name": "a", "rows": 3}]})
        assert hash(key) is not None


class TestResponseCache:
    def test_lru_eviction_and_stats(self):
        cache = ResponseCache(maxsize=2)
        k1, k2, k3 = ("a",), ("b",), ("c",)
        cache.put(k1, "one")
        cache.put(k2, "two")
        assert cache.get(k1) == "one"   # k1 now most-recent
        cache.put(k3, "three")          # evicts k2
        assert cache.get(k2) is None
        assert cache.get(k1) == "one"
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["hits"] == 2
        assert stats["misses"] == 1

    def test_etag_is_stable_and_strong(self):
        key = make_key("/v1/advice", "dep", {"x": "1"}, ("gen", 1))
        etag = ResponseCache.etag_for(key)
        assert etag == ResponseCache.etag_for(key)
        assert etag.startswith('"') and etag.endswith('"')
        assert not etag.startswith('W/')
        other = make_key("/v1/advice", "dep", {"x": "2"}, ("gen", 1))
        assert ResponseCache.etag_for(other) != etag


class TestCachedRoutes:
    def test_advice_carries_etag_and_hits_cache(self, router):
        name = deploy_collected(router)
        first = router.handle("GET", f"/v1/advice?deployment={name}")
        assert first.status == 200
        etag = first.headers["ETag"]
        assert etag
        before = router.state.cache.stats()
        second = router.handle("GET", f"/v1/advice?deployment={name}")
        assert second.status == 200
        assert second.headers["ETag"] == etag
        assert second.payload == first.payload
        after = router.state.cache.stats()
        assert after["hits"] == before["hits"] + 1

    def test_if_none_match_gets_304_with_empty_body(self, router):
        name = deploy_collected(router)
        first = router.handle("GET", f"/v1/advice?deployment={name}")
        etag = first.headers["ETag"]
        response = router.handle("GET", f"/v1/advice?deployment={name}",
                                 headers={"If-None-Match": etag})
        assert response.status == 304
        assert response.headers["ETag"] == etag
        assert response.body_bytes() == b""

    def test_if_none_match_star_and_lists_match(self, router):
        name = deploy_collected(router)
        etag = router.handle(
            "GET", f"/v1/advice?deployment={name}").headers["ETag"]
        for header in ("*", f'"nope", {etag}', f"W/{etag}"):
            response = router.handle(
                "GET", f"/v1/advice?deployment={name}",
                headers={"If-None-Match": header})
            assert response.status == 304, header

    def test_stale_etag_gets_full_response(self, router):
        name = deploy_collected(router)
        response = router.handle("GET", f"/v1/advice?deployment={name}",
                                 headers={"If-None-Match": '"stale"'})
        assert response.status == 200
        assert response.payload["deployment"] == name

    def test_datapoints_cached_too(self, router):
        name = deploy_collected(router)
        first = router.handle("GET", f"/v1/datapoints?deployment={name}")
        assert first.status == 200
        assert "ETag" in first.headers
        again = router.handle(
            "GET", f"/v1/datapoints?deployment={name}",
            headers={"If-None-Match": first.headers["ETag"]})
        assert again.status == 304

    def test_etag_rolls_when_data_changes(self, router):
        """A new collect bumps the dataset signature: old ETags must
        revalidate to a fresh 200, never a false 304."""
        name = deploy_collected(router)
        stale_etag = router.handle(
            "GET", f"/v1/advice?deployment={name}").headers["ETag"]

        # Write one more point straight through the backend — the same
        # signature roll any out-of-band collect would cause.
        from repro.core.dataset import DataPoint

        router.state.session.data_store(name).append_point(DataPoint(
            appname="lammps", sku="Standard_HB120rs_v3", nnodes=16,
            ppn=120, exec_time_s=1.0, cost_usd=1.0, deployment=name,
        ))

        revalidated = router.handle(
            "GET", f"/v1/advice?deployment={name}",
            headers={"If-None-Match": stale_etag})
        assert revalidated.status == 200
        assert revalidated.headers["ETag"] != stale_etag

    def test_etag_rolls_across_purge_and_redeploy(self, router,
                                                  monkeypatch):
        """A purged deployment redeployed under the same name, whose new
        database reuses the old inode number and reaches the same
        generation count, must not revalidate the old database's ETag."""
        from repro.core.dataset import DataPoint
        from repro.store.sqlite import SqliteStore

        monkeypatch.setenv("REPRO_STORE", "sqlite")
        # Every database file stats as the same inode number.
        monkeypatch.setattr(SqliteStore, "_stat_ino", lambda self: 4242)
        session = router.state.session
        config = make_config(rgprefix="cachepurgerg")

        def deploy_with(skus):
            name = session.deploy(config).name
            # One append call each: both databases reach generation 1.
            session.data_store(name).append_points([DataPoint(
                appname="lammps", sku=sku, nnodes=2, ppn=120,
                exec_time_s=10.0, cost_usd=1.0, deployment=name,
            ) for sku in skus])
            return name

        name = deploy_with(["Standard_HB120rs_v2", "Standard_HB120rs_v2"])
        old = router.handle("GET", f"/v1/datapoints?deployment={name}")
        assert old.status == 200 and old.payload["total"] == 2

        session.shutdown(name, purge_data=True)
        assert deploy_with(["Standard_HB120rs_v3"]) == name
        replayed = router.handle(
            "GET", f"/v1/datapoints?deployment={name}",
            headers={"If-None-Match": old.headers["ETag"]})
        assert replayed.status == 200
        assert replayed.headers["ETag"] != old.headers["ETag"]
        assert replayed.payload["total"] == 1
        assert [p["sku"] for p in replayed.payload["points"]] \
            == ["Standard_HB120rs_v3"]

    def test_query_params_partition_the_cache(self, router):
        name = deploy_collected(router)
        plain = router.handle("GET", f"/v1/advice?deployment={name}")
        filtered = router.handle(
            "GET", f"/v1/advice?deployment={name}&objective=cost")
        assert plain.headers["ETag"] != filtered.headers["ETag"]

    def test_unknown_deployment_is_404_not_cached(self, router):
        response = router.handle("GET", "/v1/advice?deployment=nope")
        assert response.status == 404
        assert "ETag" not in response.headers
        assert router.state.cache.stats()["entries"] == 0

    def test_post_advice_is_never_cached(self, router):
        name = deploy_collected(router)
        response = router.handle("POST", "/v1/advice",
                                 json.dumps({"deployment": name}))
        assert response.status == 200
        assert "ETag" not in response.headers

    def test_metrics_expose_cache_counters(self, router):
        name = deploy_collected(router)
        router.handle("GET", f"/v1/advice?deployment={name}")
        router.handle("GET", f"/v1/advice?deployment={name}")
        text = router.handle("GET", "/metrics").payload
        assert "advisor_response_cache_entries 1" in text
        assert "advisor_response_cache_hits 1" in text


class TestCacheDisabled:
    def test_env_knob_disables_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESPONSE_CACHE", "0")
        state = build_state(str(tmp_path / "state"), workers=2)
        try:
            assert state.cache is None
            router = Router(state)
            name = deploy_collected(router)
            response = router.handle("GET",
                                     f"/v1/advice?deployment={name}")
            assert response.status == 200
            assert "ETag" not in response.headers
        finally:
            state.close()
