import copy
import threading

import pytest

from fedsec.errors import TopologyInvalid, UnknownSite, UnknownTenant
from fedsec.registry import CachedRegistryView, load_config

from .conftest import two_site_doc


@pytest.fixture
def registry():
    return load_config(two_site_doc())


def test_load_and_query(registry):
    assert registry.primary_site().site_id == "prime"
    assert registry.resolve_site_for_tenant("tenant2").site_id == "assoc1"
    assert registry.resolve_site_for_tenant("admin.prime").site_id == "prime"
    assert registry.admin_tenant_of("assoc1") == "admin.assoc1"
    assert registry.is_admin_tenant("admin.assoc1")
    assert not registry.is_admin_tenant("tenant1")


def test_required_services_always_present(registry):
    assert registry.service_runs_at("security-kernel", "assoc1")
    assert registry.service_runs_at("systems", "assoc1")
    assert not registry.service_runs_at("jobs", "assoc1")
    assert not registry.service_runs_at("tenants", "assoc1")
    with pytest.raises(UnknownSite):
        registry.service_runs_at("jobs", "nowhere")


def test_two_primaries_rejected():
    doc = two_site_doc()
    doc["sites"][1]["is_primary"] = True
    with pytest.raises(TopologyInvalid):
        load_config(doc)


def test_associate_running_tenants_rejected():
    doc = two_site_doc()
    doc["sites"][1]["services"].append("tenants")
    with pytest.raises(TopologyInvalid):
        load_config(doc)


def test_missing_required_service_rejected():
    doc = two_site_doc()
    doc["sites"][1]["services"].remove("tokens")
    with pytest.raises(TopologyInvalid):
        load_config(doc)


def test_primary_must_run_every_known_service():
    doc = two_site_doc()
    doc["sites"][1]["services"].append("streams")
    with pytest.raises(TopologyInvalid):
        load_config(doc)
    doc["sites"][0]["services"].append("streams")
    load_config(doc)


def test_missing_admin_tenant_rejected():
    doc = two_site_doc()
    doc["tenants"] = [t for t in doc["tenants"] if t["tenant_id"] != "admin.assoc1"]
    with pytest.raises(TopologyInvalid):
        load_config(doc)


def test_duplicate_base_url_rejected():
    # DNS resolves tenants by host, so two base URLs on one host collide too.
    for urls in (("http://shared.sim", "http://shared.sim"),
                 ("http://shared.sim/a", "http://shared.sim/b")):
        doc = two_site_doc()
        doc["tenants"][2]["base_url"], doc["tenants"][3]["base_url"] = urls
        with pytest.raises(TopologyInvalid):
            load_config(doc)


def test_tenant_owned_by_unknown_site_rejected():
    doc = two_site_doc()
    doc["tenants"][2]["owning_site"] = "ghost"
    with pytest.raises(TopologyInvalid):
        load_config(doc)


def test_public_key_lookup_and_replacement(keyed_two_site):
    doc, keys = keyed_two_site
    registry = load_config(doc)
    assert registry.get_public_key("tenant1") == keys["tenant1"][1]
    with pytest.raises(UnknownTenant):
        registry.get_public_key("ghost")
    # A key is replaced by loading a snapshot that holds the new key.
    next(t for t in doc["tenants"] if t["tenant_id"] == "tenant1")["public_key"] = "NEWKEY"
    assert load_config(doc).get_public_key("tenant1") == "NEWKEY"
    assert registry.get_public_key("tenant1") == keys["tenant1"][1]


def test_snapshot_determinism():
    doc = two_site_doc()
    a, b = load_config(copy.deepcopy(doc)), load_config(copy.deepcopy(doc))
    for tenant in ("tenant1", "tenant2", "admin.prime", "admin.assoc1"):
        assert a.get_public_key(tenant) == b.get_public_key(tenant)
        assert a.resolve_site_for_tenant(tenant).site_id == b.resolve_site_for_tenant(tenant).site_id
    for service in ("security-kernel", "jobs", "tenants"):
        for site in ("prime", "assoc1"):
            assert a.service_runs_at(service, site) == b.service_runs_at(service, site)


def test_cached_view_refreshes_on_interval():
    now = [1000.0]
    fetches = []

    def fetch():
        fetches.append(now[0])
        return load_config(two_site_doc())

    view = CachedRegistryView(fetch, refresh_seconds=300, clock=lambda: now[0])
    view.get_tenant("tenant1")
    view.get_tenant("tenant2")
    assert len(fetches) == 1
    now[0] += 299
    view.get_tenant("tenant1")
    assert len(fetches) == 1
    assert view.age() == 299
    now[0] += 2
    view.get_tenant("tenant1")
    assert len(fetches) == 2


def test_cached_view_serves_stale_if_fetch_fails():
    now = [0.0]
    state = {"fail": False}

    def fetch():
        if state["fail"]:
            raise ConnectionError("primary down")
        return load_config(two_site_doc())

    view = CachedRegistryView(fetch, refresh_seconds=10, clock=lambda: now[0])
    view.get_tenant("tenant1")
    state["fail"] = True
    now[0] += 60
    attempts = []
    view._fetch = lambda: attempts.append(now[0]) or fetch()
    for _ in range(5):
        assert view.get_tenant("tenant1").tenant_id == "tenant1"
    # One failed attempt, then no retry for another refresh interval; the
    # reported age still counts from the last successful fetch.
    assert attempts == [60.0]
    assert view.age() == 60
    now[0] += 10
    view.get_tenant("tenant1")
    assert attempts == [60.0, 70.0]


def test_cached_view_refetch_does_not_block_readers():
    now = [0.0]
    stale, fresh = load_config(two_site_doc()), load_config(two_site_doc())
    fetching, release = threading.Event(), threading.Event()

    def blocked_fetch():
        fetching.set()
        release.wait(10)
        return fresh

    view = CachedRegistryView(lambda: stale, refresh_seconds=10, clock=lambda: now[0])
    assert view.snapshot is stale
    now[0] += 60
    view._fetch = blocked_fetch
    seen = {}
    refetcher = threading.Thread(target=lambda: seen.update(refetcher=view.snapshot))
    reader = threading.Thread(target=lambda: seen.update(reader=view.snapshot))
    try:
        refetcher.start()
        assert fetching.wait(5)
        # The refetch holds this interval's attempt; a concurrent reader
        # gets the stale snapshot without waiting for it.
        reader.start()
        reader.join(2)
        assert not reader.is_alive()
        assert seen["reader"] is stale
    finally:
        release.set()
        refetcher.join(5)
        reader.join(5)
    assert not refetcher.is_alive()
    assert seen["refetcher"] is fresh
    assert view.snapshot is fresh
    assert view.age() == 0
