import pytest

from fedsec.errors import PrimaryUnreachable
from fedsec.registry import load_config
from fedsec.router import RouteDecision, RouteKind, extract_service, forward, route

from .conftest import two_site_doc


@pytest.fixture
def registry():
    return load_config(two_site_doc())


def test_extract_service():
    assert extract_service("/v3/streams/measurements") == "streams"
    assert extract_service("/v3/security/roles/hasRole") == "security-kernel"
    assert extract_service("/v3/tokens") == "tokens"
    assert extract_service("/nope") is None
    assert extract_service("/v3") is None


def test_local_when_deployed_at_owning_associate(registry):
    decision = route("tenant2.sim", "/v3/systems/execSys", registry)
    assert decision == RouteDecision(RouteKind.LOCAL, "systems")


def test_forward_when_not_deployed(registry):
    decision = route("tenant2.sim", "/v3/jobs/submit", registry)
    assert decision.kind is RouteKind.FORWARD_TO_PRIMARY
    assert decision.service == "jobs"


def test_primary_always_serves_locally(registry):
    for path in ("/v3/jobs/x", "/v3/systems/x", "/v3/security/roles"):
        assert route("tenant1.sim", path, registry).kind is RouteKind.LOCAL


def test_unknown_tenant_rejected(registry):
    decision = route("ghost.sim", "/v3/jobs/x", registry)
    assert decision.kind is RouteKind.REJECT
    assert "unknown tenant" in decision.reason


def test_unknown_service_rejected(registry):
    decision = route("tenant1.sim", "/v3/mystery/x", registry)
    assert decision.kind is RouteKind.REJECT
    assert "unknown service" in decision.reason


def test_wrong_site_rejected(registry):
    # tenant1 is owned by the primary; its requests never land on assoc1.
    decision = route("tenant1.sim", "/v3/systems/x", registry, at_site="assoc1")
    assert decision.kind is RouteKind.REJECT


def test_forwarded_request_lands_local_at_primary(registry):
    # The forwarded hop re-routes at the primary and must dispatch locally.
    decision = route("tenant2.sim", "/v3/jobs/submit", registry, at_site="prime")
    assert decision.kind is RouteKind.LOCAL


def test_routing_totality(registry):
    """Every (known tenant, known service) pair routes Local or Forward at
    the owning site, never Reject."""
    for tenant in registry.list_tenants():
        for service in registry.primary_site().services:
            decision = route(tenant.host, f"/v3/{service}/x".replace("security-kernel", "security"), registry)
            assert decision.kind in (RouteKind.LOCAL, RouteKind.FORWARD_TO_PRIMARY)


def test_hub_and_spoke_no_associate_pair(registry):
    """No decision at any site ever targets another associate."""
    for tenant in registry.list_tenants():
        for site in ("prime", "assoc1"):
            decision = route(tenant.host, "/v3/jobs/x", registry, at_site=site)
            assert decision.kind in (RouteKind.LOCAL, RouteKind.FORWARD_TO_PRIMARY, RouteKind.REJECT)
            # Forwarding only ever names the primary, and never occurs there.
            if decision.kind is RouteKind.FORWARD_TO_PRIMARY:
                assert site != "prime"


def test_forward_pass_through(registry):
    decision = route("tenant2.sim", "/v3/jobs/submit", registry)
    seen = {}

    def transport(request):
        seen["request"] = request
        return {"status": 200, "body": b"payload"}

    response = forward({"headers": {"X-Tapis-Token": "t"}}, decision, transport)
    assert response["body"] == b"payload"
    assert seen["request"]["headers"]["X-Tapis-Token"] == "t"


def test_forward_primary_down(registry):
    decision = route("tenant2.sim", "/v3/jobs/submit", registry)

    def transport(request):
        raise ConnectionError("refused")

    with pytest.raises(PrimaryUnreachable):
        forward({}, decision, transport)


def test_forward_requires_forward_decision():
    with pytest.raises(ValueError):
        forward({}, RouteDecision(RouteKind.LOCAL, "jobs"), lambda r: r)
