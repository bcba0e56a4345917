import pytest

from fedsec.gatekeeper import (
    InboundRequest,
    ValidationVerdict,
    derive_sender_site,
    validate_request,
)
from fedsec.registry import load_config
from fedsec.tokens import TokenClaims, encode_token

NOW = 1_000_000.0


def _clock():
    return NOW


@pytest.fixture(scope="module")
def world(keypool):
    from .conftest import two_site_doc

    tenants = ["admin.prime", "admin.assoc1", "tenant1", "tenant2"]
    keys = {t: keypool[i] for i, t in enumerate(tenants)}
    return load_config(two_site_doc(keys)), keys


def make_token(keys, kind, tenant, target_site=None, username=None, sign_as=None):
    username = username or ("jobs" if kind == "service" else "bob")
    claims = TokenClaims(
        jti=f"{kind}-{tenant}-{target_site}", sub=f"{username}@{tenant}", tenant_id=tenant,
        account_type=kind, exp=NOW + 3600, iat=NOW, target_site=target_site)
    return encode_token(claims, keys[sign_as or tenant][0])


def check(registry, token, service, site, obo_user=None, obo_tenant=None):
    req = InboundRequest(token=token, target_service=service, receiving_site=site,
                         obo_user=obo_user, obo_tenant=obo_tenant)
    return validate_request(req, registry, clock=_clock)


def test_accepted_user_request(world):
    registry, keys = world
    token = make_token(keys, "user", "tenant1")
    verdict = check(registry, token, "security-kernel", "prime")
    assert verdict.accepted
    assert verdict.rule_violated is None
    assert verdict.effective_user.username == "bob"
    assert verdict.effective_user.tenant == "tenant1"


def test_rule1_wrong_key(world):
    registry, keys = world
    forged = make_token(keys, "user", "tenant1", sign_as="tenant2")
    verdict = check(registry, forged, "security-kernel", "prime")
    assert (verdict.accepted, verdict.rule_violated) == (False, "1")


def test_rule1_garbage_token(world):
    registry, _ = world
    verdict = check(registry, "junk.token.bytes", "security-kernel", "prime")
    assert verdict.rule_violated == "1"


def test_rule2_service_not_deployed(world):
    registry, keys = world
    token = make_token(keys, "user", "tenant2")
    verdict = check(registry, token, "jobs", "assoc1")
    assert verdict.rule_violated == "2"


def test_rule3_kernel_traffic_stays_home(world):
    registry, keys = world
    # tenant2 is owned by assoc1; its kernel requests may not hit the primary.
    token = make_token(keys, "user", "tenant2")
    verdict = check(registry, token, "security-kernel", "prime")
    assert verdict.rule_violated == "3"
    assert check(registry, token, "security-kernel", "assoc1").accepted


def test_rule4_associate_runs_target(world):
    registry, keys = world
    # systems runs at assoc1, so the primary refuses tenant2's systems traffic.
    token = make_token(keys, "user", "tenant2")
    verdict = check(registry, token, "systems", "prime")
    assert verdict.rule_violated == "4"
    # jobs runs only at the primary: the forwarded request is accepted.
    assert check(registry, token, "jobs", "prime").accepted


def test_rule5_no_associate_to_associate(world, keypool):
    from .conftest import two_site_doc

    tenants = ["admin.prime", "admin.assoc1", "tenant1", "tenant2"]
    keys = {t: keypool[i] for i, t in enumerate(tenants)}
    doc = two_site_doc(keys)
    doc["sites"].append({
        "site_id": "assoc2", "is_primary": False, "admin_tenant": "admin.assoc2",
        "base_host": "assoc2.sim",
        "services": ["security-kernel", "tokens", "authenticator", "systems"],
    })
    keys["admin.assoc2"] = keypool[4]
    doc["tenants"].append({"tenant_id": "admin.assoc2", "owning_site": "assoc2",
                           "is_admin_tenant": True, "public_key": keypool[4][1]})
    registry = load_config(doc)

    token = make_token(keys, "service", "admin.assoc2", target_site="assoc1", username="systems")
    verdict = check(registry, token, "systems", "assoc1", obo_user="bob", obo_tenant="tenant2")
    assert verdict.rule_violated == "5"


def test_rule6a_user_with_obo_headers(world):
    registry, keys = world
    token = make_token(keys, "user", "tenant1")
    verdict = check(registry, token, "security-kernel", "prime", obo_user="mallory")
    assert verdict.rule_violated == "6a"
    verdict = check(registry, token, "security-kernel", "prime", obo_tenant="tenant1")
    assert verdict.rule_violated == "6a"


def test_rule6b_user_in_admin_tenant(world):
    registry, keys = world
    token = make_token(keys, "user", "admin.prime", username="intruder")
    verdict = check(registry, token, "security-kernel", "prime")
    assert verdict.rule_violated == "6b"


def test_rule7a_service_without_obo(world):
    registry, keys = world
    token = make_token(keys, "service", "admin.prime", target_site="prime")
    verdict = check(registry, token, "security-kernel", "prime")
    assert verdict.rule_violated == "7a"
    verdict = check(registry, token, "security-kernel", "prime", obo_user="bob")
    assert verdict.rule_violated == "7a"


def test_rule7b_wrong_target_site(world):
    registry, keys = world
    token = make_token(keys, "service", "admin.prime", target_site="prime", username="systems")
    verdict = check(registry, token, "systems", "assoc1", obo_user="bob", obo_tenant="tenant2")
    assert verdict.rule_violated == "7b"


def test_rule7c_service_token_in_user_tenant(world):
    registry, keys = world
    token = make_token(keys, "service", "tenant1", target_site="prime", username="jobs")
    verdict = check(registry, token, "apps", "prime", obo_user="bob", obo_tenant="tenant1")
    assert verdict.rule_violated == "7c"


def test_rule7c_sender_service_not_at_token_site(world):
    registry, keys = world
    # jobs does not run at assoc1, so an assoc1-admin token claiming to be jobs fails.
    token = make_token(keys, "service", "admin.assoc1", target_site="assoc1", username="jobs")
    verdict = check(registry, token, "systems", "assoc1", obo_user="bob", obo_tenant="tenant2")
    assert verdict.rule_violated == "7c"


def test_rule7c_associate_not_trusted_for_foreign_obo_tenant(world):
    registry, keys = world
    # assoc1's systems service may act for tenant2 (its own) but not tenant1.
    token = make_token(keys, "service", "admin.assoc1", target_site="assoc1", username="systems")
    ok = check(registry, token, "systems", "assoc1", obo_user="u", obo_tenant="tenant2")
    assert ok.accepted
    bad = check(registry, token, "systems", "assoc1", obo_user="u", obo_tenant="tenant1")
    assert bad.rule_violated == "7c"


def test_primary_service_may_act_for_associate_tenant(world):
    registry, keys = world
    # jobs@prime works on tenant2's jobs because assoc1 does not run jobs.
    token = make_token(keys, "service", "admin.prime", target_site="prime", username="jobs")
    verdict = check(registry, token, "apps", "prime", obo_user="u", obo_tenant="tenant2")
    assert verdict.accepted
    assert verdict.effective_user.username == "u"
    assert verdict.effective_user.tenant == "tenant2"


def test_accepted_service_request_effective_user_is_obo(world):
    registry, keys = world
    token = make_token(keys, "service", "admin.prime", target_site="prime", username="jobs")
    verdict = check(registry, token, "apps", "prime", obo_user="bob", obo_tenant="tenant1")
    assert verdict.accepted
    assert verdict.effective_user.username == "bob"
    assert verdict.claims.sub == "jobs@admin.prime"


def test_accepted_request_passes_every_rule_individually(world):
    registry, keys = world
    # Order independence: an accepted verdict implies each condition holds.
    token = make_token(keys, "service", "admin.prime", target_site="prime", username="jobs")
    verdict = check(registry, token, "apps", "prime", obo_user="bob", obo_tenant="tenant1")
    assert verdict.accepted
    claims = verdict.claims
    assert registry.service_runs_at("apps", "prime")
    assert not registry.service_runs_at("apps", "assoc1") or True  # rule 4 scope: sender is primary
    assert derive_sender_site(claims, registry) == "prime"
    assert registry.is_admin_tenant(claims.tenant_id)
    assert claims.target_site == "prime"


def test_derive_sender_site(world):
    registry, keys = world
    for tenant, site in [("admin.prime", "prime"), ("admin.assoc1", "assoc1"), ("tenant2", "assoc1")]:
        token = make_token(keys, "user", tenant)
        from fedsec.tokens import peek_claims
        assert derive_sender_site(peek_claims(token), registry) == site


def test_verdict_invariant():
    with pytest.raises(ValueError):
        ValidationVerdict(accepted=True, rule_violated="3")
    with pytest.raises(ValueError):
        ValidationVerdict(accepted=False)


def test_verdict_diagnostics_never_carry_token_bytes(world):
    registry, keys = world
    token = make_token(keys, "user", "tenant1", sign_as="tenant2")
    verdict = check(registry, token, "security-kernel", "prime")
    assert token.split(".")[1] not in verdict.message
