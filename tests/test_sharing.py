import random

import pytest

from fedsec.errors import NotAuthorized, NotFound, ResourceNotInSac
from fedsec.identity import Caller
from fedsec.sharing import (
    NO_AUTHN,
    PUBLIC_TENANT,
    AccessOutcome,
    SacDescriptor,
    ShareGrant,
    SharingService,
)

ALICE = Caller(name="alice", tenant="tenant1", kind="user")


def app_grant(grantee="bob", privilege="EXECUTE"):
    return ShareGrant(tenant="tenant1", grantor="alice", grantee=grantee,
                      resource_type="application", resource_id="aliceApp", privilege=privilege)


def make_sac():
    return SacDescriptor(grantor="alice", app_id="aliceApp",
                         shared_resources=frozenset({
                             ("system", "execSys", None),
                             ("system", "storeSys", None),
                             ("path", "storeSys:/data/input.csv", "/data/input.csv"),
                         }))


def test_create_and_query_share():
    svc = SharingService()
    svc.create_share(app_grant(), ALICE)
    shared, grantor = svc.is_shared_with("tenant1", "application", "aliceApp", "bob", "EXECUTE")
    assert (shared, grantor) == (True, "alice")


def test_unshared_resource():
    svc = SharingService()
    assert svc.is_shared_with("tenant1", "application", "aliceApp", "bob", "EXECUTE") == (False, None)


def test_only_grantor_creates(ALICE=ALICE):
    svc = SharingService()
    mallory = Caller(name="mallory", tenant="tenant1", kind="user")
    with pytest.raises(NotAuthorized):
        svc.create_share(app_grant(), mallory)


def test_tenant_public_share_reaches_everyone():
    svc = SharingService()
    svc.create_share(app_grant(grantee=PUBLIC_TENANT), ALICE)
    for user in ("bob", "carol", "dave"):
        shared, grantor = svc.is_shared_with("tenant1", "application", "aliceApp", user, "EXECUTE")
        assert (shared, grantor) == (True, "alice")


def test_no_authn_not_honored_by_normal_query():
    svc = SharingService()
    svc.create_share(app_grant(grantee=NO_AUTHN, privilege="READ"), ALICE)
    assert svc.is_shared_with("tenant1", "application", "aliceApp", "anyone", "READ") == (False, None)
    assert svc.is_no_authn_shared("tenant1", "application", "aliceApp", "READ") is True


def test_grantor_equals_grantee_rejected():
    with pytest.raises(NotAuthorized):
        ShareGrant(tenant="t", grantor="alice", grantee="alice",
                   resource_type="system", resource_id="s", privilege="READ")


def test_revoke_share():
    svc = SharingService()
    grant = app_grant()
    svc.create_share(grant, ALICE)
    svc.revoke_share(grant, ALICE)
    assert svc.is_shared_with("tenant1", "application", "aliceApp", "bob", "EXECUTE") == (False, None)
    with pytest.raises(NotFound):
        svc.revoke_share(grant, ALICE)


def test_revoke_by_tenant_admin():
    svc = SharingService()
    grant = app_grant()
    svc.create_share(grant, ALICE)
    admin = Caller(name="root", tenant="tenant1", kind="user")
    with pytest.raises(NotAuthorized):
        svc.revoke_share(grant, admin)
    svc.revoke_share(grant, admin, is_tenant_admin=lambda c: c.name == "root")


def test_sac_grantor_authorized():
    svc = SharingService()
    authorized = lambda user, rt, rid, priv: user == "alice"
    outcome = svc.resolve_sac_access(make_sac(), "bob", ("system", "execSys"), "EXECUTE", authorized)
    assert outcome is AccessOutcome.GRANTOR_AUTHORIZED


def test_sac_grantee_fallback_when_grantor_revoked():
    svc = SharingService()
    authorized = lambda user, rt, rid, priv: user == "bob"  # bob owns execSys
    outcome = svc.resolve_sac_access(make_sac(), "bob", ("system", "execSys"), "EXECUTE", authorized)
    assert outcome is AccessOutcome.GRANTEE_AUTHORIZED


def test_sac_denied_when_neither_authorized():
    svc = SharingService()
    outcome = svc.resolve_sac_access(make_sac(), "bob", ("system", "execSys"), "EXECUTE",
                                     lambda *a: False)
    assert outcome is AccessOutcome.DENIED


def test_sac_rejects_non_member_resource():
    svc = SharingService()
    with pytest.raises(ResourceNotInSac):
        svc.resolve_sac_access(make_sac(), "bob", ("system", "arcSys"), "MODIFY", lambda *a: True)


def test_sac_fallback_through_direct_share():
    svc = SharingService()
    svc.create_share(ShareGrant(tenant="tenant1", grantor="owner", grantee="bob",
                                resource_type="system", resource_id="execSys", privilege="EXECUTE"),
                     Caller(name="owner", tenant="tenant1", kind="user"))
    # The callback is the resource service's whole check, shares included.
    shared = lambda user, rt, rid, priv: svc.is_shared_with("tenant1", rt, rid, user, priv)[0]
    outcome = svc.resolve_sac_access(make_sac(), "bob", ("system", "execSys"), "EXECUTE", shared)
    assert outcome is AccessOutcome.GRANTEE_AUTHORIZED


def test_runtime_checks_follow_current_state():
    """Share/revoke interleavings always resolve from the current grant state."""
    svc = SharingService()
    rng = random.Random(5)
    grantor_ok = {"on": True}
    authorized = lambda user, rt, rid, priv: (user == "alice" and grantor_ok["on"]) or (
        svc.is_shared_with("tenant1", rt, rid, user, priv)[0])
    owner = Caller(name="owner", tenant="tenant1", kind="user")
    bob_grant = ShareGrant(tenant="tenant1", grantor="owner", grantee="bob",
                           resource_type="system", resource_id="execSys", privilege="EXECUTE")
    bob_shared = False
    for _ in range(200):
        action = rng.choice(["flip_grantor", "share_bob", "revoke_bob", "query"])
        if action == "flip_grantor":
            grantor_ok["on"] = not grantor_ok["on"]
        elif action == "share_bob" and not bob_shared:
            svc.create_share(bob_grant, owner)
            bob_shared = True
        elif action == "revoke_bob" and bob_shared:
            svc.revoke_share(bob_grant, owner)
            bob_shared = False
        else:
            outcome = svc.resolve_sac_access(make_sac(), "bob", ("system", "execSys"),
                                             "EXECUTE", authorized)
            if grantor_ok["on"]:
                assert outcome is AccessOutcome.GRANTOR_AUTHORIZED
            elif bob_shared:
                assert outcome is AccessOutcome.GRANTEE_AUTHORIZED
            else:
                assert outcome is AccessOutcome.DENIED


def test_no_privilege_escalation_through_sac():
    """A grantee never reaches GRANTOR_AUTHORIZED on a system the grantor
    lacks at query time."""
    svc = SharingService()
    rng = random.Random(11)
    for _ in range(100):
        grantor_has = rng.random() < 0.5
        grantee_has = rng.random() < 0.5
        authorized = lambda user, rt, rid, priv: (user == "alice" and grantor_has) or (
            user == "bob" and grantee_has)
        outcome = svc.resolve_sac_access(make_sac(), "bob", ("system", "execSys"),
                                         "EXECUTE", authorized)
        if outcome is AccessOutcome.GRANTOR_AUTHORIZED:
            assert grantor_has
        if outcome is AccessOutcome.DENIED:
            assert not grantor_has and not grantee_has
