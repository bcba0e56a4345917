import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def test_share_writes_and_queries_cost_bounded_comparisons_whatever_the_store_holds():
    compared = [0]

    class CountingStr(str):
        __hash__ = str.__hash__

        def __eq__(self, other):
            compared[0] += 1
            return str.__eq__(self, other)

    # Comparing two grants, or a grant's resource with a queried one,
    # compares resource ids, so every such comparison is counted.
    svc, n = SharingService(), 2000
    grants = [ShareGrant("tenant1", "alice", "bob", "system", CountingStr(f"sys{i}"), "READ")
              for i in range(n)]
    for grant in grants + grants:  # the second pass regrants each share
        svc.create_share(grant, ALICE)
    for i in range(n):
        query = ("tenant1", "system", CountingStr(f"sys{i}"))
        assert svc.is_shared_with(*query, "bob", "READ") == (True, "alice")
        assert not svc.is_no_authn_shared(*query, "READ")
    for grant in grants[::2]:
        svc.revoke_share(grant, ALICE)
    assert len(svc.list_shares("tenant1")) == n // 2
    # A scan of one list of every grant compares each call with every stored
    # grant: about n * n comparisons, against a few per call here.
    assert compared[0] <= 4 * n


share_grants = st.builds(
    ShareGrant, tenant=st.just("tenant1"), grantor=st.sampled_from(["alice", "carol"]),
    grantee=st.sampled_from(["bob", PUBLIC_TENANT, NO_AUTHN]), resource_type=st.just("system"),
    resource_id=st.sampled_from(["s1", "s2"]), privilege=st.sampled_from(["READ", "MODIFY"]))


@given(st.lists(st.tuples(st.booleans(), share_grants), max_size=24))
@settings(max_examples=200, deadline=None)
def test_share_store_matches_a_list_of_grants(writes):
    svc, model = SharingService(), []  # the model keeps grants in creation order
    for created, grant in writes:
        grantor = Caller(name=grant.grantor, tenant=grant.tenant, kind="user")
        if created:
            svc.create_share(grant, grantor)
            if grant not in model:
                model.append(grant)
        elif grant in model:
            svc.revoke_share(grant, grantor)
            model.remove(grant)
            with pytest.raises(NotFound):
                svc.revoke_share(grant, grantor)
        else:
            with pytest.raises(NotFound):
                svc.revoke_share(grant, grantor)
        for resource_id in ("s1", "s2"):
            for privilege in ("READ", "MODIFY"):
                on = [g for g in model if (g.resource_id, g.privilege) == (resource_id, privilege)]
                for user in ("bob", "dave"):
                    want = next(((True, g.grantor) for g in on if g.grantee in (user, PUBLIC_TENANT)),
                                (False, None))
                    assert svc.is_shared_with("tenant1", "system", resource_id, user, privilege) == want
                assert svc.is_no_authn_shared("tenant1", "system", resource_id, privilege) == any(
                    g.grantee == NO_AUTHN for g in on)
    assert sorted(svc.list_shares("tenant1"), key=model.index) == model
    for grant in model:
        svc.revoke_share(grant, Caller(name=grant.grantor, tenant=grant.tenant, kind="user"))
    assert svc.list_shares("tenant1") == []
    assert not svc._grants  # revoked resources leave nothing behind
