import random
import statistics
import sys
import threading
import time
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsec.rbac as rbac_module
from fedsec.errors import CycleDetected, MalformedPermission, NotAuthorized, RoleExists, UnknownRole
from fedsec.identity import Caller, UserIdentity
from fedsec.permissions import DEFAULT_REGISTRY, implies, parse_permission
from fedsec.rbac import (
    TENANT_ADMIN_ROLE,
    RbacService,
    default_role_name,
)

from .oracles import oracle_has_cycle, oracle_reachable


# One param, so each test keeps its "[memory]" id.
@pytest.fixture(params=["memory"])
def svc(request):
    return RbacService()


def _held(svc, tenant, role):
    """The role's grants in grant order, as its record lists them."""
    grants = svc.role_grants(tenant, role)
    return [] if grants is None else list(grants.entries)


def test_create_role_happy_path(svc):
    role = svc.create_role("tacc", "ds_scientist", "admin", "data science staff")
    assert role.name == "ds_scientist"
    assert role.tenant == "tacc"


def test_create_role_idempotent(svc):
    svc.create_role("tacc", "r1", "admin", "d")
    again = svc.create_role("tacc", "r1", "admin", "d")
    assert again.name == "r1"
    assert list(svc._roles["tacc"]) == ["r1"]


def test_create_role_conflicting_fields(svc):
    svc.create_role("tacc", "r1", "admin", "d")
    with pytest.raises(RoleExists):
        svc.create_role("tacc", "r1", "other", "d")


def test_reserved_prefixes_rejected(svc):
    for name in ("$$sneaky", "$!sneaky"):
        with pytest.raises(RoleExists):
            svc.create_role("tacc", name, "admin")


def test_non_admin_user_cannot_create_roles(svc):
    svc.create_tenant_defaults("tacc")
    rando = Caller(name="mallory", tenant="tacc", kind="user")
    with pytest.raises(NotAuthorized):
        svc.create_role("tacc", "r1", "mallory", caller=rando)


def test_tenant_admin_user_can_create_roles(svc):
    svc.create_tenant_defaults("tacc")
    svc.grant_role(UserIdentity("alice", "tacc"), TENANT_ADMIN_ROLE, "bootstrap")
    admin = Caller(name="alice", tenant="tacc", kind="user")
    role = svc.create_role("tacc", "r1", "alice", caller=admin)
    assert role.owner == "alice"


def test_admin_of_other_tenant_is_rejected(svc):
    svc.create_tenant_defaults("tacc")
    svc.create_tenant_defaults("uh")
    svc.grant_role(UserIdentity("alice", "uh"), TENANT_ADMIN_ROLE, "bootstrap")
    foreign_admin = Caller(name="alice", tenant="uh", kind="user")
    with pytest.raises(NotAuthorized):
        svc.create_role("tacc", "r1", "alice", caller=foreign_admin)


def test_child_role_inheritance(svc):
    svc.create_role("t1", "pi_all", "admin")
    svc.create_role("t1", "read_data", "admin")
    svc.add_child_role("t1", "pi_all", "read_data")
    bud = UserIdentity("bud", "t1")
    svc.grant_role(bud, "pi_all", "admin")
    assert svc.has_role(bud, "read_data") is True
    svc.revoke_role(bud, "pi_all")
    assert svc.has_role(bud, "read_data") is False


def test_independent_assignment_survives_parent_revoke(svc):
    svc.create_role("t1", "pi_all", "admin")
    svc.create_role("t1", "read_data", "admin")
    svc.add_child_role("t1", "pi_all", "read_data")
    bud = UserIdentity("bud", "t1")
    svc.grant_role(bud, "pi_all", "admin")
    svc.grant_role(bud, "read_data", "admin")
    svc.revoke_role(bud, "pi_all")
    assert svc.has_role(bud, "read_data") is True


def test_multiple_parents_allowed(svc):
    for name in ("p1", "p2", "shared"):
        svc.create_role("t1", name, "admin")
    svc.add_child_role("t1", "p1", "shared")
    svc.add_child_role("t1", "p2", "shared")
    u = UserIdentity("u", "t1")
    svc.grant_role(u, "p2", "admin")
    assert svc.has_role(u, "shared")


def test_cycle_rejected(svc):
    for name in ("a", "b", "c"):
        svc.create_role("t1", name, "admin")
    svc.add_child_role("t1", "a", "b")
    svc.add_child_role("t1", "b", "c")
    with pytest.raises(CycleDetected):
        svc.add_child_role("t1", "c", "a")
    with pytest.raises(CycleDetected):
        svc.add_child_role("t1", "a", "a")


def test_edge_to_unknown_role(svc):
    svc.create_role("t1", "a", "admin")
    with pytest.raises(UnknownRole):
        svc.add_child_role("t1", "a", "ghost")


def test_default_role(svc):
    bob = UserIdentity("bob", "tenant1")
    role = svc.ensure_default_role(bob)
    assert role.name == default_role_name("bob") == "$$bob"
    assert svc.has_role(bob, "$$bob") is True
    svc.ensure_default_role(bob)
    assert list(svc._roles["tenant1"]) == ["$$bob"]


def test_default_roles_tenant_scoped(svc):
    svc.ensure_default_role(UserIdentity("bob", "t1"))
    svc.ensure_default_role(UserIdentity("bob", "t2"))
    assert svc.has_role(UserIdentity("bob", "t1"), "$$bob")
    assert svc.has_role(UserIdentity("bob", "t2"), "$$bob")
    assert "$$bob" in svc._roles["t1"]
    assert "$$bob" in svc._roles["t2"]


def test_has_role_unknown(svc):
    with pytest.raises(UnknownRole):
        svc.has_role(UserIdentity("bob", "t1"), "ghost")


def test_grant_permission_stored_canonically(svc):
    svc.create_role("a2cps", "r", "admin")
    svc.grant_permission("r", "a2cps", "systems:a2cps:read,modify:corral")
    assert _held(svc, "a2cps", "r") == ["systems:a2cps:modify,read:corral"]


def test_grant_malformed_permission(svc):
    svc.create_role("t1", "r", "admin")
    with pytest.raises(MalformedPermission):
        svc.grant_permission("r", "t1", "x::y")


def test_revoke_unattached_permission_is_noop(svc):
    svc.create_role("t1", "r", "admin")
    svc.revoke_permission("r", "t1", "systems:t1:read:s")
    assert _held(svc, "t1", "r") == []
    assert svc.role_grants("t1", "r") is None  # the revoke created no empty record


def test_a_grant_for_another_schema_answers_false(svc):
    svc.create_role("t1", "r", "admin")
    svc.grant_permission("r", "t1", "files:t1:*:s2:/a/b")
    user = UserIdentity("u", "t1")
    svc.grant_role(user, "r", "admin")
    assert svc.is_permitted(user, "systems:t1:read:s1:x") is False


def test_a_wildcard_schema_grant_naming_a_path_covers_it_in_files(svc):
    svc.create_role("t1", "r", "admin")
    svc.grant_permission("r", "t1", "*:t1:read:s1:/a")  # not concrete: the general matcher
    user = UserIdentity("u", "t1")
    svc.grant_role(user, "r", "admin")
    assert svc.is_permitted(user, "files:t1:read:s1:/a/b") is True
    assert svc.is_permitted(user, "files:t1:read:s1:/ab") is False


def test_a_roles_grants_keep_order_and_cost_linear_comparisons():
    compared = [0]

    class CountingStr(str):
        __hash__ = str.__hash__

        def __eq__(self, other):
            compared[0] += 1
            return str.__eq__(self, other)

    record, n = rbac_module._RoleGrants(), 2000
    grants = [f"files:t1:read:s:/p{i}" for i in range(n)]
    for grant in grants + grants:  # the second pass re-adds each grant
        record.add(CountingStr(grant), grant + "/")
    for grant in grants[::2] + grants[::2]:  # and removes twice
        record.remove(CountingStr(grant))
    assert list(record.entries) == grants[1::2]
    # A list membership test compares each add with every stored grant:
    # about n * n / 2 comparisons, against at most one per call here.
    assert compared[0] <= 3 * n


def test_is_permitted_through_wildcard(svc):
    svc.create_role("cyverse", "power", "admin")
    svc.grant_permission("power", "cyverse", "systems:cyverse:*:frontera")
    u = UserIdentity("u", "cyverse")
    svc.grant_role(u, "power", "admin")
    assert svc.is_permitted(u, "systems:cyverse:exec:frontera") is True
    assert svc.is_permitted(u, "systems:tacc:modify:stampede2") is False


def test_is_permitted_no_roles(svc):
    u = UserIdentity("nobody", "t1")
    svc.ensure_default_role(u)
    assert svc.is_permitted(u, "systems:t1:read:s") is False


def test_permission_on_child_role_reached_via_parent(svc):
    svc.create_role("t1", "parent", "admin")
    svc.create_role("t1", "child", "admin")
    svc.add_child_role("t1", "parent", "child")
    svc.grant_permission("child", "t1", "systems:t1:read:s1")
    u = UserIdentity("u", "t1")
    svc.grant_role(u, "parent", "admin")
    assert svc.is_permitted(u, "systems:t1:read:s1") is True


def test_path_permission_through_role(svc):
    svc.create_role("tacc", "reader", "admin")
    svc.grant_permission("reader", "tacc", "files:tacc:read:sys1:/home/bud/data")
    u = UserIdentity("bud", "tacc")
    svc.grant_role(u, "reader", "admin")
    assert svc.is_permitted(u, "files:tacc:read:sys1:/home/bud/data/run1/out.csv")
    assert not svc.is_permitted(u, "files:tacc:read:sys1:/home/budget")


def test_revocation_visible_immediately(svc):
    svc.create_role("t1", "r", "admin")
    svc.grant_permission("r", "t1", "systems:t1:read:s")
    u = UserIdentity("u", "t1")
    svc.grant_role(u, "r", "admin")
    assert svc.is_permitted(u, "systems:t1:read:s")
    svc.revoke_permission("r", "t1", "systems:t1:read:s")
    assert not svc.is_permitted(u, "systems:t1:read:s")


def test_cross_tenant_isolation(svc):
    svc.create_role("tenant_a", "secret_role", "admin")
    svc.grant_permission("secret_role", "tenant_a", "systems:tenant_a:read:s")
    user_b = UserIdentity("bob", "tenant_b")
    with pytest.raises(UnknownRole):
        svc.has_role(user_b, "secret_role")
    assert "secret_role" not in svc._roles.get("tenant_b", {})
    assert svc._assignments.get("tenant_b", {}).get("bob", {}) == {}


def test_delete_role_cascades_with_audit(svc):
    svc.create_role("t1", "a", "admin")
    svc.create_role("t1", "b", "admin")
    svc.add_child_role("t1", "a", "b")
    u = UserIdentity("u", "t1")
    svc.grant_role(u, "a", "admin")
    svc.delete_role("t1", "a")
    with pytest.raises(UnknownRole):
        svc.has_role(u, "a")
    assert svc._assignments["t1"]["u"] == {}
    assert any(entry[2] == "delete_role_cascade" for entry in svc.audit_log)


def _random_dag(rng, n_roles, n_edges):
    """Random DAG as edge dict via a random topological order."""
    order = [f"r{i}" for i in range(n_roles)]
    rng.shuffle(order)
    rank = {r: i for i, r in enumerate(order)}
    edges = {r: set() for r in order}
    for _ in range(n_edges):
        a, b = rng.sample(order, 2)
        parent, child = (a, b) if rank[a] < rank[b] else (b, a)
        edges[parent].add(child)
    return edges


@pytest.mark.parametrize("seed", [7, 21])
def test_has_role_matches_reachability_oracle(svc, seed):
    rng = random.Random(seed)
    for _ in range(30):
        n = rng.randint(2, 20)
        edges = _random_dag(rng, n, rng.randint(0, 3 * n))
        tenant = f"t{rng.randint(0, 10 ** 6)}"
        for r in edges:
            svc.create_role(tenant, r, "admin")
        for parent, children in edges.items():
            for child in children:
                svc.add_child_role(tenant, parent, child)
        user = UserIdentity("u", tenant)
        assigned = rng.sample(sorted(edges), rng.randint(1, min(3, n)))
        for r in assigned:
            svc.grant_role(user, r, "admin")
        for target in edges:
            assert svc.has_role(user, target) == oracle_reachable(edges, assigned, target)


def test_no_mutation_sequence_creates_cycle(svc):
    rng = random.Random(99)
    tenant = "cyc"
    roles = [f"r{i}" for i in range(12)]
    for r in roles:
        svc.create_role(tenant, r, "admin")
    for _ in range(300):
        a, b = rng.sample(roles, 2)
        try:
            svc.add_child_role(tenant, a, b)
        except CycleDetected:
            pass
        assert not oracle_has_cycle(svc._edges.get(tenant, {}))


perm_strings = st.one_of(
    st.builds(
        lambda t, op, sys: f"systems:{t}:{op}:{sys}",
        st.sampled_from(["t1"]),
        st.sampled_from(["read", "modify", "exec", "*", "read,modify"]),
        st.sampled_from(["s1", "s2", "*"]),
    ),
    st.builds(
        lambda op, sys, path: f"files:t1:{op}:{sys}:{path}",
        st.sampled_from(["read", "modify", "*"]),
        st.sampled_from(["s1", "s2"]),
        st.sampled_from(["/", "/a", "/a/b", "/a/b/c", "/ab"]),
    ),
)

required_strings = st.one_of(
    st.builds(
        lambda op, sys: f"systems:t1:{op}:{sys}",
        st.sampled_from(["read", "modify", "exec"]),
        st.sampled_from(["s1", "s2"]),
    ),
    st.builds(
        lambda op, sys, path: f"files:t1:{op}:{sys}:{path}",
        st.sampled_from(["read", "modify"]),
        st.sampled_from(["s1", "s2"]),
        st.sampled_from(["/", "/a", "/a/b", "/a/b/c", "/ab", "/a/bc"]),
    ),
)


@given(st.lists(perm_strings, min_size=0, max_size=8), required_strings)
@settings(max_examples=300, deadline=None)
def test_is_permitted_matches_naive_scan(grants, required):
    svc = RbacService()
    svc.create_role("t1", "r", "admin")
    for g in grants:
        svc.grant_permission("r", "t1", g)
    u = UserIdentity("u", "t1")
    svc.grant_role(u, "r", "admin")

    req_spec = parse_permission(required)
    naive = any(implies(parse_permission(g), req_spec) for g in grants)
    assert svc.is_permitted(u, required) == naive


# Wildcard, comma-set, path-less, root-path and path grants, some spelled
# twice (one canonical form each), so regrants and revokes of absent grants
# come up often.
written_grants = st.sampled_from([
    "systems:t1:*:s1",
    "systems:t1:read,modify:s2",
    "systems:t1:modify,read:s2",
    "systems:t1:read",
    "systems:t1:read:s1",
    "files:t1:read:s1",
    "files:t1:read:s1:/",
    "files:t1:read:s1:/a",
    "files:t1:read:s1://a/",
    "files:t1:*:s2:/a/b",
    "systems:t1:read:s1/",
    "files:t1:read:s1:/a:b",
    "files:t1:modify:s2:/",
])

checked_permissions = [
    "systems:t1:read:s1", "systems:t1:modify:s2", "systems:t1:exec:s1",
    "systems:t1:read:s2", "files:t1:read:s1", "files:t1:read:s1:/", "files:t1:read:s1:/a",
    "files:t1:read:s1:/a/b", "files:t1:read:s1:/ab", "files:t1:modify:s2:/a/b/c",
    "files:t1:modify:s2:/a", "systems:t1:read:s1/x", "systems:t1:read:s1/:x",
    "files:t1:read:s1:/a:b/c", "files:t1:read:s1:/a:bc", "files:t1:modify:s2:/",
]


@given(st.lists(st.tuples(st.booleans(), written_grants), max_size=14))
@settings(max_examples=150, deadline=None)
def test_writes_to_a_compiled_role_match_a_naive_scan(writes):
    svc = RbacService()
    svc.create_role("t1", "r", "admin")
    user = UserIdentity("u", "t1")
    svc.grant_role(user, "r", "admin")
    for step, (granted, permission) in enumerate([(None, None)] + writes):
        if granted is not None:
            write = svc.grant_permission if granted else svc.revoke_permission
            write("r", "t1", permission)
        stored = _held(svc, "t1", "r")
        for required in checked_permissions:
            req_spec = parse_permission(required)
            naive = any(implies(parse_permission(g), req_spec) for g in stored)
            assert svc.is_permitted(user, required) == naive, (step, required)
        # The role's record holds each stored grant once, exactly as one built
        # by parsing the stored grants does.
        kept = svc.role_grants("t1", "r")
        if kept is None:
            assert stored == []
            continue
        specs = [(g, parse_permission(g)) for g in stored]
        concrete = [(g, s.path_tail) for g, s in specs if s.is_concrete()]
        assert {g for g, entry in kept.entries.items() if isinstance(entry, str)} == {g for g, _ in concrete}
        assert Counter(kept.prefixes) == Counter(
            g + ":" if tail is None else g if tail == "/" else g + "/" for g, tail in concrete)
        assert Counter(kept.general) == Counter(s for _, s in specs if not s.is_concrete())


def test_a_write_to_a_compiled_role_parses_only_the_written_grant(monkeypatch):
    svc = RbacService()
    svc.create_role("t1", "r", "admin")
    for i in range(2000):
        svc.grant_permission("r", "t1", f"files:t1:read:s1:/p{i}")
    user = UserIdentity("u", "t1")
    svc.grant_role(user, "r", "admin")
    assert svc.is_permitted(user, "files:t1:read:s1:/p0/x")  # compiles the role's matcher
    parsed = []

    def counting_parse(raw, registry=DEFAULT_REGISTRY):
        parsed.append(raw)
        return parse_permission(raw, registry)

    monkeypatch.setattr(rbac_module, "parse_permission", counting_parse)
    svc.grant_permission("r", "t1", "files:t1:read:s1:/new")
    assert svc.is_permitted(user, "files:t1:read:s1:/new/x")
    assert len(parsed) <= 2


def test_a_roles_first_check_parses_only_the_request(monkeypatch):
    svc = RbacService()
    svc.create_role("t1", "r", "admin")
    kinds = [lambda i: f"files:t1:read:s1:/p{i}", lambda i: f"systems:t1:read:s{i}",
             lambda i: f"files:t1:read,modify:s2:/q{i}", lambda i: f"systems:t1:*:w{i}"]
    grants = [kinds[i % 4](i) for i in range(2000)] + ["files:t1:read:s3:/"]
    for grant in grants:
        svc.grant_permission("r", "t1", grant)
    svc.revoke_permission("r", "t1", grants[4])  # 2000 grants stay
    user = UserIdentity("u", "t1")
    svc.grant_role(user, "r", "admin")
    parsed = []

    def counting_parse(raw, registry=DEFAULT_REGISTRY):
        parsed.append(raw)
        return parse_permission(raw, registry)

    monkeypatch.setattr(rbac_module, "parse_permission", counting_parse)
    assert svc.is_permitted(user, "files:t1:read:s1:/p0/x")  # builds the role's matcher
    assert parsed == ["files:t1:read:s1:/p0/x"]
    monkeypatch.undo()

    held = [parse_permission(g) for g in grants if g != grants[4]]
    for required in ["files:t1:read:s1:/p4/x", "files:t1:read:s1:/p8", "files:t1:read:s1:/p8x",
                     "systems:t1:read:s1", "systems:t1:read:s1:x", "systems:t1:read:s5",
                     "files:t1:modify:s2:/q2/y", "files:t1:modify:s2:/q6y", "systems:t1:exec:w3",
                     "systems:t1:exec:w7:z", "files:t1:read:s3:/any/path", "files:t1:read:s9:/"]:
        req_spec = parse_permission(required)
        assert svc.is_permitted(user, required) == any(implies(g, req_spec) for g in held), required


def test_the_audit_log_keeps_only_the_most_recent_entries(monkeypatch):
    monkeypatch.setattr(rbac_module, "AUDIT_LIMIT", 3)
    svc = RbacService()
    names = [f"r{i}" for i in range(5)]
    for name in names:
        svc.create_role("t1", name, "admin")
    for name in names:
        svc.delete_role("t1", name)
    assert [entry[1:] for entry in svc.audit_log] == [
        ("t1", "delete_role_cascade", name) for name in names[-3:]]


def test_readers_of_a_compiled_role_see_only_a_prefix_of_its_writes():
    svc = RbacService()
    svc.create_role("t1", "r", "admin")
    for i in range(500):
        svc.grant_permission("r", "t1", f"files:t1:read:s1:/bulk/{i}")
    user = UserIdentity("u", "t1")
    svc.grant_role(user, "r", "admin")
    probes = ["files:t1:read:s1:/w/a/x", "files:t1:modify:s1:/w/a/b/c", "files:t1:read:s1:/w",
              "systems:t1:modify:s1", "systems:t1:exec:s9"]
    pool = ["files:t1:read:s1:/w/a", "files:t1:read:s1://w/a/", "files:t1:read:s1:/w",
            "files:t1:*:s1:/w/a/b", "systems:t1:read,modify:s1", "systems:t1:exec"]
    rng = random.Random(5)
    writes = [(rng.random() < 0.5, rng.choice(pool)) for _ in range(300)]
    # expected[k][probe]: the answer after the first k writes (the bulk grants imply no probe).
    held, expected = set(), []
    for k in range(len(writes) + 1):
        if k:
            granted, permission = writes[k - 1]
            canon = rbac_module.canonicalize(parse_permission(permission))
            held.add(canon) if granted else held.discard(canon)
        expected.append({p: any(implies(parse_permission(g), parse_permission(p)) for g in held)
                         for p in probes})
    assert svc.is_permitted(user, "files:t1:read:s1:/bulk/0/x")  # compiles the role's matcher

    started, done = [0], [0]
    stop, errors, unexplained = threading.Event(), [], []

    def check_continuously():
        try:
            while not stop.is_set():
                for probe in probes:
                    low = done[0]
                    answer = svc.is_permitted(user, probe)
                    high = started[0]
                    if all(expected[k][probe] != answer for k in range(low, high + 1)):
                        unexplained.append((probe, answer, low, high))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    readers = [threading.Thread(target=check_continuously) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    stale = []
    try:
        for reader in readers:
            reader.start()
        for k, (granted, permission) in enumerate(writes, start=1):
            started[0] = k
            write = svc.grant_permission if granted else svc.revoke_permission
            write("r", "t1", permission)
            done[0] = k
            stale += [(k, p) for p in probes if svc.is_permitted(user, p) != expected[k][p]]
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        for reader in readers:
            reader.join(timeout=10)
    assert not any(reader.is_alive() for reader in readers)
    assert errors == []
    assert stale == []
    assert unexplained == []


def test_a_check_that_writes_overlap_answers_from_one_state_of_the_role(monkeypatch):
    svc = RbacService()
    svc.create_role("t1", "r", "admin")
    user = UserIdentity("u", "t1")
    svc.grant_role(user, "r", "admin")
    other, by_prefix, by_spec = "systems:t1:read:s9", "files:t1:read:s1:/w", "files:t1:read,modify:s1:/w"
    svc.grant_permission("r", "t1", other)
    svc.grant_permission("r", "t1", by_spec)
    # The role implies the probe before, between and after these writes.
    writes = [(svc.revoke_permission, other), (svc.grant_permission, by_prefix),
              (svc.revoke_permission, by_spec)]

    class WritesOnFirstComparison(str):
        """A canonical request that runs the writes at its first prefix comparison,
        as a writer thread scheduled at that moment would."""

        def startswith(self, prefix):
            while writes:
                write, permission = writes.pop(0)
                write("r", "t1", permission)
            return str.startswith(self, prefix)

    canonicalize = rbac_module.canonicalize
    monkeypatch.setattr(rbac_module, "canonicalize", lambda spec: WritesOnFirstComparison(canonicalize(spec)))
    assert svc.is_permitted(user, "files:t1:read:s1:/w/x")
    assert writes == []


def _peak_bytes_per_grant(held):
    """Median traced peak of one grant to a checked role that holds ``held`` grants."""
    svc = RbacService()
    svc.create_role("t1", "r", "admin")
    for i in range(held):
        svc.grant_permission("r", "t1", f"files:t1:read:s1:/p{i}")
    user = UserIdentity("u", "t1")
    svc.grant_role(user, "r", "admin")
    assert svc.is_permitted(user, "files:t1:read:s1:/p0/x")
    peaks = []
    tracemalloc.start()
    try:
        for i in range(100):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            svc.grant_permission("r", "t1", f"files:t1:read:s1:/new{i}")
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    return statistics.median(peaks)


def test_a_grants_memory_does_not_grow_with_the_role():
    small, large = _peak_bytes_per_grant(200), _peak_bytes_per_grant(10_000)
    assert large <= 2 * small, (small, large)


@pytest.mark.parametrize("seed", [3, 17])
def test_is_permitted_matches_closure_scan_on_random_dags(svc, seed):
    """Grants scattered over a random role DAG: the answer equals an OR of
    implies() over every grant attached to the reachable closure."""
    rng = random.Random(seed)
    for trial in range(15):
        tenant = f"scan{seed}-{trial}"
        edges = _random_dag(rng, rng.randint(2, 12), rng.randint(0, 20))
        for role in edges:
            svc.create_role(tenant, role, "admin")
        for parent, children in edges.items():
            for child in children:
                svc.add_child_role(tenant, parent, child)
        grants_by_role = {}
        for role in edges:
            grants_by_role[role] = [
                f"systems:{tenant}:{rng.choice(['read', 'modify', '*'])}:"
                f"{rng.choice(['s1', 's2', '*'])}"
                for _ in range(rng.randint(0, 3))
            ]
            for g in grants_by_role[role]:
                svc.grant_permission(role, tenant, g)
        user = UserIdentity("u", tenant)
        assigned = rng.sample(sorted(edges), rng.randint(1, 3))
        for role in assigned:
            svc.grant_role(user, role, "admin")

        reachable = {r for r in edges if oracle_reachable(edges, assigned, r)}
        for required in (f"systems:{tenant}:read:s1", f"systems:{tenant}:modify:s2"):
            req_spec = parse_permission(required)
            naive = any(implies(parse_permission(g), req_spec)
                        for role in reachable for g in grants_by_role[role])
            assert svc.is_permitted(user, required) == naive


def test_role_chain_deeper_than_the_recursion_limit(svc):
    names = [f"r{i}" for i in range(1200)]
    for name in names:
        svc.create_role("tacc", name, "admin")
    for parent, child in zip(names, names[1:]):
        svc.add_child_role("tacc", parent, child)
    user = UserIdentity("u", "tacc")
    svc.grant_role(user, names[0], "admin")
    assert svc.has_role(user, names[-1])
    assert len(svc.effective_roles("tacc", "u")) == len(names)
    with pytest.raises(CycleDetected):
        svc.add_child_role("tacc", names[-1], names[0])


class _SlowService(RbacService):
    """Widens the gap between a check's read of a role's grant record and its scan."""

    def role_grants(self, tenant, role):
        grants = super().role_grants(tenant, role)
        time.sleep(0.0005)
        return grants


def test_caches_never_serve_a_decision_a_finished_write_made_stale(monkeypatch):
    reach = rbac_module._reach

    def slow_reach(edges, start):  # widens the gap between a closure map's fill and its use
        closure = reach(edges, start)
        time.sleep(0.0005)
        return closure

    monkeypatch.setattr(rbac_module, "_reach", slow_reach)
    svc = _SlowService()
    svc.create_role("tacc", "shared", "admin")
    user = UserIdentity("u", "tacc")
    svc.grant_role(user, "shared", "admin")
    stop, errors = threading.Event(), []

    def check_continuously():
        try:
            while not stop.is_set():
                svc.is_permitted(user, "systems:tacc:read:elsewhere")
                svc.has_role(user, "shared")
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    readers = [threading.Thread(target=check_continuously) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    stale = []
    try:
        for reader in readers:
            reader.start()
        for i in range(60):
            permission = f"systems:tacc:read:s{i}"
            svc.grant_permission("shared", "tacc", permission)
            if not svc.is_permitted(user, permission):
                stale.append(f"grant {i}")
            svc.revoke_permission("shared", "tacc", permission)
            if svc.is_permitted(user, permission):
                stale.append(f"revoke {i}")
            svc.create_role("tacc", f"c{i}", "admin")
            svc.add_child_role("tacc", "shared", f"c{i}")
            if not svc.has_role(user, f"c{i}"):
                stale.append(f"child {i}")
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        for reader in readers:
            reader.join(timeout=10)
    assert not any(reader.is_alive() for reader in readers)
    assert errors == []
    assert stale == []
