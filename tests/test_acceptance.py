"""Acceptance suite: every criterion at its stated tolerance, one pass/fail
line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete. The load-ladder and token-fuzz criteria take tens of
seconds by design.
"""

import random
import time
import uuid

from fedsec.errors import (
    BadSignature,
    CycleDetected,
    NotAuthorized,
    NotFound,
    ReusedToken,
    UnknownRole,
)
from fedsec.identity import BOOTSTRAP, Caller, UserIdentity
from fedsec.permissions import WILDCARD, PermissionSpec, implies
from fedsec.rbac import RbacService
from fedsec.registry import load_config
from fedsec.secrets import MemoryKvBackend, SecretCategory, SecretPath, SecretsService, SecretValue
from fedsec.sharing import ShareGrant, SharingService
from fedsec.skadmin import (
    PRIMARY_ORDER,
    BootstrapConfig,
    check_deployment_order,
    run_bootstrap,
)
from fedsec.tokens import TokenClaims, TokenForge, encode_token, verify

from .conftest import two_site_doc
from .oracles import CoverOracle, implies_str, oracle_reachable

PASS_LINE = "ACCEPTANCE {n}: PASS - {what}"


def report(n, what):
    print(PASS_LINE.format(n=n, what=what))


# ----------------------------------------------------------------------
# 1. permission oracle equivalence at scale


def _random_granted(rng):
    parts = []
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.2:
            parts.append(WILDCARD)
        elif roll < 0.7:
            parts.append(frozenset([rng.choice("ab")]))
        else:
            parts.append(frozenset(["a", "b"]))
    return tuple(parts)


def _random_required(rng):
    return tuple(frozenset([rng.choice("ab")]) for _ in range(rng.randint(1, 4)))


def test_acceptance_1_oracle_equivalence_100k():
    rng = random.Random(20260809)
    oracle = CoverOracle(alphabet=("a", "b"), depth=5)
    started = time.perf_counter()
    disagreements = 0
    for _ in range(100_000):
        gparts = _random_granted(rng)
        rparts = _random_required(rng)
        got = implies(PermissionSpec(raw="", parts=gparts),
                      PermissionSpec(raw="", parts=rparts))
        want = oracle.implies(["*" if p == WILDCARD else p for p in gparts],
                              [p for p in rparts])
        if got != want:
            disagreements += 1
    elapsed = time.perf_counter() - started
    assert disagreements == 0
    assert elapsed < 60.0, f"100k pairs took {elapsed:.1f}s"
    report(1, f"implies matches enumeration oracle on 100,000 pairs in {elapsed:.1f}s")


# ----------------------------------------------------------------------
# 2. the worked permission examples


def test_acceptance_2_worked_examples():
    a = "systems:tacc:read:stampede2"
    b = "systems:cyverse:*:frontera"
    c = "systems:a2cps:read,modify:corral"
    d = "systems:tacc:modify:stampede2"
    e = "systems:cyverse:exec:frontera"
    assert implies_str(b, e) is True
    for granted in (a, b, c):
        assert implies_str(granted, d) is False
    files = "files:tacc:read:sys1:/home/bud/data"
    assert implies_str(files, "files:tacc:read:sys1:/home/bud/data")
    assert implies_str(files, "files:tacc:read:sys1:/home/bud/data/run1/out.csv")
    assert implies_str(files, "files:tacc:read:sys1:/home/bud/data/a/b/c/deep.dat")
    assert not implies_str(files, "files:tacc:read:sys1:/home/budget")
    assert not implies_str(files, "files:tacc:read:sys1:/home/bud")
    assert not implies_str(files, "files:tacc:read:sys2:/home/bud/data/x")
    report(2, "the five worked permission examples behave exactly as published")


# ----------------------------------------------------------------------
# 3. role DAG reachability and cycle rejection


def test_acceptance_3_role_dag():
    rng = random.Random(42)
    svc = RbacService()
    for graph_index in range(1000):
        tenant = f"dag{graph_index}"
        n_roles = rng.randint(2, 50)
        order = [f"r{i}" for i in range(n_roles)]
        rng.shuffle(order)
        rank = {r: i for i, r in enumerate(order)}
        edges = {r: set() for r in order}
        for r in order:
            svc.create_role(tenant, r, "admin")
        for _ in range(rng.randint(0, 150)):
            x, y = rng.sample(order, 2)
            parent, child = (x, y) if rank[x] < rank[y] else (y, x)
            if child not in edges[parent]:
                edges[parent].add(child)
                svc.add_child_role(tenant, parent, child)
        user = UserIdentity("u", tenant)
        assigned = rng.sample(order, rng.randint(1, min(4, n_roles)))
        for r in assigned:
            svc.grant_role(user, r, "admin")
        probe = rng.sample(order, min(10, n_roles))
        for target in probe:
            assert svc.has_role(user, target) == oracle_reachable(edges, assigned, target)

    # Adversarial cycle attempts: close a random existing path.
    rejected = 0
    svc2 = RbacService()
    tenant = "cycles"
    chain = [f"c{i}" for i in range(50)]
    for r in chain:
        svc2.create_role(tenant, r, "admin")
    for i in range(49):
        svc2.add_child_role(tenant, chain[i], chain[i + 1])
    for _ in range(1000):
        i, j = sorted(rng.sample(range(50), 2))
        try:
            svc2.add_child_role(tenant, chain[j], chain[i])
        except CycleDetected:
            rejected += 1
    assert rejected == 1000
    report(3, "has_role matches the reachability oracle on 1000 DAGs; "
              "1000/1000 cycle insertions rejected")


# ----------------------------------------------------------------------
# 4. over-the-wire validation matrix


def test_acceptance_4_validation_matrix():
    from fedsec.sim.federation import build_federation
    from fedsec.sim.matrix import run_validation_matrix
    from fedsec.sim.presets import two_site_topology

    federation = build_federation(two_site_topology())
    try:
        result = run_validation_matrix(federation)
    finally:
        federation.close()
    assert result["cells"] >= 288
    assert result["disagreements"] == []
    report(4, f"all {result['cells']} over-the-wire verdicts match the decision table")


# ----------------------------------------------------------------------
# 5. the four walkthrough branches


def test_acceptance_5_sac_walkthrough_branches():
    from fedsec.sim.federation import build_federation
    from fedsec.sim.scenario import run_sac_walkthrough, walkthrough_topology_doc

    expected = {
        "nominal": ("FINISHED", None),
        "missing-grantee-credentials": ("FAILED", "no credentials for bob"),
        "grantor-revoked-fallback": ("FINISHED", None),
        "both-unauthorized": ("FAILED", "execution system authorization"),
    }
    for branch, (status, reason_part) in expected.items():
        federation = build_federation(walkthrough_topology_doc())
        try:
            result = run_sac_walkthrough(federation, branch)
        finally:
            federation.close()
        job = result["job"]
        assert job["status"] == status, f"{branch}: {job}"
        if reason_part:
            assert reason_part in job["reason"]
        transcript = result["transcript"]
        sac_targets = {e["target"] for e in transcript if e["action"] == "sac-authorized"}
        assert "arcSys" not in sac_targets
        if status == "FINISHED":
            arc_checks = [e for e in transcript if e["action"] == "file-permission-check"
                          and e["target"].startswith("arcSys:")]
            assert arc_checks, f"{branch}: archive system skipped the standard path"
    report(5, "all four walkthrough branches reproduce; the archive system is "
              "authorized only through the standard path")


# ----------------------------------------------------------------------
# 6. bootstrap idempotency, deploy order, key exchange end to end


def test_acceptance_6_bootstrap():
    config = BootstrapConfig(
        site_id="prime", is_primary=True, admin_tenant="admin.prime",
        tenants=["admin.prime", "tenant1"],
        services=["security-kernel", "tokens", "authenticator", "tenants"])
    store = SecretsService(backend=MemoryKvBackend(), site_id="prime",
                           admin_tenant="admin.prime")
    first = run_bootstrap(config, store)
    second = run_bootstrap(config, store)
    assert len(first.created) > 0 and second.created == []
    assert sorted(second.skipped) == sorted(first.created)

    assert check_deployment_order(PRIMARY_ORDER, "primary").ok
    for i in range(len(PRIMARY_ORDER) - 1):
        events = list(PRIMARY_ORDER)
        events[i], events[i + 1] = events[i + 1], events[i]
        assert not check_deployment_order(events, "primary").ok, f"swap {i} accepted"

    # Key exchange enables cross-site verification end to end: a service
    # token signed with the associate's admin key is accepted at the primary.
    from fedsec.gatekeeper import OBO_TENANT_HEADER, OBO_USER_HEADER
    from fedsec.sim.federation import build_federation
    from fedsec.sim.presets import two_site_topology

    federation = build_federation(two_site_topology(assoc_services=("systems", "files")))
    try:
        assoc_token = federation.service_token("assoc1", "files", "prime")
        response = federation.request(
            "POST", "tenant1.sim", "/v3/security/perms/isPermitted", token=assoc_token,
            headers={OBO_USER_HEADER: "carol", OBO_TENANT_HEADER: "tenant2"},
            json_body={"tenant": "tenant2", "username": "carol",
                       "permission": "systems:tenant2:read:x"})
        assert response.status_code == 403  # kernel traffic stays home (rule 3)
        assert response.json()["result"]["rule"] == "3"
        response = federation.request(
            "POST", "tenant1.sim", "/v3/jobs", token=assoc_token,
            headers={OBO_USER_HEADER: "carol", OBO_TENANT_HEADER: "tenant2"},
            json_body={"appId": "ghost"})
        assert response.status_code == 200
        assert response.json()["result"]["status"] == "FAILED"  # authorized, app missing
    finally:
        federation.close()
    report(6, "bootstrap idempotent; all 6 order swaps rejected; exchanged "
              "associate key verifies cross-site")


# ----------------------------------------------------------------------
# 7. token security at scale


def test_acceptance_7_token_security(keypool):
    doc = two_site_doc({t: keypool[i] for i, t in enumerate(
        ["admin.prime", "admin.assoc1", "tenant1", "tenant2"])})
    registry = load_config(doc)
    tenants = ["admin.prime", "admin.assoc1", "tenant1", "tenant2"]
    keys = {t: keypool[i] for i, t in enumerate(tenants)}
    rng = random.Random(7)
    now = time.time()

    rejected = 0
    for i in range(10_000):
        tenant = rng.choice(tenants)
        wrong = rng.choice([t for t in tenants if t != tenant])
        claims = TokenClaims(jti=str(i), sub=f"u{i}@{tenant}", tenant_id=tenant,
                             account_type="user", exp=now + 600, iat=now)
        forged = encode_token(claims, keys[wrong][0])
        try:
            verify(forged, registry)
        except BadSignature:
            rejected += 1
    assert rejected == 10_000

    # Valid fuzzed claims round-trip.
    for i in range(500):
        tenant = rng.choice(tenants)
        kind = rng.choice(["user", "service"])
        target = rng.choice(["prime", "assoc1"]) if kind == "service" else None
        claims = TokenClaims(jti=str(uuid.uuid4()), sub=f"s{i}@{tenant}", tenant_id=tenant,
                             account_type=kind, exp=now + rng.uniform(10, 10_000), iat=now,
                             target_site=target)
        token = encode_token(claims, keys[tenant][0])
        assert verify(token, registry) == claims

    # Refresh tokens are strictly single use.
    from fedsec.rbac import RbacService as _Rbac

    secrets = SecretsService(site_id="prime", admin_tenant="admin.prime")
    secrets.write_secret(SecretPath("admin.prime", SecretCategory.SERVICE_PASSWORD,
                                    "jobs", "password"), SecretValue(b"pw"), BOOTSTRAP)
    forge = TokenForge(site_id="prime", admin_tenant="admin.prime",
                       private_key_provider=lambda t: keys[t][0],
                       rbac=_Rbac(), registry=registry, secrets=secrets)
    reuse_rejected = 0
    for _ in range(200):
        pair = forge.issue_service_tokens("jobs", b"pw", "prime", ["prime"])["prime"]
        forge.refresh(pair.refresh)
        try:
            forge.refresh(pair.refresh)
        except ReusedToken:
            reuse_rejected += 1
    assert reuse_rejected == 200
    report(7, "10,000/10,000 forged tokens rejected; 500 fuzzed round trips; "
              "200/200 refresh replays rejected")


# ----------------------------------------------------------------------
# 8. the scaling trend at desk scale


def test_acceptance_8_load_ladder():
    from fedsec.sim.loadgen import run_ladder
    from fedsec.sim.presets import load_topology

    ladder = (1000, 10_000, 25_000, 50_000)
    started = time.perf_counter()
    reports = run_ladder(load_topology, ladder, users=20, wait=(0.01, 0.1), duration=8.0)
    elapsed = time.perf_counter() - started
    averages = [r.avg_ms for r in reports]
    failures = sum(r.failures for r in reports)
    lines = "; ".join(f"{r.permissions // 1000}K avg={r.avg_ms}ms rps={r.rps}" for r in reports)
    assert failures == 0, f"{failures} failed requests under paced load"
    assert all(earlier <= later for earlier, later in zip(averages, averages[1:])), \
        f"averages not monotone: {averages}"
    assert averages[-1] / averages[0] < 50, f"50K/1K ratio {averages[-1] / averages[0]:.1f}"
    assert elapsed < 600, f"ladder took {elapsed:.0f}s"
    report(8, f"monotone ladder in {elapsed:.0f}s with zero failures ({lines}; "
              f"ratio {averages[-1] / averages[0]:.1f})")


# ----------------------------------------------------------------------
# 9. the cross-site hop penalty


def test_acceptance_9_hop_penalty():
    from fedsec.sim.federation import build_federation
    from fedsec.sim.loadgen import measure_cross_site_penalty
    from fedsec.sim.presets import penalty_topology

    federation = build_federation(penalty_topology(link_ms=132.5))
    try:
        result = measure_cross_site_penalty(federation, samples=9)
    finally:
        federation.close()
    assert 265 * 0.9 <= result["delta_ms"] <= 265 * 1.1, result
    report(9, f"hop penalty {result['delta_ms']}ms with a 132.5ms/direction link "
              f"(target 265 +/- 10%)")


# ----------------------------------------------------------------------
# 10. cross-tenant isolation probes


def test_acceptance_10_isolation_probes():
    rng = random.Random(99)
    tenants = [f"iso{i}" for i in range(4)]
    rbac = RbacService()
    secrets = SecretsService(site_id="prime", admin_tenant="admin.iso")
    sharing = SharingService()

    planted = {}
    for tenant in tenants:
        role = f"secret-role-{tenant}"
        rbac.create_role(tenant, role, "admin")
        rbac.grant_permission(role, tenant, f"systems:{tenant}:read:private-{tenant}")
        owner = UserIdentity(f"owner-{tenant}", tenant)
        rbac.ensure_default_role(owner)
        rbac.grant_role(owner, role, "admin")
        path = SecretPath(tenant, SecretCategory.USER_SECRET, f"owner-{tenant}", "payload")
        secrets.write_secret(path, SecretValue(f"secret-{tenant}".encode()),
                             Caller(f"owner-{tenant}", tenant, "user"))
        sharing.create_share(
            ShareGrant(tenant=tenant, grantor=f"owner-{tenant}", grantee="friend",
                       resource_type="system", resource_id=f"private-{tenant}",
                       privilege="READ"),
            Caller(f"owner-{tenant}", tenant, "user"))
        planted[tenant] = (role, path)

    leaks = 0
    for _ in range(500):
        probe_tenant, target_tenant = rng.sample(tenants, 2)
        intruder = UserIdentity(f"owner-{probe_tenant}", probe_tenant)
        kind = rng.choice(["role", "perm", "secret", "share"])
        target_role, target_path = planted[target_tenant]
        if kind == "role":
            try:
                if rbac.has_role(UserIdentity(intruder.username, probe_tenant), target_role):
                    leaks += 1
            except UnknownRole:
                pass
        elif kind == "perm":
            if rbac.subject_is_permitted(probe_tenant, intruder.username,
                                         f"systems:{target_tenant}:read:private-{target_tenant}"):
                leaks += 1
        elif kind == "secret":
            try:
                value = secrets.read_secret(target_path,
                                            Caller(intruder.username, probe_tenant, "user"))
                if value.payload:
                    leaks += 1
            except (NotAuthorized, NotFound):
                pass
        else:
            shared, grantor = sharing.is_shared_with(
                probe_tenant, "system", f"private-{target_tenant}", "friend", "READ")
            if shared or grantor:
                leaks += 1
    assert leaks == 0
    report(10, "500/500 cross-tenant probes returned nothing")
