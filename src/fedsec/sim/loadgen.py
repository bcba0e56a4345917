"""Load harness for the authorization-check endpoint, plus the cross-site
hop penalty measurement.

Seeding mirrors the evaluation design: every simulated system carries
1000 path permissions split across five user archetypes (scientists,
developers, project managers, collaborators, the public), so a ladder of
total permission counts is a ladder of systems. Virtual users then hammer
the permission-check endpoint with a randomized hit/miss query mix, pacing
each request with a uniformly drawn wait, and the report carries the same
columns as the evaluation table: request count, requests per second,
min/avg/max latency, and the 75th and 99.9th percentiles.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
from dataclasses import dataclass, field

from ..errors import SeedingFailed, TopologyInvalid
from ..identity import Caller, UserIdentity

ARCHETYPES = ("scientists", "developers", "project_managers", "collaborators", "public")
PERMISSIONS_PER_SYSTEM = 1000


@dataclass(frozen=True)
class LoadProfile:
    permission_count: int
    concurrent_users: int
    wait_time_range: tuple = (0.01, 0.1)
    duration: float = 10.0

    def __post_init__(self):
        low, high = self.wait_time_range
        if not (0 < low <= high):
            raise TopologyInvalid("wait range must be positive and ordered")
        if self.permission_count < PERMISSIONS_PER_SYSTEM:
            raise TopologyInvalid(f"at least {PERMISSIONS_PER_SYSTEM} permissions required")
        if self.concurrent_users < 1:
            raise TopologyInvalid("at least one virtual user required")


@dataclass
class LoadReport:
    permissions: int
    users: int
    requests: int
    failures: int
    duration_seconds: float
    rps: float
    min_ms: float
    avg_ms: float
    max_ms: float
    p75_ms: float
    p999_ms: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


@dataclass
class SeededWorkload:
    tenant: str
    usernames: list
    tokens: dict = field(default_factory=dict)
    queries: dict = field(default_factory=dict)   # username -> [permission string]
    permission_count: int = 0


def _seed_queries(rng, tenant, usernames, system_count, per_archetype):
    """Per-user query pools with a ~30% hit mix under granted directories."""
    queries = {}
    for username in usernames:
        archetype = username[len("lt_"):]
        pool = []
        for _ in range(1500):
            system = f"lsys{rng.randrange(system_count):04d}"
            if rng.random() < 0.3:
                block = rng.randrange(per_archetype)
                suffix = f"run{rng.randrange(40)}/out{rng.randrange(8)}.csv"
                path = f"/proj/{archetype}/d{block}/{suffix}"
            else:
                path = f"/elsewhere/{archetype}/x{rng.randrange(10_000)}"
            pool.append(f"files:{tenant}:read:{system}:{path}")
        queries[username] = pool
    return queries


def seed_permissions(federation, permission_count: int, tenant: str = "tenant1",
                     seed: int = 0) -> SeededWorkload:
    """Populate archetype roles with path permissions and mint user tokens.

    Permissions are written through the site's RBAC service directly (the
    measured operation is the query endpoint, not seeding) as 1000 distinct
    path grants per system, 200 per archetype. Each write leaves its role's
    record ready to answer checks, so the first request needs no warm-up.
    """
    if permission_count % PERMISSIONS_PER_SYSTEM:
        raise SeedingFailed(f"permission count must be a multiple of {PERMISSIONS_PER_SYSTEM}")
    system_count = permission_count // PERMISSIONS_PER_SYSTEM
    per_archetype = PERMISSIONS_PER_SYSTEM // len(ARCHETYPES)
    rng = random.Random(seed)

    site_id = federation.registry.resolve_site_for_tenant(tenant).site_id
    runtime = federation.runtimes[site_id]
    rbac = runtime.rbac
    usernames = []
    try:
        for archetype in ARCHETYPES:
            role = f"lt_{archetype}"
            username = f"lt_{archetype}"
            rbac.create_role(tenant, role, "loadgen", f"load-test archetype {archetype}")
            rbac.ensure_default_role(UserIdentity(username, tenant))
            rbac.grant_role(UserIdentity(username, tenant), role, "loadgen")
            usernames.append(username)
        for i in range(system_count):
            system = f"lsys{i:04d}"
            for archetype in ARCHETYPES:
                role = f"lt_{archetype}"
                for j in range(per_archetype):
                    permission = f"files:{tenant}:read:{system}:/proj/{archetype}/d{j}"
                    rbac.grant_permission(role, tenant, permission)
    except Exception as exc:
        raise SeedingFailed(f"seeding {permission_count} permissions failed: {exc}") from exc

    workload = SeededWorkload(tenant=tenant, usernames=usernames,
                              permission_count=permission_count)
    requester = Caller(name="authenticator", tenant=runtime.config.admin_tenant, kind="service")
    for username in usernames:
        workload.tokens[username] = runtime.forge.issue_user_token(requester, tenant, username)
    workload.queries = _seed_queries(rng, tenant, usernames, system_count, per_archetype)
    return workload


def run_load(federation, profile: LoadProfile, workload: SeededWorkload,
             seed: int = 0) -> LoadReport:
    """Drive paced virtual users at the permission-check endpoint."""
    host = federation.registry.get_tenant(workload.tenant).host
    latencies_by_user = [[] for _ in range(profile.concurrent_users)]
    failures = [0] * profile.concurrent_users
    start_barrier = threading.Barrier(profile.concurrent_users + 1)
    deadline = [0.0]

    def virtual_user(index: int):
        rng = random.Random((seed << 16) ^ index)
        username = workload.usernames[index % len(workload.usernames)]
        token = workload.tokens[username]
        pool = workload.queries[username]
        low, high = profile.wait_time_range
        record = latencies_by_user[index].append
        start_barrier.wait()
        while True:
            now = time.perf_counter()
            if now >= deadline[0]:
                break
            permission = pool[rng.randrange(len(pool))]
            body = {"tenant": workload.tenant, "username": username,
                    "permission": permission}
            t0 = time.perf_counter()
            try:
                response = federation.request("POST", host, "/v3/security/perms/isPermitted",
                                              token=token, json_body=body)
                ok_response = response.status_code == 200
            except Exception:
                ok_response = False
            elapsed = (time.perf_counter() - t0) * 1000.0
            record(elapsed)
            if not ok_response:
                failures[index] += 1
            time.sleep(rng.uniform(low, high))

    threads = [threading.Thread(target=virtual_user, args=(i,), daemon=True)
               for i in range(profile.concurrent_users)]
    for t in threads:
        t.start()
    deadline[0] = time.perf_counter() + profile.duration
    start = time.perf_counter()
    start_barrier.wait()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start

    samples = sorted(x for per_user in latencies_by_user for x in per_user)
    if not samples:
        raise SeedingFailed("load run produced no samples; duration too short")

    def percentile(q: float) -> float:
        return samples[min(int(q * len(samples)), len(samples) - 1)]

    return LoadReport(
        permissions=workload.permission_count,
        users=profile.concurrent_users,
        requests=len(samples),
        failures=sum(failures),
        duration_seconds=round(elapsed, 3),
        rps=round(len(samples) / elapsed, 2),
        min_ms=round(samples[0], 3),
        avg_ms=round(statistics.fmean(samples), 3),
        max_ms=round(samples[-1], 3),
        p75_ms=round(percentile(0.75), 3),
        p999_ms=round(percentile(0.999), 3),
    )


def run_ladder(topology_factory, ladder, users: int, wait=(0.01, 0.1), duration: float = 10.0,
               seed: int = 0):
    """One fresh federation per rung so permission counts never accumulate.
    Every rung's profile is checked before the first federation starts."""
    from .federation import build_federation

    profiles = [LoadProfile(permission_count=count, concurrent_users=users,
                            wait_time_range=tuple(wait), duration=duration) for count in ladder]
    reports = []
    for profile in profiles:
        federation = build_federation(topology_factory())
        try:
            workload = seed_permissions(federation, profile.permission_count, seed=seed)
            reports.append(run_load(federation, profile, workload, seed=seed))
        finally:
            federation.close()
    return reports


def measure_cross_site_penalty(federation, samples: int = 9) -> dict:
    """Latency delta between associate-routed and primary-local requests
    against a service deployed only at the primary."""
    import statistics as stats

    assoc_user = federation.login("tenant2", "carol")
    prime_user = federation.login("tenant1", "alice")
    for host, token, system in (("tenant2.sim", assoc_user, "pensys"),
                                ("tenant1.sim", prime_user, "locsys")):
        response = federation.request("POST", host, "/v3/systems", token=token,
                                      json_body={"id": system, "kind": "storage",
                                                 "credentialUser": "${requester}"})
        if response.status_code != 201:
            raise TopologyInvalid(f"penalty setup failed for {system}: {response.text}")

    def time_requests(host, token, system):
        timings = []
        for _ in range(samples):
            t0 = time.perf_counter()
            response = federation.request("GET", host, f"/v3/systems/{system}", token=token)
            elapsed = (time.perf_counter() - t0) * 1000.0
            if response.status_code != 200:
                raise TopologyInvalid(f"penalty probe failed: {response.text}")
            timings.append(elapsed)
        return timings

    forwarded = time_requests("tenant2.sim", assoc_user, "pensys")
    local = time_requests("tenant1.sim", prime_user, "locsys")
    return {
        "samples": samples,
        "forwarded_ms": round(stats.median(forwarded), 3),
        "local_ms": round(stats.median(local), 3),
        "delta_ms": round(stats.median(forwarded) - stats.median(local), 3),
    }
