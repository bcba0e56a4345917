"""The three benchmark workloads, seen from the load generator.

Each workload turns the workload seed into a deterministic stream of
operations per client thread. Every operation carries the answer the
program must give (``Op.expect``); ``execute`` returns what the program
answered, and the runner compares the two. The expected answers come
from how the inputs were generated, never from the program.

This module imports nothing from ``fedsec``: the generator process stays
light, and ``server.py`` shares only the constants below with it.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from http.client import HTTPConnection, HTTPException

# The archetype roles and grant layout of ``fedsec.sim.loadgen.seed_permissions``:
# every simulated system carries 1000 path grants, 200 per archetype, on
# /proj/<archetype>/d<j> for j < 200.
ARCHETYPES = ("scientists", "developers", "project_managers", "collaborators", "public")
GRANTS_PER_SYSTEM = 1000
DIRS_PER_ARCHETYPE = GRANTS_PER_SYSTEM // len(ARCHETYPES)

CHECK_PATH = "/v3/security/perms/isPermitted"
HASH_SEED = "0"
# Closed-loop client threads of the load generator (``nproc`` of the
# 2-vCPU tuning machine).
CLIENT_THREADS = 2

# The step names a nominal shared-application-context job reports.
NOMINAL_JOB_STEPS = ("application-retrieved", "sac-established", "execution-system-resolved",
                     "input-staged", "executed", "archived", "job-finished")

# Systems the associate workload reads through the forward hop.
FORWARD_SYSTEMS = tuple(f"fsys{i}" for i in range(8))
FORWARD_OWNER = "carol"


def forward_system_definition(system_id: str) -> dict:
    """The body that defines a forwarded-read system, and what a read returns."""
    return {"id": system_id, "kind": "storage", "credentialUser": "${requester}"}


@dataclass
class Op:
    kind: str
    expect: object
    params: dict = field(default_factory=dict)


@dataclass
class Outcome:
    observed: object
    extra: dict = field(default_factory=dict)


class Client:
    """One keep-alive HTTP connection per site port, owned by one thread."""

    def __init__(self):
        self._conns = {}
        self.request_seconds = 0.0
        self.requests = 0

    def call(self, port, host, method, path, token, body=None, op_id=""):
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Host": host, "X-Tapis-Token": token, "X-Sim-Op": op_id}
        if payload is not None:
            headers["Content-Type"] = "application/json"
        conn = self._conns.get(port)
        if conn is None:
            conn = self._conns[port] = HTTPConnection("127.0.0.1", port, timeout=60)
        t0 = time.perf_counter()
        try:
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except (HTTPException, OSError):
            # The op fails; the next one starts on a fresh connection.
            conn.close()
            del self._conns[port]
            raise
        self.request_seconds += time.perf_counter() - t0
        self.requests += 1
        return response.status, json.loads(raw)

    def close(self):
        for conn in self._conns.values():
            conn.close()
        self._conns.clear()


def _check_query(rng, tenant, archetype, systems, hit):
    """The permission a check asks for; ``hit`` is the answer it must get.

    Hits sit under a granted directory. Misses are boundary near-misses: a
    sibling directory sharing the grant's name as a prefix, the grant's
    parent directory, or the same path under another archetype.
    """
    system = f"lsys{rng.randrange(systems):04d}"
    block = rng.randrange(DIRS_PER_ARCHETYPE)
    tail = f"run{rng.randrange(40)}/out{rng.randrange(8)}.csv"
    if hit:
        path = f"/proj/{archetype}/d{block}/{tail}"
    else:
        kind = rng.randrange(3)
        if kind == 0:
            path = f"/proj/{archetype}/d{block}x/{tail}"
        elif kind == 1:
            path = f"/proj/{archetype}"
        else:
            other = rng.choice([a for a in ARCHETYPES if a != archetype])
            path = f"/proj/{other}/d{block}/{tail}"
    return f"files:{tenant}:read:{system}:{path}"


def _blocks(rng, composition):
    """Endless ops in shuffled blocks with an exact mix per block."""
    while True:
        block = [kind for kind, count in composition for _ in range(count)]
        rng.shuffle(block)
        yield from block


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, ready: dict):
        self.seed = seed
        self.ready = ready

    def ops(self, stream: str, index: int):
        """The op stream of client thread ``index`` in phase ``stream``."""
        raise NotImplementedError

    def execute(self, client: Client, op: Op, op_id: str) -> Outcome:
        raise NotImplementedError

    def _rng(self, stream, index, part=""):
        return random.Random(f"{self.name}/{self.seed}/{stream}{index}{part}")

    def _check(self, client, port, host, tenant, user, permission, op_id):
        status, body = client.call(port, host, "POST", CHECK_PATH, self.ready["tokens"][user],
                                   {"tenant": tenant, "username": user, "permission": permission},
                                   op_id)
        result = body.get("result") or {}
        return status, result.get("isPermitted") if status == 200 else result.get("code")


class Authz50k(Workload):
    name = "authz-50k"
    why = "permission checks at 50K grants, where the fedsec.rbac grant scan dominates"
    TENANT = "tenant1"
    PERMISSIONS = 50_000

    def ops(self, stream, index):
        rng = self._rng(stream, index)
        systems = self.PERMISSIONS // GRANTS_PER_SYSTEM
        for kind in _blocks(rng, (("hit", 3), ("miss", 7))):
            archetype = rng.choice(ARCHETYPES)
            hit = kind == "hit"
            yield Op("check", (200, hit), {
                "user": f"lt_{archetype}",
                "permission": _check_query(rng, self.TENANT, archetype, systems, hit)})

    def execute(self, client, op, op_id):
        r = self.ready
        return Outcome(self._check(client, r["port"], r["host"], self.TENANT,
                                   op.params["user"], op.params["permission"], op_id))


class SacJobs(Workload):
    name = "sac-jobs"
    why = "shared-context jobs of 25 service hops each; RBAC holds ~10 grants, so it shows no RBAC change"

    def ops(self, stream, index):
        rng = self._rng(stream, index)
        expect = (201, "FINISHED", NOMINAL_JOB_STEPS)
        while True:
            body = dict(self.ready["job"])
            body["archiveDir"] = f"{body['archiveDir']}/run{rng.randrange(10_000)}"
            yield Op("job", expect, {"body": body})

    def execute(self, client, op, op_id):
        r = self.ready
        status, body = client.call(r["port"], r["host"], "POST", "/v3/jobs", r["tokens"]["bob"],
                                   op.params["body"], op_id)
        result = body.get("result") or {}
        steps = tuple(s.get("step") for s in result.get("steps", ()))
        return Outcome((status, result.get("status"), steps))


class AssocMixed(Workload):
    """Checks, forwarded reads and policy writes for the associate's tenant.

    Each client thread writes to an editor role of its own, which holds as
    many grants as an archetype role and which no other operation checks.
    With writes to the archetype roles that the other thread checks at the
    same time, a few writes per run fail the oracle: ``RbacService``
    publishes its compiled-grant cache outside the tenant lock, so a
    concurrent check can put back the view from before the write. The
    benchmark needs workloads on which no operation fails, so it keeps
    that race out of its measured mix; ``selftest.py`` still runs the
    shared-role mix (``shared_write_roles``) and reports what it sees.
    """

    name = "assoc-mixed"
    why = "associate-owned tenant: checks at assoc1, reads forwarded to the primary, grant/revoke writes"
    TENANT = "tenant2"
    PERMISSIONS = 10_000
    MIX = (("read", 83), ("forward", 15), ("write", 2))
    shared_write_roles = False

    @staticmethod
    def editor(index: int) -> str:
        """Role and user name of client thread ``index``'s editor."""
        return f"bench_editor{index}"

    @classmethod
    def editor_grants(cls, index: int):
        """The grants seeded into an editor role: as many as an archetype role holds."""
        for i in range(cls.PERMISSIONS // GRANTS_PER_SYSTEM):
            for j in range(DIRS_PER_ARCHETYPE):
                yield f"files:{cls.TENANT}:read:lsys{i:04d}:/proj/{cls.editor(index)}/d{j}"

    def ops(self, stream, index):
        rng = self._rng(stream, index)
        systems = self.PERMISSIONS // GRANTS_PER_SYSTEM
        hits = _blocks(self._rng(stream, index, "/hits"), (("hit", 3), ("miss", 7)))
        writes = 0
        for kind in _blocks(rng, self.MIX):
            archetype = rng.choice(ARCHETYPES)
            if kind == "read":
                hit = next(hits) == "hit"
                yield Op("read", (200, hit), {
                    "user": f"lt_{archetype}",
                    "permission": _check_query(rng, self.TENANT, archetype, systems, hit)})
            elif kind == "forward":
                system = rng.choice(FORWARD_SYSTEMS)
                definition = dict(forward_system_definition(system), tenant=self.TENANT,
                                  owner=FORWARD_OWNER)
                yield Op("forward", (200, definition), {"system": system})
            else:
                writes += 1
                system = f"lsys{rng.randrange(systems):04d}"
                role = f"lt_{archetype}" if self.shared_write_roles else self.editor(index)
                granted = f"files:{self.TENANT}:read:{system}:/proj/{role}/w{stream}{index}_{writes}"
                yield Op("write", (200, True, 200, False), {
                    "role": role, "user": role, "permission": granted,
                    "probe": granted + "/out.csv"})

    def execute(self, client, op, op_id):
        r = self.ready
        port, host = r["port"], r["host"]
        p = op.params
        if op.kind == "read":
            return Outcome(self._check(client, port, host, self.TENANT, p["user"],
                                       p["permission"], op_id))
        if op.kind == "forward":
            status, body = client.call(port, host, "GET", f"/v3/systems/{p['system']}",
                                       r["tokens"][FORWARD_OWNER], None, op_id)
            result = body.get("result") or {}
            return Outcome((status, result.get("definition")))
        admin = r["tokens"][r["admin"]]
        base = f"/v3/security/roles/{p['role']}/permissions"
        t0 = time.perf_counter()
        granted, _ = client.call(port, host, "POST", base, admin,
                                 {"permission": p["permission"]}, op_id)
        _, visible = self._check(client, port, host, self.TENANT, p["user"], p["probe"], op_id)
        visible_s = time.perf_counter() - t0
        revoked, _ = client.call(port, host, "POST", base + "/remove", admin,
                                 {"permission": p["permission"]}, op_id)
        _, still = self._check(client, port, host, self.TENANT, p["user"], p["probe"], op_id)
        return Outcome((granted, visible, revoked, still), {"grant_visible_s": visible_s})


WORKLOADS = {cls.name: cls for cls in (Authz50k, SacJobs, AssocMixed)}
