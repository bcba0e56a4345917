"""Server process of the benchmark: one federation, set up for one workload.

Run by ``run.py``, never by hand. It builds the federation from the
checkout's ``src/``, seeds it for the workload, and prints one JSON
"ready" line with what the load generator needs (port, host, tokens,
set-up timings). It then answers JSON commands on stdin, one per line:
``start`` and ``stop`` bracket the measured window (spans are recorded
only inside it, and written to ``--spans`` at ``stop``), ``exit`` or end
of input shuts the federation down.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _setup_authz(seed):
    from fedsec.sim.federation import build_federation
    from fedsec.sim.loadgen import seed_permissions
    from fedsec.sim.presets import load_topology
    from workloads import Authz50k

    fed = build_federation(load_topology())
    t0 = time.perf_counter()
    seeded = seed_permissions(fed, Authz50k.PERMISSIONS, Authz50k.TENANT, seed=seed)
    seed_s = time.perf_counter() - t0
    return fed, Authz50k.TENANT, dict(seeded.tokens), seed_s, {}


def _setup_sac(seed):
    from fedsec.sim.federation import build_federation
    from fedsec.sim.scenario import ScenarioRunner, walkthrough_steps, walkthrough_topology_doc

    fed = build_federation(walkthrough_topology_doc())
    steps = walkthrough_steps("nominal")
    submit = steps[-1]
    if submit["action"] != "submit_job" or submit["actor"] != "bob@tenant1":
        raise SystemExit("walkthrough no longer ends with Bob's job submission")
    ScenarioRunner(fed).run(steps[:-1])
    return fed, "tenant1", {"bob": fed.login("tenant1", "bob")}, 0.0, {"job": submit["params"]}


def _seed_editors(fed, tenant, tokens):
    """The editor roles that assoc-mixed's policy writes go to, one per client thread."""
    from fedsec.identity import Caller, UserIdentity
    from workloads import CLIENT_THREADS, AssocMixed

    runtime = fed.runtimes[fed.registry.resolve_site_for_tenant(tenant).site_id]
    rbac = runtime.rbac
    requester = Caller(name="authenticator", tenant=runtime.config.admin_tenant, kind="service")
    for index in range(CLIENT_THREADS):
        name = AssocMixed.editor(index)
        user = UserIdentity(name, tenant)
        rbac.create_role(tenant, name, "perfbench", "benchmark policy-write target")
        rbac.ensure_default_role(user)
        rbac.grant_role(user, name, "perfbench")
        for permission in AssocMixed.editor_grants(index):
            rbac.grant_permission(name, tenant, permission)
        # Compile the role's grants now, as seed_permissions does for its roles.
        rbac.subject_is_permitted(tenant, name, f"files:{tenant}:read:lsys0000:/warmup")
        tokens[name] = runtime.forge.issue_user_token(requester, tenant, name)


def _setup_assoc(seed):
    from fedsec.sim.federation import build_federation
    from fedsec.sim.loadgen import seed_permissions
    from fedsec.sim.presets import penalty_topology
    from workloads import FORWARD_OWNER, FORWARD_SYSTEMS, AssocMixed, forward_system_definition

    tenant = AssocMixed.TENANT
    fed = build_federation(penalty_topology(link_ms=0))
    t0 = time.perf_counter()
    seeded = seed_permissions(fed, AssocMixed.PERMISSIONS, tenant, seed=seed)
    tokens = dict(seeded.tokens)
    _seed_editors(fed, tenant, tokens)
    seed_s = time.perf_counter() - t0
    admin = fed.topo.tenant_admins[tenant]
    for user in (admin, FORWARD_OWNER):
        tokens[user] = fed.login(tenant, user)
    host = fed.registry.get_tenant(tenant).host
    for system in FORWARD_SYSTEMS:
        response = fed.request("POST", host, "/v3/systems", token=tokens[FORWARD_OWNER],
                               json_body=forward_system_definition(system))
        if response.status_code != 201:
            raise SystemExit(f"defining {system} failed: {response.text}")
    return fed, tenant, tokens, seed_s, {"admin": admin}


SETUPS = {"authz-50k": _setup_authz, "sac-jobs": _setup_sac, "assoc-mixed": _setup_assoc}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpus", default="", help="comma-separated CPUs to pin to")
    parser.add_argument("--spans", default="", help="where the traced run writes its spans")
    args = parser.parse_args(argv)
    if args.cpus:
        os.sched_setaffinity(0, {int(c) for c in args.cpus.split(",")})

    # Protocol lines go to the original stdout; anything else printed lands on stderr.
    protocol = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr

    def emit(message):
        protocol.write(json.dumps(message) + "\n")
        protocol.flush()

    sys.path.insert(0, str(SRC))
    import fedsec

    if Path(fedsec.__file__).resolve().parent != SRC / "fedsec":
        raise SystemExit(f"imported fedsec from {fedsec.__file__}, not from {SRC}")
    import fedsec.sim.federation as federation_module

    from tracing import Tracer, install

    tracer = Tracer()
    if args.trace:
        install(tracer)
    bootstrap_s = [0.0]
    run_bootstrap = federation_module.run_bootstrap

    def timed_bootstrap(*a, **kw):
        t0 = time.perf_counter()
        try:
            return run_bootstrap(*a, **kw)
        finally:
            bootstrap_s[0] += time.perf_counter() - t0

    federation_module.run_bootstrap = timed_bootstrap

    fed, tenant, tokens, seed_s, extra = SETUPS[args.workload](args.seed)
    site = fed.registry.resolve_site_for_tenant(tenant).site_id
    try:
        emit(dict(extra, ready=True, pid=os.getpid(), port=fed.ports[site],
                  host=fed.registry.get_tenant(tenant).host, tokens=tokens,
                  seed_s=seed_s, bootstrap_s=bootstrap_s[0],
                  hash_seed=os.environ.get("PYTHONHASHSEED")))
        for line in sys.stdin:
            command = json.loads(line)["cmd"]
            if command == "start":
                tracer.recording = bool(args.trace)
                emit({"ok": "start"})
            elif command == "stop":
                tracer.recording = False
                spans = tracer.dump(args.spans) if args.trace else 0
                emit({"ok": "stop", "spans": spans})
            elif command == "exit":
                break
    finally:
        fed.close()


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    main()
