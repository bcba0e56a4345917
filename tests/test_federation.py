"""Federation integration: walkthrough branches, routing, startup flows."""

import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import fedsec
import fedsec.sim.federation as federation_module
from fedsec.errors import TopologyInvalid
from fedsec.gatekeeper import TOKEN_HEADER
from fedsec.identity import UserIdentity
from fedsec.sharing import SAC_APP_HEADER, SAC_GRANTOR_HEADER
from fedsec.sim.federation import TRANSCRIPT_LIMIT, Federation, Transcript, build_federation
from fedsec.sim.presets import penalty_topology, two_site_topology
from fedsec.sim.scenario import (
    run_sac_walkthrough,
    run_scenario,
    walkthrough_steps,
    walkthrough_topology_doc,
)
from fedsec.sim.topology import Topology


@pytest.fixture()
def walkthrough_fed():
    federation = build_federation(walkthrough_topology_doc())
    yield federation
    federation.close()


def _entries(result, action):
    return [e for e in result["transcript"] if e["action"] == action]


def test_walkthrough_nominal(walkthrough_fed):
    result = run_sac_walkthrough(walkthrough_fed, "nominal")
    assert result["job"]["status"] == "FINISHED"
    resolved = {(e["target"], e["detail"]["credential_user"], e["detail"]["templated"])
                for e in _entries(result, "credential-resolved")}
    # Dynamic template resolution hands back the requester's credentials;
    # the statically defined store system always resolves to storeAdmin.
    assert ("execSys", "bob", True) in resolved
    assert ("storeSys", "storeAdmin", False) in resolved
    outcomes = {(e["target"], e["detail"]["outcome"]) for e in _entries(result, "sac-authorized")}
    assert ("execSys", "grantor-authorized") in outcomes
    assert ("storeSys", "grantor-authorized") in outcomes


def test_walkthrough_archive_system_uses_standard_path(walkthrough_fed):
    result = run_sac_walkthrough(walkthrough_fed, "nominal")
    # arcSys is absent from the application definition: never authorized
    # through the shared context, always through a permission check.
    assert any(e["target"] == "arcSys" for e in _entries(result, "sac-miss"))
    assert all(e["target"] != "arcSys" for e in _entries(result, "sac-authorized"))
    checks = _entries(result, "file-permission-check")
    arc_checks = [e for e in checks if e["target"].startswith("arcSys:")]
    assert arc_checks and arc_checks[0]["detail"]["permitted"] is True
    assert "/archives/bob" in arc_checks[0]["detail"]["permission"]


def test_walkthrough_missing_grantee_credentials(walkthrough_fed):
    result = run_sac_walkthrough(walkthrough_fed, "missing-grantee-credentials")
    assert result["job"]["status"] == "FAILED"
    assert "no credentials for bob" in result["job"]["reason"]


def test_walkthrough_grantor_revoked_fallback(walkthrough_fed):
    result = run_sac_walkthrough(walkthrough_fed, "grantor-revoked-fallback")
    assert result["job"]["status"] == "FINISHED"
    exec_outcomes = [e["detail"]["outcome"] for e in _entries(result, "sac-authorized")
                     if e["target"] == "execSys"]
    assert exec_outcomes and all(o == "grantee-authorized" for o in exec_outcomes)


def test_walkthrough_both_unauthorized_aborts(walkthrough_fed):
    result = run_sac_walkthrough(walkthrough_fed, "both-unauthorized")
    assert result["job"]["status"] == "FAILED"
    assert "authorization" in result["job"]["reason"]
    assert _entries(result, "sac-denied")


def test_a_system_read_names_a_share_privilege_or_answers_400(walkthrough_fed):
    """The privilege becomes part of the permission the kernel is asked about, so
    a value such as ``read:scratch`` would ask about another system."""
    run_sac_walkthrough(walkthrough_fed, "nominal")
    run_scenario(walkthrough_fed, [
        {"actor": "root1@tenant1", "action": "grant_user_permission",
         "params": {"username": "bob", "permission": "systems:tenant1:read:scratch"},
         "expect": {"status_code": 200}}])
    bob = walkthrough_fed.login("tenant1", "bob")

    def read_store(query=None):
        return walkthrough_fed.request("GET", "tenant1.sim", "/v3/systems/storeSys",
                                       token=bob, query=query)

    assert read_store().status_code == 403
    assert read_store({"privilege": "READ"}).status_code == 403
    for privilege in ("read:scratch", "READ:scratch", "read", "ADMIN"):
        response = read_store({"privilege": privilege})
        assert response.status_code == 400, (privilege, response.text)
        assert response.json()["result"]["code"] == "BAD_REQUEST"
        assert "'privilege'" in response.json()["message"]


def test_share_time_check_blocks_unauthorized_grantor(walkthrough_fed):
    steps = walkthrough_steps("nominal")
    # Drop alice's execSys grant: sharing must fail naming the system.
    steps = [s for s in steps
             if not (s["action"] == "grant_user_permission"
                     and s["params"]["permission"] == "systems:tenant1:execute:execSys")]
    share_index = next(i for i, s in enumerate(steps) if s["action"] == "share_app")
    steps[share_index]["expect"] = {"status_code": 403, "error_code": "SHARE_TIME_CHECK_FAILED"}
    result = run_scenario(walkthrough_fed, steps[: share_index + 1])
    assert result["outcomes"][-1]["result"]["failingSystem"] == "execSys"


def test_sac_grantor_comes_from_the_apps_service(walkthrough_fed):
    run_sac_walkthrough(walkthrough_fed, "both-unauthorized")
    runtime = walkthrough_fed.runtimes["prime"]

    def fetch_exec_system(grantor):
        return runtime.service_request(
            "jobs", "GET", "tenant1", "/v3/systems/execSys", obo=UserIdentity("bob", "tenant1"),
            query={"privilege": "EXECUTE"},
            headers={SAC_GRANTOR_HEADER: grantor, SAC_APP_HEADER: "aliceApp"})

    # sysop owns execSys but never shared aliceApp: naming it as the grantor
    # must not lend bob the owner's access.
    forged = fetch_exec_system("sysop")
    assert forged.status_code == 403
    assert forged.json()["result"]["code"] == "SAC_UNRESOLVED"
    real = fetch_exec_system("alice")
    assert real.status_code == 403
    assert real.json()["result"]["code"] == "SAC_DENIED"


def test_sac_grantee_fallback_through_a_system_share(walkthrough_fed):
    run_sac_walkthrough(walkthrough_fed, "both-unauthorized")
    runtime = walkthrough_fed.runtimes["prime"]
    sysop, bob = UserIdentity("sysop", "tenant1"), UserIdentity("bob", "tenant1")
    shared = runtime.service_request(
        "systems", "POST", "tenant1", "/v3/security/shares", obo=sysop,
        json_body={"grantee": "bob", "resourceType": "system", "resourceId": "execSys",
                   "privilege": "EXECUTE"})
    assert shared.status_code == 201
    # alice's access has lapsed and bob holds no permission: the owner's share
    # decides, through the systems service's one access check.
    fetched = runtime.service_request(
        "jobs", "GET", "tenant1", "/v3/systems/execSys", obo=bob, query={"privilege": "EXECUTE"},
        headers={SAC_GRANTOR_HEADER: "alice", SAC_APP_HEADER: "aliceApp"})
    assert fetched.status_code == 200
    assert fetched.json()["result"]["sac"] == "grantee-authorized"


def test_system_share_is_answered_by_the_tenants_kernel(walkthrough_fed):
    fed = walkthrough_fed
    alice, bob = fed.login("tenant1", "alice"), fed.login("tenant1", "bob")
    assert fed.request("POST", "tenant1.sim", "/v3/systems", token=alice,
                       json_body={"id": "labSys"}).status_code == 201
    share = {"grantee": "bob", "resourceType": "system", "resourceId": "labSys",
             "privilege": "READ"}
    assert fed.request("POST", "tenant1.sim", "/v3/security/shares", token=alice,
                       json_body=share).status_code == 201
    fed.transcript.clear()
    assert fed.request("GET", "tenant1.sim", "/v3/systems/labSys", token=bob).status_code == 200
    # Without a permission, the share decides, and the kernel owns shares.
    asked = [e["target"] for e in fed.transcript.find(action="service-call", actor="systems@prime")]
    assert asked == ["security-kernel@prime/v3/security/perms/isPermitted",
                     "security-kernel@prime/v3/security/shares/isSharedWith"]
    assert fed.request("POST", "tenant1.sim", "/v3/security/shares/revoke", token=alice,
                       json_body=share).status_code == 200
    denied = fed.request("GET", "tenant1.sim", "/v3/systems/labSys", token=bob)
    assert denied.status_code == 403
    assert denied.json()["result"]["code"] == "NOT_AUTHORIZED"


def test_grant_role_names_do_not_depend_on_the_hash_seed():
    from fedsec.sim.scenario import grant_role_name

    code = ("from fedsec.sim.scenario import grant_role_name; "
            "print(grant_role_name('tenant1', 'alice', 'systems:tenant1:execute:execSys'))")
    src = str(Path(fedsec.__file__).resolve().parents[1])
    names = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        names.append(run.stdout.strip())
    assert names[0] == names[1] == grant_role_name(
        "tenant1", "alice", "systems:tenant1:execute:execSys")


def test_transcript_determinism():
    transcripts = []
    for _ in range(2):
        federation = build_federation(walkthrough_topology_doc())
        try:
            result = run_sac_walkthrough(federation, "nominal")
        finally:
            federation.close()
        stripped = [(e["actor"], e["action"], e["target"], json.dumps(e["detail"], sort_keys=True))
                    for e in result["transcript"]]
        transcripts.append(stripped)
    assert transcripts[0] == transcripts[1]


def test_a_topology_with_a_schemas_key_is_refused():
    doc = two_site_topology()
    doc["schemas"] = [{"schema": "files", "path_part_index": 4}, {"schema": "widgets", "path_part_index": 4}]
    with pytest.raises(TopologyInvalid, match="'schemas'"):
        Topology.from_dict(doc)


def test_a_ladder_checks_every_rungs_profile_before_any_federation(monkeypatch):
    from fedsec.sim.loadgen import run_ladder
    from fedsec.sim.presets import load_topology

    calls = []
    monkeypatch.setattr(federation_module, "build_federation", lambda doc: calls.append(doc))
    with pytest.raises(TopologyInvalid):
        run_ladder(load_topology, [1000], 1, wait=(0.2, 0.1))
    assert calls == []


def test_tokens_startup_self_signing_flow():
    federation = build_federation(two_site_topology())
    try:
        started = federation.transcript.find(action="startup-self-signed-token")
        assert {e["actor"] for e in started} == {"tokens@prime", "tokens@assoc1"}
        loaded = federation.transcript.find(action="startup-key-loaded")
        assert {(e["actor"], e["detail"]["tenant"]) for e in loaded} == {
            ("tokens@prime", "tenant1"), ("tokens@assoc1", "tenant2")}
    finally:
        federation.close()


def test_forwarded_request_headers_and_payload_identical():
    federation = build_federation(two_site_topology())
    try:
        carol = federation.login("tenant2", "carol")
        headers = {"Host": "tenant2.sim", TOKEN_HEADER: carol}
        targets = ["/v3/apps/ghost", "/v3/apps/%41", "/v3/apps/%zz", "/v3/apps/a%7Eb"]
        for target in targets:
            # apps runs only at the primary: tenant2 requests are forwarded. The
            # pool sends each target as given, so the client re-encodes none.
            forwarded = federation._connections.send(federation.ports["assoc1"], "GET", target,
                                                     None, headers)
            # The same request sent straight to the primary's router answers
            # byte-identically.
            direct = federation._connections.send(federation.ports["prime"], "GET", target,
                                                  None, headers)
            assert forwarded.status_code == direct.status_code, target
            assert forwarded.json() == direct.json(), target
        hops = federation.transcript.find(action="forwarded-to-primary")
        assert [e["target"] for e in hops] == targets
    finally:
        federation.close()


def test_forwarded_requests_reuse_pooled_connections(monkeypatch):
    federation = build_federation(two_site_topology())
    try:
        carol = federation.login("tenant2", "carol")
        opened = []

        class CountingConnection(federation_module._Connection):
            def __init__(self, port):
                super().__init__(port)
                opened.append(port)

        monkeypatch.setattr(federation_module, "_Connection", CountingConnection)
        for _ in range(20):
            response = federation.request("GET", "tenant2.sim", "/v3/apps/ghost", token=carol)
            assert response.status_code == 404
        assert len(federation.transcript.find(action="forwarded-to-primary")) == 20
        assert len(opened) <= 2
    finally:
        federation.close()


def test_forwarded_service_request_preserves_obo_headers():
    from fedsec.gatekeeper import OBO_TENANT_HEADER, OBO_USER_HEADER

    federation = build_federation(two_site_topology())
    try:
        # A service token targeting the primary, sent through the associate's
        # router: acceptance at the far end requires every X-Tapis-* header
        # to survive the hop (a dropped OBO header fails rule 7a).
        token = federation.service_token("prime", "jobs", "prime")
        response = federation.request_at_site(
            "assoc1", "tenant2.sim", "GET", "/v3/apps/ghost", token=token,
            headers={OBO_USER_HEADER: "carol", OBO_TENANT_HEADER: "tenant2"})
        assert response.status_code == 404  # authorized; app simply missing
        assert response.json()["result"]["code"] == "NOT_FOUND"
    finally:
        federation.close()


def test_signing_key_replacement_reaches_registry():
    from fedsec.registry import load_config
    from fedsec.secrets import MemoryKvBackend, SecretsService
    from fedsec.skadmin import BootstrapConfig, run_bootstrap

    from .conftest import two_site_doc

    config = BootstrapConfig(
        site_id="prime", is_primary=True, admin_tenant="admin.prime",
        tenants=["admin.prime", "tenant1"],
        services=["security-kernel", "tokens", "authenticator", "tenants"])
    store = SecretsService(backend=MemoryKvBackend(), site_id="prime",
                           admin_tenant="admin.prime")
    first = run_bootstrap(config, store)
    replaced = run_bootstrap(config, store, replace="tenant1/signing-key/*")
    assert replaced.replaced == ["tenant1/signing-key/sk/keypair"]
    assert replaced.public_keys["tenant1"] != first.public_keys["tenant1"]
    # The restarted site loads a registry from the replaced keys.
    registry = load_config(two_site_doc({t: ("", pem) for t, pem in replaced.public_keys.items()}))
    assert registry.get_public_key("tenant1") == replaced.public_keys["tenant1"]


def test_matrix_harness_catches_a_mutated_rule_order():
    """Self-test: a deliberately wrong decision table produces pinpointed
    disagreement cells, so a silent all-pass cannot hide a broken oracle."""
    from fedsec.sim.matrix import MatrixRunner, enumerate_cells, expected_rule

    federation = build_federation(two_site_topology())
    try:
        runner = MatrixRunner(federation)
        cells = enumerate_cells(runner.table, ["tenant1", "tenant2"],
                                sorted(set(runner.table.admin_tenants.values())),
                                ["security-kernel", "systems"], ["tenant1"])

        def mutated_rule(cell, table):
            verdict = expected_rule(cell, table)
            if verdict == "3":
                return "4"
            return verdict

        disagreements = [cell.label() for cell in cells
                         if runner.probe(cell) != mutated_rule(cell, runner.table)]
        affected = [cell for cell in cells if expected_rule(cell, runner.table) == "3"]
        assert affected, "cross-product must include rule-3 cells"
        assert len(disagreements) == len(affected)
    finally:
        federation.close()


def test_wrong_site_request_rejected():
    federation = build_federation(two_site_topology())
    try:
        alice = federation.login("tenant1", "alice")
        response = federation.request_at_site("assoc1", "tenant1.sim", "GET",
                                              "/v3/systems/x", token=alice)
        assert response.status_code == 404
        assert response.json()["result"]["code"] == "ROUTE_REJECTED"
    finally:
        federation.close()


def test_primary_unreachable_surfaces_as_502():
    federation = build_federation(two_site_topology())
    try:
        carol = federation.login("tenant2", "carol")
        # jobs runs only at the primary: this request takes the forward hop.
        assert federation.request("POST", "tenant2.sim", "/v3/jobs", token=carol,
                                  json_body={"appId": "x"}).status_code == 200
        # The primary stops listening. A connection kept from the first hop
        # would still reach its live handler thread and answer 200.
        federation.handles["prime"].close()
        started = time.monotonic()
        response = federation.request("POST", "tenant2.sim", "/v3/jobs", token=carol,
                                      json_body={"appId": "x"})
        assert response.status_code == 502
        assert response.json()["result"]["code"] == "PRIMARY_UNREACHABLE"
        assert time.monotonic() - started < 5
    finally:
        federation.close()


def test_an_unsafe_target_on_a_forwarded_route_answers_400():
    federation = build_federation(two_site_topology())
    try:
        carol = federation.login("tenant2", "carol")
        headers = {"Host": "tenant2.sim", TOKEN_HEADER: carol}
        for target in ("/v3/apps/a b", "/v3/apps/a\rb", "/v3/apps/a\nb"):
            # In process, no listener stands between the caller and the forward hop.
            response = federation.runtimes["assoc1"].handle("GET", "tenant2.sim", target,
                                                            headers, b"")
            assert response.status == 400, target
            assert response.body["result"]["code"] == "BAD_REQUEST", target
        assert federation.transcript.find(action="forwarded-to-primary") == []
    finally:
        federation.close()


def test_service_token_cache_refreshes_near_expiry():
    # A 30s ttl sits inside the refresh margin, so every outbound call
    # rotates through the refresh endpoint; both calls must still succeed.
    federation = build_federation(two_site_topology(service_token_ttl=30))
    try:
        carol = federation.login("tenant2", "carol")
        first = federation.request("POST", "tenant2.sim", "/v3/jobs", token=carol,
                                   json_body={"appId": "ghost"})
        second = federation.request("POST", "tenant2.sim", "/v3/jobs", token=carol,
                                    json_body={"appId": "ghost"})
        assert first.status_code == second.status_code == 200
        assert first.json()["result"]["status"] == "FAILED"  # no such app, but authorized
    finally:
        federation.close()


def test_racing_first_calls_share_one_service_token_cache(monkeypatch):
    from fedsec.sim import federation as federation_module

    federation = build_federation(two_site_topology())
    try:
        acquires = []
        acquire = federation._acquire_service_tokens

        def counting_acquire(*args):
            acquires.append(args)
            return acquire(*args)

        monkeypatch.setattr(federation, "_acquire_service_tokens", counting_acquire)
        # Widen the window between finding no cache and storing one.
        real_init = federation_module._TokenCache.__init__

        def slow_init(self, *args):
            time.sleep(0.05)
            real_init(self, *args)

        monkeypatch.setattr(federation_module._TokenCache, "__init__", slow_init)
        start = threading.Barrier(4)
        tokens = []

        def first_call():
            start.wait(timeout=10)
            tokens.append(federation.service_token("prime", "jobs", "prime"))

        threads = [threading.Thread(target=first_call) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert len(tokens) == 4 and len(set(tokens)) == 1
        assert len(acquires) == 1
    finally:
        federation.close()


def test_a_cached_service_token_is_reused_without_decoding_it(monkeypatch):
    from fedsec.sim import federation as federation_module

    federation = build_federation(two_site_topology())
    try:
        token = federation.service_token("prime", "jobs", "prime")
        decoded = []
        peek = federation_module.peek_claims
        monkeypatch.setattr(federation_module, "peek_claims", lambda t: decoded.append(t) or peek(t))
        assert federation.service_token("prime", "jobs", "prime") == token
        assert decoded == []
    finally:
        federation.close()


def test_no_authn_route_serves_url_shares():
    federation = build_federation(walkthrough_topology_doc())
    try:
        bob = federation.login("tenant1", "bob")
        response = federation.request("POST", "tenant1.sim", "/v3/security/shares", token=bob,
                                      json_body={"grantee": "~public-no-authn",
                                                 "resourceType": "path",
                                                 "resourceId": "arcSys:/pub/data.csv",
                                                 "privilege": "READ"})
        assert response.status_code == 201
        opened = federation.request("GET", "tenant1.sim", "/v3/files/content/arcSys/pub/data.csv")
        assert opened.status_code == 200
        assert opened.json()["result"]["content"] == "simulated-bytes"
        closed = federation.request("GET", "tenant1.sim", "/v3/files/content/arcSys/private.csv")
        assert closed.status_code == 401
    finally:
        federation.close()


def test_an_encoded_slash_in_a_file_path_is_a_separator():
    federation = build_federation(walkthrough_topology_doc())
    try:
        bob = federation.login("tenant1", "bob")
        response = federation.request("POST", "tenant1.sim", "/v3/security/shares", token=bob,
                                      json_body={"grantee": "~public-no-authn",
                                                 "resourceType": "path",
                                                 "resourceId": "arcSys:/pub/data.csv",
                                                 "privilege": "READ"})
        assert response.status_code == 201
        opened = federation.request("GET", "tenant1.sim", "/v3/files/content/arcSys/pub%2Fdata.csv")
        assert opened.status_code == 200, opened.text
        assert opened.json()["result"]["path"] == "/pub/data.csv"
    finally:
        federation.close()


def test_no_authn_route_disabled_without_flag():
    federation = build_federation(two_site_topology())  # no flagged routes
    try:
        response = federation.request("GET", "tenant1.sim", "/v3/files/content/arcSys/pub/x")
        assert response.status_code == 401
    finally:
        federation.close()


def test_stale_registry_degrades_healthcheck():
    federation = build_federation(two_site_topology())
    try:
        federation.login("tenant2", "carol")  # populates the associate's cache
        view = federation.runtimes["assoc1"].registry
        # Refreshes fail from here on; the view keeps serving its last
        # snapshot, whose age keeps growing past 2x the refresh interval.
        def refusing_fetch():
            raise ConnectionError("primary down")

        view._fetch = refusing_fetch
        view._fetched_at -= 700
        response = federation.request("GET", "tenant2.sim", "/v3/security/healthcheck")
        body = response.json()["result"]
        assert body["status"] == "degraded"
        assert body["components"]["registrySnapshotAgeSeconds"] > 600
    finally:
        federation.close()


def test_penalty_scales_with_link_latency():
    from fedsec.sim.loadgen import measure_cross_site_penalty

    federation = build_federation(penalty_topology(link_ms=40))
    try:
        result = measure_cross_site_penalty(federation, samples=5)
        assert 64 <= result["delta_ms"] <= 104  # 2 x 40ms +/- overhead
    finally:
        federation.close()


def test_service_deployed_at_associate_routes_local():
    federation = build_federation(two_site_topology(assoc_services=("systems",)))
    try:
        carol = federation.login("tenant2", "carol")
        response = federation.request("POST", "tenant2.sim", "/v3/systems", token=carol,
                                      json_body={"id": "localSys", "kind": "storage"})
        assert response.status_code == 201
        assert not federation.transcript.find(action="forwarded-to-primary")
    finally:
        federation.close()


def test_transcript_keeps_only_the_most_recent_entries():
    transcript = Transcript()
    for i in range(TRANSCRIPT_LIMIT + 5):
        transcript.record("jobs@prime", "step", target=i)
    entries = transcript.snapshot()
    assert len(entries) == TRANSCRIPT_LIMIT
    assert (entries[0]["seq"], entries[0]["target"]) == (5, 5)
    assert entries[-1]["seq"] == TRANSCRIPT_LIMIT + 4
    transcript.clear()
    transcript.record("jobs@prime", "step")
    assert [e["seq"] for e in transcript.snapshot()] == [0]


def test_transcript_entries_stay_compact():
    transcript = Transcript()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(10_000):
            transcript.record("jobs@prime", "service-call", target="systems@prime/v3/systems/s",
                              sac=True, obo="bob@tenant1")
        retained = (tracemalloc.get_traced_memory()[0] - before) / 10_000
    finally:
        tracemalloc.stop()
    assert retained < 400  # bytes per retained entry
    assert transcript.snapshot()[-1] == {
        "seq": 9_999, "actor": "jobs@prime", "action": "service-call",
        "target": "systems@prime/v3/systems/s", "sac": True, "detail": {"obo": "bob@tenant1"}}


# ----------------------------------------------------------------------
# the simulated clients' HTTP transports


class _OneRequestHandler(BaseHTTPRequestHandler):
    """Records each request line and answers it, if the server says so,
    then closes the connection without announcing it, as a listener that
    times out idle connections does. When the server says ``announcing``,
    each answer carries ``Connection: close`` instead, yet the listener
    would serve one more request on the connection."""

    protocol_version = "HTTP/1.1"

    def log_message(self, fmt, *args):
        pass

    def handle(self):
        self.server.connections += 1
        if self.server.answering:
            self.handle_one_request()
            if self.server.announcing:
                self.handle_one_request()

    def do_GET(self):
        self.server.seen.append((self.path, self.headers.get("Content-Type")))
        self.send_response(200)
        self.send_header("Content-Length", "2")
        if self.server.announcing:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(b"{}")

    do_POST = do_GET


@pytest.fixture()
def closing_site():
    """A federation whose one site, "x", is a ``_OneRequestHandler`` listener."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _OneRequestHandler)
    server.daemon_threads = True
    server.connections, server.answering, server.announcing, server.seen = 0, True, False, []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    federation = Federation(Topology.from_dict(two_site_topology()))
    federation.ports["x"] = server.server_address[1]
    try:
        yield federation, server
    finally:
        federation.close()
        server.shutdown()
        server.server_close()
        thread.join(5)


def test_pooled_connection_closed_by_the_server_is_reopened_once(closing_site):
    federation, server = closing_site
    for _ in range(2):
        assert federation.request_at_site("x", "h", "GET", "/a").status_code == 200
    assert server.connections == 2  # the second request reopened the closed one
    server.answering = False
    with pytest.raises(ConnectionError):
        federation.request_at_site("x", "h", "GET", "/a")
    assert server.connections == 3  # one reopen, and the fresh connection is not retried


def test_a_response_announcing_close_is_not_pooled(closing_site):
    federation, server = closing_site
    server.announcing = True
    for _ in range(2):
        assert federation.request_at_site("x", "h", "GET", "/a").status_code == 200
    assert server.connections == 2  # the listener would have served both on one


def test_paths_and_queries_reach_the_site_encoded_as_requests_sent_them(closing_site):
    federation, server = closing_site
    federation.request_at_site("x", "h", "GET", "/v3/apps/\u00e9t\u00e9")
    federation.request_at_site("x", "h", "GET", "/v3/apps/\ud800")
    federation.request_at_site("x", "h", "GET", "/v3/s/a b%zz;@",
                               query={"q": "\u00e9 &", "none": None})
    federation.request_at_site("x", "h", "POST", "/v3/jobs", json_body={"appId": "a"})
    assert server.seen == [
        ("/v3/apps/%C3%A9t%C3%A9", None),
        ("/v3/apps/%ED%A0%80", None),
        ("/v3/s/a%20b%25zz;@?q=%C3%A9+%26", None),
        ("/v3/jobs", "application/json"),
    ]


def test_an_app_id_with_dot_segments_does_not_retarget_the_jobs_hop(walkthrough_fed):
    # jobs fetches /v3/apps/{appId}. Removing the dot segments would send
    # this hop to the kernel's healthcheck, whose answer is no application.
    bob = walkthrough_fed.login("tenant1", "bob")
    response = walkthrough_fed.request("POST", "tenant1.sim", "/v3/jobs", token=bob,
                                       json_body={"appId": "../security/healthcheck"})
    assert response.status_code == 200, response.text
    assert response.json()["result"]["reason"] == "application not accessible"


def test_no_handler_thread_of_a_closed_federation_survives():
    from fedsec.sim.loadgen import measure_cross_site_penalty

    before = set(threading.enumerate())
    federation = build_federation(penalty_topology(link_ms=0))
    try:
        measure_cross_site_penalty(federation, samples=2)
    finally:
        federation.close()
    deadline = time.monotonic() + 5
    while True:
        survivors = [t.name for t in threading.enumerate() if t not in before and t.is_alive()]
        if not survivors or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    assert survivors == []


def test_the_federation_client_loads_neither_requests_nor_urllib3():
    code = ("import sys, fedsec.sim.federation; "
            "print(sorted(m for m in ('requests', 'urllib3') if m in sys.modules))")
    src = str(Path(fedsec.__file__).resolve().parents[1])
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_the_benchmarks_traced_pass_installs_over_the_product():
    # perfbench/tracing.py patches product names; a deletion of one that it
    # patches would break every traced benchmark run.
    src = Path(fedsec.__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import fedsec; "
            "from tracing import Tracer, install; install(Tracer()); print(fedsec.__file__)")
    run = subprocess.run([sys.executable, "-c", code, str(src.parent / "perfbench")],
                         env=dict(os.environ, PYTHONPATH=str(src)),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert Path(run.stdout.strip()).resolve().parent == src / "fedsec"
