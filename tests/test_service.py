"""HTTP surface: endpoint behavior, envelope stability, auth fuzzing.

One federation serves the whole module; tests create disjoint resources.
"""

import base64
import hmac
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsec.gatekeeper import OBO_TENANT_HEADER, OBO_USER_HEADER, TOKEN_HEADER
from fedsec.service import SiteRuntime
from fedsec.sim.federation import build_federation
from fedsec.sim.presets import two_site_topology
from fedsec.sim.scenario import walkthrough_topology_doc

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture(scope="module")
def fed():
    federation = build_federation(walkthrough_topology_doc())
    yield federation
    federation.close()


@pytest.fixture(scope="module")
def tokens(fed):
    return {
        "root": fed.login("tenant1", "root1"),
        "alice": fed.login("tenant1", "alice"),
        "bob": fed.login("tenant1", "bob"),
    }


def normalize(doc):
    """Replace volatile values so envelopes compare against goldens."""
    if isinstance(doc, dict):
        return {k: normalize(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [normalize(v) for v in doc]
    if isinstance(doc, str):
        if doc.startswith("-----BEGIN PUBLIC KEY-----"):
            return "<PUBLIC_KEY>"
        if doc.startswith("eyJ") and doc.count(".") == 2:
            return "<TOKEN>"
    return doc


def assert_golden(name, payload):
    expected = json.loads((GOLDEN_DIR / name).read_text())
    assert normalize(payload) == expected, f"envelope drifted from golden {name}"


def test_role_create_envelope(fed, tokens):
    r = fed.request("POST", "tenant1.sim", "/v3/security/roles", token=tokens["root"],
                    json_body={"roleName": "readers", "description": "d"})
    assert r.status_code == 201
    assert_golden("role_create.json", r.json())


def test_has_role_envelope(fed, tokens):
    fed.request("POST", "tenant1.sim", "/v3/security/roles", token=tokens["root"],
                json_body={"roleName": "readers", "description": "d"})
    r = fed.request("GET", "tenant1.sim", "/v3/security/roles/hasRole", token=tokens["bob"],
                    query={"roleName": "readers"})
    assert r.status_code == 200
    assert_golden("has_role.json", r.json())


def test_is_permitted_envelope(fed, tokens):
    r = fed.request("POST", "tenant1.sim", "/v3/security/perms/isPermitted", token=tokens["bob"],
                    json_body={"tenant": "tenant1", "username": "bob",
                               "permission": "systems:tenant1:read:x"})
    assert r.status_code == 200
    assert_golden("is_permitted.json", r.json())


def test_error_envelopes(fed, tokens):
    r = fed.request("GET", "tenant1.sim", "/v3/security/roles/ghost", token=tokens["bob"])
    assert r.status_code == 404
    assert_golden("error_unknown_role.json", r.json())
    r = fed.request("GET", "tenant1.sim", "/v3/security/roles/hasRole", query={"roleName": "x"})
    assert r.status_code == 401
    assert_golden("error_no_token.json", r.json())


def test_healthcheck_and_tenants_envelopes(fed):
    r = fed.request("GET", "tenant1.sim", "/v3/security/healthcheck")
    assert r.status_code == 200
    assert_golden("healthcheck.json", r.json())
    r = fed.request("GET", "admin.prime.sim", "/v3/tenants/tenant1")
    assert r.status_code == 200
    assert_golden("tenant_record.json", r.json())
    r = fed.request("GET", "admin.prime.sim", "/v3/tenants")
    assert r.status_code == 200
    assert len(r.json()["result"]) == 4
    r = fed.request("GET", "admin.prime.sim", "/v3/tenants/nope")
    assert r.status_code == 404


def test_login_envelope_and_bad_password(fed):
    r = fed.request("POST", "tenant1.sim", "/v3/authenticator/tokens",
                    json_body={"tenant": "tenant1", "username": "bob", "password": "pw-bob"})
    assert r.status_code == 201
    assert_golden("login.json", r.json())
    r = fed.request("POST", "tenant1.sim", "/v3/authenticator/tokens",
                    json_body={"tenant": "tenant1", "username": "bob", "password": "wrong"})
    assert r.status_code == 401
    assert r.json()["result"]["code"] == "BAD_CREDENTIALS"


def test_role_permission_grant_flow_over_http(fed, tokens):
    for call in (
        ("POST", "/v3/security/roles", {"roleName": "pi_all", "description": ""}),
        ("POST", "/v3/security/roles", {"roleName": "read_data", "description": ""}),
        ("POST", "/v3/security/roles/pi_all/children", {"childRoleName": "read_data"}),
        ("POST", "/v3/security/roles/read_data/permissions",
         {"permission": "systems:tenant1:read:corral"}),
        ("POST", "/v3/security/roles/pi_all/grants", {"username": "bob"}),
    ):
        r = fed.request(call[0], "tenant1.sim", call[1], token=tokens["root"], json_body=call[2])
        assert r.status_code in (200, 201), r.text
    r = fed.request("GET", "tenant1.sim", "/v3/security/roles/hasRole", token=tokens["bob"],
                    query={"roleName": "read_data"})
    assert r.json()["result"]["hasRole"] is True
    r = fed.request("POST", "tenant1.sim", "/v3/security/perms/isPermitted", token=tokens["bob"],
                    json_body={"tenant": "tenant1", "username": "bob",
                               "permission": "systems:tenant1:read:corral"})
    assert r.json()["result"]["isPermitted"] is True


def test_non_admin_cannot_create_roles_over_http(fed, tokens):
    r = fed.request("POST", "tenant1.sim", "/v3/security/roles", token=tokens["bob"],
                    json_body={"roleName": "sneaky"})
    assert r.status_code == 403
    assert r.json()["result"]["code"] == "NOT_AUTHORIZED"


def test_platform_roles_cannot_be_deleted_over_http():
    federation = build_federation(two_site_topology())
    try:
        root = federation.login("tenant1", "root1")
        for role in ("$!token_generator", "$!tenant_admin"):
            r = federation.request("DELETE", "tenant1.sim", f"/v3/security/roles/{role}", token=root)
            assert r.status_code == 403, r.text
            assert r.json()["result"]["code"] == "NOT_AUTHORIZED"
        r = federation.request("POST", "tenant1.sim", "/v3/authenticator/tokens",
                               json_body={"tenant": "tenant1", "username": "alice",
                                          "password": "pw-alice"})
        assert r.status_code == 201, r.text
        r = federation.request("POST", "tenant1.sim", "/v3/security/roles", token=root,
                               json_body={"roleName": "after_deletes"})
        assert r.status_code == 201, r.text
    finally:
        federation.close()


def test_path_parameters_are_percent_decoded(fed, tokens):
    r = fed.request("POST", "tenant1.sim", "/v3/security/roles", token=tokens["root"],
                    json_body={"roleName": "my role"})
    assert r.status_code == 201, r.text
    r = fed.request("GET", "tenant1.sim", "/v3/security/roles/my role", token=tokens["root"])
    assert r.status_code == 200, r.text
    assert r.json()["result"]["roleName"] == "my role"
    r = fed.request("POST", "tenant1.sim", "/v3/systems", token=tokens["root"],
                    json_body={"id": "\u00e9t\u00e9"})
    assert r.status_code == 201, r.text
    r = fed.request("GET", "tenant1.sim", "/v3/systems/\u00e9t\u00e9", token=tokens["root"])
    assert r.status_code == 200, r.text
    assert r.json()["result"]["definition"]["id"] == "\u00e9t\u00e9"


@pytest.mark.parametrize("path", [
    "/v3/security/roles/a%2Fb",
    "/v3/systems/a%2fb",
    "/v3/security/vault/secret/user-secret/tenant1/root1/a%2Fb",
])
def test_an_encoded_slash_in_a_path_parameter_answers_400(fed, tokens, path):
    r = fed.request("GET", "tenant1.sim", path, token=tokens["root"])
    assert r.status_code == 400, r.text
    assert r.json()["result"]["code"] == "BAD_REQUEST"


def test_user_cannot_query_other_users(fed, tokens):
    r = fed.request("POST", "tenant1.sim", "/v3/security/perms/isPermitted", token=tokens["bob"],
                    json_body={"tenant": "tenant1", "username": "alice",
                               "permission": "systems:tenant1:read:x"})
    assert r.status_code == 403
    # The tenant admin may.
    r = fed.request("POST", "tenant1.sim", "/v3/security/perms/isPermitted", token=tokens["root"],
                    json_body={"tenant": "tenant1", "username": "alice",
                               "permission": "systems:tenant1:read:x"})
    assert r.status_code == 200


def test_user_cannot_ask_about_other_users_shares(fed, tokens):
    r = fed.request("POST", "tenant1.sim", "/v3/security/shares", token=tokens["alice"],
                    json_body={"grantee": "root1", "resourceType": "system",
                               "resourceId": "askSys", "privilege": "READ"})
    assert r.status_code == 201

    def ask(token, username):
        return fed.request("GET", "tenant1.sim", "/v3/security/shares/isSharedWith",
                           token=tokens[token],
                           query={"resourceType": "system", "resourceId": "askSys",
                                  "privilege": "READ", "username": username})

    r = ask("bob", "root1")
    assert r.status_code == 403
    assert r.json()["result"]["code"] == "NOT_AUTHORIZED"
    # The tenant admin may ask about anyone; a user about themself.
    r = ask("root", "bob")
    assert r.status_code == 200
    assert r.json()["result"] == {"shared": False, "grantor": None}
    r = ask("bob", "bob")
    assert r.status_code == 200
    assert r.json()["result"] == {"shared": False, "grantor": None}


def test_vault_write_requires_service_identity(fed, tokens):
    r = fed.request("POST", "tenant1.sim",
                    "/v3/security/vault/secret/system-credential/tenant1/bob/sysX",
                    token=tokens["bob"],
                    json_body={"payloadB64": base64.b64encode(b"k").decode()})
    assert r.status_code == 403


def test_vault_flow_with_service_tokens(fed):
    systems_token = fed.service_token("prime", "systems", "prime")
    obo = {OBO_USER_HEADER: "bob", OBO_TENANT_HEADER: "tenant1"}
    r = fed.request("POST", "tenant1.sim",
                    "/v3/security/vault/secret/system-credential/tenant1/bob/sysX",
                    token=systems_token, headers=obo,
                    json_body={"payloadB64": base64.b64encode(b"keydata").decode()})
    assert r.status_code == 201, r.text
    assert r.json()["result"]["version"] == 1

    files_token = fed.service_token("prime", "files", "prime")
    r = fed.request("GET", "tenant1.sim",
                    "/v3/security/vault/secret/system-credential/tenant1/bob/sysX",
                    token=files_token, headers=obo)
    assert r.status_code == 200
    assert base64.b64decode(r.json()["result"]["payloadB64"]) == b"keydata"

    apps_token = fed.service_token("prime", "apps", "prime")
    r = fed.request("GET", "tenant1.sim",
                    "/v3/security/vault/secret/system-credential/tenant1/bob/sysX",
                    token=apps_token, headers=obo)
    assert r.status_code == 403


def test_password_validation_only_by_tokens_service(fed):
    password = fed.service_password("prime", "jobs")
    body = {"passwordB64": base64.b64encode(password.encode()).decode()}
    obo = {OBO_USER_HEADER: "svc", OBO_TENANT_HEADER: "tenant1"}
    tokens_token = fed.service_token("prime", "tokens", "prime")
    r = fed.request("POST", "tenant1.sim", "/v3/security/vault/servicePassword/jobs/validate",
                    token=tokens_token, headers=obo, json_body=body)
    assert r.status_code == 200 and r.json()["result"]["valid"] is True

    bad = {"passwordB64": base64.b64encode(b"nope").decode()}
    r = fed.request("POST", "tenant1.sim", "/v3/security/vault/servicePassword/jobs/validate",
                    token=tokens_token, headers=obo, json_body=bad)
    assert r.json()["result"]["valid"] is False

    systems_token = fed.service_token("prime", "systems", "prime")
    r = fed.request("POST", "tenant1.sim", "/v3/security/vault/servicePassword/jobs/validate",
                    token=systems_token, headers=obo, json_body=body)
    assert r.status_code == 403


def test_vault_export_requires_operator_credential(fed):
    r = fed.request("POST", "tenant1.sim", "/v3/security/vault/export",
                    headers={"X-Operator-Credential": "wrong"}, json_body={"scope": "site"})
    assert r.status_code == 403
    r = fed.request("POST", "tenant1.sim", "/v3/security/vault/export",
                    headers={"X-Operator-Credential": "operator-prime"},
                    json_body={"scope": "site", "scopeId": "prime"})
    assert r.status_code == 200
    assert "archiveB64" in r.json()["result"]


def test_share_endpoints_over_http(fed, tokens):
    r = fed.request("POST", "tenant1.sim", "/v3/security/shares", token=tokens["alice"],
                    json_body={"grantee": "bob", "resourceType": "system",
                               "resourceId": "corral", "privilege": "READ"})
    assert r.status_code == 201
    r = fed.request("GET", "tenant1.sim", "/v3/security/shares/isSharedWith", token=tokens["bob"],
                    query={"resourceType": "system", "resourceId": "corral",
                           "privilege": "READ"})
    assert r.json()["result"] == {"shared": True, "grantor": "alice"}
    r = fed.request("POST", "tenant1.sim", "/v3/security/shares/revoke", token=tokens["alice"],
                    json_body={"grantee": "bob", "resourceType": "system",
                               "resourceId": "corral", "privilege": "READ"})
    assert r.status_code == 200
    r = fed.request("GET", "tenant1.sim", "/v3/security/shares/isSharedWith", token=tokens["bob"],
                    query={"resourceType": "system", "resourceId": "corral",
                           "privilege": "READ"})
    assert r.json()["result"]["shared"] is False


AUTH_ENDPOINTS = (
    ("GET", "/v3/security/roles/hasRole?roleName=x"),
    ("POST", "/v3/security/perms/isPermitted"),
    ("POST", "/v3/security/roles"),
    ("POST", "/v3/security/shares"),
    ("GET", "/v3/security/vault/secret/user-secret/tenant1/bob/k"),
    ("POST", "/v3/tokens"),
)

garbage_tokens = st.one_of(
    st.just(""),
    st.text(alphabet="abcdef.0123456789", min_size=1, max_size=40),
    st.just("eyJhbGciOiJSUzI1NiJ9.e30."),
    st.binary(min_size=1, max_size=30).map(lambda b: b.hex()),
)


@given(endpoint=st.sampled_from(AUTH_ENDPOINTS), token=garbage_tokens,
       obo=st.booleans())
@settings(max_examples=40, deadline=None)
def test_authenticated_endpoints_unreachable_without_valid_token(fed, endpoint, token, obo):
    method, path = endpoint
    headers = {OBO_USER_HEADER: "x", OBO_TENANT_HEADER: "tenant1"} if obo else {}
    r = fed.request(method, "tenant1.sim", path, token=token or None, headers=headers,
                    json_body={} if method == "POST" else None)
    assert r.status_code in (401, 403)
    assert r.json()["status"] == "error"


def test_healthcheck_not_ready_when_secrets_backend_dies(fed):
    runtime = fed.runtimes["assoc1"]
    original = runtime.secrets.backend

    class DeadBackend:
        def ping(self):
            return False

    runtime.secrets.backend = DeadBackend()
    try:
        r = fed.request("GET", "tenant2.sim", "/v3/security/healthcheck")
        body = r.json()["result"]
        assert body["status"] == "not-ready"
        assert body["components"]["secrets"] == "down"
    finally:
        runtime.secrets.backend = original


def test_user_token_with_obo_headers_rejected_over_http(fed, tokens):
    r = fed.request("GET", "tenant1.sim", "/v3/security/roles/hasRole", token=tokens["bob"],
                    query={"roleName": "x"},
                    headers={OBO_USER_HEADER: "mallory", OBO_TENANT_HEADER: "tenant1"})
    assert r.status_code == 403
    assert r.json()["result"]["rule"] == "6a"


def test_sim_direct_probe_only_in_simulator_runtime(fed):
    # The validation probe skips routing; a production runtime must route it.
    sim = fed.runtimes["assoc1"]
    plain = SiteRuntime(sim.config, sim.registry, rbac=sim.rbac, secrets=sim.secrets,
                        sharing=sim.sharing, forge=sim.forge)
    headers = {"X-Sim-Direct": "1", TOKEN_HEADER: fed.login("tenant2", "carol")}
    args = ("GET", "assoc1.sim", "/v3/security/probe", headers, b"")
    assert sim.handle(*args).body["result"]["accepted"] is True
    rejected = plain.handle(*args)
    assert rejected.status == 404
    assert rejected.body["result"]["code"] == "ROUTE_REJECTED"


@pytest.mark.parametrize("inputs, status, code", [
    ({"grantee": "root1"}, 403, "NOT_AUTHORIZED"),
    ({"grantee": "bob", "privilege": "ADMIN"}, 404, "NOT_FOUND"),
])
def test_share_app_passes_the_kernels_client_error_through(fed, tokens, inputs, status, code):
    fed.request("POST", "tenant1.sim", "/v3/systems", token=tokens["root"],
                json_body={"id": "shareSys", "kind": "execution"})
    fed.request("POST", "tenant1.sim", "/v3/apps", token=tokens["root"],
                json_body={"id": "shareApp", "execSystem": "shareSys"})
    r = fed.request("POST", "tenant1.sim", "/v3/apps/shareApp/share", token=tokens["root"],
                    json_body=inputs)
    assert r.status_code == status, r.text
    assert r.json()["result"]["code"] == code


def test_secret_comparisons_use_compare_digest(fed, monkeypatch):
    compared, real = [], hmac.compare_digest

    def spy(a, b):
        compared.append((a, b))
        return real(a, b)

    monkeypatch.setattr(hmac, "compare_digest", spy)
    runtime = fed.runtimes["prime"]
    assert runtime.check_operator("operator-prime")
    assert not runtime.check_operator("wrong")
    login = json.dumps({"tenant": "tenant1", "username": "bob", "password": "wrong"}).encode()
    assert runtime.handle("POST", "tenant1.sim", "/v3/authenticator/tokens", {}, login).status == 401
    assert compared == [(b"operator-prime", b"operator-prime"), (b"wrong", b"operator-prime"),
                        (b"pw-bob", b"wrong")]
