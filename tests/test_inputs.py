"""Request inputs: a client mistake answers 400 naming the field, never a 5xx.

Handlers declare their inputs in their signatures and ``ServiceApp.dispatch``
binds them. A table of known mistakes probes that layer over HTTP. In
process, starting from valid inputs for every route of every app, a sweep
puts each listed mistake in each input in turn and a hypothesis fuzz puts
generated values there.
"""

import base64
import json
from http.client import HTTPConnection
from urllib.parse import quote, urlencode

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsec.gatekeeper import OBO_TENANT_HEADER, OBO_USER_HEADER, TOKEN_HEADER
from fedsec.service import APP_CLASSES
from fedsec.sim.federation import build_federation
from fedsec.sim.scenario import walkthrough_topology_doc
from fedsec.sim.stubs import STUB_APPS

SECRET = "/v3/security/vault/secret/system-credential/tenant1/bob/probeKey"


@pytest.fixture(scope="module")
def fed():
    federation = build_federation(walkthrough_topology_doc())
    yield federation
    federation.close()


@pytest.fixture(scope="module")
def identities(fed):
    """Request headers per identity: a tenant admin, two services acting for
    bob, the site operator, a service's basic credentials, and nobody."""
    obo = {OBO_USER_HEADER: "bob", OBO_TENANT_HEADER: "tenant1"}
    basic = base64.b64encode(f"systems:{fed.service_password('prime', 'systems')}".encode())
    return {
        "root": {TOKEN_HEADER: fed.login("tenant1", "root1")},
        "systems": {TOKEN_HEADER: fed.service_token("prime", "systems", "prime"), **obo},
        "files": {TOKEN_HEADER: fed.service_token("prime", "files", "prime"), **obo},
        "operator": {"X-Operator-Credential": "operator-prime"},
        "basic": {"Authorization": "Basic " + basic.decode()},
        "open": {},
    }


# (identity, method, path, query or body, the field the answer must name)
MISTAKES = (
    ("root", "POST", "/v3/security/roles", {}, "roleName"),
    ("root", "POST", "/v3/security/roles", {"roleName": 7}, "roleName"),
    ("root", "GET", "/v3/security/roles/hasRole", {}, "roleName"),
    ("root", "POST", "/v3/security/roles/r/children", {}, "childRoleName"),
    ("root", "POST", "/v3/security/roles/r/grants", {}, "username"),
    ("root", "POST", "/v3/security/roles/r/permissions", {}, "permission"),
    ("root", "POST", "/v3/security/perms/isPermitted", {}, "permission"),
    ("root", "POST", "/v3/security/shares", {"grantee": "bob"}, "resourceType"),
    ("root", "GET", "/v3/security/shares/isSharedWith", {"resourceType": "system"}, "resourceId"),
    ("root", "POST", "/v3/security/shares/revoke", {}, "grantee"),
    ("files", "GET", "/v3/security/vault/secret/bogus/tenant1/bob/k", {}, "category"),
    ("files", "GET", SECRET, {"version": "abc"}, "version"),
    ("systems", "POST", SECRET, {"payloadB64": "!!!"}, "payloadB64"),
    ("systems", "POST", SECRET, {}, "payloadB64"),
    ("open", "POST", "/v3/tokens/refresh", {}, "refreshToken"),
    ("open", "POST", "/v3/authenticator/tokens", {}, "tenant"),
    ("root", "POST", "/v3/systems", {}, "id"),
    ("root", "POST", "/v3/jobs", {}, "appId"),
)


@pytest.mark.parametrize("who, method, path, inputs, field", MISTAKES)
def test_client_mistake_answers_400_naming_the_field(fed, identities, who, method, path,
                                                      inputs, field):
    r = fed.request(method, "tenant1.sim", path, headers=identities[who],
                    query=inputs if method == "GET" else None,
                    json_body=inputs if method == "POST" else None)
    assert r.status_code == 400, r.text
    body = r.json()
    assert body["result"]["code"] == "BAD_REQUEST"
    assert repr(field) in body["message"]


# Raw JSON for a user token's ttl: each would mint a token that never expires, or
# expires before it is issued. 10**400 overflows a float.
BAD_TTLS = ["NaN", "Infinity", "-Infinity", "1e999", '"inf"', '"60"', "0", "-60", "true",
            "1" + "0" * 400]


@pytest.mark.parametrize("ttl", BAD_TTLS, ids=lambda ttl: ttl[:8])
def test_a_token_ttl_that_is_not_a_finite_positive_number_answers_400(fed, identities, ttl):
    body = f'{{"tenant": "tenant1", "username": "bob", "ttl": {ttl}}}'.encode()
    connection = HTTPConnection("127.0.0.1", fed.ports["prime"], timeout=10)
    try:
        connection.request("POST", "/v3/tokens", body, {"Host": "tenant1.sim", **identities["root"]})
        response = connection.getresponse()
        status, doc = response.status, json.loads(response.read())
    finally:
        connection.close()
    assert status == 400, doc
    assert doc["result"]["code"] == "BAD_REQUEST"
    assert "'ttl'" in doc["message"]


# (service, method, route pattern) -> (identity, path groups, valid query or body)
ROUTE_INPUTS = {
    ("security-kernel", "GET", "/v3/security/healthcheck"): ("open", {}, {}),
    ("security-kernel", "POST", "/v3/security/roles"):
        ("root", {}, {"roleName": "fz", "owner": "root1", "description": "d"}),
    ("security-kernel", "GET", "/v3/security/roles/hasRole"):
        ("root", {}, {"roleName": "fz", "tenant": "tenant1", "username": "bob"}),
    ("security-kernel", "GET", "/v3/security/roles/{name}"): ("root", {"name": "fz"}, {}),
    ("security-kernel", "DELETE", "/v3/security/roles/{name}"): ("root", {"name": "fz"}, {}),
    ("security-kernel", "POST", "/v3/security/roles/{name}/children"):
        ("root", {"name": "fz"}, {"childRoleName": "fzChild"}),
    ("security-kernel", "POST", "/v3/security/roles/{name}/grants"):
        ("root", {"name": "fz"}, {"username": "bob"}),
    ("security-kernel", "POST", "/v3/security/roles/{name}/revocations"):
        ("root", {"name": "fz"}, {"username": "bob"}),
    ("security-kernel", "POST", "/v3/security/roles/{name}/permissions"):
        ("root", {"name": "fz"}, {"permission": "systems:tenant1:read:fzSys"}),
    ("security-kernel", "POST", "/v3/security/roles/{name}/permissions/remove"):
        ("root", {"name": "fz"}, {"permission": "systems:tenant1:read:fzSys"}),
    ("security-kernel", "POST", "/v3/security/perms/isPermitted"):
        ("root", {}, {"permission": "systems:tenant1:read:fzSys", "tenant": "tenant1",
                      "username": "bob"}),
    ("security-kernel", "POST", "/v3/security/shares"):
        ("root", {}, {"grantee": "bob", "resourceType": "system", "resourceId": "fzSys",
                      "privilege": "READ"}),
    ("security-kernel", "GET", "/v3/security/shares/isSharedWith"):
        ("root", {}, {"resourceType": "system", "resourceId": "fzSys", "privilege": "READ",
                      "username": "bob"}),
    ("security-kernel", "POST", "/v3/security/shares/revoke"):
        ("root", {}, {"grantee": "bob", "resourceType": "system", "resourceId": "fzSys",
                      "privilege": "READ", "grantor": "root1"}),
    ("security-kernel", "POST",
     "/v3/security/vault/secret/{category}/{tenant}/{owner}/{secret_name}"):
        ("systems", {"category": "system-credential", "tenant": "tenant1", "owner": "bob",
                     "secret_name": "fzKey"},
         {"payloadB64": base64.b64encode(b"key").decode(), "metadata": {"k": "v"}}),
    ("security-kernel", "GET",
     "/v3/security/vault/secret/{category}/{tenant}/{owner}/{secret_name}"):
        ("files", {"category": "system-credential", "tenant": "tenant1", "owner": "bob",
                   "secret_name": "fzKey"}, {"version": "1"}),
    ("security-kernel", "POST", "/v3/security/vault/servicePassword/{service}/validate"):
        ("systems", {"service": "jobs"}, {"passwordB64": base64.b64encode(b"pw").decode()}),
    ("security-kernel", "POST", "/v3/security/vault/export"):
        ("operator", {}, {"scope": "site", "scopeId": "prime"}),
    ("tokens", "POST", "/v3/tokens"):
        ("root", {}, {"tenant": "tenant1", "username": "bob", "ttl": 60}),
    ("tokens", "POST", "/v3/tokens/service"): ("basic", {}, {"targetSites": ["prime"]}),
    ("tokens", "POST", "/v3/tokens/refresh"): ("open", {}, {"refreshToken": "a.b.c"}),
    ("tenants", "GET", "/v3/tenants"): ("open", {}, {}),
    ("tenants", "GET", "/v3/tenants/{tenant_id}"): ("open", {"tenant_id": "tenant1"}, {}),
    ("authenticator", "POST", "/v3/authenticator/tokens"):
        ("open", {}, {"tenant": "tenant1", "username": "bob", "password": "pw-bob"}),
    ("systems", "POST", "/v3/systems"):
        ("root", {}, {"id": "fzSys", "owner": "root1", "kind": "execution",
                      "credentialUser": "${requester}"}),
    ("systems", "GET", "/v3/systems/{sys_id}"):
        ("root", {"sys_id": "fzSys"}, {"privilege": "READ"}),
    ("systems", "POST", "/v3/systems/{sys_id}/credentials"):
        ("root", {"sys_id": "fzSys"},
         {"payloadB64": base64.b64encode(b"key").decode(), "username": "root1"}),
    ("apps", "POST", "/v3/apps"):
        ("root", {}, {"id": "fzApp", "execSystem": "fzSys", "owner": "root1",
                      "storage": [{"system": "fzSys", "path": "/in"}], "runAsSac": True}),
    ("apps", "GET", "/v3/apps/{app_id}"): ("root", {"app_id": "fzApp"}, {}),
    ("apps", "POST", "/v3/apps/{app_id}/share"):
        ("root", {"app_id": "fzApp"}, {"grantee": "bob", "privilege": "EXECUTE"}),
    ("files", "POST", "/v3/files/transfers"):
        ("root", {}, {"srcSystem": "fzSys", "srcPath": "/a", "dstSystem": "fzSys",
                      "dstPath": "/b"}),
    ("files", "GET", "/v3/files/content/{system}/{file_path:path}"):
        ("open", {"system": "fzSys", "file_path": "in/x"}, {}),
    ("jobs", "POST", "/v3/jobs"):
        ("root", {}, {"appId": "fzApp", "archiveSystem": "fzSys", "archiveDir": "/arc"}),
}
ROUTES = sorted(ROUTE_INPUTS)


def test_fuzz_table_covers_every_route():
    declared = {(cls.name, method, pattern)
                for cls in (*APP_CLASSES.values(), *STUB_APPS)
                for method, pattern, _, _ in cls.ROUTES}
    assert declared == set(ROUTE_INPUTS)


def _handle(fed, identities, route, groups, inputs, raw_body=None):
    """Send one request for ``route`` to the primary's runtime in process."""
    method, pattern = route[1], route[2]
    path = pattern
    for name, value in groups.items():
        path = path.replace(f"{{{name}}}", quote(value, safe="")).replace(
            f"{{{name}:path}}", quote(value, safe="/"))
    body = b""
    if method == "POST":
        body = json.dumps(inputs).encode() if raw_body is None else raw_body
    elif inputs:
        path += "?" + urlencode(inputs)
    who = ROUTE_INPUTS[route][0]
    return fed.runtimes["prime"].handle(method, "tenant1.sim", path, identities[who], body)


@pytest.fixture(scope="module")
def fuzz_resources(fed, identities):
    """The system, credentials and application the fuzzed stub routes refer to."""
    for route in (("systems", "POST", "/v3/systems"),
                  ("systems", "POST", "/v3/systems/{sys_id}/credentials"),
                  ("apps", "POST", "/v3/apps")):
        _, groups, inputs = ROUTE_INPUTS[route]
        assert _handle(fed, identities, route, groups, inputs).status == 201


DROP = object()
# What clients get wrong: an absent or empty field, text that is not base64,
# a category or an integer, a lone surrogate, and values of the wrong JSON type.
QUERY_MISTAKES = [DROP, "", "!!!", "bogus", "abc", "-1"]
BODY_MISTAKES = QUERY_MISTAKES + ["\ud800", None, True, 0, 1.5, [], ["x"], [[1]], [{}], {}, {"k": 1}]
SEGMENT_MISTAKES = ["bogus", "!!!", "abc", "user-secret", "%FF"]
RAW_BODIES = [b"not json", b"[1]", b"\xff\xfe", b"[" * 100_000]


def _mutated(inputs, name, value):
    mutated = {k: v for k, v in inputs.items() if k != name}
    if value is not DROP:
        mutated[name] = value
    return mutated


def test_every_listed_mistake_in_every_input_never_answers_5xx(fed, identities, fuzz_resources):
    for route in ROUTES:
        _, groups, inputs = ROUTE_INPUTS[route]
        sent = [(groups, _mutated(inputs, name, value), None) for name in inputs
                for value in (BODY_MISTAKES if route[1] == "POST" else QUERY_MISTAKES)]
        sent += [({**groups, name: value}, inputs, None)
                 for name in groups for value in SEGMENT_MISTAKES]
        if route[1] == "POST":
            sent += [(groups, inputs, raw_body) for raw_body in RAW_BODIES]
        for case in sent:
            response = _handle(fed, identities, route, *case)
            assert response.status < 500, (route, case, response.body)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)
segments = st.text(alphabet="abcXYZ019-_.~!%", min_size=1, max_size=10)


@settings(max_examples=500, deadline=None)
@given(route=st.sampled_from(ROUTES), data=st.data())
def test_fuzzed_inputs_never_answer_5xx(fed, identities, fuzz_resources, route, data):
    """One generated value per request, in a path group or a field."""
    _, groups, inputs = ROUTE_INPUTS[route]
    if not (groups or inputs):
        return
    name = data.draw(st.sampled_from(sorted(groups) + sorted(inputs)))
    if name in groups:
        groups = {**groups, name: data.draw(segments)}
    elif route[1] == "POST":
        inputs = _mutated(inputs, name, data.draw(st.one_of(st.sampled_from(BODY_MISTAKES),
                                                             json_values)))
    else:
        inputs = _mutated(inputs, name, data.draw(st.one_of(st.sampled_from(QUERY_MISTAKES),
                                                             st.text(max_size=12))))
    response = _handle(fed, identities, route, groups, inputs)
    assert response.status < 500, (route, groups, inputs, response.body)
