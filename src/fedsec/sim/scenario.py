"""Scripted scenarios over a running federation.

A scenario is an ordered list of steps ``{actor, action, params, expect}``.
Actors are ``username@tenant``; their tokens come from the authenticator.
The runner executes each step over the wire, compares the outcome with the
expectation, and raises ScenarioDivergence naming the first mismatched
step. Transcripts come from the federation recorder, so identical scripts
replay to identical transcripts.

The shared-application-context walkthrough ships as four scripted
branches: the nominal run, a grantee with no stored credentials, a
grantor whose access was revoked after sharing (grantee fallback), and
both parties unauthorized (the job aborts).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ..errors import ScenarioDivergence
from .presets import walkthrough_topology

WALKTHROUGH_BRANCHES = ("nominal", "missing-grantee-credentials",
                        "grantor-revoked-fallback", "both-unauthorized")


def grant_role_name(tenant: str, username: str, permission: str) -> str:
    """The one-permission role a scenario grant goes through; the same in every process."""
    digest = hashlib.sha256("\n".join((tenant, username, permission)).encode()).hexdigest()
    return f"grant-{digest[:12]}"


class ScenarioRunner:
    def __init__(self, federation):
        self.federation = federation
        self._tokens = {}
        self._perm_roles = {}

    # -- plumbing --

    def _token(self, actor: str) -> str:
        token = self._tokens.get(actor)
        if token is None:
            username, _, tenant = actor.partition("@")
            token = self.federation.login(tenant, username)
            self._tokens[actor] = token
        return token

    def _host(self, actor: str) -> str:
        tenant = actor.partition("@")[2]
        return self.federation.registry.get_tenant(tenant).host

    def _call(self, actor, method, path, json_body=None, query=None):
        return self.federation.request(method, self._host(actor), path,
                                       token=self._token(actor), json_body=json_body,
                                       query=query)

    # -- actions --

    def _act_define_system(self, actor, params):
        return self._call(actor, "POST", "/v3/systems", json_body=params)

    def _act_store_credentials(self, actor, params):
        import base64
        body = {"username": params.get("username", actor.partition("@")[0]),
                "payloadB64": base64.b64encode(params.get("secret", "ssh-key").encode()).decode()}
        return self._call(actor, "POST", f"/v3/systems/{params['system']}/credentials",
                          json_body=body)

    def _act_define_app(self, actor, params):
        return self._call(actor, "POST", "/v3/apps", json_body=params)

    def _act_share_app(self, actor, params):
        return self._call(actor, "POST", f"/v3/apps/{params['app']}/share",
                          json_body={"grantee": params["grantee"],
                                     "privilege": params.get("privilege", "EXECUTE")})

    def _act_grant_user_permission(self, actor, params):
        """Tenant-admin composite: a one-permission role granted to the user."""
        username, permission = params["username"], params["permission"]
        role = grant_role_name(actor.partition("@")[2], username, permission)
        self._perm_roles[(username, permission)] = role
        r = self._call(actor, "POST", "/v3/security/roles",
                       json_body={"roleName": role, "description": "scenario grant"})
        if r.status_code not in (200, 201):
            return r
        r = self._call(actor, "POST", f"/v3/security/roles/{role}/permissions",
                       json_body={"permission": permission})
        if r.status_code != 200:
            return r
        return self._call(actor, "POST", f"/v3/security/roles/{role}/grants",
                          json_body={"username": username})

    def _act_revoke_user_permission(self, actor, params):
        role = self._perm_roles[(params["username"], params["permission"])]
        return self._call(actor, "POST", f"/v3/security/roles/{role}/permissions/remove",
                          json_body={"permission": params["permission"]})

    def _act_submit_job(self, actor, params):
        return self._call(actor, "POST", "/v3/jobs", json_body=params)

    ACTIONS = {
        "define_system": _act_define_system,
        "store_credentials": _act_store_credentials,
        "define_app": _act_define_app,
        "share_app": _act_share_app,
        "grant_user_permission": _act_grant_user_permission,
        "revoke_user_permission": _act_revoke_user_permission,
        "submit_job": _act_submit_job,
    }

    # -- execution --

    def run(self, steps):
        """Execute steps; return the final outcomes list."""
        outcomes = []
        for index, step in enumerate(steps):
            action = step["action"]
            handler = self.ACTIONS.get(action)
            if handler is None:
                raise ScenarioDivergence(f"step {index}: unknown action {action!r}")
            response = handler(self, step["actor"], step.get("params", {}))
            outcome = {"status_code": response.status_code}
            body = response.json()
            outcome["result"] = body.get("result")
            outcomes.append(outcome)
            self._check_expectation(index, step, outcome)
        return outcomes

    def _check_expectation(self, index, step, outcome):
        expect = step.get("expect")
        if not expect:
            return
        label = f"step {index} ({step['action']} by {step['actor']})"
        if "status_code" in expect and outcome["status_code"] != expect["status_code"]:
            raise ScenarioDivergence(
                f"{label}: expected HTTP {expect['status_code']}, got {outcome['status_code']} "
                f"({outcome['result']})")
        result = outcome["result"] or {}
        if "job_status" in expect and result.get("status") != expect["job_status"]:
            raise ScenarioDivergence(
                f"{label}: expected job {expect['job_status']}, got {result.get('status')} "
                f"(reason: {result.get('reason')})")
        if "reason_contains" in expect and expect["reason_contains"] not in (result.get("reason") or ""):
            raise ScenarioDivergence(
                f"{label}: expected reason containing {expect['reason_contains']!r}, "
                f"got {result.get('reason')!r}")
        if "error_code" in expect and result.get("code") != expect["error_code"]:
            raise ScenarioDivergence(
                f"{label}: expected error code {expect['error_code']}, got {result.get('code')}")


def load_scenario(path):
    doc = json.loads(Path(path).read_text())
    return doc["steps"] if isinstance(doc, dict) else doc


def run_scenario(federation, steps):
    runner = ScenarioRunner(federation)
    federation.transcript.clear()
    outcomes = runner.run(steps)
    return {"outcomes": outcomes, "transcript": federation.transcript.snapshot()}


# ----------------------------------------------------------------------
# the shared-application-context walkthrough


def walkthrough_steps(branch: str = "nominal"):
    """The four-branch job-in-shared-context script.

    Alice defines aliceApp against execSys (requester-templated credentials)
    and storeSys (static storeAdmin credentials), shares it with Bob, and
    Bob submits a job adding archive system arcSys outside the context.
    """
    if branch not in WALKTHROUGH_BRANCHES:
        raise ScenarioDivergence(f"unknown walkthrough branch {branch!r}")
    alice, bob, root = "alice@tenant1", "bob@tenant1", "root1@tenant1"
    steps = [
        {"actor": alice, "action": "define_system",
         "params": {"id": "execSys", "kind": "execution", "owner": "sysop",
                    "credentialUser": "${requester}"},
         "expect": {"status_code": 201}},
        {"actor": alice, "action": "define_system",
         "params": {"id": "storeSys", "kind": "storage", "owner": "sysop",
                    "credentialUser": "storeAdmin"},
         "expect": {"status_code": 201}},
        {"actor": alice, "action": "define_system",
         "params": {"id": "arcSys", "kind": "storage", "owner": "sysop",
                    "credentialUser": "${requester}"},
         "expect": {"status_code": 201}},
        {"actor": root, "action": "grant_user_permission",
         "params": {"username": "alice", "permission": "systems:tenant1:execute:execSys"},
         "expect": {"status_code": 200}},
        {"actor": root, "action": "grant_user_permission",
         "params": {"username": "alice", "permission": "systems:tenant1:read:storeSys"},
         "expect": {"status_code": 200}},
        {"actor": root, "action": "grant_user_permission",
         "params": {"username": "bob", "permission": "systems:tenant1:modify:arcSys"},
         "expect": {"status_code": 200}},
        {"actor": root, "action": "grant_user_permission",
         "params": {"username": "bob", "permission": "files:tenant1:modify:arcSys:/archives/bob"},
         "expect": {"status_code": 200}},
        {"actor": root, "action": "grant_user_permission",
         "params": {"username": "storeAdmin", "permission": "systems:tenant1:read:storeSys"},
         "expect": {"status_code": 200}},
        {"actor": "storeAdmin@tenant1", "action": "store_credentials",
         "params": {"system": "storeSys", "secret": "store-admin-key"},
         "expect": {"status_code": 201}},
        {"actor": bob, "action": "store_credentials",
         "params": {"system": "arcSys", "secret": "bob-arc-key"},
         "expect": {"status_code": 201}},
        {"actor": alice, "action": "define_app",
         "params": {"id": "aliceApp", "execSystem": "execSys",
                    "storage": [{"system": "storeSys", "path": "/data/input.csv"}],
                    "runAsSac": True},
         "expect": {"status_code": 201}},
        {"actor": alice, "action": "share_app",
         "params": {"app": "aliceApp", "grantee": "bob"},
         "expect": {"status_code": 201}},
    ]
    if branch != "missing-grantee-credentials":
        steps.insert(10, {"actor": bob, "action": "store_credentials",
                          "params": {"system": "execSys", "secret": "bob-exec-key"},
                          "expect": {"status_code": 201}})
    if branch in ("grantor-revoked-fallback", "both-unauthorized"):
        steps.append({"actor": root, "action": "revoke_user_permission",
                      "params": {"username": "alice",
                                 "permission": "systems:tenant1:execute:execSys"},
                      "expect": {"status_code": 200}})
    if branch == "grantor-revoked-fallback":
        steps.append({"actor": root, "action": "grant_user_permission",
                      "params": {"username": "bob",
                                 "permission": "systems:tenant1:execute:execSys"},
                      "expect": {"status_code": 200}})

    submit = {"actor": bob, "action": "submit_job",
              "params": {"appId": "aliceApp", "archiveSystem": "arcSys",
                         "archiveDir": "/archives/bob"}}
    if branch in ("nominal", "grantor-revoked-fallback"):
        submit["expect"] = {"status_code": 201, "job_status": "FINISHED"}
    elif branch == "missing-grantee-credentials":
        submit["expect"] = {"status_code": 200, "job_status": "FAILED",
                            "reason_contains": "no credentials for bob"}
    else:
        submit["expect"] = {"status_code": 200, "job_status": "FAILED",
                            "reason_contains": "execution system authorization"}
    steps.append(submit)
    return steps


def walkthrough_users():
    return {"tenant1": {"alice": "pw-alice", "bob": "pw-bob", "root1": "pw-root1",
                        "storeAdmin": "pw-store"}}


def walkthrough_topology_doc() -> dict:
    doc = walkthrough_topology()
    for entry in doc["tenants"]:
        if entry["tenant_id"] == "tenant1":
            entry["users"] = walkthrough_users()["tenant1"]
    return doc


def run_sac_walkthrough(federation, branch: str = "nominal"):
    """Execute one walkthrough branch; returns outcomes plus the transcript."""
    result = run_scenario(federation, walkthrough_steps(branch))
    result["branch"] = branch
    result["job"] = result["outcomes"][-1]["result"]
    return result
