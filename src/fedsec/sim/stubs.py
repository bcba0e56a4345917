"""Stub data/compute services: systems, apps, files, and jobs.

These implement only what federation scenarios exercise: application and
system definitions with credential templating, shared-application-context
resolution with runtime grantor checks and grantee fallback, file
transfers gated by host allow-tables, and a job lifecycle that stages
inputs, runs, and archives outputs.

Every inter-service hop is a real HTTP service request carrying the
caller's service token for the receiving site plus on-behalf-of headers,
and lands in the federation transcript. Every permission and share
question goes to the security kernel of the tenant's owning site.
"""

from __future__ import annotations

import base64
import functools

from ..errors import NotFound, ResourceNotInSac, SacOnUserRequest, SecurityError
from ..gatekeeper import TOKEN_HEADER
from ..identity import Caller
from ..secrets import SecretCategory, SecretPath, SecretValue
from ..service import ServiceApp, rejection_response
from ..sharing import SAC_APP_HEADER, SAC_GRANTOR_HEADER, AccessOutcome, SacDescriptor, share_privilege
from ..wire import Response, b64, fail, ok

TEMPLATE_REQUESTER = "${requester}"


def storage_entries(value) -> list:
    """Field converter: an application's storage, a list of {system, path} strings."""
    if not isinstance(value, list) or not all(
            isinstance(e, dict) and all(isinstance(e.get(k), str) for k in ("system", "path"))
            for e in value):
        raise TypeError("must be a list of {system, path} objects with string values")
    return value


class _StubApp(ServiceApp):
    """What the stubs share: service calls, transcript records, the two
    kernel questions and the shared-context headers."""

    def call(self, method, path, user, *, query=None, json_body=None, headers=None):
        """A service request on ``user``'s behalf in ``user``'s tenant, as
        (status, envelope)."""
        response = self.rt.service_request(self.name, method, user.tenant, path, obo=user,
                                           json_body=json_body, query=query, headers=headers)
        return response.status_code, response.json()

    def record(self, action, **detail):
        self.rt.record(f"{self.name}@{self.rt.site_id}", action, **detail)

    def permitted(self, user, username, permission) -> bool:
        """The tenant kernel's isPermitted for ``username``."""
        status, body = self.call("POST", "/v3/security/perms/isPermitted", user,
                                 json_body={"tenant": user.tenant, "username": username,
                                            "permission": permission})
        return status == 200 and body["result"]["isPermitted"]

    def shared_with(self, user, resource_type, resource_id, username, privilege):
        """The tenant kernel's isSharedWith for ``username``: (shared, grantor)."""
        status, body = self.call("GET", "/v3/security/shares/isSharedWith", user,
                                 query={"resourceType": resource_type, "resourceId": resource_id,
                                        "username": username, "privilege": privilege})
        if status != 200:
            return False, None
        return body["result"]["shared"], body["result"]["grantor"]

    @staticmethod
    def sac_headers(req, verdict) -> dict:
        """The request's shared-context headers, ready to forward; {} unless
        both are present. User tokens may not carry them."""
        grantor = req.header(SAC_GRANTOR_HEADER)
        app_id = req.header(SAC_APP_HEADER)
        if not (grantor and app_id):
            return {}
        if verdict.claims.account_type == "user":
            raise SacOnUserRequest("shared-context headers are honored on service requests only")
        return {SAC_GRANTOR_HEADER: grantor, SAC_APP_HEADER: app_id}


class SystemsApp(_StubApp):
    name = "systems"

    ROUTES = (
        ("POST", "/v3/systems", "token", "create_system"),
        ("GET", "/v3/systems/{sys_id}", "token", "get_system"),
        ("POST", "/v3/systems/{sys_id}/credentials", "token", "store_credentials"),
    )

    def __init__(self, runtime):
        super().__init__(runtime)
        self.defs = {}  # (tenant, id) -> definition dict
        self.identity = Caller(name=self.name, tenant=runtime.config.admin_tenant, kind="service")

    def create_system(self, req, verdict, id: str, owner: str = None, kind: str = "storage",
                      credentialUser: str = TEMPLATE_REQUESTER):
        user = verdict.effective_user
        definition = {"id": id, "tenant": user.tenant, "owner": owner or user.username,
                      "kind": kind, "credentialUser": credentialUser}
        self.defs[(user.tenant, id)] = definition
        self.record("system-defined", target=id, tenant=user.tenant)
        return ok(definition, message="system defined", status=201)

    def store_credentials(self, req, verdict, sys_id, payloadB64: b64, username: str = None):
        user = verdict.effective_user
        username = username or user.username
        if verdict.claims.account_type == "user" and username != user.username:
            return fail(403, "NOT_AUTHORIZED", "users store only their own credentials")
        path = SecretPath(user.tenant, SecretCategory.SYSTEM_CREDENTIAL, username, sys_id)
        version = self.rt.secrets.write_secret(path, SecretValue(payloadB64), self.identity)
        self.record("credentials-stored", target=sys_id, user=username)
        return ok({"version": version}, message="credentials stored", status=201)

    # -- retrieval with SAC participation --

    def get_system(self, req, verdict, sys_id, privilege: share_privilege = "READ"):
        user = verdict.effective_user
        definition = self.defs.get((user.tenant, sys_id))
        if definition is None:
            raise NotFound(f"no system {sys_id!r} in tenant {user.tenant!r}")

        sac = self.sac_headers(req, verdict)
        sac_outcome = None
        if sac:
            descriptor = self._sac_descriptor(user, sac)
            if descriptor is None:
                return fail(403, "SAC_UNRESOLVED", "shared application context could not be loaded")
            # Context access is judged at the level the application declared
            # the system for: execution systems at EXECUTE, storage at READ.
            # The per-operation privilege still gates the host allow-table.
            sac_privilege = "EXECUTE" if definition["kind"] == "execution" else "READ"
            try:
                outcome = self.rt.sharing.resolve_sac_access(
                    descriptor, user.username, ("system", sys_id), sac_privilege,
                    functools.partial(self.authorized, user))
            except ResourceNotInSac:
                self.record("sac-miss", target=sys_id, sac=True,
                            detail="standard authorization required")
                outcome = None
            if outcome is AccessOutcome.DENIED:
                self.record("sac-denied", target=sys_id, sac=True)
                return fail(403, "SAC_DENIED",
                            "neither the context grantor nor the requester is authorized")
            if outcome is not None:
                sac_outcome = outcome.value
                self.record("sac-authorized", target=sys_id, sac=True, outcome=sac_outcome,
                            grantor=descriptor.grantor)

        if sac_outcome is None and not self.authorized(user, user.username, "system", sys_id,
                                                       privilege):
            return fail(403, "NOT_AUTHORIZED", f"{user.username} lacks {privilege} on {sys_id}")

        credential_user = definition["credentialUser"]
        if credential_user == TEMPLATE_REQUESTER:
            credential_user = user.username
        cred_path = SecretPath(user.tenant, SecretCategory.SYSTEM_CREDENTIAL,
                               credential_user, sys_id)
        try:
            secret = self.rt.secrets.read_secret(cred_path, self.identity)
            credential_present = True
            credential_b64 = base64.b64encode(secret.payload).decode()
        except SecurityError:
            credential_present = False
            credential_b64 = None
        self.record("credential-resolved", target=sys_id, sac=bool(sac),
                    credential_user=credential_user, present=credential_present,
                    templated=definition["credentialUser"] == TEMPLATE_REQUESTER)
        return ok({
            "definition": definition,
            "credentialUser": credential_user,
            "credentialPresent": credential_present,
            "credentialB64": credential_b64,
            "sac": sac_outcome or ("not-in-sac" if sac else None),
        })

    def _sac_descriptor(self, user, sac):
        """Rebuild the shared context from the apps service's answer; None when
        it cannot be loaded or names another grantor than the header does."""
        status, body = self.call("GET", f"/v3/apps/{sac[SAC_APP_HEADER]}", user)
        if status != 200 or body["result"]["sacGrantor"] != sac[SAC_GRANTOR_HEADER]:
            return None
        app = body["result"]["definition"]
        resources = {("system", app["execSystem"], None)}
        for entry in app.get("storage", ()):
            resources.add(("system", entry["system"], None))
            resources.add(("path", f"{entry['system']}:{entry['path']}", entry["path"]))
        return SacDescriptor(grantor=body["result"]["sacGrantor"], app_id=app["id"],
                             shared_resources=frozenset(resources))

    def authorized(self, user, username, resource_type, resource_id, privilege) -> bool:
        """Whether ``username`` holds ``privilege`` on a system: its owner, else
        the kernel's isPermitted, else the kernel's isSharedWith. The kernel is
        asked on ``user``'s behalf."""
        definition = self.defs.get((user.tenant, resource_id))
        if definition is not None and definition["owner"] == username:
            return True
        permission = f"systems:{user.tenant}:{privilege.lower()}:{resource_id}"
        return (self.permitted(user, username, permission)
                or self.shared_with(user, resource_type, resource_id, username, privilege)[0])


class AppsApp(_StubApp):
    name = "apps"

    ROUTES = (
        ("POST", "/v3/apps", "token", "create_app"),
        ("GET", "/v3/apps/{app_id}", "token", "get_app"),
        ("POST", "/v3/apps/{app_id}/share", "token", "share_app"),
    )

    def __init__(self, runtime):
        super().__init__(runtime)
        self.defs = {}

    def create_app(self, req, verdict, id: str, execSystem: str, owner: str = None,
                   storage: storage_entries = (), runAsSac: bool = True):
        user = verdict.effective_user
        definition = {"id": id, "tenant": user.tenant, "owner": owner or user.username,
                      "execSystem": execSystem, "storage": list(storage), "runAsSac": runAsSac}
        self.defs[(user.tenant, id)] = definition
        self.record("app-defined", target=id)
        return ok(definition, message="application defined", status=201)

    def get_app(self, req, verdict, app_id):
        user = verdict.effective_user
        definition = self.defs.get((user.tenant, app_id))
        if definition is None:
            raise NotFound(f"no application {app_id!r} in tenant {user.tenant!r}")
        if definition["owner"] == user.username:
            return ok({"definition": definition, "sacGrantor": None})
        shared, grantor = self.shared_with(user, "application", app_id, user.username, "EXECUTE")
        if not shared:
            self.record("share-check", target=app_id, user=user.username, shared=False)
            return fail(403, "NOT_AUTHORIZED", f"{app_id} is not shared with {user.username}")
        self.record("share-check", target=app_id, user=user.username, shared=True,
                    grantor=grantor)
        return ok({"definition": definition, "sacGrantor": grantor})

    def share_app(self, req, verdict, app_id, grantee: str, privilege: str = "EXECUTE"):
        """Share an application after a share-time check: the grantor must
        currently hold access to every system the definition references, so
        a grantee never inherits access the grantor never had. A failure
        names the system (403 ``SHARE_TIME_CHECK_FAILED``, ``failingSystem``);
        the grant itself is recorded by the tenant's kernel."""
        user = verdict.effective_user
        definition = self.defs.get((user.tenant, app_id))
        if definition is None:
            raise NotFound(f"no application {app_id!r} in tenant {user.tenant!r}")
        if definition["owner"] != user.username:
            return fail(403, "NOT_AUTHORIZED", "only the owner shares an application")
        referenced = [(definition["execSystem"], "EXECUTE")]
        referenced += [(e["system"], "READ") for e in definition.get("storage", ())]
        for system_id, needed in referenced:
            status, _ = self.call("GET", f"/v3/systems/{system_id}", user,
                                  query={"privilege": needed})
            granted = status == 200
            self.record("share-time-check", target=system_id, grantor=user.username, ok=granted)
            if not granted:
                return fail(403, "SHARE_TIME_CHECK_FAILED",
                            f"grantor lacks access to system {system_id!r}",
                            failingSystem=system_id)
        status, body = self.call("POST", "/v3/security/shares", user,
                                 json_body={"grantee": grantee, "resourceType": "application",
                                            "resourceId": app_id, "privilege": privilege})
        if status >= 500:
            return fail(502, "SHARE_FAILED", "share grant could not be recorded")
        if status != 201:  # the kernel's answer to a client mistake
            return Response(status, body)
        self.record("app-shared", target=app_id, grantee=grantee)
        return ok(message="application shared", status=201)


class FilesApp(_StubApp):
    name = "files"

    ROUTES = (
        ("POST", "/v3/files/transfers", "token", "transfer"),
        ("GET", "/v3/files/content/{system}/{file_path:path}", "open", "content"),
    )

    def transfer(self, req, verdict, srcSystem: str, srcPath: str, dstSystem: str, dstPath: str):
        user = verdict.effective_user
        sac = self.sac_headers(req, verdict)
        legs = ((srcSystem, srcPath, "READ"), (dstSystem, dstPath, "MODIFY"))
        resolved = []
        for system_id, path, privilege in legs:
            status, body = self.call("GET", f"/v3/systems/{system_id}", user,
                                     query={"privilege": privilege}, headers=sac)
            if status != 200:
                return fail(403, "TRANSFER_DENIED",
                            f"system {system_id!r} refused {privilege}",
                            system=system_id, cause=body.get("result", {}).get("code"))
            result = body["result"]
            in_sac = result["sac"] in ("grantor-authorized", "grantee-authorized")
            if not in_sac:
                # Outside the shared context the requester needs a file permission.
                permission = f"files:{user.tenant}:{privilege.lower()}:{system_id}:{path}"
                permitted = self.permitted(user, user.username, permission)
                self.record("file-permission-check", target=f"{system_id}:{path}",
                            user=user.username, permission=permission, permitted=permitted)
                if not permitted:
                    return fail(403, "NOT_AUTHORIZED",
                                f"{user.username} lacks {privilege} on {system_id}:{path}")
            if not result["credentialPresent"]:
                return fail(403, "HOST_LOGIN_FAILED",
                            f"no credentials for {result['credentialUser']} on {system_id}",
                            system=system_id)
            if not self.rt.host_allows(system_id, result["credentialUser"], privilege):
                self.record("host-acl-denied", target=system_id,
                            user=result["credentialUser"], privilege=privilege)
                return fail(403, "HOST_DENIED",
                            f"host {system_id} refuses {privilege} to {result['credentialUser']}",
                            system=system_id)
            resolved.append({"system": system_id, "path": path,
                             "credentialUser": result["credentialUser"], "sac": result["sac"]})
        self.record("transfer", sac=bool(sac),
                    src=f"{legs[0][0]}:{legs[0][1]}", dst=f"{legs[1][0]}:{legs[1][1]}")
        return ok({"transferred": True, "legs": resolved}, message="transfer complete", status=201)

    def content(self, req, verdict, system, file_path):
        """Flagged route: serves no-authn shares when no token is presented."""
        token = req.header(TOKEN_HEADER)
        path = "/" + file_path.lstrip("/")
        if token:
            verdict = self.rt.validate(req, self.name)
            if not verdict.accepted:
                return rejection_response(verdict)
            user = verdict.effective_user
            if not self.permitted(user, user.username, f"files:{user.tenant}:read:{system}:{path}"):
                return fail(403, "NOT_AUTHORIZED", "no read permission")
            return ok({"system": system, "path": path, "content": "simulated-bytes"})
        if "files-content" not in self.rt.no_authn_routes:
            return fail(401, "REQUEST_VALIDATION_FAILED", "token required on this route")
        tenant = self.rt.registry.snapshot.by_host.get(req.host)
        if tenant is None:
            return fail(404, "UNKNOWN_TENANT", "cannot resolve tenant from host")
        if not self.rt.sharing.is_no_authn_shared(tenant.tenant_id, "path", f"{system}:{path}", "READ"):
            return fail(401, "REQUEST_VALIDATION_FAILED", "resource is not shared for URL access")
        self.record("no-authn-read", target=f"{system}:{path}")
        return ok({"system": system, "path": path, "content": "simulated-bytes"})


class JobsApp(_StubApp):
    name = "jobs"

    ROUTES = (
        ("POST", "/v3/jobs", "token", "submit"),
    )

    def __init__(self, runtime):
        super().__init__(runtime)
        self._counter = 0

    def submit(self, req, verdict, appId: str, archiveSystem: str = None, archiveDir: str = None):
        user = verdict.effective_user
        self._counter += 1
        job_id = f"job-{self.rt.site_id}-{self._counter}"
        steps = []

        def step(name, **detail):
            steps.append({"step": name, **detail})
            self.record(name, **detail)

        def failed(reason):
            step("job-failed", reason=reason)
            return ok({"jobId": job_id, "status": "FAILED", "reason": reason, "steps": steps})

        status, body = self.call("GET", f"/v3/apps/{appId}", user)
        if status != 200:
            return failed("application not accessible")
        app, grantor = body["result"]["definition"], body["result"]["sacGrantor"]
        step("application-retrieved", app=app["id"], sacGrantor=grantor)

        sac = {}
        if grantor and app["runAsSac"]:
            sac = {SAC_GRANTOR_HEADER: grantor, SAC_APP_HEADER: app["id"]}
            step("sac-established", grantor=grantor, app=app["id"])

        status, body = self.call("GET", f"/v3/systems/{app['execSystem']}", user,
                                 query={"privilege": "EXECUTE"}, headers=sac)
        if status != 200:
            return failed("execution system authorization failed")
        exec_result = body["result"]
        if not exec_result["credentialPresent"]:
            return failed(f"no credentials for {exec_result['credentialUser']} "
                          f"on {app['execSystem']}")
        step("execution-system-resolved", system=app["execSystem"],
             credentialUser=exec_result["credentialUser"], sac=exec_result["sac"])

        for entry in app.get("storage", ()):
            status, _ = self.call("POST", "/v3/files/transfers", user, headers=sac,
                                  json_body={"srcSystem": entry["system"], "srcPath": entry["path"],
                                             "dstSystem": app["execSystem"],
                                             "dstPath": f"/scratch/{job_id}/input"})
            if status != 201:
                return failed(f"stage-in from {entry['system']} failed")
            step("input-staged", src=entry["system"], path=entry["path"])

        if not self.rt.host_allows(app["execSystem"], exec_result["credentialUser"], "EXECUTE"):
            return failed(f"host {app['execSystem']} refuses execution "
                          f"to {exec_result['credentialUser']}")
        step("executed", system=app["execSystem"], runAs=exec_result["credentialUser"])

        if archiveSystem:
            status, _ = self.call(
                "POST", "/v3/files/transfers", user, headers=sac,
                json_body={"srcSystem": app["execSystem"],
                           "srcPath": f"/scratch/{job_id}/output.csv",
                           "dstSystem": archiveSystem,
                           "dstPath": f"{'/archive' if archiveDir is None else archiveDir}/output.csv"})
            if status != 201:
                return failed(f"archive to {archiveSystem} failed")
            step("archived", system=archiveSystem, dir=archiveDir)

        step("job-finished")
        return ok({"jobId": job_id, "status": "FINISHED", "steps": steps},
                  message="job complete", status=201)


STUB_APPS = (SystemsApp, AppsApp, FilesApp, JobsApp)
