"""Share grants and shared application contexts (SACs).

A share lets a grantor extend access to one resource; the distinguished
grantees ``~public`` (every user in the tenant) and ``~public-no-authn``
(unauthenticated URL access, honored only by specially flagged routes)
widen the audience. Each site's security kernel stores its tenants'
shares here and answers isSharedWith from them; services ask that kernel
rather than a store of their own. The apps service checks an application
share at share time (``sim.stubs.AppsApp.share_app``).

A SAC is the runtime form of an application share: while a job runs,
the resources named in the application definition resolve through the
grantor's authorizations. Resolution asks one callback, the resource
service's own access check (ownership, a permission, or a share), first
for the grantor and then, when the grantor's access has lapsed, for the
requester; with neither the access is denied. Resources absent from the
application definition never resolve through the SAC path.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum

from .errors import NotAuthorized, NotFound, ResourceNotInSac
from .identity import Caller

PUBLIC_TENANT = "~public"
NO_AUTHN = "~public-no-authn"

PRIVILEGES = ("READ", "EXECUTE", "MODIFY")
RESOURCE_TYPES = ("application", "system", "path")

SAC_GRANTOR_HEADER = "X-Tapis-Sac-Grantor"
SAC_APP_HEADER = "X-Tapis-Sac-App"


def share_privilege(value) -> str:
    """Field converter: one of ``PRIVILEGES``, as a request names it."""
    if value not in PRIVILEGES:
        raise ValueError(f"must be one of {', '.join(PRIVILEGES)}")
    return value


@dataclass(frozen=True)
class ShareGrant:
    tenant: str
    grantor: str
    grantee: str
    resource_type: str
    resource_id: str
    privilege: str

    def __post_init__(self):
        if self.grantor == self.grantee:
            raise NotAuthorized("grantor and grantee must differ")
        if self.privilege not in PRIVILEGES:
            raise NotFound(f"unknown privilege {self.privilege!r}")
        if self.resource_type not in RESOURCE_TYPES:
            raise NotFound(f"unknown resource type {self.resource_type!r}")


def _resource_key(grant: ShareGrant):
    return grant.tenant, grant.resource_type, grant.resource_id, grant.privilege


@dataclass(frozen=True)
class SacDescriptor:
    grantor: str
    app_id: str
    shared_resources: frozenset  # of (resource_type, resource_id, path-or-None)

    def contains(self, resource_type: str, resource_id: str) -> bool:
        return any(rt == resource_type and rid == resource_id
                   for rt, rid, _ in self.shared_resources)


class AccessOutcome(str, Enum):
    GRANTOR_AUTHORIZED = "grantor-authorized"
    GRANTEE_AUTHORIZED = "grantee-authorized"
    DENIED = "denied"


class SharingService:
    """Grant storage plus SAC resolution; mutations serialize per tenant."""

    def __init__(self):
        # (tenant, resource_type, resource_id, privilege) -> {grant: None},
        # in insertion order, so the earliest grantor wins ties
        self._grants = {}
        self._lock = threading.RLock()

    # -- grants --

    def create_share(self, grant: ShareGrant, caller: Caller):
        """Record a grant; only its grantor may."""
        if not (caller.name == grant.grantor and caller.tenant == grant.tenant):
            raise NotAuthorized("only the grantor may create a share")
        with self._lock:
            self._grants.setdefault(_resource_key(grant), {})[grant] = None

    def revoke_share(self, grant: ShareGrant, caller: Caller, is_tenant_admin=lambda c: False):
        if caller.kind == "user" and caller.name != grant.grantor and not is_tenant_admin(caller):
            raise NotAuthorized("only the grantor or a tenant admin may revoke")
        key = _resource_key(grant)
        with self._lock:
            grants = self._grants.get(key, {})
            if grant not in grants:
                raise NotFound("no such share grant")
            del grants[grant]
            if not grants:
                del self._grants[key]

    def list_shares(self, tenant: str):
        with self._lock:
            return [g for grants in self._grants.values() for g in grants if g.tenant == tenant]

    # -- queries --

    def _grants_on(self, tenant, resource_type, resource_id, privilege):
        """Every grant of ``privilege`` on one resource, earliest first."""
        with self._lock:
            return list(self._grants.get((tenant, resource_type, resource_id, privilege), ()))

    def is_shared_with(self, tenant, resource_type, resource_id, user, privilege):
        """(shared, grantor) for a direct or tenant-public grant."""
        for g in self._grants_on(tenant, resource_type, resource_id, privilege):
            if g.grantee in (user, PUBLIC_TENANT):
                return True, g.grantor
        return False, None

    def is_no_authn_shared(self, tenant, resource_type, resource_id, privilege) -> bool:
        """Only routes flagged for unauthenticated access consult this."""
        return any(g.grantee == NO_AUTHN
                   for g in self._grants_on(tenant, resource_type, resource_id, privilege))

    # -- SAC resolution --

    def resolve_sac_access(self, sac: SacDescriptor, requesting_user: str,
                           resource, privilege: str, authorized) -> AccessOutcome:
        """Runtime SAC check for one resource (a (type, id) pair).

        ``authorized(user, resource_type, resource_id, privilege)`` is the
        resource service's whole access check, shares included; it is asked
        for the grantor, then for the requester. Nothing is cached: every
        call reflects the grant and permission state at this instant.
        """
        resource_type, resource_id = resource[0], resource[1]
        if not sac.contains(resource_type, resource_id):
            raise ResourceNotInSac(
                f"{resource_type} {resource_id!r} is not named in application {sac.app_id!r}")
        if authorized(sac.grantor, resource_type, resource_id, privilege):
            return AccessOutcome.GRANTOR_AUTHORIZED
        if authorized(requesting_user, resource_type, resource_id, privilege):
            return AccessOutcome.GRANTEE_AUTHORIZED
        return AccessOutcome.DENIED
