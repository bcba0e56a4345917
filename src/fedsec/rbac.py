"""Roles, role nesting, user assignments, and permission queries.

Roles are tenant-scoped and may contain child roles; the child relation
forms a forest of DAGs (a role can have many parents, never a cycle).
Assigning a role implicitly assigns every role reachable through child
edges. Roles also carry permission strings; ``is_permitted`` asks whether
any permission attached to any role in the user's effective closure
implies a concrete request.

``RbacService`` holds one site's policy: the federation bootstraps it from
config on every start. It rejects cycles and keeps no derived role state: a
query walks the child edges from the subject's own roles, at a cost set by
that subject's closure, not the tenant's size. Every read and every write of
a tenant's policy holds that tenant's lock, so a query sees each write whole
or not at all. Each grant is parsed once, when it is written, into one record
per role that is both its grant list and its matcher: a grant or revoke
changes the record in place.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field

from .errors import CycleDetected, MalformedPermission, NotAuthorized, RoleExists, UnknownRole
from .identity import Caller, UserIdentity
from .permissions import PermissionSpec, canonicalize, implies, parse_permission

AUDIT_LIMIT = 10_000  # audit entries a service keeps; older ones are dropped

# Reserved naming: "$$<username>" is the per-user default role; "$!" marks
# platform roles created at tenant creation. User-supplied names may use
# neither prefix.
DEFAULT_ROLE_PREFIX = "$$"
RESERVED_PREFIX = "$!"
TENANT_ADMIN_ROLE = "$!tenant_admin"
TOKEN_GENERATOR_ROLE = "$!token_generator"


@dataclass
class Role:
    name: str
    tenant: str
    owner: str
    description: str = ""
    children: set = field(default_factory=set)


def default_role_name(username: str) -> str:
    return DEFAULT_ROLE_PREFIX + username


def _reach(edges, start) -> set:
    """Every role reachable from the roles in ``start`` through child edges, themselves included."""
    seen, frontier = set(start), list(start)
    while frontier:
        for child in edges.get(frontier.pop(), ()):
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return seen


def _matcher_entry(spec: PermissionSpec, canon: str):
    """The spec of a wildcard or comma-set grant, or a concrete grant's extension
    prefix: the grant and the boundary a request extending it has after it, a
    part boundary (``:``), a directory boundary (``/``), or none for the root path."""
    if not spec.is_concrete():
        return spec
    if spec.path_tail is None:
        return canon + ":"
    return canon if spec.path_tail == "/" else canon + "/"


class _RoleGrants:
    """One role's grants, held once: both their store and their matcher.

    A concrete grant g implies a concrete canonical request r exactly when
    r == g or r starts with g's extension prefix, and r can equal only a
    concrete grant's canonical form. Grants carrying wildcards or comma sets
    fall back to the general matcher. Reads and writes hold the tenant lock.
    """

    __slots__ = ("entries", "prefixes", "general")

    def __init__(self):
        self.entries = {}    # canonical grant -> extension prefix or spec, insertion-ordered
        self.prefixes = []   # the extension prefix of each concrete grant
        self.general = []    # the spec of each wildcard or comma-set grant

    def add(self, canon: str, entry):
        if canon not in self.entries:
            self.entries[canon] = entry
            (self.prefixes if isinstance(entry, str) else self.general).append(entry)

    def remove(self, canon: str):
        entry = self.entries.pop(canon, None)
        if entry is not None:
            (self.prefixes if isinstance(entry, str) else self.general).remove(entry)

    def permits(self, canonical_required: str, required: PermissionSpec) -> bool:
        if canonical_required in self.entries:
            return True
        if any(canonical_required.startswith(p) for p in self.prefixes):
            return True
        return any(implies(g, required) for g in self.general)


class RbacService:
    """One site's roles, role edges, assignments and grants, and the decisions over them.

    Role rows, edges and assignments are keyed by tenant; grant records by
    ``(tenant, role)``. Every read and write holds the tenant's lock.
    """

    def __init__(self):
        self._roles = {}         # tenant -> {name: (owner, description)}
        self._edges = {}         # tenant -> {parent: set(children)}
        self._assignments = {}   # tenant -> {subject: {role: grantor}}
        self._grants = defaultdict(_RoleGrants)   # (tenant, role) -> _RoleGrants
        self.audit_log = deque(maxlen=AUDIT_LIMIT)
        self._tenant_locks = {}
        self._locks_guard = threading.Lock()

    def _lock(self, tenant) -> threading.RLock:
        lock = self._tenant_locks.get(tenant)
        if lock is None:
            with self._locks_guard:
                lock = self._tenant_locks.setdefault(tenant, threading.RLock())
        return lock

    def _row(self, tenant, name):
        """The role's (owner, description); UnknownRole when the tenant has no such role."""
        row = self._roles.get(tenant, {}).get(name)
        if row is None:
            raise UnknownRole(f"no role {name!r} in tenant {tenant!r}")
        return row

    # -- authorization helper --

    def _authorize_admin(self, tenant: str, caller: Caller | None):
        """Tenant admins, services, and internal paths may manage roles."""
        if caller is None or caller.kind in ("service", "bootstrap"):
            return
        if caller.kind == "user" and caller.tenant == tenant:
            with self._lock(tenant):
                if TENANT_ADMIN_ROLE in self._effective(tenant, caller.name):
                    return
        raise NotAuthorized(f"{caller.subject()} may not administer roles in tenant {tenant!r}")

    # -- role CRUD --

    def create_role(self, tenant, name, owner, description="", caller=None, _reserved_ok=False) -> Role:
        if not name:
            raise MalformedPermission("role name must be non-empty")
        if not _reserved_ok and (name.startswith(DEFAULT_ROLE_PREFIX) or name.startswith(RESERVED_PREFIX)):
            raise RoleExists(f"role name prefix {name[:2]!r} is reserved")
        self._authorize_admin(tenant, caller)
        with self._lock(tenant):
            roles = self._roles.setdefault(tenant, {})
            existing = roles.get(name)
            if existing is not None:
                if existing == (owner, description):
                    return self.get_role(tenant, name)
                raise RoleExists(f"role {name!r} already exists in {tenant!r} with different fields")
            roles[name] = (owner, description)
        return Role(name=name, tenant=tenant, owner=owner, description=description)

    def get_role(self, tenant, name) -> Role:
        with self._lock(tenant):
            owner, description = self._row(tenant, name)
            children = set(self._edges.get(tenant, {}).get(name, ()))
        return Role(name=name, tenant=tenant, owner=owner, description=description, children=children)

    def delete_role(self, tenant, name, caller=None):
        # Logins and role administration depend on the platform roles.
        if name.startswith(RESERVED_PREFIX):
            raise NotAuthorized(f"platform role {name!r} may not be deleted")
        self._authorize_admin(tenant, caller)
        with self._lock(tenant):
            self._row(tenant, name)
            del self._roles[tenant][name]
            edges = self._edges.get(tenant, {})
            edges.pop(name, None)
            for children in edges.values():
                children.discard(name)
            for by_subject in self._assignments.get(tenant, {}).values():
                by_subject.pop(name, None)
            self._grants.pop((tenant, name), None)
            self.audit_log.append((time.time(), tenant, "delete_role_cascade", name))

    def create_tenant_defaults(self, tenant):
        """Reserved roles every tenant carries from creation."""
        self.create_role(tenant, TENANT_ADMIN_ROLE, "security-kernel",
                         "tenant administration", _reserved_ok=True)
        self.create_role(tenant, TOKEN_GENERATOR_ROLE, "security-kernel",
                         "may mint user tokens in this tenant", _reserved_ok=True)

    # -- nesting --

    def add_child_role(self, tenant, parent, child, caller=None):
        self._authorize_admin(tenant, caller)
        with self._lock(tenant):
            self._row(tenant, parent)
            self._row(tenant, child)
            edges = self._edges.setdefault(tenant, {})
            if parent in _reach(edges, (child,)):
                raise CycleDetected(f"edge {parent!r} -> {child!r} would close a cycle")
            edges.setdefault(parent, set()).add(child)

    # -- assignments --

    def ensure_default_role(self, user: UserIdentity) -> Role:
        name = default_role_name(user.username)
        with self._lock(user.tenant):
            roles = self._roles.setdefault(user.tenant, {})
            roles.setdefault(name, (user.username, "default role"))
            self._assignments.setdefault(user.tenant, {}).setdefault(user.username, {})[name] = "system"
        return self.get_role(user.tenant, name)

    def grant_role(self, user: UserIdentity, role_name, grantor, caller=None):
        self._authorize_admin(user.tenant, caller)
        self.grant_role_to_subject(user.tenant, user.username, role_name, grantor)

    def grant_role_to_subject(self, tenant, subject, role_name, grantor):
        """Assignment keyed by an arbitrary subject string (service principals
        are granted tenant roles under their qualified name@tenant form)."""
        with self._lock(tenant):
            self._row(tenant, role_name)
            self._assignments.setdefault(tenant, {}).setdefault(subject, {})[role_name] = grantor

    def revoke_role(self, user: UserIdentity, role_name, caller=None):
        self._authorize_admin(user.tenant, caller)
        with self._lock(user.tenant):
            self._row(user.tenant, role_name)
            self._assignments.get(user.tenant, {}).get(user.username, {}).pop(role_name, None)

    # -- queries --

    def has_role(self, user: UserIdentity, role_name) -> bool:
        return self.subject_has_role(user.tenant, user.username, role_name)

    def subject_has_role(self, tenant, subject, role_name) -> bool:
        with self._lock(tenant):
            self._row(tenant, role_name)
            return role_name in self._effective(tenant, subject)

    def _effective(self, tenant, subject) -> set:
        """The subject's roles and every role they reach; the caller holds the tenant lock."""
        return _reach(self._edges.get(tenant, {}), self._assignments.get(tenant, {}).get(subject, ()))

    # -- permissions --

    def grant_permission(self, role_name, tenant, permission: str, caller=None):
        self._write_grant(role_name, tenant, permission, caller, granted=True)

    def revoke_permission(self, role_name, tenant, permission: str, caller=None):
        self._write_grant(role_name, tenant, permission, caller, granted=False)

    def _write_grant(self, role_name, tenant, permission, caller, granted):
        self._authorize_admin(tenant, caller)
        spec = parse_permission(permission)
        canon = canonicalize(spec)
        with self._lock(tenant):
            self._row(tenant, role_name)
            key = (tenant, role_name)
            if granted:
                self._grants[key].add(canon, _matcher_entry(spec, canon))
            elif key in self._grants:  # a revoke never creates an empty record
                self._grants[key].remove(canon)

    def role_grants(self, tenant, role) -> _RoleGrants | None:
        """The role's grant record, or None before its first grant; the caller holds the
        tenant lock while it reads the record."""
        return self._grants.get((tenant, role))

    def is_permitted(self, user: UserIdentity, required_permission: str) -> bool:
        return self.subject_is_permitted(user.tenant, user.username, required_permission)

    def subject_is_permitted(self, tenant, subject, required_permission: str) -> bool:
        required = parse_permission(required_permission)
        if not required.is_concrete():
            raise MalformedPermission(f"required permission must be concrete: {required_permission!r}")
        canonical = canonicalize(required)
        with self._lock(tenant):
            for role in self._effective(tenant, subject):
                grants = self.role_grants(tenant, role)
                if grants is not None and grants.permits(canonical, required):
                    return True
        return False
