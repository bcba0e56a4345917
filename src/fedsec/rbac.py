"""Roles, role nesting, user assignments, and permission queries.

Roles are tenant-scoped and may contain child roles; the child relation
forms a forest of DAGs (a role can have many parents, never a cycle).
Assigning a role implicitly assigns every role reachable through child
edges. Roles also carry permission strings; ``is_permitted`` asks whether
any permission attached to any role in the user's effective closure
implies a concrete request.

Each site keeps its policy in an in-memory store that the federation
bootstraps from config on every start. The service layer on top handles
cycle rejection, closure memoization, and per-tenant write serialization,
so queries never observe a partially applied graph mutation. Each grant
is parsed once, when it is written. The store keeps one record per role
that is both its grant list and its matcher: a grant or revoke changes
the record in place, and a check reads it without taking a lock.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass, field

from .errors import CycleDetected, MalformedPermission, NotAuthorized, RoleExists, UnknownRole
from .identity import Caller, UserIdentity
from .permissions import (
    DEFAULT_REGISTRY,
    PermissionSpec,
    SchemaRegistry,
    canonicalize,
    implies,
    parse_permission,
)

AUDIT_LIMIT = 10_000  # audit entries a store keeps; older ones are dropped

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


def _reach(edges, start) -> frozenset:
    """Every role reachable from ``start`` through child edges, itself included."""
    seen, frontier = {start}, [start]
    while frontier:
        for child in edges.get(frontier.pop(), ()):
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return frozenset(seen)


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
    fall back to the general matcher. Writes hold the tenant lock; checks
    read without it. A revoke swaps in a filtered copy of ``prefixes``,
    because a ``list.remove`` under a reader's scan can make it skip another
    prefix. ``version`` counts finished writes.
    """

    __slots__ = ("entries", "prefixes", "general", "version")

    def __init__(self):
        self.entries = {}    # canonical grant -> extension prefix or spec, insertion-ordered
        self.prefixes = []   # the extension prefix of each concrete grant
        self.general = ()    # the spec of each wildcard or comma-set grant
        self.version = 0

    def add(self, canon: str, entry):
        if canon in self.entries:
            return
        self.entries[canon] = entry
        if isinstance(entry, str):
            self.prefixes.append(entry)
        else:
            self.general += (entry,)
        self.version += 1

    def remove(self, canon: str):
        entry = self.entries.pop(canon, None)
        if entry is None:
            return
        if isinstance(entry, str):
            self.prefixes = [p for p in self.prefixes if p is not entry]
        else:
            self.general = tuple(g for g in self.general if g is not entry)
        self.version += 1

    def permits(self, canonical_required: str, required: PermissionSpec) -> bool:
        if canonical_required in self.entries:
            return True
        if any(canonical_required.startswith(p) for p in self.prefixes):
            return True
        return any(implies(g, required) for g in self.general)


class MemoryRbacStore:
    """Dict-backed store of one site's roles, edges, assignments and grants."""

    def __init__(self):
        self._roles = {}         # (tenant, name) -> (owner, description)
        self._edges = {}         # tenant -> {parent: set(children)}
        self._assignments = {}   # tenant -> {subject: {role: grantor}}
        self._grants = defaultdict(_RoleGrants)   # (tenant, role) -> _RoleGrants
        self.audit_log = deque(maxlen=AUDIT_LIMIT)

    def get_role(self, tenant, name):
        return self._roles.get((tenant, name))

    def put_role(self, tenant, name, owner, description):
        self._roles[(tenant, name)] = (owner, description)

    def delete_role(self, tenant, name):
        self._roles.pop((tenant, name), None)
        edges = self._edges.get(tenant, {})
        edges.pop(name, None)
        for children in edges.values():
            children.discard(name)
        for by_subject in self._assignments.get(tenant, {}).values():
            by_subject.pop(name, None)
        self._grants.pop((tenant, name), None)

    def role_names(self, tenant):
        return [name for (t, name) in self._roles if t == tenant]

    def add_edge(self, tenant, parent, child):
        self._edges.setdefault(tenant, {}).setdefault(parent, set()).add(child)

    def edges(self, tenant):
        return {p: set(cs) for p, cs in self._edges.get(tenant, {}).items()}

    def add_assignment(self, tenant, subject, role, grantor):
        self._assignments.setdefault(tenant, {}).setdefault(subject, {})[role] = grantor

    def remove_assignment(self, tenant, subject, role):
        self._assignments.get(tenant, {}).get(subject, {}).pop(role, None)

    def assignments_of(self, tenant, subject):
        return set(self._assignments.get(tenant, {}).get(subject, {}))

    def add_permission(self, tenant, role, permission, entry):
        self._grants[(tenant, role)].add(permission, entry)

    def remove_permission(self, tenant, role, permission):
        self._grants[(tenant, role)].remove(permission)

    def permissions_of(self, tenant, role):
        grants = self._grants.get((tenant, role))
        return [] if grants is None else list(grants.entries)

    def role_grants(self, tenant, role) -> _RoleGrants | None:
        """The role's grant record, or None before its first write."""
        return self._grants.get((tenant, role))

    def audit(self, tenant, action, detail):
        self.audit_log.append((time.time(), tenant, action, detail))


class RbacService:
    """Role and permission decisions over a pluggable store."""

    def __init__(self, store=None, registry: SchemaRegistry = DEFAULT_REGISTRY):
        self.store = store if store is not None else MemoryRbacStore()
        self.registry = registry
        self._tenant_locks = {}
        self._locks_guard = threading.Lock()
        self._closures = {}   # tenant -> {role: frozenset(reachable incl. self)}

    def _lock(self, tenant) -> threading.RLock:
        with self._locks_guard:
            lock = self._tenant_locks.get(tenant)
            if lock is None:
                lock = self._tenant_locks[tenant] = threading.RLock()
            return lock

    def _invalidate_graph(self, tenant):
        self._closures.pop(tenant, None)

    # -- authorization helper --

    def _authorize_admin(self, tenant: str, caller: Caller | None):
        """Tenant admins, services, and internal paths may manage roles."""
        if caller is None or caller.kind in ("service", "sk", "bootstrap"):
            return
        if caller.kind == "user" and caller.tenant == tenant:
            admin = self.store.get_role(tenant, TENANT_ADMIN_ROLE)
            if admin is not None and self.has_role(UserIdentity(caller.name, tenant), TENANT_ADMIN_ROLE):
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
            existing = self.store.get_role(tenant, name)
            if existing is not None:
                if existing == (owner, description):
                    return self.get_role(tenant, name)
                raise RoleExists(f"role {name!r} already exists in {tenant!r} with different fields")
            self.store.put_role(tenant, name, owner, description)
            self._invalidate_graph(tenant)
        return Role(name=name, tenant=tenant, owner=owner, description=description)

    def get_role(self, tenant, name) -> Role:
        row = self.store.get_role(tenant, name)
        if row is None:
            raise UnknownRole(f"no role {name!r} in tenant {tenant!r}")
        owner, description = row
        children = self.store.edges(tenant).get(name, set())
        return Role(name=name, tenant=tenant, owner=owner, description=description, children=children)

    def delete_role(self, tenant, name, caller=None):
        self._authorize_admin(tenant, caller)
        with self._lock(tenant):
            if self.store.get_role(tenant, name) is None:
                raise UnknownRole(f"no role {name!r} in tenant {tenant!r}")
            self.store.delete_role(tenant, name)
            self.store.audit(tenant, "delete_role_cascade", name)
            self._invalidate_graph(tenant)

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
            for name in (parent, child):
                if self.store.get_role(tenant, name) is None:
                    raise UnknownRole(f"no role {name!r} in tenant {tenant!r}")
            if parent in _reach(self.store.edges(tenant), child):
                raise CycleDetected(f"edge {parent!r} -> {child!r} would close a cycle")
            self.store.add_edge(tenant, parent, child)
            self._invalidate_graph(tenant)

    def _closure_map(self, tenant):
        """Each role's reach, built on a miss under the tenant lock, which each write
        holds from its store change to its invalidation: no map predates a finished write."""
        closures = self._closures.get(tenant)
        if closures is None:
            with self._lock(tenant):
                closures = self._closures.get(tenant)
                if closures is None:
                    edges = self.store.edges(tenant)
                    closures = self._closures[tenant] = {
                        role: _reach(edges, role) for role in self.store.role_names(tenant)}
        return closures

    # -- assignments --

    def ensure_default_role(self, user: UserIdentity) -> Role:
        name = default_role_name(user.username)
        with self._lock(user.tenant):
            if self.store.get_role(user.tenant, name) is None:
                self.store.put_role(user.tenant, name, user.username, "default role")
                self._invalidate_graph(user.tenant)
            self.store.add_assignment(user.tenant, user.username, name, "system")
        return self.get_role(user.tenant, name)

    def grant_role(self, user: UserIdentity, role_name, grantor, caller=None):
        self._authorize_admin(user.tenant, caller)
        with self._lock(user.tenant):
            if self.store.get_role(user.tenant, role_name) is None:
                raise UnknownRole(f"no role {role_name!r} in tenant {user.tenant!r}")
            self.store.add_assignment(user.tenant, user.username, role_name, grantor)

    def grant_role_to_subject(self, tenant, subject, role_name, grantor):
        """Assignment keyed by an arbitrary subject string (service principals
        are granted tenant roles under their qualified name@tenant form)."""
        with self._lock(tenant):
            if self.store.get_role(tenant, role_name) is None:
                raise UnknownRole(f"no role {role_name!r} in tenant {tenant!r}")
            self.store.add_assignment(tenant, subject, role_name, grantor)

    def revoke_role(self, user: UserIdentity, role_name, caller=None):
        self._authorize_admin(user.tenant, caller)
        with self._lock(user.tenant):
            if self.store.get_role(user.tenant, role_name) is None:
                raise UnknownRole(f"no role {role_name!r} in tenant {user.tenant!r}")
            self.store.remove_assignment(user.tenant, user.username, role_name)

    # -- queries --

    def has_role(self, user: UserIdentity, role_name) -> bool:
        return self.subject_has_role(user.tenant, user.username, role_name)

    def subject_has_role(self, tenant, subject, role_name) -> bool:
        if self.store.get_role(tenant, role_name) is None:
            raise UnknownRole(f"no role {role_name!r} in tenant {tenant!r}")
        direct = self.store.assignments_of(tenant, subject)
        if role_name in direct:
            return True
        closures = self._closure_map(tenant)
        return any(role_name in closures.get(r, ()) for r in direct)

    def effective_roles(self, tenant, subject) -> frozenset:
        direct = self.store.assignments_of(tenant, subject)
        closures = self._closure_map(tenant)
        out = set()
        for r in direct:
            out |= closures.get(r, frozenset({r}))
        return frozenset(out)

    # -- permissions --

    def grant_permission(self, role_name, tenant, permission: str, caller=None):
        self._write_grant(role_name, tenant, permission, caller, granted=True)

    def revoke_permission(self, role_name, tenant, permission: str, caller=None):
        self._write_grant(role_name, tenant, permission, caller, granted=False)

    def _write_grant(self, role_name, tenant, permission, caller, granted):
        self._authorize_admin(tenant, caller)
        spec = parse_permission(permission, self.registry)
        canon = canonicalize(spec)
        with self._lock(tenant):
            if self.store.get_role(tenant, role_name) is None:
                raise UnknownRole(f"no role {role_name!r} in tenant {tenant!r}")
            if granted:
                self.store.add_permission(tenant, role_name, canon, _matcher_entry(spec, canon))
            else:
                self.store.remove_permission(tenant, role_name, canon)

    def is_permitted(self, user: UserIdentity, required_permission: str) -> bool:
        return self.subject_is_permitted(user.tenant, user.username, required_permission)

    def subject_is_permitted(self, tenant, subject, required_permission: str) -> bool:
        required = parse_permission(required_permission, self.registry)
        if not required.is_concrete():
            raise MalformedPermission(f"required permission must be concrete: {required_permission!r}")
        canonical = canonicalize(required)
        for role in self.effective_roles(tenant, subject):
            grants = self.store.role_grants(tenant, role)
            if grants is None:
                continue
            # A True read without the lock saw a grant the role held. A False read
            # during which a write to the role finished may mix parts of the role
            # from before and after several writes, so it is read again under the lock.
            version = grants.version
            if grants.permits(canonical, required):
                return True
            if grants.version != version:
                with self._lock(tenant):
                    if grants.permits(canonical, required):
                        return True
        return False
