"""Inbound service-request validation: seven ordered conditions.

Every service applies these checks to each request before doing any work.
Conditions are evaluated in a fixed order and the first failure wins, so
rejections carry a deterministic rule identifier ("1"-"5", "6a"/"6b",
"7a"-"7c") that tests and clients can match on.

    1  the token verifies under the public key of its tenant_id claim
       (expired, malformed, or unknown-tenant tokens also fail here);
    2  the receiving site runs the targeted service;
    3  requests targeting the security kernel or the token service must
       be in a tenant owned by the receiving site;
    4  when the primary receives a request in an associate-owned tenant,
       that associate must NOT run the targeted service (it should have
       been served locally);
    5  an associate site accepts requests only from the primary or from
       itself, never from another associate;
    6  user tokens: (a) no on-behalf-of headers, (b) never in an
       administrative tenant;
    7  service tokens: (a) both on-behalf-of headers present, (b) the
       target_site claim equals the receiving site, (c) the token lives
       in the admin tenant of a site that runs the sending service and is
       trusted for the on-behalf-of tenant (its owner, or the primary).

The sending site of a request is derived from the token: the site owning
the token's tenant (service identities live in their site's admin
tenant). Rule 5 therefore reads "owner of the token tenant must be the
primary or the receiving site itself"; a strictly-primary reading would
reject every associate-local request, including the associate's own
security kernel traffic, which rule 3 explicitly routes there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import SecurityError, UnknownTenant
from .identity import UserIdentity
from .tokens import TokenClaims, verify

TOKEN_HEADER = "X-Tapis-Token"
OBO_USER_HEADER = "X-Tapis-User"
OBO_TENANT_HEADER = "X-Tapis-Tenant"

SITE_LOCAL_SERVICES = frozenset({"security-kernel", "tokens"})


@dataclass(frozen=True)
class InboundRequest:
    token: str
    target_service: str
    receiving_site: str
    obo_user: str | None = None
    obo_tenant: str | None = None


@dataclass(frozen=True)
class ValidationVerdict:
    accepted: bool
    rule_violated: str | None = None
    effective_user: UserIdentity | None = None
    claims: TokenClaims | None = None
    message: str = ""

    def __post_init__(self):
        if self.accepted == (self.rule_violated is not None):
            raise ValueError("accepted iff no rule violated")


def _reject(rule: str, message: str) -> ValidationVerdict:
    return ValidationVerdict(accepted=False, rule_violated=rule, message=message)


def derive_sender_site(claims: TokenClaims, registry) -> str:
    """The site that sent a request: owner of the token's tenant."""
    return registry.resolve_site_for_tenant(claims.tenant_id).site_id


def validate_request(req: InboundRequest, registry, clock=time.time) -> ValidationVerdict:
    # Every rule reads the same snapshot, even if the registry refreshes meanwhile.
    registry = registry.snapshot
    # Rule 1: signature under the tenant key named in the token itself.
    try:
        claims = verify(req.token, registry, clock=clock)
    except SecurityError as exc:
        return _reject("1", exc.code)

    receiving = req.receiving_site
    try:
        receiving_cfg = registry.site(receiving)
    except SecurityError as exc:
        return _reject("2", exc.code)
    sender_site = derive_sender_site(claims, registry)
    primary = registry.primary.site_id

    # Rule 2: receiving site runs the target service.
    if req.target_service not in receiving_cfg.services:
        return _reject("2", f"site does not run {req.target_service}")

    # Rule 3: kernel and token traffic stays on the owning site.
    if req.target_service in SITE_LOCAL_SERVICES and sender_site != receiving:
        return _reject("3", "tenant not owned by receiving site")

    # Rule 4: the primary refuses work an associate should have served.
    if receiving == primary and sender_site != primary:
        if req.target_service in registry.site(sender_site).services:
            return _reject("4", "owning associate runs this service")

    # Rule 5: associates accept traffic only from the primary or themselves.
    if receiving != primary and sender_site not in (primary, receiving):
        return _reject("5", "sender is another associate")

    if claims.account_type == "user":
        # Rule 6a: user requests never carry on-behalf-of headers.
        if req.obo_user is not None or req.obo_tenant is not None:
            return _reject("6a", "on-behalf-of headers on a user token")
        # Rule 6b: end users never operate in administrative tenants.
        if registry.is_admin_tenant(claims.tenant_id):
            return _reject("6b", "user token in an administrative tenant")
        effective = UserIdentity(claims.username, claims.tenant_id)
        return ValidationVerdict(accepted=True, effective_user=effective, claims=claims)

    # Service token.
    # Rule 7a: the original requester must be identified.
    if not req.obo_user or not req.obo_tenant:
        return _reject("7a", "on-behalf-of headers missing")
    # Rule 7b: service tokens are minted per destination site.
    if claims.target_site != receiving:
        return _reject("7b", f"token targets {claims.target_site}, not the receiving site")
    # Rule 7c: the token's admin tenant must belong to a site that runs the
    # sending service and is trusted for the on-behalf-of tenant.
    if not registry.is_admin_tenant(claims.tenant_id):
        return _reject("7c", "service token outside an administrative tenant")
    token_site = sender_site
    if registry.admin_tenant_of(token_site) != claims.tenant_id:
        return _reject("7c", "token tenant is not its site's admin tenant")
    if not registry.service_runs_at(claims.username, token_site):
        return _reject("7c", "sending service does not run at the token's site")
    try:
        obo_owner = registry.resolve_site_for_tenant(req.obo_tenant).site_id
    except UnknownTenant:
        return _reject("7c", "unknown on-behalf-of tenant")
    if token_site != obo_owner and token_site != primary:
        return _reject("7c", "site not trusted for the on-behalf-of tenant")

    effective = UserIdentity(req.obo_user, req.obo_tenant)
    return ValidationVerdict(accepted=True, effective_user=effective, claims=claims)
