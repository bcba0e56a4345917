"""Per-site routing decision: serve locally or hand to the primary.

DNS (simulated by a host table) resolves every tenant's base URL to the
router of the site owning that tenant. The router extracts the target
service from the ``/v3/<service>/...`` path segment and serves the
request locally when the service is deployed at this site; an associate
forwards everything else to the primary. Requests never hop between two
associates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import PrimaryUnreachable


class RouteKind(str, Enum):
    LOCAL = "local"
    FORWARD_TO_PRIMARY = "forward-to-primary"
    REJECT = "reject"


#: First path segment after /v3/ -> canonical service name.
PATH_SERVICE_NAMES = {
    "security": "security-kernel",
}


@dataclass(frozen=True)
class RouteDecision:
    kind: RouteKind
    service: str | None = None
    reason: str | None = None


def extract_service(url_path: str) -> str | None:
    segments = [s for s in url_path.split("/") if s]
    if len(segments) < 2 or segments[0] != "v3":
        return None
    return PATH_SERVICE_NAMES.get(segments[1], segments[1])


def route(tenant_host: str, url_path: str, registry, at_site: str | None = None) -> RouteDecision:
    """Routing decision for a request to ``tenant_host`` arriving at ``at_site``.

    ``at_site`` defaults to the tenant's owning site (the normal DNS path).
    The primary serves every known service locally; an associate serves
    its own tenants and forwards undeployed services to the primary. A
    request for a tenant the receiving associate does not own is a DNS
    misconfiguration and is rejected.
    """
    service = extract_service(url_path)
    if service is None:
        return RouteDecision(RouteKind.REJECT, None, f"no service in path {url_path!r}")

    snap = registry.snapshot
    tenant = snap.by_host.get(tenant_host)
    if tenant is None:
        return RouteDecision(RouteKind.REJECT, service, f"unknown tenant host {tenant_host!r}")

    primary = snap.primary
    if service not in primary.services:
        return RouteDecision(RouteKind.REJECT, service, f"unknown service {service!r}")

    owning_site = tenant.owning_site
    if at_site is None:
        at_site = owning_site

    if at_site == primary.site_id:
        return RouteDecision(RouteKind.LOCAL, service)

    if at_site != owning_site:
        return RouteDecision(RouteKind.REJECT, service, "tenant is not served at this site")
    if snap.service_runs_at(service, at_site):
        return RouteDecision(RouteKind.LOCAL, service)
    return RouteDecision(RouteKind.FORWARD_TO_PRIMARY, service)


def forward(request, decision: RouteDecision, transport):
    """Relay a forwarded request through ``transport`` unmodified.

    ``transport`` performs the actual hop to the primary router (the
    simulator injects link latency there) and returns the response.
    """
    if decision.kind is not RouteKind.FORWARD_TO_PRIMARY:
        raise ValueError("forward() requires a forward-to-primary decision")
    try:
        return transport(request)
    except PrimaryUnreachable:
        raise
    except Exception as exc:
        raise PrimaryUnreachable(f"forwarding failed: {exc}") from exc

