"""Authoritative model of sites, tenants, base URLs, and signing keys.

The registry is loaded from a declarative JSON document with top-level
``sites`` and ``tenants`` arrays into one fully validated, immutable
snapshot. Nothing changes it at runtime: every tenant and signing key a
site serves comes from the topology and ``sk-admin`` when the site starts.
A key rotation is ``sk-admin bootstrap --replace`` followed by a restart,
which loads a new snapshot.

Associate sites do not own a registry; they cache the primary's through
``CachedRegistryView`` with a fixed refresh interval.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from .errors import TopologyInvalid, UnknownSite, UnknownTenant

REQUIRED_SITE_SERVICES = frozenset({"tokens", "authenticator", "security-kernel"})
TENANTS_SERVICE = "tenants"

#: Associate caches refresh on this fixed interval (seconds).
REGISTRY_REFRESH_SECONDS = 300.0


@dataclass(frozen=True)
class SiteConfig:
    site_id: str
    is_primary: bool
    admin_tenant: str
    services: frozenset
    base_host: str

    @classmethod
    def from_dict(cls, d) -> "SiteConfig":
        return cls(
            site_id=d["site_id"],
            is_primary=bool(d.get("is_primary", False)),
            admin_tenant=d["admin_tenant"],
            services=frozenset(d.get("services", ())),
            base_host=d.get("base_host", d["site_id"] + ".sim"),
        )

    def to_dict(self) -> dict:
        return {
            "site_id": self.site_id,
            "is_primary": self.is_primary,
            "admin_tenant": self.admin_tenant,
            "services": sorted(self.services),
            "base_host": self.base_host,
        }


@dataclass(frozen=True)
class TenantRecord:
    tenant_id: str
    owning_site: str
    base_url: str
    public_key: str = ""
    token_service_url: str = ""
    is_admin_tenant: bool = False

    @classmethod
    def from_dict(cls, d) -> "TenantRecord":
        base_url = d.get("base_url") or f"http://{d['tenant_id']}.sim"
        return cls(
            tenant_id=d["tenant_id"],
            owning_site=d["owning_site"],
            base_url=base_url,
            public_key=d.get("public_key", ""),
            token_service_url=d.get("token_service_url", base_url.rstrip("/") + "/v3/tokens"),
            is_admin_tenant=bool(d.get("is_admin_tenant", False)),
        )

    def to_dict(self) -> dict:
        return {
            "tenant_id": self.tenant_id,
            "owning_site": self.owning_site,
            "base_url": self.base_url,
            "public_key": self.public_key,
            "token_service_url": self.token_service_url,
            "is_admin_tenant": self.is_admin_tenant,
        }

    @property
    def host(self) -> str:
        return self.base_url.split("//", 1)[-1].split("/", 1)[0]


class RegistryView:
    """The registry queries, each answered from ``self.snapshot``.

    A caller making one decision reads ``snapshot`` once and queries that
    object, so the whole decision sees one topology even if an associate's
    cache refreshes meanwhile.
    """

    snapshot: "RegistrySnapshot"

    def get_tenant(self, tenant_id: str) -> TenantRecord:
        rec = self.snapshot.tenants.get(tenant_id)
        if rec is None:
            raise UnknownTenant(f"no tenant {tenant_id!r}")
        return rec

    def list_tenants(self):
        return sorted(self.snapshot.tenants.values(), key=lambda t: t.tenant_id)

    def get_public_key(self, tenant_id: str) -> str:
        return self.get_tenant(tenant_id).public_key

    def resolve_site_for_tenant(self, tenant_id: str) -> SiteConfig:
        snap = self.snapshot
        return snap.sites[snap.get_tenant(tenant_id).owning_site]

    def site(self, site_id: str) -> SiteConfig:
        cfg = self.snapshot.sites.get(site_id)
        if cfg is None:
            raise UnknownSite(f"no site {site_id!r}")
        return cfg

    def service_runs_at(self, service: str, site_id: str) -> bool:
        return service in self.site(site_id).services

    def primary_site(self) -> SiteConfig:
        return self.snapshot.primary

    def admin_tenant_of(self, site_id: str) -> str:
        return self.site(site_id).admin_tenant

    def is_admin_tenant(self, tenant_id: str) -> bool:
        rec = self.snapshot.tenants.get(tenant_id)
        return rec is not None and rec.is_admin_tenant

    def age(self) -> float | None:
        """Seconds since the snapshot was fetched; None for an authoritative registry."""
        return None


class RegistrySnapshot(RegistryView):
    """Immutable, validated view of the whole federation topology."""

    def __init__(self, sites, tenants):
        self.sites = {s.site_id: s for s in sites}
        self.tenants = {t.tenant_id: t for t in tenants}
        self._validate()

    @property
    def snapshot(self) -> "RegistrySnapshot":
        return self

    def _validate(self):
        primaries = [s for s in self.sites.values() if s.is_primary]
        if len(primaries) != 1:
            raise TopologyInvalid(f"exactly one primary site required, found {len(primaries)}")
        self.primary = primary = primaries[0]

        known_services = set(REQUIRED_SITE_SERVICES) | {TENANTS_SERVICE}
        for site in self.sites.values():
            known_services |= site.services
        for site in self.sites.values():
            missing = REQUIRED_SITE_SERVICES - site.services
            if missing:
                raise TopologyInvalid(f"site {site.site_id!r} must run {sorted(missing)}")
            if not site.is_primary and TENANTS_SERVICE in site.services:
                raise TopologyInvalid(f"associate site {site.site_id!r} may not run the tenants service")
        if known_services - primary.services:
            raise TopologyInvalid(
                f"primary site must run every known service, missing {sorted(known_services - primary.services)}"
            )

        # DNS resolves a tenant by the host of its base URL, so hosts are unique.
        self.by_host = {}
        for t in self.tenants.values():
            if t.owning_site not in self.sites:
                raise TopologyInvalid(f"tenant {t.tenant_id!r} owned by unknown site {t.owning_site!r}")
            other = self.by_host.setdefault(t.host, t)
            if other is not t:
                raise TopologyInvalid(f"tenants {other.tenant_id!r} and {t.tenant_id!r} share host {t.host!r}")

        admin_tenants = {s.admin_tenant for s in self.sites.values()}
        for site in self.sites.values():
            rec = self.tenants.get(site.admin_tenant)
            if rec is None or not rec.is_admin_tenant:
                raise TopologyInvalid(f"admin tenant {site.admin_tenant!r} of site {site.site_id!r} missing")
            if rec.owning_site != site.site_id:
                raise TopologyInvalid(f"admin tenant {site.admin_tenant!r} must be owned by {site.site_id!r}")
        for t in self.tenants.values():
            if t.is_admin_tenant and t.tenant_id not in admin_tenants:
                raise TopologyInvalid(f"tenant {t.tenant_id!r} flagged administrative but no site claims it")


def load_config(doc: dict) -> RegistrySnapshot:
    """Build a snapshot from the configuration document's sites/tenants arrays."""
    sites = [SiteConfig.from_dict(d) for d in doc.get("sites", ())]
    tenants = [TenantRecord.from_dict(d) for d in doc.get("tenants", ())]
    return RegistrySnapshot(sites, tenants)


class Registry(RegistryView):
    """The primary site's registry: a holder of its one snapshot."""

    def __init__(self, snapshot: RegistrySnapshot):
        self.snapshot = snapshot


class CachedRegistryView(RegistryView):
    """An associate site's cached copy of the primary registry.

    ``fetch`` returns a fresh RegistrySnapshot; the cache refetches it once
    ``refresh_seconds`` have passed since the last attempt and reports the
    age of the last successful fetch so health checks can flag staleness.
    A failed refetch keeps serving the stale snapshot and waits another
    ``refresh_seconds`` before trying again. One reader claims each
    interval's attempt and fetches outside the lock; meanwhile every other
    reader gets the current snapshot at once.
    """

    def __init__(self, fetch, refresh_seconds: float = REGISTRY_REFRESH_SECONDS, clock=time.time):
        self._fetch = fetch
        self.refresh_seconds = refresh_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._snapshot = None
        self._fetched_at = None
        self._attempted_at = None

    @property
    def snapshot(self) -> RegistrySnapshot:
        with self._lock:
            now = self._clock()
            current = self._snapshot
            if current is not None and now - self._attempted_at < self.refresh_seconds:
                return current
            self._attempted_at = now
        try:
            fresh = self._fetch()
        except Exception:
            if current is None:
                raise
            return current
        with self._lock:
            if self._fetched_at is None or self._fetched_at <= now:  # never publish an older fetch
                self._snapshot, self._fetched_at = fresh, now
            return self._snapshot

    def age(self) -> float:
        if self._fetched_at is None:
            return float("inf")
        return self._clock() - self._fetched_at
