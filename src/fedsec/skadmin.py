"""Idempotent site bootstrap: secret generation, export, and deploy order.

A site comes up in a fixed sequence: the secrets store first, then this
utility to generate what every service needs, then (primary) the tenant
registry or (associate) the manual admin-key handoff to the primary, then
the security kernel, the token service, the authenticator, and finally
everything else. ``check_deployment_order`` validates an event log against
that sequence.

Bootstrap generates four classes of secrets:

1. a signing key pair for every tenant owned by the site;
2. a service password for every service deployed at the site;
3. database credentials for those services;
4. any extra secrets listed in the configuration (LDAP binds and the like).

Re-running creates only what is missing; ``replace`` regenerates matching
paths as new versions. Exports emit either one encrypted file or a generic
key/value manifest with one document per secret for orchestrator-managed
deployments.
"""

from __future__ import annotations

import base64
import fnmatch
import json
import secrets as pysecrets
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigInvalid, DuplicateSite, ExportFailed, StoreUnreachable
from .identity import BOOTSTRAP
from .secrets import (
    SecretCategory,
    SecretPath,
    SecretsService,
    SecretValue,
    encrypt_backup,
)
from .tokens import generate_keypair

PASSWORD_BYTES = 32

PRIMARY_ORDER = (
    "deploy-vault",
    "run-sk-admin",
    "deploy-tenants",
    "deploy-sk",
    "deploy-tokens",
    "deploy-authenticator",
    "deploy-other-services",
)

ASSOCIATE_ORDER = (
    "deploy-vault",
    "run-sk-admin",
    "send-admin-key",
    "deploy-sk",
    "deploy-tokens",
    "deploy-authenticator",
    "deploy-other-services",
)

# Why the named event cannot run earlier than its canonical slot.
_ORDER_REASONS = {
    "deploy-vault": "the secrets store is deployed before everything else",
    "run-sk-admin": "sk-admin writes generated secrets into the store",
    "deploy-tenants": "the tenant registry serves keys generated by sk-admin",
    "send-admin-key": "the admin public key exists only after sk-admin runs",
    "deploy-sk": "the security kernel reads secrets and the tenant registry",
    "deploy-tokens": "Tokens depends on SK for the private key",
    "deploy-authenticator": "the authenticator acquires its tokens from the token service",
    "deploy-other-services": "remaining services come up after the security stack",
}


@dataclass(frozen=True)
class SecretSpec:
    category: SecretCategory
    owner: str
    name: str
    tenant: str | None = None

    @classmethod
    def from_dict(cls, d) -> "SecretSpec":
        return cls(category=SecretCategory(d["category"]), owner=d["owner"],
                   name=d["name"], tenant=d.get("tenant"))


@dataclass
class BootstrapConfig:
    site_id: str
    is_primary: bool
    admin_tenant: str
    tenants: list
    services: list
    secret_specs: list = field(default_factory=list)
    associate_admin_keys: dict = field(default_factory=dict)
    store_path: str = "vault-data"
    master_key_file: str = "vault-master.key"

    def __post_init__(self):
        if not self.site_id:
            raise ConfigInvalid("site_id is required")
        if not self.tenants:
            raise ConfigInvalid("at least one tenant (the admin tenant) is required")
        if self.admin_tenant not in self.tenants:
            raise ConfigInvalid("the admin tenant must appear in the tenants list")
        if not self.services:
            raise ConfigInvalid("at least one service is required")

    @classmethod
    def from_dict(cls, d) -> "BootstrapConfig":
        try:
            return cls(
                site_id=d["site_id"],
                is_primary=bool(d.get("is_primary", False)),
                admin_tenant=d["admin_tenant"],
                tenants=list(d.get("tenants", ())),
                services=list(d.get("services", ())),
                secret_specs=[SecretSpec.from_dict(s) for s in d.get("secret_specs", ())],
                associate_admin_keys=dict(d.get("associate_admin_keys", {})),
                store_path=d.get("store_path", "vault-data"),
                master_key_file=d.get("master_key_file", "vault-master.key"),
            )
        except KeyError as exc:
            raise ConfigInvalid(f"missing config field {exc}") from exc

    @classmethod
    def from_file(cls, path) -> "BootstrapConfig":
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalid(f"unreadable config {path}: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "site_id": self.site_id,
            "is_primary": self.is_primary,
            "admin_tenant": self.admin_tenant,
            "tenants": list(self.tenants),
            "services": list(self.services),
            "secret_specs": [
                {"category": s.category.value, "owner": s.owner, "name": s.name,
                 **({"tenant": s.tenant} if s.tenant else {})}
                for s in self.secret_specs
            ],
            "associate_admin_keys": dict(self.associate_admin_keys),
            "store_path": self.store_path,
            "master_key_file": self.master_key_file,
        }


@dataclass
class BootstrapReport:
    created: list = field(default_factory=list)
    skipped: list = field(default_factory=list)
    replaced: list = field(default_factory=list)
    public_keys: dict = field(default_factory=dict)

    def __post_init__(self):
        overlap = set(self.created) & set(self.skipped)
        if overlap:
            raise ConfigInvalid(f"paths both created and skipped: {sorted(overlap)}")

    def all_paths(self):
        return list(self.created) + list(self.skipped) + list(self.replaced)


def _new_password() -> bytes:
    return base64.urlsafe_b64encode(pysecrets.token_bytes(PASSWORD_BYTES))


def _planned_secrets(config: BootstrapConfig):
    """(path, generator) for every secret the site must hold."""
    plan = []
    for tenant in config.tenants:
        path = SecretPath(tenant, SecretCategory.SIGNING_KEY, "sk", "keypair")
        plan.append((path, _keypair_payload))
    for service in config.services:
        plan.append((SecretPath(config.admin_tenant, SecretCategory.SERVICE_PASSWORD,
                                service, "password"), lambda: _new_password()))
        plan.append((SecretPath(config.admin_tenant, SecretCategory.DB_CREDENTIAL,
                                service, "database"), lambda: _new_password()))
    for spec in config.secret_specs:
        plan.append((SecretPath(spec.tenant or config.admin_tenant, spec.category,
                                spec.owner, spec.name), lambda: _new_password()))
    return plan


def _keypair_payload() -> bytes:
    private_pem, public_pem = generate_keypair()
    return json.dumps({"private": private_pem, "public": public_pem}).encode()


def run_bootstrap(config: BootstrapConfig, secrets: SecretsService,
                  replace: str | None = None) -> BootstrapReport:
    """Ensure every planned secret exists; never recreate what is present
    unless its path matches the ``replace`` pattern."""
    if not secrets.ping():
        raise StoreUnreachable("secrets store did not answer")
    report = BootstrapReport()
    for path, generate in _planned_secrets(config):
        rendered = path.render()
        exists = secrets.exists(path, BOOTSTRAP)
        if exists and replace and fnmatch.fnmatch(rendered, replace):
            secrets.write_secret(path, SecretValue(generate()), BOOTSTRAP)
            report.replaced.append(rendered)
        elif exists:
            report.skipped.append(rendered)
        else:
            secrets.write_secret(path, SecretValue(generate()), BOOTSTRAP)
            report.created.append(rendered)
        if path.category is SecretCategory.SIGNING_KEY:
            payload = secrets.read_secret(path, BOOTSTRAP).payload
            report.public_keys[path.tenant] = json.loads(payload)["public"]
    # Associate admin keys handed to a primary live in the registry, not the
    # store; surface them alongside the site's own keys.
    report.public_keys.update(config.associate_admin_keys)
    return report


def export_secrets(report: BootstrapReport, secrets: SecretsService, target: str,
                   out_path) -> Path:
    """Write the bootstrap secrets to a deployment artifact."""
    paths = report.all_paths() if report is not None else []
    if not paths:
        raise ExportFailed("nothing to export; run bootstrap first")
    records = []
    for rendered in sorted(set(paths)):
        tenant, category, owner, name = rendered.split("/")
        path = SecretPath(tenant, SecretCategory(category), owner, name)
        value = secrets.read_secret(path, BOOTSTRAP)
        records.append({
            "name": rendered.replace("/", "."),
            "path": rendered,
            "version": secrets.latest_version(path, BOOTSTRAP),
            "data": {"value": base64.b64encode(value.payload).decode()},
        })
    out = Path(out_path)
    if target == "orchestrator-secrets":
        out.write_text(json.dumps({"secrets": records}, indent=2, sort_keys=True))
    elif target == "encrypted-file":
        out.write_bytes(encrypt_backup(records, secrets.master_key))
    else:
        raise ExportFailed(f"unknown export target {target!r}")
    return out


def exchange_associate_key(assoc_site_id: str, public_key_pem: str,
                           primary_config: BootstrapConfig) -> BootstrapConfig:
    """Add an associate's admin public key to the primary's configuration.

    The associate operator sends the key out of band; re-running bootstrap
    on the primary and reloading the tenant registry then serves it.
    """
    if not primary_config.is_primary:
        raise ConfigInvalid("keys are exchanged into the primary site's configuration")
    if assoc_site_id in primary_config.associate_admin_keys:
        raise DuplicateSite(f"site {assoc_site_id!r} already exchanged a key")
    updated = dict(primary_config.associate_admin_keys)
    updated[assoc_site_id] = public_key_pem
    cfg = BootstrapConfig(**{**primary_config.to_dict(), "associate_admin_keys": updated,
                             "secret_specs": primary_config.secret_specs})
    return cfg


@dataclass(frozen=True)
class OrderCheck:
    ok: bool
    violation: str | None = None
    step_index: int | None = None


def check_deployment_order(events, site_kind: str) -> OrderCheck:
    """Validate a deploy-event sequence against the canonical site order."""
    if site_kind not in ("primary", "associate"):
        return OrderCheck(False, f"unknown site kind {site_kind!r}", None)
    expected = PRIMARY_ORDER if site_kind == "primary" else ASSOCIATE_ORDER
    if site_kind == "associate" and "deploy-tenants" in events:
        return OrderCheck(False, "associate sites never run the tenants service",
                          list(events).index("deploy-tenants"))
    for i, event in enumerate(events):
        if i >= len(expected):
            return OrderCheck(False, f"unexpected trailing step {event!r}", i)
        if event != expected[i]:
            reason = _ORDER_REASONS.get(event, "")
            return OrderCheck(False, f"step {i + 1} must be {expected[i]!r}, got {event!r}"
                                     + (f": {reason}" if reason else ""), i)
    if len(events) < len(expected):
        return OrderCheck(False, f"sequence ends before {expected[len(events)]!r}", len(events))
    return OrderCheck(True)
