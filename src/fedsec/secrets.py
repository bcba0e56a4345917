"""Tenant-segregated secrets in five categories behind a pluggable backend.

Categories and their access policy (the full matrix is in ``_POLICY``):

* service passwords: written at bootstrap, never read back by services;
  the Tokens service of the same site may validate a candidate.
* DB credentials: written at bootstrap, readable by the owning service.
* system credentials: user login material written by the Systems service
  and shared only with Files and Jobs.
* signing keys: per-tenant token keys, writable by bootstrap and the
  security kernel, readable by the kernel and the Tokens start-up path.
* user secrets: free-form data readable and writable by the owner only.

Each secret is one backend entry: its key is the rendered path and its
value is one record, ``{"key": <path>, "versions": [{payload, created_at,
metadata}, ...]}``, oldest first, so version n is entry n - 1 and one
lookup says which versions exist. Records are encrypted at rest with a
site master key (authenticated symmetric encryption); backends only ever
see ciphertext. A record names the key it was written under, so a blob
copied to another key is refused. Every write appends a version and
replaces the record whole; old versions stay readable when pinned. A
backend offers ``get``, ``put``, ``items`` and ``ping``. Exports snapshot
the store without blocking writers and come back as one record per
version, wrapped in one authenticated-encryption envelope.
"""

from __future__ import annotations

import base64
import hmac
import json
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from cryptography.fernet import Fernet, InvalidToken

from .errors import (
    ExportFailed, NotAuthorized, NotFound, QuotaExceeded, SecretMisplaced, StoreUnreachable,
)
from .identity import Caller


class SecretCategory(str, Enum):
    SERVICE_PASSWORD = "service-password"
    DB_CREDENTIAL = "db-credential"
    SYSTEM_CREDENTIAL = "system-credential"
    SIGNING_KEY = "signing-key"
    USER_SECRET = "user-secret"


@dataclass(frozen=True)
class SecretPath:
    tenant: str
    category: SecretCategory
    owner: str
    name: str

    def render(self) -> str:
        return f"{self.tenant}/{self.category.value}/{self.owner}/{self.name}"


@dataclass
class SecretValue:
    payload: bytes
    created_at: float = 0.0
    metadata: dict = field(default_factory=dict)

    def __repr__(self):
        return f"SecretValue(payload=<redacted {len(self.payload)} bytes>, created_at={self.created_at})"


def _value(entry: dict) -> SecretValue:
    """One version entry of a stored record, decoded."""
    return SecretValue(base64.b64decode(entry["payload"]), entry["created_at"], entry["metadata"])


def generate_master_key() -> bytes:
    return Fernet.generate_key()


class MemoryKvBackend:
    """Ciphertext key/value map for the simulator and tests."""

    def __init__(self):
        self._data = {}

    def get(self, key):
        return self._data.get(key)

    def put(self, key, blob):
        self._data[key] = blob

    def items(self):
        return list(self._data.items())

    def ping(self):
        return True


class FileKvBackend:
    """One file per key under a directory; writes are atomic renames."""

    def __init__(self, root):
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreUnreachable(f"cannot open secrets directory {root}: {exc}") from exc

    def _file_for(self, key):
        encoded = base64.urlsafe_b64encode(key.encode()).decode().rstrip("=")
        return self.root / (encoded + ".bin")

    def _key_of(self, filename):
        encoded = filename[: -len(".bin")]
        encoded += "=" * (-len(encoded) % 4)
        return base64.urlsafe_b64decode(encoded).decode()

    def get(self, key):
        f = self._file_for(key)
        return f.read_bytes() if f.exists() else None

    def put(self, key, blob):
        f = self._file_for(key)
        tmp = f.with_suffix(".tmp")
        tmp.write_bytes(blob)
        tmp.replace(f)

    def items(self):
        return [(self._key_of(p.name), p.read_bytes()) for p in self.root.glob("*.bin")]

    def ping(self):
        return self.root.is_dir()


def _is_site_service(caller: Caller, admin_tenant: str, *names) -> bool:
    return caller.kind == "service" and caller.tenant == admin_tenant and caller.name in names


def _is_owner(caller: Caller, path: SecretPath) -> bool:
    return caller.kind in ("user", "service") and caller.name == path.owner and caller.tenant == path.tenant


# Category policy: (category, operation) -> predicate(caller, path, admin_tenant).
# A pair that is not listed is a deny.
_POLICY = {
    (SecretCategory.SERVICE_PASSWORD, "write"): lambda c, p, a: c.kind == "bootstrap",
    (SecretCategory.SERVICE_PASSWORD, "read"): lambda c, p, a: c.kind in ("bootstrap", "operator"),
    (SecretCategory.SERVICE_PASSWORD, "validate"): lambda c, p, a: _is_site_service(c, a, "tokens"),
    (SecretCategory.DB_CREDENTIAL, "write"): lambda c, p, a: c.kind == "bootstrap",
    (SecretCategory.DB_CREDENTIAL, "read"): lambda c, p, a: (
        c.kind in ("bootstrap", "operator") or _is_owner(c, p)
    ),
    (SecretCategory.SYSTEM_CREDENTIAL, "write"): lambda c, p, a: _is_site_service(c, a, "systems"),
    (SecretCategory.SYSTEM_CREDENTIAL, "read"): lambda c, p, a: _is_site_service(c, a, "systems", "files", "jobs"),
    (SecretCategory.SIGNING_KEY, "write"): lambda c, p, a: c.kind == "bootstrap",
    (SecretCategory.SIGNING_KEY, "read"): lambda c, p, a: (
        c.kind == "bootstrap" or _is_site_service(c, a, "tokens")
    ),
    (SecretCategory.USER_SECRET, "write"): lambda c, p, a: c.kind == "bootstrap" or _is_owner(c, p),
    (SecretCategory.USER_SECRET, "read"): lambda c, p, a: c.kind == "bootstrap" or _is_owner(c, p),
}


def category_allows(category: SecretCategory, operation: str, caller: Caller,
                    path: SecretPath, admin_tenant: str) -> bool:
    rule = _POLICY.get((category, operation))
    if rule is None:
        return False
    # Tenant segregation for user callers precedes any category rule: a
    # user scoped to tenant A never touches tenant B, even on allow paths.
    if caller.kind == "user" and caller.tenant != path.tenant:
        return False
    return rule(caller, path, admin_tenant)


class SecretsService:
    """Versioned, tenant-segregated secrets for one site."""

    def __init__(self, backend=None, master_key=None, site_id="site", admin_tenant="admin",
                 max_versions=None, clock=time.time):
        self.backend = backend if backend is not None else MemoryKvBackend()
        if master_key is None:
            master_key = generate_master_key()
        self.master_key = master_key
        self._fernet = Fernet(master_key)
        self.site_id = site_id
        self.admin_tenant = admin_tenant
        self.max_versions = max_versions
        self._clock = clock
        self._lock = threading.RLock()

    # -- plumbing --

    def _authorize(self, operation, path: SecretPath, caller: Caller):
        if not category_allows(path.category, operation, caller, path, self.admin_tenant):
            raise NotAuthorized(
                f"{caller.kind} {caller.subject()} may not {operation} {path.category.value} secrets"
            )

    def _encrypt(self, key: str, versions: list) -> bytes:
        return self._fernet.encrypt(json.dumps({"key": key, "versions": versions}).encode())

    def _decrypt(self, key: str, blob: bytes) -> list:
        """The version entries stored under ``key``; a blob encrypted for any
        other key (copied or moved within the backend) is refused."""
        record = json.loads(self._fernet.decrypt(blob))
        if record.get("key") != key:
            raise SecretMisplaced(f"the blob at {key} was encrypted for another key")
        return record["versions"]

    def _versions(self, path: SecretPath) -> list:
        """The version entries of the secret at ``path``, oldest first; empty
        when there is none. Needs no lock: a write replaces the record whole."""
        key = path.render()
        blob = self.backend.get(key)
        return [] if blob is None else self._decrypt(key, blob)

    # -- operations --

    def write_secret(self, path: SecretPath, value: SecretValue, caller: Caller) -> int:
        self._authorize("write", path, caller)
        with self._lock:
            versions = self._versions(path)
            if self.max_versions is not None and len(versions) >= self.max_versions:
                raise QuotaExceeded(f"{path.render()} reached {self.max_versions} versions")
            if not value.created_at:
                value = SecretValue(value.payload, self._clock(), dict(value.metadata))
            versions.append({"payload": base64.b64encode(value.payload).decode(),
                             "created_at": value.created_at, "metadata": value.metadata})
            key = path.render()
            self.backend.put(key, self._encrypt(key, versions))
        return len(versions)

    def read_secret(self, path: SecretPath, caller: Caller, version: int | None = None) -> SecretValue:
        self._authorize("read", path, caller)
        versions = self._versions(path)
        if version is None:
            if not versions:
                raise NotFound(f"no secret at {path.render()}")
            version = len(versions)
        if not 1 <= version <= len(versions):
            raise NotFound(f"no secret at {path.render()} version {version}")
        return _value(versions[version - 1])

    def exists(self, path: SecretPath, caller: Caller) -> bool:
        self._authorize("read", path, caller)
        return self.backend.get(path.render()) is not None

    def latest_version(self, path: SecretPath, caller: Caller) -> int:
        self._authorize("read", path, caller)
        versions = self._versions(path)
        if not versions:
            raise NotFound(f"no secret at {path.render()}")
        return len(versions)

    def validate_service_password(self, service_name: str, site: str, candidate: bytes,
                                  caller: Caller) -> bool:
        path = SecretPath(self.admin_tenant, SecretCategory.SERVICE_PASSWORD, service_name, "password")
        self._authorize("validate", path, caller)
        if site != self.site_id:
            raise NotAuthorized(f"this store serves site {self.site_id!r}, not {site!r}")
        versions = self._versions(path)
        if not versions:
            return False
        if isinstance(candidate, str):
            candidate = candidate.encode()
        return hmac.compare_digest(_value(versions[-1]).payload, candidate)

    def export_backup(self, scope: str, scope_id: str, caller: Caller) -> bytes:
        """Encrypted archive of all versions in a tenant or the whole site.

        The snapshot is taken under the write lock; serialization and
        encryption happen outside it, so writers are not blocked for the
        duration of the export.
        """
        if caller.kind != "operator":
            raise NotAuthorized("exports require an operator credential")
        if scope not in ("tenant", "site"):
            raise ExportFailed(f"unknown export scope {scope!r}")
        with self._lock:
            snapshot = self.backend.items()
        records = []
        for key, blob in snapshot:
            tenant = key.split("/", 1)[0]
            if scope == "tenant" and tenant != scope_id:
                continue
            for version, entry in enumerate(self._decrypt(key, blob), 1):
                records.append({"path": key, "version": version, **entry})
        records.sort(key=lambda r: (r["path"], r["version"]))
        return encrypt_backup(records, self.master_key)

    def ping(self) -> bool:
        try:
            return bool(self.backend.ping())
        except Exception:
            return False


def encrypt_backup(records, master_key: bytes) -> bytes:
    """The archive format: JSON records, one per line, in one authenticated-
    encryption envelope under ``master_key``."""
    lines = [json.dumps(r, sort_keys=True) for r in records]
    return Fernet(master_key).encrypt("\n".join(lines).encode())


def decrypt_backup(archive: bytes, master_key: bytes):
    """Decode an archive back into its records."""
    try:
        text = Fernet(master_key).decrypt(archive).decode()
    except InvalidToken as exc:
        raise ExportFailed("archive does not authenticate under this master key") from exc
    if not text:
        return []
    return [json.loads(line) for line in text.split("\n")]
