"""Identity values shared across modules."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class UserIdentity:
    """An end user within one tenant."""

    username: str
    tenant: str

    def __post_init__(self):
        if not self.username or not self.tenant:
            raise ValueError("username and tenant must be non-empty")

    def subject(self) -> str:
        return f"{self.username}@{self.tenant}"


# Caller kinds, in rough order of privilege:
#   user      - an end user authenticated in some tenant
#   service   - a platform service, identified in a site's admin tenant
#   bootstrap - the sk-admin utility populating a fresh site
#   operator  - a site operator credential (backup/export paths)
CALLER_KINDS = ("user", "service", "bootstrap", "operator")


@dataclass(frozen=True)
class Caller:
    """Who is invoking an operation, for category/role policy checks."""

    name: str
    tenant: str
    kind: str = "user"

    def __post_init__(self):
        if self.kind not in CALLER_KINDS:
            raise ValueError(f"unknown caller kind {self.kind!r}")

    def subject(self) -> str:
        return f"{self.name}@{self.tenant}"


BOOTSTRAP = Caller(name="sk-admin", tenant="-", kind="bootstrap")
OPERATOR = Caller(name="operator", tenant="-", kind="operator")
