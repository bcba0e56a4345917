"""Signed tokens with per-tenant RSA keys.

Tokens travel as the standard three-segment base64url format (RS256:
RSA-2048 with SHA-256) so off-the-shelf verifiers interoperate. User
tokens carry no ``target_site``; service tokens always do, since a service
needs one token per site it talks to. Verification requires only a
registry snapshot holding the tenant's public key, never a network call.

Refresh tokens are single use: a consumed ``jti`` lands in a tombstone
list until the token expires, and any replay is rejected.
"""

from __future__ import annotations

import base64
import heapq
import json
import threading
import time
import uuid
from collections import OrderedDict
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import padding, rsa

from .errors import (
    BadCredentials,
    BadSignature,
    ExpiredToken,
    MalformedToken,
    NotAuthorized,
    ReusedToken,
    UnknownTenant,
    UnknownSite,
)
from .identity import Caller
from .rbac import TOKEN_GENERATOR_ROLE

DEFAULT_ACCESS_TTL = 4 * 3600.0
DEFAULT_REFRESH_TTL = 24 * 3600.0
RSA_KEY_BITS = 2048


def generate_keypair(bits: int = RSA_KEY_BITS) -> tuple[str, str]:
    """Fresh (private_pem, public_pem) pair for one tenant."""
    key = rsa.generate_private_key(public_exponent=65537, key_size=bits)
    private_pem = key.private_bytes(
        serialization.Encoding.PEM,
        serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption(),
    ).decode()
    public_pem = key.public_key().public_bytes(
        serialization.Encoding.PEM,
        serialization.PublicFormat.SubjectPublicKeyInfo,
    ).decode()
    return private_pem, public_pem


@dataclass(frozen=True)
class TokenClaims:
    jti: str
    sub: str
    tenant_id: str
    account_type: str           # "user" | "service"
    exp: float
    iat: float
    target_site: str | None = None
    token_use: str = "access"   # "access" | "refresh"
    iss: str = ""

    def __post_init__(self):
        if self.account_type not in ("user", "service"):
            raise MalformedToken(f"unknown account_type {self.account_type!r}")
        if (self.account_type == "service") != (self.target_site is not None):
            raise MalformedToken("target_site is present exactly on service tokens")
        if not self.sub.endswith("@" + self.tenant_id):
            raise MalformedToken("sub tenant suffix must equal tenant_id")
        if self.exp <= self.iat:
            raise MalformedToken("exp must be after iat")

    @property
    def username(self) -> str:
        return self.sub.rsplit("@", 1)[0]

    def to_payload(self) -> dict:
        payload = {
            "jti": self.jti,
            "sub": self.sub,
            "tenant_id": self.tenant_id,
            "account_type": self.account_type,
            "exp": self.exp,
            "iat": self.iat,
            "token_use": self.token_use,
            "iss": self.iss,
        }
        if self.target_site is not None:
            payload["target_site"] = self.target_site
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "TokenClaims":
        try:
            return cls(
                jti=payload["jti"],
                sub=payload["sub"],
                tenant_id=payload["tenant_id"],
                account_type=payload["account_type"],
                exp=float(payload["exp"]),
                iat=float(payload["iat"]),
                target_site=payload.get("target_site"),
                token_use=payload.get("token_use", "access"),
                iss=payload.get("iss", ""),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedToken(f"missing or invalid claim: {exc}") from exc


def _b64url(data: bytes) -> str:
    return base64.urlsafe_b64encode(data).decode().rstrip("=")


def _unb64url(text: str) -> bytes:
    return base64.urlsafe_b64decode(text + "=" * (-len(text) % 4))


# PEM parsing re-validates RSA key material and costs tens of milliseconds;
# key objects are immutable, so cache them by PEM text.
_private_key_cache = {}
_public_key_cache = {}


def _private_key_obj(private_pem: str):
    key = _private_key_cache.get(private_pem)
    if key is None:
        key = serialization.load_pem_private_key(private_pem.encode(), password=None)
        _private_key_cache[private_pem] = key
    return key


def _public_key_obj(public_pem: str):
    key = _public_key_cache.get(public_pem)
    if key is None:
        key = serialization.load_pem_public_key(public_pem.encode())
        _public_key_cache[public_pem] = key
    return key


def encode_token(claims: TokenClaims, private_pem: str) -> str:
    header = _b64url(json.dumps({"alg": "RS256", "typ": "JWT"}).encode())
    payload = _b64url(json.dumps(claims.to_payload(), sort_keys=True).encode())
    signing_input = f"{header}.{payload}".encode()
    signature = _private_key_obj(private_pem).sign(signing_input, padding.PKCS1v15(), hashes.SHA256())
    return f"{header}.{payload}.{_b64url(signature)}"


def peek_claims(token: str) -> TokenClaims:
    """Decode claims without verifying the signature."""
    if isinstance(token, bytes):
        token = token.decode("ascii", errors="replace")
    segments = token.split(".")
    if len(segments) != 3:
        raise MalformedToken("token must have three segments")
    try:
        payload = json.loads(_unb64url(segments[1]))
    except Exception as exc:
        raise MalformedToken(f"undecodable payload: {exc}") from exc
    return TokenClaims.from_payload(payload)


VERIFIED_LIMIT = 1024  # tokens whose verified claims ``verify`` keeps


class _VerifiedTokens:
    """Tokens that passed ``verify``, least recently used first, each with
    the tenant key PEM it verified under and its decoded claims."""

    def __init__(self, limit: int):
        self.limit = limit
        self._entries = OrderedDict()  # token -> (public_pem, claims)
        self._lock = threading.Lock()

    def __len__(self):
        return len(self._entries)

    def get(self, token: str):
        with self._lock:
            entry = self._entries.get(token)
            if entry is not None:
                self._entries.move_to_end(token)
            return entry

    def put(self, token: str, public_pem: str, claims: TokenClaims):
        with self._lock:
            # Evict before inserting: ``len`` reads without the lock and never sees limit + 1.
            if self._entries.pop(token, None) is None and len(self._entries) >= self.limit:
                self._entries.popitem(last=False)
            self._entries[token] = (public_pem, claims)


_verified = _VerifiedTokens(VERIFIED_LIMIT)


def _verify_signature(token: str, registry) -> tuple[str, TokenClaims]:
    """The tenant key PEM ``token`` verifies under, and its claims."""
    claims = peek_claims(token)
    public_pem = registry.get_public_key(claims.tenant_id)
    if not public_pem:
        raise UnknownTenant(f"no public key registered for tenant {claims.tenant_id!r}")
    header, payload, signature = token.split(".")
    try:
        key = _public_key_obj(public_pem)
        key.verify(_unb64url(signature), f"{header}.{payload}".encode(),
                   padding.PKCS1v15(), hashes.SHA256())
    except InvalidSignature as exc:
        raise BadSignature("signature does not verify under the tenant key") from exc
    except Exception as exc:
        raise MalformedToken(f"unverifiable token: {exc}") from exc
    return public_pem, claims


def verify(token, registry, clock=time.time) -> TokenClaims:
    """Verify signature under the tenant's registered public key and expiry.

    ``registry`` is any view exposing ``get_public_key(tenant_id)``.

    A token that verified before, under the key the registry holds now for
    its tenant, skips decoding and the RSA check: a changed or removed key
    falls through to the full check, and ``exp`` is checked on every call.
    Only tokens that passed every check are kept.
    """
    if isinstance(token, bytes):
        token = token.decode("ascii", errors="replace")
    entry = _verified.get(token)
    hit = entry is not None and registry.get_public_key(entry[1].tenant_id) == entry[0]
    public_pem, claims = entry if hit else _verify_signature(token, registry)
    if claims.exp <= clock():
        raise ExpiredToken("token expired")
    if not hit:
        _verified.put(token, public_pem, claims)
    return claims


@dataclass(frozen=True)
class TokenPair:
    access: str
    refresh: str


class MemoryTombstones:
    """Consumed refresh-token ``jti``s, each kept until its token's ``exp``.

    Past its ``exp`` a token already fails rule 1, so its entry is dropped
    and the set holds only refresh tokens that are still alive. ``clock``
    must be the clock that verifies the tokens.
    """

    def __init__(self, clock=time.time):
        self._clock = clock
        self._lock = threading.Lock()
        self._used = {}      # jti -> exp
        self._by_exp = []    # heap of (exp, jti), one per entry of _used

    def __len__(self):
        with self._lock:
            return len(self._used)

    def consume(self, jti: str, exp: float) -> bool:
        """Atomically mark jti used until exp; False when it already was."""
        with self._lock:
            if jti in self._used:
                return False
            self._prune()
            self._used[jti] = exp
            heapq.heappush(self._by_exp, (exp, jti))
            return True

    def _prune(self):
        now = self._clock()
        while self._by_exp and self._by_exp[0][0] <= now:
            del self._used[heapq.heappop(self._by_exp)[1]]


class TokenForge:
    """Per-site token issuance over the site's tenants.

    ``private_key_provider`` maps tenant_id -> private PEM (backed by the
    secrets store in deployments); only tenants owned by this site resolve.
    """

    def __init__(self, site_id, admin_tenant, private_key_provider, rbac, registry,
                 secrets=None, clock=time.time,
                 default_ttl=DEFAULT_ACCESS_TTL, refresh_ttl=DEFAULT_REFRESH_TTL):
        self.site_id = site_id
        self.admin_tenant = admin_tenant
        self._private_key = private_key_provider
        self.rbac = rbac
        self.registry = registry
        self.secrets = secrets
        self._clock = clock
        self.default_ttl = default_ttl
        self.refresh_ttl = refresh_ttl
        self.tombstones = MemoryTombstones(clock)

    def _issuer_url(self, tenant_id: str) -> str:
        try:
            return self.registry.get_tenant(tenant_id).token_service_url
        except Exception:
            return ""

    def _mint(self, sub, tenant_id, account_type, ttl, target_site=None, token_use="access") -> str:
        now = self._clock()
        claims = TokenClaims(
            jti=str(uuid.uuid4()),
            sub=sub,
            tenant_id=tenant_id,
            account_type=account_type,
            exp=now + ttl,
            iat=now,
            target_site=target_site,
            token_use=token_use,
            iss=self._issuer_url(tenant_id),
        )
        return encode_token(claims, self._private_key(tenant_id))

    # -- user tokens --

    def issue_user_token(self, requester: Caller, tenant: str, username: str,
                         ttl: float | None = None) -> str:
        self.registry.get_tenant(tenant)  # raises UnknownTenant
        if requester.kind == "user" and requester.tenant == tenant:
            subject = requester.name
        else:
            subject = requester.subject()
        if not self.rbac.subject_has_role(tenant, subject, TOKEN_GENERATOR_ROLE):
            raise NotAuthorized(f"{subject} does not hold {TOKEN_GENERATOR_ROLE} in {tenant!r}")
        return self._mint(f"{username}@{tenant}", tenant, "user", ttl or self.default_ttl)

    # -- service tokens --

    def issue_service_tokens(self, service_name: str, password: bytes, site: str,
                             target_sites) -> dict:
        if site != self.site_id:
            raise UnknownSite(f"this Tokens instance serves {self.site_id!r}, not {site!r}")
        if self.secrets is None or not self.secrets.validate_service_password(
            service_name, site, password,
            caller=Caller(name="tokens", tenant=self.admin_tenant, kind="service"),
        ):
            raise BadCredentials(f"bad service password for {service_name!r}")
        snap = self.registry.snapshot
        primary = snap.primary.site_id
        allowed = set(snap.sites) if site == primary else {site, primary}
        pairs = {}
        for target in target_sites:
            if not isinstance(target, str) or target not in snap.sites:
                raise UnknownSite(f"no site {target!r}")
            if target not in allowed:
                raise NotAuthorized(
                    f"services at associate site {site!r} may only target their site and the primary"
                )
            sub = f"{service_name}@{self.admin_tenant}"
            pairs[target] = TokenPair(
                access=self._mint(sub, self.admin_tenant, "service", self.default_ttl, target),
                refresh=self._mint(sub, self.admin_tenant, "service", self.refresh_ttl, target,
                                   token_use="refresh"),
            )
        return pairs

    # -- refresh --

    def refresh(self, refresh_token: str) -> TokenPair:
        claims = verify(refresh_token, self.registry, clock=self._clock)
        if claims.token_use != "refresh":
            raise MalformedToken("not a refresh token")
        if not self.tombstones.consume(claims.jti, claims.exp):
            raise ReusedToken("refresh token already used")
        target = claims.target_site
        ttl = self.default_ttl
        return TokenPair(
            access=self._mint(claims.sub, claims.tenant_id, claims.account_type, ttl, target),
            refresh=self._mint(claims.sub, claims.tenant_id, claims.account_type,
                               self.refresh_ttl, target, token_use="refresh"),
        )
