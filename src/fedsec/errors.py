"""Exception taxonomy shared by every module.

Each error carries a stable machine-readable ``code`` so HTTP bindings can
surface it in response envelopes without string matching.
"""


class SecurityError(Exception):
    """Base class; ``code`` is stable across releases."""

    code = "SECURITY_ERROR"
    http_status = 400

    def __init__(self, message: str = ""):
        super().__init__(message or self.__class__.__name__)
        self.message = message or self.__class__.__name__


# --- permission engine ---

class MalformedPermission(SecurityError):
    code = "MALFORMED_PERMISSION"


class SchemaMismatch(SecurityError):
    code = "SCHEMA_MISMATCH"


# --- rbac ---

class NotAuthorized(SecurityError):
    code = "NOT_AUTHORIZED"
    http_status = 403


class RoleExists(SecurityError):
    code = "ROLE_EXISTS"
    http_status = 409


class UnknownRole(SecurityError):
    code = "UNKNOWN_ROLE"
    http_status = 404


class CycleDetected(SecurityError):
    code = "CYCLE_DETECTED"
    http_status = 409


# --- registry / topology ---

class UnknownTenant(SecurityError):
    code = "UNKNOWN_TENANT"
    http_status = 404


class UnknownSite(SecurityError):
    code = "UNKNOWN_SITE"
    http_status = 404


class DuplicateSite(SecurityError):
    code = "DUPLICATE_SITE"
    http_status = 409


class TopologyInvalid(SecurityError):
    code = "TOPOLOGY_INVALID"


# --- secrets ---

class NotFound(SecurityError):
    code = "NOT_FOUND"
    http_status = 404


class QuotaExceeded(SecurityError):
    code = "QUOTA_EXCEEDED"
    http_status = 429


class StoreUnreachable(SecurityError):
    code = "STORE_UNREACHABLE"
    http_status = 503


class SecretMisplaced(SecurityError):
    """A stored blob was encrypted for another storage key."""
    code = "SECRET_MISPLACED"
    http_status = 500


class ExportFailed(SecurityError):
    code = "EXPORT_FAILED"


# --- tokens ---

class BadCredentials(SecurityError):
    code = "BAD_CREDENTIALS"
    http_status = 401


class BadSignature(SecurityError):
    code = "BAD_SIGNATURE"
    http_status = 401


class ExpiredToken(SecurityError):
    code = "EXPIRED_TOKEN"
    http_status = 401


class ReusedToken(SecurityError):
    code = "REUSED_TOKEN"
    http_status = 401


class MalformedToken(SecurityError):
    code = "MALFORMED_TOKEN"
    http_status = 401


# --- sharing ---

class ResourceNotInSac(SecurityError):
    code = "RESOURCE_NOT_IN_SAC"


class SacOnUserRequest(SecurityError):
    code = "SAC_ON_USER_REQUEST"
    http_status = 403


# --- bootstrap / simulator ---

class ConfigInvalid(SecurityError):
    code = "CONFIG_INVALID"


class StartupError(SecurityError):
    code = "STARTUP_ERROR"
    http_status = 503


class PrimaryUnreachable(SecurityError):
    code = "PRIMARY_UNREACHABLE"
    http_status = 502


class ScenarioDivergence(SecurityError):
    code = "SCENARIO_DIVERGENCE"


class SeedingFailed(SecurityError):
    code = "SEEDING_FAILED"
