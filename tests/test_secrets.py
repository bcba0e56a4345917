import base64
import itertools
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsec.errors import ExportFailed, NotAuthorized, NotFound, QuotaExceeded, SecretMisplaced
from fedsec.identity import BOOTSTRAP, OPERATOR, Caller
from fedsec.secrets import (
    FileKvBackend,
    MemoryKvBackend,
    SecretCategory,
    SecretPath,
    SecretsService,
    SecretValue,
    category_allows,
    decrypt_backup,
    generate_master_key,
)

ADMIN = "admin.prime"


def make_service(**kw):
    return SecretsService(site_id="prime", admin_tenant=ADMIN, **kw)


def svc_caller(name):
    return Caller(name=name, tenant=ADMIN, kind="service")


SYSTEMS = svc_caller("systems")
FILES = svc_caller("files")
JOBS = svc_caller("jobs")
APPS = svc_caller("apps")
TOKENS = svc_caller("tokens")
BOB = Caller(name="bob", tenant="tenant1", kind="user")


def cred_path(user="bob", system="execSys", tenant="tenant1"):
    return SecretPath(tenant, SecretCategory.SYSTEM_CREDENTIAL, user, system)


def test_system_credential_flow():
    store = make_service()
    version = store.write_secret(cred_path(), SecretValue(b"ssh-key-bytes"), SYSTEMS)
    assert version == 1
    assert store.read_secret(cred_path(), FILES).payload == b"ssh-key-bytes"
    assert store.read_secret(cred_path(), JOBS).payload == b"ssh-key-bytes"
    with pytest.raises(NotAuthorized):
        store.read_secret(cred_path(), APPS)
    with pytest.raises(NotAuthorized):
        store.read_secret(cred_path(), BOB)


def test_user_secret_owner_only():
    store = make_service()
    path = SecretPath("tenant1", SecretCategory.USER_SECRET, "bob", "apikey")
    store.write_secret(path, SecretValue(b"hunter2"), BOB)
    assert store.read_secret(path, BOB).payload == b"hunter2"
    alice = Caller(name="alice", tenant="tenant1", kind="user")
    with pytest.raises(NotAuthorized):
        store.read_secret(path, alice)


def test_end_user_cannot_write_service_password():
    store = make_service()
    path = SecretPath(ADMIN, SecretCategory.SERVICE_PASSWORD, "jobs", "password")
    with pytest.raises(NotAuthorized):
        store.write_secret(path, SecretValue(b"pw"), BOB)


def test_read_missing_secret():
    store = make_service()
    with pytest.raises(NotFound):
        store.read_secret(cred_path(system="ghost"), FILES)


def test_version_pinning():
    store = make_service()
    store.write_secret(cred_path(), SecretValue(b"v1"), SYSTEMS)
    store.write_secret(cred_path(), SecretValue(b"v2"), SYSTEMS)
    assert store.read_secret(cred_path(), FILES).payload == b"v2"
    assert store.read_secret(cred_path(), FILES, version=1).payload == b"v1"
    with pytest.raises(NotFound):
        store.read_secret(cred_path(), FILES, version=9)


def test_version_quota():
    store = make_service(max_versions=2)
    store.write_secret(cred_path(), SecretValue(b"1"), SYSTEMS)
    store.write_secret(cred_path(), SecretValue(b"2"), SYSTEMS)
    with pytest.raises(QuotaExceeded):
        store.write_secret(cred_path(), SecretValue(b"3"), SYSTEMS)


def test_validate_service_password():
    store = make_service()
    path = SecretPath(ADMIN, SecretCategory.SERVICE_PASSWORD, "jobs", "password")
    store.write_secret(path, SecretValue(b"sekrit"), BOOTSTRAP)
    assert store.validate_service_password("jobs", "prime", b"sekrit", TOKENS) is True
    assert store.validate_service_password("jobs", "prime", b"wrong", TOKENS) is False
    assert store.validate_service_password("ghost", "prime", b"x", TOKENS) is False


def test_only_tokens_validates_passwords():
    store = make_service()
    path = SecretPath(ADMIN, SecretCategory.SERVICE_PASSWORD, "jobs", "password")
    store.write_secret(path, SecretValue(b"sekrit"), BOOTSTRAP)
    for caller in (SYSTEMS, BOB, BOOTSTRAP):
        with pytest.raises(NotAuthorized):
            store.validate_service_password("jobs", "prime", b"sekrit", caller)


def test_signing_key_access():
    store = make_service()
    path = SecretPath("tenant1", SecretCategory.SIGNING_KEY, "sk", "keypair")
    store.write_secret(path, SecretValue(b"pem"), BOOTSTRAP)
    assert store.read_secret(path, TOKENS).payload == b"pem"
    for caller in (SYSTEMS, BOB):
        with pytest.raises(NotAuthorized):
            store.read_secret(path, caller)


def test_sk_is_not_a_caller_kind():
    with pytest.raises(ValueError):
        Caller(name="security-kernel", tenant="-", kind="sk")


def test_db_credential_owning_service_only():
    store = make_service()
    path = SecretPath(ADMIN, SecretCategory.DB_CREDENTIAL, "jobs", "postgres")
    store.write_secret(path, SecretValue(b"dbpw"), BOOTSTRAP)
    assert store.read_secret(path, JOBS).payload == b"dbpw"
    with pytest.raises(NotAuthorized):
        store.read_secret(path, FILES)


def test_policy_matrix_is_total():
    """Every (category, operation, caller archetype) pair has a defined outcome."""
    archetypes = {
        "bootstrap": BOOTSTRAP,
        "operator": OPERATOR,
        "tokens": TOKENS,
        "systems": SYSTEMS,
        "files": FILES,
        "jobs": JOBS,
        "other-service": APPS,
        "owner-user": BOB,
        "other-user": Caller(name="eve", tenant="tenant9", kind="user"),
    }
    path_by_category = {
        SecretCategory.SERVICE_PASSWORD: SecretPath(ADMIN, SecretCategory.SERVICE_PASSWORD, "jobs", "password"),
        SecretCategory.DB_CREDENTIAL: SecretPath(ADMIN, SecretCategory.DB_CREDENTIAL, "jobs", "postgres"),
        SecretCategory.SYSTEM_CREDENTIAL: cred_path(),
        SecretCategory.SIGNING_KEY: SecretPath("tenant1", SecretCategory.SIGNING_KEY, "sk", "keypair"),
        SecretCategory.USER_SECRET: SecretPath("tenant1", SecretCategory.USER_SECRET, "bob", "apikey"),
    }
    allowed = set()
    for category, op, name in itertools.product(SecretCategory, ("read", "write", "validate"), archetypes):
        verdict = category_allows(category, op, archetypes[name], path_by_category[category], ADMIN)
        assert verdict in (True, False)
        if verdict:
            allowed.add((category.value, op, name))

    # Frozen closure of the category policy; any change here is a policy change.
    assert allowed == {
        ("service-password", "write", "bootstrap"),
        ("service-password", "read", "bootstrap"),
        ("service-password", "read", "operator"),
        ("service-password", "validate", "tokens"),
        ("db-credential", "write", "bootstrap"),
        ("db-credential", "read", "bootstrap"),
        ("db-credential", "read", "operator"),
        ("db-credential", "read", "jobs"),
        ("system-credential", "write", "systems"),
        ("system-credential", "read", "systems"),
        ("system-credential", "read", "files"),
        ("system-credential", "read", "jobs"),
        ("signing-key", "write", "bootstrap"),
        ("signing-key", "read", "bootstrap"),
        ("signing-key", "read", "tokens"),
        ("user-secret", "write", "bootstrap"),
        ("user-secret", "write", "owner-user"),
        ("user-secret", "read", "bootstrap"),
        ("user-secret", "read", "owner-user"),
    }


def test_cross_tenant_user_never_reads_foreign_secret():
    store = make_service()
    path = SecretPath("tenant1", SecretCategory.USER_SECRET, "bob", "apikey")
    store.write_secret(path, SecretValue(b"data"), BOB)
    intruder = Caller(name="bob", tenant="tenant2", kind="user")  # same name, other tenant
    with pytest.raises(NotAuthorized):
        store.read_secret(path, intruder)


def test_export_round_trip():
    store = make_service()
    store.write_secret(cred_path(), SecretValue(b"v1", metadata={"host": "h"}), SYSTEMS)
    store.write_secret(cred_path(), SecretValue(b"v2"), SYSTEMS)
    other = SecretPath("tenant2", SecretCategory.USER_SECRET, "carol", "x")
    store.write_secret(other, SecretValue(b"zzz"), Caller(name="carol", tenant="tenant2", kind="user"))

    archive = store.export_backup("tenant", "tenant1", OPERATOR)
    records = decrypt_backup(archive, store.master_key)
    assert [(r["path"], r["version"]) for r in records] == [
        ("tenant1/system-credential/bob/execSys", 1),
        ("tenant1/system-credential/bob/execSys", 2),
    ]

    site_archive = store.export_backup("site", "prime", OPERATOR)
    assert len(decrypt_backup(site_archive, store.master_key)) == 3


def test_export_requires_operator():
    store = make_service()
    with pytest.raises(NotAuthorized):
        store.export_backup("site", "prime", SYSTEMS)


def test_export_empty_tenant_is_valid():
    store = make_service()
    archive = store.export_backup("tenant", "empty", OPERATOR)
    assert decrypt_backup(archive, store.master_key) == []


def test_export_wrong_key_fails_authentication():
    store = make_service()
    archive = store.export_backup("site", "prime", OPERATOR)
    with pytest.raises(ExportFailed):
        decrypt_backup(archive, generate_master_key())


def test_export_consistent_under_concurrent_writes():
    store = make_service()
    store.write_secret(cred_path(), SecretValue(b"base"), SYSTEMS)
    stop = threading.Event()

    def writer():
        while not stop.is_set():
            store.write_secret(cred_path(), SecretValue(b"more"), SYSTEMS)

    t = threading.Thread(target=writer)
    t.start()
    try:
        for _ in range(20):
            records = decrypt_backup(store.export_backup("tenant", "tenant1", OPERATOR), store.master_key)
            versions = [r["version"] for r in records]
            # Snapshot isolation: versions always form the contiguous prefix 1..k.
            assert versions == list(range(1, len(versions) + 1))
    finally:
        stop.set()
        t.join()


def test_file_backend_round_trip(tmp_path):
    key = generate_master_key()
    store = SecretsService(backend=FileKvBackend(tmp_path / "vault"), master_key=key,
                           site_id="prime", admin_tenant=ADMIN)
    store.write_secret(cred_path(), SecretValue(b"persisted"), SYSTEMS)

    reopened = SecretsService(backend=FileKvBackend(tmp_path / "vault"), master_key=key,
                              site_id="prime", admin_tenant=ADMIN)
    assert reopened.read_secret(cred_path(), FILES).payload == b"persisted"
    assert reopened.ping()


def test_payload_never_in_repr_or_errors():
    value = SecretValue(b"super-secret-payload")
    assert "super-secret" not in repr(value)
    store = make_service()
    store.write_secret(cred_path(), value, SYSTEMS)
    try:
        store.read_secret(cred_path(), APPS)
    except NotAuthorized as exc:
        assert "super-secret" not in str(exc)


def test_memory_backend_stores_only_ciphertext():
    backend = MemoryKvBackend()
    store = SecretsService(backend=backend, site_id="prime", admin_tenant=ADMIN)
    store.write_secret(cred_path(), SecretValue(b"plaintext-cred"), SYSTEMS)
    for _, blob in backend.items():
        assert b"plaintext-cred" not in blob


def test_a_blob_copied_to_another_key_is_refused():
    # Bob's credential for execSys, copied over alice's: the copy
    # authenticates under the master key but was written for bob's key.
    backend = MemoryKvBackend()
    store = SecretsService(backend=backend, site_id="prime", admin_tenant=ADMIN)
    store.write_secret(cred_path("bob"), SecretValue(b"bob-key"), SYSTEMS)
    store.write_secret(cred_path("alice"), SecretValue(b"alice-key"), SYSTEMS)
    backend.put(cred_path("alice").render(), backend.get(cred_path("bob").render()))
    with pytest.raises(SecretMisplaced):
        store.read_secret(cred_path("alice"), FILES)
    with pytest.raises(SecretMisplaced):
        store.read_secret(cred_path("alice"), FILES, version=1)
    with pytest.raises(SecretMisplaced):
        store.export_backup("tenant", "tenant1", OPERATOR)
    assert store.read_secret(cred_path("bob"), FILES).payload == b"bob-key"


def test_a_service_password_moved_to_another_service_does_not_validate():
    backend = MemoryKvBackend()
    store = SecretsService(backend=backend, site_id="prime", admin_tenant=ADMIN)
    for service, password in (("jobs", b"jobs-pw"), ("apps", b"apps-pw")):
        store.write_secret(SecretPath(ADMIN, SecretCategory.SERVICE_PASSWORD, service, "password"),
                           SecretValue(password), BOOTSTRAP)
    jobs_key = SecretPath(ADMIN, SecretCategory.SERVICE_PASSWORD, "jobs", "password").render()
    apps_key = SecretPath(ADMIN, SecretCategory.SERVICE_PASSWORD, "apps", "password").render()
    backend.put(apps_key, backend.get(jobs_key))
    with pytest.raises(SecretMisplaced):
        store.validate_service_password("apps", "prime", b"jobs-pw", TOKENS)


class CountingBackend:
    """A backend that counts the calls made on it."""

    def __init__(self, inner):
        self.inner, self.calls = inner, Counter()

    def __getattr__(self, name):
        self.calls[name] += 1
        return getattr(self.inner, name)


@pytest.mark.parametrize("others", [10, 10_000])
def test_a_secret_query_is_one_backend_get_whatever_the_store_holds(others):
    backend = CountingBackend(MemoryKvBackend())
    store = SecretsService(backend=backend, site_id="prime", admin_tenant=ADMIN)
    for i in range(others):
        store.write_secret(cred_path(user=f"u{i}"), SecretValue(b"k"), SYSTEMS)
    store.write_secret(cred_path(), SecretValue(b"v1"), SYSTEMS)
    store.write_secret(cred_path(), SecretValue(b"v2"), SYSTEMS)
    store.write_secret(SecretPath(ADMIN, SecretCategory.SERVICE_PASSWORD, "jobs", "password"),
                       SecretValue(b"jobs-pw"), BOOTSTRAP)
    queries = {
        "read_secret": lambda: store.read_secret(cred_path(), FILES).payload == b"v2",
        "pinned read_secret": lambda: store.read_secret(cred_path(), FILES, version=1).payload == b"v1",
        "exists": lambda: store.exists(cred_path(), FILES),
        "latest_version": lambda: store.latest_version(cred_path(), FILES) == 2,
        "validate_service_password": lambda: store.validate_service_password(
            "jobs", "prime", b"jobs-pw", TOKENS),
    }
    for name, query in queries.items():
        backend.calls.clear()
        assert query(), name
        assert backend.calls == Counter(get=1), name


PATHS = [cred_path(system=system) for system in ("s1", "s2", "s3")]
secret_ops = st.lists(st.tuples(
    st.sampled_from(["write", "read", "pinned", "latest_version", "exists"]),
    st.integers(0, len(PATHS) - 1), st.integers(0, 4)), max_size=20)


@pytest.mark.parametrize("kind", ["memory", "file"])
@given(ops=secret_ops)
@settings(max_examples=60, deadline=None)
def test_secret_versions_match_a_dict_of_lists(kind, tmp_path_factory, ops):
    key, limit = generate_master_key(), 3
    root = tmp_path_factory.mktemp("vault") if kind == "file" else None
    backend = FileKvBackend(root) if kind == "file" else MemoryKvBackend()
    store = SecretsService(backend=backend, master_key=key, site_id="prime", admin_tenant=ADMIN,
                           max_versions=limit)
    model = {path: [] for path in PATHS}
    for step, (op, which, version) in enumerate(ops):
        path, versions = PATHS[which], model[PATHS[which]]
        if op == "write":
            payload = f"p{step}".encode()
            if len(versions) >= limit:
                with pytest.raises(QuotaExceeded):
                    store.write_secret(path, SecretValue(payload), SYSTEMS)
            else:
                assert store.write_secret(path, SecretValue(payload), SYSTEMS) == len(versions) + 1
                versions.append(payload)
        elif op == "read" and versions:
            assert store.read_secret(path, FILES).payload == versions[-1]
        elif op == "pinned" and 1 <= version <= len(versions):
            assert store.read_secret(path, FILES, version=version).payload == versions[version - 1]
        elif op in ("read", "pinned"):
            with pytest.raises(NotFound):
                store.read_secret(path, FILES, version=version if op == "pinned" else None)
        elif op == "latest_version" and versions:
            assert store.latest_version(path, FILES) == len(versions)
        elif op == "latest_version":
            with pytest.raises(NotFound):
                store.latest_version(path, FILES)
        else:
            assert store.exists(path, FILES) == bool(versions)
    # A fresh service over the same store and key answers the same.
    reopened = SecretsService(backend=FileKvBackend(root) if kind == "file" else backend,
                              master_key=key, site_id="prime", admin_tenant=ADMIN)
    for path, versions in model.items():
        assert reopened.exists(path, FILES) == bool(versions)
        for number, payload in enumerate(versions, 1):
            assert reopened.read_secret(path, FILES, version=number).payload == payload
    records = decrypt_backup(reopened.export_backup("site", "prime", OPERATOR), key)
    assert [(r["path"], r["version"], r["payload"]) for r in records] == [
        (path.render(), number, base64.b64encode(payload).decode())
        for path in sorted(PATHS, key=SecretPath.render) for number, payload in enumerate(model[path], 1)]
