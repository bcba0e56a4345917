import json

import pytest

from fedsec.errors import ConfigInvalid, DuplicateSite, ExportFailed, StoreUnreachable
from fedsec.identity import BOOTSTRAP
from fedsec.secrets import (
    MemoryKvBackend,
    SecretCategory,
    SecretPath,
    SecretsService,
    decrypt_backup,
    generate_master_key,
)
from fedsec.skadmin import (
    ASSOCIATE_ORDER,
    PRIMARY_ORDER,
    BootstrapConfig,
    BootstrapReport,
    SecretSpec,
    check_deployment_order,
    exchange_associate_key,
    export_secrets,
    run_bootstrap,
)


def primary_config(**overrides):
    base = dict(
        site_id="prime",
        is_primary=True,
        admin_tenant="admin.prime",
        tenants=["admin.prime", "tenant1"],
        services=["security-kernel", "tokens", "authenticator", "tenants", "jobs"],
        secret_specs=[SecretSpec(SecretCategory.USER_SECRET, "authenticator", "ldap-bind")],
    )
    base.update(overrides)
    return BootstrapConfig(**base)


@pytest.fixture
def store():
    return SecretsService(backend=MemoryKvBackend(), site_id="prime", admin_tenant="admin.prime")


def test_first_run_creates_everything(store):
    config = primary_config()
    report = run_bootstrap(config, store)
    assert report.skipped == [] and report.replaced == []
    # 2 signing keys + 5 passwords + 5 db credentials + 1 auxiliary
    assert len(report.created) == 13
    assert set(report.public_keys) == {"admin.prime", "tenant1"}
    for pem in report.public_keys.values():
        assert pem.startswith("-----BEGIN PUBLIC KEY-----")


def test_second_run_is_idempotent(store):
    config = primary_config()
    first = run_bootstrap(config, store)
    snapshot = dict(store.backend.items())
    second = run_bootstrap(config, store)
    assert second.created == []
    assert sorted(second.skipped) == sorted(first.created)
    assert dict(store.backend.items()) == snapshot
    assert second.public_keys == first.public_keys


def test_replace_regenerates_matching_secret(store):
    config = primary_config()
    first = run_bootstrap(config, store)
    key_path = SecretPath("tenant1", SecretCategory.SIGNING_KEY, "sk", "keypair")
    before = store.read_secret(key_path, BOOTSTRAP).payload
    report = run_bootstrap(config, store, replace="tenant1/signing-key/*")
    assert report.replaced == ["tenant1/signing-key/sk/keypair"]
    assert len(report.skipped) == len(first.created) - 1
    after = store.read_secret(key_path, BOOTSTRAP).payload
    assert before != after
    assert report.public_keys["tenant1"] != first.public_keys["tenant1"]
    # Old version remains pinned.
    assert store.read_secret(key_path, BOOTSTRAP, version=1).payload == before


def test_unreachable_store():
    class DeadBackend(MemoryKvBackend):
        def ping(self):
            return False

    store = SecretsService(backend=DeadBackend(), site_id="p", admin_tenant="a")
    with pytest.raises(StoreUnreachable):
        run_bootstrap(primary_config(), store)


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        primary_config(tenants=[])
    with pytest.raises(ConfigInvalid):
        primary_config(tenants=["tenant1"])  # admin tenant missing
    with pytest.raises(ConfigInvalid):
        primary_config(services=[])
    with pytest.raises(ConfigInvalid):
        BootstrapConfig.from_dict({"site_id": "x"})


def test_report_invariant():
    with pytest.raises(ConfigInvalid):
        BootstrapReport(created=["a/b/c/d"], skipped=["a/b/c/d"])


def test_encrypted_file_export_round_trip(store, tmp_path):
    config = primary_config()
    report = run_bootstrap(config, store)
    out = export_secrets(report, store, "encrypted-file", tmp_path / "secrets.enc")
    records = decrypt_backup(out.read_bytes(), store.master_key)
    assert sorted(r["path"] for r in records) == sorted(report.created)
    import base64
    for r in records:
        path = r["path"].split("/")
        stored = store.read_secret(
            SecretPath(path[0], SecretCategory(path[1]), path[2], path[3]), BOOTSTRAP).payload
        assert base64.b64decode(r["data"]["value"]) == stored


def test_encrypted_file_export_under_another_key_fails(store, tmp_path):
    report = run_bootstrap(primary_config(), store)
    out = export_secrets(report, store, "encrypted-file", tmp_path / "secrets.enc")
    with pytest.raises(ExportFailed):
        decrypt_backup(out.read_bytes(), generate_master_key())


def test_manifest_export_one_document_per_secret(store, tmp_path):
    config = primary_config()
    report = run_bootstrap(config, store)
    out = export_secrets(report, store, "orchestrator-secrets", tmp_path / "manifest.json")
    manifest = json.loads(out.read_text())
    assert len(manifest["secrets"]) == len(report.created)
    names = [r["name"] for r in manifest["secrets"]]
    assert names == sorted(names)
    assert "admin.prime.service-password.jobs.password" in names


def test_export_before_bootstrap_fails(store, tmp_path):
    with pytest.raises(ExportFailed):
        export_secrets(BootstrapReport(), store, "encrypted-file", tmp_path / "x")
    with pytest.raises(ExportFailed):
        export_secrets(None, store, "encrypted-file", tmp_path / "x")


def test_exchange_associate_key():
    config = primary_config()
    updated = exchange_associate_key("assoc1", "-----BEGIN PUBLIC KEY-----abc", config)
    assert updated.associate_admin_keys == {"assoc1": "-----BEGIN PUBLIC KEY-----abc"}
    with pytest.raises(DuplicateSite):
        exchange_associate_key("assoc1", "other", updated)


def test_exchange_into_associate_config_rejected():
    config = primary_config(is_primary=False, site_id="assoc9", admin_tenant="admin.a9",
                            tenants=["admin.a9"],
                            services=["security-kernel", "tokens", "authenticator"])
    with pytest.raises(ConfigInvalid):
        exchange_associate_key("assoc1", "pem", config)


def test_exchanged_key_visible_after_rerun(store):
    config = primary_config()
    run_bootstrap(config, store)
    updated = exchange_associate_key("assoc1", "PEMDATA", config)
    report = run_bootstrap(updated, store)
    assert report.public_keys["assoc1"] == "PEMDATA"
    assert report.created == []


def test_canonical_orders_accepted():
    assert check_deployment_order(PRIMARY_ORDER, "primary").ok
    assert check_deployment_order(ASSOCIATE_ORDER, "associate").ok


def test_all_single_swaps_rejected():
    for i in range(len(PRIMARY_ORDER) - 1):
        events = list(PRIMARY_ORDER)
        events[i], events[i + 1] = events[i + 1], events[i]
        result = check_deployment_order(events, "primary")
        assert not result.ok, f"swap at {i} must be rejected"
        assert result.step_index == i


def test_tokens_before_sk_names_the_dependency():
    events = list(PRIMARY_ORDER)
    events[3], events[4] = events[4], events[3]
    result = check_deployment_order(events, "primary")
    assert not result.ok
    assert "Tokens depends on SK for the private key" in result.violation


def test_associate_never_deploys_tenants():
    events = list(ASSOCIATE_ORDER)
    events.insert(2, "deploy-tenants")
    result = check_deployment_order(events, "associate")
    assert not result.ok
    assert "never run the tenants service" in result.violation


def test_truncated_sequence_rejected():
    result = check_deployment_order(PRIMARY_ORDER[:4], "primary")
    assert not result.ok


def test_config_round_trips_through_json(tmp_path):
    config = primary_config()
    path = tmp_path / "bootstrap.json"
    path.write_text(json.dumps(config.to_dict()))
    loaded = BootstrapConfig.from_file(path)
    assert loaded == config
