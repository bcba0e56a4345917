"""Command-line entry points, run in process."""

import json
import os
import stat

from click.testing import CliRunner

from fedsec.cli import sk_admin
from fedsec.identity import BOOTSTRAP
from fedsec.secrets import FileKvBackend, SecretCategory, SecretPath, SecretsService


def test_bootstrap_creates_master_key_owner_only(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    key_file = tmp_path / "keys" / "vault-master.key"
    config = tmp_path / "site.json"
    config.write_text(json.dumps({
        "site_id": "prime", "is_primary": True, "admin_tenant": "admin.prime",
        "tenants": ["admin.prime"], "services": ["security-kernel", "tokens"],
        "store_path": str(tmp_path / "vault-data"), "master_key_file": str(key_file)}))
    result = CliRunner().invoke(sk_admin, ["bootstrap", "--config", str(config)])
    assert result.exit_code == 0, result.output
    assert key_file.read_bytes()
    assert stat.S_IMODE(os.stat(key_file).st_mode) == 0o600


def test_bootstrap_reruns_over_the_file_store(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "site.json"
    config.write_text(json.dumps({
        "site_id": "prime", "is_primary": True, "admin_tenant": "admin.prime",
        "tenants": ["admin.prime"], "services": ["security-kernel", "tokens"],
        "secret_specs": [{"category": "user-secret", "owner": "authenticator", "name": "ldap-bind"}],
        "store_path": str(tmp_path / "vault-data"), "master_key_file": str(tmp_path / "master.key")}))
    runner = CliRunner()
    first = runner.invoke(sk_admin, ["bootstrap", "--config", str(config)])
    assert first.exit_code == 0, first.output
    again = runner.invoke(sk_admin, ["bootstrap", "--config", str(config)])
    assert again.exit_code == 0, again.output
    assert "created:  0" in again.output.splitlines()
    replaced = runner.invoke(sk_admin, ["bootstrap", "--config", str(config), "--replace", "*ldap-bind"])
    assert replaced.exit_code == 0, replaced.output
    assert "replaced: 1" in replaced.output.splitlines()

    store = SecretsService(backend=FileKvBackend(tmp_path / "vault-data"),
                           master_key=(tmp_path / "master.key").read_bytes().strip(),
                           site_id="prime", admin_tenant="admin.prime")
    path = SecretPath("admin.prime", SecretCategory.USER_SECRET, "authenticator", "ldap-bind")
    assert store.latest_version(path, BOOTSTRAP) == 2
    latest = store.read_secret(path, BOOTSTRAP).payload
    first_version = store.read_secret(path, BOOTSTRAP, version=1).payload
    assert latest == store.read_secret(path, BOOTSTRAP, version=2).payload != first_version
