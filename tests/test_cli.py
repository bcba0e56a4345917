"""Command-line entry points, run in process."""

import json
import os
import stat

import pytest
from click.testing import CliRunner

from fedsec.cli import fedsim_cli, sk_admin
from fedsec.identity import BOOTSTRAP
from fedsec.secrets import FileKvBackend, SecretCategory, SecretPath, SecretsService
from fedsec.service import SecurityKernelApp
from fedsec.wire import fail

LOAD_RUNS = {
    "load": ["load", "--permissions", "1000", "--users", "2", "--wait", "0.01:0.02", "--duration", "0.3"],
    "ladder": ["ladder", "--permissions", "1000", "--users", "2", "--wait", "0.01:0.02", "--duration", "0.3"],
}


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


def _reports(output):
    reports = json.loads(output)
    return reports if isinstance(reports, list) else [reports]


@pytest.mark.parametrize("args", LOAD_RUNS.values(), ids=LOAD_RUNS.keys())
def test_a_load_run_without_failures_exits_0(args):
    result = CliRunner().invoke(fedsim_cli, args)
    assert result.exit_code == 0, result.output
    assert [(r["requests"] > 0, r["failures"]) for r in _reports(result.output)] == [(True, 0)]


@pytest.mark.parametrize("args", LOAD_RUNS.values(), ids=LOAD_RUNS.keys())
def test_a_load_run_with_failed_checks_exits_1(args, monkeypatch):
    def unavailable(self, req, verdict, permission: str, tenant: str = None, username: str = None):
        return fail(503, "UNAVAILABLE", "the check endpoint is down")

    monkeypatch.setattr(SecurityKernelApp, "is_permitted", unavailable)
    result = CliRunner().invoke(fedsim_cli, args)
    assert result.exit_code == 1, result.output
    assert all(r["failures"] == r["requests"] > 0 for r in _reports(result.output))


MALFORMED_OPTIONS = [
    ["load", "--wait", "abc"],
    ["load", "--wait", "0.1:0.01"],
    ["load", "--permissions", "1500"],
    ["load", "--users", "0"],
    ["ladder", "--users", "x"],
    ["ladder", "--permissions", "1000,1500"],
    ["ladder", "--wait", "0.01"],
    ["penalty", "--samples", "0"],
]


@pytest.mark.parametrize("args", MALFORMED_OPTIONS, ids=" ".join)
def test_a_malformed_option_is_a_usage_error_before_any_federation(args, monkeypatch):
    import fedsec.sim.federation

    def no_federation(topology):
        raise AssertionError("a federation started")

    monkeypatch.setattr(fedsec.sim.federation, "build_federation", no_federation)
    result = CliRunner().invoke(fedsim_cli, args)
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{args[1]}'" in result.output


def test_a_load_run_that_records_no_sample_exits_1_with_its_message():
    result = CliRunner().invoke(fedsim_cli, ["load", "--permissions", "1000", "--users", "1",
                                             "--duration", "0.000001"])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    assert "load run failed: load run produced no samples" in result.output
