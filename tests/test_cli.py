"""Command-line entry points, run in process."""

import json
import os
import stat

from click.testing import CliRunner

from fedsec.cli import sk_admin


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
