"""Command-line entry points: the sk-admin bootstrap utility and the
federation simulator driver."""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import click

from .errors import ConfigInvalid, SecurityError, StoreUnreachable
from .secrets import FileKvBackend, SecretsService, generate_master_key
from .sim.loadgen import PERMISSIONS_PER_SYSTEM
from .skadmin import (
    BootstrapConfig,
    check_deployment_order,
    exchange_associate_key,
    export_secrets,
    run_bootstrap,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STORE = 3
EXIT_ORDER = 4


def _open_store(config: BootstrapConfig) -> SecretsService:
    key_file = Path(config.master_key_file)
    if key_file.exists():
        master_key = key_file.read_bytes().strip()
    else:
        master_key = generate_master_key()
        key_file.parent.mkdir(parents=True, exist_ok=True)
        # Owner-only from creation: the key decrypts every secret of the site.
        with os.fdopen(os.open(key_file, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600), "wb") as fh:
            fh.write(master_key)
        click.echo(f"generated site master key at {key_file}")
    backend = FileKvBackend(config.store_path)
    return SecretsService(backend=backend, master_key=master_key,
                          site_id=config.site_id, admin_tenant=config.admin_tenant)


@click.group()
def sk_admin():
    """Site bootstrap: generate secrets, export them, check deploy order."""


@sk_admin.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--replace", "replace_pattern", default=None,
              help="Regenerate secrets whose path matches this pattern.")
@click.option("--export", "export_target", type=click.Choice(["kube", "file"]), default=None)
@click.option("--out", "out_path", type=click.Path(), default=None)
def bootstrap(config_path, replace_pattern, export_target, out_path):
    """Idempotently create site secrets; re-runs skip existing ones."""
    try:
        config = BootstrapConfig.from_file(config_path)
        store = _open_store(config)
        report = run_bootstrap(config, store, replace=replace_pattern)
    except ConfigInvalid as exc:
        click.echo(f"config error: {exc.message}", err=True)
        sys.exit(EXIT_CONFIG)
    except StoreUnreachable as exc:
        click.echo(f"store unreachable: {exc.message}", err=True)
        sys.exit(EXIT_STORE)
    click.echo(f"created:  {len(report.created)}")
    click.echo(f"skipped:  {len(report.skipped)}")
    click.echo(f"replaced: {len(report.replaced)}")
    for path in report.created:
        click.echo(f"  + {path}")
    for path in report.replaced:
        click.echo(f"  ~ {path}")
    if export_target:
        target = "orchestrator-secrets" if export_target == "kube" else "encrypted-file"
        destination = out_path or ("secrets.json" if export_target == "kube" else "secrets.enc")
        try:
            written = export_secrets(report, store, target, destination)
        except SecurityError as exc:
            click.echo(f"export failed: {exc.message}", err=True)
            sys.exit(EXIT_CONFIG)
        click.echo(f"exported {target} artifact to {written}")


@sk_admin.command("check-order")
@click.option("--events", "events_path", required=True, type=click.Path(exists=True))
@click.option("--site-kind", required=True, type=click.Choice(["primary", "associate"]))
def check_order(events_path, site_kind):
    """Validate a deployment event log against the canonical order."""
    try:
        events = json.loads(Path(events_path).read_text())
    except json.JSONDecodeError as exc:
        click.echo(f"config error: events file is not JSON: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    result = check_deployment_order(events, site_kind)
    if result.ok:
        click.echo("deployment order ok")
        sys.exit(EXIT_OK)
    click.echo(f"order violation: {result.violation}", err=True)
    sys.exit(EXIT_ORDER)


@sk_admin.command("exchange-key")
@click.option("--site", "site_id", required=True)
@click.option("--key", "key_path", required=True, type=click.Path(exists=True))
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the updated config here instead of in place.")
def exchange_key(site_id, key_path, config_path, out_path):
    """Add an associate site's admin public key to the primary config."""
    try:
        config = BootstrapConfig.from_file(config_path)
        updated = exchange_associate_key(site_id, Path(key_path).read_text(), config)
    except SecurityError as exc:
        click.echo(f"config error: {exc.message}", err=True)
        sys.exit(EXIT_CONFIG)
    destination = Path(out_path or config_path)
    destination.write_text(json.dumps(updated.to_dict(), indent=2, sort_keys=True))
    click.echo(f"added key for site {site_id}; updated config at {destination}")
    click.echo("re-run bootstrap and restart the tenant registry to serve the key")


@click.group()
def fedsim_cli():
    """Multi-site federation simulator and load harness."""


def _load_topology(topology_path, default_factory):
    if topology_path:
        return json.loads(Path(topology_path).read_text())
    return default_factory()


@fedsim_cli.command("run")
@click.option("--topology", "topology_path", type=click.Path(exists=True), default=None)
@click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
def fedsim_run(topology_path, scenario_path):
    """Execute a scenario script against a fresh federation."""
    from .sim.federation import build_federation
    from .sim.presets import two_site_topology
    from .sim.scenario import load_scenario, run_scenario

    doc = _load_topology(topology_path, two_site_topology)
    steps = load_scenario(scenario_path)
    federation = build_federation(doc)
    try:
        result = run_scenario(federation, steps)
    except SecurityError as exc:
        click.echo(f"scenario diverged: {exc.message}", err=True)
        sys.exit(1)
    finally:
        federation.close()
    click.echo(json.dumps(result, indent=2))


@fedsim_cli.command("walkthrough")
@click.option("--branch", default="all")
def fedsim_walkthrough(branch):
    """Run the shared-application-context walkthrough branches."""
    from .sim.federation import build_federation
    from .sim.scenario import (
        WALKTHROUGH_BRANCHES,
        run_sac_walkthrough,
        walkthrough_topology_doc,
    )

    branches = WALKTHROUGH_BRANCHES if branch == "all" else (branch,)
    for name in branches:
        federation = build_federation(walkthrough_topology_doc())
        try:
            result = run_sac_walkthrough(federation, name)
        finally:
            federation.close()
        job = result["job"]
        line = f"{name}: {job['status']}"
        if job.get("reason"):
            line += f" ({job['reason']})"
        click.echo(line)


@fedsim_cli.command("matrix")
@click.option("--topology", "topology_path", type=click.Path(exists=True), default=None)
def fedsim_matrix(topology_path):
    """Run the full request-validation matrix over the wire."""
    from .sim.federation import build_federation
    from .sim.matrix import run_validation_matrix
    from .sim.presets import two_site_topology

    doc = _load_topology(topology_path, two_site_topology)
    federation = build_federation(doc)
    try:
        report = run_validation_matrix(federation)
    finally:
        federation.close()
    click.echo(f"cells: {report['cells']}")
    click.echo(f"disagreements: {len(report['disagreements'])}")
    for item in report["disagreements"]:
        click.echo(f"  {item}")
    sys.exit(0 if not report["disagreements"] else 1)


def _wait_range(ctx, param, text):
    """``--wait low:high`` seconds, checked before any federation starts."""
    try:
        low, high = map(float, text.split(":"))
    except ValueError:
        low = high = math.nan
    if not 0 < low <= high < math.inf:
        raise click.BadParameter(f"{text!r} is not low:high seconds with 0 < low <= high")
    return low, high


def _counts(step=1):
    """A check of one count or a comma-separated list of them, each a positive
    multiple of ``step``; seeding lays permissions out one system at a time."""
    def check(ctx, param, value):
        try:
            counts = [int(x) for x in str(value).split(",")]
        except ValueError:
            counts = [0]
        if any(c < 1 or c % step for c in counts):
            raise click.BadParameter(f"{value!r} is not a comma-separated list of positive multiples of {step}")
        return counts if isinstance(value, str) else value
    return check


@fedsim_cli.command("load")
@click.option("--permissions", type=int, default=50_000, callback=_counts(PERMISSIONS_PER_SYSTEM))
@click.option("--users", type=click.IntRange(min=1), default=20)
@click.option("--wait", default="0.01:0.1", callback=_wait_range, help="Pacing range seconds, low:high.")
@click.option("--duration", type=click.FloatRange(min=0, min_open=True), default=60.0)
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.option("--topology", "topology_path", type=click.Path(exists=True), default=None)
def fedsim_load(permissions, users, wait, duration, out_path, topology_path):
    """Load-test the permission-check endpoint at one permission count."""
    from .sim.federation import build_federation
    from .sim.loadgen import LoadProfile, run_load, seed_permissions
    from .sim.presets import load_topology

    doc = _load_topology(topology_path, load_topology)
    federation = build_federation(doc)
    try:
        workload = seed_permissions(federation, permissions)
        profile = LoadProfile(permission_count=permissions, concurrent_users=users,
                              wait_time_range=wait, duration=duration)
        report = run_load(federation, profile, workload)
    except SecurityError as exc:
        click.echo(f"load run failed: {exc.message}", err=True)
        sys.exit(1)
    finally:
        federation.close()
    payload = report.to_dict()
    click.echo(json.dumps(payload, indent=2))
    if out_path:
        Path(out_path).write_text(json.dumps(payload, indent=2))
    sys.exit(1 if report.failures else 0)


@fedsim_cli.command("ladder")
@click.option("--permissions", default="1000,10000,25000,50000", callback=_counts(PERMISSIONS_PER_SYSTEM),
              help="Comma-separated permission counts.")
@click.option("--users", default="20", callback=_counts(),
              help="Comma-separated virtual-user counts; the ladder runs "
                   "the full cross product.")
@click.option("--wait", default="0.01:0.1", callback=_wait_range)
@click.option("--duration", type=click.FloatRange(min=0, min_open=True), default=10.0)
@click.option("--out", "out_path", type=click.Path(), default=None)
def fedsim_ladder(permissions, users, wait, duration, out_path):
    """Run the load ladder, one fresh federation per scenario."""
    from .sim.loadgen import run_ladder
    from .sim.presets import load_topology

    rows = []
    for user_count in users:
        try:
            reports = run_ladder(load_topology, permissions, user_count, wait=wait, duration=duration)
        except SecurityError as exc:
            click.echo(f"ladder run failed: {exc.message}", err=True)
            sys.exit(1)
        rows.extend(r.to_dict() for r in reports)
    click.echo(json.dumps(rows, indent=2))
    if out_path:
        Path(out_path).write_text(json.dumps(rows, indent=2))
    sys.exit(1 if any(row["failures"] for row in rows) else 0)


@fedsim_cli.command("penalty")
@click.option("--link-ms", type=click.FloatRange(min=0), default=132.5,
              help="One-way link latency between associate and primary.")
@click.option("--samples", type=click.IntRange(min=1), default=9)
def fedsim_penalty(link_ms, samples):
    """Measure the extra-hop latency for a primary-only service."""
    from .sim.federation import build_federation
    from .sim.loadgen import measure_cross_site_penalty
    from .sim.presets import penalty_topology

    federation = build_federation(penalty_topology(link_ms))
    try:
        result = measure_cross_site_penalty(federation, samples=samples)
    finally:
        federation.close()
    click.echo(json.dumps(result, indent=2))
