"""The shipped files under ``configs/`` stay equal to the documents the code builds."""

import json
from pathlib import Path

from fedsec.sim.presets import penalty_topology, two_site_topology
from fedsec.sim.scenario import load_scenario, walkthrough_steps, walkthrough_topology_doc
from fedsec.skadmin import BootstrapConfig, check_deployment_order

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_the_shipped_configs_match_the_code():
    for name, build in (("topology_two_site.json", two_site_topology),
                        ("topology_penalty.json", penalty_topology),
                        ("topology_walkthrough.json", walkthrough_topology_doc)):
        assert json.loads((CONFIGS / name).read_text()) == build(), name
    assert load_scenario(CONFIGS / "scenario_sac_nominal.json") == walkthrough_steps("nominal")
    for kind in ("primary", "associate"):
        config = BootstrapConfig.from_file(CONFIGS / f"bootstrap_{kind}.json")
        assert config.is_primary == (kind == "primary"), kind
        events = json.loads((CONFIGS / f"deploy_events_{kind}.json").read_text())
        assert check_deployment_order(events, kind).ok, kind
