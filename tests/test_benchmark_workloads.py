"""The benchmark runs the command line of each workload in
``perfbench/workloads.py`` on the scenario file it generates.  A removed flag
or a stricter scenario reader would fail every benchmark run, so each
workload's arguments must parse and its seed-1 scenario must load."""

import runpy
from pathlib import Path

import pytest

from spinsplit.cli import build_parser
from spinsplit.scenario import parse_scenario_text

WORKLOADS = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))
SEEDED_SPIN = WORKLOADS["seeded_spin"](1)


@pytest.mark.parametrize("name", sorted(WORKLOADS["WORKLOADS"]))
def test_workload_argv_parses_and_its_scenario_loads(name, tmp_path):
    work = WORKLOADS["WORKLOADS"][name]
    path = str(tmp_path / f"{name}.scenario")
    args = build_parser().parse_args(work.cli_argv(path, str(tmp_path / "out")))
    assert args.scenario == path
    scenario, _ = parse_scenario_text(work.scenario_text(SEEDED_SPIN))
    assert scenario.label == f"bench-{name}"
