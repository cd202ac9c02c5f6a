"""The benchmark runs the command line of each workload in
``perfbench/workloads.py`` on the scenario file it generates, and checks each
run with ``perfbench/checks.py``.  A removed flag or a stricter scenario
reader would fail every benchmark run, so each workload's arguments must
parse and its seed-1 scenario must load; a mode-lattice change that moves
``modes-mono`` off its stored sigma_y mix would too, so its seed-1 run must
pass that check.  The benchmark's files are only read."""

import json
import runpy
from pathlib import Path

import pytest

from spinsplit.cli import build_parser
from spinsplit.propagation import run_scenario, with_backend
from spinsplit.scenario import parse_scenario_text

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = runpy.run_path(str(PERFBENCH / "workloads.py"))
CHECKS = runpy.run_path(str(PERFBENCH / "checks.py"))
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
SEEDED_SPIN = WORKLOADS["seeded_spin"](1)


@pytest.mark.parametrize("name", sorted(WORKLOADS["WORKLOADS"]))
def test_workload_argv_parses_and_its_scenario_loads(name, tmp_path):
    work = WORKLOADS["WORKLOADS"][name]
    path = str(tmp_path / f"{name}.scenario")
    args = build_parser().parse_args(work.cli_argv(path, str(tmp_path / "out")))
    assert args.scenario == path
    scenario, _ = parse_scenario_text(work.scenario_text(SEEDED_SPIN))
    assert scenario.label == f"bench-{name}"


def test_modes_mono_passes_the_benchmark_sigma_y_mix_check():
    # the check every modes-mono benchmark run gets, whose floor is 1e-12
    work = WORKLOADS["WORKLOADS"]["modes-mono"]
    reference = REFERENCE["modes-mono"]
    assert reference["template_sha256"] == work.template_sha256()
    scenario, _ = parse_scenario_text(work.scenario_text(SEEDED_SPIN))
    rep = run_scenario(with_backend(scenario, "mode-lattice")).final_report
    result = {"pop_plus": rep.pop_plus, "pop_minus": rep.pop_minus,
              "sy_plus": rep.sy_plus, "sy_minus": rep.sy_minus}
    weights = WORKLOADS["sigma_y_weights"](SEEDED_SPIN)
    assert CHECKS["check_mix"](result, weights, reference) == []
