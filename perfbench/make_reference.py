"""Regenerate reference.json: the channel quantities of the y+ and y- runs of
each workload whose populations the benchmark checks by sigma_y mixing, and
the tolerance of that check: the timestep-convergence error (the largest
change of any quantity when dt is halved), but at least ROUNDING_FLOOR.

usage (from the repository root): PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
from pathlib import Path

from spinsplit.propagation import default_timestep, run_scenario, with_backend
from spinsplit.scenario import parse_scenario_text

import checks
import workloads

BACKENDS = {"fullfield-bichrom": "full-field", "modes-mono": "mode-lattice"}
# Below this the dt-halving difference is rounding, not truncation: a few
# thousand steps at double precision (3.7e3 * 2.2e-16 = 8e-13).  The mode
# lattice's GL2 halving difference (5e-14) sits there.
ROUNDING_FLOOR = 1e-12


def quantities(name: str, spin: str, dt_factor: float) -> dict:
    scenario, _ = parse_scenario_text(workloads.WORKLOADS[name].scenario_text(spin))
    scenario = with_backend(scenario, BACKENDS[name])
    cfg = scenario.config
    cfg.dt = dt_factor * default_timestep(cfg.backend, scenario.stages, cfg.snapshot_every)
    rep = run_scenario(scenario).final_report
    return checks.mix_quantities({"pop_plus": rep.pop_plus, "pop_minus": rep.pop_minus,
                                  "sy_plus": rep.sy_plus, "sy_minus": rep.sy_minus})


def main() -> None:
    out = {}
    for name in BACKENDS:
        entry = {"template_sha256": workloads.WORKLOADS[name].template_sha256()}
        error = 0.0
        for spin in ("y+", "y-"):
            full, half = quantities(name, spin, 1.0), quantities(name, spin, 0.5)
            entry[spin] = full
            error = max(error, *(abs(full[k] - half[k]) for k in checks.MIX_KEYS))
        entry["dt_halving_error"] = error
        entry["tolerance"] = max(error, ROUNDING_FLOOR)
        out[name] = entry
        print(name, json.dumps(entry, indent=1), flush=True)
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
