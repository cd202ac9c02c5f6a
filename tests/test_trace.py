"""The traced benchmark run (``perfbench/child.py`` with TRACE=1) wraps package
functions by attribute before it calls the CLI.  A rename that drops one of
them fails every traced run, so one tiny traced simulate runs per backend.  On
the grid backends the kinetic step must go through ``numpy.fft`` and every
potential step through ``propagation._apply_potential``, and on the mode
lattice every fresh step through ``ModeLatticeEngine.gl2_step``, or the
per-layer metrics silently read 0.  ``gl2_step`` takes a run of fresh steps
per call, so the traced ``propagation.gl2_steps`` counts runs; a guard
checks that the runs stay many steps long.  One traced compare guards the
analytic prediction that the ``modes-mono`` workload runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spinsplit.propagation import ModeLatticeEngine, run_scenario
from spinsplit.scenario import parse_scenario_text

ROOT = Path(__file__).resolve().parents[1]

# desk-mono's field, packet and grid with a 0.008 fs pulse
TINY = """\
label: trace-guard
units: {time: fs, length: um}
electron: {center: 0.0, width: 0.008, momentum: 2400.0, spin: x+}
stages:
  - {kind: monochromatic, label: splitter, a0: 4952.57508777, photon_energy: 1200.0,
     chi: 0.0, start: 0.002, rise: 0.002, plateau: 0.004, fall: 0.002}
duration: 0.012
propagation:
  {backend: full-field, snapshot_every: 0.004, grid_points: 4096,
   grid_length: 0.236792364, mode_halfwidth: 8, mono_convention: standing}
"""


def traced(tmp_path, *cli_args) -> dict:
    """The stats record of TINY run traced with the spinsplit arguments
    cli_args; fails unless the run exits 0."""
    scenario = tmp_path / "tiny.scenario"
    scenario.write_text(TINY)
    stats = tmp_path / "stats.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), str(stats), "1", "0", "--",
           cli_args[0], "--scenario", str(scenario), *cli_args[1:]]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(stats.read_text())
    assert "error" not in record
    assert record["spans"] and len(record["results"]) == 1
    return record


@pytest.mark.parametrize("backend", ["full-field", "effective", "mode-lattice"])
def test_traced_run_succeeds(backend, tmp_path):
    record = traced(tmp_path, "simulate", "--backend", backend,
                    "--out", str(tmp_path / "out"), "--format", "binary")
    if backend == "mode-lattice":
        assert any(name == "propagation.gl2" for name, *_ in record["spans"])
    else:
        assert any(name == "propagation.kinetic_fft" for name, *_ in record["spans"])
        assert record["counts"].get("potential_applies", 0) > 0


def test_traced_compare_succeeds(tmp_path):
    # the modes-mono workload runs compare, whose analytic row comes from
    # the traced cli.analytic_prediction
    record = traced(tmp_path, "compare", "--backends", "mode-lattice")
    assert any(name == "analytic.predict" for name, *_ in record["spans"])


def test_mode_lattice_batches_its_fresh_steps(monkeypatch):
    # the edges of TINY hold about 600 fresh steps; one gl2_step call per
    # step would be the unbatched loop
    starts = []
    gl2_step = ModeLatticeEngine.gl2_step

    def counted(self, amps, t, dt):
        starts.append(np.size(t))
        return gl2_step(self, amps, t, dt)

    monkeypatch.setattr(ModeLatticeEngine, "gl2_step", counted)
    scn, _ = parse_scenario_text(TINY, backend="mode-lattice")
    run_scenario(scn)
    assert sum(starts) > 500
    assert sum(starts) >= 10 * len(starts)
