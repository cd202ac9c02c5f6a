"""Start-up cost of the package, each measured in a fresh interpreter.

The package must not load scipy, which is a test dependency only:
scipy.optimize alone adds about 0.4 s and 49 MB to a CLI run.  ``fit_rabi``
fits in numpy, and the design calculator reads its constants from
``units``.  Nor may a scenario load pull in OpenSSL's ``_hashlib``.
Without scipy's import side effects the stepping loops must still not
page-fault: numpy.fft's per-transform scratch row and the temporaries of a
batch of mode-lattice steps must come from the heap, not from fresh mmaps
(``propagation._keep_scratch_on_heap``).  The grid backends' helper thread
comes from ``threading``, which the import loads anyway; ``concurrent.futures``
would add 5 to 8 ms to every run's start."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

STEPS = 200

# 200 full-field Strang steps on an 8192-point grid under a bichromatic
# plateau, after a warm-up advance that allocates the plans and buffers
GRID_STEPS = f"""
import json, resource, sys
import numpy as np
from spinsplit.fields import BichromaticWave, Envelope
from spinsplit.propagation import PacketSpec, PropagationConfig, Scenario, _propagator
from spinsplit.units import um_to_natural

k = 200.0
dt = 2 * np.pi / k / 64
stage = BichromaticWave(ea1=2.35e4, ea2=2.35e4, photon_energy=k,
                        envelope=Envelope(0.0, 300 * dt, 0.0))
config = PropagationConfig(backend="full-field", grid_points=8192,
                           grid_length=um_to_natural(1.5))
scn = Scenario(PacketSpec(center=0.0, width=um_to_natural(0.1), momentum=2 * k),
               [stage], 300 * dt, config)
prop, psi = _propagator(scn)
prop.advance(psi, 0.0, 10 * dt, dt)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
prop.advance(psi, 10 * dt, {10 + STEPS} * dt, dt)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps({{"faults": after - before,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}}))
"""


# 200 fresh mode-lattice steps at N = 8 on a sin^2 rise, after a warm-up
# advance; their batches build temporaries of several hundred kB
MODE_STEPS = f"""
import json, resource, sys
import numpy as np
from spinsplit.fields import Envelope, MonoStandingWave
from spinsplit.propagation import ModeLatticeEngine

w = 1200.0
h = 2 * np.pi / w / 512
stage = MonoStandingWave(ea0=4952.57508777, photon_energy=w, chi=0.0,
                         envelope=Envelope(1024 * h, 0.0, 1024 * h))
engine = ModeLatticeEngine(w, 8, stages=[stage])
c = engine.advance(engine.initial_state(2, "x+"), 0.0, 300 * h, h)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
c = engine.advance(c, 300 * h, {300 + STEPS} * h, h)
after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
print(json.dumps({{"faults": after - before,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}}))
"""


def _fresh(code: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


SCIPY_MODULES = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"


def test_import_loads_no_scipy():
    assert _fresh("import json, sys\nimport spinsplit, spinsplit.cli\n" + SCIPY_MODULES) == []


def test_import_loads_no_concurrent_futures():
    code = ("import json, sys\nimport spinsplit, spinsplit.cli\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('concurrent'))))")
    assert _fresh(code) == []


# the rabi-trace benchmark workload at an eighth of its grid: mono-rabi's
# lattice on the effective backend over a little more than half a Rabi
# period, with CSV snapshots every 5 fs; then a Rabi fit on the plateau
RABI_SCENARIO = """\
label: cold-rabi-trace
units: {time: fs, length: um}
electron: {center: 0.0, width: 0.02, momentum: 400.0, spin: x+}
stages:
  - {kind: monochromatic, label: grating, a0: 100.0, photon_energy: 200.0, chi: 0.0,
     start: 1.0, rise: 0.5, plateau: 220.0, fall: 0.5}
duration: 227.0
propagation:
  {backend: effective, snapshot_every: 5.0, grid_points: 1024, grid_length: 0.32,
   mono_convention: traveling}
outputs: {format: csv}
"""

RABI_TRACE = f"""
import json, sys, tempfile
from pathlib import Path
import spinsplit.cli as cli
from spinsplit.observables import fit_rabi

results = []
run = cli.run_scenario
cli.run_scenario = lambda scn: results.append(run(scn)) or results[-1]
with tempfile.TemporaryDirectory() as tmp:
    scenario = Path(tmp) / "rabi.scenario"
    scenario.write_text({RABI_SCENARIO!r})
    assert cli.main(["simulate", "--scenario", str(scenario), "--out", tmp + "/out"]) == 0
stage = results[0].scenario.stages[0]
ts = results[0].timeseries
lo = stage.start + stage.envelope.rise
mask = (ts.t >= lo) & (ts.t <= lo + stage.envelope.plateau)
assert fit_rabi(ts.t[mask] - lo, ts.pop_minus[mask]).omega > 0
"""


def test_rabi_trace_loads_no_scipy():
    # a CLI simulate that writes CSV snapshots, then fit_rabi
    assert _fresh(RABI_TRACE + SCIPY_MODULES) == []


def test_scenario_load_leaves_openssl_unloaded():
    # the scenario-sha256 header uses CPython's built-in SHA-256; hashlib
    # would load OpenSSL's _hashlib, about 4 MB of resident memory
    code = ("import json, sys\nimport spinsplit, spinsplit.cli\n"
            "from spinsplit.scenario import load_scenario\n"
            "assert load_scenario('desk-mono')[0].source_hash\n"
            "print(json.dumps(sorted(m for m in sys.modules if 'hashlib' in m)))")
    assert _fresh(code) == []


def test_design_loads_no_scipy():
    # ``spinsplit design`` prints its report, then the scipy modules it loaded
    code = "import json, sys\nfrom spinsplit.cli import main\nassert main(['design']) == 0\n"
    assert _fresh(code + SCIPY_MODULES) == []


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the FFT scratch page faults are a glibc malloc effect")
def test_grid_steps_do_not_page_fault_without_scipy():
    record = _fresh(GRID_STEPS)
    assert record["scipy"] == []
    assert record["faults"] / STEPS < 1.0


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the batch page faults are a glibc malloc effect")
def test_mode_lattice_steps_do_not_page_fault_without_scipy():
    record = _fresh(MODE_STEPS)
    assert record["scipy"] == []
    assert record["faults"] / STEPS < 1.0


# desk-mono's field, packet and 4096-point grid on full-field, with a 0.008 fs pulse
TINY_FULL_FIELD = """\
label: cold-tiny
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

# after each command that writes no snapshot file: whether multiprocessing
# is loaded, and whether this process has or ever had a child (a running or
# unreaped one makes waitpid return; a reaped one shows in RUSAGE_CHILDREN)
NO_WRITER = f"""
import json, os, resource, sys, tempfile
from pathlib import Path
import spinsplit.cli as cli

def started():
    try:
        os.waitpid(-1, os.WNOHANG)
        return True
    except ChildProcessError:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss > 0

record = {{"import": ["multiprocessing" in sys.modules, started()]}}
with tempfile.TemporaryDirectory() as tmp:
    rabi, tiny = Path(tmp) / "rabi.scenario", Path(tmp) / "tiny.scenario"
    rabi.write_text({RABI_SCENARIO!r})
    tiny.write_text({TINY_FULL_FIELD!r})
    for name, argv in [
            ("no-snapshots", ["simulate", "--scenario", str(rabi), "--out", tmp + "/a",
                              "--no-snapshots"]),
            ("mode-lattice", ["simulate", "--scenario", str(tiny), "--out", tmp + "/b",
                              "--backend", "mode-lattice"]),
            ("compare", ["compare", "--scenario", str(tiny)])]:
        assert cli.main(argv) == 0
        record[name] = ["multiprocessing" in sys.modules, started()]
print(json.dumps(record))
"""


def test_runs_without_snapshot_files_start_no_writer():
    # only simulate --out with snapshots forks the snapshot writer; every
    # other command neither loads multiprocessing nor starts a process
    record = _fresh(NO_WRITER)
    assert record == {name: [False, False] for name in
                      ("import", "no-snapshots", "mode-lattice", "compare")}


# after a bare import, whether the package holds its six modules and not the
# design calculator; after each command but design, whether the calculator is
# loaded; then whether design still writes its report
DESIGN_ON_DEMAND = f"""
import json, sys, tempfile, types
from pathlib import Path
import spinsplit

record = {{"package": [isinstance(getattr(spinsplit, name, None), types.ModuleType) for name in
                      ("analytic", "fields", "observables", "propagation", "scenario", "states")],
          "bare": "spinsplit.design" in sys.modules}}
import spinsplit.cli as cli
record["import"] = "spinsplit.design" in sys.modules
with tempfile.TemporaryDirectory() as tmp:
    tiny = Path(tmp) / "tiny.scenario"
    tiny.write_text({TINY_FULL_FIELD!r})
    for argv in (["simulate", "--scenario", str(tiny), "--out", tmp + "/a", "--no-snapshots"],
                 ["compare", "--scenario", str(tiny)],
                 ["analytic", "--scenario", str(tiny)]):
        assert cli.main(argv) == 0
        record[argv[0]] = "spinsplit.design" in sys.modules
    record["design"] = [cli.main(["design", "--out", tmp + "/d"]),
                        (Path(tmp) / "d" / "design-report.txt").is_file()]
print(json.dumps(record))
"""


def test_only_design_loads_the_design_calculator():
    # every command used to compile and run the calculator's 240 lines,
    # which only design uses
    assert _fresh(DESIGN_ON_DEMAND) == {
        "package": [True] * 6, "bare": False,
        "import": False, "simulate": False, "compare": False, "analytic": False,
        "design": [0, True]}
