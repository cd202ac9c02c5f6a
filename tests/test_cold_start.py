"""Start-up cost of the package, each measured in a fresh interpreter.

``import spinsplit`` must not load scipy: scipy.optimize alone adds about
0.4 s to every CLI run, and only ``fit_rabi`` needs scipy, so it imports it
when called; the design calculator reads its constants from ``units``.
Without scipy's import side effects the stepping loops must still not
page-fault: numpy.fft's per-transform scratch row and the temporaries of a
batch of mode-lattice steps must come from the heap, not from fresh mmaps
(``propagation._keep_scratch_on_heap``)."""

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
