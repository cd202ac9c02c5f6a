"""The benchmark's workloads: the scenario file each one generates from a seed
and the spinsplit command line it runs on that file.

The seed picks only the initial electron spin, uniformly on the Bloch sphere;
field, grid and packet are fixed per workload so that run time does not
depend on the seed.  The parameters are written out here rather than read
from the bundled scenarios, so a change to a bundled file cannot change what
the benchmark measures.
"""

from __future__ import annotations

import cmath
import hashlib
import math
import random
from dataclasses import dataclass

# desk-bichrom's field, packet and 8192-point grid with the pulse shortened to
# 0.064 fs (rise/fall 0.008 fs, 75 % of the steps on the plateau): about 3.1 k
# carrier-resolved Strang steps on the full-field backend.
FULLFIELD_BICHROM = """\
label: bench-fullfield-bichrom
units: {{time: fs, length: um}}
electron: {{center: 0.0, width: 0.010, momentum: 3200.0, spin: {spin}}}
stages:
  - {{kind: bichromatic, label: splitter, a1: 5.11e4, a2: 5.11e4, photon_energy: 1600.0,
     start: 0.02, rise: 0.008, plateau: 0.048, fall: 0.008}}
duration: 0.1
propagation:
  {{backend: full-field, snapshot_every: 0.01, grid_points: 8192, grid_length: 0.158,
   mode_halfwidth: 20, mono_convention: traveling}}
"""

# desk-mono's field, packet and N = 8 lattice with the pulse shortened to
# 0.05 fs: about 3.7 k GL2 steps on the mode lattice.
MODES_MONO = """\
label: bench-modes-mono
units: {{time: fs, length: um}}
electron: {{center: 0.0, width: 0.008, momentum: 2400.0, spin: {spin}}}
stages:
  - {{kind: monochromatic, label: splitter, a0: 4952.57508777, photon_energy: 1200.0,
     chi: 0.0, start: 0.02, rise: 0.01, plateau: 0.03, fall: 0.01}}
duration: 0.08
propagation:
  {{backend: full-field, snapshot_every: 0.005, grid_points: 4096, grid_length: 0.236792364,
   mode_halfwidth: 8, mono_convention: standing}}
"""

# mono-rabi on the effective backend with the plateau cut to 220 fs, a little
# over half a Rabi period (enough for a 2 % fit), and a CSV snapshot every
# 5 fs: 46 files of 8192 rows.
RABI_TRACE = """\
label: bench-rabi-trace
units: {{time: fs, length: um}}
electron: {{center: 0.0, width: 0.15, momentum: 400.0, spin: {spin}}}
stages:
  - {{kind: monochromatic, label: grating, a0: 100.0, photon_energy: 200.0, chi: 0.0,
     start: 1.0, rise: 0.5, plateau: 220.0, fall: 0.5}}
duration: 224.0
propagation:
  {{backend: effective, snapshot_every: 5.0, grid_points: 8192, grid_length: 2.4,
   mono_convention: traveling}}
outputs: {{format: csv}}
"""


@dataclass(frozen=True)
class Workload:
    name: str
    template: str
    argv: tuple  # spinsplit arguments; {scenario} and {out} are filled in per run

    def template_sha256(self) -> str:
        return hashlib.sha256(self.template.encode()).hexdigest()

    def scenario_text(self, spin) -> str:
        """The scenario file for a spin given by name or as two complex components."""
        if not isinstance(spin, str):
            # fixed-point numbers: YAML 1.1 reads an exponent like 1e-05 as a string
            spin = "[" + ", ".join(f"[{c.real:.15f}, {c.imag:.15f}]" for c in spin) + "]"
        return self.template.format(spin=spin)

    def cli_argv(self, scenario_path: str, out_dir: str) -> list[str]:
        return [a.format(scenario=scenario_path, out=out_dir) for a in self.argv]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "fullfield-bichrom", FULLFIELD_BICHROM,
            ("simulate", "--scenario", "{scenario}", "--no-snapshots", "--out", "{out}"),
        ),
        Workload(
            "modes-mono", MODES_MONO,
            ("compare", "--scenario", "{scenario}", "--backends", "mode-lattice"),
        ),
        Workload(
            "rabi-trace", RABI_TRACE,
            ("simulate", "--scenario", "{scenario}", "--out", "{out}"),
        ),
    )
}


def seeded_spin(seed: int) -> tuple[complex, complex]:
    """A spinor (z basis) uniformly distributed on the Bloch sphere, rounded to
    the 15 decimals the scenario file carries."""
    rng = random.Random(seed)
    theta = math.acos(1.0 - 2.0 * rng.random())
    phi = 2.0 * math.pi * rng.random()
    comps = (complex(math.cos(0.5 * theta)), cmath.exp(1j * phi) * math.sin(0.5 * theta))
    return tuple(complex(round(c.real, 15), round(c.imag, 15)) for c in comps)


def sigma_y_weights(spin) -> tuple[float, float]:
    """(|<y+|spin>|^2, |<y-|spin>|^2) with y+- = (1, +-i)/sqrt(2)."""
    a, b = spin
    norm = abs(a) ** 2 + abs(b) ** 2
    return abs(a - 1j * b) ** 2 / (2.0 * norm), abs(a + 1j * b) ** 2 / (2.0 * norm)
