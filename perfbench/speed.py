"""Machine-speed probe.

On a shared 2-core VM the CPU's speed drifts: the same run can take 4.1 s or
5.8 s, within seconds and in phases lasting minutes.  A fixed probe is timed
next to every run, and the run's times are scaled by
REFERENCE_PROBE_S / probe time.  The probe is a fixed mix of the kinds of
work the program does (FFTs and elementwise numpy on 2 x 8192 complex
arrays, Python arithmetic, number formatting).  It does not depend on
spinsplit, so a change to the program changes the scaled times and a change
in machine speed mostly does not.  Over 35 paired fullfield-bichrom runs,
the probe correlated with wall time at r = 0.74, and scaling cut the
run-to-run spread (CV) from 10.5 % to 7.8 %.
"""

from __future__ import annotations

import time

import numpy as np

# Typical probe time on the 2-core Xeon the bounds were set on, so scaled
# times read as seconds on that machine.
REFERENCE_PROBE_S = 0.33


def probe() -> float:
    """Seconds taken by the fixed probe work (about 0.3 s)."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 8192)) + 1j * rng.standard_normal((2, 8192))
    phase = np.exp(-1j * np.linspace(0.0, 1.0, 8192))
    start = time.perf_counter()
    for _ in range(150):
        x = np.fft.ifft(np.fft.fft(x, axis=1) * phase, axis=1)
        c, s = np.cos(x.real), np.sin(x.real)
        x = x * (c + 1j * s)
        x /= np.abs(x).max()
    acc = 0.0
    for k in range(150000):
        acc += (k * 0.5) ** 2 % 7.0
    for k in range(20000):
        acc += len(",".join(f"{v:.12g}" for v in (k * 0.1, k * 0.2, k * 0.3, k * 0.4, k * 0.5)))
    return time.perf_counter() - start
