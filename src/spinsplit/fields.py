"""Time-dependent vector potentials of the two laser stages and their pulses.

Both stage kinds are ``FieldStage``s, and each adds only its amplitudes,
``kind`` (``analytic``'s name), envelope ``power`` and ``effective_lattice``.
Amplitudes are stored as e*a in eV.  The magnetic field returned is e*B_y in
eV per natural length unit (B = dA_x/dz with the slowly varying envelope
treated as z-independent).  Every function of time here is written once, in
numpy, and works elementwise on an array of times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .analytic import KIND_BI, KIND_MONO, EffectivePotential

# Mean of f(t)^power over one sin^2 edge; power counts how many field factors
# the driving term carries (A^2 terms: 2, the bichromatic three-photon term: 3).
EDGE_AREA_WEIGHTS = {1: 0.5, 2: 3.0 / 8.0, 3: 5.0 / 16.0}


@dataclass(frozen=True)
class Envelope:
    """sin^2-edged flat-top envelope: f in [0,1], continuous, 1 on the plateau."""

    rise: float
    plateau: float
    fall: float

    def __post_init__(self):
        if self.rise < 0 or self.plateau < 0 or self.fall < 0:
            raise ValueError("envelope segments must be non-negative")

    @property
    def duration(self) -> float:
        return self.rise + self.plateau + self.fall

    def value(self, t):
        """Envelope at local time t (t = 0 is the start of the rise),
        elementwise on an array of times; a float for a single time."""
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        if self.rise > 0:
            m = (t >= 0) & (t < self.rise)
            out[m] = np.sin(0.5 * np.pi * t[m] / self.rise) ** 2
        plateau_lo = self.rise
        plateau_hi = self.rise + self.plateau
        out[(t >= plateau_lo) & (t <= plateau_hi)] = 1.0
        if self.fall > 0:
            m = (t > plateau_hi) & (t < self.duration)
            out[m] = np.sin(0.5 * np.pi * (self.duration - t[m]) / self.fall) ** 2
        return out if out.ndim else float(out)

    def effective_duration(self, power: int) -> float:
        """Integral of f(t)^power: the pulse-area-equivalent duration."""
        w = EDGE_AREA_WEIGHTS[power]
        return self.plateau + w * (self.rise + self.fall)


@dataclass(frozen=True, kw_only=True)
class FieldStage:
    """A laser stage of photon energy hbar*w under ``envelope`` from ``start``.
    Its cycle-averaged lattice, ``effective_lattice()``, scales as
    f(t)^``power`` (``EDGE_AREA_WEIGHTS``)."""

    photon_energy: float
    envelope: Envelope
    start: float = 0.0
    label: str = ""

    kind: ClassVar[str]
    power: ClassVar[int]

    def __post_init__(self):
        if self.photon_energy <= 0:
            raise ValueError("photon energy must be positive")

    @property
    def omega(self) -> float:
        return self.photon_energy  # hbar = 1

    @property
    def wavenumber(self) -> float:
        return self.photon_energy  # c = 1, so k = w exactly

    @property
    def end(self) -> float:
        return self.start + self.envelope.duration


@dataclass(frozen=True, kw_only=True)
class MonoStandingWave(FieldStage):
    """Standing wave e*A = f(t) ea0 cos(2 w t) cos(2 k z + chi/2).

    ``ea0`` is the amplitude appearing literally in that expression (the
    scenario layer resolves the per-traveling-wave vs standing convention
    before building the stage).  ``photon_energy`` is the fundamental hbar*w;
    the standing wave itself oscillates at 2w with wavenumber 2k = 2w/c.
    """

    ea0: float
    chi: float

    kind = KIND_MONO
    power = 2

    def effective_lattice(self) -> EffectivePotential:
        return EffectivePotential.mono(self.ea0, self.wavenumber, self.chi)


@dataclass(frozen=True, kw_only=True)
class BichromaticWave(FieldStage):
    """Counterpropagating pair e*A = f(t) [ea1 cos(w t - k z) + ea2 cos(2 w t + 2 k z)].

    The fundamental travels toward +z, the second harmonic toward -z.
    """

    ea1: float
    ea2: float

    kind = KIND_BI
    power = 3

    def effective_lattice(self) -> EffectivePotential:
        return EffectivePotential.bichromatic(self.ea1, self.ea2, self.photon_energy)


def stage_envelope(stage: FieldStage, t):
    return stage.envelope.value(t - stage.start)


def vector_potential(stage: FieldStage, t, z):
    """e*A_x(t, z) in eV, including the envelope.

    The carrier phases run in absolute time; for these elastic 2- and
    3-photon processes the physics is invariant under a common time-origin
    shift, so no per-stage carrier phase is needed.
    """
    f = stage_envelope(stage, t)
    w = stage.omega
    k = stage.wavenumber
    if isinstance(stage, MonoStandingWave):
        return f * stage.ea0 * np.cos(2.0 * w * t) * np.cos(2.0 * k * z + 0.5 * stage.chi)
    return f * (
        stage.ea1 * np.cos(w * t - k * z) + stage.ea2 * np.cos(2.0 * w * t + 2.0 * k * z)
    )


def spatial_harmonics(stage: FieldStage, t):
    """(alpha_1, alpha_2): the coefficients of e^{ikz} and e^{2ikz} in
    e*A_x(t, z), envelope included, elementwise on an array of times.
    e*A_x is real and has no uniform part, so alpha_{-j} = conj(alpha_j) and
    alpha_0 = 0."""
    f = stage_envelope(stage, t)
    w = stage.omega
    if isinstance(stage, MonoStandingWave):
        half = 0.5 * f * stage.ea0 * np.cos(2.0 * w * t)
        return 0j * half, half * np.exp(0.5j * stage.chi)
    # cos(w t - k z) carries e^{-i w t}/2 on e^{ikz}; cos(2 w t + 2 k z) e^{2i w t}/2 on e^{2ikz}
    return (0.5 * f * stage.ea1 * np.exp(-1j * w * t),
            0.5 * f * stage.ea2 * np.exp(2j * w * t))


def magnetic_field(stage: FieldStage, t, z):
    """e*B_y(t, z) = d(e*A_x)/dz, envelope treated as z-independent."""
    f = stage_envelope(stage, t)
    w = stage.omega
    k = stage.wavenumber
    if isinstance(stage, MonoStandingWave):
        return -f * stage.ea0 * np.cos(2.0 * w * t) * 2.0 * k * np.sin(2.0 * k * z + 0.5 * stage.chi)
    return f * (
        stage.ea1 * k * np.sin(w * t - k * z)
        - 2.0 * k * stage.ea2 * np.sin(2.0 * w * t + 2.0 * k * z)
    )
