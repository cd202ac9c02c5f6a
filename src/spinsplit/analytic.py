"""Closed-form Bragg-subspace model: effective potentials, Rabi frequencies,
stage unitaries and their three-stage composition, and density-matrix filtering.

Basis ordering everywhere: (c_-2^up, c_-2^down, c_+2^up, c_+2^down), i.e. the
-2hk momentum block on top.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .states import ID2, SIGMA_Y, validate_density
from .units import MC2_EV

ID4 = np.eye(4, dtype=complex)
# sigma_y acting identically on both momentum blocks; conserved by every stage.
SIGMA_Y_TOTAL = np.block(
    [[SIGMA_Y, np.zeros((2, 2))], [np.zeros((2, 2)), SIGMA_Y]]
)

KIND_MONO = "monochromatic"
KIND_BI = "bichromatic"


def rabi_frequency_mono(ea0: float) -> float:
    """hbar*Omega_m = (e a0)^2 / (8 m c^2) for the standing-wave amplitude ea0 [eV]."""
    if ea0 < 0:
        raise ValueError("amplitude must be non-negative")
    return ea0 * ea0 / (8.0 * MC2_EV)


def rabi_frequency_bi(ea1: float, ea2: float, hbar_omega: float) -> float:
    """hbar*Omega_b = (e a1)^2 (e a2) hbar w / (2 (m c^2)^3), all in eV."""
    if ea1 < 0 or ea2 < 0:
        raise ValueError("amplitudes must be non-negative")
    return ea1 * ea1 * ea2 * hbar_omega / (2.0 * MC2_EV**3)


@dataclass(frozen=True)
class EffectivePotential:
    """Cycle-averaged lattice felt by the electron.

    monochromatic: V(z) = strength * cos(4 k z + chi) * identity
    bichromatic:   V(z) = -strength * sin(4 k z) * sigma_y
    Both share the spatial period pi/(2k).
    """

    kind: str
    strength: float
    wavenumber: float
    chi: float = 0.0

    def __post_init__(self):
        if self.kind not in (KIND_MONO, KIND_BI):
            raise ValueError(f"unknown potential kind {self.kind!r}")

    @classmethod
    def mono(cls, ea0: float, wavenumber: float, chi: float) -> "EffectivePotential":
        return cls(KIND_MONO, rabi_frequency_mono(ea0), wavenumber, chi)

    @classmethod
    def bichromatic(cls, ea1: float, ea2: float, hbar_omega: float) -> "EffectivePotential":
        return cls(KIND_BI, rabi_frequency_bi(ea1, ea2, hbar_omega), hbar_omega)

    @property
    def period(self) -> float:
        return np.pi / (2.0 * self.wavenumber)


def effective_potential_value(pot: EffectivePotential, z: float) -> np.ndarray:
    """2x2 Hermitian potential matrix at position z [eV]."""
    phase = 4.0 * pot.wavenumber * z
    if pot.kind == KIND_MONO:
        return pot.strength * np.cos(phase + pot.chi) * ID2
    return -pot.strength * np.sin(phase) * SIGMA_Y


def coupling_matrix(kind: str, chi: float = 0.0) -> np.ndarray:
    """The dimensionless 4x4 block matrix M with V = (hbar Omega / 2) M; M^2 = 1."""
    zero = np.zeros((2, 2))
    if kind == KIND_MONO:
        return np.block(
            [[zero, np.exp(-1j * chi) * ID2], [np.exp(1j * chi) * ID2, zero]]
        )
    if kind == KIND_BI:
        return 1j * np.block([[zero, -SIGMA_Y], [SIGMA_Y, zero]])
    raise ValueError(f"unknown stage kind {kind!r}")


def stage_unitary(kind: str, theta: float, chi: float = 0.0) -> np.ndarray:
    """exp(-i theta M / 2), a 4x4 array, for a pulse of area theta = Omega*T.

    Since M^2 = 1 this is cos(theta/2) - i sin(theta/2) M exactly; at
    theta = pi/2 and pi it reduces to the familiar splitter/mirror forms.
    """
    m = coupling_matrix(kind, chi)
    return np.cos(0.5 * theta) * ID4 - 1j * np.sin(0.5 * theta) * m


def total_evolution(chi: float, areas=(np.pi / 2, np.pi, np.pi / 2)) -> np.ndarray:
    """Composite splitter U3 U2 U1: bichromatic splitter, standing-wave mirror,
    then standing-wave splitter, with common phase chi on the two mono stages."""
    u1 = stage_unitary(KIND_BI, areas[0])
    u2 = stage_unitary(KIND_MONO, areas[1], chi)
    u3 = stage_unitary(KIND_MONO, areas[2], chi)
    return u3 @ u2 @ u1


def evolve_density(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """U rho U(dagger); validates the input density matrix."""
    return u @ validate_density(rho) @ u.conj().T
