"""Feasibility calculator: intensities, interaction geometry, pulse energy,
and the tolerance budget for the incident electron momentum distribution.

Inputs and outputs use lab units (eV, fs, um, W/cm^2, mJ); conversions to SI
happen here and nowhere else.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .analytic import rabi_frequency_bi, rabi_frequency_mono
from .units import C_NM_PER_FS, C_SI, E_SI, EPSILON_0_SI, HBAR_SI, M_E_SI, MC2_EV, TIME_UNIT_FS

XI_NONRELATIVISTIC_LIMIT = 0.2
VELOCITY_FLAG_LIMIT = 0.05


@dataclass(frozen=True)
class LaserSpec:
    """One laser wave: photon energy and dimensionless strength xi = e*a/mc^2."""

    photon_energy: float
    xi: float

    def __post_init__(self):
        if self.photon_energy <= 0 or self.xi < 0:
            raise ValueError("photon energy must be positive and xi non-negative")

    @classmethod
    def from_amplitude(cls, ea: float, photon_energy: float) -> "LaserSpec":
        return cls(photon_energy=photon_energy, xi=ea / MC2_EV)

    @property
    def ea(self) -> float:
        return self.xi * MC2_EV

    @property
    def nonrelativistic(self) -> bool:
        return self.xi < XI_NONRELATIVISTIC_LIMIT


@dataclass(frozen=True)
class ToleranceBudget:
    dp_z_rel: float = 0.0
    dp_y_rel: float = 0.0
    dp_x: float = 0.0      # eV/c
    dL_rel: float = 0.0

    def __post_init__(self):
        for name, value in asdict(self).items():
            if value < 0:
                raise ValueError(f"tolerance {name} must be non-negative, got {value:g}")


def intensity_from_xi(xi: float, hbar_omega: float) -> float:
    """Peak intensity in W/cm^2 of a traveling wave with strength xi.

    Peak electric field E = xi m c omega / e, I = eps0 c E^2 / 2.
    """
    if xi < 0 or hbar_omega <= 0:
        raise ValueError("need xi >= 0 and positive photon energy")
    omega_si = hbar_omega * E_SI / HBAR_SI
    e_peak = xi * M_E_SI * C_SI * omega_si / E_SI
    intensity_w_m2 = 0.5 * EPSILON_0_SI * C_SI * e_peak**2
    return intensity_w_m2 * 1e-4


def electron_velocity(kinetic_energy: float) -> float:
    """Nonrelativistic speed in units of c from a kinetic energy in eV."""
    if kinetic_energy < 0:
        raise ValueError("kinetic energy must be non-negative")
    return np.sqrt(2.0 * kinetic_energy / MC2_EV)


def interaction_geometry(hbar_omega_b: float, kinetic_energy: float) -> tuple[float, float]:
    """(T_b in fs, beam width Delta-y in um) for a quarter Rabi cycle.

    T_b = pi/(2 Omega_b); Delta-y = v T_b with v the transverse electron
    velocity from the given kinetic energy.
    """
    if hbar_omega_b <= 0:
        raise ValueError(f"bichromatic Rabi energy must be positive, got {hbar_omega_b:g} eV")
    if kinetic_energy <= 0:
        raise ValueError(f"electron energy must be positive, got {kinetic_energy:g} eV")
    t_b_fs = 0.5 * np.pi / hbar_omega_b * TIME_UNIT_FS
    v = electron_velocity(kinetic_energy)
    dy_um = v * C_NM_PER_FS * t_b_fs * 1e-3
    return t_b_fs, dy_um


def pulse_energy_mj(intensity: float, dx_um: float, dy_um: float, duration_fs: float) -> float:
    """Uniform top-hat estimate E = I * dx * dy * duration, in mJ."""
    if min(intensity, dx_um, dy_um, duration_fs) < 0:
        raise ValueError("inputs must be non-negative")
    area_cm2 = dx_um * dy_um * 1e-8
    return intensity * area_cm2 * duration_fs * 1e-15 * 1e3


def momentum_acceptance(hbar_omega_b: float, hbar_k: float) -> float:
    """Relative longitudinal momentum width Delta p_z / p_z = m Omega_b / (4 hbar k^2)."""
    if hbar_omega_b < 0 or hbar_k <= 0:
        raise ValueError("need non-negative Rabi energy and positive hbar k")
    return MC2_EV * hbar_omega_b / (4.0 * hbar_k**2)


def scatter_probability_uncertainty(dp_y_rel: float, dL_rel: float) -> float:
    """Delta P_scatt / P_scatt = (pi/2)(dp_y/p_y + dL/L) at the 50/50 point."""
    if dp_y_rel < 0 or dL_rel < 0:
        raise ValueError("tolerances must be non-negative")
    return 0.5 * np.pi * (dp_y_rel + dL_rel)


def no_flip_rabi(dp_x: float, hbar_k: float, hbar_omega_b: float) -> float:
    """Spin-preserving background Rabi energy (5 dp_x / 2 hbar k) * hbar Omega_b."""
    if dp_x < 0:
        raise ValueError(f"transverse momentum spread must be non-negative, got {dp_x:g} eV/c")
    if hbar_k <= 0:
        raise ValueError(f"photon momentum hbar k must be positive, got {hbar_k:g} eV/c")
    if hbar_omega_b < 0:
        raise ValueError(f"bichromatic Rabi energy must be non-negative, got {hbar_omega_b:g} eV")
    return 2.5 * dp_x / hbar_k * hbar_omega_b


@dataclass
class DesignReport:
    """Derived experimental quantities; ``flags`` lists violated guidance bounds."""

    hbar_omega: float
    xi1: float
    xi2: float
    intensity_1: float
    intensity_2: float
    hbar_rabi_bi: float
    hbar_rabi_mono: float
    t_bi_fs: float
    t_mono_pi_fs: float
    beam_width_um: float
    pulse_energy_mj: float
    momentum_acceptance: float
    bragg_momentum: float
    electron_energy: float
    velocity_c: float
    scatter_uncertainty: float
    no_flip_rabi: float
    flags: list = field(default_factory=list)

    def as_pairs(self) -> list[tuple[str, float]]:
        return [
            ("hbar_omega_eV", self.hbar_omega),
            ("xi1", self.xi1),
            ("xi2", self.xi2),
            ("I1_W_cm2", self.intensity_1),
            ("I2_W_cm2", self.intensity_2),
            ("hbar_Omega_b_eV", self.hbar_rabi_bi),
            ("hbar_Omega_m_eV", self.hbar_rabi_mono),
            ("T_b_fs", self.t_bi_fs),
            ("T_mono_pi_fs", self.t_mono_pi_fs),
            ("beam_width_um", self.beam_width_um),
            ("pulse_energy_mJ", self.pulse_energy_mj),
            ("dpz_over_pz", self.momentum_acceptance),
            ("bragg_pz_eV_c", self.bragg_momentum),
            ("electron_energy_eV", self.electron_energy),
            ("v_over_c", self.velocity_c),
            ("dP_over_P", self.scatter_uncertainty),
            ("hbar_Omega_noflip_eV", self.no_flip_rabi),
        ]


def full_design_report(
    bichromatic: tuple[LaserSpec, LaserSpec],
    mono_amplitude: float,
    electron_energy: float,
    tolerances: ToleranceBudget = ToleranceBudget(),
) -> DesignReport:
    """Compose intensities, Rabi energies, geometry, energy and tolerance
    numbers for a complete parameter point; flags violated bounds."""
    spec1, spec2 = bichromatic
    if abs(spec1.photon_energy - spec2.photon_energy) > 1e-9 * spec1.photon_energy:
        raise ValueError("both bichromatic waves share the fundamental photon energy")
    hw = spec1.photon_energy
    flags = []
    for label, spec in (("xi1", spec1), ("xi2", spec2)):
        if not spec.nonrelativistic:
            flags.append(f"{label} = {spec.xi:.3f} outside the nonrelativistic regime (< 0.2)")

    i1 = intensity_from_xi(spec1.xi, hw)
    i2 = intensity_from_xi(spec2.xi, 2.0 * hw)
    rabi_b = rabi_frequency_bi(spec1.ea, spec2.ea, hw)
    rabi_m = rabi_frequency_mono(mono_amplitude)
    t_b, dy = interaction_geometry(rabi_b, electron_energy)
    t_m_pi = np.pi / rabi_m * TIME_UNIT_FS if rabi_m > 0 else np.inf
    v = electron_velocity(electron_energy)
    if v > VELOCITY_FLAG_LIMIT:
        flags.append(f"v/c = {v:.3f} beyond the nonrelativistic kinematics flag (0.05)")

    energy = pulse_energy_mj(i1 + i2, dy, dy, t_b)

    hbar_k = hw  # k = omega/c, in eV units
    dpz = momentum_acceptance(rabi_b, hbar_k)
    if dpz > 0.04:
        flags.append(f"dpz/pz = {dpz:.3f} exceeds the 0.04 resonance-width bound")
    noflip = no_flip_rabi(tolerances.dp_x, hbar_k, rabi_b)
    if tolerances.dp_x > 0.1 * hbar_k:
        flags.append("dp_x not << hbar k: spin-preserving scattering is not suppressed")
    dpp = scatter_probability_uncertainty(tolerances.dp_y_rel, tolerances.dL_rel)

    return DesignReport(
        hbar_omega=hw,
        xi1=spec1.xi,
        xi2=spec2.xi,
        intensity_1=i1,
        intensity_2=i2,
        hbar_rabi_bi=rabi_b,
        hbar_rabi_mono=rabi_m,
        t_bi_fs=t_b,
        t_mono_pi_fs=t_m_pi,
        beam_width_um=dy,
        pulse_energy_mj=energy,
        momentum_acceptance=dpz,
        bragg_momentum=2.0 * hbar_k,
        electron_energy=electron_energy,
        velocity_c=v,
        scatter_uncertainty=dpp,
        no_flip_rabi=noflip,
        flags=flags,
    )


def paper_design_report(tolerances: ToleranceBudget = ToleranceBudget()) -> DesignReport:
    """Report at the published operating point: e*a1 = e*a2 = 2.35e4 eV,
    hbar*omega = 200 eV, mono standing amplitude 200 eV, 30 eV electrons."""
    spec1 = LaserSpec.from_amplitude(2.35e4, 200.0)
    spec2 = LaserSpec.from_amplitude(2.35e4, 200.0)
    return full_design_report((spec1, spec2), mono_amplitude=200.0,
                              electron_energy=30.0, tolerances=tolerances)
