"""Observables: momentum-channel populations, per-channel Bloch vectors and
polarization degrees, Rabi-trace fitting, and spin-momentum entanglement."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import curve_fit

from .states import SIGMA_Y, BraggState, SpinorWavefunction


class AnalysisError(ValueError):
    pass


@dataclass
class ChannelReport:
    """Populations and spin content of the +-2hk momentum channels.

    Populations are fractions of the total norm, so
    pop_plus + pop_minus + unassigned == 1 up to rounding.
    Bloch vectors are (sx, sy, sz) of the normalized channel spinor.
    """

    pop_plus: float
    pop_minus: float
    unassigned: float
    bloch_plus: tuple[float, float, float]
    bloch_minus: tuple[float, float, float]
    total_norm: float

    @property
    def sy_plus(self) -> float:
        return self.bloch_plus[1]

    @property
    def sy_minus(self) -> float:
        return self.bloch_minus[1]

    @property
    def poldeg_plus(self) -> float:
        return abs(self.bloch_plus[1])

    @property
    def poldeg_minus(self) -> float:
        return abs(self.bloch_minus[1])


def _bloch_from_spinors(up, dn):
    """(population, Bloch vector) of the mixed spin state sum_i |chi_i><chi_i|."""
    pu = np.sum(np.abs(up) ** 2).real
    pd = np.sum(np.abs(dn) ** 2).real
    cross = np.sum(np.conj(up) * dn)
    pop = pu + pd
    if pop <= 0.0:
        return 0.0, (0.0, 0.0, 0.0)
    return pop, (
        float(2.0 * cross.real / pop),
        float(2.0 * cross.imag / pop),
        float((pu - pd) / pop),
    )


def _channels(phi: np.ndarray, weight: float, plus, minus):
    """(ChannelReport, reduced spin density) of spin-resolved momentum
    amplitudes phi (2, M) whose columns each carry the measure ``weight``;
    ``plus`` and ``minus`` select the columns of the two channels.  The
    density is sum_p phi(p) phi(p)^dagger weight, with trace the total norm."""
    rho = phi @ phi.conj().T * weight
    norm = float(rho.trace().real)
    pops = []
    blochs = []
    for mask in (plus, minus):
        pop, bloch = _bloch_from_spinors(phi[0, mask], phi[1, mask])
        pops.append(pop * weight / norm)
        blochs.append(bloch)
    report = ChannelReport(
        pop_plus=pops[0], pop_minus=pops[1], unassigned=1.0 - pops[0] - pops[1],
        bloch_plus=blochs[0], bloch_minus=blochs[1], total_norm=norm,
    )
    return report, rho


def grid_channels(psi: SpinorWavefunction, hbar_k: float):
    """(ChannelReport, reduced spin density) of a wavefunction from one
    momentum FFT, with bins |p -+ 2 hbar k| <= hbar k."""
    phi = psi.momentum_amplitudes()
    p = psi.grid.p
    center = 2.0 * hbar_k
    return _channels(phi, psi.grid.momentum_spacing,
                     np.abs(p - center) <= hbar_k, np.abs(p + center) <= hbar_k)


def mode_channels(amplitudes: np.ndarray):
    """(ChannelReport, reduced spin density) of mode-lattice amplitudes of
    shape (2N+1, 2); mode n carries momentum n*hbar k, the channels are the
    modes n = +-2."""
    c = np.asarray(amplitudes, dtype=complex)
    n_index = np.arange(c.shape[0]) - c.shape[0] // 2
    return _channels(c.T, 1.0, n_index == 2, n_index == -2)


def channel_report(psi: SpinorWavefunction, hbar_k: float) -> ChannelReport:
    """Integrate the momentum density over the bins [hk, 3hk] and
    [-3hk, -hk]; anything outside is reported as unassigned."""
    norm = psi.norm()
    if norm <= 0.0 or not np.isfinite(norm):
        raise AnalysisError("channel report of a zero-norm state")
    return grid_channels(psi, hbar_k)[0]


def mode_channel_report(amplitudes: np.ndarray) -> ChannelReport:
    """Channel report for mode-lattice amplitudes of shape (2N+1, 2); mode n
    carries momentum n*hbar k, the channels are n = +-2."""
    if float(np.sum(np.abs(amplitudes) ** 2)) <= 0.0:
        raise AnalysisError("channel report of a zero-norm state")
    return mode_channels(amplitudes)[0]


def polarization_degree(report: ChannelReport, channel: str = "both"):
    """|<sigma_y>| of an outgoing channel; raises for an empty channel."""
    def one(name):
        pop = report.pop_plus if name == "plus" else report.pop_minus
        if pop <= 1e-6:
            raise AnalysisError(f"channel {name!r} is empty (population {pop:.2e})")
        return report.poldeg_plus if name == "plus" else report.poldeg_minus

    if channel == "both":
        return one("plus"), one("minus")
    if channel in ("plus", "minus"):
        return one(channel)
    raise AnalysisError(f"unknown channel {channel!r}")


@dataclass
class RabiFit:
    """Least-squares fit of P(t) = visibility * sin^2(omega t / 2 + phase).

    ``omega`` is in natural units (numerically equal to hbar*Omega in eV).
    ``detuning_offset`` is the detuning implied by the visibility loss,
    omega * sqrt(max(0, 1 - visibility)).
    """

    omega: float
    visibility: float
    phase: float

    @property
    def detuning_offset(self) -> float:
        return self.omega * np.sqrt(max(0.0, 1.0 - self.visibility))


def fit_rabi(t: np.ndarray, population: np.ndarray) -> RabiFit:
    """Fit a Rabi oscillation trace; the trace must span at least half a period."""
    t = np.asarray(t, dtype=float)
    pop = np.asarray(population, dtype=float)
    if t.size != pop.size or t.size < 8:
        raise AnalysisError("need matching t/population arrays with >= 8 samples")
    spread = pop.max() - pop.min()
    if spread < 1e-6:
        raise AnalysisError("trace is non-oscillatory (flat)")

    # Frequency guess from the discrete spectrum of the detrended trace.
    dt = t[1] - t[0]
    spec = np.abs(np.fft.rfft(pop - pop.mean()))
    freqs = 2.0 * np.pi * np.fft.rfftfreq(pop.size, d=dt)
    omega0 = freqs[np.argmax(spec[1:]) + 1]
    if omega0 <= 0.0:
        raise AnalysisError("could not locate an oscillation frequency")

    def model(tt, omega, vis, phase):
        return vis * np.sin(0.5 * omega * tt + phase) ** 2

    p0 = (omega0, min(spread, 1.0), 0.0)
    try:
        popt, _ = curve_fit(
            model, t, pop, p0=p0,
            bounds=([0.25 * omega0, 0.0, -np.pi], [4.0 * omega0, 1.5, np.pi]),
            maxfev=20000,
        )
    except RuntimeError as exc:
        raise AnalysisError(f"Rabi fit did not converge: {exc}") from exc
    omega, vis, phase = popt
    if omega * (t[-1] - t[0]) < np.pi * 0.9:
        raise AnalysisError("trace spans less than half a Rabi period")
    return RabiFit(float(omega), float(vis), float(phase))


def _entropy_of_spin_density(rho: np.ndarray) -> float:
    evals = np.linalg.eigvalsh(rho)
    # rho need not have unit trace: clip rounding negatives only, then normalize
    evals = np.maximum(evals.real, 0.0)
    tr = evals.sum()
    if tr <= 0:
        raise AnalysisError("entanglement of a zero-norm state")
    evals = evals / tr
    nz = evals[evals > 1e-15]
    return float(-np.sum(nz * np.log2(nz)))


def spin_momentum_entanglement(state) -> float:
    """Base-2 von Neumann entropy of the reduced spin state of a pure state.

    Accepts a SpinorWavefunction (momentum is traced out exactly) or a pure
    BraggState.  0 for product states, 1 for maximal spin-momentum
    entanglement.
    """
    if isinstance(state, SpinorWavefunction):
        phi = state.momentum_amplitudes()
        rho = phi @ phi.conj().T * state.grid.momentum_spacing
    elif isinstance(state, BraggState):
        if abs(state.norm() - 1.0) > 1e-6:
            raise AnalysisError("BraggState must be normalized and pure")
        a = state.amplitudes
        rho = np.outer(a[0:2], np.conj(a[0:2])) + np.outer(a[2:4], np.conj(a[2:4]))
    elif isinstance(state, np.ndarray) and state.ndim == 2 and state.shape[1] == 2:
        # mode-lattice amplitudes (2N+1, 2): rho = sum_n c_n c_n^dagger
        rho = state.T @ state.conj()
    else:
        raise AnalysisError("unsupported state type for entanglement")
    return _entropy_of_spin_density(rho)
