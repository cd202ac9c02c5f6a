"""Observables: momentum-channel populations, per-channel Bloch vectors and
polarization degrees, Rabi-trace fitting, and spin-momentum entanglement."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .states import BraggState, SpinorWavefunction, _bloch_from_spinors


class AnalysisError(ValueError):
    pass


# The report columns of a state, as ChannelReport attributes: every time
# series, prediction and final report lists these values in this order.
REPORT_COLUMNS = ("pop_plus", "pop_minus", "sy_plus", "sy_minus",
                  "poldeg_plus", "poldeg_minus", "entropy")


@dataclass
class ChannelReport:
    """Populations and spin content of the +-2hk momentum channels.

    Populations are fractions of the total norm, so
    pop_plus + pop_minus + unassigned == 1 up to rounding.
    Bloch vectors are (sx, sy, sz) of the normalized channel spinor, and
    (0, 0, 0) for a channel with no population.  ``entropy`` (base 2) and ``sy_total`` (<sigma_y> over all momenta) are
    those of the reduced spin density.
    """

    pop_plus: float
    pop_minus: float
    unassigned: float
    bloch_plus: tuple[float, float, float]
    bloch_minus: tuple[float, float, float]
    total_norm: float
    entropy: float = 0.0
    sy_total: float = 0.0

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

    def row(self) -> tuple:
        """The values of REPORT_COLUMNS."""
        return tuple(getattr(self, name) for name in REPORT_COLUMNS)


def _channels(phi: np.ndarray, weight: float, plus, minus) -> ChannelReport:
    """Channel report of spin-resolved momentum amplitudes phi (2, M) whose
    columns each carry the measure ``weight``; ``plus`` and ``minus`` select
    the columns of the two channels.  Every ChannelReport is built here.  The
    reduced spin density sum_p phi(p) phi(p)^dagger weight has the total norm
    as its trace and gives the entropy and <sigma_y>."""
    rho = phi @ phi.conj().T * weight
    norm = float(rho.trace().real)
    if norm <= 0.0 or not np.isfinite(norm):
        raise AnalysisError("channel report of a state with zero or non-finite norm")
    pops = []
    blochs = []
    for mask in (plus, minus):
        pop, bloch = _bloch_from_spinors(phi[0, mask], phi[1, mask])
        pops.append(pop * weight / norm)
        blochs.append(bloch)
    return ChannelReport(
        pop_plus=pops[0], pop_minus=pops[1], unassigned=1.0 - pops[0] - pops[1],
        bloch_plus=blochs[0], bloch_minus=blochs[1], total_norm=norm,
        entropy=_entropy_of_spin_density(rho), sy_total=float(2.0 * rho[1, 0].imag / norm),
    )


def channel_report(psi: SpinorWavefunction, hbar_k: float,
                   phi: np.ndarray | None = None) -> ChannelReport:
    """Integrate the momentum density over the bins [hk, 3hk] and
    [-3hk, -hk]; anything outside is reported as unassigned.  ``phi`` is
    the wavefunction's momentum amplitudes, if already at hand."""
    if phi is None:
        phi = psi.momentum_amplitudes()
    p = psi.grid.p
    center = 2.0 * hbar_k
    return _channels(phi, psi.grid.momentum_spacing,
                     np.abs(p - center) <= hbar_k, np.abs(p + center) <= hbar_k)


def mode_channel_report(amplitudes: np.ndarray) -> ChannelReport:
    """Channel report for mode-lattice amplitudes of shape (2N+1, 2); mode n
    carries momentum n*hbar k, the channels are n = +-2."""
    c = np.asarray(amplitudes, dtype=complex)
    n_index = np.arange(c.shape[0]) - c.shape[0] // 2
    return _channels(c.T, 1.0, n_index == 2, n_index == -2)


def bragg_channel_report(amplitudes: np.ndarray) -> ChannelReport:
    """Channel report of Bragg-subspace amplitudes (4,), ordered as in
    BraggState, or of an ensemble given as its members' amplitudes (4, m),
    each scaled by the square root of its weight."""
    a = np.asarray(amplitudes, dtype=complex).reshape(2, 2, -1)   # (mode, spin, member)
    plus = np.repeat([False, True], a.shape[2])
    return _channels(a.transpose(1, 0, 2).reshape(2, -1), 1.0, plus, ~plus)


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


# Spectral peaks that seed a Rabi fit, and the Levenberg-Marquardt limits
_RABI_SEEDS = 3
_LM_ITERATIONS = 200
_LM_STEP_TOL = 1e-12


def _rabi_model(p: np.ndarray, t: np.ndarray):
    """vis sin^2(omega t/2 + phase) for p = (omega, vis, phase), and its
    Jacobian (len(t), 3)."""
    omega, vis, phase = p
    x = 0.5 * omega * t + phase
    s = np.sin(x)
    s2 = np.sin(2.0 * x)
    return vis * s * s, np.stack([0.5 * vis * s2 * t, s * s, vis * s2], axis=1)


def _fit_from(t: np.ndarray, pop: np.ndarray, p: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Levenberg-Marquardt from p with each step clipped to the box [lo, hi]:
    (parameters, sum of squared residuals).  The Jacobian's columns are
    scaled to unit norm, so the damping weighs the parameters alike."""
    f, jac = _rabi_model(p, t)
    r = f - pop
    cost = r @ r
    damping = 1e-3
    for _ in range(_LM_ITERATIONS):
        scale = np.linalg.norm(jac, axis=0)
        scale[scale == 0.0] = 1.0
        js = jac / scale
        step = np.linalg.solve(js.T @ js + damping * np.eye(3), -(js.T @ r)) / scale
        trial = np.clip(p + step, lo, hi)
        f, trial_jac = _rabi_model(trial, t)
        trial_r = f - pop
        trial_cost = trial_r @ trial_r
        if trial_cost < cost:
            moved = np.abs(trial - p) > _LM_STEP_TOL * np.array([abs(trial[0]), 1.0, 1.0])
            p, r, jac, cost = trial, trial_r, trial_jac, trial_cost
            damping = max(0.1 * damping, 1e-12)
            if not moved.any():
                break
        elif damping > 1e12:
            break
        else:
            damping *= 10.0
    return p, cost


def fit_rabi(t: np.ndarray, population: np.ndarray) -> RabiFit:
    """Fit a Rabi oscillation trace; the trace must span at least half a period.

    Least squares of vis sin^2(omega t/2 + phase) on equally spaced samples,
    once from each of the ``_RABI_SEEDS`` largest peaks omega0 of the
    trace's discrete spectrum, within omega0/4 <= omega <= 4 omega0,
    0 <= vis <= 1.5 and |phase| <= pi; the fit with the least residual is
    returned.  A single bin of a small fast ripple (an aliased carrier
    harmonic, say) can outweigh the bin of the slow oscillation whose
    weight is spread over its neighbours, so the largest peak alone is not
    a safe start.  Each start takes vis and phase from a linear fit of
    A + B cos(omega0 t) + C sin(omega0 t)."""
    t = np.asarray(t, dtype=float)
    pop = np.asarray(population, dtype=float)
    if t.size != pop.size or t.size < 8:
        raise AnalysisError("need matching t/population arrays with >= 8 samples")
    spread = pop.max() - pop.min()
    if spread < 1e-6:
        raise AnalysisError("trace is non-oscillatory (flat)")

    dt = t[1] - t[0]
    # the spectral seeds need one step; linspace times differ in their last bits
    if not np.allclose(np.diff(t), dt, rtol=1e-6, atol=0.0):
        raise AnalysisError("the samples of t must be equally spaced")
    spec = np.abs(np.fft.rfft(pop - pop.mean()))
    freqs = 2.0 * np.pi * np.fft.rfftfreq(pop.size, d=dt)
    padded = np.concatenate([[-np.inf], spec[1:], [-np.inf]])
    peaks = np.flatnonzero((padded[1:-1] >= padded[:-2]) & (padded[1:-1] >= padded[2:])) + 1
    seeds = freqs[peaks[np.argsort(-spec[peaks], kind="stable")][:_RABI_SEEDS]]
    if not seeds.size or seeds[0] <= 0.0:
        raise AnalysisError("could not locate an oscillation frequency")

    fits = []
    for omega0 in seeds:
        basis = np.stack([np.ones_like(t), np.cos(omega0 * t), np.sin(omega0 * t)], axis=1)
        a, b, c = np.linalg.lstsq(basis, pop, rcond=None)[0]
        # vis sin^2(x) = vis/2 - (vis/2) cos(2x), so A + |(B, C)| = vis,
        # B = -(vis/2) cos(2 phase) and C = (vis/2) sin(2 phase)
        lo = np.array([0.25 * omega0, 0.0, -np.pi])
        hi = np.array([4.0 * omega0, 1.5, np.pi])
        start = np.clip([omega0, a + math.hypot(b, c), 0.5 * math.atan2(c, -b)], lo, hi)
        fits.append(_fit_from(t, pop, start, lo, hi))
    (omega, vis, phase), cost = min(fits, key=lambda fit: fit[1])
    if not np.isfinite(cost):
        raise AnalysisError("Rabi fit did not converge")
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
    # + 0.0 turns the -0.0 of a pure state (-1 * log2(1)) into 0
    return float(-np.sum(nz * np.log2(nz))) + 0.0


def spin_momentum_entanglement(state) -> float:
    """Base-2 von Neumann entropy of the reduced spin state of a pure state.

    Accepts a SpinorWavefunction (momentum is traced out exactly), a pure
    BraggState or mode-lattice amplitudes (2N+1, 2).  0 for product states,
    1 for maximal spin-momentum entanglement.
    """
    if isinstance(state, SpinorWavefunction):
        # the entropy reads the whole spin density, not the channel bins
        return _channels(state.momentum_amplitudes(), state.grid.momentum_spacing,
                         slice(0), slice(0)).entropy
    if isinstance(state, BraggState):
        if abs(state.norm() - 1.0) > 1e-6:
            raise AnalysisError("BraggState must be normalized and pure")
        return bragg_channel_report(state.amplitudes).entropy
    if isinstance(state, np.ndarray) and state.ndim == 2 and state.shape[1] == 2:
        return mode_channel_report(state).entropy
    raise AnalysisError("unsupported state type for entanglement")
