import dataclasses
import math

import numpy as np
import pytest

from spinsplit.observables import (
    AnalysisError,
    _entropy_of_spin_density,
    bragg_channel_report,
    channel_report,
    fit_rabi,
    mode_channel_report,
    polarization_degree,
    spin_momentum_entanglement,
)
from spinsplit.states import (
    SPIN_Y_MINUS,
    SPIN_Y_PLUS,
    SpatialGrid,
    SpinorWavefunction,
    bragg_state,
    gaussian_packet,
)
from spinsplit.units import fs_to_natural, um_to_natural

K = 200.0


def grid():
    return SpatialGrid(um_to_natural(3.0), 8192, field_wavenumber=K)


def packet(momentum, spin):
    return gaussian_packet(grid(), 0.0, um_to_natural(0.11), momentum, spin)


class TestChannelReport:
    def test_pure_plus_channel(self):
        psi = packet(+2 * K, "y+")
        rep = channel_report(psi, K)
        assert rep.pop_plus == pytest.approx(1.0, abs=1e-9)
        assert rep.pop_minus == pytest.approx(0.0, abs=1e-12)
        assert rep.sy_plus == pytest.approx(1.0, abs=1e-10)
        assert rep.unassigned == pytest.approx(0.0, abs=1e-9)

    def test_entangled_superposition(self):
        g = grid()
        up = gaussian_packet(g, 0.0, um_to_natural(0.11), +2 * K, "up").psi
        dn = gaussian_packet(g, 0.0, um_to_natural(0.11), -2 * K, "down").psi
        psi = SpinorWavefunction(g, (up + dn) / np.sqrt(2.0))
        rep = channel_report(psi, K)
        assert rep.pop_plus == pytest.approx(0.5, abs=1e-9)
        assert rep.pop_minus == pytest.approx(0.5, abs=1e-9)
        assert rep.bloch_plus[2] == pytest.approx(+1.0, abs=1e-10)
        assert rep.bloch_minus[2] == pytest.approx(-1.0, abs=1e-10)
        assert spin_momentum_entanglement(psi) == pytest.approx(1.0, abs=1e-8)

    def test_populations_sum_to_one(self):
        psi = packet(+2 * K, "x+")
        rep = channel_report(psi, K)
        assert rep.pop_plus + rep.pop_minus + rep.unassigned == pytest.approx(1.0, abs=1e-9)

    def test_global_phase_invariance(self):
        psi = packet(+2 * K, "y-")
        rep1 = channel_report(psi, K)
        psi2 = SpinorWavefunction(psi.grid, psi.psi * np.exp(1j * 0.873))
        rep2 = channel_report(psi2, K)
        assert rep1.pop_plus == pytest.approx(rep2.pop_plus, abs=1e-12)
        assert rep1.sy_plus == pytest.approx(rep2.sy_plus, abs=1e-12)

    def test_translation_invariance(self):
        g = grid()
        rep1 = channel_report(gaussian_packet(g, 0.0, um_to_natural(0.11), 2 * K, "up"), K)
        rep2 = channel_report(
            gaussian_packet(g, um_to_natural(0.35), um_to_natural(0.11), 2 * K, "up"), K)
        assert rep1.pop_plus == pytest.approx(rep2.pop_plus, abs=1e-10)
        assert rep1.sy_plus == pytest.approx(rep2.sy_plus, abs=1e-10)

    def test_ideal_output_state_channel_spins(self):
        # Spin-filtered output: +2hk carries |+>, -2hk carries |->.
        g = grid()
        plus = gaussian_packet(g, 0.0, um_to_natural(0.11), +2 * K, SPIN_Y_PLUS).psi
        minus = gaussian_packet(g, 0.0, um_to_natural(0.11), -2 * K, SPIN_Y_MINUS).psi
        psi = SpinorWavefunction(g, (plus + minus) / np.sqrt(2.0))
        rep = channel_report(psi, K)
        assert rep.sy_plus == pytest.approx(+1.0, abs=1e-9)
        assert rep.sy_minus == pytest.approx(-1.0, abs=1e-9)
        assert polarization_degree(rep) == (pytest.approx(1.0, abs=1e-9),
                                            pytest.approx(1.0, abs=1e-9))


class TestModeChannelReport:
    def test_single_mode(self):
        c = np.zeros((17, 2), dtype=complex)
        c[8 + 2] = SPIN_Y_PLUS
        rep = mode_channel_report(c)
        assert rep.pop_plus == pytest.approx(1.0)
        assert rep.sy_plus == pytest.approx(1.0)

    def test_leakage_counts_as_unassigned(self):
        c = np.zeros((17, 2), dtype=complex)
        c[8 + 2, 0] = np.sqrt(0.9)
        c[8 + 6, 0] = np.sqrt(0.1)
        rep = mode_channel_report(c)
        assert rep.pop_plus == pytest.approx(0.9, abs=1e-12)
        assert rep.unassigned == pytest.approx(0.1, abs=1e-12)

    def test_bragg_state_matches_its_two_modes(self, rng):
        # Bragg amplitudes are the modes n = -2, +2 of a lattice: the same
        # state on an N = 4 lattice gives the same report
        for _ in range(20):
            a = rng.normal(size=4) + 1j * rng.normal(size=4)
            state = a / np.linalg.norm(a)
            c = np.zeros((9, 2), dtype=complex)
            c[4 - 2], c[4 + 2] = state[0:2], state[2:4]
            bragg = bragg_channel_report(state)
            modes = mode_channel_report(c)
            for f in dataclasses.fields(bragg):
                np.testing.assert_allclose(getattr(bragg, f.name), getattr(modes, f.name),
                                           rtol=0, atol=1e-15, err_msg=f.name)


class TestPolarizationDegree:
    def test_eigenstate_channel(self):
        rep = channel_report(packet(2 * K, "y+"), K)
        assert polarization_degree(rep, "plus") == pytest.approx(1.0, abs=1e-10)

    def test_mixture_is_zero(self):
        rep = channel_report(packet(2 * K, "up"), K)
        # z-polarized spin has zero sigma_y projection
        assert polarization_degree(rep, "plus") == pytest.approx(0.0, abs=1e-10)

    def test_empty_channel_raises(self):
        rep = channel_report(packet(2 * K, "up"), K)
        with pytest.raises(AnalysisError):
            polarization_degree(rep, "minus")

    def test_bounded(self):
        rep = channel_report(packet(2 * K, (0.3 + 0.1j, 0.9)), K)
        assert 0.0 <= polarization_degree(rep, "plus") <= 1.0


class TestFitRabi:
    def test_synthetic_recovery(self):
        omega0 = 9.726e-3
        t = np.linspace(0.0, 2 * np.pi / omega0, 400)
        pop = np.sin(0.5 * omega0 * t) ** 2
        fit = fit_rabi(t, pop)
        assert fit.omega == pytest.approx(omega0, rel=1e-3)
        assert fit.visibility == pytest.approx(1.0, rel=1e-3)

    def test_synthetic_with_visibility_and_phase(self):
        omega0, vis, phase = 0.02, 0.8, 0.3
        t = np.linspace(0.0, 800.0, 600)
        pop = vis * np.sin(0.5 * omega0 * t + phase) ** 2
        fit = fit_rabi(t, pop)
        assert fit.omega == pytest.approx(omega0, rel=1e-3)
        assert fit.visibility == pytest.approx(vis, rel=1e-3)
        assert fit.detuning_offset == pytest.approx(omega0 * np.sqrt(1 - vis), rel=2e-2)
        assert fit.phase == pytest.approx(phase, abs=1e-6)

    def test_flat_trace_rejected(self):
        t = np.linspace(0, 100, 64)
        with pytest.raises(AnalysisError):
            fit_rabi(t, np.full_like(t, 0.25))

    def test_aliased_ripple_does_not_capture_the_fit(self):
        # half a slow Rabi period sampled every 2.5 fs for 240 fs, plus a
        # small ripple on FFT bin 39 (a carrier harmonic aliased to 6.2 fs)
        # whose bin outweighs the slow one, 1.21 against 1.05; a fit started
        # only from the largest bin settles on the ripple
        dt = fs_to_natural(2.5)
        t = np.arange(97) * dt
        omega0 = np.pi / t[-1]
        ripple = 0.025 * np.cos(2 * np.pi * 39 / 97 * t / dt)
        pop = 0.1 * np.sin(0.5 * omega0 * t + 0.8) ** 2 + ripple
        spec = np.abs(np.fft.rfft(pop - pop.mean()))
        assert np.argmax(spec[1:]) + 1 == 39 and spec[39] > 1.1 * spec[1]
        fit = fit_rabi(t, pop)
        assert fit.omega == pytest.approx(omega0, rel=1e-2)
        assert fit.visibility == pytest.approx(0.1, rel=5e-2)

    def test_unequal_steps_rejected(self):
        # the spectral seeds read the first step as every step: on geometric
        # times this trace used to fit omega = 76.3 against the true 0.70
        t = np.geomspace(0.01, 30.0, 200)
        pop = 0.9 * np.sin(0.35 * t + 0.1) ** 2
        with pytest.raises(AnalysisError, match="equally spaced"):
            fit_rabi(t, pop)
        t = np.linspace(0.01, 30.0, 200)
        fit = fit_rabi(t, 0.9 * np.sin(0.35 * t + 0.1) ** 2)
        assert fit.omega == pytest.approx(0.70, rel=1e-6)

    def test_short_trace_rejected(self):
        omega0 = 0.01
        t = np.linspace(0.0, 0.2 * np.pi / omega0, 100)  # a tenth of a period
        pop = np.sin(0.5 * omega0 * t) ** 2
        with pytest.raises(AnalysisError):
            fit_rabi(t, pop)


class TestEntanglement:
    def test_product_state_zero(self):
        assert spin_momentum_entanglement(packet(2 * K, "y+")) == pytest.approx(0.0, abs=1e-9)
        assert spin_momentum_entanglement(bragg_state("up", +2)) == pytest.approx(0.0, abs=1e-12)

    def test_bell_state_is_one(self):
        amps = np.zeros(4, dtype=complex)
        amps[2] = 1 / np.sqrt(2)   # +2hk, up
        amps[1] = 1 / np.sqrt(2)   # -2hk, down
        assert spin_momentum_entanglement(amps) == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_spin_rotation(self, rng):
        from scipy.linalg import expm

        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        base = spin_momentum_entanglement(amps)
        sy = np.array([[0, -1j], [1j, 0]])
        for theta in (0.3, 1.1, 2.9):
            rot = expm(0.5j * theta * sy)
            rotated = np.concatenate([rot @ amps[0:2], rot @ amps[2:4]])
            assert spin_momentum_entanglement(rotated) == pytest.approx(
                base, abs=1e-10)

    @pytest.mark.parametrize("norm", [1.0, 3.0])
    def test_unnormalized_state(self, norm):
        # 3/4 of the weight at +2hk spin up, 1/4 at -2hk spin down; the
        # entropy depends on the weights only, not on the norm
        psi = np.sqrt(0.75) * packet(2 * K, "up").psi + np.sqrt(0.25) * packet(-2 * K, "down").psi
        state = SpinorWavefunction(grid(), np.sqrt(norm) * psi)
        assert state.norm() == pytest.approx(norm, rel=1e-12)
        expected = -(0.75 * np.log2(0.75) + 0.25 * np.log2(0.25))
        assert spin_momentum_entanglement(state) == pytest.approx(expected, abs=1e-9)

    def test_channel_density_gives_the_same_entropy(self, rng):
        # the runner takes the channel report's entropy; spin_momentum_entanglement
        # reads the spin density of the same amplitudes, so the two agree bit
        # for bit on a grid and on modes
        psi = np.sqrt(0.6) * packet(2 * K, "x+").psi + np.sqrt(0.4) * packet(-2 * K, "down").psi
        wf = SpinorWavefunction(grid(), psi)
        modes = rng.normal(size=(17, 2)) + 1j * rng.normal(size=(17, 2))
        for state, report in ((wf, channel_report(wf, K)), (modes, mode_channel_report(modes))):
            assert spin_momentum_entanglement(state) == report.entropy

    def test_bragg_amplitudes_must_be_normalized(self):
        amps = np.sqrt(3.0) * bragg_state("y+", +2)     # norm 3
        with pytest.raises(AnalysisError, match="normalized and pure"):
            spin_momentum_entanglement(amps)
        assert spin_momentum_entanglement(amps / np.sqrt(3.0)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("state", [np.zeros(3, dtype=complex), [0.0, 0.0, 1.0, 0.0]],
                             ids=["shape-3", "list"])
    def test_unsupported_state_rejected(self, state):
        with pytest.raises(AnalysisError, match="unsupported state type"):
            spin_momentum_entanglement(state)

    def test_pure_spin_density_has_entropy_plus_zero(self):
        # -log2(1) * 1 is -0.0, which the reports printed as "-0"
        assert math.copysign(1.0, _entropy_of_spin_density(np.diag([1.0, 0.0]))) == 1.0
