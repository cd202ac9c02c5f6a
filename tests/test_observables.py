import numpy as np
import pytest

from spinsplit.observables import (
    AnalysisError,
    channel_report,
    fit_rabi,
    mode_channel_report,
    polarization_degree,
    spin_momentum_entanglement,
)
from spinsplit.states import (
    SPIN_Y_MINUS,
    SPIN_Y_PLUS,
    BraggState,
    SpatialGrid,
    SpinorWavefunction,
    gaussian_packet,
)
from spinsplit.units import um_to_natural

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

    def test_flat_trace_rejected(self):
        t = np.linspace(0, 100, 64)
        with pytest.raises(AnalysisError):
            fit_rabi(t, np.full_like(t, 0.25))

    def test_short_trace_rejected(self):
        omega0 = 0.01
        t = np.linspace(0.0, 0.2 * np.pi / omega0, 100)  # a tenth of a period
        pop = np.sin(0.5 * omega0 * t) ** 2
        with pytest.raises(AnalysisError):
            fit_rabi(t, pop)


class TestEntanglement:
    def test_product_state_zero(self):
        assert spin_momentum_entanglement(packet(2 * K, "y+")) == pytest.approx(0.0, abs=1e-9)
        assert spin_momentum_entanglement(BraggState.from_spin("up", +2)) == pytest.approx(
            0.0, abs=1e-12)

    def test_bell_state_is_one(self):
        amps = np.zeros(4, dtype=complex)
        amps[2] = 1 / np.sqrt(2)   # +2hk, up
        amps[1] = 1 / np.sqrt(2)   # -2hk, down
        assert spin_momentum_entanglement(BraggState(amps)) == pytest.approx(1.0, abs=1e-12)

    def test_invariant_under_spin_rotation(self, rng):
        from scipy.linalg import expm

        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        state = BraggState(amps)
        base = spin_momentum_entanglement(state)
        sy = np.array([[0, -1j], [1j, 0]])
        for theta in (0.3, 1.1, 2.9):
            rot = expm(0.5j * theta * sy)
            rotated = np.concatenate([rot @ amps[0:2], rot @ amps[2:4]])
            assert spin_momentum_entanglement(BraggState(rotated)) == pytest.approx(
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
