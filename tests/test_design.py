import numpy as np
import pytest

from spinsplit.design import (
    LaserSpec,
    ToleranceBudget,
    electron_velocity,
    full_design_report,
    intensity_from_xi,
    interaction_geometry,
    momentum_acceptance,
    no_flip_rabi,
    paper_design_report,
    pulse_energy_mj,
    scatter_probability_uncertainty,
)
from spinsplit.units import MC2_EV

XI_PAPER = 2.35e4 / MC2_EV  # 0.046
HBAR_OMEGA = 200.0
HBAR_RABI_BI = 2.35e4**2 * 2.35e4 * 200.0 / (2.0 * MC2_EV**3)


class TestIntensity:
    def test_equals_scipy_constants_formula(self, rng):
        # the same formula in scipy.constants' terms gives the same bits:
        # units.py's m_e and eps0 are the values scipy returns
        import scipy.constants as si

        for xi, hw in [(XI_PAPER, HBAR_OMEGA), (XI_PAPER, 2 * HBAR_OMEGA),
                       *zip(rng.uniform(0.0, 0.2, 10), rng.uniform(10.0, 2000.0, 10))]:
            e_peak = xi * si.m_e * si.c * (hw * si.eV / si.hbar) / si.e
            assert intensity_from_xi(xi, hw) == 0.5 * si.epsilon_0 * si.c * e_peak**2 * 1e-4

    def test_paper_value(self):
        assert intensity_from_xi(0.046, HBAR_OMEGA) == pytest.approx(7.6e19, rel=0.03)

    def test_quadratic_in_xi(self, rng):
        for _ in range(20):
            xi = rng.uniform(0.001, 0.2)
            scale = rng.uniform(1.5, 4.0)
            assert intensity_from_xi(scale * xi, HBAR_OMEGA) == pytest.approx(
                scale**2 * intensity_from_xi(xi, HBAR_OMEGA), rel=1e-12)

    def test_quadratic_in_omega(self, rng):
        for _ in range(20):
            hw = rng.uniform(10.0, 2000.0)
            scale = rng.uniform(1.5, 4.0)
            assert intensity_from_xi(0.046, scale * hw) == pytest.approx(
                scale**2 * intensity_from_xi(0.046, hw), rel=1e-12)

    def test_second_harmonic_is_four_times(self):
        # equal xi at doubled frequency: I2 = 4 I1
        assert intensity_from_xi(XI_PAPER, 2 * HBAR_OMEGA) == pytest.approx(
            4.0 * intensity_from_xi(XI_PAPER, HBAR_OMEGA), rel=1e-12)

    def test_zero(self):
        assert intensity_from_xi(0.0, HBAR_OMEGA) == 0.0


class TestGeometry:
    def test_interaction_time(self):
        t_b, _ = interaction_geometry(HBAR_RABI_BI, 30.0)
        assert t_b == pytest.approx(106.0, rel=0.02)   # ~0.1 ps

    def test_velocity(self):
        assert electron_velocity(30.0) == pytest.approx(0.01084, rel=1e-3)

    def test_beam_width_formula(self):
        t_b, dy = interaction_geometry(HBAR_RABI_BI, 30.0)
        v = electron_velocity(30.0)
        assert dy == pytest.approx(v * 299.792458 * t_b * 1e-3, rel=1e-12)
        # the published "0.3 um" is this number at one significant figure
        assert dy == pytest.approx(0.345, rel=1e-2)

    def test_scaling_with_rabi(self):
        t1, d1 = interaction_geometry(HBAR_RABI_BI, 30.0)
        t2, d2 = interaction_geometry(2 * HBAR_RABI_BI, 30.0)
        assert t2 == pytest.approx(0.5 * t1, rel=1e-12)
        assert d2 == pytest.approx(0.5 * d1, rel=1e-12)


class TestPulseEnergy:
    def test_zero_duration(self):
        assert pulse_energy_mj(7.6e19, 0.3, 0.3, 0.0) == 0.0

    def test_waist_scaling(self):
        base = pulse_energy_mj(7.6e19, 0.3, 0.3, 100.0)
        assert pulse_energy_mj(7.6e19, 0.6, 0.6, 100.0) == pytest.approx(4 * base, rel=1e-12)

    def test_order_of_magnitude(self):
        # I1 + I2 = 5 I1 over a ~0.345 um square waist and ~106 fs: tens of mJ
        i1 = intensity_from_xi(XI_PAPER, HBAR_OMEGA)
        t_b, dy = interaction_geometry(HBAR_RABI_BI, 30.0)
        total = pulse_energy_mj(5 * i1, dy, dy, t_b)
        assert 25.0 < total < 100.0


class TestMomentumAcceptance:
    def test_paper_value(self):
        assert momentum_acceptance(HBAR_RABI_BI, HBAR_OMEGA) == pytest.approx(0.031, abs=5e-4)
        assert momentum_acceptance(HBAR_RABI_BI, HBAR_OMEGA) <= 0.04

    def test_zero_rabi(self):
        assert momentum_acceptance(0.0, HBAR_OMEGA) == 0.0

    def test_xi_form_identity(self):
        # m Omega_b / (4 hbar k^2) = xi1^2 xi2 m c / (8 hbar k)
        direct = momentum_acceptance(HBAR_RABI_BI, HBAR_OMEGA)
        xi = XI_PAPER
        assert direct == pytest.approx(xi**3 * MC2_EV / (8.0 * HBAR_OMEGA), rel=1e-12)


class TestScatterUncertainty:
    def test_values(self):
        assert scatter_probability_uncertainty(0.01, 0.01) == pytest.approx(0.0314, abs=1e-4)
        assert scatter_probability_uncertainty(0.0, 0.0) == 0.0
        assert scatter_probability_uncertainty(0.02, 0.0) == pytest.approx(np.pi / 100, rel=1e-12)


class TestNoFlipRabi:
    def test_zero_transverse_momentum(self):
        assert no_flip_rabi(0.0, HBAR_OMEGA, HBAR_RABI_BI) == 0.0

    def test_formula(self):
        assert no_flip_rabi(0.1 * HBAR_OMEGA, HBAR_OMEGA, HBAR_RABI_BI) == pytest.approx(
            0.25 * HBAR_RABI_BI, rel=1e-12)
        assert no_flip_rabi(HBAR_OMEGA, HBAR_OMEGA, HBAR_RABI_BI) == pytest.approx(
            2.5 * HBAR_RABI_BI, rel=1e-12)


class TestFullReport:
    def test_paper_point(self):
        report = paper_design_report(ToleranceBudget(dp_y_rel=0.01, dL_rel=0.01, dp_x=1.0))
        assert report.intensity_1 == pytest.approx(7.6e19, rel=0.03)
        assert report.intensity_2 == pytest.approx(4 * report.intensity_1, rel=1e-9)
        assert report.hbar_rabi_bi == pytest.approx(9.73e-3, rel=1e-3)
        assert report.hbar_rabi_mono == pytest.approx(9.78e-3, rel=1e-3)
        assert report.t_bi_fs == pytest.approx(106.3, rel=1e-3)
        assert report.t_mono_pi_fs == pytest.approx(211.3, rel=1e-3)
        assert report.momentum_acceptance == pytest.approx(0.031, abs=5e-4)
        assert report.bragg_momentum == pytest.approx(400.0)
        assert report.velocity_c == pytest.approx(0.0108, rel=1e-2)
        assert 25.0 < report.pulse_energy_mj < 100.0
        assert report.scatter_uncertainty == pytest.approx(0.0314, abs=1e-4)
        assert report.no_flip_rabi == pytest.approx(2.5 / 200.0 * report.hbar_rabi_bi, rel=1e-12)
        assert not report.flags  # everything inside the guidance bounds

    def test_flags_fire(self):
        spec = LaserSpec(photon_energy=200.0, xi=0.25)
        report = full_design_report((spec, spec), mono_amplitude=200.0, electron_energy=3000.0,
                                    tolerances=ToleranceBudget(dp_x=100.0))
        text = " ".join(report.flags)
        assert "nonrelativistic" in text
        assert "v/c" in text
        assert "dp_x" in text

    def test_scaled_consistency(self, rng):
        # doubling both xi at fixed frequency: I x4, Omega_b x8, T_b /8
        s1 = LaserSpec(photon_energy=200.0, xi=0.02)
        s2 = LaserSpec(photon_energy=200.0, xi=0.04)
        r1 = full_design_report((s1, s1), 200.0, 30.0)
        r2 = full_design_report((s2, s2), 200.0, 30.0)
        assert r2.intensity_1 == pytest.approx(4 * r1.intensity_1, rel=1e-12)
        assert r2.hbar_rabi_bi == pytest.approx(8 * r1.hbar_rabi_bi, rel=1e-12)
        assert r2.t_bi_fs == pytest.approx(r1.t_bi_fs / 8, rel=1e-12)

    def test_determinism(self):
        a = paper_design_report()
        b = paper_design_report()
        assert a.as_pairs() == b.as_pairs()


def test_xi_amplitude_round_trip():
    spec = LaserSpec.from_amplitude(2.35e4, 200.0)
    assert spec.xi == pytest.approx(0.046, abs=2e-4)
    assert spec.ea == pytest.approx(2.35e4, rel=1e-12)


@pytest.mark.parametrize("flags, xi1, xi2", [
    (["--ea2", "3e4"], 2.35e4 / 5.110e5, 3e4 / MC2_EV),
    (["--ea1", "2.35e4", "--xi2", "0.01"], XI_PAPER, 0.01),
], ids=["ea2-alone", "ea1-with-xi2"])
def test_design_reads_each_wave_from_its_own_flags(capsys, flags, xi1, xi2):
    # --ea1 alone used to choose between amplitudes and xi for both waves,
    # so both cases printed wave 1's xi for wave 2
    from spinsplit.cli import main

    assert main(["design", *flags]) == 0
    table = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines()
                 if " = " in line)
    assert float(table["xi1"]) == pytest.approx(xi1, rel=1e-11)
    assert float(table["xi2"]) == pytest.approx(xi2, rel=1e-11)
