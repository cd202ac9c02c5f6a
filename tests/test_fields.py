import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsplit.fields import (
    BichromaticWave,
    Envelope,
    MonoStandingWave,
    magnetic_field,
    vector_potential,
)
from spinsplit.units import fs_to_natural


def flat() -> Envelope:
    return Envelope(rise=0.0, plateau=1e6, fall=0.0)


def mono(chi=0.0, ea0=200.0, hw=200.0, env=None):
    return MonoStandingWave(ea0=ea0, photon_energy=hw, chi=chi,
                            envelope=env or flat(), start=0.0)


def bi(ea1=2.35e4, ea2=2.35e4, hw=200.0, env=None):
    return BichromaticWave(ea1=ea1, ea2=ea2, photon_energy=hw,
                           envelope=env or flat(), start=0.0)


# rise, plateau, fall; zero-length segments included
SEGMENTS = st.tuples(*[st.one_of(st.just(0.0), st.floats(1e-3, 1e3))] * 3)


class TestEnvelope:
    def test_zero_outside(self):
        env = Envelope(rise=2.0, plateau=5.0, fall=2.0)
        assert env.value(-0.1) == 0.0
        assert env.value(9.1) == 0.0

    def test_half_height_at_mid_rise(self):
        env = Envelope(rise=2.0, plateau=5.0, fall=2.0)
        assert env.value(1.0) == pytest.approx(0.5, abs=1e-14)

    def test_plateau_is_one(self):
        env = Envelope(rise=2.0, plateau=5.0, fall=2.0)
        for t in (2.0, 4.0, 7.0):
            assert env.value(t) == 1.0

    def test_continuity(self):
        env = Envelope(rise=3.0, plateau=4.0, fall=5.0)
        ts = np.linspace(-1, 13, 20001)
        vals = env.value(ts)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
        assert np.max(np.abs(np.diff(vals))) < 2e-3  # no jumps at segment joins

    def test_effective_duration_weights(self):
        # numerically integrate f^power over the edges
        env = Envelope(rise=3.0, plateau=10.0, fall=3.0)
        ts = np.linspace(0.0, env.duration, 2_000_001)
        for power in (1, 2, 3):
            integral = np.trapezoid(env.value(ts) ** power, ts)
            assert env.effective_duration(power) == pytest.approx(integral, rel=1e-6)

    @settings(derandomize=True, database=None, deadline=None)
    @given(segments=SEGMENTS, power=st.sampled_from([1, 2, 3]))
    def test_effective_duration_is_integral_of_power(self, segments, power):
        # Gauss-Legendre on each segment is exact to rounding for sin^(2p)
        env = Envelope(*segments)
        nodes, weights = np.polynomial.legendre.leggauss(16)
        integral = 0.0
        for lo, hi in ((0.0, env.rise), (env.rise, env.rise + env.plateau),
                       (env.rise + env.plateau, env.duration)):
            t = lo + 0.5 * (hi - lo) * (nodes + 1.0)
            integral += 0.5 * (hi - lo) * np.dot(weights, env.value(t) ** power)
        assert env.effective_duration(power) == pytest.approx(integral, rel=1e-12)

    def test_negative_segment_rejected(self):
        with pytest.raises(ValueError):
            Envelope(rise=-1.0, plateau=0.0, fall=0.0)


class TestVectorPotential:
    def test_mono_peak_value(self):
        # f=1, t=0, z=0, chi=0: cos*cos = 1
        assert vector_potential(mono(), 0.0, 0.0) == pytest.approx(200.0)

    def test_mono_node_at_origin_for_chi_pi(self):
        st = mono(chi=np.pi)
        for t in (0.0, 0.37, 1.4):
            assert vector_potential(st, t, 0.0) == pytest.approx(0.0, abs=1e-10)

    def test_bichromatic_peak_value(self):
        assert vector_potential(bi(), 0.0, 0.0) == pytest.approx(2 * 2.35e4)

    def test_spatial_periodicity(self):
        z = np.linspace(-0.3, 0.3, 101)
        for st in (mono(chi=0.3), bi()):
            period = 2 * np.pi / st.wavenumber
            a1 = vector_potential(st, 0.123, z)
            a2 = vector_potential(st, 0.123, z + period)
            np.testing.assert_allclose(a1, a2, rtol=0, atol=1e-9 * np.max(np.abs(a1)))

    def test_envelope_applies(self):
        env = Envelope(rise=fs_to_natural(5.0), plateau=fs_to_natural(10.0),
                       fall=fs_to_natural(5.0))
        st = mono(env=env)
        t_mid_rise = 0.5 * env.rise
        full = 200.0 * np.cos(2 * st.omega * t_mid_rise)
        assert vector_potential(st, t_mid_rise, 0.0) == pytest.approx(0.5 * full, abs=1e-9)


class TestMagneticField:
    def test_mono_zero_at_antinode(self):
        st = mono(chi=0.7)
        z_antinode = -0.5 * 0.7 / (2 * st.wavenumber)
        assert magnetic_field(st, 0.21, z_antinode) == pytest.approx(0.0, abs=1e-8)

    def test_bichromatic_zero_at_origin_t0(self):
        assert magnetic_field(bi(), 0.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_bichromatic_quarter_period_value(self):
        # t = pi/(2w), z = 0: e*B = ea1*k*sin(pi/2) - 2k*ea2*sin(pi) = ea1*k
        st = bi()
        t = 0.5 * np.pi / st.omega
        assert magnetic_field(st, t, 0.0) == pytest.approx(st.ea1 * st.wavenumber, rel=1e-12)

    @pytest.mark.parametrize("stage_factory", [lambda: mono(chi=0.4), bi])
    def test_matches_finite_difference_of_vector_potential(self, stage_factory):
        st = stage_factory()
        period = 2 * np.pi / st.wavenumber
        h = 1e-4 * period
        z = np.linspace(-0.2, 0.2, 37)
        t = 0.0917
        fd = (vector_potential(st, t, z + h) - vector_potential(st, t, z - h)) / (2 * h)
        exact = magnetic_field(st, t, z)
        scale = np.max(np.abs(exact)) + 1e-30
        np.testing.assert_allclose(exact, fd, rtol=0, atol=1e-6 * scale)


def test_frequency_wavenumber_locked():
    st = mono()
    assert st.omega == st.wavenumber  # hbar = c = 1
    stb = bi(hw=1600.0)
    assert stb.omega == stb.wavenumber == 1600.0
