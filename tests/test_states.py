import numpy as np
import pytest

from spinsplit.states import (
    MINUS_BLOCK,
    PLUS_BLOCK,
    GridError,
    PacketError,
    SpatialGrid,
    SpinorWavefunction,
    bragg_state,
    gaussian_packet,
    normalize_spin,
    spin_expectations,
    unpolarized_density,
    validate_density,
)
from spinsplit.units import um_to_natural


def paper_grid(points=8192, length_um=3.0, k=200.0):
    return SpatialGrid(um_to_natural(length_um), points, field_wavenumber=k)


class TestSpatialGrid:
    def test_spacing_and_momentum_spacing(self):
        g = SpatialGrid(10.0, 1024)
        assert g.spacing == pytest.approx(10.0 / 1024)
        assert g.momentum_spacing == pytest.approx(2 * np.pi / 10.0)
        assert g.z.size == 1024
        # dual grid covers +-pi/spacing
        assert np.max(g.p) == pytest.approx(np.pi / g.spacing - g.momentum_spacing, rel=1e-12)

    def test_power_of_two_enforced(self):
        with pytest.raises(GridError):
            SpatialGrid(10.0, 1000)
        with pytest.raises(GridError):
            SpatialGrid(10.0, 0)

    def test_field_resolution_rule(self):
        # spacing must be <= pi/(8k)
        k = 200.0
        SpatialGrid(um_to_natural(3.0), 16384, field_wavenumber=k)
        with pytest.raises(GridError):
            SpatialGrid(um_to_natural(3.0), 2048, field_wavenumber=k)


class TestGaussianPacket:
    def test_normalization_and_center(self):
        g = paper_grid()
        width = um_to_natural(0.11)
        psi = gaussian_packet(g, 0.0, width, 400.0)
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)
        assert psi.position_expectation() == pytest.approx(0.0, abs=g.spacing)

    def test_momentum_expectation_at_bragg_point(self):
        # the published initial condition: p_z = 400 eV/c, width 0.11 um, spin up
        g = paper_grid()
        psi = gaussian_packet(g, 0.0, um_to_natural(0.11), 400.0, "up")
        assert psi.momentum_expectation() == pytest.approx(400.0, abs=g.momentum_spacing)
        assert spin_expectations(psi)[2] == pytest.approx(1.0, abs=1e-12)

    def test_momentum_width_is_half_inverse_width(self):
        # sigma_p = hbar / (2 sigma_z) = 0.8969 eV/c for a 0.11 um packet
        width = um_to_natural(0.11)
        expected_sigma_p = 1.0 / (2.0 * width)
        assert expected_sigma_p == pytest.approx(0.8969, rel=1e-3)
        g = paper_grid()
        psi = gaussian_packet(g, 0.0, width, 400.0)
        assert psi.momentum_std() == pytest.approx(expected_sigma_p, rel=1e-3)

    def test_zero_momentum_symmetric(self):
        g = paper_grid()
        psi = gaussian_packet(g, 0.0, um_to_natural(0.11), 0.0, "up")
        assert psi.momentum_expectation() == pytest.approx(0.0, abs=1e-9)
        assert spin_expectations(psi)[1] == pytest.approx(0.0, abs=1e-12)

    def test_width_too_small(self):
        g = paper_grid()
        with pytest.raises(PacketError):
            gaussian_packet(g, 0.0, 2.0 * g.spacing, 0.0)

    def test_boundary_overlap_rejected(self):
        g = paper_grid()
        with pytest.raises(PacketError):
            gaussian_packet(g, 0.45 * g.length, um_to_natural(0.4), 0.0)

    def test_parseval(self):
        g = paper_grid()
        psi = gaussian_packet(g, um_to_natural(0.2), um_to_natural(0.11), 400.0, "y+")
        phi = psi.momentum_amplitudes()
        norm_p = np.sum(np.abs(phi) ** 2) * g.momentum_spacing
        assert norm_p == pytest.approx(psi.norm(), rel=1e-10)


class TestSpinExpectations:
    @pytest.mark.parametrize(
        "spin,expected",
        [
            ("up", (0.0, 0.0, 1.0)),
            ("y+", (0.0, 1.0, 0.0)),
            ("y-", (0.0, -1.0, 0.0)),
            ("x+", (1.0, 0.0, 0.0)),
            ((1.0, 0.0), (0.0, 0.0, 1.0)),
        ],
    )
    def test_bloch_vectors(self, spin, expected):
        g = SpatialGrid(um_to_natural(1.0), 1024)
        psi = gaussian_packet(g, 0.0, um_to_natural(0.05), 0.0, spin)
        values = spin_expectations(psi)
        assert values == pytest.approx(expected, abs=1e-10)

    def test_requested_bloch_vector_sweep(self, rng):
        g = SpatialGrid(um_to_natural(1.0), 1024)
        for _ in range(25):
            chi = rng.normal(size=2) + 1j * rng.normal(size=2)
            chi = chi / np.linalg.norm(chi)
            psi = gaussian_packet(g, 0.0, um_to_natural(0.05), 0.0, chi)
            sx, sy, sz = spin_expectations(psi)
            assert sx == pytest.approx(float(2 * np.real(np.conj(chi[0]) * chi[1])), abs=1e-10)
            assert sy == pytest.approx(float(2 * np.imag(np.conj(chi[0]) * chi[1])), abs=1e-10)
            assert sz == pytest.approx(float(abs(chi[0]) ** 2 - abs(chi[1]) ** 2), abs=1e-10)

    def test_zero_norm_rejected(self):
        g = SpatialGrid(um_to_natural(1.0), 1024)
        psi = SpinorWavefunction(g, np.zeros((2, 1024), dtype=complex))
        with pytest.raises(PacketError):
            spin_expectations(psi)


    @pytest.mark.parametrize("spin, expected", [
        ([1e300, -1e300j], [2**-0.5, -1j * 2**-0.5]),   # |chi|^2 overflows
        ([5e-324, 0.0], [1.0, 0.0]),                     # |chi|^2 underflows to 0
        ([3e-170j, 4e-170], [0.6j, 0.8]),
    ])
    def test_normalize_spin_extreme_components(self, spin, expected):
        # both used to give a zero spinor or "must be nonzero"
        np.testing.assert_allclose(normalize_spin(spin), expected, rtol=1e-15)
        with pytest.raises(PacketError, match="nonzero"):
            normalize_spin([0.0, -0.0])


class TestBraggState:
    def test_pure_state_norm(self):
        s = bragg_state("y+", mode=+2)
        assert np.vdot(s, s).real == pytest.approx(1.0, abs=1e-12)
        pops = [np.vdot(s[b], s[b]).real for b in (MINUS_BLOCK, PLUS_BLOCK)]
        assert pops == [pytest.approx(0.0), pytest.approx(1.0)]

    def test_density_properties(self):
        s = bragg_state("up", mode=-2)
        rho = np.outer(s, s.conj())
        validate_density(rho)

    def test_unpolarized_density(self):
        rho = unpolarized_density(+2)
        validate_density(rho)
        assert np.trace(rho[2:4, 2:4]).real == pytest.approx(1.0)

    def test_validate_density_rejects_non_hermitian(self):
        rho = unpolarized_density()
        rho[0, 1] = 0.3
        with pytest.raises(ValueError):
            validate_density(rho)
