"""Grids, spinor wave packets and 4-component Bragg-subspace states."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GridError(ValueError):
    pass


class PacketError(ValueError):
    pass


# sigma_y and the identity in the z basis used for all stored spinors.
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

# sigma_y eigenstates |+> and |->, the spin basis the splitter sorts by.
SPIN_UP = np.array([1.0, 0.0], dtype=complex)
SPIN_DOWN = np.array([0.0, 1.0], dtype=complex)
SPIN_Y_PLUS = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)
SPIN_Y_MINUS = np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0)

NAMED_SPINS = {
    "up": SPIN_UP,
    "down": SPIN_DOWN,
    "y+": SPIN_Y_PLUS,
    "y-": SPIN_Y_MINUS,
    "x+": np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    "x-": np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
}


@dataclass
class SpatialGrid:
    """Uniform periodic 1-D grid in natural length units.

    ``field_wavenumber`` is the laser wavenumber k the grid has to resolve;
    when given, the constructor enforces spacing <= pi/(8 k), i.e. at least
    four points per period of the shortest cos(4 k z) potential structure.
    """

    length: float
    points: int
    field_wavenumber: float | None = None
    z: np.ndarray = field(init=False, repr=False)
    p: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.points <= 0 or (self.points & (self.points - 1)) != 0:
            raise GridError(f"grid points must be a positive power of two, got {self.points}")
        if self.length <= 0:
            raise GridError("grid length must be positive")
        if self.field_wavenumber is not None:
            limit = np.pi / (8.0 * self.field_wavenumber)
            if self.spacing > limit:
                raise GridError(
                    f"grid spacing {self.spacing:.3e} does not resolve the potential "
                    f"period: need spacing <= pi/(8k) = {limit:.3e}"
                )
        n = self.points
        self.z = (np.arange(n) - n // 2) * self.spacing
        self.p = 2.0 * np.pi * np.fft.fftfreq(n, d=self.spacing)

    @property
    def spacing(self) -> float:
        return self.length / self.points

    @property
    def momentum_spacing(self) -> float:
        return 2.0 * np.pi / self.length


@dataclass
class SpinorWavefunction:
    """Two-component spinor sampled on a SpatialGrid; psi has shape (2, N)."""

    grid: SpatialGrid
    psi: np.ndarray

    def __post_init__(self):
        self.psi = np.asarray(self.psi, dtype=complex)
        if self.psi.shape != (2, self.grid.points):
            raise PacketError(f"psi must have shape (2, {self.grid.points})")

    def norm(self) -> float:
        return float(np.sum(np.abs(self.psi) ** 2).real * self.grid.spacing)

    def normalized(self) -> "SpinorWavefunction":
        n = self.norm()
        if not np.isfinite(n) or n <= 0.0:
            raise PacketError("cannot normalize state with zero or non-finite norm")
        return SpinorWavefunction(self.grid, self.psi / np.sqrt(n))

    def copy(self) -> "SpinorWavefunction":
        return SpinorWavefunction(self.grid, self.psi.copy())

    def density(self) -> np.ndarray:
        return np.sum(np.abs(self.psi) ** 2, axis=0)

    def momentum_amplitudes(self) -> np.ndarray:
        """Spin-resolved momentum amplitudes phi(p), shape (2, N), normalized
        so that sum |phi|^2 dp equals the spatial norm (Parseval)."""
        g = self.grid
        phase = np.exp(-1j * g.p * g.z[0])
        return np.fft.fft(self.psi, axis=1) * (g.spacing / np.sqrt(2.0 * np.pi)) * phase

    def position_expectation(self) -> float:
        rho = self.density()
        return float(np.sum(self.grid.z * rho) / np.sum(rho))

    def position_variance(self) -> float:
        rho = self.density()
        zc = np.sum(self.grid.z * rho) / np.sum(rho)
        return float(np.sum((self.grid.z - zc) ** 2 * rho) / np.sum(rho))

    def momentum_expectation(self) -> float:
        phi = self.momentum_amplitudes()
        w = np.sum(np.abs(phi) ** 2, axis=0)
        return float(np.sum(self.grid.p * w) / np.sum(w))

    def momentum_std(self) -> float:
        phi = self.momentum_amplitudes()
        w = np.sum(np.abs(phi) ** 2, axis=0)
        pc = np.sum(self.grid.p * w) / np.sum(w)
        return float(np.sqrt(np.sum((self.grid.p - pc) ** 2 * w) / np.sum(w)))


def normalize_spin(spin) -> np.ndarray:
    if isinstance(spin, str):
        try:
            spin = NAMED_SPINS[spin]
        except KeyError:
            raise PacketError(f"unknown spin label {spin!r}; known: {sorted(NAMED_SPINS)}")
    chi = np.asarray(spin, dtype=complex).reshape(2)
    with np.errstate(over="ignore"):
        n = np.linalg.norm(chi)
    if not 0.0 < n < np.inf:
        # |chi|^2 over- or underflowed: scale the largest component to 1
        # first, part by part (a complex divide by a subnormal overflows)
        peak = np.abs(chi).max()
        if peak == 0:
            raise PacketError("spin vector must be nonzero")
        chi = chi.real / peak + 1j * (chi.imag / peak)
        n = np.linalg.norm(chi)
    return chi / n


def gaussian_packet(
    grid: SpatialGrid,
    center: float,
    width: float,
    central_momentum: float,
    spin=SPIN_UP,
) -> SpinorWavefunction:
    """Normalized Gaussian packet exp(-(z-z0)^2/(4 sigma^2)) e^{i p z} (x) spin.

    ``width`` is the standard deviation of |psi|^2, so the momentum-space
    density has std hbar/(2 width).  Rejects packets the grid cannot hold:
    width < 4 spacings, or |psi|^2 tails above 1e-10 at the domain edges.
    """
    if width < 4.0 * grid.spacing:
        raise PacketError(
            f"packet width {width:.3e} below 4 grid spacings ({4 * grid.spacing:.3e})"
        )
    zmin = grid.z[0]
    zmax = grid.z[-1] + grid.spacing
    if not (zmin < center < zmax):
        raise PacketError("packet center outside the grid domain")
    edge = min(center - zmin, zmax - center)
    tail = np.exp(-(edge**2) / (2.0 * width**2))
    if tail > 1e-10:
        raise PacketError(
            f"packet overlaps the periodic boundary: edge density {tail:.2e} > 1e-10"
        )
    chi = normalize_spin(spin)
    envelope = np.exp(-((grid.z - center) ** 2) / (4.0 * width**2))
    carrier = np.exp(1j * central_momentum * grid.z)
    psi = np.outer(chi, envelope * carrier)
    return SpinorWavefunction(grid, psi).normalized()


def _bloch_from_spinors(up, dn):
    """(population, Bloch vector) of the mixed spin state sum_i |chi_i><chi_i|
    with chi_i = (up_i, dn_i); the Bloch vector is (0, 0, 0) where the
    population is not positive."""
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


def spin_expectations(psi: SpinorWavefunction) -> tuple[float, float, float]:
    """(<sigma_x>, <sigma_y>, <sigma_z>) of a wavefunction, unit-normalized."""
    norm, bloch = _bloch_from_spinors(psi.psi[0], psi.psi[1])
    if norm <= 0.0 or not np.isfinite(norm):
        raise PacketError("spin expectations of a zero-norm state")
    return bloch


# ---------------------------------------------------------------------------
# Bragg subspace: amplitudes ordered (c_-2^up, c_-2^down, c_+2^up, c_+2^down)

MINUS_BLOCK = slice(0, 2)
PLUS_BLOCK = slice(2, 4)


@dataclass
class BraggState:
    """4-amplitude state of the two Bragg-coupled momentum modes -2hk, +2hk."""

    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex).reshape(4)

    @classmethod
    def from_spin(cls, spin, mode: int = +2) -> "BraggState":
        chi = normalize_spin(spin)
        amps = np.zeros(4, dtype=complex)
        block = PLUS_BLOCK if mode == +2 else MINUS_BLOCK
        amps[block] = chi
        return cls(amps)

    def norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def density(self) -> np.ndarray:
        return np.outer(self.amplitudes, np.conj(self.amplitudes))

    def populations(self) -> tuple[float, float]:
        """(pop at -2hk, pop at +2hk)."""
        a = self.amplitudes
        return (
            float(np.sum(np.abs(a[MINUS_BLOCK]) ** 2)),
            float(np.sum(np.abs(a[PLUS_BLOCK]) ** 2)),
        )


def validate_density(rho: np.ndarray, atol: float = 1e-10) -> np.ndarray:
    """Check a 4x4 density matrix: Hermitian, unit trace, eigenvalues >= -1e-10."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError("density matrix must be 4x4")
    if np.max(np.abs(rho - rho.conj().T)) > atol:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-9:
        raise ValueError("density matrix trace differs from 1")
    if np.min(np.linalg.eigvalsh(rho)) < -1e-10:
        raise ValueError("density matrix has negative eigenvalues")
    return rho


def unpolarized_density(mode: int = +2) -> np.ndarray:
    """Density matrix of an unpolarized ensemble in one momentum mode."""
    rho = np.zeros((4, 4), dtype=complex)
    block = PLUS_BLOCK if mode == +2 else MINUS_BLOCK
    rho[block, block] = 0.5 * ID2
    return rho
