"""Time evolution of spinor wave packets under the Pauli equation.

H = p^2/2m + a(z,t) + b(z,t) sigma_y with a = (eA)^2/(2mc^2) and
b = (e hbar/2mc) B_y.  [sigma_y, H] = 0 for every field modelled here, so
every backend holds the state in the two sigma_y sectors
psi_+- = (psi_up -+ i psi_down)/sqrt(2), each a scalar Schroedinger problem
with potential V+- = a +- b; sigma_y conservation is structural.  All stages
share one photon energy, so V+- is a Fourier series with harmonics e^{ijkz},
|j| <= 4, and every backend reads its coefficients from one field model.
The model takes an array of times and returns one row of coefficients per
time, a zero row where no field acts; each backend calls it on all the
times of a run of steps at once.  Observation rotates back to the z basis
once per snapshot.

* ``full-field``   - Strang splitting on the spatial grid with the exact
  time-dependent fields, whose coefficients come from each stage's spatial
  harmonics.  ``advance`` evaluates them once on its step midpoints and sums
  V+- on the grid one step at a time.  The potential factor is the phase
  exp(-i V+- dt) in each sector, built from one tangent tan(-V+- dt/2) per
  grid point without sin or cos, within 4e-16 of the exact phase.
* ``effective``    - same splitting with the cycle-averaged lattices (j = 4);
  inside pulse edges the monochromatic lattice scales as f(t)^2 and the
  bichromatic one as f(t)^3 (two resp. three field factors drive them).
* ``mode-lattice`` - amplitudes c_n on momenta n*hbar*k, |n| <= N, under the
  full-field coefficients; each sector is a (2N+1)-mode Hermitian problem
  with Toeplitz coupling.  Each step is the exact exponential of the
  4th-order Magnus expansion (Blanes, Casas, Oteo and Ros, Phys. Rep. 470,
  151 (2009)) in the Schroedinger picture, so it is unitary to rounding at
  any step size.  Steps lie on the carrier lattice t_i = i T/M,
  T = 2 pi/omega.  On a pulse plateau H(t + T) = H(t), so a plateau's M step
  propagators are computed once and whole periods advance by their product
  U_T (Shirley, Phys. Rev. 138, B979 (1965)); only the sin^2 edges and the
  fractional steps at the ends of an interval are stepped afresh, through
  ``gl2_step``.  Fresh steps depend only on t, not on the state, so a run
  of them is built as one batch: one field-model call on the array of
  Gauss-node times, one stacked commutator and one stacked exponential.
  A plateau's step cache is filled in the same batches.

One runner drives every backend through the same three calls on the same
state, the sigma_y sectors: ``advance`` across a snapshot interval with a
field on, ``drift`` (the free phase) across one without, and ``observe`` at
each snapshot (channel report and reduced spin density from
``observables``).  These propagators are the only steppers; the mode
lattice's one fresh-step path, ``gl2_step``, is also the reference that
``advance`` is tested against.

The spatially uniform term c_0 is dropped in the mode lattice: it
multiplies the identity and contributes only a global phase.
"""

from __future__ import annotations

import cmath
import ctypes
import functools
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import fields as F
from .analytic import KIND_MONO, EffectivePotential
from .observables import ChannelReport, _entropy_of_spin_density, grid_channels, mode_channels
from .states import SpatialGrid, SpinorWavefunction, gaussian_packet, normalize_spin
from .units import MC2_EV, natural_to_fs, um_to_natural

BACKENDS = ("full-field", "effective", "mode-lattice")

# Spec defaults for paper-scale runs: 16384 points over 3 um resolve the
# ~1.55 nm lattice period with ~8 points.
DEFAULT_GRID_POINTS = 16384
DEFAULT_GRID_LENGTH = um_to_natural(3.0)


class PropagationError(RuntimeError):
    pass


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class PacketSpec:
    center: float
    width: float
    momentum: float
    spin: np.ndarray = field(default_factory=lambda: np.array([1.0, 0.0], dtype=complex))

    def __post_init__(self):
        object.__setattr__(self, "spin", normalize_spin(self.spin))


@dataclass
class PropagationConfig:
    backend: str = "full-field"
    dt: float | None = None                  # natural units; None -> backend default
    snapshot_every: float | None = None      # natural units; None -> duration/128
    mode_halfwidth: int = 8
    grid_points: int = DEFAULT_GRID_POINTS
    grid_length: float = DEFAULT_GRID_LENGTH
    keep_snapshots: bool = False

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ScenarioError(f"unknown backend {self.backend!r}; choose from {BACKENDS}")
        if self.mode_halfwidth < 4:
            raise ScenarioError("mode-lattice half-width N must be >= 4")


@dataclass
class Scenario:
    packet: PacketSpec
    stages: list
    duration: float
    config: PropagationConfig
    label: str = ""
    source_hash: str = ""

    def validate(self):
        for name in ("dt", "snapshot_every"):
            value = getattr(self.config, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ScenarioError(f"{name} must be positive and finite, "
                                    f"got {natural_to_fs(value):.6g} fs")
        starts = [s.start for s in self.stages]
        if starts != sorted(starts):
            raise ScenarioError("stages must be ordered by non-decreasing start time")
        for s in self.stages:
            if s.start < -1e-12:
                raise ScenarioError(f"stage {s.label!r} starts before t=0")
            if s.end > self.duration + 1e-9:
                raise ScenarioError(
                    f"stage {s.label!r} ends at {s.end:.6g}, beyond duration {self.duration:.6g}"
                )
        # Superposed fields of the same kind are almost certainly a mistake;
        # mixed-kind overlap is legitimate (the amplitudes add).
        for a, b in zip(self.stages, self.stages[1:]):
            if a.kind == b.kind and b.start < a.end - 1e-12:
                raise ScenarioError(
                    f"stages {a.label!r} and {b.label!r} of kind {a.kind} overlap in time"
                )
        if self.stages:
            # the field model's harmonics e^{ijkz} share one k
            k0 = self.stages[0].wavenumber
            if any(abs(s.wavenumber - k0) > 1e-9 * k0 for s in self.stages):
                raise ScenarioError("stages need one common photon energy")
            ratio = self.packet.momentum / k0
            if self.config.backend == "mode-lattice" and abs(ratio - round(ratio)) > 0.01:
                raise ScenarioError(
                    "mode-lattice needs the packet momentum on the k-lattice; "
                    f"got p/hbar k = {ratio:.4f}"
                )
        return self


@dataclass
class TimeSeries:
    """Per-snapshot observables; times in natural units."""

    t: np.ndarray
    pop_plus: np.ndarray
    pop_minus: np.ndarray
    sy_plus: np.ndarray
    sy_minus: np.ndarray
    poldeg_plus: np.ndarray
    poldeg_minus: np.ndarray
    entropy: np.ndarray
    norm_drift: np.ndarray
    sy_total: np.ndarray
    norm: np.ndarray


@dataclass
class ScenarioResult:
    scenario: Scenario
    backend: str
    timeseries: TimeSeries
    final_report: ChannelReport
    final_psi: SpinorWavefunction | None = None
    warnings: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# timestep policy

def _effective_lattice(stage):
    """(cycle-averaged lattice, envelope power) of a stage.  The power counts
    the field factors that drive it: f^2 for the A^2 lattice, f^3 for the
    three-photon bichromatic one."""
    if stage.kind == KIND_MONO:
        return EffectivePotential.mono(stage.ea0, stage.wavenumber, stage.chi), 2
    return EffectivePotential.bichromatic(stage.ea1, stage.ea2, stage.photon_energy), 3


def _stage_rabi(stage) -> float:
    return _effective_lattice(stage)[0].strength


def _max_omega(stages) -> float:
    return max((s.omega for s in stages), default=0.0)


def default_timestep(backend: str, stages, snapshot_every: float) -> float:
    w = _max_omega(stages)
    if backend == "full-field":
        return np.pi / (64.0 * w) if w > 0 else snapshot_every
    if backend == "mode-lattice":
        return np.pi / (256.0 * w) if w > 0 else snapshot_every
    om = max((_stage_rabi(s) for s in stages), default=0.0)
    return 1e-3 / om if om > 0 else snapshot_every


def stage_pulse_areas(stages):
    """Per stage: (stage, hbar_rabi, effective_duration, pulse_area theta).

    The effective duration integrates the envelope with the power the stage's
    coupling carries (see ``_effective_lattice``).
    """
    out = []
    for s in stages:
        pot, power = _effective_lattice(s)
        teff = s.envelope.effective_duration(power)
        out.append((s, pot.strength, teff, pot.strength * teff))
    return out


def timestep_ceiling(backend: str, stages) -> float:
    """Hard upper bound on dt: carrier period/40 for field-resolving backends,
    0.01/Omega for the effective backend."""
    if backend in ("full-field", "mode-lattice"):
        w = _max_omega(stages)
        return np.pi / (40.0 * w) if w > 0 else np.inf
    om = max((_stage_rabi(s) for s in stages), default=0.0)
    return 0.01 / om if om > 0 else np.inf


# ---------------------------------------------------------------------------
# sigma_y sectors

_RSQRT2 = math.sqrt(0.5)


def _y_sectors(spinor: np.ndarray) -> np.ndarray:
    """z-basis components (up, dn) on axis 0 -> the sigma_y sector amplitudes
    (y+, y-) = (up -+ i dn)/sqrt(2) on axis 0.  [sigma_y, H] = 0, so each
    sector evolves alone under the scalar potential a +- b."""
    up, dn = spinor
    return np.stack([up - 1j * dn, up + 1j * dn]) * _RSQRT2


def _z_spinor(sectors: np.ndarray) -> np.ndarray:
    """Inverse of ``_y_sectors``."""
    plus, minus = sectors
    return np.stack([plus + minus, 1j * (plus - minus)]) * _RSQRT2


# ---------------------------------------------------------------------------
# field model: a callable harmonics(t) on an array of times t -> complex
# (..., 2, 5) array c[s, j], the coefficients of e^{ijkz} (j = 0..4) in
# V+- = a +- b, one (2, 5) row per time and zero where no field acts; V is
# real, so c_{-j} = conj(c_j).

def _sectors(a, b) -> np.ndarray:
    """c[..., s, j] of V+- = a +- b from the coefficients a_j and b_j,
    j = 0..4, each a scalar or an array of times."""
    c = np.array([[x + y for x, y in zip(a, b)], [x - y for x, y in zip(a, b)]])
    return np.moveaxis(c, (0, 1), (-2, -1))


class _FullFieldModel:
    """The exact fields: eA = sum over j = +-1, +-2 of alpha_j e^{ijkz}
    (``fields.spatial_harmonics``, summed over the stages), so
    (eA)^2/2m is the self-convolution of the alpha_j, and d/dz multiplies
    e^{ijkz} by i j k.  Its j = 0 term is (|alpha_1|^2 + |alpha_2|^2)/mc^2.
    An envelope is 0 outside its stage, so every stage contributes at every
    time and a row is zero where no stage is on."""

    def __init__(self, stages, wavenumber: float):
        self.stages = list(stages)
        self.k = wavenumber

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        al1 = al2 = np.zeros(t.shape, dtype=complex)
        for s in self.stages:
            c1, c2 = F.spatial_harmonics(s, t)
            al1 = al1 + c1
            al2 = al2 + c2
        scale = 0.5 / MC2_EV
        a0 = 2.0 * scale * (al1.real**2 + al1.imag**2 + al2.real**2 + al2.imag**2)
        a = (a0, 2.0 * scale * al2 * al1.conj(), scale * al1 * al1,
             2.0 * scale * al1 * al2, scale * al2 * al2)
        kb = 1j * self.k * scale
        return _sectors(a, (0j, kb * al1, 2.0 * kb * al2, 0j, 0j))


class _EffectiveModel:
    """The cycle-averaged lattices (``_effective_lattice``), j = 4 only, each
    scaled by its envelope to the stage's power.  The standing wave's
    Omega cos(4kz + chi) gives a_4 = (Omega/2) e^{i chi} f^2, the bichromatic
    -Omega sin(4kz) sigma_y gives b_4 = (i Omega/2) f^3."""

    def __init__(self, stages):
        self._entries = []
        zero = np.zeros(5, dtype=complex)
        for stage in stages:
            pot, power = _effective_lattice(stage)
            row = zero.copy()
            if pot.kind == KIND_MONO:
                row[4] = 0.5 * pot.strength * cmath.exp(1j * pot.chi)
                self._entries.append((stage, power, _sectors(row, zero)))
            else:
                row[4] = 0.5j * pot.strength
                self._entries.append((stage, power, _sectors(zero, row)))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        c = np.zeros(t.shape + (2, 5), dtype=complex)
        for stage, power, unit in self._entries:
            f = stage.envelope.value(t - stage.start)
            c += np.multiply.outer(f**power, unit)
        return c


# ---------------------------------------------------------------------------
# grid backends

# glibc mallopt parameters
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


@functools.cache
def _keep_scratch_on_heap() -> None:
    """Serve the stepping loops' scratch blocks from the heap, not from fresh
    mmaps.

    numpy.fft allocates a 16 N byte scratch row per transform (128 kB at
    N = 8192), and a batch of mode-lattice steps builds temporaries of
    several hundred kB.  Under glibc's default 128 kB mmap threshold each
    such block is mmapped and unmapped again, so every page of it faults
    afresh on first touch: about 190 minor faults per Strang step at
    (2, 8192), which made the step 1.6 to 2 times slower, and a mode-lattice
    batch at 2N + 1 = 49 ran about 1.5 times slower.  glibc raises that
    threshold dynamically only after a large mmapped block has been freed,
    which some imports (scipy.optimize among them) happen to do.  An 8 MB
    mmap threshold puts the scratch blocks in the heap, and a 64 MB trim
    threshold keeps the heap from handing their pages back on free, whatever
    was imported first.  A no-op where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 8 << 20)
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _kinetic_phase(grid: SpatialGrid, tau: float) -> np.ndarray:
    return np.exp(-0.5j * tau * grid.p**2 / MC2_EV)


def _apply_kinetic(psi: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """In place: psi -> ifft(phase * fft(psi)) along axis 1; returns psi."""
    np.fft.fft(psi, axis=1, out=psi)
    psi *= phase
    return np.fft.ifft(psi, axis=1, out=psi)


class _PhaseWork:
    """Buffers of ``_apply_potential`` for N grid points: the half angles
    -h V/2 (then their tangents tau), the weights 2/(1 + tau^2), the factor
    exp(-i h V) of the last potential step, and the (c bytes, h) that factor
    was made from."""

    def __init__(self, points: int):
        self.angle = np.empty((2, points))
        self.weight = np.empty((2, points))
        self.factor = np.empty((2, points), dtype=complex)
        self.made_from = None


def _phase_from_half_angles(work: _PhaseWork) -> None:
    """work.factor = exp(2i phi) for the half angles phi in work.angle, from
    one tangent per point: with tau = tan(phi), exp(2i phi) =
    (2/(1 + tau^2) - 1) + i tau 2/(1 + tau^2).  numpy's float64 tan is
    vectorised where the CPU has AVX-512, while sin and cos run as scalar
    loops; elsewhere one libm call per point replaces two.  Within 4.0e-16 of
    np.exp(2i phi) for |2 phi| <= 50, |factor| within 4.4e-16 of 1, and
    finite at 2 phi = +-pi, where tan(pi/2) is 1.6e16 in float64.  Overwrites
    work.angle with the tangents."""
    tau, weight = work.angle, work.weight
    np.tan(tau, out=tau)
    np.multiply(tau, tau, out=weight)
    np.add(weight, 1.0, out=weight)
    np.divide(2.0, weight, out=weight)
    np.multiply(tau, weight, out=work.factor.imag)
    np.subtract(weight, 1.0, out=work.factor.real)


def _apply_potential(psi: np.ndarray, potential: _GridPotential, c: np.ndarray, h: float,
                     work: _PhaseWork) -> None:
    """In-place exp(-i V h) on the sigma_y sectors psi of shape (2, N), with
    V = (a + b, a - b) summed on the grid from the coefficients c[s, j].

    The half angles -h V/2 are written straight into ``work`` and turned into
    the factor by ``_phase_from_half_angles``; the factor is reused while c
    (bit for bit) and h repeat (a plateau of the effective model)."""
    key = (c.tobytes(), h)
    if work.made_from != key:
        work.made_from = key
        potential(c, -0.5 * h, out=work.angle)
        _phase_from_half_angles(work)
    psi *= work.factor


class _GridPotential:
    """V+- = a +- b on the grid from the coefficients c[s, j] of one time:
    V = R(c) @ P with R(c) = [Re c_0, Re c_j, Im c_j] and the profiles
    P = [1, 2 cos(jkz), -2 sin(jkz)], j = 1..4, built once."""

    def __init__(self, model, wavenumber: float, z: np.ndarray):
        self.model = model
        jkz = (np.arange(1, 5) * wavenumber)[:, None] * z
        self._profiles = np.vstack([np.ones_like(z), 2.0 * np.cos(jkz), -2.0 * np.sin(jkz)])

    def __call__(self, c: np.ndarray, scale: float = 1.0, out: np.ndarray | None = None):
        """scale * V, as (scale R(c)) @ P so that the scale costs no pass over
        the grid; written into out if given."""
        rows = np.hstack([c.real, c.imag[:, 1:]]) * scale
        return np.matmul(rows, self._profiles, out=out)


class _GridPropagator:
    """Strang splitting on the spatial grid: half kinetic, full potential at
    the step midpoint, half kinetic, with the half steps of neighbours merged.
    The state is the pair of sigma_y sectors (2, N), so the potential factor
    is one phase per sector and every step is unitary to rounding.

    ``advance`` and ``drift`` work in place: they overwrite the complex
    (2, N) array they are given and return it."""

    def __init__(self, grid: SpatialGrid, potential: _GridPotential, hbar_k: float):
        self.grid = grid
        self.potential = potential
        self.hbar_k = hbar_k
        self._work = _PhaseWork(grid.points)
        _keep_scratch_on_heap()

    def drift(self, psi: np.ndarray, tau: float) -> np.ndarray:
        """Free evolution over tau: one kinetic step."""
        return _apply_kinetic(psi, _kinetic_phase(self.grid, tau))

    def advance(self, psi: np.ndarray, ta: float, tb: float, dt: float) -> np.ndarray:
        """Sectors at ta -> at tb, in equal steps no longer than dt, with the
        field model called once on the array of the step midpoints."""
        n = max(1, math.ceil((tb - ta) / dt - 1e-12))
        h = (tb - ta) / n
        half, full = _kinetic_phase(self.grid, 0.5 * h), _kinetic_phase(self.grid, h)
        coefficients = self.potential.model(ta + (np.arange(n) + 0.5) * h)
        acts = coefficients.any(axis=(-2, -1))
        _apply_kinetic(psi, half)
        for i in range(n):
            if acts[i]:
                _apply_potential(psi, self.potential, coefficients[i], h, self._work)
            _apply_kinetic(psi, full if i < n - 1 else half)
        return psi

    def observe(self, psi: np.ndarray):
        """(z-basis wavefunction, channel report, reduced spin density)."""
        wf = SpinorWavefunction(self.grid, _z_spinor(psi))
        return (wf, *grid_channels(wf, self.hbar_k))


# ---------------------------------------------------------------------------
# mode lattice

_GAUSS_C = math.sqrt(3.0) / 6.0          # Gauss nodes at 1/2 -+ sqrt(3)/6 of a step
_MAGNUS_K = math.sqrt(3.0) / 12.0        # weight of the commutator term
# Largest 1-norm at which the degree-9 Taylor remainder ||X||^10/10! stays
# below 2^-53; larger exponents are scaled down by powers of two first.
_TAYLOR_THETA = 0.11
_TAYLOR_C = [1.0 / math.factorial(n) for n in range(10)]
# Fresh Magnus steps are built in batches of about this many elements of the
# (2, m, m) sector propagators, m = 2N + 1.  Small m is bound by numpy's
# per-call cost, which a batch shares; large m is bound by the matrix
# products, and larger batches leave the cache: 34 steps at N = 8, 4 at
# N = 24.
_BATCH_ELEMENTS = 20_000


def _expm_skew(x: np.ndarray) -> np.ndarray:
    """exp of a stack of small anti-Hermitian matrices (..., m, m): degree-9
    Taylor series in Paterson-Stockmeyer form, four matrix products, with
    scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 1179
    (2005)).  Each squaring doubles the rounding error, so each matrix is
    scaled no further than its own 1-norm requires."""
    ratio = np.abs(x).sum(axis=-2).max(axis=-1) / _TAYLOR_THETA
    squarings = np.ceil(np.log2(np.maximum(ratio, 1.0))).astype(int)
    most = int(squarings.max(initial=0))
    if most:
        x = x * np.ldexp(1.0, -squarings)[..., None, None]
    c = _TAYLOR_C
    x2 = x @ x
    x3 = x2 @ x
    # sum_n c_n x^n = (c0 + c1 x + c2 x2) + x3 [(c3 + c4 x + c5 x2) + x3 (c6 + ... + c9 x3)],
    # summed in place so that few stack-sized temporaries live at once
    inner = x3 * c[9]
    inner += x2 * c[8]
    inner += x * c[7]
    _add_to_diagonal(inner, c[6])
    outer = x3 @ inner
    del inner
    outer += x2 * c[5]
    outer += x * c[4]
    _add_to_diagonal(outer, c[3])
    u = x3 @ outer
    del outer
    u += x2 * c[2]
    u += x
    _add_to_diagonal(u, 1.0)
    for n in range(most):
        more = squarings > n
        if more.all():
            u = u @ u
        else:
            u[more] = u[more] @ u[more]
    return u


def _add_to_diagonal(x: np.ndarray, value) -> None:
    """x[..., n, n] += value in place."""
    np.einsum("...ii->...i", x)[...] += value


def _apply(u: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Sector propagators (2, m, m) applied to sector amplitudes (2, m)."""
    return (u @ amps[:, :, None])[:, :, 0]


class ModeLatticeEngine:
    """Coupled amplitudes c_n (Pauli spinor each) on momenta n*hbar*k under
    the Fourier components of the exact (eA)^2 and B_y, in closed form from
    ``fields.spatial_harmonics``.  The state is what the grid propagator
    holds: the sigma_y sectors (y+, y-), shape (2, 2N+1) with index n+N, in
    the Schroedinger picture, where the plateau Hamiltonian repeats every
    carrier period T = 2 pi/omega.
    """

    def __init__(self, wavenumber: float, halfwidth: int, stages=()):
        if halfwidth < 2:
            raise ScenarioError("mode-lattice half-width must be >= 2")
        self.k = wavenumber
        self.N = halfwidth
        self.stages = list(stages)
        m = 2 * halfwidth + 1
        n_index = np.arange(m) - halfwidth
        self.energies = (n_index * wavenumber) ** 2 / (2.0 * MC2_EV)
        # carrier period of the plateau Hamiltonian; None without a stage
        w = _max_omega(self.stages)
        self.period = 2.0 * np.pi / w if w > 0 else None
        # H[r, c] = band[4 + r - c] for 0 < |r - c| <= 4, else band[9] = 0:
        # c_0 multiplies the identity and only adds a global phase
        diff = n_index[:, None] - n_index[None, :]
        self._gather = np.where((np.abs(diff) <= 4) & (diff != 0), diff + 4, 9)
        self._kinetic = np.diag(self.energies).astype(complex)
        self._field = _FullFieldModel(self.stages, wavenumber)
        self._batch = max(1, _BATCH_ELEMENTS // (2 * m * m))
        self._plateau = None    # (stages on their plateau, M) that the cache serves
        self._cache = {}        # lattice phase i mod M -> step propagators
        self._period_u = None   # product of the cached steps over one period
        _keep_scratch_on_heap()

    def initial_state(self, mode: int, spin) -> np.ndarray:
        if abs(mode) > self.N:
            raise ScenarioError(f"initial mode {mode} outside |n| <= {self.N}")
        amps = np.zeros((2, 2 * self.N + 1), dtype=complex)
        amps[:, mode + self.N] = _y_sectors(normalize_spin(spin))
        return amps

    def harmonics(self, t):
        """c[..., s, j]: the coefficients of e^{ijkz} (j = 0..4) in
        V+- = a +- b on an array of times, one (2, 5) row per time, zero where
        no stage is on (``_FullFieldModel``)."""
        return self._field(t)

    def _magnus(self, t: np.ndarray, dt: float):
        """Sector propagators of the steps [t, t + dt] for an array of n step
        starts t (Schroedinger picture), shape (n, 2, m, m), each from one
        4th-order Magnus step: exp(-i dt/2 (H1 + H2) + sqrt(3)/12 dt^2 [H1, H2])
        with H at the two Gauss nodes; and, per step, whether a field acts at
        either node."""
        nodes = np.stack([t + (0.5 - _GAUSS_C) * dt, t + (0.5 + _GAUSS_C) * dt], axis=-1)
        # rows node 1 (y+, y-), node 2 (y+, y-): conj(c_4..c_1), c_0..c_4, 0
        c = self.harmonics(nodes).reshape(len(t), 4, 5)
        band = np.concatenate([c[..., :0:-1].conj(), c, np.zeros((len(t), 4, 1))], axis=-1)
        h = band[..., self._gather]
        h += self._kinetic
        # [H1, H2] = H1 H2 - (H1 H2)^dagger for Hermitian H1, H2; in-place
        # updates and early deletes keep few batch-sized arrays alive at once
        comm = h[:, :2] @ h[:, 2:]
        comm -= comm.conj().swapaxes(-1, -2)
        comm *= _MAGNUS_K * dt * dt
        omega = h[:, :2] + h[:, 2:]
        del h
        omega *= -0.5j * dt
        omega += comm
        del comm
        return _expm_skew(omega), c.any(axis=(-2, -1))

    def _step_class(self, t0: float, t1: float):
        """Indices of the stages overlapping [t0, t1] if every one of them is
        on its plateau throughout; () if none overlaps; None on an edge."""
        on = []
        for idx, s in enumerate(self.stages):
            if t1 <= s.start or t0 >= s.end:
                continue
            lo = s.start + s.envelope.rise
            if not (lo <= t0 and t1 <= lo + s.envelope.plateau):
                return None
            on.append(idx)
        return tuple(on)

    def _period_propagator(self, key: tuple, steps: int):
        """U_T from lattice phase 0 once the cache of plateau ``key`` holds
        every step of the period, else None."""
        if self._plateau != (key, steps) or len(self._cache) < steps:
            return None
        if self._period_u is None:
            u = self._cache[0]
            for p in range(1, steps):
                u = self._cache[p] @ u
            self._period_u = u
        return self._period_u

    def gl2_step(self, amps: np.ndarray, t, dt: float) -> np.ndarray:
        """Sector amplitudes at t -> at t + dt by one exact-exponential
        4th-order Magnus step (unitary to rounding), computed afresh: no
        cache, no lattice.  The free phase when no field acts at either
        Gauss node.  For an array of step starts t, one such step from each
        in turn, with the propagators built as one batch.  ``advance`` takes
        every edge and fractional step here."""
        us, acts = self._magnus(np.atleast_1d(np.asarray(t, dtype=float)), dt)
        for u, act in zip(us, acts):
            amps = _apply(u, amps) if act else self.drift(amps, dt)
        return amps

    def advance(self, amps: np.ndarray, ta: float, tb: float, dt: float) -> np.ndarray:
        """Sector amplitudes at ta -> at tb.

        Steps lie on the carrier lattice t_i = i T/M, with M the smallest
        integer that makes them no longer than dt; fresh fractional steps
        join ta and tb to it.  Between two stage boundaries every lattice
        step has one class: a free run is one ``drift``, an edge run is
        stepped afresh in batches, and a plateau run takes its steps from
        the cache keyed by (stages on their plateau, M) and i mod M, filled
        in batches, whole periods as one product U_T each.
        """
        if self.period is None:
            raise ScenarioError("advance needs a stage")
        steps = max(1, math.ceil(self.period / dt - 1e-9))
        h = self.period / steps
        batch = min(self._batch, steps)
        i = math.ceil(ta / h)
        j = math.floor(tb / h)
        if i > j:
            return self.gl2_step(amps, ta, tb - ta)
        if i * h > ta:
            amps = self.gl2_step(amps, ta, i * h - ta)
        # the class of a step changes only next to a stage boundary
        breaks = sorted({math.floor(x / h) + d for s in self.stages
                         for x in (s.start, s.start + s.envelope.rise,
                                   s.start + s.envelope.rise + s.envelope.plateau, s.end)
                         for d in (-1, 0, 1, 2)})
        while i < j:
            end = min([b for b in breaks if b > i] + [j])
            key = self._step_class(i * h, (i + 1) * h)
            if key == ():
                amps = self.drift(amps, (end - i) * h)
                i = end
            elif key is None:
                for lo in range(i, end, batch):
                    amps = self.gl2_step(amps, np.arange(lo, min(lo + batch, end)) * h, h)
                i = end
            else:
                if self._plateau != (key, steps):
                    self._plateau, self._cache, self._period_u = (key, steps), {}, None
                while i < end:
                    period = self._period_propagator(key, steps) if i % steps == 0 else None
                    if period is not None and end - i >= steps:
                        for _ in range((end - i) // steps):
                            amps = _apply(period, amps)
                        i += (end - i) // steps * steps
                        continue
                    if i % steps not in self._cache:
                        fill = [p for p in range(i, min(i + batch, end))
                                if p % steps not in self._cache]
                        us, _ = self._magnus(np.array(fill) * h, h)
                        self._cache.update((p % steps, u) for p, u in zip(fill, us))
                    amps = _apply(self._cache[i % steps], amps)
                    i += 1
        if tb > j * h:
            amps = self.gl2_step(amps, j * h, tb - j * h)
        return amps

    def drift(self, amps: np.ndarray, tau: float) -> np.ndarray:
        """Free evolution over tau: the phase exp(-i tau E_n) on each mode."""
        return amps * np.exp(-1j * tau * self.energies)

    def observe(self, amps: np.ndarray):
        """(z-basis amplitudes (2N+1, 2), channel report of the modes n = +-2,
        reduced spin density)."""
        c = _z_spinor(amps).T
        return (c, *mode_channels(c))

    def edge_population(self, c: np.ndarray) -> float:
        return float(np.sum(np.abs(c[0]) ** 2) + np.sum(np.abs(c[-1]) ** 2))


# ---------------------------------------------------------------------------
# scenario runner

def _analysis_wavenumber(scn: Scenario) -> float:
    if scn.stages:
        return max(s.wavenumber for s in scn.stages)
    if scn.packet.momentum != 0.0:
        return abs(scn.packet.momentum) / 2.0
    return 1.0


def _warn(run_warnings: list, msg: str) -> None:
    run_warnings.append(msg)
    warnings.warn(msg)


def _snapshot_times(duration: float, cadence: float, run_warnings: list) -> np.ndarray:
    n = max(1, int(round(duration / cadence)))
    if abs(n * cadence - duration) > 1e-9 * duration:
        _warn(run_warnings, f"snapshot_every {natural_to_fs(cadence):.6g} fs does not divide "
                            f"the duration {natural_to_fs(duration):.6g} fs; snapshots are "
                            f"{natural_to_fs(duration / n):.6g} fs apart")
    return np.linspace(0.0, duration, n + 1)


class _RowCollector:
    def __init__(self):
        self.rows = []

    def add(self, t, report: ChannelReport, entropy, norm, norm0, sy_total):
        self.rows.append((
            t, report.pop_plus, report.pop_minus, report.sy_plus, report.sy_minus,
            report.poldeg_plus, report.poldeg_minus, entropy, norm - norm0, sy_total, norm,
        ))

    def series(self) -> TimeSeries:
        cols = list(zip(*self.rows))
        arrays = [np.asarray(c, dtype=float) for c in cols]
        return TimeSeries(*arrays)


def _propagator(scn: Scenario):
    """The backend's propagator and its initial state."""
    cfg = scn.config
    packet = scn.packet
    if cfg.backend == "mode-lattice":
        k = scn.stages[0].wavenumber if scn.stages else _analysis_wavenumber(scn)
        eng = ModeLatticeEngine(k, cfg.mode_halfwidth, stages=scn.stages)
        return eng, eng.initial_state(int(round(packet.momentum / k)), packet.spin)
    k_field = max((s.wavenumber for s in scn.stages), default=None)
    grid = SpatialGrid(cfg.grid_length, cfg.grid_points, field_wavenumber=k_field)
    k = _analysis_wavenumber(scn)   # the stages' common k when there are stages
    if cfg.backend == "full-field":
        model = _FullFieldModel(scn.stages, k)
    else:
        model = _EffectiveModel(scn.stages)
    prop = _GridPropagator(grid, _GridPotential(model, k, grid.z), k)
    psi = gaussian_packet(grid, packet.center, packet.width, packet.momentum, packet.spin)
    return prop, _y_sectors(psi.psi)


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Propagate a scenario with its configured backend and return snapshots,
    the observable time series, and the final state."""
    scn = scenario.validate()
    cfg = scn.config
    cadence = cfg.snapshot_every or scn.duration / 128.0
    dt = cfg.dt or default_timestep(cfg.backend, scn.stages, cadence)
    ceiling = timestep_ceiling(cfg.backend, scn.stages)
    if dt > ceiling:
        raise ScenarioError(f"configured dt {natural_to_fs(dt):.3e} fs violates the backend "
                            f"bound {natural_to_fs(ceiling):.3e} fs")

    run_warnings = []
    times = _snapshot_times(scn.duration, cadence, run_warnings)
    prop, state = _propagator(scn)
    modes = cfg.backend == "mode-lattice"
    collector = _RowCollector()
    snapshots = []
    norm0 = None
    edge_warned = False
    for i, t in enumerate(times):
        if i:
            ta = times[i - 1]
            if any(s.start < t - 1e-15 and s.end > ta + 1e-15 for s in scn.stages):
                state = prop.advance(state, ta, t, dt)
            else:
                state = prop.drift(state, t - ta)
        snap, report, rho = prop.observe(state)
        norm = report.total_norm
        if not np.isfinite(norm):
            raise PropagationError(f"non-finite norm at t={t:.6g}")
        norm0 = norm if norm0 is None else norm0
        collector.add(t, report, _entropy_of_spin_density(rho), norm, norm0,
                      float(2.0 * rho[1, 0].imag / norm))
        if cfg.keep_snapshots:
            snapshots.append((t, snap))
        if modes and not edge_warned and prop.edge_population(snap) > 1e-6:
            edge_warned = True
            _warn(run_warnings, f"population {prop.edge_population(snap):.2e} at |n| = {prop.N} "
                                f"at t={t:.6g}; increase mode_halfwidth")

    return ScenarioResult(
        scenario=scn, backend=cfg.backend, timeseries=collector.series(), final_report=report,
        final_psi=None if modes else snap,
        warnings=run_warnings, snapshots=snapshots,
    )


def with_backend(scenario: Scenario, backend: str, **config_overrides) -> Scenario:
    """Copy of a scenario with a different backend (and optional config tweaks)."""
    cfg = replace(scenario.config, backend=backend, **config_overrides)
    return replace(scenario, config=cfg)
