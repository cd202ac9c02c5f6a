"""Time evolution of spinor wave packets under the Pauli equation.

H = p^2/2m + a(z,t) + b(z,t) sigma_y with a = (eA)^2/(2mc^2) and
b = (e hbar/2mc) B_y.  [sigma_y, H] = 0 for every field modelled here, so
every backend holds the state in the two sigma_y sectors
psi_+- = (psi_up -+ i psi_down)/sqrt(2), each a scalar Schroedinger problem
with potential V+- = a +- b; sigma_y conservation is structural.  The grid
backends hold one row per distinct sector potential: where b = 0 at every
time (no stage, or only monochromatic stages on the effective backend),
H = (p^2/2m + a) x 1, the spin is a spectator and psi = phi x chi, so they
step the one spin-free packet phi, keep the constant sector weights chi+-
and form the sectors chi+- phi only to observe.  All stages share one
photon energy, so V+- is a Fourier series with harmonics e^{ijkz},
|j| <= 4, whose k every backend takes from the first stage
(``_analysis_wavenumber``), and every backend reads its coefficients from
one field model.  The model takes an array of times and returns one row of
coefficients per time, a zero row where no field acts; each backend calls
it on all the times of a run of steps at once.  Observation rotates back to
the z basis once per snapshot.

* ``full-field``   - Strang splitting on the spatial grid with the exact
  time-dependent fields, whose coefficients come from each stage's spatial
  harmonics.  ``advance`` evaluates them once on its step midpoints and
  steps only where they act.  The potential factor is the phase
  exp(-i V+- dt) in each sector, built from one tangent tan(-V+- dt/2) per
  grid point without sin or cos, within 4e-16 of the exact phase.  Factors
  depend only on t, not on the state, so a helper thread sums V+- on the
  grid and builds the factors of the next few steps while the main thread
  applies the current ones and runs the kinetic FFTs; numpy releases the
  GIL in both, so the two halves of a step run on two cores, and the
  result is bit for bit that of one thread.
* ``effective``    - same splitting with each stage's cycle-averaged
  lattice (``effective_lattice``, j = 4), scaled by f(t)^``power``: f^2 for
  the monochromatic, f^3 for the bichromatic one (two resp. three field
  factors drive them).  Only the bichromatic lattice couples to the spin
  (b != 0): the monochromatic standing waves act on both spins alike.
* ``mode-lattice`` - amplitudes c_n on momenta n*hbar*k, |n| <= N, under the
  full-field coefficients; each sector is a (2N+1)-mode Hermitian problem
  with Toeplitz coupling.  Each step is the exact exponential of the
  4th-order Magnus expansion (Blanes, Casas, Oteo and Ros, Phys. Rep. 470,
  151 (2009)) in the Schroedinger picture, so it is unitary to rounding at
  any step size.  Steps lie on the carrier lattice t_i = i T/M,
  T = 2 pi/omega, M a multiple of 4.  On a pulse plateau
  H(t + T/4) = S H(t) S^dagger with S = diag((-i)^n) (``_FullFieldModel``),
  so a plateau's record (Shirley, Phys. Rev. 138, B979 (1965)) keeps one
  quarter period: its M/4 step propagators in the frame of the first
  quarter, the quarter operator F and the period propagator U_T = F^4.  It
  is built once on entry, after the previous one is freed, and stepped in
  the frame that moves with the lattice.  Only the sin^2 edges and the
  fractional steps at the ends of an interval are stepped afresh, one
  ``gl2_step`` call per run.  Fresh steps depend only on t, not on the
  state, so ``_fresh`` builds them, and a record, in batches: one
  field-model call on the array of Gauss-node times, one stack of Magnus
  exponents and one stacked exponential each.  The exponents are written
  diagonal by diagonal from the band structure (H = diag(E_n) + Toeplitz,
  so the commutator needs no matrix product), and each exponential takes
  the Taylor degree, 4, 6 or 9, that its own 1-norm needs.  A standing wave
  acts on both spins alike: alone it gives
  c-_j = conj(c+_j) e^{ij chi/2}, so H- = D Pi H+ Pi D* with Pi: n -> -n
  and D = diag(exp(i n chi/2)), and every propagator inherits this,
  U- = D Pi U+ Pi D*.  Where only a standing wave acts, fresh steps and
  the plateau record build sector + alone, and sector - is stepped by the
  same U+ in the mirrored frame Pi D* a- (reversed in n, times a phase),
  entered and left once around each run of such steps.

One runner drives every backend through the same two calls on the state its
propagator holds (the sigma_y sectors, or the spin-free packet):
``advance`` across each snapshot interval and ``observe`` at each snapshot
(the channel report from ``observables``, which carries the populations,
Bloch vectors, entropy and total <sigma_y> of the time series, and the
leakage shares the run warns about).  ``advance`` crosses each field-free
stretch in one free phase, exact over any time (Feit, Fleck and Steiger,
J. Comput. Phys. 47, 412 (1982)); a wholly free interval is one ``drift``.
The runner keeps no snapshot: it hands each one to the config's
``on_snapshot`` sink, if any, as ``on_snapshot(index, t, snapshot)``, and
holds only the last as the final state.  These propagators are the only steppers; the mode
lattice's one fresh-step path, ``gl2_step``, is also the reference that
``advance`` is tested against.

The spatially uniform term c_0 is dropped in the mode lattice: it
multiplies the identity and contributes only a global phase.
"""

from __future__ import annotations

import cmath
import contextlib
import ctypes
import functools
import math
import threading
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from . import fields as F
from .analytic import KIND_MONO
from .observables import AnalysisError, ChannelReport, channel_report, mode_channel_report
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
    # called as on_snapshot(index, t, snapshot) at each observation
    on_snapshot: Callable[[int, float, object], None] | None = None

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
        for name, value in (("duration", self.duration), ("dt", self.config.dt),
                            ("snapshot_every", self.config.snapshot_every)):
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
        latest = {}     # kind -> the latest-ending stage of that kind so far
        for b in self.stages:
            a = latest.get(b.kind)
            if a is not None and b.start < a.end - 1e-12:
                raise ScenarioError(
                    f"stages {a.label!r} and {b.label!r} of kind {a.kind} overlap in time"
                )
            if a is None or b.end > a.end:
                latest[b.kind] = b
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


# ---------------------------------------------------------------------------
# timestep policy

def default_timestep(backend: str, stages, snapshot_every: float) -> float:
    """The backend's dt when the scenario gives none; the field-resolving
    backends step the first stage's carrier, which every stage shares."""
    if backend == "full-field":
        return np.pi / (64.0 * stages[0].omega) if stages else snapshot_every
    if backend == "mode-lattice":
        return np.pi / (256.0 * stages[0].omega) if stages else snapshot_every
    om = max((s.effective_lattice().strength for s in stages), default=0.0)
    return 1e-3 / om if om > 0 else snapshot_every


def stage_pulse_areas(stages):
    """Per stage: (stage, hbar_rabi, effective_duration, pulse_area theta).

    The effective duration integrates the envelope to the stage's ``power``.
    """
    out = []
    for s in stages:
        om = s.effective_lattice().strength
        teff = s.envelope.effective_duration(s.power)
        out.append((s, om, teff, om * teff))
    return out


def timestep_ceiling(backend: str, stages) -> float:
    """Hard upper bound on dt: carrier period/40 for field-resolving backends,
    0.01/Omega for the effective backend."""
    if backend in ("full-field", "mode-lattice"):
        return np.pi / (40.0 * stages[0].omega) if stages else np.inf
    om = max((s.effective_lattice().strength for s in stages), default=0.0)
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
    time and a row is zero where no stage is on.

    Every stage kind repeats a quarter carrier period later a quarter
    wavelength further on: eA(z + lambda/4, t + T/4) = eA(z, t), with
    T = 2 pi/omega and lambda = 2 pi/k.  The bichromatic phases w t - k z and
    2 w t + 2 k z move by 0 and 2 pi; the standing wave's cos(2 w t) and
    cos(2 k z + chi/2) both change sign.  So where every envelope is
    constant, c_j(t + T/4) = (-i)^j c_j(t), and the mode-lattice Hamiltonian
    obeys H(t + T/4) = S H(t) S^dagger with S = diag((-i)^n), which the
    plateau record relies on (``ModeLatticeEngine._plateau_run``)."""

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
    """The stages' cycle-averaged lattices, j = 4 only, each scaled by its
    envelope to the stage's ``power``.  The standing wave's
    Omega cos(4kz + chi) gives a_4 = (Omega/2) e^{i chi} f^2, the bichromatic
    -Omega sin(4kz) sigma_y gives b_4 = (i Omega/2) f^3."""

    def __init__(self, stages):
        self._entries = []
        zero = np.zeros(5, dtype=complex)
        for stage in stages:
            pot = stage.effective_lattice()
            row = zero.copy()
            if pot.kind == KIND_MONO:
                row[4] = 0.5 * pot.strength * cmath.exp(1j * pot.chi)
                self._entries.append((stage, _sectors(row, zero)))
            else:
                row[4] = 0.5j * pot.strength
                self._entries.append((stage, _sectors(zero, row)))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        c = np.zeros(t.shape + (2, 5), dtype=complex)
        for stage, unit in self._entries:
            c += np.multiply.outer(F.stage_envelope(stage, t) ** stage.power, unit)
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


def _phase_from_half_angles(potential: _GridPotential, out: np.ndarray) -> None:
    """exp(2i phi) for the half angles phi in the leading len(out) rows of
    potential.angle, written into out, from one tangent per point: with
    tau = tan(phi), exp(2i phi) = (2/(1 + tau^2) - 1) + i tau 2/(1 + tau^2).
    numpy's float64 tan is vectorised on contiguous arrays where the CPU has
    AVX-512, while sin and cos run as scalar loops; elsewhere one libm call
    per point replaces two.  Within 4.0e-16 of np.exp(2i phi) for
    |2 phi| <= 50, |out| within 4.4e-16 of 1, and finite at 2 phi = +-pi,
    where tan(pi/2) is 1.6e16 in float64.  Overwrites those angles with
    their tangents; the weights 2/(1 + tau^2) pass through out's real part."""
    tau, weight = potential.angle[:len(out)], out.real
    np.tan(tau, out=tau)
    np.multiply(tau, tau, out=weight)
    np.add(weight, 1.0, out=weight)
    np.divide(2.0, weight, out=weight)
    np.multiply(tau, weight, out=out.imag)
    np.subtract(weight, 1.0, out=weight)


def _apply_potential(psi: np.ndarray, factor: np.ndarray) -> None:
    """In place: psi *= factor, the phase exp(-i V h) of one step on each of
    the r rows of psi (see ``_GridPotential``)."""
    psi *= factor


# The two halves of a grid potential's factor double buffer hold about this
# many bytes, so a chunk of steps holds a fixed amount of work whatever the
# grid: 4 steps at (2, 8192), 2 at (2, 16384) and 8 at (1, 8192).
_FACTOR_BYTES = 2 << 20


class _GridPotential:
    """V+- = a +- b on the grid from the coefficients c[s, j] of one time,
    one row per row of c: V = R(c) @ P with R(c) = [Re c_0, Re c_j, Im c_j]
    and the profiles P = [1, 2 cos(jkz), -2 sin(jkz)], j = 1..4, built
    once.  It keeps the buffers of a chunk of K steps (K from
    ``_FACTOR_BYTES``), r rows per step for the r rows of the state, stacked
    step by step into K r rows: the half angles -h V/2 (then their
    tangents), and the two halves ``factors[0]`` and ``factors[1]`` of a
    double buffer of the factors exp(-i h V), which ``_factors`` fills."""

    def __init__(self, model, wavenumber: float, z: np.ndarray, rows: int = 2):
        self.model = model
        jkz = (np.arange(1, 5) * wavenumber)[:, None] * z
        self._profiles = np.vstack([np.ones_like(z), 2.0 * np.cos(jkz), -2.0 * np.sin(jkz)])
        steps = max(1, _FACTOR_BYTES // (2 * rows * z.size * np.dtype(complex).itemsize))
        self.angle = np.empty((steps * rows, z.size))
        self.factors = np.empty((2, steps * rows, z.size), dtype=complex)

    def __call__(self, c: np.ndarray, scale: float = 1.0, out: np.ndarray | None = None):
        """scale * V for the coefficients c[..., s, j] of one time or of a
        stack of times, as (scale R(c)) @ P so that the scale costs no pass
        over the grid; written into out if given."""
        rows = np.concatenate([c.real, c.imag[..., 1:]], axis=-1) * scale
        return np.matmul(rows, self._profiles, out=out)


def _factors(potential: _GridPotential, coefficients: np.ndarray, scale: float):
    """Yields the factor exp(-i h V) of each build (coefficients (builds, r, 5),
    scale -h/2), in order, as a view into the potential's double buffer.
    Builds go a chunk of K at a time, chunk q into half q mod 2: one matmul,
    one tan and the arithmetic of ``_phase_from_half_angles``, all of which
    release the GIL.  Chunk 0 is built on the calling thread, the rest by one
    helper thread, which builds chunk q + 1 while the caller applies chunk q
    with the kinetic FFTs; a half is rebuilt only after the caller has moved
    past the chunk it held.  The helper's exception, if any, is re-raised
    here; closing the generator stops and joins the helper."""
    rows = coefficients.shape[1]
    size = len(potential.angle) // rows         # K
    chunks = [coefficients[lo:lo + size] for lo in range(0, len(coefficients), size)]
    built = threading.Semaphore(0)              # chunks built and not yet taken
    free = threading.Semaphore(1)               # halves the helper may write
    stop, errors = False, []

    def build(q):
        c = chunks[q]
        flat = len(c) * rows
        potential(c, scale, out=potential.angle[:flat].reshape(len(c), rows, -1))
        _phase_from_half_angles(potential, potential.factors[q % 2][:flat])

    def build_rest():
        try:
            for q in range(1, len(chunks)):
                free.acquire()
                if stop:
                    return
                build(q)
                built.release()
        except BaseException as exc:     # re-raised on the calling thread
            errors.append(exc)
            built.release()

    build(0)
    helper = None
    if len(chunks) > 1:
        helper = threading.Thread(target=build_rest, name="spinsplit-factors", daemon=True)
        helper.start()
    try:
        for q, c in enumerate(chunks):
            if q:
                free.release()
                built.acquire()
                if errors:
                    raise errors[0]
            yield from potential.factors[q % 2][:len(c) * rows].reshape(len(c), rows, -1)
    finally:
        if helper is not None:
            stop = True
            free.release()
            helper.join()


class _GridPropagator:
    """Strang splitting on the spatial grid: half kinetic, full potential at
    the step midpoint, half kinetic, with the kinetic steps between two
    potentials merged.
    The state has one row per distinct sector potential, so the potential
    factor is one phase per row and every step is unitary to rounding:
    the pair of sigma_y sectors (2, N), or, given the constant sector
    weights ``spin`` of a run in which b = 0 at every time, the spin-free
    packet phi (1, N) under V = a.

    ``advance`` and ``drift`` work in place: they overwrite the complex
    (r, N) array they are given and return it."""

    # what each leakage share of ``observe`` measures, and the remedy
    monitors = ("density share {:.2e} in the outer 1/32 of the box at t={:.6g} fs; "
                "increase grid_length",
                "momentum weight {:.2e} above 0.9 p_Nyquist at t={:.6g} fs; "
                "increase grid_points")

    def __init__(self, grid: SpatialGrid, potential: _GridPotential, hbar_k: float,
                 spin: np.ndarray | None = None):
        self.grid = grid
        self.potential = potential
        self.hbar_k = hbar_k
        self.spin = spin
        self._kinetic = (None, {})  # (h, {gap: phase of gap * h}) for the gaps 1/2 and 1
        self._edge = np.flatnonzero(np.abs(grid.z) >= (0.5 - 1.0 / 32.0) * grid.length)
        self._nyquist = np.flatnonzero(np.abs(grid.p) > 0.9 * np.pi / grid.spacing)
        _keep_scratch_on_heap()

    def drift(self, psi: np.ndarray, tau: float) -> np.ndarray:
        """Free evolution over tau: one kinetic step."""
        return _apply_kinetic(psi, _kinetic_phase(self.grid, tau))

    def advance(self, psi: np.ndarray, ta: float, tb: float, dt: float) -> np.ndarray:
        """Sectors at ta -> at tb, in equal steps no longer than dt, with the
        field model called once on the array of the step midpoints.  Only the
        acting steps are stepped: the free time before, between and after
        them is one kinetic phase per gap (gap * h), and an interval where no
        step acts is one ``drift``.  A factor is built for each acting step
        whose coefficients differ bit for bit from the previous acting
        step's, and reused until then (a plateau of the effective model);
        ``_factors`` builds them, those after the first chunk on a helper
        thread, and every factor is applied on this one."""
        n = max(1, math.ceil((tb - ta) / dt - 1e-12))
        h = (tb - ta) / n
        coefficients = self.potential.model(ta + (np.arange(n) + 0.5) * h)
        acting = np.flatnonzero(coefficients.any(axis=(-2, -1)))
        if not acting.size:
            return self.drift(psi, tb - ta)
        if self._kinetic[0] != h:
            self._kinetic = (h, {g: _kinetic_phase(self.grid, g * h) for g in (0.5, 1.0)})
        phases = self._kinetic[1]

        def kinetic(gap):
            _apply_kinetic(psi, phases[gap] if gap in phases
                           else _kinetic_phase(self.grid, gap * h))

        gaps = np.diff(acting, prepend=-0.5, append=n - 0.5).tolist()
        rows = coefficients[acting, :len(psi)]
        bits = rows.view(np.uint64)
        fresh = np.ones(len(acting), dtype=bool)
        fresh[1:] = (bits[1:] != bits[:-1]).any(axis=(1, 2))
        with contextlib.closing(_factors(self.potential, rows[fresh], -0.5 * h)) as factors:
            for gap, new in zip(gaps, fresh.tolist()):
                kinetic(gap)
                factor = next(factors) if new else factor
                _apply_potential(psi, factor)
        kinetic(gaps[-1])
        return psi

    def observe(self, psi: np.ndarray):
        """(z-basis wavefunction, channel report, the ``monitors`` shares of
        the norm: density at the box edges, momentum weight near Nyquist); a
        spin-free packet phi is first formed into the sectors spin * phi.
        The channels and the Nyquist weight share one momentum FFT."""
        if self.spin is not None:
            psi = self.spin[:, None] * psi
        wf = SpinorWavefunction(self.grid, _z_spinor(psi))
        phi = wf.momentum_amplitudes()
        report = channel_report(wf, self.hbar_k, phi)
        edge = np.sum(np.abs(wf.psi[:, self._edge]) ** 2) * self.grid.spacing
        high = np.sum(np.abs(phi[:, self._nyquist]) ** 2) * self.grid.momentum_spacing
        return wf, report, (edge / report.total_norm, high / report.total_norm)


# ---------------------------------------------------------------------------
# mode lattice

_GAUSS_C = math.sqrt(3.0) / 6.0          # Gauss nodes at 1/2 -+ sqrt(3)/6 of a step
_MAGNUS_K = math.sqrt(3.0) / 12.0        # weight of the commutator term
# Taylor degrees d of the exponential, each with the largest 1-norm theta_d
# = (2^-53 (d+1)!)^(1/(d+1)) at which its remainder ||X||^(d+1)/(d+1)! stays
# below 2^-53 (Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 488 (2011)):
# 1.68e-3, 1.78e-2 and 0.115.  Above theta_9 the exponent is scaled down by
# powers of two first.
_TAYLOR_DEGREES = (4, 6, 9)
_TAYLOR_BOUNDS = tuple((2.0**-53 * math.factorial(d + 1)) ** (1.0 / (d + 1))
                       for d in _TAYLOR_DEGREES)
_TAYLOR_THETA = _TAYLOR_BOUNDS[-1]
_TAYLOR_C = [1.0 / math.factorial(n) for n in range(10)]
# the diagonal of S^k = diag((-i)^(k n)) (``_FullFieldModel``) by k n mod 4:
# exact, so a change of quarter frame adds no rounding
_QUARTER_TURNS = np.array([1.0, -1j, -1.0, 1j])
# G[r, g] = v_{r+g+1} from v_1..v_4 and four zeros
_HANKEL = np.add.outer(np.arange(4), np.arange(4))
# Fresh Magnus steps are built in batches of about this many elements of the
# (2, m, m) sector propagators, m = 2N + 1.  Small m is bound by numpy's
# per-call cost, which a batch shares; large m is bound by the matrix
# products, and larger batches leave the cache: 34 steps at N = 8, 4 at
# N = 24.
_BATCH_ELEMENTS = 20_000


def _expm_skew(x: np.ndarray) -> np.ndarray:
    """exp of a stack of small anti-Hermitian matrices (..., m, m): a Taylor
    series of degree 4, 6 or 9 in Paterson-Stockmeyer form (2, 3 or 4 matrix
    products), with scaling and squaring (Higham, SIAM J. Matrix Anal. Appl.
    26, 1179 (2005)).  Each matrix takes the lowest degree and the fewest
    squarings that its own 1-norm allows, so its exponential does not depend
    on the rest of the stack; each squaring doubles the rounding error."""
    norm = np.abs(x).sum(axis=-2).max(axis=-1)
    # the lowest degree whose bound holds; len(_TAYLOR_BOUNDS) where none does
    k = np.searchsorted(_TAYLOR_BOUNDS, norm)
    most = 0
    if k.max(initial=0) == len(_TAYLOR_BOUNDS):
        squarings = np.ceil(np.log2(np.maximum(norm / _TAYLOR_THETA, 1.0))).astype(int)
        most = int(squarings.max())
        x = x * np.ldexp(1.0, -squarings)[..., None, None]
        k = np.minimum(k, len(_TAYLOR_BOUNDS) - 1)
    lo, hi = int(k.min(initial=len(_TAYLOR_BOUNDS))), int(k.max(initial=0))
    if lo == hi:
        u = _taylor(x, _TAYLOR_DEGREES[lo])
    else:
        u = np.empty_like(x)
        for d in range(lo, hi + 1):
            sel = k == d
            if sel.any():
                u[sel] = _taylor(x[sel], _TAYLOR_DEGREES[d])
    for n in range(most):
        more = squarings > n
        if more.all():
            u = u @ u
        else:
            u[more] = u[more] @ u[more]
    return u


def _taylor(x: np.ndarray, degree: int) -> np.ndarray:
    """sum_{n <= degree} x^n/n! for degree 4, 6 or 9, summed in place so that
    few stack-sized temporaries live at once."""
    c = _TAYLOR_C
    x2 = x @ x
    if degree == 4:
        # (1 + x + c2 x2) + x2 (c3 x + c4 x2)
        u = x2 * c[4]
        u += x * c[3]
        u = x2 @ u
    else:
        x3 = x2 @ x
        # (1 + x + c2 x2) + x3 [(c3 + c4 x + c5 x2) + x3 (c6 + ... + c9 x3)]
        # at degree 9, + x3 (c3 + ... + c6 x3) at degree 6
        if degree == 9:
            inner = x3 * c[9]
            inner += x2 * c[8]
            inner += x * c[7]
            _add_to_diagonal(inner, c[6])
            inner = x3 @ inner
        else:
            inner = x3 * c[6]
        inner += x2 * c[5]
        inner += x * c[4]
        _add_to_diagonal(inner, c[3])
        u = x3 @ inner
        del inner
    u += x2 * c[2]
    u += x
    _add_to_diagonal(u, 1.0)
    return u


def _add_to_diagonal(x: np.ndarray, value) -> None:
    """x[..., n, n] += value in place."""
    np.einsum("...ii->...i", x)[...] += value


def _flip(amps: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """(a+, a-) -> (a+, phase * a- reversed in n): into a standing wave's
    mirrored frame, and, since the map is its own inverse, back out."""
    out = amps.copy()
    out[1] = phase * amps[1, ::-1]
    return out


class ModeLatticeEngine:
    """Coupled amplitudes c_n (Pauli spinor each) on momenta n*hbar*k under
    the Fourier components of the exact (eA)^2 and B_y, in closed form from
    ``fields.spatial_harmonics``.  The state is what the grid propagator
    holds: the sigma_y sectors (y+, y-), shape (2, 2N+1) with index n+N, in
    the Schroedinger picture, where the plateau Hamiltonian repeats every
    quarter carrier period T/4 up to the shift S = diag((-i)^n)
    (``_FullFieldModel``).
    """

    def __init__(self, wavenumber: float, halfwidth: int, stages=()):
        if halfwidth < 4:
            raise ScenarioError("mode-lattice half-width N must be >= 4")
        self.k = wavenumber
        self.N = halfwidth
        self.stages = list(stages)
        m = 2 * halfwidth + 1
        self._n = np.arange(m) - halfwidth
        self.energies = (self._n * wavenumber) ** 2 / (2.0 * MC2_EV)
        # carrier period of the plateau Hamiltonian; None without a stage
        self.period = 2.0 * np.pi / self.stages[0].omega if self.stages else None
        # gaps[d - 1, r] = E_r - E_{r-d} along the d-th subdiagonal, d = 1..4
        self._gaps = np.zeros((4, m))
        for d in range(1, 5):
            self._gaps[d - 1, d:] = self.energies[d:] - self.energies[:-d]
        self._field = _FullFieldModel(self.stages, wavenumber)
        self.monitors = (f"population {{:.2e}} at |n| = {halfwidth} at t={{:.6g}} fs; "
                         "increase mode_halfwidth",)
        # ((stages on their plateau, M), steps by phase mod M/4, U_T, F)
        self._plateau = (None, None, None, None)
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

    def _magnus(self, t: np.ndarray, dt: float, sectors: int = 2):
        """Sector propagators of the steps [t, t + dt] for an array of n step
        starts t (Schroedinger picture), shape (n, 2, m, m), or (n, 1, m, m)
        for sector + alone with ``sectors=1``; each from one
        4th-order Magnus step: exp(Omega) with
        Omega = -i dt/2 (H1 + H2) + sqrt(3)/12 dt^2 [H1, H2] and H at the two
        Gauss nodes; and, per step, whether a field acts at either node.

        Omega is written from the band structure, with no (m, m) product.
        H = K + V with K = diag(E_n) and V Toeplitz, V[r, c] = v_{r-c},
        v_d = c_d and v_{-d} = conj(c_d) for d = 1..4 (c_0 multiplies the
        identity and only adds a global phase).  Infinite Toeplitz matrices
        commute, so [H1, H2] = [K, V2 - V1] + [V1, V2], with
        [K, W][r, c] = (E_r - E_c) W[r, c], and [V1, V2] is what the cut
        |n| <= N removes from the two products: the terms through the ghost
        modes beyond each end, in the 4x4 corner blocks.  So Omega is
        -i dt E_n on the diagonal and p_d + (E_r - E_c) q_d on the d-th
        subdiagonal, p = -i dt/2 (v1 + v2) and q = sqrt(3)/12 dt^2 (v2 - v1),
        minus its conjugate mirrored above, plus the corners."""
        n, m = len(t), 2 * self.N + 1
        nodes = np.stack([t + (0.5 - _GAUSS_C) * dt, t + (0.5 + _GAUSS_C) * dt], axis=-1)
        # c[step, node, sector, j]
        c = self.harmonics(nodes)
        acts = c.any(axis=(-3, -2, -1))
        v = c[..., :sectors, 1:]
        p = (v[:, 0] + v[:, 1]) * (-0.5j * dt)
        q = (v[:, 1] - v[:, 0]) * (_MAGNUS_K * dt * dt)
        omega = np.zeros((n, sectors, m, m), dtype=complex)
        flat = omega.reshape(n, sectors, m * m)
        flat[..., ::m + 1] = (-1j * dt) * self.energies
        # sub[..., d - 1, r] = Omega[r, r - d] and Omega[r - d, r] = -conj(sub)
        sub = q[..., None] * self._gaps
        sub += p[..., None]
        mirror = -sub.conj()
        for d in range(1, 5):
            flat[..., d * m::m + 1] = sub[..., d - 1, d:]
            flat[..., d:(m - d) * (m + 1):m + 1] = mirror[..., d - 1, d:]
        # top-left corner of [V1, V2]: G2 G1* - G1 G2* = P - P^dagger with
        # P = G2 G1* and the symmetric Hankel G[r, g] = v_{r+g+1} of each
        # node; the bottom-right corner is its conjugate, reversed in both
        # indices
        g = np.concatenate([v, np.zeros((n, 2, sectors, 4), dtype=complex)], axis=-1)[..., _HANKEL]
        corner = np.einsum("...rg,...gc->...rc", g[:, 1], g[:, 0].conj())
        corner -= corner.conj().swapaxes(-1, -2)
        corner *= _MAGNUS_K * dt * dt
        omega[..., :4, :4] += corner
        omega[..., -4:, -4:] += corner[..., ::-1, ::-1].conj()
        return _expm_skew(omega), acts

    def _turn(self, k) -> np.ndarray:
        """The diagonal of S^k = diag((-i)^(k n)); for an array of k, one
        row per k."""
        return _QUARTER_TURNS[(np.multiply.outer(k, self._n)) % 4]

    def _mirror(self, stages):
        """The phase exp(i n chi/2) of the mirrored frame when every stage
        given is a standing wave of one chi (or none is given), else None.
        Under such a field U- = D Pi U+ Pi D* (module docstring), so in the
        frame that ``_flip`` by this phase enters, sector - evolves under U+
        as well."""
        if any(s.kind != KIND_MONO for s in stages) or len({s.chi for s in stages}) > 1:
            return None
        return np.exp(0.5j * (stages[0].chi if stages else 0.0) * self._n)

    def _fresh(self, t: np.ndarray, dt: float, sectors: int):
        """(offset into t, propagators, acts) of the fresh steps [t, t + dt]
        (``_magnus``) in batches of about ``_BATCH_ELEMENTS`` elements: twice
        as many steps where sector + alone is built, for stacks of one size."""
        batch = max(1, _BATCH_ELEMENTS // (2 * self._n.size ** 2)) * (2 // sectors)
        for lo in range(0, len(t), batch):
            yield lo, *self._magnus(t[lo:lo + batch], dt, sectors)

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

    def gl2_step(self, amps: np.ndarray, t, dt: float) -> np.ndarray:
        """Sector amplitudes at t -> at t + dt by one exact-exponential
        4th-order Magnus step (unitary to rounding), computed afresh: no
        cache, no lattice.  The free phase when no field acts at either
        Gauss node.  For an array of step starts t, one such step from each
        in turn, with the propagators built in batches (``_fresh``).
        ``advance`` takes every edge run and fractional step here, one call
        each.  Where only a standing wave acts across the steps, sector +
        alone is built and applied to both sectors in its mirrored frame
        (``_mirror``), entered once per call."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        t0, t1 = t.min() + min(dt, 0.0), t.max() + max(dt, 0.0)
        phase = self._mirror([s for s in self.stages if s.start < t1 and s.end > t0])
        if phase is not None:
            amps = _flip(amps, phase)
        for _, us, acts in self._fresh(t, dt, 2 if phase is None else 1):
            for u, act in zip(us, acts):
                amps = np.matvec(u, amps) if act else self.drift(amps, dt)
        return amps if phase is None else _flip(amps, phase)

    def advance(self, amps: np.ndarray, ta: float, tb: float, dt: float) -> np.ndarray:
        """Sector amplitudes at ta -> at tb: one ``drift`` where no stage
        overlaps [ta, tb].

        Otherwise steps lie on the carrier lattice t_i = i T/M, with M the
        smallest multiple of 4 that makes them no longer than dt; fresh
        fractional steps join ta and tb to it.  Between two stage boundaries
        every lattice step has one class: a free run is one ``drift``, an
        edge run is one ``gl2_step`` call, and a plateau run is one
        ``_plateau_run``, from its quarter-period record.  Where a plateau's
        record would be built with less than a quarter period of it left,
        its run is an edge run, so that every step of a record lies on its
        plateau.
        """
        if self._step_class(ta, tb) == ():
            return self.drift(amps, tb - ta)
        steps = 4 * max(1, math.ceil(self.period / (4.0 * dt) - 1e-9))
        h = self.period / steps
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
            if (key and self._plateau[0] != (key, steps)
                    and self._step_class(i * h, (i + steps // 4) * h) != key):
                key = None
            if key == ():
                amps = self.drift(amps, (end - i) * h)
            elif key is None:
                amps = self.gl2_step(amps, np.arange(i, end) * h, h)
            else:
                amps = self._plateau_run(amps, key, i, end, steps, h)
            i = end
        if tb > j * h:
            amps = self.gl2_step(amps, j * h, tb - j * h)
        return amps

    def _plateau_run(self, amps: np.ndarray, key: tuple, i: int, end: int, steps: int,
                     h: float) -> np.ndarray:
        """Sector amplitudes across the lattice steps i..end of the plateau
        of the stages ``key``.  On entry the previous record is freed and this
        plateau's ((key, M), steps, U_T, F) built from the q = M/4 steps from
        step i on.  H(t + T/4) = S H(t) S^dagger on a plateau
        (``_FullFieldModel``), so the step U of lattice phase p, in quarter
        k = (p mod M) // q, is kept at p mod q as S^-k U S^k; F = S^-1 W,
        with W the ordered product of the q steps, and U_T = F^4.  The run
        holds S^-k a in quarter k: it applies the cached step of each phase
        and S^-1 at each quarter boundary, and from a quarter boundary a
        whole quarter as F and a whole period as U_T.  A standing wave's
        record holds sector + alone, and its run is stepped in the mirrored
        frame."""
        phase = self._mirror([self.stages[idx] for idx in key])
        q = steps // 4
        if self._plateau[0] != (key, steps):
            self._plateau = (None, None, None, None)
            sectors = 2 if phase is None else 1
            lattice = np.arange(i, i + q)
            cached = np.empty((q, sectors) + self._n.shape * 2, dtype=complex)
            for lo, us, _ in self._fresh(lattice * h, h, sectors):
                p = lattice[lo:lo + len(us)]
                turns = self._turn(p % steps // q)[:, None]
                cached[p % q] = turns.conj()[..., None] * us * turns[..., None, :]
            quarter = self._turn(-1)[:, None] * functools.reduce(
                lambda u, step: step @ u, cached)
            half = quarter @ quarter
            self._plateau = ((key, steps), cached, half @ half, quarter)
        _, cached, period, quarter = self._plateau
        if phase is not None:
            amps = _flip(amps, phase)
        amps = amps * self._turn(-(i % steps // q))
        while i < end:
            if i % q == 0 and end - i >= q:
                whole = end - i >= steps
                amps = np.matvec(period if whole else quarter, amps)
                i += steps if whole else q
            else:
                amps = np.matvec(cached[i % q], amps)
                i += 1
                if i % q == 0:
                    amps = amps * self._turn(-1)
        amps = amps * self._turn(end % steps // q)
        return amps if phase is None else _flip(amps, phase)

    def drift(self, amps: np.ndarray, tau: float) -> np.ndarray:
        """Free evolution over tau: the phase exp(-i tau E_n) on each mode."""
        return amps * np.exp(-1j * tau * self.energies)

    def observe(self, amps: np.ndarray):
        """(z-basis amplitudes (2N+1, 2), channel report of the modes n = +-2,
        the ``monitors`` share: population at |n| = N)."""
        c = _z_spinor(amps).T
        return c, mode_channel_report(c), (float(np.sum(np.abs(c[[0, -1]]) ** 2)),)


# ---------------------------------------------------------------------------
# scenario runner

def _analysis_wavenumber(scn: Scenario) -> float:
    """Every backend's k: the first stage's, else half the packet momentum."""
    if scn.stages:
        return scn.stages[0].wavenumber
    if scn.packet.momentum != 0.0:
        return abs(scn.packet.momentum) / 2.0
    return 1.0


# A run warns once per leakage monitor whose share of the norm exceeds this
# at a snapshot: a grid's box edge or Nyquist band, the mode lattice's |n| = N.
_LEAKAGE_LIMIT = 1e-6


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


def _propagator(scn: Scenario):
    """The backend's propagator and its initial state.  On a grid backend
    the state is the two sigma_y sectors (2, N), or the spin-free packet
    (1, N) with the sector weights kept by the propagator when no field
    couples to the spin: no stage, or only monochromatic stages on the
    effective backend."""
    cfg = scn.config
    packet = scn.packet
    k = _analysis_wavenumber(scn)
    if cfg.backend == "mode-lattice":
        eng = ModeLatticeEngine(k, cfg.mode_halfwidth, stages=scn.stages)
        return eng, eng.initial_state(int(round(packet.momentum / k)), packet.spin)
    grid = SpatialGrid(cfg.grid_length, cfg.grid_points,
                       field_wavenumber=k if scn.stages else None)
    if cfg.backend == "full-field":
        model = _FullFieldModel(scn.stages, k)
    else:
        model = _EffectiveModel(scn.stages)
    spin_blind = not scn.stages or (cfg.backend == "effective"
                                    and all(s.kind == KIND_MONO for s in scn.stages))
    potential = _GridPotential(model, k, grid.z, 1 if spin_blind else 2)
    if spin_blind:
        phi = gaussian_packet(grid, packet.center, packet.width, packet.momentum, "up")
        return _GridPropagator(grid, potential, k, _y_sectors(packet.spin)), phi.psi[:1]
    psi = gaussian_packet(grid, packet.center, packet.width, packet.momentum, packet.spin)
    return _GridPropagator(grid, potential, k), _y_sectors(psi.psi)


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """Propagate a scenario with its configured backend and return the
    observable time series and the final state; each snapshot goes to the
    config's ``on_snapshot`` sink as it is observed."""
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
    # one row per observation, in the order of the TimeSeries fields
    rows = np.empty((times.size, 11))
    norm0 = None
    warned = set()
    for i, t in enumerate(times):
        if i:
            state = prop.advance(state, times[i - 1], t, dt)
        try:
            snap, report, leakage = prop.observe(state)
        except AnalysisError as exc:
            raise PropagationError(f"zero or non-finite norm at t={t:.6g}") from exc
        norm0 = report.total_norm if norm0 is None else norm0
        norm = report.total_norm
        rows[i] = (t, *report.row(), norm - norm0, report.sy_total, norm)
        for monitor, share in zip(prop.monitors, leakage):
            if share > _LEAKAGE_LIMIT and monitor not in warned:
                warned.add(monitor)
                _warn(run_warnings, monitor.format(share, natural_to_fs(t)))
        if cfg.on_snapshot is not None:
            cfg.on_snapshot(i, t, snap)

    return ScenarioResult(
        scenario=scn, backend=cfg.backend, timeseries=TimeSeries(*rows.T.copy()),
        final_report=report, final_psi=None if modes else snap, warnings=run_warnings,
    )


def with_backend(scenario: Scenario, backend: str, **config_overrides) -> Scenario:
    """Copy of a scenario with a different backend (and optional config tweaks)."""
    cfg = replace(scenario.config, backend=backend, **config_overrides)
    return replace(scenario, config=cfg)
