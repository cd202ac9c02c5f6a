import contextlib
import functools
import gc
import math
import sys
import threading
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from taylor_expm import taylor_expm

from spinsplit import propagation
from spinsplit.analytic import EffectivePotential, effective_potential_value
from spinsplit.fields import (
    BichromaticWave,
    Envelope,
    MonoStandingWave,
    magnetic_field,
    stage_envelope,
    vector_potential,
)
from spinsplit.observables import REPORT_COLUMNS
from spinsplit.propagation import (
    _TAYLOR_BOUNDS,
    _TAYLOR_DEGREES,
    _TAYLOR_THETA,
    BACKENDS,
    ModeLatticeEngine,
    _EffectiveModel,
    _expm_skew,
    _FullFieldModel,
    _GridPotential,
    _GridPropagator,
    _phase_from_half_angles,
    _propagator,
    _y_sectors,
    _z_spinor,
    PacketSpec,
    PropagationConfig,
    Scenario,
    ScenarioError,
    default_timestep,
    run_scenario,
    stage_pulse_areas,
    timestep_ceiling,
    with_backend,
)
from spinsplit.states import (
    SPIN_Y_MINUS,
    SPIN_Y_PLUS,
    SpatialGrid,
    gaussian_packet,
)
from spinsplit.units import MC2_EV, fs_to_natural, natural_to_fs, um_to_natural

K = 200.0
RABI_MONO_200 = 200.0**2 / (8.0 * MC2_EV)
RABI_BI = 2.35e4**2 * 2.35e4 * 200.0 / (2.0 * MC2_EV**3)


def mono_stage(area, ea0=200.0, chi=0.0, rise_fs=0.5, start_fs=1.0):
    rise = fs_to_natural(rise_fs)
    omega = RABI_MONO_200 * (ea0 / 200.0) ** 2
    plateau = area / omega - 2 * (3 / 8) * rise
    return MonoStandingWave(ea0=ea0, photon_energy=K, chi=chi,
                            envelope=Envelope(rise, plateau, rise),
                            start=fs_to_natural(start_fs))


def bi_stage(area, rise_fs=0.5, start_fs=1.0):
    rise = fs_to_natural(rise_fs)
    plateau = area / RABI_BI - 2 * (5 / 16) * rise
    return BichromaticWave(ea1=2.35e4, ea2=2.35e4, photon_energy=K,
                           envelope=Envelope(rise, plateau, rise),
                           start=fs_to_natural(start_fs))


def effective_scenario(stages, *, width_um=0.08, spin="up", momentum=2 * K,
                       points=4096, length_um=1.2, tail_fs=1.0, **cfg):
    end = max((s.end for s in stages), default=0.0) + fs_to_natural(tail_fs)
    config = PropagationConfig(backend="effective", grid_points=points,
                               grid_length=um_to_natural(length_um), **cfg)
    packet = PacketSpec(center=0.0, width=um_to_natural(width_um),
                        momentum=momentum, spin=np.asarray(
                            {"up": [1, 0], "y+": SPIN_Y_PLUS}.get(spin, spin), dtype=complex))
    return Scenario(packet=packet, stages=stages, duration=end, config=config)


class TestFreeSpreading:
    def test_gaussian_width_growth(self):
        # sigma(t)^2 = sigma0^2 (1 + (t / 2 m sigma0^2)^2) over 500 fs
        grid_len = um_to_natural(0.3)
        sigma0 = um_to_natural(0.01)
        snapshots = []
        config = PropagationConfig(backend="full-field", grid_points=1024,
                                   grid_length=grid_len,
                                   on_snapshot=lambda i, t, psi: snapshots.append((t, psi)),
                                   snapshot_every=fs_to_natural(100.0))
        scn = Scenario(packet=PacketSpec(0.0, sigma0, 0.0), stages=[],
                       duration=fs_to_natural(500.0), config=config)
        run_scenario(scn)
        for t, psi in snapshots:
            expected = sigma0**2 * (1.0 + (t / (2.0 * MC2_EV * sigma0**2)) ** 2)
            assert psi.position_variance() == pytest.approx(expected, rel=1e-6)

    def test_drifting_packet_moves_ballistically(self):
        grid_len = um_to_natural(1.0)
        sigma0 = um_to_natural(0.02)
        p0 = 400.0
        config = PropagationConfig(backend="effective", grid_points=2048,
                                   grid_length=grid_len)
        scn = Scenario(packet=PacketSpec(0.0, sigma0, p0), stages=[],
                       duration=fs_to_natural(300.0), config=config)
        result = run_scenario(scn)
        expected = p0 / MC2_EV * scn.duration
        assert result.final_psi.position_expectation() == pytest.approx(
            expected, abs=2 * result.final_psi.grid.spacing)


class TestEffectiveBackend:
    def test_mono_quarter_rabi_splits_evenly(self):
        scn = effective_scenario([mono_stage(np.pi / 2)])
        rep = run_scenario(scn).final_report
        assert rep.pop_plus == pytest.approx(0.5, abs=0.01)
        assert rep.pop_minus == pytest.approx(0.5, abs=0.01)
        # spin untouched by the scalar lattice
        assert rep.bloch_minus[2] == pytest.approx(1.0, abs=1e-8)

    def test_mono_pi_transfers_fully(self):
        # width 0.2 um keeps the packet momentum spread well inside the Bragg
        # resonance (residual ~ (4 k sigma_p / m Omega)^2 ~ 0.6%)
        scn = effective_scenario([mono_stage(np.pi)], width_um=0.2, length_um=3.0,
                                 points=8192)
        rep = run_scenario(scn).final_report
        assert rep.pop_minus > 0.99

    def test_bichromatic_pi_fully_reflects_and_flips_spin(self):
        scn = effective_scenario([bi_stage(np.pi)], width_um=0.2, length_um=3.0,
                                 points=8192)
        rep = run_scenario(scn).final_report
        assert rep.pop_minus > 0.99
        assert rep.bloch_minus[2] == pytest.approx(-1.0, abs=1e-6)  # z-flip

    def test_bichromatic_preserves_sigma_y_eigenstate(self):
        scn = effective_scenario([bi_stage(np.pi)], spin="y+", width_um=0.2,
                                 length_um=3.0, points=8192)
        result = run_scenario(scn)
        rep = result.final_report
        assert rep.pop_minus > 0.99
        assert rep.sy_minus == pytest.approx(1.0, abs=1e-6)
        ts = result.timeseries
        assert np.max(np.abs(ts.sy_total - ts.sy_total[0])) < 1e-8


class TestTimeReversal:
    def test_effective_backward_recovers_initial(self):
        # plateau-only stages keep both lattices fully on; the runner's grid
        # propagator steps forward, then back with a negative dt
        dt = 0.001 / RABI_MONO_200
        t_end = 400 * dt
        env = Envelope(0.0, t_end, 0.0)
        stages = [MonoStandingWave(ea0=200.0, photon_energy=K, chi=0.4, envelope=env),
                  BichromaticWave(ea1=2.35e4, ea2=2.35e4, photon_energy=K, envelope=env)]
        prop, psi0 = _propagator(effective_scenario(stages, spin="y+"))
        assert isinstance(prop, _GridPropagator)
        assert isinstance(prop.potential.model, _EffectiveModel)
        spacing = prop.grid.spacing
        psi = prop.advance(psi0.copy(), 0.0, t_end, dt)
        assert np.abs(np.vdot(psi0, psi) * spacing) ** 2 < 0.99  # the lattices acted
        psi = prop.advance(psi, t_end, 0.0, -dt)
        assert np.abs(np.vdot(psi0, psi) * spacing) ** 2 > 1.0 - 1e-6


class TestModeLattice:
    def test_zero_field_amplitudes_constant(self):
        # without a field each mode only takes its free phase exp(-i dt E_n)
        engine = ModeLatticeEngine(K, 4)
        c0 = engine.initial_state(+2, SPIN_Y_PLUS)
        c1 = engine.gl2_step(c0, 0.0, 0.05)
        np.testing.assert_array_equal(c1, c0 * np.exp(-1j * 0.05 * engine.energies))

    def test_drift_matches_field_free_advance(self):
        # drift is the free phase exp(-i tau n^2 k^2/2m), and advance gives the
        # same over a field-free interval before a stage; n = +2 and n = +4
        # pick up phases that differ by more than 0.1 over 4.7 T, so an
        # identity drift fails
        period = 2 * np.pi / 1200.0
        stage = MonoStandingWave(ea0=4952.57508777, photon_energy=1200.0, chi=0.3,
                                 envelope=Envelope(period, 2 * period, period),
                                 start=5.3 * period)
        engine = ModeLatticeEngine(1200.0, 8, stages=[stage])
        c0 = engine.initial_state(+2, "x+") + engine.initial_state(+4, "up")
        tau = 4.7 * period
        assert tau * (engine.energies[4 + 8] - engine.energies[2 + 8]) > 0.1
        free = c0 * np.exp(-1j * tau * (np.arange(-8, 9) * 1200.0) ** 2 / (2 * MC2_EV))
        c1 = engine.drift(c0, tau)
        np.testing.assert_allclose(c1, free, rtol=0, atol=1e-13)
        np.testing.assert_allclose(engine.advance(c0, 0.0, tau, period / 32), c1,
                                   rtol=0, atol=1e-13)

    def test_harmonics_match_fft_of_sampled_fields(self):
        # closed-form c[s, j] against the FFT of (eA^2 +- eB)/2m sampled over
        # one spatial period, with a mono and a bichromatic stage overlapping
        # on their edges; the sector sum and difference give a and b, each
        # checked against its own scale
        env = Envelope(0.5, 1.0, 0.5)
        stages = [MonoStandingWave(ea0=3000.0, photon_energy=K, chi=0.7, envelope=env),
                  BichromaticWave(ea1=2.0e4, ea2=1.5e4, photon_energy=K, envelope=env,
                                  start=0.3)]
        engine = ModeLatticeEngine(K, 8, stages=stages)
        z = np.arange(32) * (2 * np.pi / K) / 32
        # the grid backends sum V+- on the grid from the same coefficients
        grid = SpatialGrid(8 * 2 * np.pi / K, 256)
        potential = _GridPotential(_FullFieldModel(stages, K), K, grid.z)
        times = np.array([0.1, 0.45, 0.9, 1.95, 2.5])
        rows = engine.harmonics(times)
        assert rows.shape == (5, 2, 5)
        for t, c in zip(times[:-1], rows):
            on = [s for s in stages if s.start <= t <= s.end]
            ea = sum(vector_potential(s, t, z) for s in on)
            eb = sum(magnetic_field(s, t, z) for s in on)
            for got, want in (((c[0] + c[1]) / 2, np.fft.fft(ea * ea / (2 * MC2_EV))[:5] / 32),
                              ((c[0] - c[1]) / 2, np.fft.fft(eb / (2 * MC2_EV))[:5] / 32)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
            ea = sum(vector_potential(s, t, grid.z) for s in on)
            eb = sum(magnetic_field(s, t, grid.z) for s in on)
            v = potential(c)
            for got, want in (((v[0] + v[1]) / 2, ea * ea / (2 * MC2_EV)),
                              ((v[0] - v[1]) / 2, eb / (2 * MC2_EV))):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert not rows[-1].any()  # after the stages no field acts

    def test_effective_harmonics_match_fft_of_analytic_lattice(self):
        # the effective model's c[s, j] against the FFT of
        # <y+-| f^p V_eff(z) |y+-> from analytic.effective_potential_value,
        # summed over a mono and a bichromatic stage overlapping on their
        # edges: rise, overlap, plateau and fall
        env = Envelope(0.5, 1.0, 0.5)
        stages = [MonoStandingWave(ea0=200.0, photon_energy=K, chi=0.7, envelope=env),
                  BichromaticWave(ea1=2.35e4, ea2=2.35e4, photon_energy=K, envelope=env,
                                  start=0.3)]
        lattices = [(EffectivePotential.mono(200.0, K, 0.7), 2),
                    (EffectivePotential.bichromatic(2.35e4, 2.35e4, K), 3)]
        model = _EffectiveModel(stages)
        z = np.arange(32) * (2 * np.pi / K) / 32
        times = np.array([0.1, 0.45, 0.9, 1.95, 2.5])
        rows = model(times)
        assert rows.shape == (5, 2, 5)
        for t, c in zip(times[:-1], rows):
            v = np.array([[sum(stage_envelope(s, t) ** power
                               * (y.conj() @ effective_potential_value(pot, zz) @ y).real
                               for s, (pot, power) in zip(stages, lattices))
                           for zz in z] for y in (SPIN_Y_PLUS, SPIN_Y_MINUS)])
            want = np.fft.fft(v, axis=1)[:, :5] / 32
            np.testing.assert_allclose(c, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
        assert not rows[-1].any()  # after the stages no field acts

    def test_advance_matches_chain_of_fresh_steps(self):
        # advance serves plateau steps from the plateau's record (built on
        # entry for the active stages, indexed by the lattice phase i mod M)
        # and whole periods as its one U_T; gl2_step computes every step
        # anew.  Uneven snapshot intervals cut the lattice with fractional
        # steps on the rise, the plateau, the fall and between the stages;
        # the chain of gl2_steps takes the same lattice points.  The second
        # stage, with another chi, shows that a plateau's record ends with it.
        period = 2 * np.pi / 1200.0
        stages = [MonoStandingWave(ea0=4952.57508777, photon_energy=1200.0, chi=chi,
                                   envelope=Envelope(*(x * period for x in env)),
                                   start=start * period)
                  for chi, env, start in ((0.3, (2, 4, 2), 1.3), (-0.5, (1, 2, 1), 9.6))]
        h = period / 32
        engine = ModeLatticeEngine(1200.0, 8, stages=stages)
        reference = ModeLatticeEngine(1200.0, 8, stages=stages)
        calls = []  # Gauss-node times, one per node of a fresh step
        harmonics = engine.harmonics
        engine.harmonics = lambda t: calls.extend(np.ravel(t)) or harmonics(t)
        c = c_ref = engine.initial_state(+2, "up")
        times = period * np.array([0.0, 0.9, 2.45, 3.5, 6.2, 7.07, 8.4, 9.9, 11.75, 14.3])
        with _period_applies(engine) as products:
            for ta, tb in zip(times, times[1:]):
                c = engine.advance(c, ta, tb, h)
                lattice = [i * h for i in range(math.ceil(ta / h), math.floor(tb / h) + 1)
                           if ta < i * h < tb]
                points = [ta, *lattice, tb]
                for t0, t1 in zip(points, points[1:]):
                    c_ref = reference.gl2_step(c_ref, t0, t1 - t0)
        np.testing.assert_allclose(c, c_ref, rtol=0, atol=1e-13)
        assert np.sum(np.abs(c[:, 2 + 8]) ** 2) < 0.999  # the stages did act
        assert any(products)
        # after the first plateau's first period (3.3 T to 4.3 T), which its
        # record is built from, only the fractional steps at the cuts 6.2 T
        # and 7.07 T are fresh
        late_plateau = [t for t in calls if 4.4 * period < t < 7.2 * period]
        assert len(late_plateau) == 2 * 2 * 2

    def test_batched_runs_match_chain_of_single_steps(self):
        # advance builds fresh steps and a plateau's record in batches; one
        # scalar gl2_step per lattice step is the reference.  A rise run of
        # 115 steps spans several batches; a plateau run of 0.7 T builds the
        # record's one period but never completes one, so no U_T applies.
        period = 2 * np.pi / 1200.0
        stage = MonoStandingWave(ea0=4952.57508777, photon_energy=1200.0, chi=0.4,
                                 envelope=Envelope(2 * period, 4 * period, 2 * period),
                                 start=1.3 * period)
        h = period / 64
        engine = ModeLatticeEngine(1200.0, 8, stages=[stage])
        reference = ModeLatticeEngine(1200.0, 8, stages=[stage])
        batches = []  # per advance, the steps of each batch it builds
        fresh = engine._fresh
        engine._fresh = lambda t, *a: (batches[-1].append(len(b[1])) or b for b in fresh(t, *a))
        c0 = engine.initial_state(+2, "x+")
        for ta, tb in ((1.4, 3.2), (3.5, 4.2)):
            ta, tb = ta * period, tb * period
            batches.append([])
            with _period_applies(engine) as products:
                c = engine.advance(c0, ta, tb, h)
            points = [ta, *(i * h for i in range(math.ceil(ta / h), math.floor(tb / h) + 1)
                            if ta < i * h < tb), tb]
            c_ref = c0
            for t0, t1 in zip(points, points[1:]):
                c_ref = reference.gl2_step(c_ref, t0, t1 - t0)
            np.testing.assert_allclose(c, c_ref, rtol=0, atol=1e-13)
            assert np.max(np.abs(c - c0)) > 0.01  # the stage did act
            assert not any(products)
        # the rise run's 115 steps span several batches
        assert sum(batches[0]) >= 115 and max(batches[0]) < 115

    def test_plateau_record_is_built_from_a_whole_period_of_its_plateau(self):
        # a standing wave's plateau from 1 T is cut after 0.5 T by a
        # bichromatic pulse with no plateau (on from 1.5 T to 3.5 T) and
        # resumes after it.  A record built at 1 T would take half its
        # steps from the bichromatic rise and serve them after 3.5 T; the
        # first 0.5 T is stepped afresh instead, and the record is built
        # at 3.5 T
        period = 2 * np.pi / 1200.0
        stages = [MonoStandingWave(ea0=4952.57508777, photon_energy=1200.0, chi=0.4,
                                   envelope=Envelope(period, 6 * period, period)),
                  BichromaticWave(ea1=2.0e4, ea2=1.5e4, photon_energy=1200.0,
                                  envelope=Envelope(period, 0.0, period), start=1.5 * period)]
        h = period / 32
        engine = ModeLatticeEngine(1200.0, 8, stages=stages)
        reference = ModeLatticeEngine(1200.0, 8, stages=stages)
        c = c_ref = engine.initial_state(+2, "x+")
        with _period_applies(engine) as products:
            c = engine.advance(c, 0.0, 8 * period, h)
        for i in range(8 * 32):
            c_ref = reference.gl2_step(c_ref, i * h, h)
        np.testing.assert_allclose(c, c_ref, rtol=0, atol=1e-13)
        assert any(products)

    def test_one_plateau_record_at_a_time(self):
        # a bichromatic plateau's record (M steps of both sectors and U_T)
        # is freed before the next plateau, a standing wave's, builds its
        # own (sector + alone): traced from just before the first plateau,
        # the peak stays below the two records together (numpy reports its
        # buffers to tracemalloc)
        period = 2 * np.pi / 1200.0
        env = Envelope(period, 2 * period, period)
        stages = [BichromaticWave(ea1=2.0e4, ea2=1.5e4, photon_energy=1200.0, envelope=env),
                  MonoStandingWave(ea0=4952.57508777, photon_energy=1200.0, chi=0.4,
                                   envelope=env, start=4 * period)]
        engine = ModeLatticeEngine(1200.0, 16, stages=stages)
        h = period / 256
        m = 2 * 16 + 1
        records = (256 + 1) * (2 + 1) * m * m * 16
        c = engine.advance(engine.initial_state(+2, "x+"), 0.0, period, h)
        gc.collect()
        tracemalloc.start()
        try:
            c = engine.advance(c, period, 8 * period, h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.max(np.abs(c - engine.initial_state(+2, "x+"))) > 0.01  # the stages acted
        assert peak < records


@contextlib.contextmanager
def _period_applies(engine):
    """Per ``np.matvec`` call while the block runs (the mode lattice applies
    every propagator with it): whether it applied the period product U_T of
    the engine's plateau record."""
    applies = []
    matvec = np.matvec

    def spy(u, amps):
        applies.append(u is engine._plateau[2])
        return matvec(u, amps)

    with mock.patch.object(np, "matvec", spy):
        yield applies


# A mono stage (rise 2 T, plateau 4 T, fall 2 T) and a bichromatic stage
# from 7 T, so that the mono fall and the bichromatic rise overlap on
# [7 T, 8 T]: the regions of t that a fresh Magnus step is drawn from.
MAGNUS_PERIOD = 2 * np.pi / 1200.0
MAGNUS_REGIONS = {"rise": (0.0, 2.0), "plateau": (2.0, 6.0), "fall": (6.0, 7.0),
                  "overlap": (7.0, 8.0)}


@functools.lru_cache(maxsize=None)
def _magnus_engine(halfwidth):
    period = MAGNUS_PERIOD
    stages = [MonoStandingWave(ea0=4952.57508777, photon_energy=1200.0, chi=0.3,
                               envelope=Envelope(2 * period, 4 * period, 2 * period)),
              BichromaticWave(ea1=2.0e4, ea2=1.5e4, photon_energy=1200.0,
                              envelope=Envelope(2 * period, 3 * period, 2 * period),
                              start=7 * period)]
    return ModeLatticeEngine(1200.0, halfwidth, stages=stages)


def _dense_omega(engine, t, dt):
    """The Magnus exponent -i dt/2 (H1 + H2) + sqrt(3)/12 dt^2 [H1, H2] of one
    step, built densely: H = diag(E_n) + V with V[r, c] gathered from the
    harmonics c_1..c_4 of each sector (conjugated below the diagonal), and the
    commutator as a matrix product."""
    n = np.arange(2 * engine.N + 1) - engine.N
    diff = n[:, None] - n[None, :]
    gather = np.where((np.abs(diff) <= 4) & (diff != 0), diff + 4, 9)
    h = []
    for node in (t + (0.5 - math.sqrt(3.0) / 6.0) * dt, t + (0.5 + math.sqrt(3.0) / 6.0) * dt):
        c = engine.harmonics(np.array([node]))[0]
        band = np.concatenate([c[:, :0:-1].conj(), c, np.zeros((2, 1))], axis=-1)
        h.append(band[:, gather] + np.diag(engine.energies))
    return (-0.5j * dt * (h[0] + h[1])
            + math.sqrt(3.0) / 12.0 * dt * dt * (h[0] @ h[1] - h[1] @ h[0]))


magnus_steps = st.tuples(st.sampled_from([4, 8, 24]), st.sampled_from(sorted(MAGNUS_REGIONS)),
                         st.floats(0.0, 1.0), st.floats(1.0 / 1024, 1.0 / 80))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(magnus_steps, st.integers(0, 2**32 - 1))
def test_fresh_magnus_step_is_time_reversible(step, seed):
    # the Gauss nodes of the step back from t + dt are those of the step
    # forward, swapped, so the exponent changes sign: forward then back is
    # the identity to rounding
    halfwidth, region, u, fraction = step
    engine = _magnus_engine(halfwidth)
    lo, hi = MAGNUS_REGIONS[region]
    t, dt = (lo + u * (hi - lo)) * MAGNUS_PERIOD, fraction * MAGNUS_PERIOD
    rng = np.random.default_rng(seed)
    c0 = rng.normal(size=(2, 2 * halfwidth + 1)) + 1j * rng.normal(size=(2, 2 * halfwidth + 1))
    c0 /= np.linalg.norm(c0)
    c1 = engine.gl2_step(c0, t, dt)
    assert np.max(np.abs(c1 - c0)) > 1e-6  # the step did something
    np.testing.assert_allclose(engine.gl2_step(c1, t + dt, -dt), c0, rtol=0, atol=1e-13)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(magnus_steps)
def test_band_written_magnus_exponent_matches_dense_build(step):
    # _magnus writes Omega diagonal by diagonal, with [V1, V2] only in the
    # two 4x4 corners where |n| <= N cuts the Toeplitz products
    halfwidth, region, u, fraction = step
    engine = _magnus_engine(halfwidth)
    lo, hi = MAGNUS_REGIONS[region]
    t, dt = (lo + u * (hi - lo)) * MAGNUS_PERIOD, fraction * MAGNUS_PERIOD
    with mock.patch.object(propagation, "_expm_skew", lambda x: x):
        omega, acts = engine._magnus(np.array([t]), dt)
    dense = _dense_omega(engine, t, dt)
    assert acts[0]
    norm = np.abs(dense).sum(axis=-2).max()
    assert np.max(np.abs(omega[0] - dense)) <= 1e-15 * norm


class TestScenarioValidation:
    def test_same_kind_overlap_rejected(self):
        s1 = mono_stage(np.pi / 2, start_fs=1.0)
        s2 = mono_stage(np.pi / 2, start_fs=2.0)
        scn = effective_scenario([s1, s2], tail_fs=200.0)
        with pytest.raises(ScenarioError):
            scn.validate()

    def test_stage_beyond_duration_rejected(self):
        scn = effective_scenario([mono_stage(np.pi / 2)])
        scn.duration = scn.stages[0].end - 1.0
        with pytest.raises(ScenarioError):
            scn.validate()

    def test_unsorted_stages_rejected(self):
        s1 = mono_stage(np.pi / 4, start_fs=50.0)
        s2 = bi_stage(np.pi / 4, start_fs=1.0)
        scn = effective_scenario([s1, s2], tail_fs=300.0)
        with pytest.raises(ScenarioError):
            scn.validate()

    @pytest.mark.parametrize("backend", ["full-field", "effective", "mode-lattice"])
    def test_stages_need_common_photon_energy(self, backend):
        # every backend reads the harmonics e^{ijkz} of one k
        s1 = bi_stage(np.pi / 4, start_fs=1.0)
        s2 = MonoStandingWave(ea0=200.0, photon_energy=150.0, chi=0.0,
                              envelope=Envelope(0.0, 10.0, 0.0), start=s1.end + 1.0)
        scn = effective_scenario([s1, s2], tail_fs=200.0)
        scn.config.backend = backend
        with pytest.raises(ScenarioError, match="one common photon energy"):
            scn.validate()

    def test_mode_lattice_halfwidth_below_four_rejected(self):
        # the 4x4 corner blocks of the Magnus exponent need 2N + 1 >= 9
        # modes; the parser and PropagationConfig set the same floor
        with pytest.raises(ScenarioError, match=">= 4"):
            ModeLatticeEngine(1200.0, 3)
        assert ModeLatticeEngine(1200.0, 4).N == 4

    def test_off_lattice_momentum_rejected_for_modes(self):
        scn = effective_scenario([mono_stage(np.pi / 2)], momentum=2 * K + 17.0)
        scn.config.backend = "mode-lattice"
        with pytest.raises(ScenarioError):
            scn.validate()

    @pytest.mark.parametrize("backend", ["full-field", "effective", "mode-lattice"])
    def test_dt_ceiling_respected_by_runner(self, backend):
        scn = effective_scenario([mono_stage(np.pi / 2)])
        scn.config.backend = backend
        scn.config.dt = 5.0 / RABI_MONO_200
        with pytest.raises(ScenarioError, match="violates the backend bound"):
            run_scenario(scn)

    @pytest.mark.parametrize("key,value", [("dt", -5e-3), ("dt", 0.0), ("dt", math.nan),
                                           ("snapshot_every", -1.0),
                                           ("snapshot_every", math.nan)])
    def test_nonpositive_or_nonfinite_steps_rejected(self, key, value):
        # a negative dt used to run one Strang step per snapshot interval
        scn = effective_scenario([mono_stage(np.pi / 2)])
        setattr(scn.config, key, value)
        with pytest.raises(ScenarioError, match=f"{key} must be positive and finite"):
            run_scenario(scn)

    @pytest.mark.parametrize("duration_fs", [-5.0, 0.0, math.inf, math.nan])
    def test_nonpositive_or_nonfinite_duration_rejected(self, duration_fs):
        # a negative duration used to run its snapshots backwards in time,
        # zero to divide by zero and a non-finite one to fail in the cadence
        scn = effective_scenario([])
        scn.duration = fs_to_natural(duration_fs)
        with pytest.raises(ScenarioError, match="duration must be positive and finite"):
            run_scenario(scn)

    def test_bad_backend_rejected(self):
        with pytest.raises(ScenarioError):
            PropagationConfig(backend="magic")

    def test_mixed_kind_overlap_allowed(self):
        s1 = bi_stage(np.pi / 4, start_fs=1.0)
        s2 = mono_stage(np.pi / 4, start_fs=2.0)
        scn = effective_scenario([s1, s2], tail_fs=300.0)
        scn.validate()


class TestTimestepPolicy:
    def test_full_field_default_below_ceiling(self):
        stages = [mono_stage(np.pi / 2)]
        assert default_timestep("full-field", stages, 1.0) <= timestep_ceiling(
            "full-field", stages)
        assert default_timestep("full-field", stages, 1.0) == pytest.approx(
            np.pi / (64 * K), rel=1e-12)

    def test_effective_default(self):
        stages = [mono_stage(np.pi / 2)]
        assert default_timestep("effective", stages, 1.0) == pytest.approx(
            1e-3 / RABI_MONO_200, rel=1e-12)


class TestStagePulseAreas:
    def test_envelope_powers(self):
        s_m = mono_stage(np.pi)
        s_b = bi_stage(np.pi / 2)
        areas = dict()
        for s, om, teff, theta in stage_pulse_areas([s_b, s_m]):
            areas[s.kind] = theta
        assert areas["monochromatic"] == pytest.approx(np.pi, rel=1e-12)
        assert areas["bichromatic"] == pytest.approx(np.pi / 2, rel=1e-12)


mirror_steps = st.tuples(st.sampled_from([4, 8, 24]), st.sampled_from(["rise", "plateau", "fall"]),
                         st.floats(0.0, 1.0), st.floats(1.0 / 1024, 1.0 / 80),
                         st.floats(0.2, 2.9), st.sampled_from([-1.0, 1.0]))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(mirror_steps)
def test_standing_wave_sector_propagators_are_mirror_images(step):
    # with only a standing wave on, c-_j = conj(c+_j) e^{ij chi/2}, so
    # U- = D Pi U+ Pi D^dagger with Pi: n -> -n and D = diag(e^{in chi/2}),
    # which lets such steps build sector + alone; the frame of the opposite
    # phase misses the entries two modes off the diagonal by 2 |sin chi|
    halfwidth, region, u, fraction, chi, sign = step
    chi *= sign
    stage = replace(_magnus_engine(halfwidth).stages[0], chi=chi)
    engine = ModeLatticeEngine(1200.0, halfwidth, stages=[stage])
    lo, hi = MAGNUS_REGIONS[region]
    t, dt = (lo + u * (hi - lo)) * MAGNUS_PERIOD, fraction * MAGNUS_PERIOD
    (us,), (acts,) = engine._magnus(np.array([t]), dt)
    n = np.arange(-halfwidth, halfwidth + 1)

    def mirrored(theta):
        d = np.exp(0.5j * theta * n)
        return d[:, None] * us[0, ::-1, ::-1] * d.conj()
    band = np.max(np.abs(np.diagonal(us[0], offset=2)))
    assert acts and band > 0
    assert np.max(np.abs(us[1] - mirrored(chi))) <= 1e-14
    assert np.max(np.abs(us[1] - mirrored(-chi))) > 0.3 * band


def test_advance_with_standing_waves_and_a_splitter_matches_two_sector_steps():
    # standing waves of three chi (A overlapping the bichromatic stage on
    # its fall; B and C touching at 13.47 T, off the lattice, so that one
    # step sees both) against a chain of two-sector _magnus steps on the
    # same lattice points: the mirrored frame must be used only where one
    # standing wave acts alone
    period = 2 * np.pi / 1200.0

    def mono(chi, start, env):
        return MonoStandingWave(ea0=4952.57508777, photon_energy=1200.0, chi=chi,
                                envelope=Envelope(*(x * period for x in env)),
                                start=start * period)
    stages = [mono(0.9, 0.0, (2, 3, 2)),
              BichromaticWave(ea1=2.0e4, ea2=1.5e4, photon_energy=1200.0,
                              envelope=Envelope(period, 2 * period, period), start=6 * period),
              mono(-0.4, 10.5, (1, 0.97, 1)), mono(2.0, 13.47, (1, 1, 1))]
    h = period / 32
    engine = ModeLatticeEngine(1200.0, 8, stages=stages)
    reference = ModeLatticeEngine(1200.0, 8, stages=stages)
    c = c_ref = engine.initial_state(+2, "x+")
    times = period * np.array([0.0, 1.3, 4.55, 6.5, 9.2, 11.1, 13.4, 14.2, 16.5, 17.0])
    for ta, tb in zip(times, times[1:]):
        c = engine.advance(c, ta, tb, h)
        points = [ta, *(i * h for i in range(math.ceil(ta / h), math.floor(tb / h) + 1)
                        if ta < i * h < tb), tb]
        for t0, t1 in zip(points, points[1:]):
            (u,), (act,) = reference._magnus(np.array([t0]), t1 - t0)
            c_ref = np.matvec(u, c_ref) if act else reference.drift(c_ref, t1 - t0)
    np.testing.assert_allclose(c, c_ref, rtol=0, atol=1e-13)
    assert np.sum(np.abs(c[:, 2 + 8]) ** 2) < 0.99  # the stages did act


# desk-mono on the mode lattice as integrated by the implicit Gauss-Legendre
# (GL2) stepper this package used before the Magnus stepper, at its default
# dt = pi/(128 omega) and at dt/2: (pop_plus, pop_minus, pop_plus*sy_plus,
# pop_minus*sy_minus).
DESK_MONO_GL2_DT = (0.5039293781719123, 0.49195915927204764,
                    0.5039293781719122, 0.49195915927204775)
DESK_MONO_GL2_DT_HALF = (0.5039293781718541, 0.49195915927209116,
                         0.5039293781718543, 0.4919591592720913)


def test_mode_lattice_matches_gl2_desk_mono(bundled_run):
    # The stage ends at 0.2173 fs, between the snapshots at 0.215 and
    # 0.220 fs, so one snapshot interval holds fresh edge steps and free
    # steps; the plateau before runs on cached steps and period products.
    # Allowed error: the GL2 timestep-convergence error, floored at 1e-12.
    rep = bundled_run("desk-mono", "mode-lattice").final_report
    got = (rep.pop_plus, rep.pop_minus, rep.pop_plus * rep.sy_plus,
           rep.pop_minus * rep.sy_minus)
    tol = max(max(abs(a - b) for a, b in zip(DESK_MONO_GL2_DT, DESK_MONO_GL2_DT_HALF)), 1e-12)
    np.testing.assert_allclose(got, DESK_MONO_GL2_DT_HALF, rtol=0, atol=tol)


@pytest.mark.parametrize("backend", ["effective", "mode-lattice"])
def test_uneven_snapshot_spacing_warns(backend):
    # 1 fs in snapshots of 0.3 fs: re-spaced to 3 intervals of 0.333 fs; the
    # packet is at rest, since 2 hbar k lies beyond this grid's Nyquist momentum
    scn = effective_scenario([], momentum=0.0, tail_fs=1.0, points=256,
                             snapshot_every=fs_to_natural(0.3))
    scn.config.backend = backend
    with pytest.warns(UserWarning, match="does not divide"):
        result = run_scenario(scn)
    assert result.timeseries.t.size == 4
    assert any("0.333333 fs apart" in w for w in result.warnings)


def _free_run(center, width, momentum, backend, points=1024, length=um_to_natural(0.3)):
    config = PropagationConfig(backend=backend, grid_points=points, grid_length=length,
                               snapshot_every=fs_to_natural(0.25))
    scn = Scenario(packet=PacketSpec(center, width, momentum), stages=[],
                   duration=fs_to_natural(1.0), config=config)
    with pytest.warns(UserWarning) as caught:
        result = run_scenario(scn)
    assert [str(w.message) for w in caught] == result.warnings
    return result.warnings


@pytest.mark.parametrize("backend", ["full-field", "effective"])
def test_packet_at_box_edge_warns_once(backend):
    # as close to the wrap point as gaussian_packet allows (tail below 1e-10
    # at the wall): about 1 % of the density lies in the outer 1/32 of the box
    length, width = um_to_natural(0.3), um_to_natural(0.002)
    found = _free_run(0.5 * length - 7.0 * width, width, 0.0, backend)
    assert len(found) == 1 and "outer 1/32 of the box" in found[0]


@pytest.mark.parametrize("backend", ["full-field", "effective"])
def test_packet_near_nyquist_warns_once(backend):
    points, length = 256, um_to_natural(0.3)
    spacing = length / points
    found = _free_run(0.0, 8.0 * spacing, 0.95 * np.pi / spacing, backend, points, length)
    assert len(found) == 1 and "above 0.9 p_Nyquist" in found[0]


def test_mode_lattice_edge_population_warns_once():
    # desk-mono's field on N = 4: the |n| = 4 modes fill during the pulse
    edge, plateau = fs_to_natural(0.002), fs_to_natural(0.004)
    scn = effective_scenario([MonoStandingWave(ea0=4952.57508777, photon_energy=1200.0, chi=0.0,
                                               envelope=Envelope(edge, plateau, edge),
                                               start=edge)],
                             width_um=0.008, momentum=2400.0, tail_fs=0.002,
                             mode_halfwidth=4, snapshot_every=fs_to_natural(0.004))
    scn.config.backend = "mode-lattice"
    with pytest.warns(UserWarning, match=r"at \|n\| = 4") as caught:
        result = run_scenario(scn)
    assert len(caught) == len(result.warnings) == 1


@pytest.mark.slow
def test_fig2_ideal_mode_lattice_keeps_its_edge_modes_empty():
    # fig2-ideal's splitter dresses the electron across about +-15 hbar k;
    # at its N = 32 the population at |n| = N stays below the warning limit,
    # and the final poldeg is converged (0.3717 at N = 32 and 40, 0.450 at 24)
    from spinsplit.scenario import load_scenario

    scn, _ = load_scenario("fig2-ideal", backend="mode-lattice")
    assert scn.config.mode_halfwidth == 32
    result = run_scenario(scn)
    assert result.warnings == []
    assert result.final_report.poldeg_plus == pytest.approx(0.3717, abs=1e-3)
    assert result.final_report.poldeg_minus == pytest.approx(0.3717, abs=1e-3)


@pytest.mark.parametrize("backend", BACKENDS)
def test_last_observation_is_the_final_report(bundled_run, backend):
    # the time series is filled by position: a column out of the TimeSeries
    # order would land under another column's name
    result = bundled_run("desk-mono", backend)
    ts, report = result.timeseries, result.final_report
    assert ts.t[-1] == result.scenario.duration
    for name, value in zip(REPORT_COLUMNS, report.row()):
        assert getattr(ts, name)[-1] == value, name
    assert ts.sy_total[-1] == report.sy_total
    assert ts.norm[-1] == report.total_norm
    assert ts.norm_drift[-1] == ts.norm[-1] - ts.norm[0]


@pytest.mark.parametrize("backend", ["full-field", "effective"])
def test_timestep_convergence_desk_scale(bundled_run, backend):
    # halving dt moves the final channel populations by < 1e-4
    from spinsplit.scenario import load_scenario

    r1 = bundled_run("desk-mono", backend)
    dt = default_timestep(backend, r1.scenario.stages, 1.0)
    scn2, _ = load_scenario("desk-mono", backend=backend)
    scn2.config.dt = dt / 2.0
    r2 = run_scenario(scn2)
    assert abs(r1.final_report.pop_plus - r2.final_report.pop_plus) < 1e-4
    assert abs(r1.final_report.pop_minus - r2.final_report.pop_minus) < 1e-4


# Final (pop_plus, pop_minus, bloch_plus, bloch_minus, total <sigma_y>) of the
# grid backends as integrated by the stepper this package used before the
# sigma_y sectors, which applied exp(-i (a + b sigma_y) dt) as a phase times a
# cos/sin 2x2 spin mix.
GRID_2X2 = {
    "desk-mono-full-field": (
        0.5037337823465189, 0.4918258078497061,
        -1.45389106488217e-16, 1.0000000000000002, 2.8128878826003248e-15,
        1.9177224364425993e-15, 1.0000000000000002, 2.659378046462176e-15, 1.0),
    "desk-mono-effective": (
        0.5037382660838915, 0.4918213770888045,
        -2.0416972684718878e-15, 1.0000000000000002, 1.6588678318404412e-15,
        -1.9937961800263638e-16, 1.0, 7.387227790247142e-16, 1.0),
    "desk-bichrom-head-full-field": (
        0.9970777425031757, 0.002008553465494457,
        -1.981737766593911e-06, -2.1316278844973726e-06, 0.9999952942646602,
        -0.007649318034153346, 0.0007062843461910356, -0.038400202507001206,
        -1.8495344643196548e-16),
}


def _desk_bichrom_head():
    """desk-bichrom's stage cut to 0.064 fs; spin up weights both sectors,
    so their relative phase shows in the Bloch vectors."""
    from spinsplit.scenario import load_scenario

    scn, _ = load_scenario("desk-bichrom", snapshot_every_fs=0.01)
    env = Envelope(fs_to_natural(0.008), fs_to_natural(0.048), fs_to_natural(0.008))
    scn.stages = [replace(scn.stages[0], start=fs_to_natural(0.02), envelope=env)]
    scn.duration = fs_to_natural(0.1)
    return scn


@pytest.mark.parametrize("name", sorted(GRID_2X2))
def test_sector_stepper_matches_2x2_stepper(bundled_run, name):
    if name.startswith("desk-mono-"):
        result = bundled_run("desk-mono", name[len("desk-mono-"):])
    else:
        result = run_scenario(_desk_bichrom_head())
    rep = result.final_report
    got = (rep.pop_plus, rep.pop_minus, *rep.bloch_plus, *rep.bloch_minus,
           result.timeseries.sy_total[-1])
    np.testing.assert_allclose(got, GRID_2X2[name], rtol=0, atol=1e-10)


def _reference_kinetic(grid, psi, tau):
    return np.fft.ifft(np.fft.fft(psi, axis=1) * np.exp(-0.5j * tau * grid.p**2 / MC2_EV), axis=1)


def _midpoints(ta, tb, dt):
    n = max(1, math.ceil((tb - ta) / dt - 1e-12))
    h = (tb - ta) / n
    return ta + (np.arange(n) + 0.5) * h, h


def _reference_potential(potential, psi, c, h, exact):
    """psi times exp(-i V+- h) of the coefficients c, built from
    tau = tan(-h V+-/2) as (2/(1 + tau^2) - 1) + i tau 2/(1 + tau^2), or with
    exact=True by np.exp.  The factor is held by a name: numpy would
    otherwise compute the product in the buffer of the temporary factor,
    with the operands swapped, which rounds differently under FMA."""
    if exact:
        factor = np.exp(-1j * h * potential(c[:len(psi)]))
    else:
        tau = np.tan(potential(c[:len(psi)], -0.5 * h))
        weight = 2.0 / (1.0 + tau * tau)
        factor = (weight - 1.0) + 1j * (tau * weight)
    return psi * factor


def _reference_advance(prop, psi, ta, tb, dt, exact=False):
    """The grid Strang step with out-of-place formulas: every FFT, every
    angle and every potential factor is a new array, and nothing is cached or
    reused.  The coefficients come from one field-model call on the step
    midpoints.  Only acting steps are stepped: each free stretch, from ta to
    the first acting midpoint, between two, and from the last to tb, is one
    kinetic step of gap * h, and an interval where no step acts is one of
    tb - ta."""
    grid, model = prop.grid, prop.potential.model
    potential = _GridPotential(model, prop.hbar_k, grid.z)
    midpoints, h = _midpoints(ta, tb, dt)
    coefficients = model(midpoints)
    acting = np.flatnonzero(coefficients.any(axis=(-2, -1)))
    if not acting.size:
        return _reference_kinetic(grid, psi, tb - ta)
    gaps = np.diff(acting, prepend=-0.5, append=len(midpoints) - 0.5)
    for gap, c in zip(gaps, coefficients[acting]):
        psi = _reference_potential(potential, _reference_kinetic(grid, psi, gap * h), c, h, exact)
    return _reference_kinetic(grid, psi, gaps[-1] * h)


def _stepwise_advance(prop, psi, ta, tb, dt):
    """The same splitting taken step by step, free steps included: half
    kinetic, the tangent factor where a field acts, half kinetic, with the
    half steps of neighbours merged."""
    grid, model = prop.grid, prop.potential.model
    potential = _GridPotential(model, prop.hbar_k, grid.z)
    midpoints, h = _midpoints(ta, tb, dt)
    psi = _reference_kinetic(grid, psi, 0.5 * h)
    for i, c in enumerate(model(midpoints)):
        if c.any():
            psi = _reference_potential(potential, psi, c, h, False)
        psi = _reference_kinetic(grid, psi, h if i < len(midpoints) - 1 else 0.5 * h)
    return psi


def _assert_in_place_steps_match_reference(scn, times, dt, drift_until=0.0):
    prop, state = _propagator(scn)
    ref_prop, ref = _propagator(scn)
    exact = ref.copy()
    calls = []  # the times of each field-model call of prop
    model = prop.potential.model
    prop.potential.model = lambda t: calls.append(t) or model(t)
    if drift_until:
        assert prop.drift(state, drift_until) is state
        ref = exact = _reference_kinetic(ref_prop.grid, ref, drift_until)
        assert np.array_equal(state, ref)
    for ta, tb in zip(times, times[1:]):
        assert prop.advance(state, ta, tb, dt) is state
        ref = _reference_advance(ref_prop, ref, ta, tb, dt)
        assert np.array_equal(state, ref), (ta, tb)
        # the tangent factor is exp(-i V h) to rounding
        exact = _reference_advance(ref_prop, exact, ta, tb, dt, exact=True)
        np.testing.assert_allclose(state, exact, rtol=0, atol=1e-13 * np.abs(exact).max())
        # one model call per advance, on the array of its step midpoints
        assert len(calls) == 1 and np.array_equal(calls.pop(), _midpoints(ta, tb, dt)[0])


@pytest.mark.parametrize("theta", [np.linspace(-np.pi, np.pi, 400_001),
                                   np.linspace(-50.0, 50.0, 400_001),
                                   np.array([np.pi, -np.pi, 0.0, np.pi / 2])],
                         ids=["one-turn", "many-turns", "edges"])
def test_potential_factor_matches_exp(theta):
    # the factor of _apply_potential from the half angles -theta/2 (exact
    # in binary): exp(-i theta) to rounding, unimodular, and finite at
    # theta = +-pi, where the tangent is 1.6e16
    potential = _GridPotential(None, K, np.zeros(theta.size))
    potential.angle[:] = -0.5 * theta
    factor = np.empty((2, theta.size), dtype=complex)
    _phase_from_half_angles(potential, factor)
    assert np.isfinite(factor).all()
    np.testing.assert_allclose(factor, [np.exp(-1j * theta)] * 2, rtol=0, atol=5e-16)
    np.testing.assert_allclose(np.abs(factor), 1.0, rtol=0, atol=5e-16)


def test_in_place_full_field_step_is_bit_identical():
    # desk-bichrom head, spin x+: free flight to the stage, its rise and the
    # start of its plateau
    scn = _desk_bichrom_head()
    scn.packet = replace(scn.packet, spin="x+")
    start = scn.stages[0].start
    times = start + fs_to_natural(np.array([0.0, 0.01, 0.02]))
    dt = default_timestep("full-field", scn.stages, 1.0)
    _assert_in_place_steps_match_reference(scn, times, dt, drift_until=start)


def test_in_place_effective_step_is_bit_identical():
    # a mono stage and a bichromatic stage starting on its plateau: a only,
    # a and b, b only, each on sin^2 edges and plateaus; the uneven intervals
    # give the plateau steps different sizes h, so a reused potential factor
    # must be rebuilt when h changes.  The reference builds a fresh potential
    # at every step, so it reuses nothing.
    stages = [mono_stage(np.pi / 2, rise_fs=5.0), bi_stage(np.pi / 2, rise_fs=5.0, start_fs=50.0)]
    scn = effective_scenario(stages, spin=(1, 1))  # x+
    times = scn.duration * np.array([0.0, 0.13, 0.29, 0.41, 0.58, 0.66, 0.83, 1.0])
    dt = timestep_ceiling("effective", stages) / 2.0
    _assert_in_place_steps_match_reference(scn, times, dt)


def _pipeline_case(name):
    """(scenario, snapshot times, dt, plateau interval) of a grid run: the
    intervals between the times cross free flight, the rise and the start
    of the plateau, and the plateau interval lies inside the plateau."""
    if name == "full-field-bichromatic":
        scn = _desk_bichrom_head()
        scn.packet = replace(scn.packet, spin="x+")
        dt = default_timestep("full-field", scn.stages, 1.0)
    else:
        make = mono_stage if name == "effective-monochromatic" else bi_stage
        scn = effective_scenario([make(np.pi / 2, rise_fs=5.0)], spin=(1, 1))
        dt = timestep_ceiling("effective", scn.stages) / 2.0
    stage = scn.stages[0]
    lo = stage.start + stage.envelope.rise
    times = np.array([0.5 * stage.start, stage.start + 0.3 * stage.envelope.rise,
                      lo + 0.2 * stage.envelope.plateau])
    plateau = (lo + 0.3 * stage.envelope.plateau, lo + 0.6 * stage.envelope.plateau)
    return scn, times, dt, plateau


@pytest.mark.parametrize("name, rows", [("full-field-bichromatic", 2),
                                        ("effective-bichromatic", 2),
                                        ("effective-monochromatic", 1)])
def test_every_potential_step_is_applied_on_the_main_thread(monkeypatch, name, rows):
    # the helper thread only builds factors: each acting step is applied
    # once, by the thread that called advance, through the module's
    # _apply_potential (which the traced benchmark counts)
    scn, times, dt, plateau = _pipeline_case(name)
    prop, state = _propagator(scn)
    assert state.shape[0] == rows
    applied = []
    apply = propagation._apply_potential
    monkeypatch.setattr(propagation, "_apply_potential",
                        lambda psi, factor: applied.append(threading.get_ident())
                        or apply(psi, factor))
    built = []    # the rows of each factor build
    phase = propagation._phase_from_half_angles
    monkeypatch.setattr(propagation, "_phase_from_half_angles",
                        lambda potential, out=None: built.append(len(out))
                        or phase(potential, out))
    model = prop.potential.model
    intervals = list(zip(times, times[1:])) + [plateau]
    for ta, tb in intervals:
        acting = int(model(_midpoints(ta, tb, dt)[0]).any(axis=(-2, -1)).sum())
        applied.clear()
        built.clear()
        prop.advance(state, ta, tb, dt)
        assert applied == [threading.get_ident()] * acting, (ta, tb)
    assert acting > 1
    if name.startswith("effective"):
        # on a plateau of the effective model the coefficients repeat bit
        # for bit: one factor is built for the whole interval
        assert built == [rows]
    else:
        assert sum(built) == acting * rows


def _free_stretch_case(name):
    """(scenario, dt, intervals) of a grid run whose intervals cross free
    time: wholly free up to shortly before the stage, a free head and the
    rise, and the fall with a free tail; or, for "effective-gap", two
    stages with a free gap between them.  The free stretches next to a
    field are a tenth of a rise long."""
    if name == "effective-gap":
        first = mono_stage(np.pi / 2, rise_fs=5.0)
        second = bi_stage(np.pi / 2, rise_fs=5.0, start_fs=natural_to_fs(first.end) + 2.0)
        scn = effective_scenario([first, second], spin=(1, 1))
        rise = first.envelope.rise
        return (scn, timestep_ceiling("effective", scn.stages) / 2.0,
                [(first.end - 0.3 * rise, second.start + 0.3 * rise)])
    scn, _, dt, _ = _pipeline_case(name)
    stage = scn.stages[0]
    rise, fall = stage.envelope.rise, stage.envelope.fall
    head = stage.start - 0.1 * rise
    return scn, dt, [(0.0, head), (head, stage.start + 0.3 * rise),
                     (stage.end - 0.3 * fall, stage.end + 0.1 * fall)]


@pytest.mark.parametrize("name", ["full-field-bichromatic", "effective-bichromatic",
                                  "effective-monochromatic", "effective-gap"])
def test_each_free_stretch_is_one_kinetic_step(monkeypatch, name):
    # only the acting steps are stepped: per advance one kinetic step before
    # each and one after the last, or one drift where no step acts, and one
    # potential step per acting step on the calling thread
    scn, dt, intervals = _free_stretch_case(name)
    prop, state = _propagator(scn)
    kinetic, applied = [], []
    apply_kinetic, apply_potential = propagation._apply_kinetic, propagation._apply_potential
    monkeypatch.setattr(propagation, "_apply_kinetic",
                        lambda psi, phase: kinetic.append(1) or apply_kinetic(psi, phase))
    monkeypatch.setattr(propagation, "_apply_potential",
                        lambda psi, factor: applied.append(threading.get_ident())
                        or apply_potential(psi, factor))
    free_steps = 0
    for ta, tb in intervals:
        acts = prop.potential.model(_midpoints(ta, tb, dt)[0]).any(axis=(-2, -1))
        acting = int(acts.sum())
        free_steps += acts.size - acting if acting else 0
        ref = _reference_advance(prop, state, ta, tb, dt)
        # a wholly free interval is one drift; where free and acting steps
        # mix, the step-by-step splitting is the cross-check
        stepwise = _stepwise_advance(prop, state, ta, tb, dt) if acting else ref
        kinetic.clear()
        applied.clear()
        assert prop.advance(state, ta, tb, dt) is state
        assert len(kinetic) == (acting + 1 if acting else 1), (ta, tb)
        assert applied == [threading.get_ident()] * acting, (ta, tb)
        assert np.array_equal(state, ref), (ta, tb)
        np.testing.assert_allclose(state, stepwise, rtol=0, atol=1e-13 * np.abs(stepwise).max())
    # some interval mixes free and acting steps
    assert free_steps > 0


@pytest.mark.parametrize("failing", ["helper", "main"])
def test_a_failed_step_stops_the_helper(monkeypatch, failing):
    # a build that fails on the third chunk (the helper's second) is
    # re-raised by advance; so is a failure of the main thread's third
    # potential step, while the helper waits for a free half.  Either way no helper thread is left behind,
    # and the same propagator then steps a fresh state bit for bit
    scn, _, dt, _ = _pipeline_case("full-field-bichromatic")
    prop, state = _propagator(scn)
    fresh = state.copy()
    start = scn.stages[0].start
    ta, tb = start, start + fs_to_natural(0.01)
    chunk = len(prop.potential.angle) // len(state)
    assert len(_midpoints(ta, tb, dt)[0]) > 4 * chunk
    calls = []

    def fail_third(original):
        def wrapped(*args):
            calls.append(1)
            if len(calls) == 3:
                raise FloatingPointError("failed step")
            return original(*args)
        return wrapped

    errors = []

    def run():
        try:
            prop.advance(state, ta, tb, dt)
        except FloatingPointError as exc:
            errors.append(str(exc))

    name = "_phase_from_half_angles" if failing == "helper" else "_apply_potential"
    before = set(threading.enumerate())
    with monkeypatch.context() as patch:
        patch.setattr(propagation, name, fail_third(getattr(propagation, name)))
        caller = threading.Thread(target=run, daemon=True)
        caller.start()
        caller.join(timeout=60)
    assert not caller.is_alive() and errors == ["failed step"]
    assert set(threading.enumerate()) == before
    ref = _reference_advance(prop, fresh.copy(), ta, tb, dt)
    assert np.array_equal(prop.advance(fresh, ta, tb, dt), ref)


def test_concurrent_grid_runs_keep_their_factors_apart():
    # three runs, each with its helper, on threads switching every 10 us:
    # a half rebuilt before its chunk was applied would change the result
    scn, times, dt, _ = _pipeline_case("full-field-bichromatic")
    ta, tb = times[1], times[1] + fs_to_natural(0.004)
    prop, state = _propagator(scn)
    ref = _reference_advance(prop, state.copy(), ta, tb, dt)
    runs = [_propagator(scn) for _ in range(3)]
    results = [None] * len(runs)

    def run(i):
        prop, state = runs[i]
        results[i] = prop.advance(state, ta, tb, dt)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(len(runs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for result in results:
        assert np.array_equal(result, ref)


def test_expm_skew_squares_each_matrix_as_far_as_its_norm_needs():
    # 1-norms 1e-3 and 5 in one stack: each matrix matches the oracle and
    # its own exponential alone, so a small one does not take the squarings
    # of a large neighbour
    rng = np.random.default_rng(11)
    g = rng.normal(size=(3, 2, 17, 17)) + 1j * rng.normal(size=(3, 2, 17, 17))
    x = g - g.conj().swapaxes(-1, -2)
    x *= np.array([[1e-3, 5.0], [5.0, 5.0], [1e-3, 1e-3]])[..., None, None] / np.abs(x).sum(
        axis=-2).max(axis=-1)[..., None, None]
    u = _expm_skew(x)
    for xs, us in zip(x.reshape(-1, 17, 17), u.reshape(-1, 17, 17)):
        np.testing.assert_allclose(us, taylor_expm(xs), rtol=0, atol=1e-13)
        assert np.array_equal(us, _expm_skew(xs))


@pytest.mark.parametrize("scale", [0.5, 4.5, 60.0])
def test_expm_skew_matches_taylor_oracle(scale):
    # 1-norm scale * _TAYLOR_THETA: no squaring, then 3 and 6 squarings
    rng = np.random.default_rng(7)
    g = rng.normal(size=(2, 17, 17)) + 1j * rng.normal(size=(2, 17, 17))
    x = g - g.conj().swapaxes(-1, -2)
    x *= scale * _TAYLOR_THETA / np.abs(x).sum(axis=-2).max()
    u = _expm_skew(x)
    np.testing.assert_allclose(u, [taylor_expm(m) for m in x], rtol=0, atol=1e-13)
    unitarity = u.conj().swapaxes(-1, -2) @ u - np.eye(17)
    assert np.max(np.abs(unitarity)) < 1e-13


@pytest.mark.parametrize("side", [0.999, 1.001], ids=["below", "above"])
@pytest.mark.parametrize("bound", range(len(_TAYLOR_BOUNDS)), ids=["theta4", "theta6", "theta9"])
def test_expm_skew_degree_follows_each_bound(monkeypatch, bound, side):
    # just below theta_d the series stops at degree d; just above it takes the
    # next degree, or above theta_9 degree 9 after one squaring.  Each degree
    # is exercised at the largest norm it serves.
    degrees = []
    taylor = propagation._taylor
    monkeypatch.setattr(propagation, "_taylor", lambda x, d: degrees.append(d) or taylor(x, d))
    rng = np.random.default_rng(3)
    g = rng.normal(size=(2, 17, 17)) + 1j * rng.normal(size=(2, 17, 17))
    x = g - g.conj().swapaxes(-1, -2)
    x *= side * _TAYLOR_BOUNDS[bound] / np.abs(x).sum(axis=-2).max(axis=-1)[:, None, None]
    u = _expm_skew(x)
    assert degrees == [_TAYLOR_DEGREES[min(bound + (side > 1), len(_TAYLOR_DEGREES) - 1)]]
    np.testing.assert_allclose(u, [taylor_expm(m) for m in x], rtol=0, atol=1e-13)
    unitarity = u.conj().swapaxes(-1, -2) @ u - np.eye(17)
    assert np.max(np.abs(unitarity)) < 1e-13


@pytest.mark.parametrize("spin", [(1, 0), tuple(SPIN_Y_MINUS), (1, 1), "seeded"],
                         ids=["up", "y-", "x+", "seeded"])
def test_spin_free_packet_follows_the_two_sector_step(spin):
    # monochromatic stages on the effective backend act on both spins alike
    # (b = 0), so the grid propagator steps the spin-free packet phi alone;
    # its sectors spin * phi must follow the two-row reference step on the
    # free flight, the rise, the plateau and the fall
    if isinstance(spin, str):
        spin = tuple(np.random.default_rng(12).normal(size=(2, 2)) @ [1, 1j])
    scn = effective_scenario([mono_stage(np.pi / 2, chi=0.3, rise_fs=5.0)], spin=spin)
    prop, phi = _propagator(scn)
    points = scn.config.grid_points
    assert phi.shape == (1, points)
    packet = gaussian_packet(prop.grid, scn.packet.center, scn.packet.width,
                             scn.packet.momentum, scn.packet.spin)
    ref = _y_sectors(packet.psi)
    start = scn.stages[0].start
    assert prop.drift(phi, start) is phi
    ref = _reference_kinetic(prop.grid, ref, start)
    fractions = np.array([0.0, 0.13, 0.29, 0.41, 0.58, 0.66, 0.83, 1.0])
    times = start + (scn.duration - start) * fractions
    dt = timestep_ceiling("effective", scn.stages) / 2.0
    for ta, tb in zip(times, times[1:]):
        assert prop.advance(phi, ta, tb, dt) is phi and phi.shape == (1, points)
        ref = _reference_advance(prop, ref, ta, tb, dt)
        np.testing.assert_allclose(prop.spin[:, None] * phi, ref, rtol=0,
                                   atol=1e-13 * np.abs(ref).max())
    wf = prop.observe(phi)[0]
    np.testing.assert_allclose(wf.psi, _z_spinor(ref), rtol=0, atol=1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("backend, kinds, rows", [
    ("effective", ("mono",), 1),
    ("effective", (), 1),
    ("full-field", (), 1),
    ("effective", ("mono", "bi"), 2),
    ("effective", ("bi",), 2),
    ("full-field", ("mono",), 2),
])
def test_state_holds_one_row_per_sector_potential(backend, kinds, rows):
    # b = 0 at every time without a stage, and on the effective backend with
    # monochromatic stages only; the full-field standing wave's B_y couples
    # to the spin.  Observation always sees both spin components.
    make = {"mono": lambda: mono_stage(np.pi / 2), "bi": lambda: bi_stage(np.pi / 2, start_fs=50.0)}
    scn = with_backend(effective_scenario([make[k]() for k in kinds], spin=(1, 1)), backend)
    prop, state = _propagator(scn)
    points = scn.config.grid_points
    assert state.shape == (rows, points)
    assert (prop.spin is None) == (rows == 2)
    assert prop.observe(state)[0].psi.shape == (2, points)


@pytest.mark.parametrize("backend", ["full-field", "effective", "mode-lattice"])
def test_every_backend_takes_the_first_stage_wavenumber(backend):
    # the second photon energy lies within validate's 1e-9 of the first but
    # above it, so a max over the stages would differ from the first stage;
    # the channel bins, the field model, the carrier-resolving dt and its
    # ceiling, and the mode lattice's carrier period all use stages[0]
    k0 = 1200.0
    env = Envelope(fs_to_natural(0.01), fs_to_natural(0.02), fs_to_natural(0.01))
    stages = [MonoStandingWave(ea0=4952.57508777, photon_energy=k0, chi=0.0, envelope=env),
              BichromaticWave(ea1=2.0e4, ea2=1.5e4, photon_energy=k0 * (1 + 5e-10),
                              envelope=env)]
    assert stages[1].wavenumber > k0
    scn = with_backend(effective_scenario(stages, width_um=0.008, momentum=2 * k0,
                                          length_um=0.236792364),
                       backend).validate()
    prop, _ = _propagator(scn)
    w0 = stages[0].omega
    if backend != "effective":
        assert timestep_ceiling(backend, stages) == np.pi / (40.0 * w0)
        assert default_timestep(backend, stages, 1.0) == np.pi / (
            {"full-field": 64.0, "mode-lattice": 256.0}[backend] * w0)
    if backend == "mode-lattice":
        assert prop.k == prop._field.k == k0
        assert prop.period == 2.0 * np.pi / w0
        return
    assert prop.hbar_k == k0
    np.testing.assert_array_equal(prop.potential._profiles[1], 2.0 * np.cos(k0 * prop.grid.z))
    if backend == "full-field":
        assert prop.potential.model.k == k0
