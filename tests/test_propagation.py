import math
from dataclasses import replace

import numpy as np
import pytest
from taylor_expm import taylor_expm

from spinsplit.analytic import EffectivePotential, effective_potential_value
from spinsplit.fields import (
    BichromaticWave,
    Envelope,
    MonoStandingWave,
    magnetic_field,
    stage_envelope,
    vector_potential,
)
from spinsplit.propagation import (
    _TAYLOR_THETA,
    ModeLatticeEngine,
    _EffectiveModel,
    _expm_skew,
    _FullFieldModel,
    _GridPotential,
    _GridPropagator,
    _phase_from_half_angles,
    _PhaseWork,
    _propagator,
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
from spinsplit.units import MC2_EV, fs_to_natural, um_to_natural

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
        config = PropagationConfig(backend="full-field", grid_points=1024,
                                   grid_length=grid_len, keep_snapshots=True,
                                   snapshot_every=fs_to_natural(100.0))
        scn = Scenario(packet=PacketSpec(0.0, sigma0, 0.0), stages=[],
                       duration=fs_to_natural(500.0), config=config)
        result = run_scenario(scn)
        for t, psi in result.snapshots:
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
        # advance serves plateau steps from its cache (keyed by the active
        # stages and the lattice phase i mod M) and whole periods as one U_T;
        # gl2_step computes every step anew.  Uneven snapshot intervals cut
        # the lattice with fractional steps on the rise, the plateau, the
        # fall and between the stages; the chain of gl2_steps takes the same
        # lattice points.  The second stage, with another chi, shows that a
        # plateau's cache ends with it.
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
        products = []
        period_propagator = engine._period_propagator
        engine._period_propagator = lambda *a: products.append(period_propagator(*a)) or products[-1]
        c = c_ref = engine.initial_state(+2, "up")
        times = period * np.array([0.0, 0.9, 2.45, 3.5, 6.2, 7.07, 8.4, 9.9, 11.75, 14.3])
        for ta, tb in zip(times, times[1:]):
            c = engine.advance(c, ta, tb, h)
            lattice = [i * h for i in range(math.ceil(ta / h), math.floor(tb / h) + 1)
                       if ta < i * h < tb]
            points = [ta, *lattice, tb]
            for t0, t1 in zip(points, points[1:]):
                c_ref = reference.gl2_step(c_ref, t0, t1 - t0)
        np.testing.assert_allclose(c, c_ref, rtol=0, atol=1e-13)
        assert np.sum(np.abs(c[:, 2 + 8]) ** 2) < 0.999  # the stages did act
        assert any(u is not None for u in products)
        # after the first plateau's first period (3.3 T to 4.3 T) only the
        # fractional steps at the cuts 6.2 T and 7.07 T are fresh
        late_plateau = [t for t in calls if 4.4 * period < t < 7.2 * period]
        assert len(late_plateau) == 2 * 2 * 2

    def test_batched_runs_match_chain_of_single_steps(self):
        # advance builds fresh steps and a plateau's cache in batches; one
        # scalar gl2_step per lattice step is the reference.  A rise run of
        # 115 steps spans several batches; a plateau run of 0.7 T fills part
        # of the cache and never completes a period, so no U_T applies.
        period = 2 * np.pi / 1200.0
        stage = MonoStandingWave(ea0=4952.57508777, photon_energy=1200.0, chi=0.4,
                                 envelope=Envelope(2 * period, 4 * period, 2 * period),
                                 start=1.3 * period)
        h = period / 64
        engine = ModeLatticeEngine(1200.0, 8, stages=[stage])
        reference = ModeLatticeEngine(1200.0, 8, stages=[stage])
        assert 3 * engine._batch < 115
        products = []
        period_propagator = engine._period_propagator
        engine._period_propagator = lambda *a: products.append(period_propagator(*a)) or products[-1]
        c0 = engine.initial_state(+2, "x+")
        for ta, tb in ((1.4, 3.2), (3.5, 4.2)):
            ta, tb = ta * period, tb * period
            c = engine.advance(c0, ta, tb, h)
            points = [ta, *(i * h for i in range(math.ceil(ta / h), math.floor(tb / h) + 1)
                            if ta < i * h < tb), tb]
            c_ref = c0
            for t0, t1 in zip(points, points[1:]):
                c_ref = reference.gl2_step(c_ref, t0, t1 - t0)
            np.testing.assert_allclose(c, c_ref, rtol=0, atol=1e-13)
            assert np.max(np.abs(c - c0)) > 0.01  # the stage did act
        assert not any(u is not None for u in products)


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


# desk-mono on the mode lattice as integrated by the implicit Gauss-Legendre
# (GL2) stepper this package used before the Magnus stepper, at its default
# dt = pi/(128 omega) and at dt/2: (pop_plus, pop_minus, pop_plus*sy_plus,
# pop_minus*sy_minus).
DESK_MONO_GL2_DT = (0.5039293781719123, 0.49195915927204764,
                    0.5039293781719122, 0.49195915927204775)
DESK_MONO_GL2_DT_HALF = (0.5039293781718541, 0.49195915927209116,
                         0.5039293781718543, 0.4919591592720913)


def test_mode_lattice_matches_gl2_desk_mono():
    # The stage ends at 0.2173 fs, between the snapshots at 0.215 and
    # 0.220 fs, so one snapshot interval holds fresh edge steps and free
    # steps; the plateau before runs on cached steps and period products.
    # Allowed error: the GL2 timestep-convergence error, floored at 1e-12.
    from spinsplit.scenario import load_scenario

    scn, _ = load_scenario("desk-mono", backend="mode-lattice")
    rep = run_scenario(scn).final_report
    got = (rep.pop_plus, rep.pop_minus, rep.pop_plus * rep.sy_plus,
           rep.pop_minus * rep.sy_minus)
    tol = max(max(abs(a - b) for a, b in zip(DESK_MONO_GL2_DT, DESK_MONO_GL2_DT_HALF)), 1e-12)
    np.testing.assert_allclose(got, DESK_MONO_GL2_DT_HALF, rtol=0, atol=tol)


@pytest.mark.parametrize("backend", ["effective", "mode-lattice"])
def test_uneven_snapshot_spacing_warns(backend):
    # 1 fs in snapshots of 0.3 fs: re-spaced to 3 intervals of 0.333 fs
    scn = effective_scenario([], tail_fs=1.0, points=256, snapshot_every=fs_to_natural(0.3))
    scn.config.backend = backend
    with pytest.warns(UserWarning, match="does not divide"):
        result = run_scenario(scn)
    assert result.timeseries.t.size == 4
    assert any("0.333333 fs apart" in w for w in result.warnings)


@pytest.mark.parametrize("backend", ["full-field", "effective"])
def test_timestep_convergence_desk_scale(backend):
    # halving dt moves the final channel populations by < 1e-4
    from spinsplit.scenario import load_scenario

    scn, _ = load_scenario("desk-mono", backend=backend)
    r1 = run_scenario(scn)
    dt = default_timestep(backend, scn.stages, 1.0)
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


def _grid_case(name):
    from spinsplit.scenario import load_scenario

    if name.startswith("desk-mono-"):
        return load_scenario("desk-mono", backend=name[len("desk-mono-"):])[0]
    # desk-bichrom's stage cut to 0.064 fs; spin up weights both sectors, so
    # their relative phase shows in the Bloch vectors
    scn, _ = load_scenario("desk-bichrom", snapshot_every_fs=0.01)
    env = Envelope(fs_to_natural(0.008), fs_to_natural(0.048), fs_to_natural(0.008))
    scn.stages = [replace(scn.stages[0], start=fs_to_natural(0.02), envelope=env)]
    scn.duration = fs_to_natural(0.1)
    return scn


@pytest.mark.parametrize("name", sorted(GRID_2X2))
def test_sector_stepper_matches_2x2_stepper(name):
    result = run_scenario(_grid_case(name))
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


def _reference_advance(prop, psi, ta, tb, dt, exact=False):
    """The grid Strang step with out-of-place formulas: every FFT, every
    angle and every potential factor is a new array, and nothing is cached or
    reused.  The factor exp(-i V+- h) is built from tau = tan(-h V+-/2) as
    (2/(1 + tau^2) - 1) + i tau 2/(1 + tau^2), or with exact=True by np.exp.
    The coefficients come from one field-model call on the step midpoints."""
    grid, model = prop.grid, prop.potential.model
    potential = _GridPotential(model, prop.hbar_k, grid.z)
    midpoints, h = _midpoints(ta, tb, dt)
    psi = _reference_kinetic(grid, psi, 0.5 * h)
    for i, c in enumerate(model(midpoints)):
        if c.any():
            if exact:
                factor = np.exp(-1j * h * potential(c))
            else:
                tau = np.tan(potential(c, -0.5 * h))
                weight = 2.0 / (1.0 + tau * tau)
                factor = (weight - 1.0) + 1j * (tau * weight)
            psi = psi * factor
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
    work = _PhaseWork(theta.size)
    work.angle[:] = -0.5 * theta
    _phase_from_half_angles(work)
    assert np.isfinite(work.factor).all()
    np.testing.assert_allclose(work.factor, [np.exp(-1j * theta)] * 2, rtol=0, atol=5e-16)
    np.testing.assert_allclose(np.abs(work.factor), 1.0, rtol=0, atol=5e-16)


def test_in_place_full_field_step_is_bit_identical():
    # desk-bichrom head, spin x+: free flight to the stage, its rise and the
    # start of its plateau
    scn = _grid_case("desk-bichrom-head-full-field")
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
