"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Paper-scale full-field and mode-lattice runs take minutes to an hour and are
marked slow; run them with  pytest -m slow tests/test_acceptance.py.
"""

import numpy as np
import pytest

from spinsplit.analytic import (
    coupling_matrix,
    evolve_density,
    stage_unitary,
    total_evolution,
)
from spinsplit.design import (
    ToleranceBudget,
    interaction_geometry,
    paper_design_report,
)
from spinsplit.observables import fit_rabi
from spinsplit.propagation import run_scenario, stage_pulse_areas
from spinsplit.scenario import load_scenario
from spinsplit.states import ID2, SIGMA_Y, unpolarized_density
from spinsplit.units import MC2_EV, TIME_UNIT_FS, fs_to_natural

from taylor_expm import taylor_expm

ZERO2 = np.zeros((2, 2))
Y_PLUS = np.array([1.0, 1.0j]) / np.sqrt(2.0)
Y_MINUS = np.array([1.0, -1.0j]) / np.sqrt(2.0)


def report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# -- 1 -----------------------------------------------------------------------

def test_c1_unitary_algebra_exactness():
    u = total_evolution(np.pi / 2)
    expected = 0.5 * np.block([[-ID2 - SIGMA_Y, -ID2 + SIGMA_Y],
                               [ID2 - SIGMA_Y, -ID2 - SIGMA_Y]])
    dev_matrix = np.max(np.abs(u - expected))

    plus_in = np.concatenate([np.zeros(2), Y_PLUS])
    minus_in = np.concatenate([np.zeros(2), Y_MINUS])
    dev_plus = np.max(np.abs(u @ plus_in + plus_in))
    dev_minus = np.max(np.abs(u @ minus_in + np.concatenate([Y_MINUS, np.zeros(2)])))

    rho_out = evolve_density(total_evolution(np.pi / 2), unpolarized_density(+2))
    rho_expected = 0.25 * np.block([[ID2 - SIGMA_Y, ZERO2], [ZERO2, ID2 + SIGMA_Y]])
    dev_rho = np.max(np.abs(rho_out - rho_expected))
    sy_minus = np.trace(SIGMA_Y @ rho_out[0:2, 0:2]).real / np.trace(rho_out[0:2, 0:2]).real
    sy_plus = np.trace(SIGMA_Y @ rho_out[2:4, 2:4]).real / np.trace(rho_out[2:4, 2:4]).real

    ok = (dev_matrix < 1e-12 and dev_plus < 1e-12 and dev_minus < 1e-12
          and dev_rho < 1e-12 and abs(sy_minus + 1) < 1e-12 and abs(sy_plus - 1) < 1e-12)
    report(1, ok, f"composite unitary dev {dev_matrix:.1e}, state actions dev "
                  f"{max(dev_plus, dev_minus):.1e}, density dev {dev_rho:.1e}, "
                  f"channel <sy> = ({sy_minus:+.3f}, {sy_plus:+.3f})")


# -- 2 -----------------------------------------------------------------------

def test_c2_oracle_equivalence():
    worst = 0.0
    for kind in ("monochromatic", "bichromatic"):
        for theta in (0.1, np.pi / 4, np.pi / 2, np.pi, 2 * np.pi):
            for chi in (0.0, np.pi / 10, -np.pi / 10, np.pi / 2):
                oracle = taylor_expm(-0.5j * theta * coupling_matrix(kind, chi))
                dev = np.max(np.abs(stage_unitary(kind, theta, chi) - oracle))
                worst = max(worst, dev)
    report(2, worst < 1e-10, f"worst closed-form vs Taylor-series deviation {worst:.2e}")


# -- 3 -----------------------------------------------------------------------

def _plateau_trace(bundled_run, name):
    """(t from the plateau start, pop_minus) over a bundled scenario's first
    stage plateau, on its own backend (effective)."""
    result = bundled_run(name, "effective")
    stage = result.scenario.stages[0]
    ts = result.timeseries
    lo = stage.start + stage.envelope.rise
    hi = lo + stage.envelope.plateau
    mask = (ts.t >= lo) & (ts.t <= hi)
    return ts.t[mask] - lo, ts.pop_minus[mask]


def _plateau_fit(bundled_run, name):
    return fit_rabi(*_plateau_trace(bundled_run, name))


def _curve_fit_omega(t, pop):
    """The Rabi frequency of scipy's bounded curve_fit of
    vis sin^2(omega t/2 + phase), started at the largest non-DC bin omega0 of
    the trace's spectrum with vis = min(spread, 1) and phase = 0, within
    [omega0/4, 4 omega0] x [0, 1.5] x [-pi, pi]."""
    from scipy.optimize import curve_fit

    spec = np.abs(np.fft.rfft(pop - pop.mean()))
    omega0 = 2.0 * np.pi * np.fft.rfftfreq(pop.size, d=t[1] - t[0])[np.argmax(spec[1:]) + 1]
    popt, _ = curve_fit(lambda tt, omega, vis, phase: vis * np.sin(0.5 * omega * tt + phase) ** 2,
                        t, pop, p0=(omega0, min(np.ptp(pop), 1.0), 0.0),
                        bounds=([0.25 * omega0, 0.0, -np.pi], [4.0 * omega0, 1.5, np.pi]),
                        maxfev=20000)
    return popt[0]


def test_c3_rabi_frequency_regression(bundled_run):
    mono_expected = 200.0**2 / (8.0 * MC2_EV)
    bi_expected = 2.35e4**2 * 2.35e4 * 200.0 / (2.0 * MC2_EV**3)

    fit_m = _plateau_fit(bundled_run, "mono-rabi")
    fit_b = _plateau_fit(bundled_run, "bichrom-rabi")
    dev_m = abs(fit_m.omega - mono_expected) / mono_expected
    dev_b = abs(fit_b.omega - bi_expected) / bi_expected

    dev_paper = abs(fit_b.omega - 9.73e-3) / 9.73e-3
    t_b_fs = 0.5 * np.pi / fit_b.omega * TIME_UNIT_FS
    dev_tb = abs(t_b_fs - 106.0) / 106.0

    ok = dev_m < 0.02 and dev_b < 0.02 and dev_paper < 0.02 and dev_tb < 0.02
    report(3, ok, f"mono fit {fit_m.omega:.4e} eV (dev {dev_m:.2%}), bichromatic fit "
                  f"{fit_b.omega:.4e} eV (dev {dev_b:.2%}, vs 9.73e-3: {dev_paper:.2%}), "
                  f"T_b = {t_b_fs:.1f} fs (dev {dev_tb:.2%})")


@pytest.mark.parametrize("name", ["mono-rabi", "bichrom-rabi"])
def test_c3_fit_matches_curve_fit(bundled_run, name):
    # fit_rabi's numpy least squares reaches the minimum that scipy's
    # curve_fit finds on C3's plateau traces
    t, pop = _plateau_trace(bundled_run, name)
    assert fit_rabi(t, pop).omega == pytest.approx(_curve_fit_omega(t, pop), rel=1e-6)


# -- 4 -----------------------------------------------------------------------

FAST_CONSERVATION = [
    ("fig2", "effective"),
    ("fig2-ideal", "effective"),
    ("mono-rabi", "effective"),
    ("bichrom-rabi", "effective"),
    ("desk-mono", "effective"),
    ("desk-mono", "full-field"),
    ("desk-mono", "mode-lattice"),
    ("desk-bichrom", "effective"),
    ("desk-bichrom", "full-field"),
]

SLOW_CONSERVATION = [
    ("desk-bichrom", "mode-lattice"),
    ("mono-rabi", "full-field"),
    ("bichrom-rabi", "full-field"),
    ("fig2-ideal", "full-field"),
]

CONSERVATION_CASES = [pytest.param(s, b, id=f"{s}-{b}") for s, b in FAST_CONSERVATION] + [
    pytest.param(s, b, id=f"{s}-{b}", marks=pytest.mark.slow) for s, b in SLOW_CONSERVATION
]


@pytest.mark.parametrize("name,backend", CONSERVATION_CASES)
def test_c4_conservation_suite(bundled_run, name, backend):
    ts = bundled_run(name, backend).timeseries
    norm_drift = float(np.max(np.abs(ts.norm_drift)))
    sy_drift = float(np.max(np.abs(ts.sy_total - ts.sy_total[0])))
    ok = norm_drift < 1e-8 and sy_drift < 1e-8
    report(4, ok, f"{name} [{backend}]: norm drift {norm_drift:.2e}, "
                  f"<sigma_y> drift {sy_drift:.2e}")


@pytest.mark.slow
def test_c4_conservation_mode_lattice_paper_scale():
    # the first 40 fs of fig2 on the mode lattice: the stiffest coupling
    # regime (bichromatic rise + plateau at paper amplitudes)
    from dataclasses import replace

    scn, _ = load_scenario("fig2", backend="mode-lattice")
    stage = scn.stages[0]
    short = replace(stage, envelope=replace(stage.envelope, plateau=fs_to_natural(28.0)))
    scn.stages = [short]
    scn.duration = fs_to_natural(40.0)
    result = run_scenario(scn)
    ts = result.timeseries
    norm_drift = float(np.max(np.abs(ts.norm_drift)))
    sy_drift = float(np.max(np.abs(ts.sy_total - ts.sy_total[0])))
    ok = norm_drift < 1e-8 and sy_drift < 1e-8
    report(4, ok, f"fig2 stage-1 head [mode-lattice]: norm drift {norm_drift:.2e}, "
                  f"<sigma_y> drift {sy_drift:.2e}")


# -- 5 -----------------------------------------------------------------------

def test_c5_free_gaussian_spreading():
    from spinsplit.propagation import PacketSpec, PropagationConfig, Scenario
    from spinsplit.units import um_to_natural

    sigma0 = um_to_natural(0.01)
    snapshots = []
    config = PropagationConfig(backend="full-field", grid_points=1024,
                               grid_length=um_to_natural(0.3),
                               on_snapshot=lambda i, t, psi: snapshots.append((t, psi)),
                               snapshot_every=fs_to_natural(50.0))
    scn = Scenario(packet=PacketSpec(0.0, sigma0, 0.0), stages=[],
                   duration=fs_to_natural(500.0), config=config)
    run_scenario(scn)
    worst = 0.0
    for t, psi in snapshots:
        expected = sigma0**2 * (1.0 + (t / (2.0 * MC2_EV * sigma0**2)) ** 2)
        worst = max(worst, abs(psi.position_variance() - expected) / expected)
    report(5, worst < 1e-6, f"max relative deviation of sigma(t)^2 over 500 fs: {worst:.2e}")


# -- 6 -----------------------------------------------------------------------

def test_c6_backend_cross_validation_desk_scale(bundled_run):
    import time

    t0 = time.time()
    pops = {}
    for backend in ("effective", "mode-lattice", "full-field"):
        rep = bundled_run("desk-mono", backend).final_report
        pops[backend] = (rep.pop_plus, rep.pop_minus)
    elapsed = time.time() - t0

    scn, _ = load_scenario("desk-mono")
    areas = stage_pulse_areas(scn.stages)
    u = stage_unitary("monochromatic", areas[0][3], 0.0)
    vec = u @ np.array([0, 0, 1, 0], dtype=complex)
    analytic = (float(np.sum(np.abs(vec[2:4]) ** 2)), float(np.sum(np.abs(vec[0:2]) ** 2)))

    values = list(pops.values())
    mutual = max(abs(a[i] - b[i]) for a in values for b in values for i in (0, 1))
    vs_analytic = max(abs(pops[b][i] - analytic[i]) for b in pops for i in (0, 1))
    ok = mutual < 0.02 and vs_analytic < 0.05 and elapsed < 60.0
    report(6, ok, f"mutual {mutual:.2%}, vs analytic {vs_analytic:.2%} "
                  f"(detuning+leakage residual), run time {elapsed:.0f}s; "
                  f"pops full-field={pops['full-field'][0]:.4f}/{pops['full-field'][1]:.4f}")


# -- 7 -----------------------------------------------------------------------

def test_c7_ideal_spin_splitter(bundled_run):
    from dataclasses import replace

    sums = {"plus": [0.0, 0.0], "minus": [0.0, 0.0]}  # [population, pop*sy]
    down, _ = load_scenario("fig2-ideal")
    down.packet = replace(down.packet, spin=np.array([0, 1], dtype=complex))
    # the bundled file's spin is up, on its own backend (effective)
    for rep in (bundled_run("fig2-ideal", "effective").final_report,
                run_scenario(down).final_report):
        sums["plus"][0] += 0.5 * rep.pop_plus
        sums["plus"][1] += 0.5 * rep.pop_plus * rep.sy_plus
        sums["minus"][0] += 0.5 * rep.pop_minus
        sums["minus"][1] += 0.5 * rep.pop_minus * rep.sy_minus
    pol_plus = abs(sums["plus"][1] / sums["plus"][0])
    pol_minus = abs(sums["minus"][1] / sums["minus"][0])
    ok = (pol_plus > 0.999 and pol_minus > 0.999
          and abs(sums["plus"][0] - 0.5) < 0.002 and abs(sums["minus"][0] - 0.5) < 0.002)
    report(7, ok, f"unpolarized-average channels: pops {sums['plus'][0]:.4f}/"
                  f"{sums['minus'][0]:.4f}, polarization degrees {pol_plus:.5f}/{pol_minus:.5f}")


# -- 8 -----------------------------------------------------------------------

@pytest.mark.slow
def test_c8_paper_parameter_reproduction():
    scn, _ = load_scenario("fig2")
    result = run_scenario(scn)
    rep = result.final_report
    ts = result.timeseries
    split = abs(rep.pop_plus - rep.pop_minus)
    ok = (abs(rep.poldeg_plus - 0.77) < 0.05 and abs(rep.poldeg_minus - 0.77) < 0.05
          and split > 0.01
          and float(np.max(np.abs(ts.norm_drift))) < 1e-8
          and float(np.max(np.abs(ts.sy_total - ts.sy_total[0]))) < 1e-8)
    report(8, ok, f"poldeg = {rep.poldeg_plus:.3f}/{rep.poldeg_minus:.3f} (target 0.77±0.05), "
                  f"pops {rep.pop_plus:.3f}/{rep.pop_minus:.3f} (split {split:.3f})")


@pytest.mark.slow
def test_paper_scale_bichromatic_full_field_rabi_fit():
    # [OP] fit_rabi example: a full-field trace of the published bichromatic
    # stage, fitted over half a (generalized) Rabi period.  The fitted
    # frequency is the detuning-shifted sqrt(Omega_b^2 + delta^2); the spec
    # expects it within 15% of Omega_b, with the shift reported.
    from dataclasses import replace

    scn, _ = load_scenario("fig2")
    stage = scn.stages[0]
    long_stage = replace(stage, envelope=replace(stage.envelope,
                                                 plateau=fs_to_natural(240.0)))
    scn.stages = [long_stage]
    scn.duration = long_stage.end + fs_to_natural(2.0)
    # 254 fs is not a multiple of fig2's 2.5 fs cadence; the runner says so
    with pytest.warns(UserWarning, match="does not divide"):
        result = run_scenario(scn)
    ts = result.timeseries
    lo = long_stage.start + long_stage.envelope.rise
    mask = (ts.t >= lo) & (ts.t <= lo + long_stage.envelope.plateau)
    fit = fit_rabi(ts.t[mask] - lo, ts.pop_minus[mask])
    omega_b = 2.35e4**2 * 2.35e4 * 200.0 / (2.0 * MC2_EV**3)
    dev = abs(fit.omega - omega_b) / omega_b
    print(f"[paper-scale bichromatic fit] omega_fit = {fit.omega:.4e} eV vs Omega_b = "
          f"{omega_b:.4e} eV (dev {dev:.1%}); visibility {fit.visibility:.3f}; "
          f"implied detuning {fit.detuning_offset:.3e} eV")
    assert dev < 0.15


@pytest.mark.slow
def test_desk_bichromatic_backend_agreement():
    # full-field vs mode-lattice on the resolved desk-scale bichromatic
    # stage: both capture the field-induced detuning and must agree; the
    # effective backend (no detuning) is the reference the shift is
    # measured against.
    pops = {}
    for backend in ("full-field", "mode-lattice"):
        scn, _ = load_scenario("desk-bichrom", backend=backend)
        rep = run_scenario(scn).final_report
        pops[backend] = (rep.pop_plus, rep.pop_minus)
    dev = max(abs(pops["full-field"][i] - pops["mode-lattice"][i]) for i in (0, 1))
    scn, _ = load_scenario("desk-bichrom", backend="effective")
    rep_eff = run_scenario(scn).final_report
    shift = abs(pops["full-field"][1] - rep_eff.pop_minus)
    print(f"[desk bichromatic] full-field pops {pops['full-field'][0]:.4f}/"
          f"{pops['full-field'][1]:.4f}, mode-lattice {pops['mode-lattice'][0]:.4f}/"
          f"{pops['mode-lattice'][1]:.4f} (mutual dev {dev:.2%}); detuning moves the "
          f"transfer by {shift:.3f} vs the effective backend")
    assert dev < 0.02


# -- 9 -----------------------------------------------------------------------

def test_c9_design_calculator_table():
    rep = paper_design_report(ToleranceBudget(dp_x=20.0))
    dev_i1 = abs(rep.intensity_1 - 7.6e19) / 7.6e19
    dpz_ok = abs(rep.momentum_acceptance - 0.031) < 5e-4 and rep.momentum_acceptance <= 0.04
    energy_ok = 25.0 <= rep.pulse_energy_mj <= 100.0
    noflip_exact = rep.no_flip_rabi == pytest.approx(
        2.5 * 20.0 / 200.0 * rep.hbar_rabi_bi, rel=1e-12)
    ok = dev_i1 < 0.03 and dpz_ok and energy_ok and noflip_exact
    report(9, ok, f"I1 = {rep.intensity_1:.3e} W/cm^2 (dev {dev_i1:.2%}), dpz/pz = "
                  f"{rep.momentum_acceptance:.4f}, pulse energy {rep.pulse_energy_mj:.1f} mJ, "
                  f"no-flip Rabi exact: {noflip_exact}")


@pytest.mark.xfail(strict=True, reason=(
    "Delta-y = v*T_b evaluates to 0.345 um from the published inputs "
    "(30 eV electron, exact Omega_b); the quoted 0.3 um is a one-significant-"
    "figure value (0.01c x 0.1 ps) and cannot be reproduced within 5% by the "
    "faithful formula chain."))
def test_c9_beam_width_within_five_percent():
    hbar_rabi_bi = 2.35e4**2 * 2.35e4 * 200.0 / (2.0 * MC2_EV**3)
    _, dy = interaction_geometry(hbar_rabi_bi, 30.0)
    ok = abs(dy - 0.3) / 0.3 < 0.05
    report(9, ok, f"beam width {dy:.4f} um vs 0.3 um +-5%")
