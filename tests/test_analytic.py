import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsplit.analytic import (
    ID4,
    KIND_BI,
    KIND_MONO,
    SIGMA_Y_TOTAL,
    EffectivePotential,
    coupling_matrix,
    effective_potential_value,
    evolve_density,
    rabi_frequency_bi,
    rabi_frequency_mono,
    stage_unitary,
    total_evolution,
)
from spinsplit.observables import bragg_channel_report
from spinsplit.states import (
    ID2,
    MINUS_BLOCK,
    PLUS_BLOCK,
    SIGMA_Y,
    unpolarized_density,
)
from spinsplit.units import MC2_EV, TIME_UNIT_FS

from taylor_expm import taylor_expm

ZERO2 = np.zeros((2, 2))

# Paper block forms, transcribed entrywise.
U1_SPLITTER = np.block([[ID2, -SIGMA_Y], [SIGMA_Y, ID2]]) / np.sqrt(2.0)


def u2_mirror(chi):
    return np.block([
        [ZERO2, -1j * np.exp(-1j * chi) * ID2],
        [-1j * np.exp(1j * chi) * ID2, ZERO2],
    ])


def u3_splitter(chi):
    return np.block([
        [ID2, -1j * np.exp(-1j * chi) * ID2],
        [-1j * np.exp(1j * chi) * ID2, ID2],
    ]) / np.sqrt(2.0)


SPIN_FILTER_TOTAL = 0.5 * np.block([
    [-ID2 - SIGMA_Y, -ID2 + SIGMA_Y],
    [ID2 - SIGMA_Y, -ID2 - SIGMA_Y],
])

Y_PLUS = np.array([1.0, 1.0j]) / np.sqrt(2.0)
Y_MINUS = np.array([1.0, -1.0j]) / np.sqrt(2.0)


class TestRabiFrequencies:
    def test_mono_zero(self):
        assert rabi_frequency_mono(0.0) == 0.0

    def test_mono_100ev(self):
        assert rabi_frequency_mono(100.0) == pytest.approx(1e4 / (8 * 5.11e5), rel=1e-3)
        assert rabi_frequency_mono(100.0) == pytest.approx(2.446e-3, rel=1e-3)

    def test_mono_200ev_and_pi_time(self):
        homega = rabi_frequency_mono(200.0)
        assert homega == pytest.approx(9.78e-3, rel=1e-3)
        t_pi_fs = np.pi / homega * TIME_UNIT_FS
        assert t_pi_fs == pytest.approx(212.0, rel=0.01)

    def test_bi_zero_when_a2_zero(self):
        assert rabi_frequency_bi(5e4, 0.0, 200.0) == 0.0

    def test_bi_paper_value(self):
        homega = rabi_frequency_bi(2.35e4, 2.35e4, 200.0)
        assert homega == pytest.approx(9.73e-3, rel=1e-3)

    def test_bi_xi_form_identity(self):
        # Omega_b = (1/2) w xi1^2 xi2
        ea1, ea2, hw = 2.35e4, 2.35e4, 200.0
        xi1, xi2 = ea1 / MC2_EV, ea2 / MC2_EV
        assert rabi_frequency_bi(ea1, ea2, hw) == pytest.approx(
            0.5 * hw * xi1**2 * xi2, rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rabi_frequency_mono(-1.0)
        with pytest.raises(ValueError):
            rabi_frequency_bi(-1.0, 1.0, 1.0)


class TestEffectivePotential:
    def test_mono_at_origin(self):
        pot = EffectivePotential.mono(100.0, 200.0, chi=0.0)
        np.testing.assert_allclose(effective_potential_value(pot, 0.0),
                                   pot.strength * ID2, atol=1e-15)

    def test_bichromatic_quarter_period(self):
        pot = EffectivePotential.bichromatic(2.35e4, 2.35e4, 200.0)
        z = 0.5 * np.pi / (4.0 * pot.wavenumber)  # 4kz = pi/2
        np.testing.assert_allclose(effective_potential_value(pot, z),
                                   -pot.strength * SIGMA_Y, atol=1e-12)

    def test_mono_strength_value(self):
        pot = EffectivePotential.mono(100.0, 200.0, chi=0.0)
        assert pot.strength == pytest.approx(2.446e-3, rel=1e-3)

    def test_period(self):
        pot = EffectivePotential.mono(100.0, 200.0, chi=0.0)
        assert pot.period == pytest.approx(np.pi / 400.0)
        z = np.linspace(0, 0.01, 7)
        for zz in z:
            np.testing.assert_allclose(
                effective_potential_value(pot, zz),
                effective_potential_value(pot, zz + pot.period), atol=1e-12)

    def test_hermitian(self, rng):
        for _ in range(10):
            kind = rng.choice(["monochromatic", "bichromatic"])
            pot = EffectivePotential(kind, rng.uniform(0, 1), 200.0, rng.uniform(-np.pi, np.pi))
            v = effective_potential_value(pot, rng.uniform(-1, 1))
            np.testing.assert_allclose(v, v.conj().T, atol=1e-14)


class TestStageUnitary:
    def test_identity_at_zero_area(self):
        for kind in ("monochromatic", "bichromatic"):
            np.testing.assert_allclose(stage_unitary(kind, 0.0), ID4, atol=1e-15)

    def test_bichromatic_half_pi_matches_splitter(self):
        np.testing.assert_allclose(stage_unitary("bichromatic", np.pi / 2),
                                   U1_SPLITTER, atol=1e-14)

    @pytest.mark.parametrize("chi", [0.0, np.pi / 2, -np.pi / 10, 1.234])
    def test_mono_pi_matches_mirror(self, chi):
        np.testing.assert_allclose(stage_unitary("monochromatic", np.pi, chi),
                                   u2_mirror(chi), atol=1e-14)

    @pytest.mark.parametrize("chi", [0.0, np.pi / 2, -np.pi / 10])
    def test_mono_half_pi_matches_splitter(self, chi):
        np.testing.assert_allclose(stage_unitary("monochromatic", np.pi / 2, chi),
                                   u3_splitter(chi), atol=1e-14)

    def test_mono_pi_at_chi_half_pi_swaps_blocks(self):
        # -i e^{-i pi/2} = -1: U = [[0, -1], [1, 0]] in block form
        u = stage_unitary("monochromatic", np.pi, np.pi / 2)
        expected = np.block([[ZERO2, -ID2], [ID2, ZERO2]])
        np.testing.assert_allclose(u, expected, atol=1e-14)

    @pytest.mark.parametrize("kind", ["monochromatic", "bichromatic"])
    @pytest.mark.parametrize("theta", [0.1, np.pi / 4, np.pi / 2, np.pi, 2 * np.pi])
    @pytest.mark.parametrize("chi", [0.0, np.pi / 10, -np.pi / 10, np.pi / 2])
    def test_matches_taylor_exponential_oracle(self, kind, theta, chi):
        oracle = taylor_expm(-0.5j * theta * coupling_matrix(kind, chi))
        np.testing.assert_allclose(stage_unitary(kind, theta, chi), oracle, atol=1e-10)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.sampled_from(["monochromatic", "bichromatic"]), st.floats(0.0, 2 * np.pi),
           st.floats(0.0, 2 * np.pi), st.floats(-np.pi, np.pi))
    def test_composition_is_unitary_and_commutes_with_total_sigma_y(self, kind, t1, t2, chi):
        # two pulses of one kind and chi compose to one pulse of the summed
        # area; the product is unitary and conserves the total sigma_y
        u = stage_unitary(kind, t1, chi) @ stage_unitary(kind, t2, chi)
        np.testing.assert_allclose(u, stage_unitary(kind, t1 + t2, chi), atol=1e-12)
        np.testing.assert_allclose(u @ u.conj().T, ID4, atol=1e-12)
        np.testing.assert_allclose(u @ SIGMA_Y_TOTAL, SIGMA_Y_TOTAL @ u, atol=1e-12)


class TestTotalEvolution:
    def test_matches_paper_at_chi_half_pi(self):
        np.testing.assert_allclose(total_evolution(np.pi / 2),
                                   SPIN_FILTER_TOTAL, atol=1e-12)

    def test_equals_explicit_product(self):
        for chi in (np.pi / 2, -np.pi / 10, 0.3):
            expected = u3_splitter(chi) @ u2_mirror(chi) @ U1_SPLITTER
            np.testing.assert_allclose(total_evolution(chi), expected, atol=1e-13)

    def test_y_plus_passes_with_sign_flip(self):
        u = total_evolution(np.pi / 2)
        vec = np.concatenate([np.zeros(2), Y_PLUS])
        np.testing.assert_allclose(u @ vec, -vec, atol=1e-12)

    def test_y_minus_reflects_with_sign_flip(self):
        u = total_evolution(np.pi / 2)
        vec = np.concatenate([np.zeros(2), Y_MINUS])
        expected = -np.concatenate([Y_MINUS, np.zeros(2)])
        np.testing.assert_allclose(u @ vec, expected, atol=1e-12)

    @pytest.mark.parametrize("chi", [0.0, np.pi / 2, -np.pi / 10, 2.2])
    def test_commutes_with_total_sigma_y(self, chi):
        u = total_evolution(chi)
        comm = u @ SIGMA_Y_TOTAL - SIGMA_Y_TOTAL @ u
        assert np.max(np.abs(comm)) < 1e-12


def block_traces(rho):
    """{"minus" | "plus": (tr(block), tr(sigma_y block) / tr(block))} of a
    4x4 density matrix, with <sigma_y> = 0 for an empty block."""
    out = {}
    for name, sl in (("minus", MINUS_BLOCK), ("plus", PLUS_BLOCK)):
        block = rho[sl, sl]
        pop = float(np.trace(block).real)
        out[name] = (pop, float(np.trace(SIGMA_Y @ block).real / pop) if pop > 0 else 0.0)
    return out


class TestDensityEvolution:
    def test_identity_leaves_density(self):
        rho = unpolarized_density(+2)
        u = stage_unitary("monochromatic", 0.0)
        np.testing.assert_allclose(evolve_density(u, rho), rho, atol=1e-15)

    def test_unpolarized_output_matches_paper(self):
        rho_out = evolve_density(total_evolution(np.pi / 2), unpolarized_density(+2))
        expected = 0.25 * np.block([[ID2 - SIGMA_Y, ZERO2], [ZERO2, ID2 + SIGMA_Y]])
        np.testing.assert_allclose(rho_out, expected, atol=1e-12)
        blocks = block_traces(rho_out)
        assert blocks["minus"][0] == pytest.approx(0.5, abs=1e-12)
        assert blocks["plus"][0] == pytest.approx(0.5, abs=1e-12)
        assert blocks["minus"][1] == pytest.approx(-1.0, abs=1e-12)
        assert blocks["plus"][1] == pytest.approx(+1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(stages=st.lists(st.tuples(st.sampled_from([KIND_MONO, KIND_BI]),
                                     st.floats(0.0, 2.0 * np.pi),
                                     st.floats(-np.pi, np.pi)), min_size=1, max_size=4),
           mode=st.sampled_from([-2, 2]))
    def test_unpolarized_channel_report_filters_the_density(self, stages, mode):
        # the analytic unpolarized row is the channel report of the ensemble's
        # two pure members; it must equal the block traces of U rho U^dagger
        u = ID4
        for kind, theta, chi in stages:
            u = stage_unitary(kind, theta, chi) @ u
        members = u[:, PLUS_BLOCK if mode == 2 else MINUS_BLOCK] / np.sqrt(2.0)
        report = bragg_channel_report(members)
        blocks = block_traces(evolve_density(u, unpolarized_density(mode)))
        assert report.pop_plus == pytest.approx(blocks["plus"][0], abs=1e-12)
        assert report.pop_minus == pytest.approx(blocks["minus"][0], abs=1e-12)
        assert report.sy_plus == pytest.approx(blocks["plus"][1], abs=1e-12)
        assert report.sy_minus == pytest.approx(blocks["minus"][1], abs=1e-12)

    def test_pure_state_consistency(self, rng):
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        vec /= np.linalg.norm(vec)
        rho = np.outer(vec, vec.conj())
        u = total_evolution(-np.pi / 10)
        direct = np.outer(u @ vec, (u @ vec).conj())
        np.testing.assert_allclose(evolve_density(u, rho), direct, atol=1e-12)

    def test_non_hermitian_rejected(self):
        rho = unpolarized_density()
        rho[0, 2] = 0.2
        with pytest.raises(ValueError):
            evolve_density(total_evolution(np.pi / 2), rho)

    def test_trace_and_positivity_preserved(self, rng):
        rho = unpolarized_density(+2)
        out = evolve_density(total_evolution(0.77), rho)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.min(np.linalg.eigvalsh(out)) > -1e-12


def test_bichromatic_full_transfer_phases():
    # A pi bichromatic pulse equals the square of the pi/2 splitter:
    # (0, |+>) -> (-|+>, 0) and (0, |->) -> (+|->, 0).
    u = stage_unitary("bichromatic", np.pi)
    np.testing.assert_allclose(u, U1_SPLITTER @ U1_SPLITTER, atol=1e-14)
    plus_in = np.concatenate([np.zeros(2), Y_PLUS])
    np.testing.assert_allclose(u @ plus_in, np.concatenate([-Y_PLUS, np.zeros(2)]), atol=1e-13)
    minus_in = np.concatenate([np.zeros(2), Y_MINUS])
    np.testing.assert_allclose(u @ minus_in, np.concatenate([Y_MINUS, np.zeros(2)]), atol=1e-13)


def test_entanglement_after_first_stage():
    from spinsplit.observables import spin_momentum_entanglement

    u1 = stage_unitary("bichromatic", np.pi / 2)
    vec = np.concatenate([np.zeros(2), np.array([1.0, 0.0])])  # (0, |up>)
    out = u1 @ vec
    assert spin_momentum_entanglement(out) == pytest.approx(1.0, abs=1e-10)
