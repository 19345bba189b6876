import math

import numpy as np
import pytest

from jumpsqueeze import spectroscopy
from jumpsqueeze.constants import MAX_INDEX, TWO_PI
from jumpsqueeze.matrix_elements import (displacement_block_sq,
                                         squeeze_block_sq,
                                         squeeze_matrix_element_sq,
                                         squeezed_thermal_moments)
from jumpsqueeze.spectroscopy import (MAX_NBAR0, DecoherenceParams,
                                      RabiParams,
                                      amplified_distribution_decohered,
                                      default_l_max, nbar_from_R,
                                      rabi_flop_model, sideband_populations,
                                      thermal_weights, weighted_distribution)


def thermal_distribution(nbar0, n_max):
    return thermal_weights(nbar0, n_max)


def displaced_thermal(alpha, nbar0, n_max):
    return weighted_distribution(
        displacement_block_sq, alpha, nbar0, n_max)


class TestRabiParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            RabiParams(omega01=-1.0, gamma=0.0, pulse_t=1e-4)
        with pytest.raises(ValueError):
            RabiParams(omega01=1.0, gamma=0.0, pulse_t=1e-4, n_max=5)


class TestWeightedDistribution:
    def test_identity_element_returns_thermal(self):
        dist = weighted_distribution(
            lambda amplitudes, n_max, l_max: np.tile(
                np.eye(n_max + 1, l_max + 1), (len(amplitudes), 1, 1)),
            0.0, 0.22, 20)
        # the thermal weights stop at default_l_max, where their tail
        # mass falls below 1e-8
        l_max = default_l_max(0.22)
        expected = np.zeros(21)
        expected[:l_max + 1] = thermal_distribution(0.22, l_max)
        np.testing.assert_array_equal(dist, expected)

    def test_squeeze_element_cold_start(self):
        dist = weighted_distribution(
            squeeze_block_sq, 0.6, 0.0, 12)
        expected = [squeeze_matrix_element_sq(n, 0, 0.6) for n in range(13)]
        np.testing.assert_allclose(dist, expected, rtol=1e-12)

    def test_displacement_element_cold_start_is_poisson(self):
        alpha = 1.3
        dist = weighted_distribution(
            displacement_block_sq, alpha, 0.0, 15)
        mean = alpha ** 2
        expected = [math.exp(-mean) * mean ** n / math.factorial(n)
                    for n in range(16)]
        np.testing.assert_allclose(dist, expected, rtol=1e-10)

    def test_default_l_max_tail_rule(self):
        for nbar0 in (0.1, 0.22, 0.38, 1.0):
            l_max = default_l_max(nbar0)
            beta = nbar0 / (1 + nbar0)
            assert beta ** (l_max + 1) <= 1e-8
            assert beta ** l_max > 1e-8


    def test_max_nbar0_is_the_largest_within_max_index(self):
        assert default_l_max(MAX_NBAR0) <= MAX_INDEX
        assert default_l_max(math.nextafter(MAX_NBAR0, math.inf)) > MAX_INDEX


SWEEPS = [(squeeze_block_sq, [0.0, 0.3, -0.3, 1.4, 3.0, 0.9, 2.2]),
          (displacement_block_sq, [0.0, 0.7 * np.exp(0.4j), -1.3, 6.0, 2.5])]


class TestBatchedWeightedDistribution:
    """A sweep of amplitudes in one call gives, bit for bit, the
    distributions and sideband ratios of one call per amplitude."""

    @pytest.mark.parametrize("nbar0", [0.0, 0.22, 0.38])
    @pytest.mark.parametrize("block_sq, amplitudes", SWEEPS)
    def test_stack_equals_per_row_calls(self, block_sq, amplitudes, nbar0):
        stack = weighted_distribution(
            block_sq, np.array(amplitudes), nbar0, 20)
        assert stack.shape == (len(amplitudes), 21)
        l_max = default_l_max(nbar0)
        weights = thermal_weights(nbar0, l_max)
        for row, amplitude in zip(stack, amplitudes):
            alone = weighted_distribution(block_sq, amplitude, nbar0, 20)
            assert alone.shape == (21,)
            np.testing.assert_array_equal(row, alone)
            # and the plain product of one amplitude's block and weights
            np.testing.assert_array_equal(
                row, block_sq(amplitude, 20, l_max) @ weights)

    @pytest.mark.parametrize("chunk", [1, 2 * 21 * 12 + 1, 5 * 21 * 12])
    @pytest.mark.parametrize("block_sq, amplitudes", SWEEPS)
    def test_sweep_longer_than_a_chunk(self, monkeypatch, block_sq,
                                       amplitudes, chunk):
        amplitudes = np.array(amplitudes)
        whole = weighted_distribution(block_sq, amplitudes, 0.22, 20)
        monkeypatch.setattr(spectroscopy, "CHUNK_ELEMENTS", chunk)
        np.testing.assert_array_equal(
            weighted_distribution(block_sq, amplitudes, 0.22, 20), whole)

    @pytest.mark.parametrize("block_sq, amplitudes", SWEEPS)
    def test_sideband_stack_equals_per_row_calls(self, rabi, block_sq,
                                                 amplitudes):
        stack = weighted_distribution(
            block_sq, np.array(amplitudes), 0.22, 20)
        out = sideband_populations(stack, rabi)
        for i, row in enumerate(stack):
            alone = sideband_populations(row, rabi)
            assert (out.p_plus[i], out.p_minus[i], out.R[i]) == (
                alone.p_plus, alone.p_minus, alone.R)

    def test_one_distribution_gives_python_floats(self, rabi):
        out = sideband_populations(thermal_distribution(0.22, 20), rabi)
        assert all(type(v) is float for v in (out.p_plus, out.p_minus, out.R))

    def test_stack_rejects_a_degenerate_row(self, rabi):
        stack = np.vstack((thermal_distribution(0.22, 20), np.zeros(21)))
        with pytest.raises(ValueError, match="blue-sideband"):
            sideband_populations(stack, rabi)
        with pytest.raises(ValueError, match="1-D array"):
            sideband_populations(stack[None], rabi)


class TestSidebandPopulations:
    def test_ground_state_has_zero_red(self, rabi):
        dist = np.zeros(21)
        dist[0] = 1.0
        out = sideband_populations(dist, rabi)
        assert out.p_minus == 0.0
        assert out.R == 0.0
        assert out.p_plus > 0.0

    def test_thermal_baseline_matches_inversion_formula(self, rabi):
        # for a geometric distribution the red/blue ratio equals
        # nbar/(1+nbar) up to the n_max tail
        for nbar0 in (0.1, 0.22, 0.38):
            dist = thermal_distribution(nbar0, 40)
            out = sideband_populations(dist, rabi)
            assert out.R == pytest.approx(nbar0 / (1 + nbar0), abs=1e-6)
            assert out.R == pytest.approx(0.18, abs=0.03) or nbar0 != 0.22
            assert nbar_from_R(out.R) == pytest.approx(nbar0, abs=1e-5)

    def test_decayed_contrast_limit(self):
        rabi = RabiParams(omega01=TWO_PI * 5.4e3, gamma=1e9, pulse_t=4e-4)
        dist = thermal_distribution(0.22, 30)
        out = sideband_populations(dist, rabi)
        p0 = dist[0]
        total = dist[:21].sum()
        assert out.R == pytest.approx((total - p0) / total, rel=1e-9)

    def test_degenerate_input_rejected(self, rabi):
        with pytest.raises(ValueError):
            sideband_populations(np.zeros(10), rabi)

    def test_monotone_in_squeeze_amplitude(self, rabi):
        previous = -1.0
        for s in np.linspace(0.0, 1.6, 17):
            dist = weighted_distribution(
                squeeze_block_sq, s, 0.22, 20)
            value = sideband_populations(dist, rabi).R
            assert value > previous
            previous = value

    def test_sign_symmetric_in_amplitude(self, rabi):
        for s in (0.4, 1.0, 1.5):
            plus = weighted_distribution(
                squeeze_block_sq, s, 0.22, 20)
            minus = weighted_distribution(
                squeeze_block_sq, -s, 0.22, 20)
            r_plus = sideband_populations(plus, rabi).R
            r_minus = sideband_populations(minus, rabi).R
            assert r_plus == pytest.approx(r_minus, rel=1e-10)

    def test_cutoff_stability_for_measured_states(self, rabi):
        # states well inside the bound-state ceiling: doubling the cutoff
        # moves R by less than 1e-3 (the heavier states near the ceiling
        # shift at the percent level; see the decisions record)
        rabi20 = rabi
        rabi40 = RabiParams(rabi.omega01, rabi.gamma, rabi.pulse_t, n_max=40)
        states = [
            weighted_distribution(
                squeeze_block_sq, s, nbar0, 40)
            for s, nbar0 in [(0.0, 0.22), (0.4, 0.22), (0.75, 0.22),
                             (0.7, 0.38)]
        ] + [
            weighted_distribution(
                displacement_block_sq, a, nbar0, 40)
            for a, nbar0 in [(1.0, 0.22), (2.0, 0.38), (2.5, 0.35)]
        ]
        for dist in states:
            r20 = sideband_populations(dist, rabi20).R
            r40 = sideband_populations(dist, rabi40).R
            assert abs(r40 - r20) < 1e-3

    def test_cutoff_shift_at_ceiling_documented(self, rabi):
        # at the bound-state ceiling (nbar_st + dnbar_st ~ 11) the shift
        # grows to the percent scale; pin the measured behavior
        m = squeezed_thermal_moments(0.22, 1.3)
        assert m.nbar_st + m.dnbar_st == pytest.approx(11.2, abs=0.1)
        dist = weighted_distribution(
            squeeze_block_sq, 1.3, 0.22, 40)
        r20 = sideband_populations(dist, rabi).R
        r40 = sideband_populations(
            dist, RabiParams(rabi.omega01, rabi.gamma, rabi.pulse_t, 40)).R
        assert 1e-3 < abs(r40 - r20) < 2e-2


class TestNbarFromR:
    def test_values(self):
        assert nbar_from_R(0.0) == 0.0
        assert nbar_from_R(0.5) == pytest.approx(1.0)
        assert nbar_from_R(0.18) == pytest.approx(0.2195, abs=1e-3)

    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            nbar_from_R(1.0)
        with pytest.raises(ValueError):
            nbar_from_R(-0.1)


class TestAmplifiedDecohered:
    def test_fresh_state_is_displaced_thermal(self):
        dec = DecoherenceParams(Gamma=32e-6, t_prime=0.0)
        alpha_f = 1.8
        displaced = displaced_thermal(alpha_f, 0.35, 20)
        dist = amplified_distribution_decohered(displaced, alpha_f, 0.35, dec)
        np.testing.assert_allclose(dist, displaced, rtol=1e-12)

    def test_late_time_is_hot_thermal(self):
        dec = DecoherenceParams(Gamma=32e-6, t_prime=1.0)
        alpha_f = 1.8
        n_hot = 0.35 + alpha_f ** 2
        dist = amplified_distribution_decohered(
            displaced_thermal(alpha_f, 0.35, 20), alpha_f, 0.35, dec)
        expected = thermal_distribution(n_hot, 20)
        np.testing.assert_allclose(dist, expected, rtol=1e-10)

    def test_published_mixing_weight(self, trap):
        t_prime = math.pi / trap.omega1 + math.pi / trap.omega2
        dec = DecoherenceParams(Gamma=32e-6, t_prime=t_prime)
        assert dec.coherent_weight == pytest.approx(0.429, abs=1e-3)

    def test_normalized_within_tail(self):
        dec = DecoherenceParams(Gamma=32e-6, t_prime=20e-6)
        dist = amplified_distribution_decohered(
            displaced_thermal(1.5, 0.35, 40), 1.5, 0.35, dec)
        assert dist.sum() == pytest.approx(1.0, abs=1e-3)


class TestRabiFlopModel:
    def test_constant_background(self):
        assert rabi_flop_model(1e-4, A=0.3, B=0.0, C=0.0, gamma=9.8e3,
                               omega01=TWO_PI * 5.4e3, Theta=0.2,
                               t2=1e-3) == 0.3

    def test_time_zero(self):
        value = rabi_flop_model(0.0, A=0.1, B=0.5, C=0.7, gamma=9.8e3,
                                omega01=TWO_PI * 5.4e3, Theta=0.6, t2=1e-3)
        assert value == pytest.approx(0.1 + 0.5 * math.sin(0.6), rel=1e-12)

    def test_envelope_decay_time(self):
        gamma = 9.8e3
        t_e = 1.0 / gamma
        assert t_e == pytest.approx(102e-6, abs=1e-6)
        peak0 = rabi_flop_model(0.0, 0.0, 1.0, 0.0, gamma, TWO_PI * 5.4e3,
                                math.pi / 2, 1.0)
        peak_e = math.exp(-gamma * t_e)
        assert peak_e * peak0 == pytest.approx(math.exp(-1.0), rel=1e-9)
