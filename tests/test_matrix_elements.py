import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import exact_elements
from dense_reference import thermal_density_matrix
from jumpsqueeze import fock
from jumpsqueeze.constants import MAX_INDEX
from jumpsqueeze.matrix_elements import (displacement_block_sq,
                                         displacement_matrix_element_sq,
                                         squeeze_block_sq,
                                         squeeze_matrix_element_sq,
                                         squeezed_thermal_moments)
from jumpsqueeze.selfcheck import (oracle_dim_for_displacement,
                                   oracle_dim_for_squeeze)

CORNERS = [(0, 0), (0, MAX_INDEX), (MAX_INDEX, 0), (MAX_INDEX, MAX_INDEX)]


def squeeze_block_oracle(r, n_max):
    """|<n|S(r)|l>|^2 block from the exact exponential at a faithful
    dimension."""
    dim = oracle_dim_for_squeeze(r, n_max)
    op = fock.squeeze_operator_exact(abs(r), 0.0, dim)
    block = np.abs(op[:n_max + 1, :n_max + 1]) ** 2
    return block.T if r < 0 else block


def displacement_block_oracle(alpha, n_max):
    dim = oracle_dim_for_displacement(alpha, n_max)
    op = fock.displacement_operator_exact(alpha, dim)
    return np.abs(op[:n_max + 1, :n_max + 1]) ** 2


class TestSqueezeElement:
    def test_vacuum_is_sech(self):
        for r in (0.1, 0.5, 1.0, 2.0):
            assert squeeze_matrix_element_sq(0, 0, r) == pytest.approx(
                1.0 / math.cosh(r), rel=1e-13)
        assert squeeze_matrix_element_sq(0, 0, 0.5) == pytest.approx(
            0.8868, abs=1e-4)

    def test_parity_selection_rule(self):
        assert squeeze_matrix_element_sq(1, 0, 0.7) == 0.0
        assert squeeze_matrix_element_sq(4, 3, 1.2) == 0.0

    def test_two_photon_closed_form(self):
        r = 0.5
        expected = 0.5 * math.tanh(r) ** 2 / math.cosh(r)
        assert squeeze_matrix_element_sq(2, 0, r) == pytest.approx(
            expected, rel=1e-13)
        assert squeeze_matrix_element_sq(2, 0, r) == pytest.approx(
            0.0947, abs=1e-4)

    def test_zero_amplitude_is_delta(self):
        assert squeeze_matrix_element_sq(3, 3, 0.0) == 1.0
        assert squeeze_matrix_element_sq(3, 5, 0.0) == 0.0

    def test_against_exact_operator(self):
        for r in (-1.1, 0.4, 0.9, 1.6):
            block = squeeze_block_oracle(r, 20)
            worst = max(abs(squeeze_matrix_element_sq(n, l, r) - block[n, l])
                        for n in range(21) for l in range(21))
            assert worst < 1e-8, f"r={r}: worst {worst}"

    def test_negative_amplitude_adjoint_relation(self):
        for n, l in [(0, 0), (2, 0), (4, 2), (7, 3), (10, 10)]:
            assert squeeze_matrix_element_sq(n, l, -0.8) == \
                squeeze_matrix_element_sq(l, n, 0.8)

    def test_column_sums_to_one(self):
        # sums taken to convergence of the squeezed-state support
        for r in (0.5, 1.6):
            for l in (0, 5, 10):
                top = min(513, int(40 + (l + 4) * math.cosh(2 * r) * 4))
                total = math.fsum(squeeze_matrix_element_sq(n, l, r)
                                  for n in range(top))
                assert total == pytest.approx(1.0, abs=1e-6)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            squeeze_matrix_element_sq(-1, 0, 0.5)
        with pytest.raises(ValueError):
            squeeze_matrix_element_sq(0, 0, 3.5)
        with pytest.raises(ValueError):
            squeeze_matrix_element_sq(0, 600, 0.5)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=40),
           st.integers(min_value=0, max_value=40),
           st.floats(min_value=-2.5, max_value=2.5))
    def test_is_probability(self, n, l, r):
        value = squeeze_matrix_element_sq(n, l, r)
        assert 0.0 <= value <= 1.0 + 1e-12


class TestDisplacementElement:
    def test_zero_is_delta(self):
        assert displacement_matrix_element_sq(4, 4, 0.0) == 1.0
        assert displacement_matrix_element_sq(4, 5, 0.0) == 0.0

    def test_poisson_from_ground(self):
        for n in range(6):
            expected = math.exp(-1.0) / math.factorial(n)
            assert displacement_matrix_element_sq(n, 0, 1.0) == pytest.approx(
                expected, rel=1e-13)
        assert displacement_matrix_element_sq(0, 0, 1.0) == pytest.approx(
            0.3679, abs=1e-4)

    def test_laguerre_zero(self):
        # L_1(1) = 0 makes <1|D(1)|1> vanish
        assert displacement_matrix_element_sq(1, 1, 1.0) < 1e-12

    def test_against_exact_operator(self):
        for alpha in (0.5, 1.0, 2.2, 3.0, 2.0 * np.exp(0.7j)):
            block = displacement_block_oracle(alpha, 20)
            worst = max(
                abs(displacement_matrix_element_sq(n, l, alpha) - block[n, l])
                for n in range(21) for l in range(21))
            assert worst < 1e-8, f"alpha={alpha}: worst {worst}"

    def test_phase_independent(self):
        for phase in (0.0, 0.9, 2.4):
            assert displacement_matrix_element_sq(
                5, 3, 1.3 * np.exp(1j * phase)) == pytest.approx(
                    displacement_matrix_element_sq(5, 3, 1.3), rel=1e-12)

    def test_column_sums_to_one(self):
        for alpha in (1.0, 3.0):
            for l in (0, 5, 10):
                top = int(40 + (l + abs(alpha) ** 2) * 6)
                total = math.fsum(displacement_matrix_element_sq(n, l, alpha)
                                  for n in range(top))
                assert total == pytest.approx(1.0, abs=1e-6)

    def test_symmetry_n_l(self):
        # |<n|D|l>|^2 = |<l|D|n>|^2 (D(-a) elements share |a|)
        for n, l in [(3, 7), (0, 4), (12, 5)]:
            assert displacement_matrix_element_sq(n, l, 1.7) == pytest.approx(
                displacement_matrix_element_sq(l, n, 1.7), rel=1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            displacement_matrix_element_sq(0, 0, 6.5)
        with pytest.raises(ValueError):
            displacement_matrix_element_sq(0, -2, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=40),
           st.integers(min_value=0, max_value=40),
           st.floats(min_value=0.0, max_value=5.0))
    def test_is_probability(self, n, l, alpha):
        value = displacement_matrix_element_sq(n, l, alpha)
        assert 0.0 <= value <= 1.0 + 1e-12


def sampled_entries(seed, count, same_parity):
    """``count`` seeded (n, l) pairs up to MAX_INDEX plus the corners;
    ``same_parity`` keeps n + l even (the nonzero squeeze entries)."""
    rng = np.random.default_rng(seed)
    n, l = rng.integers(0, MAX_INDEX + 1, size=(2, count))
    if same_parity:
        l = np.where((n + l) % 2, np.abs(l - 1), l)
    return CORNERS + [(int(a), int(b)) for a, b in zip(n, l)]


def assert_matches_reference(block, single, reference, entries):
    """Block entries within 1e-11 absolute and, where the reference
    exceeds 1e-300, 1e-9 relative of the exact-rational reference; the
    single-entry function agrees with the block."""
    for n, l in entries:
        ref = reference(n, l)
        assert abs(block[n, l] - ref) <= 1e-11, (n, l, block[n, l], ref)
        if ref > 1e-300:
            assert abs(block[n, l] - ref) <= 1e-9 * ref, (n, l, ref)
        assert single(n, l) == pytest.approx(block[n, l], rel=1e-12,
                                             abs=1e-300)


class TestBlocksAgainstExactReference:
    """The recurrences against exact rational sums over the whole index
    range, where the Fock oracle would need dimensions far above
    MAX_FOCK_DIM."""

    @pytest.mark.parametrize("r", [-3.0, -1.6, 0.05, 0.8, 2.2])
    def test_squeeze(self, r):
        assert_matches_reference(
            squeeze_block_sq(r, MAX_INDEX, MAX_INDEX),
            lambda n, l: squeeze_matrix_element_sq(n, l, r),
            lambda n, l: exact_elements.squeeze_sq(n, l, r),
            sampled_entries(int(1000 * (r + 3)), 8, same_parity=True))

    @pytest.mark.parametrize("alpha", [0.125, 1.5, 3.0 * np.exp(0.7j), 6.0])
    def test_displacement(self, alpha):
        assert_matches_reference(
            displacement_block_sq(alpha, MAX_INDEX, MAX_INDEX),
            lambda n, l: displacement_matrix_element_sq(n, l, alpha),
            lambda n, l: exact_elements.displacement_sq(n, l, alpha),
            sampled_entries(int(1000 * abs(alpha)), 24, same_parity=False))

    def test_blocks_are_symmetric_and_squeeze_even(self):
        block = squeeze_block_sq(1.3, 40, 30)
        assert block.shape == (41, 31)
        np.testing.assert_array_equal(block, squeeze_block_sq(-1.3, 40, 30))
        np.testing.assert_array_equal(block[:31], block[:31].T)
        full = displacement_block_sq(2.0, 40, 40)
        np.testing.assert_array_equal(full, full.T)
        np.testing.assert_array_equal(displacement_block_sq(2.0, 40, 30),
                                      full[:, :31])


class TestBatchedBlocks:
    """A 1-D array of amplitudes gives the stack of the blocks each one
    gives alone, bit for bit."""

    R_VALUES = [0.0, 0.3, -0.3, 1.4, 3.0]
    ALPHAS = [0.0, 0.7 * np.exp(0.4j), -1.3, 6.0]

    @pytest.mark.parametrize("n_max, l_max", [(20, 11), (60, 45), (0, 0),
                                              (5, 0)])
    @pytest.mark.parametrize("block_sq, amplitudes", [
        (squeeze_block_sq, R_VALUES), (displacement_block_sq, ALPHAS)])
    def test_stack_equals_per_amplitude_blocks(self, block_sq, amplitudes,
                                               n_max, l_max):
        stack = block_sq(np.array(amplitudes), n_max, l_max)
        assert stack.shape == (len(amplitudes), n_max + 1, l_max + 1)
        assert stack.flags.c_contiguous
        for row, amplitude in zip(stack, amplitudes):
            np.testing.assert_array_equal(row, block_sq(amplitude, n_max,
                                                        l_max))

    @pytest.mark.parametrize("block_sq, amplitude", [
        (squeeze_block_sq, 0.3), (displacement_block_sq, 0.7j)])
    def test_scalar_keeps_its_shape(self, block_sq, amplitude):
        for value in (amplitude, np.asarray(amplitude)):
            block = block_sq(value, 20, 11)
            assert block.shape == (21, 12) and block.flags.c_contiguous
        assert block_sq(np.array([amplitude]), 20, 11).shape == (1, 21, 12)

    @pytest.mark.parametrize("block_sq, batch, bad", [
        (squeeze_block_sq, [0.3, 3.5, 1.0], 3.5),
        (squeeze_block_sq, [-0.3, float("nan")], float("nan")),
        (squeeze_block_sq, [0.0, -math.inf], -math.inf),
        (displacement_block_sq, [1.0, 7.0], 7.0),
        (displacement_block_sq, [0.5j, 4.5 + 4.5j], 4.5 + 4.5j)])
    def test_out_of_range_amplitude_in_a_batch_is_named(self, block_sq,
                                                         batch, bad):
        with pytest.raises(ValueError) as alone:
            block_sq(bad, 20, 11)
        with pytest.raises(ValueError, match=re.escape(str(alone.value))):
            block_sq(np.array(batch), 20, 11)


class TestSqueezedThermalMoments:
    def test_zero_squeeze_is_thermal(self):
        m = squeezed_thermal_moments(0.4, 0.0)
        assert m.nbar_st == pytest.approx(0.4, rel=1e-14)
        assert m.dnbar_st == pytest.approx(math.sqrt(0.4 ** 2 + 0.4), rel=1e-14)

    def test_squeezed_vacuum(self):
        m = squeezed_thermal_moments(0.0, 1.1)
        assert m.nbar_st == pytest.approx(math.sinh(1.1) ** 2, rel=1e-14)
        assert m.dnbar_st == pytest.approx(
            math.sinh(2.2) / math.sqrt(2), rel=1e-14)

    def test_published_operating_point(self):
        m = squeezed_thermal_moments(0.22, 1.4)
        assert m.nbar_st == pytest.approx(5.442, abs=1e-3)

    def test_against_density_matrix_oracle(self):
        cases = [(0.22, 1.4, 256), (0.5, 1.6, 384), (0.0, 1.0, 128),
                 (0.35, 0.9, 128)]
        for nbar0, s, dim in cases:
            op = fock.squeeze_operator_exact(s, 0.0, dim)
            rho = fock.apply_unitary(op, thermal_density_matrix(nbar0, dim))
            probs = fock.number_distribution(rho)
            ns = np.arange(dim)
            mean = float(np.sum(probs * ns))
            sd = math.sqrt(float(np.sum(probs * ns * ns)) - mean * mean)
            m = squeezed_thermal_moments(nbar0, s)
            assert mean == pytest.approx(m.nbar_st, rel=1e-4)
            assert sd == pytest.approx(m.dnbar_st, rel=1e-4)

    def test_rejects_negative_occupation(self):
        with pytest.raises(ValueError):
            squeezed_thermal_moments(-0.1, 1.0)


class TestDistributionSignSymmetry:
    def test_squeezed_thermal_populations_ignore_sign(self):
        dim = 128
        rho0 = thermal_density_matrix(0.3, dim)
        plus = fock.squeeze_operator_exact(0.8, 0.0, dim)
        minus = fock.squeeze_operator_exact(-0.8, 0.0, dim)
        p_plus = fock.number_distribution(fock.apply_unitary(plus, rho0))
        p_minus = fock.number_distribution(fock.apply_unitary(minus, rho0))
        assert np.max(np.abs(p_plus - p_minus)) < 1e-10
