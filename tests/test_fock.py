import math
import time
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import (density_factor, guard_band_population,
                             ladder_operators, thermal_density_matrix,
                             thermal_truncation_deficit)
from jumpsqueeze import fock
from jumpsqueeze.constants import MAX_FOCK_DIM
from jumpsqueeze.errors import TruncationError


class TestLadderOperators:
    def test_matrix_elements_d3(self):
        a, adag = ladder_operators(3)
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 1] = 1.0
        expected[1, 2] = math.sqrt(2)
        np.testing.assert_allclose(a, expected, atol=0)
        np.testing.assert_allclose(adag, expected.conj().T, atol=0)

    def test_number_operator(self):
        a, adag = ladder_operators(3)
        np.testing.assert_allclose(adag @ a, np.diag([0.0, 1.0, 2.0]), atol=1e-15)

    def test_truncated_commutator(self):
        a, adag = ladder_operators(64)
        comm = a @ adag - adag @ a
        np.testing.assert_allclose(comm[:63, :63], np.eye(63), atol=1e-13)
        # the top row carries the truncation artifact
        assert comm[63, 63] == pytest.approx(-63.0)

    def test_rejects_small_dim(self):
        with pytest.raises(ValueError):
            ladder_operators(1)


class TestMatrixExponential:
    def test_zero_gives_identity(self):
        np.testing.assert_allclose(
            fock.matrix_exponential(np.zeros((4, 4))), np.eye(4), atol=1e-15)

    def test_diagonal_phases(self):
        thetas = np.array([0.1, -0.4, 2.0])
        out = fock.matrix_exponential(np.diag(1j * thetas))
        np.testing.assert_allclose(out, np.diag(np.exp(1j * thetas)),
                                   atol=1e-14)

    def test_rejects_non_finite(self):
        bad = np.array([[0.0, np.inf], [0.0, 0.0]])
        with pytest.raises(ValueError):
            fock.matrix_exponential(bad)

    @pytest.mark.parametrize("bad", [
        [[0.0, 1.0], [1.0, 0.0]],          # Hermitian
        [[0.0, 1.0], [0.0, 0.0]],          # one triangle only
        [[1j, 2.0], [-2.0, 1j + 1e-9]],    # anti-Hermitian but for 1e-9
    ])
    def test_rejects_non_anti_hermitian(self, bad):
        with pytest.raises(ValueError, match="anti-Hermitian"):
            fock.matrix_exponential(np.array(bad))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.floats(min_value=0.1, max_value=50.0))
    def test_anti_hermitian_gives_unitary(self, seed, norm):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        k = m - m.conj().T
        k *= norm / np.linalg.norm(k, 2)
        u = fock.matrix_exponential(k)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(16), atol=1e-9)


class TestSqueezeOperator:
    def test_zero_amplitude_is_identity(self):
        np.testing.assert_allclose(fock.squeeze_operator_exact(0.0, 0.0, 32),
                                   np.eye(32), atol=1e-15)

    def test_vacuum_overlap_is_sech(self):
        s = fock.squeeze_operator_exact(0.5, 0.0, 64)
        sech = 1.0 / math.cosh(0.5)
        assert abs(s[0, 0]) ** 2 == pytest.approx(sech, abs=1e-10)
        assert abs(s[0, 0]) ** 2 == pytest.approx(0.8868, abs=1e-4)

    def test_two_photon_element(self):
        s = fock.squeeze_operator_exact(0.5, 0.0, 64)
        expected = 0.5 * math.tanh(0.5) ** 2 / math.cosh(0.5)
        assert abs(s[2, 0]) ** 2 == pytest.approx(expected, abs=1e-10)
        assert abs(s[2, 0]) ** 2 == pytest.approx(0.0947, abs=1e-4)

    def test_unitary_on_guarded_block(self):
        for r, theta in [(0.5, 0.0), (1.0, 0.7), (-0.8, 2.0)]:
            u = fock.squeeze_operator_exact(r, theta, 64)
            assert fock.validate_unitary(u) < 1e-10

    def test_rejects_overlarge_amplitude(self):
        with pytest.raises(ValueError):
            fock.squeeze_operator_exact(3.5, 0.0, 1024)

    def test_rejects_inadequate_dim_with_advice(self):
        with pytest.raises(TruncationError) as err:
            fock.squeeze_operator_exact(1.6, 0.0, 16)
        assert err.value.min_dim is not None
        assert err.value.min_dim > 16
        # the advised dimension actually works
        fock.squeeze_operator_exact(1.6, 0.0, err.value.min_dim)


class TestDisplacementOperator:
    def test_zero_is_identity(self):
        np.testing.assert_allclose(
            fock.displacement_operator_exact(0.0, 32), np.eye(32), atol=1e-15)

    def test_vacuum_poisson_p0(self):
        d = fock.displacement_operator_exact(1.0, 64)
        assert abs(d[0, 0]) ** 2 == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_coherent_mean_occupation(self):
        d = fock.displacement_operator_exact(3.0, 64)
        probs = np.abs(d[:, 0]) ** 2
        mean = float(np.sum(probs * np.arange(64)))
        assert mean == pytest.approx(9.0, abs=1e-4)

    def test_inverse_composition(self):
        d_plus = fock.displacement_operator_exact(1.3 + 0.4j, 64)
        d_minus = fock.displacement_operator_exact(-1.3 - 0.4j, 64)
        np.testing.assert_allclose(d_minus @ d_plus, np.eye(64), atol=1e-8)

    def test_rejects_overlarge(self):
        with pytest.raises(ValueError):
            fock.displacement_operator_exact(6.5, 256)


class TestFreeEvolution:
    def test_zero_time_identity(self):
        u = fock.free_evolution_operator(1e5, 0.0, 16)
        np.testing.assert_allclose(u, np.eye(16), atol=0)

    def test_full_period_identity(self):
        omega = 2 * math.pi * 93e3
        u = fock.free_evolution_operator(omega, 2 * math.pi / omega, 32)
        np.testing.assert_allclose(u, np.eye(32), atol=1e-9)

    def test_phases(self):
        u = fock.free_evolution_operator(2.0, 0.25, 8)
        np.testing.assert_allclose(np.diag(u),
                                   np.exp(-0.5j * np.arange(8)), atol=1e-14)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            fock.free_evolution_operator(1.0, -1e-9, 8)


class TestThermalState:
    def test_zero_temperature_is_ground(self):
        rho = thermal_density_matrix(0.0, 16)
        expected = np.zeros((16, 16))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(rho, expected, atol=0)

    def test_ground_population(self):
        rho = thermal_density_matrix(0.22, 64)
        assert rho[0, 0].real == pytest.approx(1.0 / 1.22, abs=1e-4)

    def test_truncation_deficit_negligible(self):
        assert thermal_truncation_deficit(0.22, 64) < 1e-30

    def test_geometric_law(self):
        rho = thermal_density_matrix(1.0, 64)
        probs = fock.number_distribution(rho)
        np.testing.assert_allclose(probs[:20], 0.5 ** (np.arange(20) + 1),
                                   rtol=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            thermal_density_matrix(-0.1, 16)

    @pytest.mark.parametrize("nbar0, dim", [(0.0, 2), (0.22, 16), (1.0, 64),
                                            (0.15, 161)])
    def test_factor_squares_to_the_dense_state(self, nbar0, dim):
        m = fock.thermal_factor(nbar0, dim)
        assert m.dtype == complex
        assert np.max(np.abs(m @ m.conj().T
                             - thermal_density_matrix(nbar0, dim))) < 1e-15

    def test_factor_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            fock.thermal_factor(-0.1, 16)

    def test_max_thermal_nbar0_is_the_tail_guard_edge(self):
        # the closed-form edge agrees with the guard itself to 1e-6
        edge = fock.MAX_THERMAL_NBAR0
        dim = MAX_FOCK_DIM
        fock.factor_populations(fock.thermal_factor(edge * (1 - 1e-6), dim))
        with pytest.raises(TruncationError, match="tail-mass guard"):
            fock.factor_populations(
                fock.thermal_factor(edge * (1 + 1e-6), dim))


class TestNumberDistribution:
    def test_ground_state(self):
        rho = thermal_density_matrix(0.0, 8)
        probs = fock.number_distribution(rho)
        np.testing.assert_allclose(probs, [1.0] + [0.0] * 7, atol=0)

    def test_squeezed_vacuum_parity(self):
        s = fock.squeeze_operator_exact(0.5, 0.0, 64)
        rho = fock.apply_unitary(s, thermal_density_matrix(0.0, 64))
        probs = fock.number_distribution(rho)
        assert np.max(probs[1::2]) < 1e-12

    def test_squeezed_thermal_keeps_parity_mixture(self):
        # squeezing only couples n to n +/- 2, so odd and even sectors
        # keep their thermal weights
        nbar = 0.3
        rho0 = thermal_density_matrix(nbar, 96)
        odd_before = fock.number_distribution(rho0)[1::2].sum()
        s = fock.squeeze_operator_exact(0.6, 0.0, 96)
        probs = fock.number_distribution(fock.apply_unitary(s, rho0))
        assert probs[1::2].sum() == pytest.approx(odd_before, abs=1e-9)

    def test_rejects_invalid_density(self):
        bad = np.eye(8, dtype=complex)  # trace 8
        with pytest.raises(ValueError):
            fock.number_distribution(bad)


class TestApplyUnitary:
    def test_identity_preserves(self):
        rho = thermal_density_matrix(0.5, 32)
        out = fock.apply_unitary(np.eye(32, dtype=complex), rho)
        np.testing.assert_allclose(out, rho, atol=1e-14)

    def test_trace_preserved(self):
        rho = thermal_density_matrix(0.4, 64)
        u = fock.squeeze_operator_exact(0.4, 0.3, 64)
        out = fock.apply_unitary(u, rho)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-10)

    def test_squeeze_then_inverse_recovers(self):
        rho = thermal_density_matrix(0.22, 64)
        s = fock.squeeze_operator_exact(0.5, 0.0, 64)
        s_inv = fock.squeeze_operator_exact(-0.5, 0.0, 64)
        out = fock.apply_unitary(s_inv, fock.apply_unitary(s, rho))
        assert np.max(np.abs(out - rho)) < 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fock.apply_unitary(np.eye(8), thermal_density_matrix(0.1, 16))

    def test_tail_guard_rejects_leaky_state(self):
        # the operator itself fits at this dimension (vacuum tail rule),
        # but acting on a hot thermal state overfills the guard band
        rho = thermal_density_matrix(1.5, 64)
        s = fock.squeeze_operator_exact(1.0, 0.0, 64)
        with pytest.raises(TruncationError) as err:
            fock.apply_unitary(s, rho)
        assert "tail-mass guard" in str(err.value)

    def test_structured_step_has_the_same_tail_guard(self):
        rho = thermal_density_matrix(1.5, 64)
        with pytest.raises(TruncationError) as dense:
            fock.apply_unitary(fock.squeeze_operator_exact(1.0, 0.0, 64), rho)
        with pytest.raises(TruncationError) as structured:
            fock.apply_squeeze(1.0, fock.thermal_factor(1.5, 64))
        assert str(structured.value) == str(dense.value)
        assert structured.value.min_dim == dense.value.min_dim > 64


def _coherent_mixture(dim):
    """A thermal state displaced off the real axis: coherences between
    all levels, in both parity sectors."""
    return fock.apply_unitary(fock.displacement_operator_exact(0.5 + 0.2j, dim),
                              thermal_density_matrix(0.3, dim))


def _gram(m):
    return m @ m.conj().T


# thermal 0.15 at 512 has normal, subnormal and exactly zero populations
FACTOR_STATES = {"thermal": partial(thermal_density_matrix, 0.15),
                 "mixture": _coherent_mixture}
# their factors: the thermal one built as such, the mixture's by eigh
FACTORS = {"thermal": partial(fock.thermal_factor, 0.15),
           "mixture": lambda dim: density_factor(_coherent_mixture(dim))}


def _assert_raises_alike(expected, *calls):
    """Each of ``calls`` raises the error type, message and advisory
    ``min_dim`` of the ``pytest.raises`` info ``expected``."""
    for call in calls:
        with pytest.raises(expected.type) as got:
            call()
        assert str(got.value) == str(expected.value)
        assert getattr(got.value, "min_dim", None) == getattr(
            expected.value, "min_dim", None)


class TestCachedBases:
    """The operators built from the cached real eigenbases against the
    exponential of the dense complex generator, and the factor steps
    against the dense operators."""

    DIMS = [64, 160, 256, 512]

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("r, theta", [(0.3, 0.0), (-0.4, 0.3),
                                          (0.9, -1.2), (-1.0, 2.5)])
    def test_squeeze_matches_matrix_exponential(self, dim, r, theta):
        a, adag = ladder_operators(dim)
        xi = r * np.exp(2j * theta)
        reference = fock.matrix_exponential(
            0.5 * (np.conj(xi) * (a @ a) - xi * (adag @ adag)))
        got = fock.squeeze_operator_exact(r, theta, dim)
        assert np.max(np.abs(got - reference)) < 1e-12

    @pytest.mark.parametrize("dim", DIMS)
    @pytest.mark.parametrize("alpha", [0.7 * np.exp(0.4j), -1.3, 2.5j,
                                       -1.1 - 2.0j])
    def test_displacement_matches_matrix_exponential(self, dim, alpha):
        a, adag = ladder_operators(dim)
        reference = fock.matrix_exponential(alpha * adag - np.conj(alpha) * a)
        got = fock.displacement_operator_exact(alpha, dim)
        assert np.max(np.abs(got - reference)) < 1e-12

    # odd dimensions give parity blocks of unequal size
    @pytest.mark.parametrize("dim", [64, 161, 512])
    def test_structured_steps_match_dense(self, dim):
        for name, make_state in FACTOR_STATES.items():
            rho = make_state(dim)
            m = FACTORS[name](dim)
            # the steps run on a d x K factor
            assert m.shape[0] == dim and m.shape[1] < dim
            if name == "thermal":
                assert m.shape[1] == 23
            assert np.max(np.abs(_gram(m) - rho)) < 1e-12
            for r, theta in ((0.45, 0.0), (-0.6, 0.0), (0.45, 1.1)):
                dense = fock.apply_unitary(
                    fock.squeeze_operator_exact(r, theta, dim), rho)
                assert np.max(np.abs(_gram(fock.apply_squeeze(r, m, theta))
                                     - dense)) < 1e-12
            for alpha in (1.2, -0.6, 0.3 - 0.9j):
                dense = fock.apply_unitary(
                    fock.displacement_operator_exact(alpha, dim), rho)
                assert np.max(np.abs(_gram(fock.apply_displacement(alpha, m))
                                     - dense)) < 1e-12
            omega, tau = 2 * math.pi * 93e3, 3.7e-6
            dense = fock.apply_unitary(
                fock.free_evolution_operator(omega, tau, dim), rho)
            assert np.max(np.abs(
                _gram(fock.apply_free_evolution(omega, tau, m))
                - dense)) < 1e-12

    # odd dimensions give parity blocks of unequal size
    @pytest.mark.parametrize("dim", [64, 161, 512])
    @pytest.mark.parametrize("size", [1, 2, 21, 64])
    def test_leading_block_matches_the_full_operator(self, dim, size):
        builds = [partial(fock.squeeze_operator_exact, r, theta, dim)
                  for r, theta in ((0.4, 0.0), (-0.9, 0.3), (1.1, -1.2))]
        builds += [partial(fock.displacement_operator_exact, alpha, dim)
                   for alpha in (0.7 * np.exp(0.4j), -1.3, 2.5j)]
        for build in builds:
            full, block = build(), build(size=size)
            assert block.shape == (size, size)
            assert np.max(np.abs(block - full[:size, :size])) <= 1e-15
            # the whole operator is the default, bit for bit
            assert np.array_equal(build(size=dim), full)
        # a zero amplitude gives the exact identity, of any size
        for zero in (partial(fock.squeeze_operator_exact, 0.0, 0.7, dim),
                     partial(fock.displacement_operator_exact, 0.0, dim)):
            assert np.array_equal(zero(size=size), np.eye(size))
            assert np.array_equal(zero(), np.eye(dim))

    @pytest.mark.parametrize("size", [0, -1, 65])
    def test_block_size_outside_the_dimension_is_rejected(self, size):
        for build in (partial(fock.squeeze_operator_exact, 0.4, 0.0, 64),
                      partial(fock.displacement_operator_exact, 1.3, 64),
                      partial(fock.squeeze_operator_exact, 0.0, 0.0, 64)):
            with pytest.raises(ValueError, match="block size must lie in "
                               f"1..64, got {size}"):
                build(size=size)

    def test_thermal_state_reaches_subnormal_and_zero_populations(self):
        p = np.diag(FACTOR_STATES["thermal"](512)).real
        tiny = np.finfo(float).tiny
        assert np.any((p > 0) & (p < tiny)) and np.any(p == 0)
        # the factor's entries sqrt(p) stay normal wherever p is not zero
        root = np.diag(FACTORS["thermal"](512)).real
        assert np.all((root == 0) | (root > 1e-162))

    @pytest.mark.parametrize("state", sorted(FACTOR_STATES))
    def test_step_sequence_matches_dense(self, state):
        dim = 512
        rho = FACTOR_STATES[state](dim)
        # the steps take a factor in either memory order
        m = np.asfortranarray(FACTORS[state](dim))
        omega, tau = 2 * math.pi * 93e3, 3.7e-6
        for factor_step, operator in (
                (partial(fock.apply_squeeze, 0.7),
                 fock.squeeze_operator_exact(0.7, 0.0, dim)),
                (partial(fock.apply_free_evolution, omega, tau),
                 fock.free_evolution_operator(omega, tau, dim)),
                (partial(fock.apply_squeeze, -0.7),
                 fock.squeeze_operator_exact(-0.7, 0.0, dim)),
                (partial(fock.apply_displacement, 0.8 - 0.3j),
                 fock.displacement_operator_exact(0.8 - 0.3j, dim))):
            m, rho = factor_step(m), fock.apply_unitary(operator, rho)
        assert np.max(np.abs(_gram(m) - rho)) < 1e-12

    @pytest.mark.parametrize("amplitude, dim", [
        (3.5, 64), (-3.01, 1024), (float("nan"), 64), (float("inf"), 64),
        (1.6, 16), (-1.6, 64)])
    def test_squeeze_paths_raise_alike(self, amplitude, dim):
        with pytest.raises((ValueError, TruncationError)) as dense:
            fock.squeeze_operator_exact(amplitude, 0.0, dim)
        _assert_raises_alike(
            dense, partial(fock.squeeze_operator_exact, amplitude, 0.0, dim,
                           size=min(dim, 21)),
            partial(fock.apply_squeeze, amplitude,
                    fock.thermal_factor(0.0, dim)))

    @pytest.mark.parametrize("alpha, dim", [
        (6.5, 64), (4.0 + 5.0j, 64), (complex(float("inf"), 0.0), 64),
        (complex(0.0, float("nan")), 64), (4.0, 16), (-2.5j, 24)])
    def test_displacement_paths_raise_alike(self, alpha, dim):
        with pytest.raises((ValueError, TruncationError)) as dense:
            fock.displacement_operator_exact(alpha, dim)
        _assert_raises_alike(
            dense, partial(fock.displacement_operator_exact, alpha, dim,
                           size=min(dim, 21)),
            partial(fock.apply_displacement, alpha,
                    fock.thermal_factor(0.0, dim)))

    def test_out_of_range_amplitude_fails_fast(self):
        # the amplitude bound is checked before the dimension search, which
        # would otherwise take minutes for an amplitude this large
        started = time.perf_counter()
        with pytest.raises(ValueError, match="exceeds supported amplitude"):
            fock.apply_squeeze(7.2, fock.thermal_factor(0.0, 64))
        assert time.perf_counter() - started < 1.0

    def test_caches_are_bounded_and_read_only(self):
        for basis_fn in (fock.squeeze_basis, fock.displacement_basis):
            maxsize = basis_fn.cache_info().maxsize
            assert maxsize is not None and 0 < maxsize < 64
            for _, lam, vt in basis_fn(32):
                assert not lam.flags.writeable
                assert not vt.flags.writeable

    def test_bases_are_orthogonal(self):
        for basis_fn in (fock.squeeze_basis, fock.displacement_basis):
            for _, _, vt in basis_fn(96):
                eye = np.eye(len(vt))
                assert np.max(np.abs(vt @ vt.T - eye)) < 1e-12


class TestLowRankFactor:
    """The rank cut of :func:`fock.thermal_factor` and
    :func:`dense_reference.density_factor`, the zero steps and
    :func:`fock.factor_populations`."""

    @pytest.mark.parametrize("nbar0, columns", [(0.0, 1), (0.15, 23),
                                                (0.22, 27), (0.35, 35)])
    def test_thermal_factor_keeps_the_weighted_levels(self, nbar0, columns):
        dim = 512
        p = np.diagonal(thermal_density_matrix(nbar0, dim)).real
        m = fock.thermal_factor(nbar0, dim)
        assert m.shape == (dim, columns)
        # column k is sqrt(p_k) e_k: the levels 0 .. K-1, nothing else
        expected = np.zeros((dim, columns))
        expected[np.arange(columns), np.arange(columns)] = np.sqrt(p[:columns])
        assert np.array_equal(m, expected)
        assert p[columns:].sum() < 1e-19
        assert np.all(p[columns:] <= 1e-20 * p[0])

    def test_non_diagonal_state_drops_eigenvalues_below_the_cut(self):
        # rank 3 in 32 levels, one weight far below the cut: eigh returns
        # the other 29 or 30 eigenvalues as round-off of either sign
        dim = 32
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.normal(size=(dim, 3))
                            + 1j * rng.normal(size=(dim, 3)))
        rho = (q * [0.6, 0.4 - 1e-25, 1e-25]) @ q.conj().T
        rho = 0.5 * (rho + rho.conj().T)
        lam = np.linalg.eigvalsh(rho)
        kept = np.count_nonzero(lam > 1e-20 * lam.max())
        m = density_factor(rho)
        assert m.shape == (dim, kept) and 2 <= kept < dim
        assert np.min(np.einsum("ij,ij->j", m.conj(), m).real) > 1e-20 * 0.6
        assert np.max(np.abs(_gram(m) - rho)) < 1e-15

    @pytest.mark.parametrize("state", sorted(FACTOR_STATES))
    def test_zero_steps_return_the_factor_unchanged(self, state):
        m = FACTORS[state](64)
        assert np.array_equal(fock.apply_squeeze(0.0, m, 0.7), m)
        assert np.array_equal(fock.apply_squeeze(-0.0, m), m)
        assert np.array_equal(fock.apply_displacement(0.0, m), m)
        assert np.array_equal(fock.apply_displacement(0j, m), m)

    def test_zero_steps_fetch_no_basis(self):
        # a zero amplitude needs no eigenbasis, cold or cached
        lookups = [basis_fn.cache_info()[:2] for basis_fn in (
            fock.squeeze_basis, fock.displacement_basis)]
        m = fock.thermal_factor(0.22, 1000)
        assert fock.apply_squeeze(0.0, m) is not None
        assert fock.apply_displacement(0j, m) is not None
        assert fock.squeeze_operator_exact(0.0, dim=992).shape == (992, 992)
        assert [basis_fn.cache_info()[:2] for basis_fn in (
            fock.squeeze_basis, fock.displacement_basis)] == lookups

    @pytest.mark.parametrize("dim", [64, 161, 512])
    def test_populations_match_the_density_matrix(self, dim):
        for make_factor in FACTORS.values():
            m = make_factor(dim)
            for factor in (m, fock.apply_squeeze(0.45, m, 1.1),
                           fock.apply_displacement(0.3 - 0.9j, m)):
                got = fock.factor_populations(factor)
                dense = fock.number_distribution(
                    fock.density_from_factor(factor))
                assert np.max(np.abs(got - dense)) < 1e-15

    @pytest.mark.parametrize("drift, fails", [(2e-8, True), (-2e-8, True),
                                              (5e-9, False)])
    def test_populations_check_the_trace(self, drift, fails):
        m = fock.thermal_factor(0.22, 64) * math.sqrt(1.0 + drift)
        if fails:
            with pytest.raises(ValueError, match="trace .* deviates from 1"):
                fock.factor_populations(m)
        else:
            assert fock.factor_populations(m).sum() == pytest.approx(
                1.0 + drift, abs=1e-15)

    def test_one_trace_message_for_populations_and_updates(self):
        # factor_populations is the update check against trace 1, and an
        # update names the trace it started from
        m = fock.thermal_factor(0.22, 64) * math.sqrt(0.5)
        with pytest.raises(ValueError, match=r"^density matrix trace "
                           r"1\.0000000(2|19)\d* deviates from 1$"):
            fock.factor_populations(m * math.sqrt(2.0 + 4e-8))
        with pytest.raises(ValueError, match=r"^density matrix trace "
                           r"0\.5000000(2|19)\d* deviates from 0\.5$"):
            fock._checked_factor(m, m * math.sqrt(1.0 + 4e-8))


class TestEvolutionPopulations:
    """The phase series of :func:`fock.evolution_populations` against the
    dense route: free evolution, conjugation and number distribution."""

    OMEGA = 2 * math.pi * 93e3

    @staticmethod
    def _dense(u, rho, tau):
        evolve = fock.free_evolution_operator(TestEvolutionPopulations.OMEGA,
                                              tau, len(rho))
        return fock.number_distribution(fock.apply_unitary(
            u, fock.apply_unitary(evolve, rho)))

    @pytest.mark.parametrize("dim", [64, 161, 512])
    def test_matches_dense_route(self, dim):
        rho = fock.apply_unitary(
            fock.displacement_operator_exact(0.6, dim),
            fock.apply_unitary(fock.squeeze_operator_exact(0.5, 0.0, dim),
                               _coherent_mixture(dim)))
        u = fock.displacement_operator_exact(-0.6 + 0.1j, dim)
        populations = fock.evolution_populations(u, density_factor(rho))
        period = 2 * math.pi / self.OMEGA
        # at zero, off the figure grid, and at omega tau ~ 2 pi 10^3
        for tau in (0.0, 0.37 * period, 1000.12 * period):
            got = populations(self.OMEGA, tau)
            assert np.max(np.abs(got - self._dense(u, rho, tau))) < 1e-12

    def test_a_time_array_gives_the_stack_of_its_distributions(self):
        dim = 161
        u = fock.displacement_operator_exact(-0.6 + 0.1j, dim)
        populations = fock.evolution_populations(
            u, fock.apply_squeeze(0.5, fock.thermal_factor(0.3, dim)))
        taus = np.linspace(0.0, 3.0, 13) * 2 * math.pi / self.OMEGA
        stack = populations(self.OMEGA, taus)
        assert stack.shape == (13, dim)
        for tau, row in zip(taus, stack):
            single = populations(self.OMEGA, tau)
            assert single.shape == (dim,)
            assert np.max(np.abs(row - single)) < 1e-15
        with pytest.raises(ValueError, match="evolution time must be "
                           "nonnegative, got -1e-09"):
            populations(self.OMEGA, np.array([0.0, -1e-9, 1e-6]))

    def test_rejects_non_unitary_operator(self):
        u = 1.001 * fock.displacement_operator_exact(0.5, 64)
        with pytest.raises(ValueError, match="not unitary"):
            fock.evolution_populations(u, fock.thermal_factor(0.3, 64))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            fock.evolution_populations(np.eye(8), fock.thermal_factor(0.1, 16))

    def test_tail_guard_matches_dense_route(self):
        # the state fits, but displacing it further fills the guard band
        u = fock.displacement_operator_exact(3.0, 64)
        rho = fock.apply_unitary(u, thermal_density_matrix(0.3, 64))
        assert guard_band_population(rho) < fock.TAIL_TOL
        populations = fock.evolution_populations(
            u, fock.apply_displacement(3.0, fock.thermal_factor(0.3, 64)))
        with pytest.raises(TruncationError) as dense:
            self._dense(u, rho, 0.0)
        with pytest.raises(TruncationError) as series:
            populations(self.OMEGA, 0.0)
        assert "tail-mass guard" in str(series.value)
        assert series.value.min_dim == dense.value.min_dim > 64
        # so does a time array in which only that row fails
        period = 2 * math.pi / self.OMEGA
        with pytest.raises(TruncationError) as rows:
            populations(self.OMEGA, np.array([0.25, 0.5, 1.0]) * period)
        assert str(rows.value) == str(series.value)


class TestValidateDensity:
    @staticmethod
    def _with_lowest_eigenvalue(lowest, dim=32, seed=3):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(dim, dim))
                            + 1j * rng.normal(size=(dim, dim)))
        eigs = np.linspace(1.0, 2.0, dim)
        eigs *= (1.0 - lowest) / eigs[1:].sum()
        eigs[0] = lowest
        rho = (q * eigs) @ q.conj().T
        return 0.5 * (rho + rho.conj().T)

    @pytest.mark.parametrize("lowest", [-1e-11, 0.0])
    def test_accepts_tiny_or_zero_eigenvalue(self, lowest):
        rho = self._with_lowest_eigenvalue(lowest)
        assert fock.validate_density(rho) is rho

    def test_rejects_negative_eigenvalue_and_reports_it(self):
        rho = self._with_lowest_eigenvalue(-1e-9)
        with pytest.raises(ValueError, match=r"negative eigenvalue -1\.000e-09"):
            fock.validate_density(rho)

    def test_accepts_squeezed_thermal_state_at_dim_512(self):
        rho = _gram(fock.apply_squeeze(1.2, fock.thermal_factor(0.5, 512)))
        assert fock.validate_density(rho) is rho

    def test_rejects_non_square_diagonal(self):
        with pytest.raises(ValueError):
            fock.validate_density(np.eye(3, 4) / 3)

    @staticmethod
    def _diagonal(lowest=0.0, imag=0.0, scale=1.0, dim=32):
        p = thermal_density_matrix(0.4, dim).diagonal().copy()
        p[5] = lowest
        p *= scale / p.sum()
        p[3] += 1j * imag
        return np.diag(p)

    @staticmethod
    def _dense(lowest=0.0, imag=0.0, scale=1.0):
        rho = TestValidateDensity._with_lowest_eigenvalue(lowest) * scale
        rho[3, 4] += 1j * imag
        return rho

    @pytest.mark.parametrize("form", ["_diagonal", "_dense"])
    @pytest.mark.parametrize("fault, message", [
        ({"lowest": -1e-9}, r"negative eigenvalue -1\.00\de-09"),
        ({"imag": 1e-9}, r"not Hermitian \(deviation [12]\.000e-09\)"),
        ({"scale": 1.001}, r"trace 1\.00(09|1)\d* deviates from 1")])
    def test_factor_raises_like_validate_density(self, form, fault, message):
        rho = getattr(self, form)(**fault)
        with pytest.raises(ValueError, match=message) as validated:
            fock.validate_density(rho)
        with pytest.raises(ValueError) as factored:
            density_factor(rho)
        assert str(factored.value) == str(validated.value)

    def test_diagonal_check_agrees_with_cholesky_route(self):
        # a diagonal state meets the checks of one with a coherence: a
        # nonzero entry far off the diagonal changes no outcome
        for fault in ({"lowest": -1e-9}, {"lowest": -1e-11}, {},
                      {"imag": 1e-9}, {"imag": 4e-13}, {"scale": 1.001}):
            rho = self._diagonal(**fault)
            dense = rho.copy()
            dense[0, 31] = dense[31, 0] = 1e-300
            outcomes = []
            for state in (rho, dense):
                try:
                    fock.validate_density(state)
                    outcomes.append(None)
                except ValueError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]


class TestTailGuards:
    def test_accepted_states_have_small_tails(self):
        # representative in-envelope states at the default dimension
        dim = 64
        cases = [
            fock.apply_unitary(fock.squeeze_operator_exact(0.7, 0.0, dim),
                               thermal_density_matrix(0.22, dim)),
            fock.apply_unitary(fock.displacement_operator_exact(3.0, dim),
                               thermal_density_matrix(0.0, dim)),
        ]
        for rho in cases:
            assert guard_band_population(rho) < fock.TAIL_TOL


def _reference_squeeze_dim(r):
    """The tail-mass dimension search for S(r)|0>, written out step by
    step as the reference for the memoized shared search."""
    r = abs(r)
    if r == 0:
        return 2
    dim = 16
    while True:
        p = fock.squeezed_vacuum_populations(r, dim + fock.GUARD_BAND)
        if max(p[dim - fock.GUARD_BAND:dim].sum(),
               p[dim:].sum()) < fock.TAIL_TOL:
            return dim
        dim += 16


def _reference_displacement_dim(alpha):
    mean = abs(alpha) ** 2
    if mean == 0:
        return 2
    dim = 16
    while True:
        p = np.zeros(dim)
        p[0] = math.exp(-mean)
        for k in range(1, dim):
            p[k] = p[k - 1] * mean / k
        if (p[dim - fock.GUARD_BAND:].sum()
                + max(0.0, 1.0 - p.sum()) < fock.TAIL_TOL):
            return dim
        dim += 16


class TestMinimumDimensions:
    def test_squeeze_dim_matches_reference(self):
        for r in np.linspace(-3.0, 3.0, 241):
            assert fock.min_squeeze_dim(r) == _reference_squeeze_dim(r), r

    def test_displacement_dim_matches_reference(self):
        for magnitude in np.linspace(0.0, 6.0, 241):
            for alpha in (magnitude, -magnitude, magnitude * np.exp(0.7j)):
                assert (fock.min_displacement_dim(alpha)
                        == _reference_displacement_dim(alpha)), alpha

    @pytest.mark.parametrize("min_dim, amplitude, message", [
        (fock.min_squeeze_dim, 3.5,
         r"\|r\| = 3.5 exceeds supported amplitude 3.0"),
        (fock.min_squeeze_dim, -3.5, r"\|r\| = 3.5 exceeds"),
        (fock.min_squeeze_dim, float("nan"), r"\|r\| must be finite, got nan"),
        (fock.min_displacement_dim, 7.0,
         r"\|alpha\| = 7.0 exceeds supported amplitude 6.0"),
        (fock.min_displacement_dim, -7j, r"\|alpha\| = 7.0 exceeds"),
        (fock.min_displacement_dim, complex(float("nan"), 1.0),
         r"\|alpha\| must be finite, got nan")])
    def test_amplitude_is_checked_before_the_search(self, min_dim, amplitude,
                                                     message):
        with pytest.raises(ValueError, match=message):
            min_dim(amplitude)

    def test_repeat_is_memoized(self):
        fock.min_squeeze_dim(1.2345)
        fock.min_displacement_dim(2.345)
        hits = fock._min_tail_dim.cache_info().hits
        assert fock.min_squeeze_dim(-1.2345) == _reference_squeeze_dim(1.2345)
        assert fock.min_displacement_dim(2.345j) == \
            _reference_displacement_dim(2.345)
        assert fock._min_tail_dim.cache_info().hits == hits + 2
