import math

import numpy as np
import pytest
from dense_reference import plane_wave_characteristic_values

from jumpsqueeze._mathieu import (bound_level_count, characteristic_values,
                                  lattice_levels)
from jumpsqueeze.constants import HBAR, RB85_MASS, TWO_PI
from jumpsqueeze.lattice import (TrapParams, bound_state_count,
                                 coherent_alpha_from_shift, energy_gap,
                                 ground_state_widths, harmonic_frequency,
                                 mathieu_energy, shift_from_coherent_alpha)

Q_DEFAULT = 131.25


class TestTrapParams:
    def test_derived_quantities(self, trap):
        assert trap.depth_parameter == pytest.approx(Q_DEFAULT, rel=1e-12)
        assert trap.recoil_energy / (TWO_PI * HBAR) == pytest.approx(
            2e3, rel=1e-6)
        assert trap.x0 == pytest.approx(25.2978e-9, rel=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrapParams(-1.0, 1.0, RB85_MASS, 5e6, 1e-28)
        with pytest.raises(ValueError):
            TrapParams(1.0, 1.0, RB85_MASS, 5e6, -1e-28)


class TestMathieuEnergy:
    def test_ground_level_value(self):
        # three-term expansion at the published depth
        expected = (2 * math.sqrt(Q_DEFAULT) - 0.25
                    - 4.0 / (128.0 * math.sqrt(Q_DEFAULT)))
        assert mathieu_energy(0, Q_DEFAULT) == pytest.approx(expected,
                                                             rel=1e-14)
        assert mathieu_energy(0, Q_DEFAULT) == pytest.approx(22.660, abs=1e-2)

    def test_matches_diagonalization_low_levels(self):
        levels = lattice_levels(Q_DEFAULT, 8)
        for n in range(7):
            assert abs(mathieu_energy(n, Q_DEFAULT) - levels[n]) < 0.5

    def test_leading_term_sets_harmonic_frequency(self):
        for n in range(5):
            leading = 2 * (2 * n + 1) * math.sqrt(Q_DEFAULT)
            assert leading / (2 * n + 1) == pytest.approx(
                2 * math.sqrt(Q_DEFAULT))

    def test_harmonic_frequency_value(self, trap):
        omega = harmonic_frequency(Q_DEFAULT, trap.recoil_energy)
        assert omega / TWO_PI == pytest.approx(91.65e3, abs=0.2e3)
        # consistent with the nominal 93 kHz within 2 percent
        assert abs(omega / TWO_PI - 93e3) / 93e3 < 0.02

    def test_rejects_shallow_lattice(self):
        with pytest.raises(ValueError):
            mathieu_energy(0, 0.5)


class TestCharacteristicValues:
    @pytest.mark.parametrize("fourier_order", [80, 120])
    @pytest.mark.parametrize("sector", [0, 1])
    @pytest.mark.parametrize("q", [0.0, 1.0, Q_DEFAULT, 400.0])
    def test_matches_dense_plane_wave_matrix(self, q, sector, fourier_order):
        dense = plane_wave_characteristic_values(q, sector, fourier_order)
        split = characteristic_values(q, sector, len(dense) + 5,
                                      fourier_order)
        assert len(split) == len(dense) == 2 * fourier_order + 1 + sector
        # relative to the spectrum's scale: the dense solve itself is only
        # good to about 1e-10 absolute at the low values
        assert np.max(np.abs(split - dense)) <= 1e-12 * np.max(np.abs(dense))

    @pytest.mark.parametrize("sector", [0, 1])
    def test_free_values_are_exact(self, sector):
        ks = np.arange(-80 - sector, 81)
        assert np.array_equal(characteristic_values(0.0, sector, 1000),
                              np.sort((2.0 * ks + sector) ** 2))

    @pytest.mark.parametrize("q, sector, expected", [
        # a_0, b_2, a_2 (sector 0) and b_1, a_1 (sector 1) at q = 1 and 10,
        # from a 30-digit solve of the plane-wave matrix at fourier_order 30
        (1.0, 0, [-0.455138604107, 3.917024772998, 4.371300982735]),
        (1.0, 1, [-0.110248816992, 1.859108072514]),
        (10.0, 0, [-13.936979956659, -2.382158235957, 7.717369849780]),
        (10.0, 1, [-13.936552479250, -2.399142400036])])
    def test_high_precision_values(self, q, sector, expected):
        values = characteristic_values(q, sector, len(expected), 120)
        assert np.max(np.abs(values - expected)) < 1e-11

    def test_rejects_other_sectors(self):
        with pytest.raises(ValueError, match="sector"):
            characteristic_values(Q_DEFAULT, 2, 4)


class TestEnergyGap:
    def test_published_point(self, trap):
        gap = energy_gap(0, trap.omega1, trap.recoil_energy)
        assert gap / (TWO_PI * HBAR) == pytest.approx(91e3, rel=1e-6)
        drop = trap.recoil_energy / (HBAR * trap.omega1)
        assert drop == pytest.approx(0.0215, abs=5e-4)

    def test_harmonic_limit(self):
        omega = TWO_PI * 93e3
        for n in range(5):
            assert energy_gap(n, omega, 0.0) == pytest.approx(HBAR * omega)

    def test_gap_closes_at_top(self, trap):
        n_close = HBAR * trap.omega1 / trap.recoil_energy
        below = energy_gap(int(n_close) - 1, trap.omega1, trap.recoil_energy)
        above = energy_gap(int(n_close) + 1, trap.omega1, trap.recoil_energy)
        assert below > 0 > above


class TestBoundStateCount:
    def test_published_depth(self, trap):
        # the published 11 is the harmonic count: levels (n + 1/2) hbar
        # omega_harm below V0, with V0 / hbar omega_harm = 11.46
        hbar_omega = HBAR * harmonic_frequency(trap.depth_parameter,
                                               trap.recoil_energy)
        harmonic = sum(1 for n in range(100)
                       if (n + 0.5) * hbar_omega < trap.V0)
        assert harmonic == 11
        # the expansion's level 13 sits at 513.9 E_R, below V0 = 525 E_R
        assert bound_state_count(trap) == 14
        # the diagonalized level 14 sits at 524.2 E_R
        assert bound_level_count(trap.depth_parameter) == 15

    def test_within_one_of_diagonalization(self, trap):
        count = bound_state_count(trap)
        diag = bound_level_count(trap.depth_parameter)
        assert abs(count - diag) <= 1

    def test_monotone_in_depth(self, trap):
        counts = []
        for scale in (0.5, 1.0, 2.0, 4.0):
            params = TrapParams(trap.omega1, trap.omega2, trap.mass,
                                trap.lattice_wavenumber, trap.V0 * scale)
            counts.append(bound_state_count(params))
        assert counts == sorted(counts)
        assert counts[0] < counts[-1]

    def test_runaway_count_is_a_value_error(self, trap):
        # about 1e4 levels below V0: the counting loop gives up
        deep = TrapParams(trap.omega1, trap.omega2, trap.mass,
                          trap.lattice_wavenumber, trap.V0 * 1e9)
        with pytest.raises(ValueError, match="failed to terminate"):
            bound_state_count(deep)


class TestCoherentAlpha:
    def test_zero_shift(self, trap):
        assert coherent_alpha_from_shift(0.0, trap) == 0.0

    def test_first_principles_value(self, trap):
        assert coherent_alpha_from_shift(133e-9, trap) == pytest.approx(
            2.63, rel=0.01)
        assert coherent_alpha_from_shift(29.6e-9, trap) == pytest.approx(
            0.585, rel=0.01)

    def test_pinned_calibration_reaches_three(self, trap):
        pinned = TrapParams(trap.omega1, trap.omega2, trap.mass,
                            trap.lattice_wavenumber, trap.V0,
                            calibration=0.8762282736328867)
        assert coherent_alpha_from_shift(133e-9, pinned) == pytest.approx(
            3.00, abs=1e-3)

    def test_round_trip(self, trap):
        d = shift_from_coherent_alpha(1.7, trap)
        assert coherent_alpha_from_shift(d, trap) == pytest.approx(1.7,
                                                                   rel=1e-12)


class TestGroundStateWidths:
    def test_published_width(self, trap):
        _, _, width = ground_state_widths(trap)
        assert width == pytest.approx(0.0295, rel=0.01)
        assert width == pytest.approx(0.029565, rel=1e-3)

    def test_squeezed_ratios(self, trap):
        r_total = math.log(2.58)
        _, _, ground = ground_state_widths(trap)
        _, _, narrow = ground_state_widths(trap, r_total=r_total)
        _, _, wide = ground_state_widths(trap, r_total=-r_total)
        assert ground / narrow == pytest.approx(2.58, rel=1e-12)
        assert wide / ground == pytest.approx(2.58, rel=1e-12)

    def test_thermal_broadening(self, trap):
        _, _, ground = ground_state_widths(trap)
        _, _, broad = ground_state_widths(trap, nbar0=0.22)
        assert broad / ground == pytest.approx(math.sqrt(1.44), rel=1e-12)
