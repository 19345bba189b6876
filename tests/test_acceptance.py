"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with the measured worst-case value at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math

import numpy as np
import pytest

from conftest import distribution_tvd
from dense_reference import thermal_density_matrix
from jumpsqueeze import fock
from jumpsqueeze._mathieu import bound_level_count
from jumpsqueeze.bogoliubov import (BogoliubovPair, bogoliubov_from_jump,
                                    compose_jump, compose_wait, invert_pair,
                                    squeeze_params_from_pair, squeezing_db)
from jumpsqueeze.constants import HBAR, TWO_PI
from jumpsqueeze.figures import build_spec, emit_csv, generate
from jumpsqueeze.lattice import (TrapParams, bound_state_count,
                                 coherent_alpha_from_shift,
                                 ground_state_widths, harmonic_frequency)
from jumpsqueeze.matrix_elements import (displacement_block_sq,
                                         displacement_matrix_element_sq,
                                         squeeze_block_sq,
                                         squeeze_matrix_element_sq,
                                         squeezed_thermal_moments)
from jumpsqueeze.protocol import (amplified_alpha, builtin_protocol,
                                  implied_state, run_fock, run_symplectic)
from jumpsqueeze.selfcheck import (oracle_dim_for_displacement,
                                   oracle_dim_for_squeeze)
from jumpsqueeze.spectroscopy import (RabiParams, sideband_populations,
                                      weighted_distribution)


def report(number, name, passed, detail):
    print(f"criterion {number} ({name}): "
          f"{'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_oracle_equivalence():
    n_max = 20
    worst = 0.0
    for r in (-1.6, -1.2, -0.8, -0.4, 0.4, 0.8, 1.2, 1.6):
        dim = oracle_dim_for_squeeze(r, n_max)
        op = fock.squeeze_operator_exact(abs(r), 0.0, dim)
        block = np.abs(op[:n_max + 1, :n_max + 1]) ** 2
        if r < 0:
            block = block.T
        for n in range(n_max + 1):
            for l in range(n_max + 1):
                worst = max(worst, abs(
                    squeeze_matrix_element_sq(n, l, r) - block[n, l]))
    # oracle-dimension convergence guard at the grid corner
    big = fock.squeeze_operator_exact(1.6, 0.0,
                                      2 * oracle_dim_for_squeeze(1.6, n_max))
    corner = np.abs(big[:n_max + 1, :n_max + 1]) ** 2
    ref = np.abs(fock.squeeze_operator_exact(
        1.6, 0.0, oracle_dim_for_squeeze(1.6, n_max))[:21, :21]) ** 2
    converged = np.max(np.abs(corner - ref))
    for alpha in (0.5, 1.2, 2.0, 3.0,
                  3.0 * np.exp(0.6j), 1.5 * np.exp(2.2j)):
        dim = oracle_dim_for_displacement(alpha, n_max)
        op = fock.displacement_operator_exact(alpha, dim)
        block = np.abs(op[:n_max + 1, :n_max + 1]) ** 2
        for n in range(n_max + 1):
            for l in range(n_max + 1):
                worst = max(worst, abs(
                    displacement_matrix_element_sq(n, l, alpha) - block[n, l]))
    passed = worst < 1e-8 and converged < 1e-10
    report(1, "oracle equivalence of closed-form matrix elements", passed,
           f"worst |delta| = {worst:.3e} (tol 1e-8), oracle convergence "
           f"{converged:.3e}")


def test_criterion_2_jump_amplitude(trap):
    _, r = bogoliubov_from_jump(trap.omega1, trap.omega2)
    res = run_symplectic(builtin_protocol("S_minus_2r", trap), trap)
    r_eff = squeeze_params_from_pair(res.pair).r
    passed = abs(2 * r - 1.397) <= 0.01 and abs(r_eff - 1.397) <= 0.01
    report(2, "93 kHz -> 23 kHz jump amplitude", passed,
           f"2r = {2 * r:.6f}, protocol amplitude {r_eff:.6f} "
           f"(published 1.4, tol 1.397 +/- 0.01)")


def test_criterion_3_jump_and_return_unitarity(config):
    spec = build_spec("fig2b", config.trap, config.rabi)
    table = generate(spec)
    baseline = 0.22 / 1.22
    worst = float(np.max(np.abs(table.columns["R"] - baseline)))
    passed = worst < 1e-8
    report(3, "immediate jump-and-return leaves R at the thermal baseline",
           passed, f"max |R - {baseline:.6f}| = {worst:.3e} (tol 1e-8)")


def test_criterion_4_oscillation_periods(trap):
    period_2c = math.pi / trap.omega2 * 1e6
    period_3c = TWO_PI / trap.omega1 * 1e6
    checks = [
        ("squeezed-state sweep", period_2c, 21.8),
        ("coherent-state sweep", period_3c, 10.5),
        ("displaced-squeezed sweep", period_3c, 10.6),
    ]
    passed = all(abs(theory - fitted) <= 0.3 for _, theory, fitted in checks)
    detail = "; ".join(f"{name}: theory {theory:.3f} us vs fitted "
                       f"{fitted} us" for name, theory, fitted in checks)
    report(4, "oscillation periods within 0.3 us of fitted values", passed,
           detail)


def test_criterion_5_velocity_widths(trap):
    _, _, width = ground_state_widths(trap)
    width_ok = abs(width - 0.0295) <= 0.01 * 0.0295
    r_total = math.log(2.58)
    _, _, narrow = ground_state_widths(trap, r_total=r_total)
    _, _, wide = ground_state_widths(trap, r_total=-r_total)
    ratios_exact = (width / narrow == pytest.approx(2.58, rel=1e-12)
                    and wide / width == pytest.approx(2.58, rel=1e-12))
    dev_momentum = abs(2.43 - 2.58) / 2.58
    dev_position = abs(2.18 - 2.58) / 2.58
    passed = width_ok and ratios_exact
    report(5, "ground-state velocity width and squeezed-width ratios",
           passed,
           f"1/e^2 width {width * 100:.4f} cm/s (2.95 +/- 1%), theory "
           f"ratios e^(+/-ln 2.58) exact; measured 2.43(8)/2.18(8) deviate "
           f"{dev_momentum:.1%}/{dev_position:.1%}")


def test_criterion_6_amplification(trap):
    worst_rel = 0.0
    for alpha_i, r in [(0.3, 0.2), (0.67, 0.615), (1.0 + 0.4j, 0.5)]:
        res = run_symplectic(
            builtin_protocol("amplify", trap, alpha_i=abs(alpha_i), r=r),
            trap)
        gain = abs(res.displacement) / abs(alpha_i)
        worst_rel = max(worst_rel, abs(gain - math.exp(2 * r))
                        / math.exp(2 * r))
    published = amplified_alpha(0.67, 1.23 / 2)
    res = run_symplectic(
        builtin_protocol("amplify", trap, alpha_i=0.67, r=1.23 / 2), trap)
    value_ok = abs(abs(res.displacement) - 2.292) <= 1e-3
    phase = math.atan2(res.displacement.imag, res.displacement.real)
    phase_ok = abs(abs(phase) - math.pi) <= 1e-9
    passed = worst_rel < 1e-12 and value_ok and phase_ok and \
        abs(published) == pytest.approx(abs(res.displacement), rel=1e-12)
    report(6, "coherent-state amplification gain exp(2r) with pi phase",
           passed,
           f"gain exact to {worst_rel:.1e}; |alpha_f| = "
           f"{abs(res.displacement):.6f} (2.292 +/- 1e-3); phase {phase:+.6f}")


def test_criterion_7_displacement_calibration(trap):
    alpha_first = coherent_alpha_from_shift(133e-9, trap)
    pinned = TrapParams(trap.omega1, trap.omega2, trap.mass,
                        trap.lattice_wavenumber, trap.V0,
                        calibration=0.8762282736328867)
    alpha_pinned = coherent_alpha_from_shift(133e-9, pinned)
    passed = (abs(alpha_first - 2.63) <= 0.01 * 2.63
              and abs(alpha_pinned - 3.00) <= 1e-3)
    report(7, "displacement-to-alpha calibration", passed,
           f"first-principles alpha(133 nm) = {alpha_first:.4f} "
           f"(2.63 +/- 1%); pinned calibration gives {alpha_pinned:.4f} "
           f"(published 3; ratio documented as an open discrepancy)")


def test_criterion_8_anharmonicity(trap):
    q = trap.depth_parameter
    omega_h = harmonic_frequency(q, trap.recoil_energy)
    freq_khz = omega_h / TWO_PI / 1e3
    freq_ok = abs(freq_khz - 91.7) <= 0.2
    nominal_ok = abs(omega_h / TWO_PI - 93e3) / 93e3 <= 0.02
    drop = trap.recoil_energy / (HBAR * trap.omega1)
    drop_ok = abs(drop - 0.02) <= 0.005
    n_exp = bound_state_count(trap)
    n_diag = bound_level_count(q)
    count_ok = abs(n_exp - n_diag) <= 1
    passed = freq_ok and nominal_ok and drop_ok and count_ok
    report(8, "lattice anharmonicity", passed,
           f"4 sqrt(q) E_R/hbar = 2 pi x {freq_khz:.2f} kHz (91.7 +/- 0.2, "
           f"within 2% of 93); per-level gap drop {drop:.2%} (~2%); bound "
           f"states: expansion {n_exp}, diagonalization {n_diag} "
           f"(within 1; published 11)")


def test_criterion_9_moments_and_db():
    worst = 0.0
    for nbar0 in (0.0, 0.22, 0.5):
        for s in (0.5, 1.0, 1.6):
            dim = 256 if s <= 1.0 else 384
            op = fock.squeeze_operator_exact(s, 0.0, dim)
            rho = fock.apply_unitary(op, thermal_density_matrix(nbar0, dim))
            probs = fock.number_distribution(rho)
            ns = np.arange(dim)
            mean = float(np.sum(probs * ns))
            sd = math.sqrt(float(np.sum(probs * ns * ns)) - mean * mean)
            m = squeezed_thermal_moments(nbar0, s)
            worst = max(worst, abs(mean - m.nbar_st) / m.nbar_st,
                        abs(sd - m.dnbar_st) / m.dnbar_st)
    moments_ok = worst < 1e-4
    r14 = 14.0 * math.log(10) / 40.0
    r7 = 7.0 * math.log(10) / 40.0
    db_ok = (abs(r14 - 0.806) <= 1e-3 and abs(r7 - 0.403) <= 1e-3
             and abs(squeezing_db(0.806) - 14.0) <= 0.05
             and abs(squeezing_db(0.403) - 7.0) <= 0.05)
    passed = moments_ok and db_ok
    report(9, "squeezed-thermal moments and dB conversion", passed,
           f"worst relative moment deviation {worst:.3e} (tol 1e-4); "
           f"14 dB <-> r = {r14:.4f}, 7 dB <-> r = {r7:.4f}")


def test_criterion_10_property_suite(config, tmp_path):
    trap, rabi = config.trap, config.rabi
    dim = 256

    # backend agreement on the published operating points
    worst_tvd = 0.0
    protos = [
        builtin_protocol("S_minus_2r", trap),            # 2r = 1.397
        builtin_protocol("S_plus_2r", trap),
        builtin_protocol("multi_jump", trap, n_jumps=4, r=0.39),
        builtin_protocol("displaced_squeeze", trap, alpha_i=0.67, r=0.615),
        builtin_protocol("amplify", trap, alpha_i=0.67, r=0.615),
    ]
    for proto in protos:
        for nbar0 in (0.0, 0.22):
            res = run_fock(proto, trap, fock.thermal_factor(nbar0, dim))
            implied = implied_state(res, nbar0, dim)
            worst_tvd = max(worst_tvd, distribution_tvd(
                fock.number_distribution(
                    fock.density_from_factor(res.final_factor)),
                fock.number_distribution(implied)))
    backend_ok = worst_tvd < 1e-6

    # parity of squeezed vacuum
    s_op = fock.squeeze_operator_exact(0.7, 0.0, 128)
    probs = fock.number_distribution(
        fock.apply_unitary(s_op, thermal_density_matrix(0.0, 128)))
    parity = float(np.max(probs[1::2]))
    parity_ok = parity < 1e-12

    # composition closure within the physical envelope
    pair = BogoliubovPair.identity()
    down, _ = bogoliubov_from_jump(trap.omega1, trap.omega2)
    for k in range(200):
        pair = compose_jump(pair, down)
        pair = compose_wait(pair, 0.25 * math.pi * (k % 5))
        pair = compose_jump(pair, invert_pair(down))
    closure = pair.defect()
    closure_ok = closure < 1e-10

    # cutoff stability of R for measured-regime states
    rabi40 = RabiParams(rabi.omega01, rabi.gamma, rabi.pulse_t, n_max=40)
    shifts = []
    for s, nbar0 in [(0.4, 0.22), (0.7, 0.22), (0.7, 0.38)]:
        dist = weighted_distribution(
            squeeze_block_sq, s, nbar0, 40)
        shifts.append(abs(sideband_populations(dist, rabi40).R
                          - sideband_populations(dist, rabi).R))
    for alpha, nbar0 in [(1.0, 0.22), (2.0, 0.35), (2.5, 0.35)]:
        dist = weighted_distribution(
            displacement_block_sq, alpha,
            nbar0, 40)
        shifts.append(abs(sideband_populations(dist, rabi40).R
                          - sideband_populations(dist, rabi).R))
    cutoff_shift = max(shifts)
    cutoff_ok = cutoff_shift < 1e-3

    # determinism: byte-identical regenerated tables
    spec = build_spec("fig2c", trap, rabi)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(generate(spec), p1)
    emit_csv(generate(spec), p2)
    determinism_ok = p1.read_bytes() == p2.read_bytes()

    passed = (backend_ok and parity_ok and closure_ok and cutoff_ok
              and determinism_ok)
    report(10, "property suite", passed,
           f"backend TVD {worst_tvd:.3e} (tol 1e-6); odd squeezed-vacuum "
           f"population {parity:.1e} (tol 1e-12); closure defect "
           f"{closure:.1e} (tol 1e-10); cutoff shift {cutoff_shift:.3e} "
           f"(tol 1e-3); tables byte-identical: {determinism_ok}")
