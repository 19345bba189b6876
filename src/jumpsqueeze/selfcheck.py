"""Deterministic self-check suite: closed-form matrix elements against the
exact-exponential oracle, squeezed-thermal moments against density-matrix
moments, symplectic against Fock backend distributions, and the lattice
level expansion against plane-wave diagonalization."""

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from ._mathieu import bound_level_count, lattice_levels
from .constants import MAX_SQUEEZE_AMPLITUDE
from .errors import TruncationError
from .lattice import bound_state_count, mathieu_energy
from .matrix_elements import (displacement_matrix_element_sq,
                              squeeze_matrix_element_sq,
                              squeezed_thermal_moments)
from .protocol import builtin_protocol, implied_state, run_fock

ELEMENT_TOL = 1e-8
MOMENT_TOL = 1e-4
BACKEND_TVD_TOL = 1e-6
MATHIEU_TOL_ER = 0.5
COUNT_TOL = 1


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst: float
    tolerance: float
    passed: bool
    detail: str = ""

    def line(self):
        status = "pass" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return (f"{status}  {self.name}: worst deviation {self.worst:.3e} "
                f"(tolerance {self.tolerance:.3e}){extra}")


def oracle_dim_for_squeeze(r, n_l_max=20):
    """Truncation dimension at which the exact exponential's low matrix
    block (n, l <= n_l_max) is faithful to the ideal operator, from
    measured convergence thresholds (safety factor included), and never
    below the tail-mass rule's :func:`fock.min_squeeze_dim`."""
    r = abs(r)
    dim = 512
    for cap, table_dim in ((0.5, 96), (1.0, 160), (1.3, 192), (1.6, 256),
                           (2.0, 320)):
        if r <= cap:
            dim = max(table_dim, 3 * n_l_max + 16)
            break
    return max(dim, fock.min_squeeze_dim(r))


def oracle_dim_for_displacement(alpha, n_l_max=20):
    aa = abs(alpha) ** 2
    need = int(aa + 6.0 * math.sqrt(aa) + 2 * n_l_max + fock.GUARD_BAND)
    return max(64, 32 * math.ceil(need / 32))


def check_squeeze_elements(r_values, n_max=20):
    worst = 0.0
    for r in r_values:
        dim = oracle_dim_for_squeeze(r, n_max)
        op = fock.squeeze_operator_exact(abs(r), 0.0, dim)
        block = np.abs(op[:n_max + 1, :n_max + 1]) ** 2
        if r < 0:
            block = block.T  # adjoint relation
        for n in range(n_max + 1):
            for l in range(n_max + 1):
                dev = abs(squeeze_matrix_element_sq(n, l, r) - block[n, l])
                worst = max(worst, dev)
    return CheckResult("squeeze matrix elements vs exact exponential",
                       worst, ELEMENT_TOL, worst <= ELEMENT_TOL)


def check_displacement_elements(alpha_values, n_max=20):
    worst = 0.0
    for alpha in alpha_values:
        dim = oracle_dim_for_displacement(alpha, n_max)
        op = fock.displacement_operator_exact(alpha, dim)
        block = np.abs(op[:n_max + 1, :n_max + 1]) ** 2
        for n in range(n_max + 1):
            for l in range(n_max + 1):
                dev = abs(displacement_matrix_element_sq(n, l, alpha)
                          - block[n, l])
                worst = max(worst, dev)
    return CheckResult("displacement matrix elements vs exact exponential",
                       worst, ELEMENT_TOL, worst <= ELEMENT_TOL)


def check_moments(amplitudes, nbar0, dim):
    worst = 0.0
    for s in amplitudes:
        op = fock.squeeze_operator_exact(s, 0.0, dim)
        rho = fock.apply_unitary(op, fock.thermal_density_matrix(nbar0, dim))
        probs = fock.number_distribution(rho)
        ns = np.arange(dim)
        mean = float(np.sum(probs * ns))
        sd = math.sqrt(float(np.sum(probs * ns * ns)) - mean * mean)
        moments = squeezed_thermal_moments(nbar0, s)
        worst = max(worst,
                    abs(mean - moments.nbar_st) / max(moments.nbar_st, 1e-12),
                    abs(sd - moments.dnbar_st) / moments.dnbar_st)
    return CheckResult("squeezed-thermal moments vs density-matrix oracle",
                       worst, MOMENT_TOL, worst <= MOMENT_TOL)


def check_backend_agreement(config):
    trap, nbar0, dim = config.trap, config.nbar0, config.fock_dim
    amplitudes = config.selfcheck["state_amplitudes"]
    alpha_i = config.selfcheck["alpha_i"]
    worst = 0.0
    runs = []
    for r in amplitudes:
        runs.append(builtin_protocol("S_minus_2r", trap, r=r))
        runs.append(builtin_protocol("S_plus_2r", trap, r=r))
        runs.append(builtin_protocol("multi_jump", trap, n_jumps=2, r=r))
        runs.append(builtin_protocol("displaced_squeeze", trap,
                                     alpha_i=alpha_i, r=r))
        runs.append(builtin_protocol("amplify", trap, alpha_i=alpha_i, r=r))
    for proto in runs:
        initial = fock.thermal_density_matrix(nbar0, dim)
        result = run_fock(proto, trap, initial=initial, dim=dim)
        implied = implied_state(result, nbar0, dim)
        tvd = 0.5 * float(np.abs(fock.number_distribution(result.final_rho)
                                 - fock.number_distribution(implied)).sum())
        worst = max(worst, tvd)
    return CheckResult("Fock vs symplectic backend distributions (TVD)",
                       worst, BACKEND_TVD_TOL, worst <= BACKEND_TVD_TOL)


def check_mathieu(trap):
    q = trap.depth_parameter
    diag = lattice_levels(q, 8)
    worst = max(abs(mathieu_energy(n, q) - diag[n]) for n in range(7))
    level_check = CheckResult(
        "lattice level expansion vs diagonalization (E/E_R, n <= 6)",
        worst, MATHIEU_TOL_ER, worst <= MATHIEU_TOL_ER)
    n_exp = bound_state_count(trap)
    n_diag = bound_level_count(q)
    count_dev = abs(n_exp - n_diag)
    count_check = CheckResult(
        "bound-state count expansion vs diagonalization", count_dev,
        COUNT_TOL, count_dev <= COUNT_TOL,
        detail=f"expansion {n_exp}, diagonalization {n_diag}, published 11")
    return level_check, count_check


def run_selfcheck(config):
    """Run the full grid; returns (results, all_passed)."""
    sc = config.selfcheck
    results = []
    try:
        results.append(check_squeeze_elements(sc["element_r_values"],
                                              sc["element_n_max"]))
        results.append(check_displacement_elements(sc["element_alpha_values"],
                                                   sc["element_n_max"]))
        moment_amps = sorted({s for r in sc["state_amplitudes"]
                              for s in (r, 2 * r)
                              if s <= MAX_SQUEEZE_AMPLITUDE})
        results.append(check_moments(moment_amps, config.nbar0,
                                     config.fock_dim))
        results.append(check_backend_agreement(config))
        results.extend(check_mathieu(config.trap))
    except TruncationError as exc:
        results.append(CheckResult(f"tail-mass guard: {exc.args[0]}",
                                   math.inf, fock.TAIL_TOL, False))
    passed = all(r.passed for r in results)
    return results, passed
