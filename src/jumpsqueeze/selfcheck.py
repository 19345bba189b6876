"""Deterministic self-check suite: closed-form matrix elements against the
exact-exponential oracle, squeezed-thermal moments against density-matrix
moments, symplectic against Fock backend distributions, and the lattice
level expansion against plane-wave diagonalization."""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import fock
from ._mathieu import bound_level_count, lattice_levels
from .constants import HBAR, MAX_SQUEEZE_AMPLITUDE
from .errors import TruncationError
from .lattice import bound_state_count, harmonic_frequency, mathieu_energy
from .matrix_elements import (displacement_block_sq, squeeze_block_sq,
                              squeezed_thermal_moments)
from .protocol import (BUILTIN_PROTOCOLS, builtin_protocol, implied_factor,
                       run_fock)

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
    block (n, l <= n_l_max) is faithful to the ideal operator, and never
    below the tail-mass rule's :func:`fock.min_squeeze_dim`.

    From measured convergence thresholds, safety factor included: one
    dimension per amplitude bucket up to n_l_max = 20, plus
    1.25 exp(cap) per index above 20 (measured: about 1.1 exp(|r|)).
    """
    r = abs(r)
    for cap, table_dim in ((0.5, 96), (1.0, 160), (1.3, 192), (1.6, 256),
                           (2.0, 320), (MAX_SQUEEZE_AMPLITUDE, 512)):
        if r <= cap:
            break
    dim = table_dim + 1.25 * math.exp(cap) * max(0, n_l_max - 20)
    return max(32 * math.ceil(dim / 32), fock.min_squeeze_dim(r))


def oracle_dim_for_displacement(alpha, n_l_max=20):
    aa = abs(alpha) ** 2
    need = int(aa + 6.0 * math.sqrt(aa) + 2 * n_l_max + fock.GUARD_BAND)
    return max(64, 32 * math.ceil(need / 32))


def _check(name, tolerance):
    """Make a function returning its worst deviation a check returning a
    :class:`CheckResult`; a tail-mass guard that trips inside it fails
    that check only."""
    def decorate(worst_deviation):
        @functools.wraps(worst_deviation)
        def check(*args, **kwargs):
            try:
                worst = worst_deviation(*args, **kwargs)
            except TruncationError as exc:
                return CheckResult(name, math.inf, tolerance, False,
                                   detail=f"tail-mass guard: {exc.args[0]}")
            return CheckResult(name, worst, tolerance, worst <= tolerance)
        return check
    return decorate


def _worst_element_deviation(values, n_max, block_sq, operator, oracle_dim):
    """Largest |closed-form block - exact-exponential block| over the
    amplitudes ``values``, for n, l <= n_max."""
    worst = 0.0
    for v in values:
        oracle = operator(v, dim=oracle_dim(v, n_max))[:n_max + 1, :n_max + 1]
        worst = max(worst, float(np.max(np.abs(
            block_sq(v, n_max, n_max) - np.abs(oracle) ** 2))))
    return worst


@_check("squeeze matrix elements vs exact exponential", ELEMENT_TOL)
def check_squeeze_elements(r_values, n_max=20):
    return _worst_element_deviation(r_values, n_max, squeeze_block_sq,
                                    fock.squeeze_operator_exact,
                                    oracle_dim_for_squeeze)


@_check("displacement matrix elements vs exact exponential", ELEMENT_TOL)
def check_displacement_elements(alpha_values, n_max=20):
    return _worst_element_deviation(alpha_values, n_max,
                                    displacement_block_sq,
                                    fock.displacement_operator_exact,
                                    oracle_dim_for_displacement)


@_check("squeezed-thermal moments vs density-matrix oracle", MOMENT_TOL)
def check_moments(amplitudes, nbar0, dim):
    worst = 0.0
    thermal = fock.thermal_factor(nbar0, dim)
    for s in amplitudes:
        probs = fock.factor_populations(fock.apply_squeeze(s, thermal))
        ns = np.arange(dim)
        mean = float(np.sum(probs * ns))
        sd = math.sqrt(float(np.sum(probs * ns * ns)) - mean * mean)
        moments = squeezed_thermal_moments(nbar0, s)
        worst = max(worst,
                    abs(mean - moments.nbar_st) / max(moments.nbar_st, 1e-12),
                    abs(sd - moments.dnbar_st) / moments.dnbar_st)
    return worst


@_check("Fock vs symplectic backend distributions (TVD)", BACKEND_TVD_TOL)
def check_backend_agreement(config):
    trap, nbar0, dim = config.trap, config.nbar0, config.fock_dim
    amplitudes = config.selfcheck["state_amplitudes"]
    alpha_i = config.selfcheck["alpha_i"]
    worst = 0.0
    # each builtin ignores the keywords it does not take
    runs = [builtin_protocol(name, trap, n_jumps=2, alpha_i=alpha_i, r=r)
            for r in amplitudes for name in BUILTIN_PROTOCOLS]
    for proto in runs:
        result = run_fock(proto, trap, fock.thermal_factor(nbar0, dim))
        implied = implied_factor(result, nbar0, dim)
        tvd = 0.5 * float(np.abs(fock.factor_populations(result.final_factor)
                                 - fock.factor_populations(implied)).sum())
        worst = max(worst, tvd)
    return worst


def check_mathieu(trap):
    q = trap.depth_parameter
    diag = lattice_levels(q, 8)
    worst = max(abs(mathieu_energy(n, q) - diag[n]) for n in range(7))
    level_check = CheckResult(
        "lattice level expansion vs diagonalization (E/E_R, n <= 6)",
        worst, MATHIEU_TOL_ER, worst <= MATHIEU_TOL_ER)
    # the harmonic count has the levels (n + 1/2) hbar omega_harm < V0
    n_harm = math.ceil(trap.V0 / (HBAR * harmonic_frequency(
        q, trap.recoil_energy)) - 0.5)
    n_exp = bound_state_count(trap)
    n_diag = bound_level_count(q)
    count_dev = abs(n_exp - n_diag)
    count_check = CheckResult(
        "bound-state count expansion vs diagonalization", count_dev,
        COUNT_TOL, count_dev <= COUNT_TOL, detail=f"harmonic {n_harm}, "
        f"expansion {n_exp}, diagonalization {n_diag}")
    return level_check, count_check


def run_selfcheck(config):
    """Run the full grid; returns (results, all_passed)."""
    sc = config.selfcheck
    moment_amps = sorted({s for r in sc["state_amplitudes"] for s in (r, 2 * r)
                          if s <= MAX_SQUEEZE_AMPLITUDE})
    results = [
        check_squeeze_elements(sc["element_r_values"], sc["element_n_max"]),
        check_displacement_elements(sc["element_alpha_values"],
                                    sc["element_n_max"]),
        check_moments(moment_amps, config.nbar0, config.fock_dim),
        check_backend_agreement(config),
        *check_mathieu(config.trap)]
    return results, all(r.passed for r in results)
