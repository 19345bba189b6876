"""Theory-curve tables for every figure, computed row by row through the
protocol and spectroscopy machinery and written as deterministic CSV.

Where the measurements show contrast decay, the fitted 1/e constants are
applied as a multiplicative envelope about a baseline:
``R_env(t) = R_base + (R_raw - R_base) exp(-t / tau_env)``.  Oscillating
sweeps use the curve's time-averaged value as baseline; squeeze-amplitude
sweeps use the thermal baseline (their fully dephased limit).
"""

import math
import os
from dataclasses import dataclass
from functools import partial
from typing import Dict

import numpy as np

from . import fock
from .bogoliubov import squeeze_params_from_pair
from .constants import MAX_FOCK_DIM, MAX_GRID_POINTS, TWO_PI
from .errors import (ConfigError, atomic_write, check_integer, check_number,
                     check_object)
from .lattice import TrapParams, coherent_alpha_from_shift, ground_state_widths
from .matrix_elements import (displacement_block_sq, squeeze_block_sq,
                              squeezed_thermal_moments)
from .protocol import (FrequencyJump, Protocol, ShiftOrigin, UnshiftOrigin,
                       Wait, amplified_alpha, builtin_protocol, run_fock,
                       run_symplectic)
from .spectroscopy import (DecoherenceParams, RabiParams,
                           amplified_distribution_decohered,
                           sideband_populations, weighted_distribution)

FIGURE_IDS = ("fig2a", "fig2a_inset", "fig2b", "fig2c", "fig2d",
              "fig3b", "fig3c", "fig4a", "fig4c")

# Calibration that maps a 133 nm trap shift to alpha = 3 for the default
# trap; first-principles conversion gives alpha = 2.63 at calibration 1.
PINNED_CALIBRATION = 0.8762282736328867

DEFAULT_CONSTANTS = {
    "fig2a": {"nbar0": 0.22, "envelope_tau_s": 46e-6,
              "two_r_max": 2.8, "points": 57},
    "fig2a_inset": {"nbar0": 0.22, "envelope_tau_s": 46e-6,
                    "r_per_jump": 0.39, "n_jumps_max": 4},
    "fig2b": {"nbar0": 0.22, "r_max": 0.8, "points": 17},
    "fig2c": {"nbar0": 0.22, "envelope_tau_s": 46e-6,
              "periods": 3, "points_per_period": 40},
    "fig2d": {"nbar0": 0.22, "squeeze_factor": 2.58,
              "v_max_m_s": 0.08, "points": 161},
    "fig3b": {"nbar0": 0.38, "calibration": PINNED_CALIBRATION,
              "d_max_m": 140e-9, "points": 71},
    "fig3c": {"nbar0": 0.38, "calibration": PINNED_CALIBRATION,
              "d_m": 29.6e-9, "envelope_tau_s": 27e-6,
              "periods": 3, "points_per_period": 40},
    "fig4a": {"nbar0": 0.35, "alpha_i": 0.67, "two_r": 1.23,
              "decay_time_s": 32e-6, "fock_dim": 160,
              "periods": 3, "points_per_period": 40},
    "fig4c": {"nbar0": 0.35, "alpha_i": 0.67, "decay_time_s": 32e-6,
              "two_r_max": 2.0, "points": 41},
}

# Domain of each figure constant that has one, as a check and its bounds;
# every other constant must be a finite number.  The number of points of
# a periods * points_per_period grid is bounded in check_overrides.
CONSTANT_DOMAINS = {
    "points": (check_integer, 1, MAX_GRID_POINTS),
    "n_jumps_max": (check_integer, 1, MAX_GRID_POINTS),
    "fock_dim": (check_integer, 2, MAX_FOCK_DIM),
    "nbar0": (check_number, 0), "periods": (check_number, 0, True),
    "points_per_period": (check_number, 0, True),
    "envelope_tau_s": (check_number, 0, True),
    "decay_time_s": (check_number, 0, True),
    "calibration": (check_number, 0, True),
    "squeeze_factor": (check_number, 0, True),
}


def check_overrides(figure_id, overrides):
    """Return ``overrides`` of ``figure_id``'s constants, each checked
    against its domain, and with defaults filled in, a grid of at most
    ``MAX_GRID_POINTS``."""
    if figure_id not in FIGURE_IDS:
        raise ConfigError(f"unknown figure id {figure_id!r}; known: "
                          f"{', '.join(FIGURE_IDS)}")
    where = f"figure_overrides.{figure_id}"
    checked = {}
    for key, value in check_object(overrides, where,
                                   DEFAULT_CONSTANTS[figure_id]).items():
        check, *bounds = CONSTANT_DOMAINS.get(key, (check_number,))
        checked[key] = check(value, f"{where}.{key}", *bounds)
    constants = {**DEFAULT_CONSTANTS[figure_id], **checked}
    if "periods" in constants:
        check_number(constants["periods"] * constants["points_per_period"],
                     f"{where}.periods * points_per_period",
                     maximum=MAX_GRID_POINTS)
    return checked


@dataclass(frozen=True)
class FigureSpec:
    """One figure's sweep plus all physics inputs."""
    figure_id: str
    sweep: np.ndarray
    trap: TrapParams
    rabi: RabiParams
    constants: Dict[str, float]

    def __post_init__(self):
        sweep = np.asarray(self.sweep, dtype=float)
        if sweep.size == 0:
            raise ConfigError("sweep grid must be nonempty")
        if sweep.size > 1 and not np.all(np.diff(sweep) > 0):
            raise ConfigError("sweep grid must be strictly increasing")
        object.__setattr__(self, "sweep", sweep)


@dataclass(frozen=True)
class CurveTable:
    columns: Dict[str, np.ndarray]
    metadata: Dict[str, object]

    def __post_init__(self):
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) != 1:
            raise ValueError("all columns must have equal length")
        for name, col in self.columns.items():
            if not np.all(np.isfinite(col)):
                raise ValueError(f"column {name!r} contains non-finite values")
        for key, value in self.metadata.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"metadata {key!r} is not finite: {value}")


def build_spec(figure_id, trap, rabi, overrides=None):
    """Assemble a FigureSpec with default per-figure constants and grid,
    applying user overrides."""
    overrides = check_overrides(figure_id, overrides or {})
    constants = {**DEFAULT_CONSTANTS[figure_id], **overrides}

    if figure_id == "fig2a":
        sweep = np.linspace(0.0, constants["two_r_max"], constants["points"])
    elif figure_id == "fig2a_inset":
        sweep = np.arange(1, constants["n_jumps_max"] + 1, dtype=float)
    elif figure_id == "fig2b":
        sweep = np.linspace(0.0, constants["r_max"], constants["points"])
    elif figure_id == "fig2c":
        period = math.pi / trap.omega2
        n = int(constants["periods"] * constants["points_per_period"])
        sweep = np.arange(n + 1) * (period / constants["points_per_period"])
    elif figure_id in ("fig3c", "fig4a"):
        period = TWO_PI / trap.omega1
        n = int(constants["periods"] * constants["points_per_period"])
        sweep = np.arange(n + 1) * (period / constants["points_per_period"])
    elif figure_id == "fig2d":
        sweep = np.linspace(-constants["v_max_m_s"], constants["v_max_m_s"],
                            constants["points"])
    elif figure_id == "fig3b":
        sweep = np.linspace(0.0, constants["d_max_m"], constants["points"])
    else:  # fig4c
        sweep = np.linspace(0.0, constants["two_r_max"], constants["points"])
    return FigureSpec(figure_id, sweep, _with_calibration(trap, constants),
                      rabi, constants)


def _with_calibration(trap, constants):
    """Trap with the figure's calibration factor applied, if any."""
    cal = constants.get("calibration")
    if cal is None or cal == trap.calibration:
        return trap
    return TrapParams(trap.omega1, trap.omega2, trap.mass,
                      trap.lattice_wavenumber, trap.V0, calibration=cal)


def _squeezed_thermal_R(r_eff, nbar0, rabi):
    dist = weighted_distribution(partial(squeeze_block_sq, r_eff), nbar0,
                                 rabi.n_max)
    return sideband_populations(dist, rabi).R


def _displaced_thermal(alpha, nbar0, rabi):
    return weighted_distribution(partial(displacement_block_sq, alpha), nbar0,
                                 rabi.n_max)


def _enveloped(spec, raw, times, rule, tau_key="envelope_tau_s"):
    """Apply the decay envelope about the ``rule`` baseline: "thermal"
    (the unsqueezed thermal R) or "time-average" (the mean of ``raw``).
    Returns the enveloped column and its metadata."""
    if rule == "thermal":
        baseline = _squeezed_thermal_R(0.0, spec.constants["nbar0"], spec.rabi)
    else:
        baseline = float(raw.mean())
    env = baseline + (raw - baseline) * np.exp(
        -times / spec.constants[tau_key])
    return env, {"envelope_baseline_R": baseline, "baseline_rule": rule}


def _squeeze_sweep(spec, protocol_at):
    """Run ``protocol_at(x)`` on the symplectic backend for every sweep
    value x; returns the columns r_eff, R (thermal input) and elapsed."""
    nbar0, rabi = spec.constants["nbar0"], spec.rabi
    r_eff, r_raw, elapsed = [], [], []
    for x in spec.sweep:
        res = run_symplectic(protocol_at(x), spec.trap)
        r = squeeze_params_from_pair(res.pair).r
        r_eff.append(r)
        r_raw.append(_squeezed_thermal_R(r, nbar0, rabi))
        elapsed.append(res.elapsed)
    return np.array(r_eff), np.array(r_raw), np.array(elapsed)


def _gen_fig2a(spec):
    trap, nbar0 = spec.trap, spec.constants["nbar0"]

    def protocol_at(two_r):
        if two_r > 0:
            return builtin_protocol("S_minus_2r", trap, r=two_r / 2.0)
        return Protocol(trap.omega1, ())

    r_eff, r_raw, elapsed = _squeeze_sweep(spec, protocol_at)
    env, meta = _enveloped(spec, r_raw, elapsed, "thermal")
    moments = [squeezed_thermal_moments(nbar0, r) for r in r_eff]
    cols = {"two_r": spec.sweep, "R": r_raw, "R_enveloped": env,
            "nbar_st": np.array([m.nbar_st for m in moments]),
            "dnbar_st": np.array([m.dnbar_st for m in moments]),
            "elapsed_s": elapsed}
    return cols, meta


def _gen_fig2a_inset(spec):
    trap, r_jump = spec.trap, spec.constants["r_per_jump"]
    r_eff, r_raw, elapsed = _squeeze_sweep(
        spec, lambda n: builtin_protocol("multi_jump", trap, n_jumps=int(n),
                                         r=r_jump))
    env, meta = _enveloped(spec, r_raw, elapsed, "thermal")
    cols = {"n_jumps": spec.sweep, "r_total": r_eff, "R": r_raw,
            "R_enveloped": env, "elapsed_s": elapsed}
    return cols, meta


def _gen_fig2b(spec):
    omega1 = spec.trap.omega1
    r_eff, r_raw, _ = _squeeze_sweep(spec, lambda r: Protocol(
        omega1, (FrequencyJump(omega1 * math.exp(-2 * r)),
                 FrequencyJump(omega1)) if r > 0 else ()))
    cols = {"r": spec.sweep, "r_eff": r_eff, "R": r_raw}
    return cols, {"baseline_rule": "none"}


def _gen_fig2c(spec):
    trap = spec.trap
    r_eff, r_raw, elapsed = _squeeze_sweep(spec, lambda tau: Protocol(
        trap.omega1, (FrequencyJump(trap.omega2), Wait(tau),
                      FrequencyJump(trap.omega1))))
    env, env_meta = _enveloped(spec, r_raw, elapsed, "time-average")
    cols = {"tau_s": spec.sweep, "r_eff": r_eff, "R": r_raw,
            "R_enveloped": env}
    meta = {"two_r": math.log(trap.omega1 / trap.omega2),
            "oscillation_period_s": math.pi / trap.omega2, **env_meta}
    return cols, meta


def _gen_fig2d(spec):
    trap, c = spec.trap, spec.constants
    nbar0 = c["nbar0"]
    r_total = math.log(c["squeeze_factor"])
    x0, sigma_v, width_ground = ground_state_widths(trap)
    _, _, width_thermal = ground_state_widths(trap, nbar0=nbar0)
    v = spec.sweep

    def profile(sigma):
        return np.exp(-v ** 2 / (2.0 * sigma ** 2))

    cols = {
        "velocity_m_s": v,
        "density_ground": profile(sigma_v),
        "density_squeezed_momentum": profile(sigma_v * math.exp(-r_total)),
        "density_squeezed_position": profile(sigma_v * math.exp(r_total)),
        "density_ground_thermal": profile(
            sigma_v * math.sqrt(2 * nbar0 + 1)),
    }
    meta = {
        "x0_m": x0,
        "sigma_v_m_s": sigma_v,
        "width_1e2_ground_m_s": width_ground,
        "width_1e2_ground_thermal_m_s": width_thermal,
        "thermal_broadening_factor": math.sqrt(2 * nbar0 + 1),
        "width_ratio_momentum_squeezed": math.exp(-r_total),
        "width_ratio_position_squeezed": math.exp(r_total),
        "measured_ratio_momentum_squeezed": 1 / 2.43,
        "measured_ratio_position_squeezed": 2.18,
    }
    return cols, meta


def _gen_fig3b(spec):
    trap, rabi, c = spec.trap, spec.rabi, spec.constants
    nbar0 = c["nbar0"]
    alphas, r_thermal, r_coherent = [], [], []
    for d in spec.sweep:
        alpha = coherent_alpha_from_shift(d, trap)
        alphas.append(alpha)
        r_thermal.append(sideband_populations(
            _displaced_thermal(alpha, nbar0, rabi), rabi).R)
        r_coherent.append(sideband_populations(
            _displaced_thermal(alpha, 0.0, rabi), rabi).R)
    cols = {"d_m": spec.sweep, "alpha": np.array(alphas),
            "R_displaced_thermal": np.array(r_thermal),
            "R_pure_coherent": np.array(r_coherent)}
    meta = {"calibration": trap.calibration, "x0_m": trap.x0}
    return cols, meta


def _gen_fig3c(spec):
    trap, rabi, c = spec.trap, spec.rabi, spec.constants
    nbar0, d = c["nbar0"], c["d_m"]
    alpha_abs, r_raw = [], []
    for tau in spec.sweep:
        steps = (ShiftOrigin(d), Wait(tau), UnshiftOrigin())
        res = run_symplectic(Protocol(trap.omega1, steps), trap)
        alpha_abs.append(abs(res.displacement))
        r_raw.append(sideband_populations(_displaced_thermal(
            abs(res.displacement), nbar0, rabi), rabi).R)
    r_raw = np.array(r_raw)
    env, env_meta = _enveloped(spec, r_raw, spec.sweep, "time-average")
    cols = {"tau_s": spec.sweep, "alpha_abs": np.array(alpha_abs),
            "R": r_raw, "R_enveloped": env}
    meta = {"alpha_i": coherent_alpha_from_shift(d, trap),
            "oscillation_period_s": TWO_PI / trap.omega1, **env_meta}
    return cols, meta


def _gen_fig4a(spec):
    trap, rabi, c = spec.trap, spec.rabi, spec.constants
    nbar0, alpha_i, two_r = c["nbar0"], c["alpha_i"], c["two_r"]
    dim = c["fock_dim"]
    proto = builtin_protocol("displaced_squeeze", trap,
                             alpha_i=alpha_i, r=two_r / 2.0)
    initial = fock.thermal_density_matrix(nbar0, dim)
    prepared = run_fock(proto, trap, initial=initial, dim=dim).final_rho
    undo = fock.displacement_operator_exact(-alpha_i, dim)
    fock.validate_unitary(undo)
    r_raw = []
    for tau in spec.sweep:
        rho = fock.conjugate(
            undo, fock.apply_free_evolution(trap.omega1, tau, prepared))
        dist = fock.number_distribution(rho)
        r_raw.append(sideband_populations(dist, rabi).R)
    r_raw = np.array(r_raw)
    env, env_meta = _enveloped(spec, r_raw, spec.sweep, "time-average",
                               "decay_time_s")
    cols = {"tau_s": spec.sweep, "R": r_raw, "R_enveloped": env}
    meta = {"oscillation_period_s": TWO_PI / trap.omega1,
            "fock_dim": dim, **env_meta}
    return cols, meta


def _gen_fig4c(spec):
    trap, rabi, c = spec.trap, spec.rabi, spec.constants
    nbar0, alpha_i, gamma_dec = c["nbar0"], c["alpha_i"], c["decay_time_s"]
    alpha_f_abs, t_primes, r_dec, r_raw = [], [], [], []
    for two_r in spec.sweep:
        alpha_f = amplified_alpha(alpha_i, two_r / 2.0)
        omega2 = trap.omega1 * math.exp(-two_r)
        t_prime = math.pi / trap.omega1 + math.pi / omega2
        dec = DecoherenceParams(gamma_dec, t_prime)
        displaced = _displaced_thermal(alpha_f, nbar0, rabi)
        r_dec.append(sideband_populations(amplified_distribution_decohered(
            displaced, alpha_f, nbar0, dec), rabi).R)
        r_raw.append(sideband_populations(displaced, rabi).R)
        alpha_f_abs.append(abs(alpha_f))
        t_primes.append(t_prime)
    cols = {"two_r": spec.sweep, "alpha_f_abs": np.array(alpha_f_abs),
            "t_prime_s": np.array(t_primes),
            "R_with_decoherence": np.array(r_dec),
            "R_no_decoherence": np.array(r_raw)}
    meta = {"alpha_i": alpha_i, "decay_time_s": gamma_dec}
    return cols, meta


_GENERATORS = {
    "fig2a": _gen_fig2a,
    "fig2a_inset": _gen_fig2a_inset,
    "fig2b": _gen_fig2b,
    "fig2c": _gen_fig2c,
    "fig2d": _gen_fig2d,
    "fig3b": _gen_fig3b,
    "fig3c": _gen_fig3c,
    "fig4a": _gen_fig4a,
    "fig4c": _gen_fig4c,
}


def generate(spec):
    """Compute the deterministic curve table for one figure."""
    cols, meta = _GENERATORS[spec.figure_id](spec)
    trap, rabi = spec.trap, spec.rabi
    metadata = {
        "figure_id": spec.figure_id,
        "rows": len(spec.sweep),
        "trap.omega1_hz": trap.omega1 / TWO_PI,
        "trap.omega2_hz": trap.omega2 / TWO_PI,
        "trap.mass_kg": trap.mass,
        "trap.lattice_wavenumber_per_m": trap.lattice_wavenumber,
        "trap.V0_J": trap.V0,
        "trap.calibration": trap.calibration,
        "rabi.omega01_hz": rabi.omega01 / TWO_PI,
        "rabi.gamma_per_s": rabi.gamma,
        "rabi.pulse_t_s": rabi.pulse_t,
        "rabi.n_max": rabi.n_max,
    }
    for key in sorted(spec.constants):
        metadata[f"constants.{key}"] = spec.constants[key]
    metadata.update(meta)
    return CurveTable(cols, metadata)


def _fmt(value):
    if isinstance(value, (bool, int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".9g")
    return str(value)


def emit_csv(table, path):
    """Write a curve table as UTF-8 CSV: '#' metadata block, header row,
    values with 9 significant digits.  The write is atomic."""
    names = list(table.columns)
    arrays = [np.asarray(table.columns[k]) for k in names]
    lines = [f"# {key}: {_fmt(table.metadata[key])}" for key in table.metadata]
    lines.append(",".join(names))
    for i in range(len(arrays[0])):
        lines.append(",".join(_fmt(col[i]) for col in arrays))
    return atomic_write(path, "\n".join(lines) + "\n")


def emit_plot_script(table, csv_path, path):
    """Write a plain gnuplot script drawing every column against the first."""
    names = list(table.columns)
    plots = ", ".join(
        f"'{os.path.basename(csv_path)}' using 1:{i + 2} with lines "
        f"title '{name}'" for i, name in enumerate(names[1:]))
    return atomic_write(path, "\n".join([
        "set datafile separator ','",
        f"set xlabel '{names[0]}'",
        f"set title '{table.metadata.get('figure_id', '')}'",
        f"plot {plots}",
        "pause -1",
    ]) + "\n")
