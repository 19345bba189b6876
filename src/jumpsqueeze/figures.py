"""Theory-curve tables for every figure, computed through the protocol
and spectroscopy machinery and written as deterministic CSV.

Each figure is one sweep, declared once in ``_FIGURES``: its sweep
column, its grid, a column builder and its envelope rule.  A builder
finds each row's amplitude on the symplectic backend, bounds them by the
operators' range, then evaluates the matrix elements of the whole sweep
in one batched recurrence per column; ``generate`` assembles a table
from such an entry.

Where the measurements show contrast decay, the fitted 1/e constants are
applied as a multiplicative envelope about a baseline:
``R_env(t) = R_base + (R_raw - R_base) exp(-t / tau_env)``.  Oscillating
sweeps use the curve's time-averaged value as baseline; squeeze-amplitude
sweeps use the thermal baseline (their fully dephased limit).
"""

import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from . import fock
from .bogoliubov import squeeze_params_from_pair
from .constants import (MAX_DISPLACEMENT, MAX_FOCK_DIM, MAX_GRID_POINTS,
                        MAX_JUMP_COUNT, MAX_SQUEEZE_AMPLITUDE, TWO_PI)
from .errors import (ConfigError, atomic_write, check_integer, check_number,
                     check_object)
from .lattice import (TrapParams, coherent_alpha_from_shift,
                      ground_state_widths)
from .matrix_elements import (displacement_block_sq, squeeze_block_sq,
                              squeezed_thermal_moments)
from .protocol import (FrequencyJump, Protocol, ShiftOrigin, UnshiftOrigin,
                       Wait, amplified_alpha, builtin_protocol, run_fock,
                       run_symplectic)
from .spectroscopy import (MAX_NBAR0, DecoherenceParams, RabiParams,
                           amplified_distribution_decohered,
                           sideband_populations, weighted_distribution)

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

# Domain of each figure constant that has one, as a check and its bounds
# (a grid from 0 must end above 0); every other constant must be a finite
# number.  Each builder bounds the amplitudes it computes, and fig2d its
# largest Gaussian exponent.
CONSTANT_DOMAINS = {
    "points": (check_integer, 1, MAX_GRID_POINTS),
    "n_jumps_max": (check_integer, 1, MAX_JUMP_COUNT),
    "fock_dim": (check_integer, 2, MAX_FOCK_DIM),
    "nbar0": (check_number, 0), "periods": (check_number, 0, True),
    "points_per_period": (check_number, 0, True),
    "envelope_tau_s": (check_number, 0, True),
    "decay_time_s": (check_number, 0, True),
    "calibration": (check_number, 0, True),
    "squeeze_factor": (check_number, 0, True),
    "r_max": (check_number, 0, True, MAX_SQUEEZE_AMPLITUDE),
    # loose: exp(two_r_max) and the grid span 2 v_max_m_s stay finite
    # until the builder checks its rows
    "two_r_max": (check_number, 0, True, 2 * MAX_SQUEEZE_AMPLITUDE),
    "v_max_m_s": (check_number, 0, True, sys.float_info.max / 2),
    "d_max_m": (check_number, 0, True),
    "alpha_i": (check_number, -MAX_DISPLACEMENT, False, MAX_DISPLACEMENT),
    "two_r": (check_number, -2 * MAX_SQUEEZE_AMPLITUDE, False,
              2 * MAX_SQUEEZE_AMPLITUDE),
}


def check_overrides(figure_id, overrides):
    """Return ``overrides`` of ``figure_id``'s constants, each checked
    against its domain, and with defaults filled in, the largest nbar0
    its consumer can weight, a grid of at most ``MAX_GRID_POINTS`` and a
    multi-jump chain that stays finite."""
    if figure_id not in FIGURE_IDS:
        raise ConfigError(f"unknown figure id {figure_id!r}; known: "
                          f"{', '.join(FIGURE_IDS)}")
    where = f"figure_overrides.{figure_id}"
    checked = {}
    for key, value in check_object(overrides, where,
                                   DEFAULT_CONSTANTS[figure_id]).items():
        check, *bounds = CONSTANT_DOMAINS.get(key, (check_number,))
        checked[key] = check(value, f"{where}.{key}", *bounds)
    c = {**DEFAULT_CONSTANTS[figure_id], **checked}
    # nbar0 as far as its consumer can weight it: fig2d only widens a
    # Gaussian, fig4a starts a Fock run, the others sum matrix elements
    if figure_id != "fig2d":
        check_number(c["nbar0"], f"{where}.nbar0", maximum=(
            fock.MAX_THERMAL_NBAR0 if figure_id == "fig4a" else MAX_NBAR0))
    if "periods" in c:
        check_number(c["periods"] * c["points_per_period"],
                     f"{where}.periods * points_per_period",
                     maximum=MAX_GRID_POINTS)
    if figure_id == "fig2a_inset":
        # r_eff is n |r_per_jump| only up to round-off; a loose bound on
        # that product keeps the pair of the n-jump chain finite
        check_number(abs(c["r_per_jump"]), f"{where}.r_per_jump",
                     maximum=2 * MAX_SQUEEZE_AMPLITUDE / c["n_jumps_max"])
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
    calibrated = replace(trap, calibration=constants.get("calibration",
                                                         trap.calibration))
    return FigureSpec(figure_id, _FIGURES[figure_id].grid(constants, trap),
                      calibrated, rabi, constants)


def _squeezed_thermal_R(r_eff, nbar0, rabi):
    """R of the squeezed thermal input at ``r_eff`` (a scalar or one per
    row)."""
    dist = weighted_distribution(squeeze_block_sq, r_eff, nbar0, rabi.n_max)
    return sideband_populations(dist, rabi).R


def _bounded(spec, key, name, amplitudes, bound):
    """``amplitudes`` after checking that none exceeds ``bound`` in
    magnitude; an error names them and the constant ``key`` (None: the
    trap frequencies) that chose them."""
    setting = (f"figure_overrides.{spec.figure_id}.{key}" if key else
               "trap.omega1_hz / trap.omega2_hz")
    check_number(float(np.max(np.abs(amplitudes))), f"{setting} (largest "
                 f"{name} of the {spec.figure_id} sweep)", maximum=bound)
    return amplitudes


def _displaced_thermal(spec, key, alphas, nbar0):
    """Distributions of the thermal input displaced by each of ``alphas``,
    which the constant ``key`` chose."""
    return weighted_distribution(displacement_block_sq, _bounded(
        spec, key, "|alpha|", alphas, MAX_DISPLACEMENT), nbar0,
        spec.rabi.n_max)


def _squeezed(spec, key, protocols):
    """r_eff, R of the squeezed thermal input and elapsed time of each of
    ``protocols`` on the symplectic backend, as columns; the constant
    ``key`` (None: the trap frequencies) chose them."""
    results = [run_symplectic(p, spec.trap) for p in protocols]
    r = _bounded(spec, key, "r_eff", np.array([squeeze_params_from_pair(
        res.pair).r for res in results]), MAX_SQUEEZE_AMPLITUDE)
    return (r, _squeezed_thermal_R(r, spec.constants["nbar0"], spec.rabi),
            np.array([res.elapsed for res in results]))


# Column builders: each takes the spec and returns ``{column: values}``
# over the whole sweep, plus the figure's fixed metadata.  The amplitudes
# are found row by row; each figure's matrix elements are then one
# batched recurrence per column.

def _fig2a(spec):
    trap, nbar0 = spec.trap, spec.constants["nbar0"]
    r, R, elapsed = _squeezed(spec, "two_r_max", [
        builtin_protocol("S_minus_2r", trap, r=two_r / 2.0) if two_r > 0
        else Protocol(trap.omega1, ()) for two_r in spec.sweep])
    moments = [squeezed_thermal_moments(nbar0, x) for x in r.tolist()]
    return {"R": R, "nbar_st": np.array([m.nbar_st for m in moments]),
            "dnbar_st": np.array([m.dnbar_st for m in moments]),
            "elapsed_s": elapsed}, {}


def _fig2a_inset(spec):
    r, R, elapsed = _squeezed(spec, "r_per_jump", [
        builtin_protocol("multi_jump", spec.trap, n_jumps=int(n),
                         r=spec.constants["r_per_jump"]) for n in spec.sweep])
    return {"r_total": r, "R": R, "elapsed_s": elapsed}, {}


def _fig2b(spec):
    omega1 = spec.trap.omega1
    r_eff, R, _ = _squeezed(spec, "r_max", [Protocol(
        omega1, (FrequencyJump(omega1 * math.exp(-2 * r)),
                 FrequencyJump(omega1)) if r > 0 else ())
        for r in spec.sweep])
    return {"r_eff": r_eff, "R": R}, {"baseline_rule": "none"}


def _fig2c(spec):
    trap = spec.trap
    r_eff, R, _ = _squeezed(spec, None, [Protocol(
        trap.omega1, (FrequencyJump(trap.omega2), Wait(tau),
                      FrequencyJump(trap.omega1))) for tau in spec.sweep])
    return {"r_eff": r_eff, "R": R}, {
        "two_r": math.log(trap.omega1 / trap.omega2),
        "oscillation_period_s": math.pi / trap.omega2}


def _fig2d(spec):
    nbar0, v = spec.constants["nbar0"], spec.sweep
    r_total = math.log(spec.constants["squeeze_factor"])
    x0, sigma_v, width_ground = ground_state_widths(spec.trap)
    _, _, width_thermal = ground_state_widths(spec.trap, nbar0=nbar0)
    # the last row's exponent at the narrowest width
    v_max, narrowest = spec.constants["v_max_m_s"], sigma_v * math.exp(
        -abs(r_total))
    check_number(v_max * v_max / (2.0 * narrowest ** 2) if narrowest ** 2
                 else math.inf, "figure_overrides.fig2d.v_max_m_s: v_max^2 / "
                 f"(2 sigma^2) at the narrowest width sigma = {narrowest} m/s")
    widths = {
        "density_ground": sigma_v,
        "density_squeezed_momentum": sigma_v * math.exp(-r_total),
        "density_squeezed_position": sigma_v * math.exp(r_total),
        "density_ground_thermal": sigma_v * math.sqrt(2 * nbar0 + 1),
    }
    return {name: np.exp(-(v * v) / (2.0 * sigma ** 2))
            for name, sigma in widths.items()}, {
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


def _fig3b(spec):
    trap, rabi, nbar0 = spec.trap, spec.rabi, spec.constants["nbar0"]
    # Python floats: an alpha beyond the float range is inf, not a warning
    alpha = np.array([coherent_alpha_from_shift(d, trap)
                      for d in spec.sweep.tolist()])
    return {"alpha": alpha,
            "R_displaced_thermal": sideband_populations(_displaced_thermal(
                spec, "d_max_m", alpha, nbar0), rabi).R,
            "R_pure_coherent": sideband_populations(_displaced_thermal(
                spec, "d_max_m", alpha, 0.0), rabi).R}, {
        "calibration": trap.calibration, "x0_m": trap.x0}


def _fig3c(spec):
    trap, rabi, c = spec.trap, spec.rabi, spec.constants
    d = c["d_m"]
    alpha = np.array([abs(run_symplectic(Protocol(trap.omega1, (
        ShiftOrigin(d), Wait(tau), UnshiftOrigin())), trap).displacement)
        for tau in spec.sweep])
    return {"alpha_abs": alpha, "R": sideband_populations(_displaced_thermal(
        spec, "d_m", alpha, c["nbar0"]), rabi).R}, {
        "alpha_i": coherent_alpha_from_shift(d, trap),
        "oscillation_period_s": TWO_PI / trap.omega1}


def _fig4a(spec):
    trap, rabi, c = spec.trap, spec.rabi, spec.constants
    alpha_i, dim = c["alpha_i"], c["fock_dim"]
    proto = builtin_protocol("displaced_squeeze", trap,
                             alpha_i=alpha_i, r=c["two_r"] / 2.0)
    prepared = run_fock(proto, trap, fock.thermal_factor(c["nbar0"], dim))
    populations = fock.evolution_populations(
        fock.displacement_operator_exact(-alpha_i, dim), prepared.final_factor)
    return {"R": sideband_populations(
        populations(trap.omega1, spec.sweep), rabi).R}, {
        "oscillation_period_s": TWO_PI / trap.omega1, "fock_dim": dim}


def _fig4c(spec):
    trap, rabi, c = spec.trap, spec.rabi, spec.constants
    nbar0, alpha_i, gamma_dec = c["nbar0"], c["alpha_i"], c["decay_time_s"]
    alpha_f = [amplified_alpha(alpha_i, two_r / 2.0) for two_r in spec.sweep]
    t_prime = [math.pi / trap.omega1 + math.pi / (trap.omega1 * math.exp(
        -two_r)) for two_r in spec.sweep]
    displaced = _displaced_thermal(spec, "two_r_max", alpha_f, nbar0)
    decohered = np.array([amplified_distribution_decohered(
        dist, alpha, nbar0, DecoherenceParams(gamma_dec, t))
        for dist, alpha, t in zip(displaced, alpha_f, t_prime)])
    return {"alpha_f_abs": np.abs(alpha_f), "t_prime_s": np.array(t_prime),
            "R_with_decoherence": sideband_populations(decohered, rabi).R,
            "R_no_decoherence": sideband_populations(displaced, rabi).R}, {
        "alpha_i": alpha_i, "decay_time_s": gamma_dec}


def _span(key, symmetric=False):
    """Grid of ``points`` values evenly spaced from 0 (or from -key) to
    the constant ``key``."""
    return lambda c, trap: np.linspace(-c[key] if symmetric else 0.0,
                                       c[key], c["points"])


def _periods(period):
    """Grid of ``periods`` times ``period(trap)``, ``points_per_period``
    rows per period, starting at 0."""
    def grid(c, trap):
        n = int(c["periods"] * c["points_per_period"])
        return np.arange(n + 1) * (period(trap) / c["points_per_period"])
    return grid


class _Figure(NamedTuple):
    """One figure: sweep column name, ``grid(constants, trap)``, column
    builder, and envelope (baseline rule, time column, decay key)."""
    sweep_column: str
    grid: Callable
    build_columns: Callable
    envelope: Optional[Tuple[str, str, str]] = None


_FIGURES = {
    "fig2a": _Figure("two_r", _span("two_r_max"), _fig2a,
                     ("thermal", "elapsed_s", "envelope_tau_s")),
    "fig2a_inset": _Figure(
        "n_jumps", lambda c, trap: np.arange(1.0, c["n_jumps_max"] + 1),
        _fig2a_inset, ("thermal", "elapsed_s", "envelope_tau_s")),
    "fig2b": _Figure("r", _span("r_max"), _fig2b),
    "fig2c": _Figure("tau_s", _periods(lambda trap: math.pi / trap.omega2),
                     _fig2c, ("time-average", "tau_s", "envelope_tau_s")),
    "fig2d": _Figure("velocity_m_s", _span("v_max_m_s", symmetric=True),
                     _fig2d),
    "fig3b": _Figure("d_m", _span("d_max_m"), _fig3b),
    "fig3c": _Figure("tau_s", _periods(lambda trap: TWO_PI / trap.omega1),
                     _fig3c, ("time-average", "tau_s", "envelope_tau_s")),
    "fig4a": _Figure("tau_s", _periods(lambda trap: TWO_PI / trap.omega1),
                     _fig4a, ("time-average", "tau_s", "decay_time_s")),
    "fig4c": _Figure("two_r", _span("two_r_max"), _fig4c),
}
FIGURE_IDS = tuple(_FIGURES)


def generate(spec):
    """Compute the deterministic curve table for one figure: the sweep
    column, the builder's columns in order, and ``R_enveloped`` straight
    after ``R`` if the figure has an envelope."""
    figure = _FIGURES[spec.figure_id]
    columns, meta = figure.build_columns(spec)
    cols = {figure.sweep_column: spec.sweep, **columns}
    if figure.envelope:
        rule, time_column, tau_key = figure.envelope
        raw = cols["R"]
        baseline = (float(raw.mean()) if rule == "time-average" else
                    _squeezed_thermal_R(0.0, spec.constants["nbar0"],
                                        spec.rabi))
        enveloped = baseline + (raw - baseline) * np.exp(
            -cols[time_column] / spec.constants[tau_key])
        names = list(cols)
        names.insert(names.index("R") + 1, "R_enveloped")
        cols["R_enveloped"] = enveloped
        cols = {name: cols[name] for name in names}
        meta = {**meta, "envelope_baseline_R": baseline,
                "baseline_rule": rule}
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
