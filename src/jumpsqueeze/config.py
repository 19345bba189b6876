"""JSON configuration: schema validation, defaults pinned to the
published operating point, and conversion into parameter objects.

Frequencies are configured in plain Hz (``*_hz`` keys) and converted to
rad/s internally; ``gamma_per_s`` is a decay rate and carries no 2 pi.
The default lattice wavenumber is pinned so the derived recoil energy is
exactly h * 2 kHz, which keeps the dimensionless lattice depth at its
quoted value q = 131.25 (a 1064 nm wavenumber would give 2.08 kHz).
"""

import math
from dataclasses import dataclass
from typing import Dict

from .constants import (HBAR, MAX_DISPLACEMENT, MAX_FOCK_DIM, MAX_INDEX,
                        MAX_SQUEEZE_AMPLITUDE, RB85_MASS, TWO_PI)
from .errors import (SCHEMA_VERSION, ConfigError, check_integer, check_number,
                     check_object, construct, read_json)
from .figures import FIGURE_IDS, check_overrides
from .fock import MAX_THERMAL_NBAR0
from .lattice import TrapParams
from .selfcheck import oracle_dim_for_displacement, oracle_dim_for_squeeze
from .spectroscopy import RabiParams

DEFAULT_RECOIL_HZ = 2e3
DEFAULT_LATTICE_WAVENUMBER = math.sqrt(
    2.0 * RB85_MASS * TWO_PI * HBAR * DEFAULT_RECOIL_HZ) / HBAR


def default_config_dict():
    """The full default configuration as a plain dict."""
    return {
        "schema_version": SCHEMA_VERSION,
        "fock_dim": 64,
        "nbar0": 0.22,
        "output_dir": "figures_out",
        "trap": {
            "omega1_hz": 93e3,
            "omega2_hz": 23e3,
            "mass_kg": RB85_MASS,
            "lattice_wavenumber_per_m": DEFAULT_LATTICE_WAVENUMBER,
            "v0_hz": 1.05e6,
            "calibration": 1.0,
        },
        "rabi": {
            "omega01_hz": 5.4e3,
            "gamma_per_s": 9.8e3,
            "pulse_t_s": 4e-4,
            "n_max": 20,
        },
        "figure_overrides": {},
        "selfcheck": {
            "element_r_values": [-1.6, -0.8, 0.3, 0.8, 1.2, 1.6],
            "element_alpha_values": [0.5, 1.5, 3.0],
            "element_n_max": 20,
            "state_amplitudes": [0.2, 0.3, 0.39],
            "alpha_i": 0.67,
        },
    }


@dataclass(frozen=True)
class Config:
    """Validated run configuration."""
    trap: TrapParams
    rabi: RabiParams
    fock_dim: int
    nbar0: float
    output_dir: str
    figure_overrides: Dict[str, Dict[str, float]]
    selfcheck: Dict[str, object]


def _with_defaults(doc, defaults, where):
    return {**defaults, **check_object(doc, where, defaults)}


def parse_config(doc):
    """Validate a config document (missing keys fall back to defaults,
    unknown keys are rejected) and build the parameter objects."""
    defaults = default_config_dict()
    top = _with_defaults(doc, defaults, "config")
    trap_doc = _with_defaults(top["trap"], defaults["trap"], "trap")
    rabi_doc = _with_defaults(top["rabi"], defaults["rabi"], "rabi")
    selfcheck = _with_defaults(top["selfcheck"], defaults["selfcheck"],
                               "selfcheck")

    trap = construct(
        TrapParams, "trap",
        omega1=check_number(trap_doc["omega1_hz"], "trap.omega1_hz",
                            scale=TWO_PI),
        omega2=check_number(trap_doc["omega2_hz"], "trap.omega2_hz",
                            scale=TWO_PI),
        mass=check_number(trap_doc["mass_kg"], "trap.mass_kg"),
        lattice_wavenumber=check_number(trap_doc["lattice_wavenumber_per_m"],
                                        "trap.lattice_wavenumber_per_m"),
        V0=check_number(trap_doc["v0_hz"], "trap.v0_hz", scale=TWO_PI * HBAR),
        calibration=check_number(trap_doc["calibration"], "trap.calibration"))
    rabi = construct(
        RabiParams, "rabi",
        omega01=check_number(rabi_doc["omega01_hz"], "rabi.omega01_hz",
                             scale=TWO_PI),
        gamma=check_number(rabi_doc["gamma_per_s"], "rabi.gamma_per_s"),
        pulse_t=check_number(rabi_doc["pulse_t_s"], "rabi.pulse_t_s"),
        n_max=check_integer(rabi_doc["n_max"], "rabi.n_max"))

    fock_dim = check_integer(top["fock_dim"], "fock_dim", 2, MAX_FOCK_DIM)
    nbar0 = check_number(top["nbar0"], "nbar0", 0, maximum=MAX_THERMAL_NBAR0)
    if not isinstance(top["output_dir"], str) or not top["output_dir"]:
        raise ConfigError("output_dir: expected a nonempty string")
    figure_overrides = {
        fig: check_overrides(fig, over, trap) for fig, over in check_object(
            top["figure_overrides"], "figure_overrides", FIGURE_IDS).items()}

    for key, bound in (("element_r_values", MAX_SQUEEZE_AMPLITUDE),
                       ("element_alpha_values", MAX_DISPLACEMENT),
                       ("state_amplitudes", math.inf)):
        values = selfcheck[key]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"selfcheck.{key}: expected a nonempty list "
                              f"of numbers")
        selfcheck[key] = [check_number(v, f"selfcheck.{key}[{i}]", -bound,
                                       maximum=bound)
                          for i, v in enumerate(values)]
    n_max = selfcheck["element_n_max"] = check_integer(
        selfcheck["element_n_max"], "selfcheck.element_n_max", 1, MAX_INDEX)
    for key, oracle_dim in (("element_r_values", oracle_dim_for_squeeze),
                            ("element_alpha_values",
                             oracle_dim_for_displacement)):
        for i, value in enumerate(selfcheck[key]):
            dim = oracle_dim(value, n_max)
            if dim > MAX_FOCK_DIM:
                raise ConfigError(
                    f"selfcheck.{key}[{i}]: {value} with "
                    f"selfcheck.element_n_max = {n_max} needs oracle Fock "
                    f"dimension {dim} > {MAX_FOCK_DIM}")
    selfcheck["alpha_i"] = check_number(
        selfcheck["alpha_i"], "selfcheck.alpha_i", 0)

    return Config(trap=trap, rabi=rabi, fock_dim=fock_dim, nbar0=nbar0,
                  output_dir=top["output_dir"],
                  figure_overrides=figure_overrides,
                  selfcheck=selfcheck)


def load_config(path=None):
    """Load and validate a config file; None gives the defaults."""
    return parse_config({} if path is None else read_json(path, "config"))
