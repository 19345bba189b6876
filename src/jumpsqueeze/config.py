"""JSON configuration: schema validation, defaults pinned to the
published operating point, and conversion into parameter objects.

Frequencies are configured in plain Hz (``*_hz`` keys) and converted to
rad/s internally; ``gamma_per_s`` is a decay rate and carries no 2 pi.
The default lattice wavenumber is pinned so the derived recoil energy is
exactly h * 2 kHz, which keeps the dimensionless lattice depth at its
quoted value q = 131.25 (a 1064 nm wavenumber would give 2.08 kHz).
"""

import json
import math
from dataclasses import dataclass
from typing import Dict

from .constants import HBAR, RB85_MASS, TWO_PI
from .errors import ConfigError, check_number
from .figures import CONSTANT_MINIMUMS, DEFAULT_CONSTANTS, FIGURE_IDS
from .lattice import TrapParams
from .spectroscopy import RabiParams

SCHEMA_VERSION = 1

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


def _merge(defaults, overrides, where):
    if not isinstance(overrides, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    merged = dict(defaults)
    merged.update(overrides)
    return merged


def parse_config(doc):
    """Validate a config document (missing keys fall back to defaults,
    unknown keys are rejected) and build the parameter objects."""
    defaults = default_config_dict()
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    top = _merge(defaults, doc, "config")
    if top["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported config schema_version {top['schema_version']!r}")

    trap_doc = _merge(defaults["trap"], top["trap"], "config.trap")
    rabi_doc = _merge(defaults["rabi"], top["rabi"], "config.rabi")

    trap = TrapParams(
        omega1=TWO_PI * check_number(trap_doc["omega1_hz"],
                                     "trap.omega1_hz", 0, strict=True),
        omega2=TWO_PI * check_number(trap_doc["omega2_hz"],
                                     "trap.omega2_hz", 0, strict=True),
        mass=check_number(trap_doc["mass_kg"], "trap.mass_kg", 0, strict=True),
        lattice_wavenumber=check_number(
            trap_doc["lattice_wavenumber_per_m"],
            "trap.lattice_wavenumber_per_m", 0, strict=True),
        V0=TWO_PI * HBAR * check_number(trap_doc["v0_hz"],
                                        "trap.v0_hz", 0, strict=True),
        calibration=check_number(trap_doc["calibration"],
                                 "trap.calibration", 0, strict=True),
    )
    n_max = rabi_doc["n_max"]
    if isinstance(n_max, bool) or not isinstance(n_max, int):
        raise ConfigError(f"rabi.n_max: expected an integer, got {n_max!r}")
    rabi = RabiParams(
        omega01=TWO_PI * check_number(rabi_doc["omega01_hz"],
                                      "rabi.omega01_hz", 0, strict=True),
        gamma=check_number(rabi_doc["gamma_per_s"], "rabi.gamma_per_s", 0),
        pulse_t=check_number(rabi_doc["pulse_t_s"],
                             "rabi.pulse_t_s", 0, strict=True),
        n_max=n_max,
    )

    fock_dim = top["fock_dim"]
    if isinstance(fock_dim, bool) or not isinstance(fock_dim, int) or fock_dim < 2:
        raise ConfigError(f"fock_dim: expected an integer >= 2, got {fock_dim!r}")
    nbar0 = check_number(top["nbar0"], "nbar0", 0)
    if not isinstance(top["output_dir"], str) or not top["output_dir"]:
        raise ConfigError("output_dir: expected a nonempty string")

    overrides_doc = top["figure_overrides"]
    if not isinstance(overrides_doc, dict):
        raise ConfigError("figure_overrides: expected an object")
    unknown_figs = set(overrides_doc) - set(FIGURE_IDS)
    if unknown_figs:
        raise ConfigError(f"figure_overrides: unknown figure ids "
                          f"{sorted(unknown_figs)}")
    figure_overrides = {}
    for fig, over in overrides_doc.items():
        _merge(DEFAULT_CONSTANTS[fig], over, f"figure_overrides.{fig}")
        for key, value in over.items():
            check_number(value, f"figure_overrides.{fig}.{key}",
                         *CONSTANT_MINIMUMS.get(key, ()))
        figure_overrides[fig] = dict(over)

    selfcheck_doc = _merge(defaults["selfcheck"], top["selfcheck"],
                           "config.selfcheck")
    for key in ("element_r_values", "element_alpha_values",
                "state_amplitudes"):
        values = selfcheck_doc[key]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"selfcheck.{key}: expected a nonempty list "
                              f"of numbers")
        selfcheck_doc[key] = [check_number(v, f"selfcheck.{key}[{i}]")
                              for i, v in enumerate(values)]
    selfcheck_doc["element_n_max"] = int(
        check_number(selfcheck_doc["element_n_max"], "selfcheck.element_n_max", 1))
    selfcheck_doc["alpha_i"] = check_number(
        selfcheck_doc["alpha_i"], "selfcheck.alpha_i", 0)

    return Config(trap=trap, rabi=rabi, fock_dim=fock_dim, nbar0=nbar0,
                  output_dir=top["output_dir"],
                  figure_overrides=figure_overrides,
                  selfcheck=selfcheck_doc)


def load_config(path=None):
    """Load and validate a config file; None gives the defaults."""
    if path is None:
        return parse_config({})
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"malformed config JSON: {exc}") from exc
    return parse_config(doc)
