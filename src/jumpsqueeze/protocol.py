"""Jump/wait/shift protocol sequences and their execution on the exact
Fock backend and on the fast symplectic (Gaussian) accumulator.

All Fock-backend states are kept in the eigenbasis of the instantaneous
trap: a frequency jump multiplies the state by the squeeze operator that
re-expresses it in the new basis (the wave function itself is unchanged
by a sudden jump), so waits stay diagonal.  Jumps are treated as
instantaneous; the hardware switching time is a validity condition of the
sudden approximation, not simulated.
"""

import cmath
import json
import math
from dataclasses import astuple, dataclass, field
from typing import Optional, Tuple, Union

import numpy as np

from . import fock
from .bogoliubov import (BogoliubovPair, bogoliubov_from_jump, compose_jump,
                         compose_wait, squeeze_params_from_pair)
from .constants import TWO_PI
from .errors import (SCHEMA_VERSION, ConfigError, TruncationError,
                     atomic_write, check_number, check_object, construct,
                     read_json)
from .lattice import metres_per_alpha, shift_from_coherent_alpha


def _check_frequency(omega, what):
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"{what} must be finite and positive, got {omega}")


@dataclass(frozen=True)
class FrequencyJump:
    """Sudden change of the trap frequency to ``omega_new`` (rad/s)."""
    omega_new: float

    def __post_init__(self):
        _check_frequency(self.omega_new, "jump target frequency")


@dataclass(frozen=True)
class Wait:
    """Free oscillation for ``tau`` seconds at the current frequency."""
    tau: float

    def __post_init__(self):
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise ValueError(f"wait time must be finite and >= 0, got {self.tau}")


@dataclass(frozen=True)
class ShiftOrigin:
    """Sudden translation of the potential minimum by ``d`` meters."""
    d: float

    def __post_init__(self):
        if not math.isfinite(self.d):
            raise ValueError(f"shift distance must be finite, got {self.d}")


@dataclass(frozen=True)
class UnshiftOrigin:
    """Return the potential minimum by the most recent unmatched shift."""


ProtocolStep = Union[FrequencyJump, Wait, ShiftOrigin, UnshiftOrigin]


def _walk(protocol):
    """Yield ``(index, step, omega, shift)`` for every step of ``protocol``.

    ``omega`` is the frequency in effect when the step starts (for a jump,
    the frequency jumped from).  ``shift`` is the signed trap translation
    in meters: ``d`` for a shift, minus the undone shift for an unshift
    and 0 for jumps and waits.
    """
    open_shifts = []
    omega = protocol.omega_initial
    for i, step in enumerate(protocol.steps):
        shift = 0.0
        if isinstance(step, ShiftOrigin):
            shift = step.d
            open_shifts.append(shift)
        elif isinstance(step, UnshiftOrigin):
            if not open_shifts:
                raise ValueError(
                    f"step {i}: unshift without an unmatched shift")
            shift = -open_shifts.pop()
        elif not isinstance(step, (FrequencyJump, Wait)):
            raise TypeError(f"step {i}: unknown step type {type(step)}")
        yield i, step, omega, shift
        if isinstance(step, FrequencyJump):
            omega = step.omega_new


@dataclass(frozen=True)
class Protocol:
    """An ordered jump/wait/shift sequence starting at ``omega_initial``;
    ``final_omega`` is the frequency in effect after the last step."""
    omega_initial: float
    steps: Tuple[ProtocolStep, ...]
    final_omega: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_frequency(self.omega_initial, "initial frequency")
        object.__setattr__(self, "steps", tuple(self.steps))
        final_omega = self.omega_initial
        total_wait = 0.0
        for _, step, _, _ in _walk(self):
            if isinstance(step, FrequencyJump):
                final_omega = step.omega_new
            elif isinstance(step, Wait):
                total_wait += step.tau
        if not math.isfinite(total_wait):
            raise ValueError("total wait time must be finite")
        object.__setattr__(self, "final_omega", final_omega)

    def inverse(self):
        """Formal inverse: reversed steps with inverted jumps and shifts,
        and waits completed to full oscillation periods."""
        inverted = []
        for _, step, omega, shift in _walk(self):
            if isinstance(step, FrequencyJump):
                inverted.append(FrequencyJump(omega))
            elif isinstance(step, Wait):
                period = TWO_PI / omega
                remainder = step.tau % period
                inverted.append(Wait(0.0 if remainder == 0 else period - remainder))
            else:
                inverted.append(ShiftOrigin(-shift))
        return Protocol(self.final_omega, tuple(reversed(inverted)))


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome of a protocol run.

    ``pair`` and ``displacement`` summarize the Gaussian action in the
    frame at the end of the protocol (displacement measured from the
    current trap minimum); ``final_factor`` is the factor ``M`` of the
    exact density matrix ``M M^dag`` when the Fock backend ran, else None.
    """
    pair: BogoliubovPair
    displacement: complex
    elapsed: float
    final_omega: float
    final_factor: Optional[np.ndarray] = None


def amplified_alpha(alpha_i, r):
    """Amplified displacement alpha_i * exp(2r) * exp(i pi) produced by
    squeezing, waiting a quarter period and anti-squeezing around a
    displacement."""
    return complex(alpha_i) * math.exp(2.0 * r) * cmath.exp(1j * math.pi)


def run_symplectic(protocol, params):
    """Run a protocol on the Gaussian accumulator.

    Tracks the Bogoliubov pair and the coherent displacement (relative to
    the instantaneous trap minimum, in the instantaneous frame's units).
    """
    pair = BogoliubovPair.identity()
    alpha = 0.0 + 0.0j
    elapsed = 0.0
    for _, step, omega, shift in _walk(protocol):
        if isinstance(step, FrequencyJump):
            jump, _ = bogoliubov_from_jump(omega, step.omega_new)
            pair = compose_jump(pair, jump)
            alpha = jump.u * alpha - jump.v * alpha.conjugate()
        elif isinstance(step, Wait):
            phase = omega * step.tau
            pair = compose_wait(pair, phase)
            alpha *= cmath.exp(-1j * phase)
            elapsed += step.tau
        else:
            alpha += shift / metres_per_alpha(params, omega)
    return ProtocolResult(pair, alpha, elapsed, protocol.final_omega)


def run_fock(protocol, params, initial):
    """Run a protocol on the exact Fock backend.

    The state is a ``d x K`` factor ``M`` of ``rho = M M^dag``: each step
    multiplies ``M`` from the left, so no step re-Hermitizes.

    Parameters
    ----------
    protocol : Protocol
    params : TrapParams
        Needed to convert trap shifts into displacement amplitudes.
    initial : ndarray
        The ``d x K`` factor of the initial state, e.g. from
        :func:`fock.thermal_factor`; ``d`` is the truncation dimension.
        It must have trace 1 and pass the tail-mass guard, like the state
        after every step.

    Returns
    -------
    ProtocolResult
        With ``final_factor`` set; the symplectic summary is accumulated
        alongside for cross-checks.

    Raises
    ------
    TruncationError
        Naming the initial state or the offending step, when a state trips
        the tail-mass guard or an operator cannot be built at ``d``.
    """
    try:
        fock.factor_populations(initial)
    except TruncationError as exc:
        raise TruncationError(f"initial state: {exc.base_message}",
                              min_dim=exc.min_dim) from exc
    except ValueError as exc:
        raise ValueError(f"initial state: {exc}") from exc
    m = initial
    symplectic = run_symplectic(protocol, params)
    for i, step, omega, amplitude in _fock_amplitudes(protocol, params):
        try:
            if isinstance(step, FrequencyJump):
                m = fock.apply_squeeze(amplitude, m)
            elif isinstance(step, Wait):
                m = fock.apply_free_evolution(omega, step.tau, m)
            else:
                m = fock.apply_displacement(amplitude, m)
        except TruncationError as exc:
            raise TruncationError(
                f"step {i} ({type(step).__name__}): {exc.base_message}",
                min_dim=exc.min_dim) from exc
    return ProtocolResult(symplectic.pair, symplectic.displacement,
                          symplectic.elapsed, protocol.final_omega,
                          final_factor=m)


def _fock_amplitudes(protocol, params):
    """Yield ``(index, step, omega, amplitude)`` for every step: the real
    squeeze amplitude ``r`` of a jump, the real displacement ``alpha`` of a
    shift or an unshift, and None for a wait."""
    for i, step, omega, shift in _walk(protocol):
        if isinstance(step, FrequencyJump):
            amplitude = 0.5 * math.log(omega / step.omega_new)
        elif isinstance(step, Wait):
            amplitude = None
        else:
            amplitude = shift / metres_per_alpha(params, omega)
        yield i, step, omega, amplitude


def check_amplitudes(protocol, params):
    """Raise ConfigError, naming ``steps[i]`` and its type, for the first
    jump or shift whose amplitude lies outside the range of the Fock
    operators, as :func:`fock.min_squeeze_dim` and
    :func:`fock.min_displacement_dim` bound it."""
    for i, step, _, amplitude in _fock_amplitudes(protocol, params):
        if amplitude is None:
            continue
        bound = (fock.min_squeeze_dim if isinstance(step, FrequencyJump)
                 else fock.min_displacement_dim)
        try:
            bound(amplitude)
        except ValueError as exc:
            raise ConfigError(
                f"steps[{i}] ({_STEP_JSON[type(step)][0]}): {exc}") from exc


def implied_factor(result, nbar0, dim=fock.DEFAULT_DIM):
    """A factor of the Fock density matrix implied by a symplectic summary
    acting on a thermal state.

    Valid for phase-rotation-invariant inputs (ground or thermal states):
    the residual rotation in the pair commutes through the input, so the
    state is D(alpha) S(r_eff, theta_eff) rho_th S^dag D^dag.
    """
    sp = squeeze_params_from_pair(result.pair)
    m = fock.thermal_factor(nbar0, dim)
    if sp.r > 0:
        m = fock.apply_squeeze(sp.r, m, sp.theta)
    if abs(result.displacement) > 0:
        m = fock.apply_displacement(result.displacement, m)
    return m


def implied_state(result, nbar0, dim=fock.DEFAULT_DIM):
    """The density matrix of :func:`implied_factor`."""
    return fock.density_from_factor(implied_factor(result, nbar0, dim))


BUILTIN_PROTOCOLS = ("S_minus_2r", "S_plus_2r", "multi_jump",
                     "displaced_squeeze", "amplify")


def builtin_protocol(name, params, n_jumps=None, alpha_i=None, r=None):
    """Construct one of the canonical protocols.

    S_minus_2r        jump down, quarter wait, jump back
    S_plus_2r         S_minus_2r plus a final quarter wait
    multi_jump        ``n_jumps`` alternating jumps with quarter waits
    displaced_squeeze S_plus_2r followed by a trap shift of amplitude
                      ``alpha_i``
    amplify           displaced_squeeze, quarter wait, then an
                      anti-squeezing double jump

    ``r`` overrides the per-jump amplitude (otherwise taken from the
    params' frequency pair); ``alpha_i`` sets the shift in displacement
    units.
    """
    omega1 = params.omega1
    if r is None:
        omega2 = params.omega2
    else:
        omega2 = omega1 * math.exp(-2.0 * r)
    quarter2 = 0.5 * math.pi / omega2
    quarter1 = 0.5 * math.pi / omega1
    double_jump = [FrequencyJump(omega2), Wait(quarter2), FrequencyJump(omega1)]

    if name == "S_minus_2r":
        steps = double_jump
    elif name == "S_plus_2r":
        steps = double_jump + [Wait(quarter1)]
    elif name == "multi_jump":
        if n_jumps is None or n_jumps < 1:
            raise ValueError("multi_jump requires n_jumps >= 1")
        steps = []
        for k in range(n_jumps):
            target = omega2 if k % 2 == 0 else omega1
            if k > 0:
                waited_at = omega2 if k % 2 == 1 else omega1
                steps.append(Wait(0.5 * math.pi / waited_at))
            steps.append(FrequencyJump(target))
    elif name in ("displaced_squeeze", "amplify"):
        if alpha_i is None:
            raise ValueError(f"{name} requires alpha_i")
        d = shift_from_coherent_alpha(alpha_i, params)
        steps = double_jump + [Wait(quarter1), ShiftOrigin(d)]
        if name == "amplify":
            steps += [Wait(quarter1)] + double_jump
    else:
        raise ValueError(f"unknown builtin protocol {name!r}; "
                         f"known: {', '.join(BUILTIN_PROTOCOLS)}")
    return Protocol(omega1, tuple(steps))


# Each step class's JSON "type", the JSON key of its value (None: no
# value) and the unit scale from that JSON value to the class's SI value.
_STEP_JSON = {
    FrequencyJump: ("frequency_jump", "omega_new_hz", TWO_PI),
    Wait: ("wait", "tau_s", 1.0),
    ShiftOrigin: ("shift_origin", "d_m", 1.0),
    UnshiftOrigin: ("unshift_origin", None, None),
}
_STEP_CLASSES = {kind: cls for cls, (kind, _, _) in _STEP_JSON.items()}


def protocol_to_json(protocol):
    """Serialize to the plain-JSON protocol document."""
    steps = []
    for step in protocol.steps:
        kind, key, scale = _STEP_JSON[type(step)]
        steps.append({"type": kind})
        for value in astuple(step):  # a step has at most one value
            steps[-1][key] = value / scale
    return {"schema_version": SCHEMA_VERSION,
            "omega_initial_hz": protocol.omega_initial / TWO_PI,
            "steps": steps}


def protocol_from_json(doc):
    """Parse the plain-JSON protocol document."""
    check_object(doc, "protocol", ("schema_version", "omega_initial_hz",
                                   "steps"), ("omega_initial_hz", "steps"))
    if not isinstance(doc["steps"], list):
        raise ConfigError("protocol steps must be a list")
    steps = []
    for i, entry in enumerate(doc["steps"]):
        where = f"steps[{i}]"
        kind = entry.get("type") if isinstance(entry, dict) else entry
        cls = _STEP_CLASSES.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ConfigError(f"{where}: step type must be one of "
                              f"{sorted(_STEP_CLASSES)}, got {kind!r}")
        _, key, scale = _STEP_JSON[cls]
        keys = ("type",) if key is None else ("type", key)
        check_object(entry, where, keys, keys)
        values = [check_number(entry[k], f"{where}.{k}", scale=scale)
                  for k in keys[1:]]
        steps.append(construct(cls, where, *values))
    omega_initial = check_number(doc["omega_initial_hz"], "omega_initial_hz",
                                 scale=TWO_PI)
    return construct(Protocol, "invalid protocol", omega_initial, steps)


def save_protocol(protocol, path):
    """Write the protocol document to ``path``; the write is atomic."""
    atomic_write(path, json.dumps(protocol_to_json(protocol), indent=2) + "\n")


def load_protocol(path):
    return protocol_from_json(read_json(path, "protocol"))
