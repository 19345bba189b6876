"""Mapping of Fock-number distributions to the sideband observable
R = P-/P+ through the Rabi-flopping model, with thermal weighting and the
phenomenological amplification decoherence model."""

import math
from dataclasses import dataclass

import numpy as np

from .constants import MAX_INDEX

THERMAL_TAIL_TOL = 1e-8


@dataclass(frozen=True)
class RabiParams:
    """Sideband Rabi-flopping parameters.

    omega01 is the two-photon Rabi angular frequency (rad/s), gamma the
    flopping decay rate (1/s), pulse_t the probe pulse duration (s) and
    n_max the summation cutoff over vibrational states.
    """
    omega01: float
    gamma: float
    pulse_t: float
    n_max: int = 20

    def __post_init__(self):
        if self.omega01 <= 0:
            raise ValueError("Rabi frequency omega01 must be positive")
        if self.gamma < 0:
            raise ValueError("decay rate gamma must be nonnegative")
        if self.pulse_t <= 0:
            raise ValueError("pulse duration pulse_t must be positive")
        if not 10 <= self.n_max <= MAX_INDEX:
            raise ValueError(f"summation cutoff n_max must lie in "
                             f"[10, {MAX_INDEX}], got {self.n_max}")


@dataclass(frozen=True)
class SidebandResult:
    """Unnormalized sideband populations and their ratio R = p_minus/p_plus."""
    p_plus: float
    p_minus: float
    R: float


@dataclass(frozen=True)
class DecoherenceParams:
    """Exponential thermalization during free oscillation.

    Gamma is the 1/e decay time (s) and t_prime the accumulated free
    oscillation time (s).
    """
    Gamma: float
    t_prime: float

    def __post_init__(self):
        if self.Gamma <= 0:
            raise ValueError("decay time must be positive")
        if self.t_prime < 0:
            raise ValueError("free-oscillation time must be nonnegative")

    @property
    def coherent_weight(self):
        """exp(-t'/Gamma), the surviving coherent fraction."""
        return math.exp(-self.t_prime / self.Gamma)


def thermal_weights(nbar0, l_max):
    """Boltzmann (geometric) weights for l = 0..l_max."""
    beta = nbar0 / (1.0 + nbar0)
    return (1.0 - beta) * beta ** np.arange(l_max + 1)


def default_l_max(nbar0):
    """Smallest cutoff with thermal tail mass below THERMAL_TAIL_TOL."""
    if nbar0 == 0:
        return 0
    beta = nbar0 / (1.0 + nbar0)
    # geometric tail beyond l_max is beta**(l_max + 1)
    return max(0, math.ceil(math.log(THERMAL_TAIL_TOL) / math.log(beta)) - 1)


def weighted_distribution(block_fn, nbar0, n_max):
    """Thermal-weighted number distribution
    ``P_n = sum_l w_l(nbar0) block_fn(n_max, l_max)[n, l]`` for
    n = 0..n_max, with ``l_max = default_l_max(nbar0)``.

    ``block_fn(n_max, l_max)`` must return the ``(n_max+1) x (l_max+1)``
    block of squared (column-normalized) matrix elements.
    """
    if nbar0 < 0:
        raise ValueError("mean occupation must be nonnegative")
    l_max = default_l_max(nbar0)
    return block_fn(n_max, l_max) @ thermal_weights(nbar0, l_max)


def sideband_populations(dist, rabi):
    """First blue and red sideband populations of a number distribution
    after a Rabi pulse, and their ratio.

    P+ sums ``P_n (1 - exp(-gamma t) cos(sqrt(n+1) Omega t))`` over
    n = 0..n_max, P- the matching ``sqrt(n)`` expression over n >= 1; the
    common proportionality constant cancels in R and the 1/2 prefactor is
    retained.
    """
    dist = np.asarray(dist, dtype=float)
    if dist.ndim != 1 or len(dist) == 0:
        raise ValueError("distribution must be a nonempty 1-D array")
    if np.any(dist < -1e-12):
        raise ValueError("distribution has negative entries")
    n_top = min(len(dist) - 1, rabi.n_max)
    n = np.arange(n_top + 1)
    contrast = math.exp(-rabi.gamma * rabi.pulse_t)
    x = rabi.omega01 * rabi.pulse_t
    p = dist[:n_top + 1]
    p_plus = 0.5 * float(np.sum(p * (1.0 - contrast * np.cos(np.sqrt(n + 1) * x))))
    p_minus = 0.5 * float(np.sum(
        p[1:] * (1.0 - contrast * np.cos(np.sqrt(n[1:]) * x))))
    if p_plus <= 0.0:
        raise ValueError("degenerate input: blue-sideband population is zero")
    return SidebandResult(p_plus, p_minus, p_minus / p_plus)


def nbar_from_R(R):
    """Thermal mean occupation R / (1 - R) inferred from a sideband ratio."""
    if not 0.0 <= R < 1.0:
        raise ValueError(f"sideband ratio must lie in [0, 1), got {R}")
    return R / (1.0 - R)


def amplified_distribution_decohered(displaced, alpha_f, nbar0, dec):
    """Number distribution of an amplified displaced thermal state subject
    to exponential thermalization.

    ``displaced`` is the displaced thermal distribution at ``alpha_f``
    for n = 0..n_max (as :func:`weighted_distribution` gives it).  The
    coherent fraction ``exp(-t'/Gamma)`` keeps it; the remainder is a
    thermal distribution with mean ``nbar0 + |alpha_f|^2``.
    """
    displaced = np.asarray(displaced, dtype=float)
    weight = dec.coherent_weight
    thermal = thermal_weights(nbar0 + abs(alpha_f) ** 2, len(displaced) - 1)
    return weight * displaced + (1.0 - weight) * thermal


def rabi_flop_model(t, A, B, C, gamma, omega01, Theta, t2):
    """Decaying Rabi oscillation with background and slow drift:
    ``A + B exp(-gamma t) sin(omega01 t + Theta) + C (1 - exp(-t/t2))``."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    return (A + B * math.exp(-gamma * t) * math.sin(omega01 * t + Theta)
            + C * (1.0 - math.exp(-t / t2)))
