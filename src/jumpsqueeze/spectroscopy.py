"""Mapping of Fock-number distributions to the sideband observable
R = P-/P+ through the Rabi-flopping model, with thermal weighting and the
phenomenological amplification decoherence model."""

import math
from dataclasses import dataclass

import numpy as np

from .constants import MAX_INDEX

THERMAL_TAIL_TOL = 1e-8

# Largest number of matrix elements weighted_distribution evaluates at
# once: a sweep's blocks are built this many elements' worth of rows at a
# time, so memory stays bounded however many amplitudes a sweep has.
CHUNK_ELEMENTS = 1 << 18


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
    """Unnormalized sideband populations and their ratio R = p_minus/p_plus
    (arrays, one entry per distribution, for a stack of distributions)."""
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


def _max_nbar0():
    """Largest mean occupation whose default_l_max is at most MAX_INDEX:
    the closed-form edge beta = THERMAL_TAIL_TOL ** (1 / (MAX_INDEX + 1)),
    stepped down past its round-off."""
    beta = THERMAL_TAIL_TOL ** (1.0 / (MAX_INDEX + 1))
    nbar0 = beta / (1.0 - beta)
    while default_l_max(nbar0) > MAX_INDEX:
        nbar0 = math.nextafter(nbar0, 0.0)
    return nbar0


# Largest thermal mean occupation the matrix-element sums can weight.
MAX_NBAR0 = _max_nbar0()


def weighted_distribution(block_sq, amplitudes, nbar0, n_max):
    """Thermal-weighted number distribution
    ``P_n = sum_l w_l(nbar0) |<n|U(a)|l>|^2`` for n = 0..n_max, with
    ``l_max = default_l_max(nbar0)``, at each amplitude ``a``: an
    ``(m, n_max+1)`` stack for a 1-D array of m amplitudes, one
    distribution for a scalar.

    ``block_sq(amplitudes, n_max, l_max)`` is a block evaluator of
    :mod:`.matrix_elements` (``squeeze_block_sq`` or
    ``displacement_block_sq``); it is called on at most
    ``CHUNK_ELEMENTS`` elements' worth of amplitudes at a time.
    """
    if nbar0 < 0:
        raise ValueError("mean occupation must be nonnegative")
    l_max = default_l_max(nbar0)
    weights = thermal_weights(nbar0, l_max)
    batch = np.atleast_1d(amplitudes)
    rows = max(1, CHUNK_ELEMENTS // ((n_max + 1) * (l_max + 1)))
    stack = np.concatenate([block_sq(batch[i:i + rows], n_max, l_max)
                            @ weights for i in range(0, len(batch), rows)])
    return stack if np.ndim(amplitudes) else stack[0]


def sideband_populations(dist, rabi):
    """First blue and red sideband populations of a number distribution
    after a Rabi pulse, and their ratio: Python floats for a 1-D ``dist``,
    one array entry per row for a 2-D stack of distributions.

    P+ sums ``P_n (1 - exp(-gamma t) cos(sqrt(n+1) Omega t))`` over
    n = 0..n_max, P- the matching ``sqrt(n)`` expression over n >= 1; the
    common proportionality constant cancels in R and the 1/2 prefactor is
    retained.
    """
    dist = np.asarray(dist, dtype=float)
    if dist.ndim not in (1, 2) or dist.shape[-1] == 0:
        raise ValueError("distribution must be a nonempty 1-D array or a "
                         "stack of them")
    if (dist < -1e-12).any():
        raise ValueError("distribution has negative entries")
    n_top = min(dist.shape[-1] - 1, rabi.n_max)
    n = np.arange(n_top + 1)
    contrast = math.exp(-rabi.gamma * rabi.pulse_t)
    x = rabi.omega01 * rabi.pulse_t
    p = dist[..., :n_top + 1]
    p_plus = 0.5 * (p * (1.0 - contrast * np.cos(np.sqrt(n + 1) * x))).sum(-1)
    p_minus = 0.5 * (p[..., 1:] * (
        1.0 - contrast * np.cos(np.sqrt(n[1:]) * x))).sum(-1)
    if (p_plus <= 0.0).any():
        raise ValueError("degenerate input: blue-sideband population is zero")
    if dist.ndim == 1:
        p_plus, p_minus = float(p_plus), float(p_minus)
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
