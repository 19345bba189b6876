"""Symplectic (Bogoliubov) algebra of sudden frequency jumps.

A jump or jump/wait sequence acting on a harmonic oscillator is summarized
by a complex pair ``(u, v)`` with ``|u|^2 - |v|^2 = 1``, acting on the
ladder operator as ``a' = u a - v a^dag``.  A fresh downward jump has real
``u = cosh(r)``, ``v = sinh(r)`` with ``r = ln(omega_from/omega_to)/2``,
which squeezes the position quadrature.  Sequences compose by SU(1,1)
matrix products, waits by the rotation ``diag(exp(-i phi), exp(+i phi))``.
"""

import cmath
import math
from dataclasses import dataclass

_PI = math.pi


@dataclass(frozen=True)
class BogoliubovPair:
    """Complex pair (u, v) acting as ``a' = u a - v a^dag``."""
    u: complex
    v: complex

    def defect(self):
        """Deviation of |u|^2 - |v|^2 from 1 (should stay below 1e-10)."""
        return abs(abs(self.u) ** 2 - abs(self.v) ** 2 - 1.0)

    @staticmethod
    def identity():
        return BogoliubovPair(1.0 + 0.0j, 0.0 + 0.0j)


@dataclass(frozen=True)
class SqueezeParams:
    """Squeeze amplitude r >= 0 and angle theta in [0, pi)."""
    r: float
    theta: float

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"squeeze amplitude must be >= 0, got {self.r}")
        if not 0.0 <= self.theta < _PI:
            raise ValueError(f"squeeze angle must lie in [0, pi), got {self.theta}")


def bogoliubov_from_jump(omega_from, omega_to):
    """Bogoliubov pair and signed amplitude of a sudden frequency jump.

    Parameters
    ----------
    omega_from, omega_to : float
        Oscillation frequencies (rad/s) before and after the jump.

    Returns
    -------
    (BogoliubovPair, float)
        The pair ``(u, v) = ((w1+w2)/2 sqrt(w1 w2), (w1-w2)/2 sqrt(w1 w2))``
        and the signed amplitude ``r = ln(omega_from/omega_to)/2``.  A
        negative ``r`` (upward jump) squeezes momentum instead of position.
    """
    if omega_from <= 0 or omega_to <= 0:
        raise ValueError("jump frequencies must be positive")
    # an exact power-of-two scale keeps their product in the float range
    w_from, w_to = (math.ldexp(w, -math.frexp(omega_from)[1])
                    for w in (omega_from, omega_to))
    root = 2.0 * math.sqrt(w_from * w_to)
    u = (w_from + w_to) / root
    v = (w_from - w_to) / root
    r = 0.5 * math.log(omega_from / omega_to)
    return BogoliubovPair(complex(u), complex(v)), r


def compose_wait(pair, phase):
    """Compose a free-evolution rotation of ``phase = omega * tau`` radians
    onto an existing pair.

    Equivalent to left-multiplying the pair's SU(1,1) matrix by
    ``diag(exp(-i phase), exp(+i phase))``.  For a real input pair followed
    by an inverse jump this reproduces the double-jump coefficients
    ``u' = cos(phase) - i (u^2+v^2) sin(phase)``, ``v' = -2i u v sin(phase)``.
    """
    ph = cmath.exp(-1j * phase)
    return BogoliubovPair(pair.u * ph, pair.v * ph)


def compose_jump(pair, jump):
    """Compose a further jump onto an existing pair (SU(1,1) product)."""
    u = jump.u * pair.u + jump.v * pair.v.conjugate()
    v = jump.u * pair.v + jump.v * pair.u.conjugate()
    return BogoliubovPair(u, v)


def invert_pair(pair):
    """Pair of the inverse transformation."""
    return BogoliubovPair(pair.u.conjugate(), -pair.v)


def squeeze_params_from_pair(pair):
    """Extract (r, theta) of the squeeze equivalent to a general pair.

    ``r = arcsinh|v|`` is always defined; the angle
    ``theta = (arg u + arg v)/2 mod pi`` is fixed so that a fresh downward
    jump (real u, v > 0) squeezes position (theta = 0).  The resulting
    squeeze reproduces the pair's action on any phase-rotation-invariant
    state.
    """
    r = math.asinh(abs(pair.v))
    if abs(pair.v) == 0:
        return SqueezeParams(0.0, 0.0)
    theta = 0.5 * (cmath.phase(pair.u) + cmath.phase(pair.v)) % _PI
    if theta >= _PI:  # guard against rounding at the branch edge
        theta -= _PI
    return SqueezeParams(r, theta)


def ln_u_plus_v(pair):
    """Diagnostic amplitude ln|u + v|.

    Matches the squeeze amplitude of :func:`squeeze_params_from_pair` when
    the pair's phases are aligned (e.g. right after a quarter-cycle
    double jump); exposed for cross-checks only.
    """
    return math.log(abs(pair.u + pair.v))


def squeezing_db(r_half):
    """Squeezing factor in dB, ``10 log10(exp(4 r))``, for the
    per-quadrature amplitude ``r_half``."""
    return 10.0 * math.log10(math.exp(4.0 * r_half))
