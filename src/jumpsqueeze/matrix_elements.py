"""Closed-form squared matrix elements of the squeeze and displacement
operators between number states, and squeezed-thermal number moments.

The alternating finite sums are accumulated exactly (integer and rational
arithmetic), with log-gamma prefactors applied in log space, so the
results stay accurate to near machine precision over the full supported
domain instead of losing digits to factorial cancellation.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .constants import MAX_DISPLACEMENT, MAX_INDEX, MAX_SQUEEZE_AMPLITUDE

_LOG_TINY = -745.0  # exp underflows to 0 below this


@dataclass(frozen=True)
class SqueezedThermalMoments:
    """Mean and standard deviation of the occupation of a squeezed
    thermal state."""
    nbar_st: float
    dnbar_st: float


def _check_indices(n, l):
    if n != int(n) or l != int(l) or n < 0 or l < 0:
        raise ValueError(f"number-state indices must be nonnegative integers, "
                         f"got n={n}, l={l}")
    if n > MAX_INDEX or l > MAX_INDEX:
        raise ValueError(f"number-state index out of range (max {MAX_INDEX})")
    return int(n), int(l)


def _log_abs_fraction(fr):
    return math.log(fr.numerator if fr.numerator > 0 else -fr.numerator) \
        - math.log(fr.denominator)


def squeeze_matrix_element_sq(n, l, r):
    """|<n| S(r) |l>|^2 for a real squeeze amplitude ``r``.

    Zero whenever ``n + l`` is odd (parity selection rule).  Negative
    amplitudes are reduced through the adjoint relation
    ``|<n|S(-r)|l>|^2 = |<l|S(r)|n>|^2``.

    Parameters
    ----------
    n, l : int
        Final and initial number states.
    r : float
        Squeeze amplitude, ``|r| <= 3``.

    Returns
    -------
    float
        The squared matrix element, a probability.
    """
    n, l = _check_indices(n, l)
    if not math.isfinite(r) or abs(r) > MAX_SQUEEZE_AMPLITUDE:
        raise ValueError(f"squeeze amplitude out of range: {r}")
    if r == 0.0:
        return 1.0 if n == l else 0.0
    if r < 0.0:
        n, l, r = l, n, -r
    if (n + l) % 2 == 1:
        return 0.0
    sinh_r = math.sinh(r)
    # sum_g (-1)^g (sinh r / 2)^(2g) / (g! (n-2g)! ((l-n)/2 + g)!), exact
    x = Fraction(sinh_r) ** 2 / 4
    total = Fraction(0)
    for g in range(max(0, (n - l) // 2), n // 2 + 1):
        m = (l - n) // 2 + g
        term = x ** g / (math.factorial(g) * math.factorial(n - 2 * g)
                         * math.factorial(m))
        total += -term if g % 2 else term
    if total == 0:
        return 0.0
    exact = math.factorial(l) * math.factorial(n) * total * total
    log_value = (-(2 * n + 1) * math.log(math.cosh(r))
                 + (l - n) * (math.log(math.tanh(r)) - math.log(2.0))
                 + _log_abs_fraction(exact))
    return 0.0 if log_value < _LOG_TINY else math.exp(log_value)


def displacement_matrix_element_sq(n, l, alpha):
    """|<n| D(alpha) |l>|^2 for a complex displacement ``alpha``.

    Depends on ``alpha`` only through ``|alpha|^2``.

    Parameters
    ----------
    n, l : int
        Final and initial number states.
    alpha : complex
        Displacement, ``|alpha| <= 6``.
    """
    n, l = _check_indices(n, l)
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValueError("displacement must be finite")
    if abs(alpha) > MAX_DISPLACEMENT:
        raise ValueError(f"displacement out of range: |alpha| = {abs(alpha)}")
    aa = abs(alpha) ** 2
    if aa == 0.0:
        return 1.0 if n == l else 0.0
    # sum_g C(l,g) C(n,g) g! (-|alpha|^2)^(min-g), exact
    a_fr = Fraction(aa)
    m = min(n, l)
    total = Fraction(0)
    for g in range(m + 1):
        term = (math.comb(l, g) * math.comb(n, g) * math.factorial(g)
                * a_fr ** (m - g))
        total += -term if (m - g) % 2 else term
    if total == 0:
        return 0.0
    exact = total * total / (math.factorial(l) * math.factorial(n))
    log_value = -aa + abs(l - n) * math.log(aa) + _log_abs_fraction(exact)
    return 0.0 if log_value < _LOG_TINY else math.exp(log_value)


def squeezed_thermal_moments(nbar0, s):
    """Occupation mean and spread of a squeezed thermal state.

    For an initial thermal state of mean ``nbar0`` squeezed with total
    amplitude ``s``:

        nbar_st      = nbar0 cosh(2s) + sinh^2(s)
        (dnbar_st)^2 = (nbar0^2 + nbar0) cosh(4s) + sinh^2(2s) / 2
    """
    if nbar0 < 0:
        raise ValueError(f"mean occupation must be nonnegative, got {nbar0}")
    nbar_st = nbar0 * math.cosh(2.0 * s) + math.sinh(s) ** 2
    var = (nbar0 * nbar0 + nbar0) * math.cosh(4.0 * s) \
        + math.sinh(2.0 * s) ** 2 / 2.0
    return SqueezedThermalMoments(nbar_st, math.sqrt(var))
