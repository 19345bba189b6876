"""Closed-form squared matrix elements of the squeeze and displacement
operators between number states, and squeezed-thermal number moments.

Each operator has one block evaluator: a numpy three-term recurrence in
the lower index, vectorized over the index difference, whose terms stay
of order one over the supported domain (indices up to ``MAX_INDEX``,
``|r| <= 3``, ``|alpha| <= 6``).  Squeeze: the Jacobi polynomial
``P_j^(d, p-1/2)(1 - 2 tanh^2 r)`` over its value at 1 (Kim, de Oliveira
& Knight, PRA 40, 2494 (1989)) times a log-space prefactor.
Displacement: the normalized Laguerre function ``<j+k|D|j>`` (Cahill &
Glauber, Phys. Rev. 177, 1857 (1969)).  Against exact rational sums both
agree to about 1e-12 absolute and 1e-10 relative.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import MAX_DISPLACEMENT, MAX_INDEX, MAX_SQUEEZE_AMPLITUDE

_LOG_FACTORIAL = np.array([math.lgamma(k + 1.0)
                           for k in range(MAX_INDEX + 1)])


@dataclass(frozen=True)
class SqueezedThermalMoments:
    """Mean and standard deviation of the occupation of a squeezed
    thermal state."""
    nbar_st: float
    dnbar_st: float


def _check_indices(n, l):
    if not all(i == int(i) and 0 <= i <= MAX_INDEX for i in (n, l)):
        raise ValueError(f"number-state indices must be integers in "
                         f"[0, {MAX_INDEX}], got n={n}, l={l}")
    return int(n), int(l)


def _squeeze_sq(r, n, l):
    """|<n|S(r)|l>|^2 for broadcastable integer arrays ``n``, ``l``: one
    recurrence column per distinct (l - n, parity) pair asked for."""
    if not math.isfinite(r) or abs(r) > MAX_SQUEEZE_AMPLITUDE:
        raise ValueError(f"squeeze amplitude out of range: {r}")
    low, diff = np.minimum(n, l), np.abs(n - l)
    column = diff - diff % 2 + low % 2
    needed = np.unique(column)
    d, p = np.divmod(needed, 2)  # entries n = 2j + p, l = n + 2d
    a, b = d.astype(float), p - 0.5  # Jacobi parameters
    t2 = math.tanh(r) ** 2
    # q[j] = P_j^(a,b)(1 - 2 t2) / C(j + a, j); the q[j - 2] term
    # vanishes at j = 1, and every q is exactly 1 at r = 0
    q = np.ones((int(low.max()) // 2 + 1, len(needed)))
    for j in range(1, len(q)):
        s = 2 * j + a + b
        q[j] = ((s - 1) * (s * (s - 2) * (1.0 - 2.0 * t2) + a * a - b * b)
                * q[j - 1] - 2 * (j + b - 1) * s * (j - 1) * q[j - 2]) \
            / (2 * (j + a + b) * (s - 2) * (j + a))
    q = q[low // 2, np.searchsorted(needed, column)]
    # prefactor applied to the amplitude, so neither factor overflows
    log_prefactor = (_LOG_FACTORIAL[low + diff] - _LOG_FACTORIAL[low]
                     - 2 * _LOG_FACTORIAL[diff // 2]) / 2
    amplitude = (q * np.exp(log_prefactor) * (math.sqrt(t2) / 2) ** (diff // 2)
                 / math.cosh(r) ** (low % 2 + 0.5))
    return np.where(diff % 2, 0.0, amplitude ** 2)


def _displacement_sq(alpha, n, l):
    """|<n|D(alpha)|l>|^2 for broadcastable integer arrays ``n``, ``l``:
    one recurrence column per distinct |l - n| asked for."""
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)
            and abs(alpha) <= MAX_DISPLACEMENT):
        raise ValueError(f"displacement out of range: {alpha}")
    x = abs(alpha) ** 2
    low, diff = np.minimum(n, l), np.abs(n - l)
    k = np.unique(diff)
    # f[j, k] = |<j+k|D|j>|, with f[0] = sqrt(x^k exp(-x) / k!) as a
    # product that cannot overflow; the f[j - 1] term vanishes at j = 0
    f = np.zeros((int(low.max()) + 1, len(k)))
    f[0] = math.exp(-x / 2) * np.cumprod(np.sqrt(
        np.append(1.0, x / np.arange(1, k.max() + 1))))[k]
    for j in range(len(f) - 1):
        f[j + 1] = ((2 * j + 1 + k - x) * f[j]
                    - np.sqrt(j * (j + k)) * f[j - 1]) \
            / np.sqrt((j + 1) * (j + 1 + k))
    return f[low, np.searchsorted(k, diff)] ** 2


def squeeze_block_sq(r, n_max, l_max):
    """``|<n| S(r) |l>|^2`` for n = 0..n_max, l = 0..l_max and real
    ``r``, ``|r| <= 3``, as an ``(n_max+1) x (l_max+1)`` array.

    Symmetric in (n, l), even in ``r`` and zero wherever ``n + l`` is
    odd (parity selection rule).
    """
    _check_indices(n_max, l_max)
    return _squeeze_sq(r, *np.ogrid[:n_max + 1, :l_max + 1])


def displacement_block_sq(alpha, n_max, l_max):
    """``|<n| D(alpha) |l>|^2`` for n = 0..n_max, l = 0..l_max and
    complex ``alpha``, ``|alpha| <= 6``, as an ``(n_max+1) x (l_max+1)``
    array.  Symmetric in (n, l); depends on ``alpha`` only through
    ``|alpha|^2``.
    """
    _check_indices(n_max, l_max)
    return _displacement_sq(alpha, *np.ogrid[:n_max + 1, :l_max + 1])


def squeeze_matrix_element_sq(n, l, r):
    """|<n| S(r) |l>|^2 as a Python float: one entry of
    :func:`squeeze_block_sq`, from one column of its recurrence."""
    return float(_squeeze_sq(r, *map(np.array, _check_indices(n, l))))


def displacement_matrix_element_sq(n, l, alpha):
    """|<n| D(alpha) |l>|^2 as a Python float: one entry of
    :func:`displacement_block_sq`, from one column of its recurrence."""
    return float(_displacement_sq(alpha, *map(np.array,
                                              _check_indices(n, l))))


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
