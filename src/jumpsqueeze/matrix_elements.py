"""Closed-form squared matrix elements of the squeeze and displacement
operators between number states, and squeezed-thermal number moments.

Each operator has one block evaluator: a numpy three-term recurrence in
the lower index, vectorized over the index difference and over a batch
of amplitudes (a scalar amplitude is a batch of one), whose terms stay
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


def _amplitudes(values, name, valid, kind=lambda v: v):
    """``values`` (a scalar or a 1-D array) as a list of ``kind``, after
    checking that each one is ``valid``."""
    values = [kind(v) for v in np.atleast_1d(values).tolist()]
    for value in values:
        if not valid(value):
            raise ValueError(f"{name} out of range: {value}")
    return values


def _distinct(indices):
    """The distinct values of a nonnegative integer array, sorted (what
    ``np.unique`` gives, without its import of ``numpy.ma``)."""
    return np.flatnonzero(np.bincount(indices.ravel()))


def _unstack(amplitudes, stack):
    """``stack``, whose last axis runs over the amplitudes, with that axis
    moved first as a C-contiguous array, or its one entry if
    ``amplitudes`` is a scalar."""
    stack = np.ascontiguousarray(np.moveaxis(stack, -1, 0))
    return stack if np.ndim(amplitudes) else stack[0]


def _squeeze_sq(r, n, l):
    """|<n|S(r)|l>|^2 for broadcastable integer arrays ``n``, ``l``, with a
    leading axis over ``r`` if it is a 1-D array: one recurrence column
    per distinct (l - n, parity) pair asked for."""
    rs = _amplitudes(r, "squeeze amplitude", lambda v: math.isfinite(v) and
                     abs(v) <= MAX_SQUEEZE_AMPLITUDE)
    t2 = [math.tanh(v) ** 2 for v in rs]
    low, diff = np.minimum(n, l), np.abs(n - l)
    column = diff - diff % 2 + low % 2
    needed = _distinct(column)
    d, p = np.divmod(needed, 2)  # entries n = 2j + p, l = n + 2d
    # Jacobi parameters, one row per column of the recurrence
    a, b = d.astype(float)[:, None], (p - 0.5)[:, None]
    # q[j] = P_j^(a,b)(x) / C(j + a, j), x = 1 - 2 t2, one column per
    # amplitude; the q[j - 2] term vanishes at j = 1, and every q is
    # exactly 1 at r = 0.  Coefficients that do not involve x are tabled.
    q = np.ones((int(low.max()) // 2 + 1, len(needed), len(rs)))
    jt = np.arange(len(q))[:, None, None]
    s = 2 * jt + a + b
    c1, c2, c3 = s - 1, s * (s - 2), 2 * (jt + b - 1) * s * (jt - 1)
    c4 = 2 * (jt + a + b) * (s - 2) * (jt + a)
    aa, bb, x = a * a, b * b, 1.0 - 2.0 * np.array(t2)
    for j in range(1, len(q)):
        q[j] = (c1[j] * (c2[j] * x + aa - bb) * q[j - 1]
                - c3[j] * q[j - 2]) / c4[j]
    q = q[low // 2, np.searchsorted(needed, column)]
    # prefactor applied to the amplitude, so neither factor overflows
    log_prefactor = (_LOG_FACTORIAL[low + diff] - _LOG_FACTORIAL[low]
                     - 2 * _LOG_FACTORIAL[diff // 2]) / 2
    amplitude = (q * np.exp(log_prefactor)[..., None]
                 * np.array([math.sqrt(v) / 2 for v in t2])
                 ** (diff // 2)[..., None]
                 / np.array([math.cosh(v) for v in rs])
                 ** (low % 2 + 0.5)[..., None])
    return _unstack(r, np.where((diff % 2)[..., None], 0.0, amplitude ** 2))


def _displacement_sq(alpha, n, l):
    """|<n|D(alpha)|l>|^2 for broadcastable integer arrays ``n``, ``l``,
    with a leading axis over ``alpha`` if it is a 1-D array: one
    recurrence column per distinct |l - n| asked for."""
    xs = [abs(v) ** 2 for v in _amplitudes(
        alpha, "displacement", lambda v: math.isfinite(v.real)
        and math.isfinite(v.imag) and abs(v) <= MAX_DISPLACEMENT, complex)]
    x = np.array(xs)
    low, diff = np.minimum(n, l), np.abs(n - l)
    k = _distinct(diff)
    # f[j, k] = |<j+k|D|j>|, one column per amplitude, with f[0] =
    # sqrt(x^k exp(-x) / k!) as a product that cannot overflow; the
    # f[j - 1] term vanishes at j = 0.  Coefficients free of x are tabled.
    f = np.zeros((int(low.max()) + 1, len(k), len(xs)))
    f[0] = (np.array([math.exp(-v / 2) for v in xs]) * np.cumprod(np.sqrt(
        np.vstack((np.ones_like(x), x / np.arange(1, k.max() + 1)[:, None]))),
        axis=0)[k])
    jt, kc = np.arange(len(f))[:, None, None], k[:, None]
    c1, c2 = 2 * jt + 1 + kc, np.sqrt(jt * (jt + kc))
    c3 = np.sqrt((jt + 1) * (jt + 1 + kc))
    for j in range(len(f) - 1):
        f[j + 1] = ((c1[j] - x) * f[j] - c2[j] * f[j - 1]) / c3[j]
    return _unstack(alpha, f[low, np.searchsorted(k, diff)] ** 2)


def squeeze_block_sq(r, n_max, l_max):
    """``|<n| S(r) |l>|^2`` for n = 0..n_max, l = 0..l_max and real
    ``r``, ``|r| <= 3``, as an ``(n_max+1) x (l_max+1)`` array; for a 1-D
    array of ``r``, their C-contiguous ``(m, n_max+1, l_max+1)`` stack.

    Symmetric in (n, l), even in ``r`` and zero wherever ``n + l`` is
    odd (parity selection rule).
    """
    _check_indices(n_max, l_max)
    return _squeeze_sq(r, *np.ogrid[:n_max + 1, :l_max + 1])


def displacement_block_sq(alpha, n_max, l_max):
    """``|<n| D(alpha) |l>|^2`` for n = 0..n_max, l = 0..l_max and
    complex ``alpha``, ``|alpha| <= 6``, as an ``(n_max+1) x (l_max+1)``
    array; for a 1-D array of ``alpha``, their C-contiguous ``(m,
    n_max+1, l_max+1)`` stack.  Symmetric in (n, l); depends on ``alpha``
    only through ``|alpha|^2``.
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
