"""Reference squared matrix elements from the closed-form finite sums,
accumulated in exact rational arithmetic with log-gamma prefactors.

Slow (one alternating sum per entry) but free of cancellation at any
index, so it checks the block recurrences of
:mod:`jumpsqueeze.matrix_elements` where the Fock oracle cannot reach:
indices up to ``MAX_INDEX`` and the largest amplitudes.
"""

import math
from fractions import Fraction

_LOG_TINY = -745.0  # exp underflows to 0 below this


def _log_abs(fr):
    return math.log(abs(fr.numerator)) - math.log(fr.denominator)


def squeeze_sq(n, l, r):
    """|<n| S(r) |l>|^2 for real ``r``."""
    if r == 0.0:
        return 1.0 if n == l else 0.0
    if r < 0.0:
        n, l, r = l, n, -r
    if (n + l) % 2 == 1:
        return 0.0
    # sum_g (-1)^g (sinh r / 2)^(2g) / (g! (n-2g)! ((l-n)/2 + g)!), exact
    x = Fraction(math.sinh(r)) ** 2 / 4
    total = Fraction(0)
    for g in range(max(0, (n - l) // 2), n // 2 + 1):
        m = (l - n) // 2 + g
        term = x ** g / (math.factorial(g) * math.factorial(n - 2 * g)
                         * math.factorial(m))
        total += -term if g % 2 else term
    if total == 0:
        return 0.0
    log_value = (-(2 * n + 1) * math.log(math.cosh(r))
                 + (l - n) * (math.log(math.tanh(r)) - math.log(2.0))
                 + _log_abs(math.factorial(l) * math.factorial(n)
                            * total * total))
    return 0.0 if log_value < _LOG_TINY else math.exp(log_value)


def displacement_sq(n, l, alpha):
    """|<n| D(alpha) |l>|^2 for complex ``alpha``."""
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
    log_value = (-aa + abs(l - n) * math.log(aa)
                 + _log_abs(total * total / (math.factorial(l)
                                             * math.factorial(n))))
    return 0.0 if log_value < _LOG_TINY else math.exp(log_value)
