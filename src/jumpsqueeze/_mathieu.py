"""Plane-wave diagonalization of the lattice eigenvalue problem.

Independent cross-check for the asymptotic level expansion: solves
``psi'' + (a - 2 q cos 2x) psi = 0`` in a truncated plane-wave basis at
the periodic and antiperiodic symmetry sectors.  Each sector splits
exactly into a cosine (even) and a sine (odd) block of half the size
(NIST DLMF §28.2, §28.4), and each block is diagonalized on its own.
Deep-lattice well levels appear as nearly degenerate sector pairs; each
level is reported as the pair mean.  Not part of the public API.
"""

import math

import numpy as np


def _tridiagonal_values(diagonal, off_diagonal):
    """Ascending eigenvalues of a real symmetric tridiagonal matrix."""
    return np.linalg.eigvalsh(np.diag(diagonal) + np.diag(off_diagonal, 1)
                              + np.diag(off_diagonal, -1))


def characteristic_values(q, sector, n_values, fourier_order=80):
    """Lowest Mathieu characteristic values ``a`` in one symmetry sector.

    sector 0 selects pi-periodic solutions (plane waves exp(i 2k x),
    |k| <= fourier_order), sector 1 the pi-antiperiodic ones (exp(i m x)
    for odd m, |m| <= 2 fourier_order + 1).  In the cosine and sine
    combinations of each ``m = 2k + sector >= 0`` and its ``-m`` the
    matrix is tridiagonal with diagonal m^2 and off-diagonal q, except
    that cos 0 couples to cos 2x with sqrt(2) q, and exp(+-ix) couple to
    each other, adding +q (cosine) or -q (sine) to m = 1's diagonal.
    """
    if sector not in (0, 1):
        raise ValueError("sector must be 0 or 1")
    m2 = (2.0 * np.arange(fourier_order + 1) + sector) ** 2
    off = np.full(fourier_order, float(q))
    if sector == 0:
        blocks = ((m2, np.r_[math.sqrt(2.0) * q, off[1:]]), (m2[1:], off[1:]))
    else:
        edge = np.r_[q, np.zeros(fourier_order)]
        blocks = ((m2 + edge, off), (m2 - edge, off))
    values = np.concatenate([_tridiagonal_values(*block) for block in blocks])
    return np.sort(values)[:n_values]


def lattice_levels(q, n_levels, fourier_order=80):
    """Well-level energies E_n / E_R from diagonalization.

    Merges both symmetry sectors and pairs consecutive eigenvalues; the
    energy offset E/E_R = a + 2q places the well bottom near zero.
    """
    per = characteristic_values(q, 0, n_levels + 2, fourier_order)
    anti = characteristic_values(q, 1, n_levels + 2, fourier_order)
    merged = np.sort(np.concatenate([per, anti]))
    pair_means = 0.5 * (merged[0:2 * n_levels:2] + merged[1:2 * n_levels:2])
    return pair_means + 2.0 * q


def bound_level_count(q, max_levels=200, fourier_order=120):
    """Number of diagonalized levels with E <= V0 (= 4 q E_R)."""
    levels = lattice_levels(q, max_levels, fourier_order)
    return int(np.sum(levels <= 4.0 * q))
