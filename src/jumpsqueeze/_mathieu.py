"""Plane-wave diagonalization of the lattice eigenvalue problem.

Independent cross-check for the asymptotic level expansion: solves
``psi'' + (a - 2 q cos 2x) psi = 0`` in a truncated plane-wave basis at
the periodic and antiperiodic symmetry sectors.  Deep-lattice well levels
appear as nearly degenerate sector pairs; each level is reported as the
pair mean.  Not part of the public API.
"""

import numpy as np


def characteristic_values(q, sector, n_values, fourier_order=80):
    """Lowest Mathieu characteristic values ``a`` in one symmetry sector.

    sector 0 selects pi-periodic solutions (basis exp(i 2k x)), sector 1
    the pi-antiperiodic ones (basis exp(i (2k+1) x)).
    """
    if sector not in (0, 1):
        raise ValueError("sector must be 0 or 1")
    ks = np.arange(-fourier_order, fourier_order + 1)
    coupling = q * (np.eye(len(ks), k=1) + np.eye(len(ks), k=-1))
    return np.linalg.eigvalsh(np.diag((2.0 * ks + sector) ** 2)
                              + coupling)[:n_values]


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
