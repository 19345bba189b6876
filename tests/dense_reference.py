"""Dense reference states and operators for the Fock-backend tests.

The package carries every state as a factor ``M`` of ``rho = M M^dag``
and builds no ladder operator; the tests compare it against the dense
matrices here, which are built directly from their definitions.
"""

import numpy as np

from jumpsqueeze.fock import GUARD_BAND


def ladder_operators(dim):
    """Annihilation and creation operators on a ``dim``-level basis.

    Parameters
    ----------
    dim : int
        Truncation dimension, at least 2.

    Returns
    -------
    (ndarray, ndarray)
        ``a`` with ``a[n-1, n] = sqrt(n)`` and its conjugate transpose.
    """
    if dim < 2:
        raise ValueError(f"truncation dimension must be >= 2, got {dim}")
    a = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return a, a.conj().T


def thermal_density_matrix(nbar0, dim):
    """Thermal (geometric) density matrix with mean occupation ``nbar0``,
    renormalized over the truncated basis.

    The renormalization correction is available separately via
    :func:`thermal_truncation_deficit`.
    """
    if nbar0 < 0:
        raise ValueError(f"mean occupation must be nonnegative, got {nbar0}")
    beta = nbar0 / (1.0 + nbar0)
    p = (1.0 - beta) * beta ** np.arange(dim)
    p /= p.sum()
    return np.diag(p.astype(complex))


def thermal_truncation_deficit(nbar0, dim):
    """Probability mass of the ideal thermal state beyond the truncation."""
    if nbar0 < 0:
        raise ValueError(f"mean occupation must be nonnegative, got {nbar0}")
    return (nbar0 / (1.0 + nbar0)) ** dim


def guard_band_population(rho):
    """Population in the top ``GUARD_BAND`` levels of a density matrix."""
    diag = np.real(np.diag(rho))
    return float(diag[len(diag) - GUARD_BAND:].sum())


def plane_wave_characteristic_values(q, sector, fourier_order):
    """Every eigenvalue of the full plane-wave Mathieu matrix, ascending.

    The basis is ``exp(i m x)`` with ``m = 2k`` for |k| <= fourier_order
    (sector 0) or odd ``m`` with |m| <= 2 fourier_order + 1 (sector 1),
    the matrix ``diag(m^2)`` plus ``q`` between neighbouring ``m``.
    """
    ms = np.arange(-2 * fourier_order - sector, 2 * fourier_order + 2, 2)
    coupling = q * (np.eye(len(ms), k=1) + np.eye(len(ms), k=-1))
    return np.linalg.eigvalsh(np.diag(ms ** 2.0) + coupling)
