"""Truncated Fock-space numerics: ladder operators, exact operator
exponentials, thermal density matrices and number distributions.

Operators are plain dense complex ``numpy`` arrays in the number basis
``|0>, ..., |D-1>``.  The squeeze and displacement generators are
exactly anti-Hermitian even after truncation, which is the precondition
of :func:`matrix_exponential`: their exponentials come from one Hermitian
eigendecomposition and are unitary to machine precision at any
dimension.  What truncation costs is faithfulness to the
infinite-dimensional operator, which is what the tail-mass guard
protects.

The top ``GUARD_BAND`` levels of the basis are treated as a sacrificial
band: states carrying more than ``TAIL_TOL`` population there are
rejected rather than silently truncated.
"""

import math

import numpy as np

from .constants import MAX_DISPLACEMENT, MAX_SQUEEZE_AMPLITUDE
from .errors import TruncationError

DEFAULT_DIM = 64
GUARD_BAND = 8
TAIL_TOL = 1e-6

_UNITARY_TOL = 1e-8
_HERMITICITY_TOL = 1e-12
_EIGENVALUE_TOL = -1e-10
_TRACE_TOL = 1e-8


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


def matrix_exponential(matrix):
    """Exponential of an anti-Hermitian matrix ``K`` (``K^dag = -K``).

    ``iK`` is Hermitian, so ``iK = V diag(lambda) V^dag`` with real
    ``lambda`` and unitary ``V``, and ``exp(K) = V diag(exp(-i lambda))
    V^dag``.  ``eigh`` reads only one triangle of its input, so a matrix
    that is not anti-Hermitian is rejected rather than silently
    symmetrized.

    Raises
    ------
    ValueError
        If an entry is not finite, or ``K + K^dag`` deviates from zero by
        more than round-off.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix exponential requires finite entries")
    dev = np.max(np.abs(matrix + matrix.conj().T))
    if dev > _HERMITICITY_TOL * max(1.0, np.max(np.abs(matrix))):
        raise ValueError(f"matrix exponential requires an anti-Hermitian "
                         f"matrix (deviation {dev:.3e})")
    lam, v = np.linalg.eigh(1j * matrix)
    return (v * np.exp(-1j * lam)) @ v.conj().T


def squeezed_vacuum_populations(r, dim):
    """Number populations of the squeezed vacuum S(r)|0>, by recursion.

    Used for a-priori tail estimates; exact for the ideal (untruncated)
    operator.
    """
    p = np.zeros(dim)
    p[0] = 1.0 / math.cosh(r)
    t2 = math.tanh(r) ** 2
    for m in range(1, (dim - 1) // 2 + 1):
        p[2 * m] = p[2 * m - 2] * t2 * (2 * m - 1) / (2 * m)
    return p


def min_squeeze_dim(r):
    """Smallest dimension whose top guard band holds less than
    ``TAIL_TOL`` of the squeezed vacuum S(r)|0>."""
    r = abs(r)
    if r == 0:
        return 2
    dim = 16
    while dim < 65536:
        p = squeezed_vacuum_populations(r, dim + GUARD_BAND)
        if max(p[dim - GUARD_BAND:dim].sum(), p[dim:].sum()) < TAIL_TOL:
            return dim
        dim += 16
    raise TruncationError(f"no practical dimension holds squeeze r={r}")


def min_displacement_dim(alpha):
    """Smallest dimension whose top guard band holds less than
    ``TAIL_TOL`` of the coherent state D(alpha)|0>."""
    mean = abs(alpha) ** 2
    if mean == 0:
        return 2
    dim = 16
    while dim < 65536:
        # Poisson populations via stable recursion
        p = np.zeros(dim)
        p[0] = math.exp(-mean)
        for k in range(1, dim):
            p[k] = p[k - 1] * mean / k
        if p[dim - GUARD_BAND:].sum() + max(0.0, 1.0 - p.sum()) < TAIL_TOL:
            return dim
        dim += 16
    raise TruncationError(f"no practical dimension holds displacement {alpha}")


def squeeze_operator_exact(r, theta=0.0, dim=DEFAULT_DIM):
    """Unitary squeeze operator S(xi) with xi = r * exp(2i*theta).

    Built as the exponential of ``(conj(xi) a^2 - xi adag^2) / 2`` on the
    truncated basis.

    Parameters
    ----------
    r : float
        Squeeze amplitude; the sign flips the squeezed quadrature.
    theta : float
        Squeeze angle in radians (0 squeezes position).
    dim : int
        Truncation dimension.

    Raises
    ------
    ValueError
        If ``|r|`` exceeds the supported amplitude range.
    TruncationError
        If ``dim`` cannot hold the squeezed vacuum within the tail-mass
        rule; carries an advisory minimum dimension.
    """
    if not math.isfinite(r) or not math.isfinite(theta):
        raise ValueError("squeeze parameters must be finite")
    if abs(r) > MAX_SQUEEZE_AMPLITUDE:
        raise ValueError(
            f"|r| = {abs(r)} exceeds supported amplitude {MAX_SQUEEZE_AMPLITUDE}")
    needed = min_squeeze_dim(r)
    if dim < needed:
        raise TruncationError(
            f"dimension {dim} too small for squeeze amplitude |r| = {abs(r)}: "
            "tail-mass rule violated in the guard band", min_dim=needed)
    a, adag = ladder_operators(dim)
    xi = r * np.exp(2j * theta)
    gen = 0.5 * (np.conj(xi) * (a @ a) - xi * (adag @ adag))
    return matrix_exponential(gen)


def displacement_operator_exact(alpha, dim=DEFAULT_DIM):
    """Unitary displacement operator ``exp(alpha adag - conj(alpha) a)``.

    Raises like :func:`squeeze_operator_exact`, with the tail rule
    evaluated on the Poisson distribution of D(alpha)|0>.
    """
    alpha = complex(alpha)
    if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
        raise ValueError("displacement must be finite")
    if abs(alpha) > MAX_DISPLACEMENT:
        raise ValueError(
            f"|alpha| = {abs(alpha)} exceeds supported range {MAX_DISPLACEMENT}")
    needed = min_displacement_dim(alpha)
    if dim < needed:
        raise TruncationError(
            f"dimension {dim} too small for displacement |alpha| = {abs(alpha)}: "
            "tail-mass rule violated in the guard band", min_dim=needed)
    a, adag = ladder_operators(dim)
    return matrix_exponential(alpha * adag - np.conj(alpha) * a)


def free_evolution_operator(omega, tau, dim=DEFAULT_DIM):
    """Free-oscillation operator diag(exp(-i n omega tau)).

    The zero-point phase exp(-i omega tau / 2) is dropped; only
    populations and relative phases enter any observable here.
    """
    if omega <= 0:
        raise ValueError(f"frequency must be positive, got {omega}")
    if tau < 0:
        raise ValueError(f"evolution time must be nonnegative, got {tau}")
    phases = np.exp(-1j * np.arange(dim) * omega * tau)
    return np.diag(phases)


def thermal_density_matrix(nbar0, dim=DEFAULT_DIM):
    """Thermal (geometric) density matrix with mean occupation ``nbar0``,
    renormalized over the truncated basis.

    The renormalization correction is available separately via
    :func:`thermal_truncation_deficit`.
    """
    if nbar0 < 0:
        raise ValueError(f"mean occupation must be nonnegative, got {nbar0}")
    if nbar0 == 0:
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        return rho
    beta = nbar0 / (1.0 + nbar0)
    p = (1.0 - beta) * beta ** np.arange(dim)
    p /= p.sum()
    return np.diag(p.astype(complex))


def thermal_truncation_deficit(nbar0, dim=DEFAULT_DIM):
    """Probability mass of the ideal thermal state beyond the truncation."""
    if nbar0 < 0:
        raise ValueError(f"mean occupation must be nonnegative, got {nbar0}")
    if nbar0 == 0:
        return 0.0
    return (nbar0 / (1.0 + nbar0)) ** dim


def validate_unitary(u):
    """Check ``u`` is unitary on the guard-banded sub-block.

    Returns the maximum deviation of ``(u^dag u - I)`` on the sub-block
    ``[0, dim - GUARD_BAND)``; raises ValueError above ``_UNITARY_TOL``.
    """
    u = np.asarray(u)
    dim = u.shape[0]
    block = dim - GUARD_BAND if dim > GUARD_BAND else dim
    dev = u.conj().T @ u - np.eye(dim)
    worst = np.max(np.abs(dev[:block, :block]))
    if worst > _UNITARY_TOL:
        raise ValueError(f"matrix is not unitary on the guarded block "
                         f"(deviation {worst:.3e} > {_UNITARY_TOL})")
    return worst


def validate_density(rho):
    """Check Hermiticity, positive semidefiniteness and unit trace."""
    rho = np.asarray(rho)
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > _HERMITICITY_TOL:
        raise ValueError(f"density matrix not Hermitian (deviation {herm:.3e})")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > _TRACE_TOL:
        raise ValueError(f"density matrix trace {tr} deviates from 1")
    eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if eigs.min() < _EIGENVALUE_TOL:
        raise ValueError(
            f"density matrix has negative eigenvalue {eigs.min():.3e}")
    return rho


def guard_band_population(rho):
    """Population in the top ``GUARD_BAND`` levels of a density matrix."""
    diag = np.real(np.diag(rho))
    return float(diag[len(diag) - GUARD_BAND:].sum())


def number_distribution(rho):
    """Fock populations Re(rho_nn), clipped at zero.

    The input must satisfy the density-matrix contract.
    """
    validate_density(rho)
    probs = np.real(np.diag(rho)).copy()
    np.clip(probs, 0.0, None, out=probs)
    return probs


def apply_unitary(u, rho):
    """Conjugate a density matrix, ``u rho u^dag``, with contract checks.

    The result is re-Hermitized to suppress accumulated round-off and its
    trace is verified.  A result carrying more than ``TAIL_TOL``
    population in the guard band raises :class:`TruncationError` instead
    of being returned.
    """
    u = np.asarray(u, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if u.shape != rho.shape or u.shape[0] != u.shape[1]:
        raise ValueError(f"dimension mismatch: U {u.shape} vs rho {rho.shape}")
    validate_unitary(u)
    trace_before = np.trace(rho).real
    out = u @ rho @ u.conj().T
    out = 0.5 * (out + out.conj().T)
    trace_after = np.trace(out).real
    if abs(trace_after - trace_before) > _TRACE_TOL:
        raise ValueError(
            f"trace not preserved: {trace_before} -> {trace_after}")
    tail = guard_band_population(out)
    if tail >= TAIL_TOL:
        raise TruncationError(
            f"state carries {tail:.3e} population in the top "
            f"{GUARD_BAND} levels (tail-mass guard)",
            min_dim=_advise_dim_from_tail(out))
    return out


def _advise_dim_from_tail(rho):
    """Extrapolate a dimension that would satisfy the tail rule, from the
    geometric decay of the top populations."""
    diag = np.clip(np.real(np.diag(rho)), 1e-300, None)
    dim = len(diag)
    top = diag[dim - GUARD_BAND:]
    ratio = (top[-1] / top[0]) ** (1.0 / (GUARD_BAND - 1))
    if ratio >= 1.0:
        return 4 * dim
    extra = math.log(TAIL_TOL / top.sum()) / math.log(ratio)
    return int(dim + 16 * math.ceil(max(extra, 16) / 16))
