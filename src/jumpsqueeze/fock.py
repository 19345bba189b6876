"""Truncated Fock-space numerics: squeeze, displacement and wait operators
and their steps on a density factor, thermal states and populations.

Operators are plain dense complex ``numpy`` arrays in the number basis
``|0>, ..., |D-1>``.  A diagonal phase change makes both generators real
and symmetric: with ``P = diag(exp(i pi n / 4))`` the squeeze generator
``(a^2 - adag^2) / 2`` is ``i P H P^dag`` for ``H = (a^2 + adag^2) / 2``,
which couples only levels of equal parity, and with ``P = diag(i^n)``
the displacement generator ``adag - a`` is ``-i P X P^dag`` for the
Hermite Jacobi matrix ``X = a + adag``.  So every squeeze and
displacement at one dimension is ``P V diag(exp(i s lambda)) V^T P^dag``
in one real eigenbasis ``(lambda, V)`` of ``H`` (two half-size parity
blocks) or of ``X``.  Each basis is computed once per dimension, with
its orthogonality checked then, and cached.  The truncated operators are
therefore unitary to machine precision at any dimension; what
truncation costs is faithfulness to the infinite-dimensional operator,
which is what the tail-mass guard protects.

The top ``GUARD_BAND`` levels of the basis are treated as a sacrificial
band: states carrying more than ``TAIL_TOL`` population there are
rejected rather than silently truncated.
"""

import cmath
import functools
import math

import numpy as np

from .constants import MAX_DISPLACEMENT, MAX_FOCK_DIM, MAX_SQUEEZE_AMPLITUDE
from .errors import TruncationError

DEFAULT_DIM = 64
GUARD_BAND = 8
TAIL_TOL = 1e-6

_UNITARY_TOL = 1e-8
_HERMITICITY_TOL = 1e-12
_EIGENVALUE_TOL = -1e-10
_TRACE_TOL = 1e-8
_RANK_CUT = 1e-20  # relative weight below which a factor drops a column

# Each cached basis of dimension D holds about 8 D^2 bytes of
# eigenvectors (8 MB at the largest dimension, MAX_FOCK_DIM).
_BASIS_CACHE_SIZE = 8


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


def _squeeze_tail(r, dim):
    """Larger of the guard-band and beyond-``dim`` mass of S(r)|0>."""
    p = squeezed_vacuum_populations(r, dim + GUARD_BAND)
    return max(p[dim - GUARD_BAND:dim].sum(), p[dim:].sum())


def _coherent_tail(mean, dim):
    """Guard-band plus beyond-``dim`` mass of a coherent state."""
    p = np.zeros(dim)
    p[0] = math.exp(-mean)
    for k in range(1, dim):
        p[k] = p[k - 1] * mean / k
    return p[dim - GUARD_BAND:].sum() + max(0.0, 1.0 - p.sum())


@functools.lru_cache(maxsize=1024)
def _min_tail_dim(tail, size):
    """Smallest dimension 16, 32, ... below 65536 whose ``tail(size,
    dim)`` is below ``TAIL_TOL``; 2 for a zero ``size`` (|r|, or the
    mean number |alpha|^2).  Memoized, since a protocol or figure sweep
    asks again for every jump or shift of the same magnitude."""
    if size == 0:
        return 2
    for dim in range(16, 65536, 16):
        if tail(size, dim) < TAIL_TOL:
            return dim
    raise TruncationError(f"no dimension below 65536 has "
                          f"{tail.__name__}({size}, dim) < {TAIL_TOL}")


def min_squeeze_dim(r):
    """Smallest dimension whose top guard band holds less than
    ``TAIL_TOL`` of the squeezed vacuum S(r)|0>."""
    return _min_tail_dim(_squeeze_tail, abs(r))


def min_displacement_dim(alpha):
    """Smallest dimension whose top guard band holds less than
    ``TAIL_TOL`` of the coherent state D(alpha)|0>."""
    return _min_tail_dim(_coherent_tail, abs(alpha) ** 2)


def _eigenbasis(levels, off_diagonal):
    """Eigenbasis ``(levels, lambda, vt)`` of the real symmetric
    tridiagonal matrix with zero diagonal and the given off-diagonal,
    acting on the number states ``levels`` (a slice).  The rows of ``vt``
    are the eigenvectors; their orthogonality is checked here, once."""
    t = np.diag(off_diagonal, 1)
    lam, v = np.linalg.eigh(t + t.T)
    vt = np.ascontiguousarray(v.T)
    dev = np.max(np.abs(vt @ v - np.eye(len(lam))))
    if dev > _UNITARY_TOL:
        raise ValueError(f"eigenbasis is not orthogonal "
                         f"(deviation {dev:.3e} > {_UNITARY_TOL})")
    lam.flags.writeable = False
    vt.flags.writeable = False
    return levels, lam, vt


@functools.lru_cache(maxsize=_BASIS_CACHE_SIZE)
def squeeze_basis(dim):
    """Eigenbasis of ``H = (a^2 + adag^2) / 2`` on ``dim`` levels, one
    ``(levels, lambda, vt)`` block per parity (see :func:`_eigenbasis`).

    ``H[n, n+2] = sqrt((n+1)(n+2)) / 2`` is its only nonzero band, so the
    even and the odd levels form two tridiagonal blocks of half size.
    """
    blocks = []
    for parity in (0, 1):
        n = np.arange(parity, dim - 2, 2, dtype=float)
        blocks.append(_eigenbasis(slice(parity, dim, 2),
                                  0.5 * np.sqrt((n + 1.0) * (n + 2.0))))
    return tuple(blocks)


@functools.lru_cache(maxsize=_BASIS_CACHE_SIZE)
def displacement_basis(dim):
    """Eigenbasis of ``X = a + adag`` (``X[n-1, n] = sqrt(n)``) on ``dim``
    levels, as a single ``(levels, lambda, vt)`` block."""
    return (_eigenbasis(slice(0, dim), np.sqrt(np.arange(1.0, dim))),)


def _squeeze_step(r, theta, dim):
    """``(basis, angle, scale)`` of S(r, theta) on ``dim`` levels, after
    the domain and tail-mass checks (raises like squeeze_operator_exact);
    the basis is None at ``r == 0``, where no step needs it."""
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
    return squeeze_basis(dim) if r else None, 0.25 * math.pi + theta, r


def _displacement_step(alpha, dim):
    """``(basis, angle, scale)`` of D(alpha) on ``dim`` levels, like
    :func:`_squeeze_step` (raises like :func:`displacement_operator_exact`)."""
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
    return (displacement_basis(dim) if alpha else None,
            0.5 * math.pi + cmath.phase(alpha), -abs(alpha))


def _dense_operator(basis, angle, scale, dim):
    """The dense ``U = P W P^dag`` on ``dim`` levels: ``P = diag(exp(i
    angle n))`` and the blocks ``W = V diag(exp(i scale lambda)) V^T`` of
    ``basis``, each from one real x complex product on the float view (the
    real ``V`` is never upcast).  At ``scale == 0`` ``W`` is the identity,
    which ``V V^T`` would reproduce only to round-off."""
    phases = np.exp(1j * angle * np.arange(dim))
    if scale == 0:
        return phases[:, None] * np.eye(dim, dtype=complex) * phases.conj()
    out = np.zeros((dim, dim), dtype=complex)
    for levels, lam, vt in basis:
        rows = np.exp(1j * scale * lam)[:, None] * vt
        w = (vt.T @ rows.view(np.float64)).view(complex)
        p = phases[levels]
        out[levels, levels] = p[:, None] * w * p.conj()
    return out


def squeeze_operator_exact(r, theta=0.0, dim=DEFAULT_DIM):
    """Unitary squeeze operator S(xi) with xi = r * exp(2i*theta).

    The exponential of ``(conj(xi) a^2 - xi adag^2) / 2`` on the truncated
    basis, built as ``P V diag(exp(i r lambda)) V^T P^dag`` with ``P =
    diag(exp(i (pi/4 + theta) n))`` from the cached :func:`squeeze_basis`.

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
    return _dense_operator(*_squeeze_step(r, theta, dim), dim)


def displacement_operator_exact(alpha, dim=DEFAULT_DIM):
    """Unitary displacement operator ``exp(alpha adag - conj(alpha) a)``,
    built as ``P V diag(exp(-i |alpha| lambda)) V^T P^dag`` with ``P =
    diag(exp(i (pi/2 + arg alpha) n))`` from the cached
    :func:`displacement_basis`.

    Raises like :func:`squeeze_operator_exact`, with the tail rule
    evaluated on the Poisson distribution of D(alpha)|0>.
    """
    return _dense_operator(*_displacement_step(alpha, dim), dim)


def _free_evolution_phases(omega, tau, dim):
    if omega <= 0:
        raise ValueError(f"frequency must be positive, got {omega}")
    if tau < 0:
        raise ValueError(f"evolution time must be nonnegative, got {tau}")
    return np.exp(-1j * np.arange(dim) * omega * tau)


def free_evolution_operator(omega, tau, dim=DEFAULT_DIM):
    """Free-oscillation operator diag(exp(-i n omega tau)).

    The zero-point phase exp(-i omega tau / 2) is dropped; only
    populations and relative phases enter any observable here.
    """
    return np.diag(_free_evolution_phases(omega, tau, dim))


def thermal_factor(nbar0, dim):
    """The ``dim x K`` factor ``M`` (``rho = M M^dag``) of the thermal
    (geometric) state with mean occupation ``nbar0``, renormalized over the
    truncated basis: a column ``sqrt(p_n) e_n`` per level of weight ``p_n >
    _RANK_CUT p_0``; the mass dropped is below ``dim _RANK_CUT``."""
    if nbar0 < 0:
        raise ValueError(f"mean occupation must be nonnegative, got {nbar0}")
    beta = nbar0 / (1.0 + nbar0)
    p = (1.0 - beta) * beta ** np.arange(dim)
    p /= p.sum()
    k = np.count_nonzero(p > _RANK_CUT * p[0])  # p falls with n
    return np.eye(dim, k, dtype=complex) * np.sqrt(p[:k])


def _max_thermal_nbar0():
    """Largest mean occupation whose thermal state passes the tail-mass
    guard in ``MAX_FOCK_DIM`` levels: ``beta / (1 - beta)`` at the edge of
    the renormalized guard-band mass ``beta^(D-G) (1 - beta^G) / (1 -
    beta^D) = TAIL_TOL``, which rises with ``beta``, found by bisection."""
    d, g = MAX_FOCK_DIM, GUARD_BAND
    lo, hi = 0.0, 1.0
    while lo < (beta := 0.5 * (lo + hi)) < hi:
        if beta ** (d - g) * (1.0 - beta ** g) / (1.0 - beta ** d) < TAIL_TOL:
            lo = beta
        else:
            hi = beta
    return lo / (1.0 - lo)


# Largest nbar0 a Fock run can start from: above it the thermal state
# fails the tail-mass guard at every dimension up to MAX_FOCK_DIM.
MAX_THERMAL_NBAR0 = _max_thermal_nbar0()


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
    """Check Hermiticity, positive semidefiniteness and unit trace.

    No eigenvalue may lie below ``_EIGENVALUE_TOL``, which holds exactly
    when the Hermitian part minus ``_EIGENVALUE_TOL`` times the identity
    has a Cholesky factorization; the eigenvalues are computed only when it
    fails, to report the most negative one.
    """
    rho = np.asarray(rho)
    adjoint = rho.conj().T
    herm = np.max(np.abs(rho - adjoint))
    if herm > _HERMITICITY_TOL:
        raise ValueError(f"density matrix not Hermitian (deviation {herm:.3e})")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > _TRACE_TOL:
        raise ValueError(f"density matrix trace {tr} deviates from 1")
    shifted = 0.5 * (rho + adjoint)
    del adjoint
    shifted.flat[::len(rho) + 1] -= _EIGENVALUE_TOL
    lowest = 0.0
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        lowest = np.linalg.eigvalsh(shifted).min() + _EIGENVALUE_TOL
    if lowest < _EIGENVALUE_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {lowest:.3e}")
    return rho


def density_factor(rho):
    """A ``d x K`` factor of ``rho`` after :func:`validate_density`: a column
    ``sqrt(p) v`` per eigenpair of weight ``p > _RANK_CUT max(p)``; the mass
    dropped is below ``d _RANK_CUT``."""
    p, v = np.linalg.eigh(validate_density(np.asarray(rho, dtype=complex)))
    keep = p > _RANK_CUT * p.max()
    return v[:, keep] * np.sqrt(p[keep])


def number_distribution(rho):
    """Fock populations Re(rho_nn), clipped at zero, of a ``rho`` that
    passes :func:`validate_density`."""
    return np.clip(np.real(np.diag(validate_density(rho))), 0.0, None)


def _row_norms_sq(m):
    """The squared row norms of ``M``: the populations of ``M M^dag``."""
    rows = np.ascontiguousarray(m, dtype=complex).view(np.float64)
    return np.einsum("ij,ij->i", rows, rows)


def factor_populations(m):
    """Fock populations of ``rho = M M^dag``, checked to sum to 1 within
    ``_TRACE_TOL`` and by the tail-mass guard of every step; a Gram matrix
    needs no :func:`validate_density`."""
    p = _row_norms_sq(m)
    if abs(p.sum() - 1.0) > _TRACE_TOL:
        raise ValueError(f"density matrix trace {p.sum()} deviates from 1")
    return _checked_populations(1.0, p)


def _checked_populations(trace, populations):
    """``populations`` of a state updated from one of trace ``trace``,
    after the trace check and the tail-mass guard of every update."""
    if abs(populations.sum() - trace) > _TRACE_TOL:
        raise ValueError(
            f"trace not preserved: {trace} -> {populations.sum()}")
    tail = float(populations[len(populations) - GUARD_BAND:].sum())
    if tail >= TAIL_TOL:
        raise TruncationError(
            f"state carries {tail:.3e} population in the top "
            f"{GUARD_BAND} levels (tail-mass guard)",
            min_dim=_advise_dim_from_tail(populations))
    return populations


def _checked_factor(m, out):
    """``out`` after a factor update ``m -> out``: its squared row norms
    (the populations) keep the trace ``|m|_F^2`` and pass the tail guard."""
    _checked_populations(np.vdot(m, m).real, _row_norms_sq(out))
    return out


def _operator_and_state(u, rho):
    """``u`` and ``rho`` as complex arrays of one square shape."""
    u = np.asarray(u, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if u.shape != rho.shape or u.shape[0] != u.shape[1]:
        raise ValueError(f"dimension mismatch: U {u.shape} vs rho {rho.shape}")
    return u, rho


def apply_unitary(u, rho):
    """Conjugate a density matrix, ``u rho u^dag``, with contract checks.

    ``u`` is checked by :func:`validate_unitary`.  The result is
    re-Hermitized to suppress accumulated round-off and its trace is
    verified.  A result carrying more than ``TAIL_TOL`` population in the
    guard band raises :class:`TruncationError` instead of being returned.
    """
    validate_unitary(u)
    u, rho = _operator_and_state(u, rho)
    out = u @ rho @ u.conj().T
    out = 0.5 * (out + out.conj().T)
    _checked_populations(np.trace(rho).real, np.real(np.diag(out)))
    return out


def evolution_populations(u, m):
    """``populations(omega, tau)``: the number distribution of ``u rho_tau
    u^dag`` for ``rho = M M^dag`` and ``rho_tau = F rho F^dag`` (``F`` of
    :func:`free_evolution_operator`), as ``Re sum_k w_k c[k] exp(-i k omega
    tau)`` with ``c[k, i] = sum_j u[i, j] rho[j, j-k] conj(u[i, j-k])``,
    ``w_0 = 1`` and ``w_k = 2`` (``rho`` is Hermitian, so the ``-k`` terms
    conjugate the ``k`` ones): one ``d^3`` build of ``c``, then ``d^2``
    work per call.

    ``u`` is checked once, by :func:`validate_unitary`.  ``rho`` and every
    ``u rho_tau u^dag`` are Gram matrices ``A A^dag`` (``A = M``, ``u F
    M``), Hermitian and positive semidefinite for any ``A`` (Sylvester), so
    none needs a factorization.  Each call checks the populations' sum
    against ``|M|_F^2`` and their tail like :func:`apply_unitary` and that
    none is below the eigenvalue tolerance, then clips them at zero.
    """
    validate_unitary(u)
    u, rho = _operator_and_state(u, density_from_factor(m))
    trace, dim = np.vdot(m, m).real, len(rho)
    ut = u.T.copy()
    ubar_t, product, c = ut.conj(), np.empty_like(ut), np.empty_like(ut)
    for k in range(dim):
        np.multiply(ut[k:], ubar_t[:dim - k], out=product[:dim - k])
        c[k] = np.diagonal(rho, -k) @ product[:dim - k]
    c[1:] *= 2.0

    def populations(omega, tau):
        probs = _checked_populations(
            trace, (_free_evolution_phases(omega, tau, dim) @ c).real)
        if probs.min() < _EIGENVALUE_TOL:
            raise ValueError(f"negative population {probs.min():.3e}")
        return np.clip(probs, 0.0, None, out=probs)
    return populations


def _apply_in_basis(basis, angle, scale, m):
    """``U M``, checked, for ``U`` of :func:`_dense_operator`: ``P V
    (exp(i scale lambda) * V^T (P^dag M))`` per block, two real x complex
    products with ``W`` never formed; ``M`` itself at ``scale == 0``."""
    m = np.ascontiguousarray(m, dtype=complex)
    if scale == 0:
        return _checked_factor(m, m)
    out = np.empty_like(m)
    for levels, lam, vt in basis:
        p = np.exp(1j * angle * np.arange(len(m)))[levels, None]
        y = (vt @ (p.conj() * m[levels]).view(np.float64)).view(complex)
        y *= np.exp(1j * scale * lam)[:, None]
        out[levels] = p * (vt.T @ y.view(np.float64)).view(complex)
    return _checked_factor(m, out)


def apply_squeeze(r, m, theta=0.0):
    """``S(r, theta) M``: the factor of ``S rho S^dag`` for ``rho = M
    M^dag``, in the cached :func:`squeeze_basis` without forming ``S``;
    raises like :func:`squeeze_operator_exact` and :func:`apply_unitary`."""
    return _apply_in_basis(*_squeeze_step(r, theta, len(m)), m)


def apply_displacement(alpha, m):
    """``D(alpha) M``, like :func:`apply_squeeze` in the cached
    :func:`displacement_basis`; raises like
    :func:`displacement_operator_exact`."""
    return _apply_in_basis(*_displacement_step(alpha, len(m)), m)


def apply_free_evolution(omega, tau, m):
    """``F M`` for ``F`` of :func:`free_evolution_operator`, a phase per
    row of ``M``, without forming ``F``; checked like the other steps."""
    m = np.ascontiguousarray(m, dtype=complex)
    q = _free_evolution_phases(omega, tau, len(m))
    return _checked_factor(m, m * q[:, None])


def density_from_factor(m):
    """``M M^dag``, formed at ``2^500 M`` (exact scaling; ``|M|_F`` is 1) so
    no product is subnormal, a range BLAS runs up to ten times slower."""
    m = m * 2.0 ** 500
    return m @ m.conj().T * 2.0 ** -1000


def _advise_dim_from_tail(populations):
    """Extrapolate a dimension that would satisfy the tail rule, from the
    geometric decay of the top number ``populations``."""
    diag = np.clip(populations, 1e-300, None)
    dim = len(diag)
    top = diag[dim - GUARD_BAND:]
    ratio = (top[-1] / top[0]) ** (1.0 / (GUARD_BAND - 1))
    if ratio >= 1.0:
        return 4 * dim
    extra = math.log(TAIL_TOL / top.sum()) / math.log(ratio)
    return int(dim + 16 * math.ceil(max(extra, 16) / 16))
