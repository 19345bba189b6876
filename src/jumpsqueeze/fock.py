"""Truncated Fock-space numerics: squeeze, displacement and wait operators
and their steps on a density factor, thermal states and populations.

A state is a ``D x K`` factor ``M`` of ``rho = M M^dag`` in the number
basis ``|0>, ..., |D-1>``, multiplied from the left by each step without
forming its operator; dense operators are built only for fig4a's undo
operator and the selfcheck oracles.  A diagonal phase change makes both
generators real and symmetric: with ``P = diag(exp(i pi n / 4))`` the
squeeze generator ``(a^2 - adag^2) / 2`` is ``i P H P^dag`` for ``H =
(a^2 + adag^2) / 2``, which couples only levels of equal parity, and with
``P = diag(i^n)`` the displacement generator ``adag - a`` is ``-i P X
P^dag`` for the Hermite Jacobi matrix ``X = a + adag``.  Each parity block
of ``H``, and ``X`` itself, is a tridiagonal matrix with zero diagonal, so
after an even/odd split of its levels it is ``[[0, B], [B^T, 0]]`` with a
bidiagonal ``B``, and its exponential comes from the SVD ``B = U diag(sigma)
W^T`` (G. Golub and W. Kahan, SIAM J. Numer. Anal. 2, 205 (1965)): the
squeeze blocks hold the levels ``n = 0, 2`` and ``1, 3 (mod 4)``, the
displacement block the even and the odd levels.  On these rows ``P``
reduces to signs ``+-1`` and a common ``i`` on the ``b`` rows, which are
folded into ``U`` and ``W``, so for a real amplitude ``s`` (``r`` of a
squeeze at ``theta = 0``, ``-alpha`` of a real displacement; every jump
and shift of a protocol) a step is the real rotation

    a' = U (cos(s sigma) U^T a + sin(s sigma) W^T b)
    b' = W (cos(s sigma) W^T b - sin(s sigma) U^T a)

on the rows ``a`` and ``b`` of ``M``: four real half-size products, with
no phases.  A block with one more ``a`` row than ``b`` rows has a null
vector, the last column of ``U``, which the step leaves unchanged.  A
squeeze angle ``theta`` or a complex ``alpha`` adds ``Q^dag`` before the
step and ``Q`` after it, ``Q = diag(exp(i phi n))`` with ``phi = theta``
or ``arg alpha``.  Each basis is computed once per dimension, with the
orthogonality of ``U`` and ``W`` checked then, and cached.  The truncated
operators are therefore unitary to machine precision at any dimension;
what truncation costs is faithfulness to the infinite-dimensional operator,
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

# Each cached basis of dimension D holds at most about 4 D^2 bytes of
# singular vectors (4 MB at the largest dimension, MAX_FOCK_DIM): D^2 / 2
# floats for X, D^2 / 4 for H.
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


def _tail_mass(p, dim):
    """The tail-mass measure of every check: the mass ``p`` puts in the top
    ``GUARD_BAND`` of ``dim`` levels, plus its entry ``dim`` if any."""
    tail = p[dim - GUARD_BAND:dim].sum()
    return tail + p[dim] if len(p) > dim else tail


def squeezed_vacuum_populations(r, dim):
    """Number populations of the squeezed vacuum S(r)|0> on ``dim`` levels,
    by recursion: exact for the ideal (untruncated) operator, with no entry
    for the mass beyond ``dim``."""
    p = np.zeros(dim)
    p[0] = 1.0 / math.cosh(r)
    t2 = math.tanh(r) ** 2
    for m in range(1, (dim - 1) // 2 + 1):
        p[2 * m] = p[2 * m - 2] * t2 * (2 * m - 1) / (2 * m)
    return p


def _poisson_populations(mean, dim):
    """Poisson populations of mean ``mean`` (a coherent state's) on ``dim``
    levels, by recursion, then the mass beyond them as entry ``dim``."""
    p = np.zeros(dim + 1)
    p[0] = math.exp(-mean)
    for k in range(1, dim):
        p[k] = p[k - 1] * mean / k
    p[dim] = max(0.0, 1.0 - p[:dim].sum())
    return p


def _amplitude(a, name, bound):
    """The amplitude ``a`` (|r| or |alpha|), checked finite and <= bound."""
    if not math.isfinite(a):
        raise ValueError(f"{name} must be finite, got {a}")
    if a > bound:
        raise ValueError(f"{name} = {a} exceeds supported amplitude {bound}")
    return a


@functools.lru_cache(maxsize=1024)
def _min_tail_dim(populations, size):
    """Smallest dimension 16, 32, ... whose ideal vacuum image
    ``populations(size, dim)`` has a :func:`_tail_mass` below ``TAIL_TOL``
    (2 for a zero ``size``): 1808 at |r| = 3, 80 at |alpha| = 6.  Memoized:
    sweeps ask again for every jump or shift of the same magnitude."""
    if size == 0:
        return 2
    dim = 16
    while _tail_mass(populations(size, dim), dim) >= TAIL_TOL:
        dim += 16
    return dim


def min_squeeze_dim(r):
    """Smallest dimension that holds the squeezed vacuum S(r)|0> by the
    tail-mass rule; raises ValueError unless |r| <= 3."""
    return _min_tail_dim(squeezed_vacuum_populations,
                         _amplitude(abs(r), "|r|", MAX_SQUEEZE_AMPLITUDE))


def min_displacement_dim(alpha):
    """Smallest dimension that holds the coherent state D(alpha)|0> by the
    tail-mass rule; raises ValueError unless |alpha| <= 6."""
    return _min_tail_dim(_poisson_populations, _amplitude(
        abs(alpha), "|alpha|", MAX_DISPLACEMENT) ** 2)


def _golub_kahan(start, step, dim, off_diagonal):
    """Golub-Kahan block ``(a_rows, b_rows, u, w, sigma)`` of the real
    symmetric tridiagonal matrix ``T`` with zero diagonal and the given
    off-diagonal, acting on the number states ``start, start + step, ...``
    below ``dim``.

    On the even positions of that chain (``a_rows``) and the odd ones
    (``b_rows``), ``T`` is ``[[0, B], [B^T, 0]]`` with ``B`` lower
    bidiagonal: one row more than columns for an odd chain, whose extra
    column of ``u`` spans the null space of ``B^T``, square for an even
    one.  ``B = U diag(sigma) W^T``; row ``j`` of ``u = U`` and of ``w =
    W`` carries the sign ``(-1)^j`` of the phases (module docstring).
    The orthogonality of ``u`` and ``w`` is checked here, once."""
    a_rows = slice(start, dim, 2 * step)
    b_rows = slice(start + step, dim, 2 * step)
    b = np.zeros(((len(off_diagonal) + 2) // 2, (len(off_diagonal) + 1) // 2))
    np.fill_diagonal(b, off_diagonal[0::2])
    np.fill_diagonal(b[1:], off_diagonal[1::2])
    u, sigma, wt = np.linalg.svd(b)
    w = wt.T.copy()
    for q in (u, w):
        q[1::2] *= -1.0
        dev = np.max(np.abs(q.T @ q - np.eye(len(q))), initial=0.0)
        if dev > _UNITARY_TOL:
            raise ValueError(f"Golub-Kahan basis is not orthogonal "
                             f"(deviation {dev:.3e} > {_UNITARY_TOL})")
        q.flags.writeable = False
    sigma.flags.writeable = False
    return a_rows, b_rows, u, w, sigma


@functools.lru_cache(maxsize=_BASIS_CACHE_SIZE)
def squeeze_basis(dim):
    """Golub-Kahan blocks of ``H = (a^2 + adag^2) / 2`` on ``dim`` levels
    (see :func:`_golub_kahan`), one per parity.

    ``H[n, n+2] = sqrt((n+1)(n+2)) / 2`` is its only nonzero band, so the
    even and the odd levels form two tridiagonal chains of half size, and
    each splits again into the levels ``n = 0, 2 (mod 4)`` (or ``1, 3``).
    """
    blocks = []
    for parity in (0, 1):
        n = np.arange(parity, dim - 2, 2, dtype=float)
        blocks.append(_golub_kahan(parity, 2, dim,
                                   0.5 * np.sqrt((n + 1.0) * (n + 2.0))))
    return tuple(blocks)


@functools.lru_cache(maxsize=_BASIS_CACHE_SIZE)
def displacement_basis(dim):
    """Golub-Kahan block of ``X = a + adag`` (``X[n-1, n] = sqrt(n)``) on
    ``dim`` levels, between the even and the odd levels."""
    return (_golub_kahan(0, 1, dim, np.sqrt(np.arange(1.0, dim))),)


def _step(min_dim, amplitude, dim, basis, angle, scale):
    """``(basis(dim), angle, scale)`` of an operator once ``min_dim`` (the
    :func:`min_squeeze_dim` or :func:`min_displacement_dim` of its
    ``amplitude``) admits ``dim``; None for the basis at zero ``scale``."""
    needed = min_dim(amplitude)
    if not math.isfinite(angle):
        raise ValueError(f"operator angle must be finite, got {angle}")
    if dim < needed:
        raise TruncationError(
            f"dimension {dim} too small for amplitude {abs(amplitude)}: "
            "tail-mass rule violated in the guard band", min_dim=needed)
    return basis(dim) if scale else None, angle, scale


def _rotations(scale, sigma):
    """``cos(scale sigma)`` and ``sin(scale sigma)`` as columns."""
    theta = scale * sigma
    return np.cos(theta)[:, None], np.sin(theta)[:, None]


def _dense_operator(basis, angle, scale, dim, size=None):
    """The leading ``size x size`` block (all of it for ``None``) of the
    dense ``U = Q U0 Q^dag`` on ``dim`` levels: ``Q = diag(exp(i angle
    n))`` and, per block of ``basis``, the real ``U0 = [[U C U^T, U S
    W^T], [-W S U^T, W C W^T]]`` with ``C = cos(scale sigma)`` and ``S =
    sin(scale sigma)``.  Only the leading rows of ``U`` and ``W`` enter,
    so a block costs ``d s^2``, not ``d^3``.  At ``scale == 0`` ``U`` is
    exactly the identity, which ``U U^T`` would reproduce only to
    round-off."""
    size = dim if size is None else size
    if not 1 <= size <= dim:
        raise ValueError(f"block size must lie in 1..{dim}, got {size}")
    if scale == 0:
        return np.eye(size, dtype=complex)
    out = np.zeros((size, size))
    for a_rows, b_rows, u, w, sigma in basis:
        a_lead = slice(a_rows.start, size, a_rows.step)
        b_lead = slice(b_rows.start, size, b_rows.step)
        u = u[:len(range(size)[a_lead])]
        w = w[:len(range(size)[b_lead])]
        k = len(sigma)
        c, s = _rotations(scale, sigma)
        # cos = 1 on an odd block's null vector, the last column of u
        cos_a = np.append(c, np.ones(u.shape[1] - k))
        cross = (u[:, :k] * s.T) @ w.T
        out[a_lead, a_lead] = (u * cos_a) @ u.T
        out[a_lead, b_lead] = cross
        out[b_lead, a_lead] = -cross.T
        out[b_lead, b_lead] = (w * c.T) @ w.T
    q = np.exp(1j * angle * np.arange(size))
    return q[:, None] * out * q.conj()


def _displacement_step(alpha, dim):
    """:func:`_step` of D(alpha) in the cached :func:`displacement_basis`:
    a rotation by ``-alpha`` for a real ``alpha``, else by ``-|alpha|``
    between the phases ``diag(exp(i arg(alpha) n))``."""
    if alpha.imag == 0:
        angle, scale = 0.0, -alpha.real
    else:
        angle, scale = cmath.phase(alpha), -abs(alpha)
    return _step(min_displacement_dim, alpha, dim, displacement_basis,
                 angle, scale)


def squeeze_operator_exact(r, theta=0.0, dim=DEFAULT_DIM, size=None):
    """Unitary squeeze operator S(xi) with xi = r * exp(2i*theta): the
    exponential of ``(conj(xi) a^2 - xi adag^2) / 2`` on ``dim`` levels,
    built by :func:`_dense_operator` from the cached :func:`squeeze_basis`.
    The sign of ``r`` flips the squeezed quadrature; ``theta`` = 0
    squeezes position.  ``size`` (``1 <= size <= dim``) returns the
    leading ``size x size`` corner only, built in ``dim size^2`` work.

    Raises ValueError for a non-finite ``r`` or ``theta``, an ``|r|`` above
    3 or a ``size`` outside ``1..dim``, and TruncationError, with an
    advisory minimum dimension, if ``dim`` cannot hold S(r)|0> by the
    tail-mass rule."""
    return _dense_operator(*_step(min_squeeze_dim, r, dim, squeeze_basis,
                                  theta, r), dim, size)


def displacement_operator_exact(alpha, dim=DEFAULT_DIM, size=None):
    """Unitary displacement operator ``exp(alpha adag - conj(alpha) a)``,
    built by :func:`_dense_operator` from the cached
    :func:`displacement_basis`; ``size`` selects the leading block, and it
    raises, as for :func:`squeeze_operator_exact`, with the tail rule
    evaluated on the Poisson distribution of D(alpha)|0>.
    """
    return _dense_operator(*_displacement_step(alpha, dim), dim, size)


def _free_evolution_phases(omega, tau, dim):
    """``exp(-i n omega tau)`` for ``n < dim``, with one row per entry of a
    1-D array ``tau``.  A float ``tau`` (every wait of a protocol) takes a
    shorter route to the same bits: ``n omega`` times ``-i tau``."""
    if omega <= 0:
        raise ValueError(f"frequency must be positive, got {omega}")
    scalar = isinstance(tau, float)
    lowest = tau if scalar else np.min(tau)
    if lowest < 0:
        raise ValueError(f"evolution time must be nonnegative, got {lowest}")
    if scalar:
        return np.exp((np.arange(dim) * omega) * (-1j * tau))
    return np.exp(np.asarray(tau)[..., None] * (-1j * np.arange(dim) * omega))


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
    return _checked_populations(1.0, _row_norms_sq(m))


def _checked_populations(trace, populations):
    """``populations`` of a state updated from one of trace ``trace``,
    after the trace check and the tail-mass guard of every update."""
    if abs(populations.sum() - trace) > _TRACE_TOL:
        raise ValueError(f"density matrix trace {populations.sum()} "
                         f"deviates from {trace:.12g}")
    tail = float(_tail_mass(populations, len(populations)))
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
    work per ``tau``.  A scalar ``tau`` gives one distribution, a 1-D array
    of them the stack of their distributions, from one product of their
    phase rows with ``c``.

    ``u`` is checked once, by :func:`validate_unitary`.  ``rho`` and every
    ``u rho_tau u^dag`` are Gram matrices ``A A^dag`` (``A = M``, ``u F
    M``), Hermitian and positive semidefinite for any ``A`` (Sylvester), so
    none needs a factorization.  Each distribution's sum is checked
    against ``|M|_F^2`` and its tail like :func:`apply_unitary`, and none
    of its populations may lie below the eigenvalue tolerance; then all
    are clipped at zero.
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
        probs = (_free_evolution_phases(omega, tau, dim) @ c).real
        for row in np.atleast_2d(probs):
            _checked_populations(trace, row)
            if row.min() < _EIGENVALUE_TOL:
                raise ValueError(f"negative population {row.min():.3e}")
        return np.clip(probs, 0.0, None, out=probs)
    return populations


def _apply_in_basis(basis, angle, scale, m):
    """``U M``, checked, for ``U`` of :func:`_dense_operator`, with ``U``
    never formed: per block, on the rows ``a`` and ``b`` of ``Q^dag M``,
    ``a' = U (C U^T a + S W^T b)`` and ``b' = W (C W^T b - S U^T a)``,
    four real half-size products on the float view, then ``Q`` (skipped,
    with ``Q^dag``, at a zero ``angle``); ``M`` itself at ``scale == 0``."""
    m = np.ascontiguousarray(m, dtype=complex)
    if scale == 0:
        return _checked_factor(m, m)
    if angle:
        q = np.exp(1j * angle * np.arange(len(m)))[:, None]
        x = m * q.conj()
    else:
        x = m
    out = np.empty_like(m)
    xf, of = x.view(np.float64), out.view(np.float64)
    for a_rows, b_rows, u, w, sigma in basis:
        c, s = _rotations(scale, sigma)
        ya = u.T @ xf[a_rows]
        yb = w.T @ xf[b_rows]
        head = ya[:len(sigma)]  # the rest: an odd block's null vector
        zb = c * yb
        zb -= s * head
        head *= c
        head += s * yb
        np.matmul(u, ya, out=of[a_rows])
        np.matmul(w, zb, out=of[b_rows])
    if angle:
        out *= q
    return _checked_factor(m, out)


def apply_squeeze(r, m, theta=0.0):
    """``S(r, theta) M``: the factor of ``S rho S^dag`` for ``rho = M
    M^dag``, in the cached :func:`squeeze_basis` without forming ``S``;
    raises like :func:`squeeze_operator_exact` and :func:`apply_unitary`."""
    return _apply_in_basis(*_step(min_squeeze_dim, r, len(m), squeeze_basis,
                                  theta, r), m)


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
