"""Optical-lattice trap parameters, anharmonic level structure from the
asymptotic lattice eigenvalue expansion, and phase-space geometry
(displacement-to-alpha conversion, ground-state widths)."""

import math
from dataclasses import dataclass

from .constants import HBAR


# The inputs and derived scales of a trap, with the config keys setting each
_DOMAIN = (("omega1", "omega1_hz"), ("omega2", "omega2_hz"),
           ("mass", "mass_kg"), ("V0", "v0_hz"), ("calibration", "calibration"),
           ("lattice_wavenumber", "lattice_wavenumber_per_m"),
           ("recoil_energy", "mass_kg, lattice_wavenumber_per_m"),
           ("depth_parameter", "v0_hz, mass_kg, lattice_wavenumber_per_m"),
           ("x0", "mass_kg, omega1_hz"), ("sigma_v", "mass_kg, omega1_hz"))


@dataclass(frozen=True)
class TrapParams:
    """Physical trap configuration.

    Attributes
    ----------
    omega1, omega2 : float
        Deep and shallow oscillation frequencies, rad/s.
    mass : float
        Atomic mass, kg.
    lattice_wavenumber : float
        Lattice beam wavenumber, 1/m.
    V0 : float
        Lattice depth, J.
    calibration : float
        Dimensionless factor on the ground-state extent x0 used when
        converting trap displacements to coherent amplitudes (default 1).
    """
    omega1: float
    omega2: float
    mass: float
    lattice_wavenumber: float
    V0: float
    calibration: float = 1.0

    def __post_init__(self):
        # each input, then each scale derived from them, must be positive
        # and finite, so a scale that a product under- or overflowed fails
        for name, keys in _DOMAIN:
            try:
                value = getattr(self, name)
            except ZeroDivisionError:  # a denominator underflowed to 0
                value = math.inf
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} (set by {keys}) must be positive "
                                 f"and finite, got {value}")

    @property
    def recoil_energy(self):
        """E_R = hbar^2 k^2 / 2m, J."""
        hk = HBAR * self.lattice_wavenumber
        return hk * hk / (2.0 * self.mass)

    @property
    def depth_parameter(self):
        """Dimensionless lattice depth q = V0 / 4 E_R."""
        return self.V0 / (4.0 * self.recoil_energy)

    @property
    def x0(self):
        """Root-mean-square ground-state extent sqrt(hbar / 2 m omega1), m."""
        return math.sqrt(HBAR / (2.0 * self.mass * self.omega1))

    @property
    def sigma_v(self):
        """Ground-state velocity spread sqrt(hbar omega1 / 2 m), m/s."""
        return math.sqrt(HBAR * self.omega1 / (2.0 * self.mass))


def mathieu_energy(n, q):
    """Lattice level energy E_n / E_R from the three-term asymptotic
    expansion in the deep-lattice limit.

    Valid for q >= 1; the expansion degrades (and eventually turns over)
    as n approaches the top of the well.
    """
    if q < 1:
        raise ValueError(f"asymptotic expansion requires q >= 1, got q={q}")
    if n < 0 or n != int(n):
        raise ValueError(f"level index must be a nonnegative integer, got {n}")
    s = 2 * n + 1
    return (2.0 * s * math.sqrt(q)
            - (s * s + 1) / 8.0
            - (s ** 3 + 3 * s) / (128.0 * math.sqrt(q)))


def harmonic_frequency(q, recoil_energy):
    """Harmonic-approximation trap frequency omega = 4 sqrt(q) E_R / hbar."""
    return 4.0 * math.sqrt(q) * recoil_energy / HBAR


def energy_gap(n, omega, recoil_energy):
    """Level spacing E_{n+1} - E_n = hbar omega - (n+1) E_R, in J.

    The spacing shrinks by one recoil energy per level (two-term
    expansion of the lattice eigenvalues).
    """
    if n < 0:
        raise ValueError(f"level index must be nonnegative, got {n}")
    return HBAR * omega - (n + 1) * recoil_energy


def bound_state_count(params):
    """Number of lattice levels below the well depth, counted with the
    asymptotic expansion up to its first crossing of V0.

    The expansion is non-monotonic far beyond its validity range, so
    counting stops at the first level above V0.
    """
    q = params.depth_parameter
    if q < 1:
        raise ValueError(f"counting rule requires q >= 1, got q={q}")
    v0_over_er = params.V0 / params.recoil_energy
    count = 0
    while mathieu_energy(count, q) <= v0_over_er:
        count += 1
        if count > 10000:
            raise ValueError("bound-state count failed to terminate")
    return count


def metres_per_alpha(params, omega):
    """Trap shift (meters) that creates unit coherent amplitude at
    ``omega``: 2 * calibration * sqrt(hbar / 2 m omega)."""
    return 2.0 * params.calibration * math.sqrt(
        HBAR / (2.0 * params.mass * omega))


def coherent_alpha_from_shift(d, params):
    """Coherent amplitude alpha = d / (2 * calibration * x0) created by a
    sudden trap displacement ``d`` (meters)."""
    if not math.isfinite(d):
        raise ValueError(f"displacement must be finite, got {d}")
    return d / metres_per_alpha(params, params.omega1)


def shift_from_coherent_alpha(alpha, params):
    """Inverse of :func:`coherent_alpha_from_shift`."""
    return alpha * metres_per_alpha(params, params.omega1)


def ground_state_widths(params, nbar0=0.0, r_total=0.0):
    """Position scale and velocity-distribution widths of the (possibly
    squeezed, possibly thermal) motional state.

    Parameters
    ----------
    params : TrapParams
    nbar0 : float
        Initial thermal occupation; broadens the velocity width by
        sqrt(2 nbar0 + 1).
    r_total : float
        Signed total squeeze amplitude; positive values squeeze momentum
        (narrower velocity width by exp(-r_total)).

    Returns
    -------
    (float, float, float)
        ``x0`` (m), the velocity standard deviation ``sigma_v`` (m/s) of
        the bare ground state, and the 1/e^2 half-width ``2 sigma_v``
        of the velocity density after squeezing and thermal broadening.
    """
    x0, sigma_v = params.x0, params.sigma_v
    width = 2.0 * sigma_v * math.exp(-r_total) * math.sqrt(2.0 * nbar0 + 1.0)
    return x0, sigma_v, width
