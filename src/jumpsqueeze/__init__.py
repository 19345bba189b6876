"""Simulator and analysis toolkit for rapid squeezing of a harmonic
oscillator by sudden frequency jumps: exact truncated-Fock-space
operators, closed-form Bogoliubov/matrix-element physics, protocol
composition, sideband spectroscopy and figure tables."""

from .bogoliubov import (BogoliubovPair, SqueezeParams, bogoliubov_from_jump,
                         compose_jump, compose_wait, invert_pair, ln_u_plus_v,
                         squeeze_params_from_pair, squeezing_db)
from .errors import ConfigError, TruncationError
from .fock import (DEFAULT_DIM, GUARD_BAND, TAIL_TOL, apply_unitary,
                   displacement_operator_exact, free_evolution_operator,
                   matrix_exponential, number_distribution,
                   squeeze_operator_exact, thermal_factor)
from .lattice import (TrapParams, bound_state_count, coherent_alpha_from_shift,
                      energy_gap, ground_state_widths, harmonic_frequency,
                      mathieu_energy, shift_from_coherent_alpha)
from .matrix_elements import (SqueezedThermalMoments, displacement_block_sq,
                              displacement_matrix_element_sq, squeeze_block_sq,
                              squeeze_matrix_element_sq,
                              squeezed_thermal_moments)
from .protocol import (BUILTIN_PROTOCOLS, FrequencyJump, Protocol,
                       ProtocolResult, ShiftOrigin, UnshiftOrigin, Wait,
                       amplified_alpha, builtin_protocol, implied_state,
                       load_protocol, protocol_from_json, protocol_to_json,
                       run_fock, run_symplectic, save_protocol)
from .spectroscopy import (DecoherenceParams, RabiParams, SidebandResult,
                           amplified_distribution_decohered, nbar_from_R,
                           rabi_flop_model, sideband_populations,
                           weighted_distribution)

__version__ = "0.1.0"
