"""Physical constants (SI) used throughout the package."""

import math

HBAR = 1.054571817e-34          # reduced Planck constant, J s (CODATA 2018)
ATOMIC_MASS = 1.66053906660e-27  # unified atomic mass unit, kg
RB85_MASS = 84.911789738 * ATOMIC_MASS  # kg

TWO_PI = 2.0 * math.pi

# Largest squeeze amplitude |r| and displacement |alpha| either backend
# accepts.
MAX_SQUEEZE_AMPLITUDE = 3.0
MAX_DISPLACEMENT = 6.0

# Largest number-state index of the closed-form matrix elements, and the
# largest Fock truncation dimension a config or the protocol auto-growth
# may ask for.
MAX_INDEX = 512
MAX_FOCK_DIM = 1024

# Largest number of points a figure grid may ask for.
MAX_GRID_POINTS = 100_000

# Largest number of jumps of the multi-jump sweep: its row n runs an
# n-jump protocol, so its work grows with the square of this limit.
MAX_JUMP_COUNT = 500
