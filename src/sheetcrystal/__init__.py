"""Charged-sheet electrostatics, its exponential map onto 1D bound states,
closed forms for the alternating crystal, and an independent solver that
cross-checks all of it."""

from .closedform import (
    CrystalParams,
    expectation_kinetic,
    expectation_potential,
    ground_energy,
    identity_abs_sum,
    identity_alternating_exp,
    identity_sinh_parity,
    log_normalization_constant,
    normalization_constant,
    psi,
    segment_integral_closed,
)
from .duality import (
    DeltaPotentialProblem,
    check_normalizable,
    ground_state_from_electrostatics,
    schrodinger_residuals,
    to_quantum,
)
from .electrostatics import (
    SheetArray,
    potential_at,
    potential_at_points,
    solve_sheets,
)
from .errors import (
    AsymmetricAsymptoticFieldError,
    BreakpointMismatchError,
    DivergentTailError,
    NoBoundStatesError,
    NotNormalizableError,
    SheetCrystalError,
)
from .oracle import (
    expectation_kinetic_numeric,
    expectation_potential_numeric,
    find_bound_states,
)
from .units import UnitSystem, alpha_from_sigma, atomic_units, sigma_from_alpha
from .wavefunction import PiecewiseExpWavefunction

__version__ = "0.1.0"

__all__ = [
    "AsymmetricAsymptoticFieldError",
    "BreakpointMismatchError",
    "CrystalParams",
    "DeltaPotentialProblem",
    "DivergentTailError",
    "NoBoundStatesError",
    "NotNormalizableError",
    "PiecewiseExpWavefunction",
    "SheetArray",
    "SheetCrystalError",
    "UnitSystem",
    "alpha_from_sigma",
    "atomic_units",
    "check_normalizable",
    "expectation_kinetic",
    "expectation_kinetic_numeric",
    "expectation_potential",
    "expectation_potential_numeric",
    "find_bound_states",
    "ground_energy",
    "ground_state_from_electrostatics",
    "identity_abs_sum",
    "identity_alternating_exp",
    "identity_sinh_parity",
    "log_normalization_constant",
    "normalization_constant",
    "potential_at",
    "potential_at_points",
    "psi",
    "schrodinger_residuals",
    "segment_integral_closed",
    "sigma_from_alpha",
    "solve_sheets",
    "to_quantum",
]
