"""Darboux-Crum deformations of the reflectionless sech^2 well and the exact
KdV multi-solitons built from their scattering data."""

from .darboux import (
    BoundState,
    NodalWronskianError,
    PotentialEvaluator,
    SystemSpec,
    bound_states,
    deformed_potential,
)
from .kdv import (
    AsymptoticSoliton,
    OverflowDomainError,
    SolitonData,
    asymptotic_decomposition,
    conserved_quantities,
    field_u,
    kdv_residual,
    scattering_data_from_spec,
)
from .scattering import (
    ScatteringAmplitudes,
    deformed_amplitudes,
    numerical_amplitudes,
    transmission_poles,
)
from .spectral_oracle import GridSpec, eigen_spectrum, oracle_norming_constants
from .specfun import (
    jacobi_coefficients,
    log_gamma,
    reciprocal_gamma,
)

__version__ = "0.7.0"

__all__ = [
    "AsymptoticSoliton",
    "BoundState",
    "GridSpec",
    "NodalWronskianError",
    "OverflowDomainError",
    "PotentialEvaluator",
    "ScatteringAmplitudes",
    "SolitonData",
    "SystemSpec",
    "asymptotic_decomposition",
    "bound_states",
    "conserved_quantities",
    "deformed_amplitudes",
    "deformed_potential",
    "eigen_spectrum",
    "field_u",
    "jacobi_coefficients",
    "kdv_residual",
    "log_gamma",
    "numerical_amplitudes",
    "oracle_norming_constants",
    "reciprocal_gamma",
    "scattering_data_from_spec",
    "transmission_poles",
]
