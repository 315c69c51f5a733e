"""Generalized binomial states of a single-mode field.

Closed-form spectrum and eigenstates of sqrt(1-eta)(mu J+ + nu J-) -
sqrt(eta) J0 on the truncated Fock space, the binomial states they extend,
their number/coherent/squeezed limits, and an independent eigensolver on the
operator's three bands that cross-checks every claim.
"""

__version__ = "0.1.0"

from .analysis import (
    KRule,
    LimitSchedule,
    PhotonStatistics,
    number_limit_scan,
    photon_statistics,
    squeezed_eigenstate,
    squeezed_limit_scan,
    time_evolve,
)
from .binomial import BinomialParams, binomial_amplitudes, binomial_displacement_form, ladder_residual
from .displacement import (
    DisplacementParams,
    delta_to_zeta,
    disentangled_displacement,
    displacement,
)
from .fock import (
    basis_state,
    commutator,
    fidelity,
    hp_generators,
    normalize_state,
)
from .oracle import NonConvergenceError, SpectrumReport, compare
from .solver import (
    CoefficientTriple,
    GBSParams,
    GBSSolution,
    SolutionKind,
    binomial_phase_parameters,
    coefficient_triple,
    constraint_roots,
    eigenstate,
    eigenstate_exponential,
    eigenstate_sum,
    solve,
    spectrum,
)

__all__ = [
    "BinomialParams",
    "CoefficientTriple",
    "DisplacementParams",
    "GBSParams",
    "GBSSolution",
    "KRule",
    "LimitSchedule",
    "NonConvergenceError",
    "PhotonStatistics",
    "SolutionKind",
    "SpectrumReport",
    "basis_state",
    "binomial_amplitudes",
    "binomial_displacement_form",
    "binomial_phase_parameters",
    "coefficient_triple",
    "commutator",
    "compare",
    "constraint_roots",
    "delta_to_zeta",
    "disentangled_displacement",
    "displacement",
    "eigenstate",
    "eigenstate_exponential",
    "eigenstate_sum",
    "fidelity",
    "hp_generators",
    "ladder_residual",
    "normalize_state",
    "number_limit_scan",
    "photon_statistics",
    "solve",
    "spectrum",
    "squeezed_eigenstate",
    "squeezed_limit_scan",
    "time_evolve",
]
