"""quadflow: exact time evolution of generalized 2D quadratic Hamiltonians.

The Hamiltonian H(t) = sum_k a_k(t) h_k over the 15-generator algebra
spanned by {1, x, y, p_x, p_y} and their quadratic products is evolved by
factorizing the propagator into a fixed-order product of one-parameter
unitaries exp(i alpha_k(t) h_k / hbar).  The package integrates the fifteen
coupled ODEs for the transformation parameters alpha(t), and from them
produces Heisenberg-picture affine maps, classical-correspondence
quantities (Lagrangian, action), and the coordinate-space propagator, all
cross-validated against independent brute-force oracles.
"""

from .algebra import (GENERATOR_LABELS, N_GENERATORS, StructureConstants,
                      commutator, standard_algebra, validate_algebra)
from .adjoint import adjoint_closed_form, adjoint_matrix
from .errors import (BranchUnavailable, ConfigError, DegenerateGeometry,
                     GridUnderresolved, InvalidSchedule, ParseError,
                     QuadflowError, SingularNu, SingularTime, StepBudget,
                     StepUnderflow)
from .expressions import parse_expression, pretty
from .flow import (Breakdown, FlowResult, constant_field_closed_form,
                   integrate, write_alphas_csv)
from .observables import (SYMPLECTIC_J, AffineSymplecticMap,
                          classical_lagrangian, heisenberg_closed_form,
                          heisenberg_map, write_heisenberg_json)
from .oracles import GaussianState, apply_kernel, fundamental_matrix
from .propagator import (GreenSample, QuadraticPhaseKernel,
                         degenerate_kernel, generic_kernel, green,
                         green_kernel, landau_kernel, write_green_csv)
from .reduction import ReductionState, assemble, reference_odes
from .schedule import CoefficientSchedule

__version__ = "0.1.0"

__all__ = [
    "AffineSymplecticMap", "Breakdown",
    "BranchUnavailable", "CoefficientSchedule", "ConfigError",
    "DegenerateGeometry", "FlowResult", "GaussianState",
    "GENERATOR_LABELS", "GreenSample", "GridUnderresolved",
    "InvalidSchedule", "N_GENERATORS", "ParseError", "QuadflowError",
    "ReductionState", "SingularNu", "SingularTime", "StepBudget",
    "StepUnderflow", "StructureConstants",
    "SYMPLECTIC_J", "adjoint_closed_form", "adjoint_matrix", "apply_kernel",
    "assemble", "classical_lagrangian", "commutator",
    "constant_field_closed_form", "fundamental_matrix", "green", "green_kernel",
    "heisenberg_closed_form", "heisenberg_map", "integrate",
    "landau_kernel", "degenerate_kernel", "generic_kernel", "QuadraticPhaseKernel",
    "parse_expression", "pretty", "reference_odes", "standard_algebra",
    "validate_algebra", "write_alphas_csv",
    "write_green_csv", "write_heisenberg_json",
]
