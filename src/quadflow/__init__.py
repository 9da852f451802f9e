"""quadflow: exact time evolution of generalized 2D quadratic Hamiltonians.

The Hamiltonian H(t) = sum_k a_k(t) h_k over the 15-generator algebra
spanned by {1, x, y, p_x, p_y} and their quadratic products is evolved by
factorizing the propagator into a fixed-order product of one-parameter
unitaries exp(i alpha_k(t) h_k / hbar).  The package integrates the fifteen
coupled ODEs for the transformation parameters alpha(t), and from them
produces Heisenberg-picture affine maps, classical-correspondence
quantities (Lagrangian, action), and the coordinate-space propagator, all
cross-validated against independent brute-force oracles.

Importing the package loads none of its modules: each public name imports
its module on first use, so a command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# the module that defines each public name
_SOURCES = {
    "adjoint": ("adjoint_closed_form", "adjoint_matrix"),
    "algebra": ("GENERATOR_LABELS", "StructureConstants", "commutator",
                "standard_algebra", "validate_algebra"),
    "errors": ("BranchUnavailable", "ConfigError", "DegenerateGeometry",
               "GridUnderresolved", "InvalidSchedule", "ParseError",
               "QuadflowError", "SingularNu", "SingularTime", "StepBudget",
               "StepUnderflow"),
    "expressions": ("parse_expression", "pretty"),
    "flow": ("Breakdown", "FlowResult", "constant_field_closed_form",
             "integrate", "write_alphas_csv"),
    "observables": ("SYMPLECTIC_J", "AffineSymplecticMap", "heisenberg_map",
                    "write_heisenberg_json"),
    "oracles": ("GaussianState", "apply_kernel", "classical_lagrangian",
                "fundamental_matrix", "heisenberg_closed_form", "landau_kernel"),
    "propagator": ("GreenSample", "QuadraticPhaseKernel", "degenerate_kernel",
                   "generic_kernel", "green", "green_kernel",
                   "write_green_csv"),
    "reduction": ("ReductionState", "assemble", "reference_odes"),
    "schedule": ("N_GENERATORS", "CoefficientSchedule"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items()
              for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    """Import the module that defines the public ``name`` and keep the value."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
