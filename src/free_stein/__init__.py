"""Free Stein discrepancy, irregularity and dimension of noncommutative tuples.

The package splits into an exact symbolic layer (`ncalg`), trace models that
turn words into numbers (`trace`), the Gram/least-squares numerical core
(`stein`), closed-form evaluators that double as oracles (`closedform`) and a
CLI (`cli`).

The package namespace is lazy: ``import free_stein`` loads no submodule, and
each exported name imports its module on first access, so a program loads
only the layers it uses.  ``python -X importtime -c "import
free_stein.closedform"`` shows which modules a given import loads.
"""

import sys

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "closedform": ("CompressedGeneratorSpec", "GraphSpec",
                   "compressed_semicircular_sigma", "eps_kernel", "fd_sigma",
                   "finite_group_sigma", "graph_sigma", "group_sigma",
                   "log_energy", "one_var_sigma", "staircase_energy_trail"),
    "errors": ("DegreeCapError", "FreeSteinError", "ModelError", "ParseError",
               "QuadratureError", "StructureError"),
    "ncalg": ("BAlgebra", "GeneratorSystem", "KernelMatrix", "NCPoly",
              "TensorPoly", "commutator_stein_kernel", "diff_quotient",
              "generator_tuple", "gradient"),
    "parser": ("parse_poly_tuple",),
    "scalars": ("QQi",),
    "stein": ("DegreeScheme", "DiscrepancyReport", "GramSystem", "SigmaReport",
              "alpha_estimate", "conjugate_variable_check", "degree_sweep",
              "discrepancy", "irregularity_bounded", "irregularity_estimate",
              "radius_sweep", "sigma_exact_fd"),
    "trace": ("FreeProductModel", "MatrixModel", "MeasureModel",
              "SemicircleDensity", "SemicircularModel", "TableDensity",
              "TraceModel", "UniformDensity", "catalan", "cyclic_group_model",
              "diagonal_matrix_model", "load_model", "model_from_json",
              "two_point_matrix_model", "two_point_measure"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "cli", "fdalg", "quadrature", "serialize"})

__all__ = list(_MODULE_OF)


def __getattr__(name):
    # The name is looked up on its module at every access and never stored
    # here, so a function patched on its module is seen through the package.
    # __import__ is the path of an import statement, which -X importtime
    # reports; importlib.import_module is not.
    module = _MODULE_OF.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")
    found = sys.modules[f"{__name__}.{module}"]
    return found if module == name else getattr(found, name)


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
