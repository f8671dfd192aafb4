"""Free Stein discrepancy, irregularity and dimension of noncommutative tuples.

The package splits into an exact symbolic layer (`ncalg`), trace models that
turn words into numbers (`trace`), the Gram/least-squares numerical core
(`stein`), closed-form evaluators that double as oracles (`closedform`) and a
CLI (`cli`).
"""

from .closedform import (CompressedGeneratorSpec, GraphSpec,
                         compressed_semicircular_sigma, eigenvalue_sigma,
                         eps_kernel, fd_sigma, finite_group_sigma, graph_sigma,
                         group_sigma, log_energy, one_var_sigma,
                         staircase_energy_trail)
from .errors import (DegreeCapError, FreeSteinError, ModelError, ParseError,
                     QuadratureError, StructureError)
from .ncalg import (BAlgebra, GeneratorSystem, KernelMatrix, NCPoly,
                    TensorPoly, commutator_stein_kernel, diff_quotient,
                    generator_tuple, gradient, jacobian, transform_kernel)
from .parser import parse_poly, parse_poly_tuple
from .scalars import QQi
from .stein import (DegreeScheme, DiscrepancyReport, GramSystem, SigmaReport,
                    adjoint_action, alpha_estimate, conjugate_variable_check,
                    degree_sweep, discrepancy, irregularity_bounded,
                    irregularity_estimate,
                    join_free_factors, matrix_to_poly, radius_sweep,
                    sigma_exact_fd, solve_adjoint_fd)
from .trace import (FreeProductModel, MatrixModel, MeasureModel,
                    SemicircleDensity, SemicircularModel, TableDensity,
                    TraceModel, UniformDensity, catalan, cyclic_group_model,
                    diagonal_matrix_model, load_model, model_from_json,
                    model_to_json, two_point_matrix_model, two_point_measure)

__version__ = "0.1.0"
