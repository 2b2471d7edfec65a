"""Shape optimization for Robin free-boundary energies on structured grids."""

from .model import (AssumptionCheck, AssumptionReport, IntegrandModel,
                    check_admissible, eval_g, exponent_threshold,
                    iter_constants, sample_field)
from .radial import (RadialConvergenceError, RadialEigenvalueQuery,
                     RadialSolution, ball_energy, ball_radius, ball_volume,
                     robin_eigenvalue_ball, robin_eigenvalues_ball,
                     robin_poisson_ball, shoot_eigenvalues)
from .sbvgrid import (Grid, SbvField, ShapeMask, boundary_faces, bv_norm,
                      eval_free_discontinuity, eval_shape_functional,
                      perimeter, poincare_check, read_field_text,
                      reduction_check, shape_energy, support_jumps,
                      write_field_text)
from .pdesolve import (SolverConfig, SolverError, energy_of,
                       grid_robin_eigenvalue, solve_inner)
from .shapeopt import (AnnealSchedule, OptimizationTrace, ShapeOptError,
                       component_count, diagnostics, optimize_shape)

__version__ = "0.1.0"
