"""Numerical laboratory for two-scale forward-backward systems with
Cesaro-averaged, possibly discontinuous, effective coefficients."""

from .families import (DEFAULT_SCHEDULE, AveragedModel, AveragingError,
                       CesaroResult, CoefficientFamily, FamilyError,
                       audit_assumptions, build_averaged, cesaro_average,
                       closed_form_averaged, make_family)
from .simulate import (PathBundle, SimGrid, SimulationError, moment_report,
                       occupation_time, simulate_avg, simulate_eps)
from .bsde import (BsdeSolution, BsdeSpec, PicardError, RegressionError,
                   conditional_variation, solve_bsde, tightness_certificate,
                   tightness_row)
from .corrector import decay_table, residual_check, second_difference
from .pde_fd import (Grid2D, GridSolution, PdeError, richardson_error,
                     solve_pde)
from .harness import (ConfigError, ConvergenceReport, EmitError,
                      ExperimentConfig, PipelineError, emit,
                      run_convergence, split_seed, write_json)

__version__ = "0.1.0"
