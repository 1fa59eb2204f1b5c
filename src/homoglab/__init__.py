"""Numerical laboratory for two-scale forward-backward systems with
Cesaro-averaged, possibly discontinuous, effective coefficients."""

from .families import (AveragedModel, AveragingError, CesaroResult,
                       CoefficientFamily, FamilyError, audit_assumptions,
                       build_averaged, cesaro_average, closed_form_averaged,
                       from_tables, geometric_schedule, make_family)
from .simulate import (PathBundle, SimGrid, SimulationError, moment_report,
                       occupation_time, simulate_avg, simulate_eps)
from .bsde import (BsdeSolution, BsdeSpec, PicardError, RegressionError,
                   conditional_variation, solve_bsde, tightness_certificate,
                   upcrossings)
from .corrector import (CorrectorField, corrector_dx1, corrector_value,
                        decay_table, residual_check, second_difference)
from .pde_fd import (Grid2D, GridSolution, PdeError, PdeModel,
                     interface_gaps, richardson_error, solve_pde)
from .harness import (ConfigError, ConvergenceReport, EmitError,
                      ExperimentConfig, PipelineError, emit,
                      flow_continuity_check, monte_carlo_drift_gap,
                      run_convergence, split_seed)

__version__ = "0.1.0"
