"""couplemc: Monte Carlo experiments on coupled diffusions and the
pointwise regularity of parabolic PDE solutions.

The package simulates the time-reversed diffusion attached to a second
order parabolic operator in non-divergence form, estimates the solution
by the Feynman-Kac average, and couples two copies of the diffusion by
reflection to measure how fast nearby starting points merge.  Closed-form
oracles for special coefficient choices back the test suite.
"""

__version__ = "0.1.0"

from .analysis import ScalingFit, fit_log_corrected, fit_power_law
from .coefficients import (CoefficientField, ModulusOfContinuity,
                           ValidationReport, ZERO_MODULUS, classify_dini,
                           default_sample_points, sqrt_spd, validate_field)
from .config import ExperimentConfig, load_config, parse_config_text, validate_config
from .coupling import (LyapunovParams, coupling_time_ladder, coupling_times,
                       default_couple_tol, lyapunov_f)
from .errors import (ConfigError, CoupleMCError, DiniDivergenceError,
                     EllipticityError, SimulationDivergedError, ValidationError)
from .fk_solver import (ResultTable, SolveRequest, difference_ladder, expected_regime,
                        fit_result_table, solve_u)
from .oracles import (RunningMaxBounds, RunningMaxQuery,
                      bm_coupling_expectation, bm_coupling_survival, heat_kernel,
                      running_max_bounds, sgn_drift_density,
                      sgn_drift_solution)
from .registry import (FIELD_BUILDERS, TERMINAL_BUILDERS, TerminalFunction,
                       build_field, build_terminal)
from .sde_engine import (RngStream, TimeGrid, mean_stderr, run_path_blocks,
                         rung_means, simulate_terminal)
