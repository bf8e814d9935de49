"""Heavy-tailed walk simulation and nonlocal solvers with cross-validation.

The package builds scaled random walks whose waiting times carry exact
power tails with position- and time-dependent exponents, solves the
matching terminal-value problem with a nonlocal time derivative on a grid,
evaluates the time-change representation by quadrature, and ships analytic
references (Mittag-Leffler profiles, one-sided stable laws) so every route
can be checked against an independent one.
"""

from . import (
    ctrw,
    errors,
    kernels,
    model,
    oracles,
    solver,
    streams,
    subordination,
    waiting,
)
from .ctrw import DensityGrid, MCEstimate, empirical_transition_density, estimate_functional
from .kernels import kernel_family
from .model import Model, gamma_at, make_model
from .oracles import constant_order_solution, mittag_leffler, subordinator_cdf
from .solver import Field, Grid, build_spatial_operator, solve_terminal_problem
from .subordination import (
    discrete_subordinated_expectation,
    subordinated_density,
    subordinated_expectation,
)
from .waiting import (
    WaitingLaw,
    build_waiting_law,
    discretize_waiting_law,
    rate_constant,
    rate_errors,
)

__version__ = "0.1.0"
