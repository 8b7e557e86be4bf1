"""Poisson kernels and Green functions of balls for hyperbolic Brownian
motion on the ball model, computed three independent ways: Gegenbauer
spectral series, closed-form integral representations (the Poisson kernel
for even dimensions, the Green function for 4 and 6), and Monte Carlo
simulation of the underlying stochastic differential equations."""

__version__ = "0.1.0"

from .specfun import Dimension, F_k, G_k, gegenbauer_at_one, wronskian_residual
from .geometry import BallDomain, Point, sphere_area
from .kernels import (
    SeriesControl,
    green_coefficient,
    green_function,
    poisson_coefficient,
    poisson_from_green_derivative,
    poisson_kernel,
)
from .closedform import (
    LaplaceWeight,
    QuadratureControl,
    H_function,
    conjecture1_residual,
    conjecture2_zero_count,
    green_closed_n4,
    green_closed_n6,
    laplace_weight,
    poisson_integral,
)
from .mc_sim import ExitSamples, SdeConfig, estimate_gauge, simulate_cartesian, simulate_polar
