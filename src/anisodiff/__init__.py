"""Enhanced-diffusion simulator for passive scalars in anisotropic 2-D boxes.

Modules:
    domain    -- anisotropy parameters, periodic box, velocity fields
    fields    -- grid scalars: norms, gradients, projection, interpolation
    solver    -- semi-Lagrangian / Crank-Nicolson and upwind time stepping
    particles -- backward SDE trajectories and the Feynman-Kac estimator
    analysis  -- decay-rate fits, kappa sweeps (all runs or none), scaling-law regression
    config    -- the run configuration: defaults, overrides, validation
    manifest  -- the CSV format, JSON reader, artifact writer, run manifests
    svgplot   -- line plots and heatmaps as SVG
    errors    -- the package's exception types
    cli       -- command dispatch and artifact writing
"""

__version__ = "0.1.0"

from .domain import (AnisotropyParams, DomainBox, VelocityField,
                     divergence_residual, make_velocity, profile)
from .fields import (ScalarField, fourier_mode, fourier_sum, grad_norm_sq,
                     l2_norm_sq, mean_zero_project, random_fourier_sum)
from .solver import DecaySeries, SolverConfig, run
from .particles import VarianceMap, endpoints, feynman_kac, variance_integral
from .analysis import (DecayFit, ExponentFit, FdrResult, exponent_report,
                       exponent_report_csv, fdr_check, figure1_curve,
                       figure1_exponent, figure2_surface, fit_decay,
                       fit_power_law, sweep_and_fit, theoretical_exponent)
from .errors import (AnisodiffError, ConfigError, FitWindowError,
                     InstabilityError, InsufficientDecayError)

__all__ = [
    "AnisotropyParams", "DomainBox", "VelocityField", "divergence_residual",
    "make_velocity", "profile",
    "ScalarField", "fourier_mode", "fourier_sum", "grad_norm_sq", "l2_norm_sq",
    "mean_zero_project", "random_fourier_sum",
    "DecaySeries", "SolverConfig", "run",
    "VarianceMap", "endpoints", "feynman_kac", "variance_integral",
    "DecayFit", "ExponentFit", "FdrResult", "exponent_report",
    "exponent_report_csv", "fdr_check", "figure1_curve", "figure1_exponent",
    "figure2_surface", "fit_decay", "fit_power_law", "sweep_and_fit",
    "theoretical_exponent",
    "AnisodiffError", "ConfigError", "FitWindowError", "InstabilityError",
    "InsufficientDecayError",
    "__version__",
]
