"""conewave: radial damped-wave simulator with a cubic-convolution
nonlinearity, weighted-norm estimate verifiers, and lifespan-scaling
experiments on characteristic-aligned grids."""

from .grid import Grid, RadialProfile, interp, power_moment, trapezoid_weighted
from .norms import WeightParams, d_gamma, n_gamma, tau, verify_lemma_integrals, w_weight, x_norm
from .potential import (
    ConvolutionKernel,
    bilinear_form,
    convolve_power,
    convolve_profile,
    convolve_profile_direct,
    kernel_value,
)
from .solver import (
    BlowupReport,
    NumericalAbort,
    Params,
    SolutionHistory,
    dissipation_monitor,
    liouville,
    make_data,
    picard_local,
    picard_window,
    scale_symmetry_check,
    scattering_check,
    solve_dalembert,
    solve_march,
)
from .waveops import (
    ConeAccumulator,
    ConeRegion,
    dt_kirchhoff_radial,
    duhamel_direct,
    free_field,
    kirchhoff_radial,
)

__version__ = "0.1.0"

__all__ = [
    "Grid",
    "RadialProfile",
    "interp",
    "power_moment",
    "trapezoid_weighted",
    "WeightParams",
    "tau",
    "n_gamma",
    "x_norm",
    "w_weight",
    "d_gamma",
    "verify_lemma_integrals",
    "ConvolutionKernel",
    "kernel_value",
    "convolve_power",
    "convolve_profile",
    "convolve_profile_direct",
    "bilinear_form",
    "ConeRegion",
    "ConeAccumulator",
    "kirchhoff_radial",
    "dt_kirchhoff_radial",
    "free_field",
    "duhamel_direct",
    "Params",
    "SolutionHistory",
    "BlowupReport",
    "NumericalAbort",
    "make_data",
    "solve_march",
    "solve_dalembert",
    "picard_window",
    "picard_local",
    "liouville",
    "scattering_check",
    "dissipation_monitor",
    "scale_symmetry_check",
    "__version__",
]
