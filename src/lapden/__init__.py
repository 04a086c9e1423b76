"""Nonlinear Laplacian denoising for 1D signals and 2D fields.

A fourth-order curvature-flux filter that removes noise while preserving
discontinuities, with a total-variation baseline, deterministic experiment
harnesses, and plain-file I/O (CSV, PGM, SVG).
"""

from .core import DivergenceError, Field2D, RunTrace, Signal1D
from .data_io import (
    CsvParseError,
    EmptyInputError,
    PgmFormatError,
    PlotSpec,
    read_csv_1d,
    read_pgm,
    write_csv_1d,
    write_pgm,
    write_svg_plot,
)
from .grid_ops import (
    SingularSystemError,
    Stencil2DKind,
    apply_banded,
    build_d0,
    build_d1,
    laplacian_2d,
    solve_banded,
)
from .nl_filter import (
    FilterParams,
    Solver,
    adaptive_lambda,
    denoise_1d,
    denoise_2d,
    flux,
    rhs_1d,
    rhs_2d,
    stable_step_bound,
)
from .signals import (
    Metrics,
    NoiseSpec,
    add_noise,
    compute_metrics,
    default_plateau_tau,
    gaussian_noise,
    sample_f2d,
    sample_f_sine,
    sample_g_jumps,
)
from .tv_baseline import TvParams, tv_denoise_1d, tv_denoise_2d, tv_rhs_1d, tv_rhs_2d

__version__ = "0.1.0"

__all__ = [
    "CsvParseError",
    "DivergenceError",
    "EmptyInputError",
    "Field2D",
    "FilterParams",
    "Metrics",
    "NoiseSpec",
    "PgmFormatError",
    "PlotSpec",
    "RunTrace",
    "Signal1D",
    "SingularSystemError",
    "Solver",
    "Stencil2DKind",
    "TvParams",
    "adaptive_lambda",
    "add_noise",
    "apply_banded",
    "build_d0",
    "build_d1",
    "compute_metrics",
    "default_plateau_tau",
    "denoise_1d",
    "denoise_2d",
    "flux",
    "gaussian_noise",
    "laplacian_2d",
    "read_csv_1d",
    "read_pgm",
    "rhs_1d",
    "rhs_2d",
    "sample_f2d",
    "sample_f_sine",
    "sample_g_jumps",
    "solve_banded",
    "stable_step_bound",
    "tv_denoise_1d",
    "tv_denoise_2d",
    "tv_rhs_1d",
    "tv_rhs_2d",
    "write_csv_1d",
    "write_pgm",
    "write_svg_plot",
]
