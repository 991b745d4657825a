"""Nabla tempered fractional calculus on integer-shifted grids."""

from .errors import ConfigError, NablaError
from .signals import (
    EPS_WEIGHT,
    BadRate,
    CSVFormatError,
    Grid,
    GridMismatch,
    NonFiniteSample,
    Signal,
    Weight,
    ZeroScale,
    ZeroWeight,
    make_signal_from_fn,
    make_weight,
    read_signal_csv,
    read_weight_csv,
    scale_weight,
    signal_from_values,
    write_signal_csv,
)
from .special import (
    DomainError,
    GLCoefficientSeq,
    PoleError,
    gl_coefficients,
    rising,
    rising_over_gamma,
)
from .operators import (
    InsufficientHistory,
    IntegerOrder,
    OperatorKind,
    OperatorSpec,
    apply_operator,
    caputo_tempered,
    gl_integer_vs_nabla_defect,
    gl_tempered,
    nabla_at,
    nabla_n,
    nabla_n_tempered,
    nabla_n_tempered_at,
    rl_tempered,
    rl_tempered_at_base,
    with_zero_history,
)
from .identities import IdentityReport
from .laplace import LaplaceEval, MLParams, convolve, fde_solve, ml_function, nlt
from .suite import run_suite

__version__ = "0.1.0"
