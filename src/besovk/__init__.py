"""Besov sequence norms, K functionals, and real-interpolation norms
on truncated wavelet-style coefficient grids."""

from .coeffs import (
    GENERATOR_KINDS,
    CoeffField,
    abs_reduce,
    generate,
    read_field,
    write_field,
)
from .errors import (
    BesovkError,
    BudgetError,
    DataError,
    NumericError,
    UsageError,
)
from .grid import BesovIndex, GridSpec, layer_weight, validate_compat
from .interp import (
    InterpReport,
    QuadratureSpec,
    besov_identity_check,
    intermediate_index,
    interp_norm,
    interp_norm_report,
    reiteration_check,
)
from .kfunc import (
    CaseTag,
    InterpQuery,
    KCurve,
    KPlan,
    default_t_grid,
    k_curve,
    k_dispatch,
    k_plan,
)
from .norms import (
    besov_lorentz_norm,
    besov_norm,
    lorentz_seq_norm,
    lp_norm,
    main_grid_reduce,
)
from .oracle import (
    k_cuboid_continuous,
    vertex_tables,
)
from .rearrange import rearrangement, threshold_split
from .verify import SUITES, run_suite

__version__ = "0.1.0"

__all__ = [
    "BesovIndex",
    "BesovkError",
    "BudgetError",
    "CaseTag",
    "CoeffField",
    "DataError",
    "GENERATOR_KINDS",
    "GridSpec",
    "InterpQuery",
    "InterpReport",
    "KCurve",
    "KPlan",
    "NumericError",
    "QuadratureSpec",
    "SUITES",
    "UsageError",
    "abs_reduce",
    "besov_identity_check",
    "besov_lorentz_norm",
    "besov_norm",
    "default_t_grid",
    "generate",
    "intermediate_index",
    "interp_norm",
    "interp_norm_report",
    "k_cuboid_continuous",
    "k_curve",
    "k_dispatch",
    "k_plan",
    "layer_weight",
    "lorentz_seq_norm",
    "lp_norm",
    "main_grid_reduce",
    "read_field",
    "rearrangement",
    "reiteration_check",
    "run_suite",
    "threshold_split",
    "validate_compat",
    "vertex_tables",
    "write_field",
]
