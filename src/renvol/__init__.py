"""Renormalized-volume comparison toolkit for radially symmetric
asymptotically hyperbolic 3-metrics.

The package models warped products f(s)^-1 ds^2 + s^2 (round sphere),
computes their renormalized volume, quasi-local mass, and curvature, and
checks the volume-comparison inequality against the constant-mass model
family, including the flow and area lower bounds and the gap function
that quantifies strictness.  All quadrature is deterministic, so every
number here is reproducible bit-for-bit.
"""

from .comparison import (
    ComparisonReport,
    GapSpec,
    HypothesisCheck,
    SlopeBound,
    SweepResult,
    SweepRow,
    compare_volumes,
    kernel_margin,
    kernel_threshold,
    mass_volume_sweep,
    volume_gap,
    volume_gap_regularized,
    volume_gap_slope,
)
from .errors import (
    DecayError,
    DomainError,
    EvaluationError,
    ExpressionError,
    ParseError,
    QuadratureError,
    RenvolError,
)
from .expressions import Expression, load_profile_file, parse, parse_profile_text
from .metric import (
    AsymptoticsReport,
    Horizon,
    RadialProfile,
    ads_horizon_radius,
    ads_schwarzschild,
    custom_profile,
    hyperbolic,
    rn_ads,
    validate_asymptotics,
)
from .quadrature import (
    Integral,
    Tolerance,
    find_root_bracketed,
    integrate,
    integrate_semi_infinite,
    integrate_sqrt_endpoint,
)
from .volume import (
    IsoIdentity,
    RenormalizedVolume,
    area_lower_bound,
    flow_volume_lower_bound,
    isoperimetric_identity,
    renormalized_volume,
    volume_between,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticsReport",
    "ComparisonReport",
    "DecayError",
    "DomainError",
    "EvaluationError",
    "Expression",
    "ExpressionError",
    "GapSpec",
    "Horizon",
    "HypothesisCheck",
    "Integral",
    "IsoIdentity",
    "ParseError",
    "QuadratureError",
    "RadialProfile",
    "RenormalizedVolume",
    "RenvolError",
    "SlopeBound",
    "SweepResult",
    "SweepRow",
    "Tolerance",
    "ads_horizon_radius",
    "ads_schwarzschild",
    "area_lower_bound",
    "compare_volumes",
    "custom_profile",
    "find_root_bracketed",
    "flow_volume_lower_bound",
    "hyperbolic",
    "integrate",
    "integrate_semi_infinite",
    "integrate_sqrt_endpoint",
    "isoperimetric_identity",
    "kernel_margin",
    "kernel_threshold",
    "load_profile_file",
    "mass_volume_sweep",
    "parse",
    "parse_profile_text",
    "renormalized_volume",
    "rn_ads",
    "validate_asymptotics",
    "volume_between",
    "volume_gap",
    "volume_gap_regularized",
    "volume_gap_slope",
    "__version__",
]
