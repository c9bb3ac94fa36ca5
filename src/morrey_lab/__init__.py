"""Fractional integrals, maximal operators and Morrey norms on finite
metric measure spaces, with checkers for their weak- and strong-type
inequalities and a reproducible experiment harness."""

__version__ = "0.2.0"

from .functions import ExponentSet, lq_norm, morrey_norm
from .generators import FunctionSpec, SpaceSpec, generate_function, generate_space
from .operators import (
    fractional_integral,
    hedberg_constant,
    hedberg_layer_sum,
    maximal,
)
from .space import (
    MetricMeasureSpace,
    doubling_ratio,
    validate_space,
)
from .theorems import (
    check_T1_weak_maximal,
    check_T2_hedberg,
    check_T3_weak_frac,
    check_T6_strong,
    check_T7_maximal_morrey,
    check_weak_L1,
)

__all__ = [
    "ExponentSet",
    "FunctionSpec",
    "MetricMeasureSpace",
    "SpaceSpec",
    "check_T1_weak_maximal",
    "check_T2_hedberg",
    "check_T3_weak_frac",
    "check_T6_strong",
    "check_T7_maximal_morrey",
    "check_weak_L1",
    "doubling_ratio",
    "fractional_integral",
    "generate_function",
    "generate_space",
    "hedberg_constant",
    "hedberg_layer_sum",
    "lq_norm",
    "maximal",
    "morrey_norm",
    "validate_space",
]
