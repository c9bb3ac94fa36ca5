"""Fractional integrals, maximal operators and Morrey norms on finite
metric measure spaces, with checkers for their weak- and strong-type
inequalities and a reproducible experiment harness."""

__version__ = "0.2.0"

from .functions import ExponentSet, lq_norm, morrey_norm, level_set_measure
from .generators import FunctionSpec, SpaceSpec, generate_function, generate_space
from .operators import (
    fractional_integral,
    hedberg_constant,
    hedberg_layer_sum,
    layer_radii,
    maximal,
)
from .space import (
    BallSpec,
    MetricMeasureSpace,
    ball_measure,
    ball_members,
    breakpoints,
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
    "BallSpec",
    "ExponentSet",
    "FunctionSpec",
    "MetricMeasureSpace",
    "SpaceSpec",
    "ball_measure",
    "ball_members",
    "breakpoints",
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
    "layer_radii",
    "level_set_measure",
    "lq_norm",
    "maximal",
    "morrey_norm",
    "validate_space",
]
