"""The public surface is what the CLI, the checks and the README use."""

import os
import re

import morrey_lab

PUBLIC = [
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


def test_all_is_pinned():
    assert sorted(morrey_lab.__all__) == PUBLIC


def test_every_public_name_imports():
    namespace = {}
    exec(f"from morrey_lab import {', '.join(PUBLIC)}", namespace)
    assert all(namespace[name] is getattr(morrey_lab, name) for name in PUBLIC)


def test_readme_sketch_imports_only_public_names():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "README.md"), encoding="utf-8") as fh:
        (sketch,) = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert not re.search(r"^import morrey_lab", sketch, re.M)
    imports = re.findall(r"^from (morrey_lab\S*) import (\([^)]*\)|.*)$", sketch, re.M)
    assert [module for module, _ in imports] == ["morrey_lab"]
    names = {name.strip() for name in imports[0][1].strip("()").split(",")} - {""}
    assert "generate_space" in names and names <= set(morrey_lab.__all__)
