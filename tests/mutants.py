"""Mutation table: small wrong edits of ``src/`` that named tests must catch.

Each mutant is (file under src/morrey_lab, exact old text, new text, node ids
that must fail).  ``python tests/mutants.py [name ...]`` applies one mutant
at a time to a temporary copy of ``src/``, runs only its nodes in one pytest
child against that copy, and exits 1 unless every named node fails under
every mutant.  It first runs all named nodes on the unmutated copy, which
must pass.  ``tests/test_mutants.py`` checks in tier-1 that every old text
occurs exactly once, so an edit of a mutated line cannot leave the table
stale unnoticed; the full run takes about a minute on two cores and stays out of tier-1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    nodes: tuple[str, ...]


MUTANTS = (
    Mutant(
        "row-blocks-drop-last",
        "space.py",
        "for a in range(0, n, _ROWS)",
        "for a in range(0, n - _ROWS + 1, _ROWS)",
        (
            "tests/test_operators.py::TestInPlaceTemporaries::test_values_across_row_block_edges",
            "tests/test_space.py::TestTriangleScreen::test_violation_row_in_last_row_block",
        ),
    ),
    Mutant(
        "screen-nan-propagating-min",
        "space.py",
        "np.fmin.reduce(",
        "np.minimum.reduce(",
        ("tests/test_space.py::TestTriangleScreen::test_nan_sum_does_not_hide_a_violation",),
    ),
    Mutant(
        "screen-double-slack",
        "space.py",
        "bound *= TRIANGLE_RTOL",
        "bound *= 2 * TRIANGLE_RTOL",
        ("tests/test_space.py::TestTriangleScreen::test_violation_just_past_the_slack",),
    ),
    Mutant(
        "triangle-rtol-times-1e6",
        "space.py",
        "TRIANGLE_RTOL = 1e-12",
        "TRIANGLE_RTOL = 1e-6",
        ("tests/test_space.py::TestTriangleScreen::test_slack_forgives_only_rounding",),
    ),
    Mutant(
        "closed-measure-open-ball",
        "space.py",
        'idx = np.searchsorted(self.sorted_dist[x], radii, side="right")',
        'idx = np.searchsorted(self.sorted_dist[x], radii, side="left")',
        (
            "tests/test_space.py::TestBalls::test_measure_sums_atoms",
            "tests/test_space.py::TestDoubling::test_two_point_witness",
            "tests/test_operators.py::TestMaximal::test_two_point",
        ),
    ),
    Mutant(
        "floyd-bound-j",
        "rng.py",
        "t = randint_below(seed, j + 1, 0x464C, j)",
        "t = randint_below(seed, j, 0x464C, j)",
        (
            "tests/test_rng.py::test_shuffle_matches_per_draw_loop",
            "tests/test_rng.py::test_uniform_over_all_subsets",
        ),
    ),
    Mutant(
        "floyd-no-collision-rule",
        "rng.py",
        "chosen.add(j if t in chosen else t)",
        "chosen.add(t)",
        (
            "tests/test_rng.py::test_shuffle_matches_per_draw_loop",
            "tests/test_rng.py::test_sample_is_a_sorted_subset",
        ),
    ),
    Mutant(
        "rng-hashlib-blake2b",
        "rng.py",
        "from _blake2 import blake2b",
        "from hashlib import blake2b",
        ("tests/test_cli.py::TestBuiltinHashes::test_run_does_not_load_openssl",),
    ),
    Mutant(
        "t2-ignores-kappa",
        "theorems.py",
        "pot = v.of(fractional_integral, alpha, kappa)",
        "pot = v.of(fractional_integral, alpha, 2.0)",
        (
            "tests/test_extremal.py::TestKappaSweep::test_kappa1_dominates_kappa2",
            "tests/test_cli.py::TestSharedWork::test_sweep_reuses_the_checks_values",
        ),
    ),
    Mutant(
        "memo-key-without-arguments",
        "theorems.py",
        "key = (op, args)",
        "key = (op,)",
        (
            "tests/test_theorems.py::TestEvaluate::test_matches_per_ball_checkers_on_corpus",
            "tests/test_cli.py::TestSharedWork::test_plain_checks_share_balls_and_operators",
        ),
    ),
    Mutant(
        "doubling-last-witness",
        "space.py",
        "x = int(np.argmax(row_max == best))",
        "x = int(len(row_max) - 1 - np.argmax(row_max[::-1] == best))",
        ("tests/test_space.py::TestTables::test_doubling_ratio_equals_per_point_loop",),
    ),
    Mutant(
        "report-row-boundary",
        "cli.py",
        'json_row = _row(",\\n    {\\n      ", fields,',
        'json_row = _row("\\n    {\\n      ", fields,',
        (
            "tests/test_cli.py::TestWriteReport::test_rows_at_batch_edges",
            "tests/test_cli.py::TestWriteReport::test_block_shaped_rows",
        ),
    ),
    Mutant(
        "report-last-fixed-text-dropped",
        "cli.py",
        "row[-1] += end",
        "row[-1] = end",
        (
            "tests/test_cli.py::TestWriteReport::test_rows_at_batch_edges",
            "tests/test_cli.py::TestWriteReport::test_block_shaped_rows",
        ),
    ),
    Mutant(
        "pool-by-value",
        "cli.py",
        "np.unique(values.view(np.int64), return_inverse=True)",
        "np.unique(values, return_inverse=True)",
        (
            "tests/test_cli.py::TestWriteReport::test_array_columns_pool_doubles_by_bits",
            "tests/test_cli.py::TestWriteReport::test_array_blocks",
        ),
    ),
    Mutant(
        "report-bool-texts-swapped",
        "cli.py",
        '("false", "true").__getitem__',
        '("true", "false").__getitem__',
        (
            "tests/test_cli.py::TestWriteReport::test_array_columns_pool_doubles_by_bits",
            "tests/test_cli.py::TestWriteReport::test_array_blocks",
        ),
    ),
    Mutant(
        "report-shared-non-finite-repr",
        "cli.py",
        "if isinstance(value, float) and math.isfinite(value):",
        "if isinstance(value, float):",
        (
            "tests/test_cli.py::TestWriteReport::test_shared_values_keep_type_and_sign",
            "tests/test_cli.py::TestWriteReport::test_array_columns_pool_doubles_by_bits",
            "tests/test_cli.py::TestWriteReport::test_array_blocks",
        ),
    ),
    Mutant(
        "report-splice-unanchored",
        "cli.py",
        """anchor = '\\n  "records": []'""",
        """anchor = '"records": []'""",
        ("tests/test_cli.py::TestWriteReport::test_random_reports",),
    ),
    Mutant(
        "config-int-truncates",
        "cli.py",
        "_JSON_TYPES = {int: (int,),",
        "_JSON_TYPES = {int: (int, float),",
        ("tests/test_cli.py::TestConfigErrorsExitTwo::test_mistyped_number",),
    ),
    Mutant(
        "t1-divides-by-reciprocal",
        "theorems.py",
        "w * norm / gammas",
        "w * norm * (1.0 / gammas)",
        (
            "tests/test_theorems.py::TestBallTables::test_reports_equal_per_ball_loop",
            "tests/test_acceptance.py::test_criterion_9_end_to_end_determinism",
        ),
    ),
    Mutant(
        "constant-rule-without-vacuous-branch",
        "theorems.py",
        "np.where(lhs == 0.0, 0.0, math.inf)",
        "math.inf",
        (
            "tests/test_theorems.py::TestConstants::test_three_branches",
            "tests/test_theorems.py::TestT6::test_zero_function",
        ),
    ),
    Mutant(
        "t1-unmodified-maximal",
        "theorems.py",
        "mf, norm = v.of(maximal, 2.0), v.of(morrey_norm, p, 1.0, 2.0)",
        "mf, norm = v.of(maximal, 1.0), v.of(morrey_norm, p, 1.0, 2.0)",
        (
            "tests/test_theorems.py::TestHubAndSpoke::test_t1_constant_is_one",
            "tests/test_acceptance.py::test_criterion_2_t1_constant_four",
        ),
    ),
    Mutant(
        "weak-l1-unmodified-maximal",
        "theorems.py",
        "mf, l1 = v.of(maximal, 2.0), v.of(lq_norm, 1.0)",
        "mf, l1 = v.of(maximal, 1.0), v.of(lq_norm, 1.0)",
        (
            "tests/test_theorems.py::TestHubAndSpoke::test_weak_l1_constant_is_one",
            "tests/test_theorems.py::TestSharpConstant::test_corpus_suprema_at_most_one",
            "tests/test_properties.py::test_exact_t1_and_weak_l1_suprema_at_most_one",
        ),
    ),
    Mutant(
        "balls-rank-off-by-one",
        "theorems.py",
        "[firsts[row_of] + ranks]",
        "[firsts[row_of] + ranks - 1]",
        ("tests/test_theorems.py::TestEnumeration::test_matches_per_center_loop",),
    ),
    Mutant(
        "ball-indicator-open-ball",
        "generators.py",
        "space.dist[spec.center] <= spec.radius",
        "space.dist[spec.center] < spec.radius",
        (
            "tests/test_generators.py::TestFunctions::test_ball_indicator_zero_radius",
            "tests/test_generators.py::TestFunctions::test_ball_indicator_equals_membership_loop",
        ),
    ),
)


def apply(mutant: Mutant, src: Path) -> None:
    """Rewrite the one occurrence of ``mutant.old`` in the copy at ``src``."""
    path = src / "morrey_lab" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def run_nodes(src: Path, nodes) -> tuple[int, set[str]]:
    """Run ``nodes`` with the package imported from ``src``; the exit code
    and the ids of the failed tests."""
    env = dict(os.environ, PYTHONPATH=str(src))  # also for CLI child processes
    cmd = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", "-o", f"pythonpath={src}", *nodes]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    failed = {line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")}
    return proc.returncode, failed


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    ok = True
    with tempfile.TemporaryDirectory(prefix="morrey-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        shutil.copytree(SRC, clean, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        code, failed = run_nodes(clean, sorted({node for m in chosen for node in m.nodes}))
        if code != 0:
            print(f"unmutated: the named nodes do not pass (exit {code}): {sorted(failed)}")
            return 1
        for i, mutant in enumerate(chosen):
            src = Path(tmp) / f"m{i}"
            shutil.copytree(clean, src)
            apply(mutant, src)
            _, failed = run_nodes(src, mutant.nodes)
            survived = [node for node in mutant.nodes if not any(f == node or f.startswith(node + "[") for f in failed)]
            ok &= bool(mutant.nodes) and not survived
            print(f"{mutant.name}: {'caught' if mutant.nodes and not survived else 'SURVIVED'}"
                  f" ({len(mutant.nodes) - len(survived)}/{len(mutant.nodes)} nodes fail)")
            for node in survived:
                print(f"  passes under the mutant: {node}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
