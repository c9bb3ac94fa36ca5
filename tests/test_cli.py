import csv
import errno
import hashlib
import importlib.util
import io
import json
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morrey_lab import cli
from morrey_lab.cli import ConfigError, load_space_file, parse_config, save_space_file, write_report
from morrey_lab.extremal import OptimizerConfig
from morrey_lab.generators import FunctionSpec, SpaceSpec, generate_function, generate_space
from morrey_lab.space import MetricMeasureSpace
from morrey_lab.theorems import CHECK_IDS

BASE_CONFIG = {
    "seed": 5,
    "output_dir": "out",
    "gamma_grid": {"lo": 0.001, "hi": 1000.0, "count": 3},
    "spaces": [{"id": "g4", "family": "grid", "n": 4, "dim": 1}],
    "functions": [
        {"id": "const", "family": "constant", "value": 1.0},
        {"id": "rough", "family": "random-uniform", "seed": 9},
    ],
    "exponents": [[2.0, 1.5, 0.25]],
    "checks": ["T1", "T2", "T3", "T6", "T7", "weakL1"],
}


def write_config(tmp_path, overrides=None, name="config.json"):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    if overrides:
        cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfigParsing:
    def test_unknown_key_rejected(self):
        raw = dict(BASE_CONFIG, surprise=1)
        with pytest.raises(ConfigError, match="surprise"):
            parse_config(raw)

    def test_malformed_exponent_named(self):
        raw = dict(BASE_CONFIG, exponents=[[2.0, 1.5, 0.75]])
        with pytest.raises(ConfigError, match="0.75"):
            parse_config(raw)

    def test_needs_a_check(self):
        raw = dict(BASE_CONFIG, checks=[])
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_estimate_rejects_seed(self):
        raw = dict(BASE_CONFIG, checks=[{"estimate": {"check": "T6", "seed": 1}}])
        with pytest.raises(ConfigError, match=r"checks\[0\]\.estimate: unknown keys \['seed'\]"):
            parse_config(raw)

    @pytest.mark.parametrize("key,value", [("step_init", 2.0), ("step_decay", 0.5), ("stop_tol", 1e-3)])
    def test_estimate_rejects_fixed_step_schedule(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {"checks": [{"estimate": {"check": "T6", key: value}}]})
        assert cli.main(["--quiet", "run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"config error: checks[0].estimate: unknown keys ['{key}']")

    def test_entry_defaults_and_coercions(self):
        raw = dict(
            BASE_CONFIG,
            spaces=[{"family": "grid", "n": 6, "seed": 3}],
            functions=[{"family": "power-spike", "cap": 7}],
            checks=[{"estimate": {"check": "T2", "restarts": 2}}],
        )
        cfg = parse_config(raw)
        assert cfg.spaces == [("space0", SpaceSpec("grid", n=6, seed=3))]
        fid, fspec = cfg.functions[0]
        assert fid == "fn0" and fspec.cap == 7.0 and isinstance(fspec.cap, float)
        (req,) = cfg.estimates
        assert req.space == "space0" and req.exponent == 0
        assert req.optimizer == OptimizerConfig(seed=5, restarts=2)


def oversize_space_file(path, monkeypatch):
    """A sparse file (nothing is written) one byte past the space-file bound;
    ``json.load`` fails the test on it instead of reading 416 MiB."""
    with open(path, "wb") as fh:
        fh.truncate(cli._MAX_SPACE_FILE_BYTES + 1)
    load = json.load

    def guarded(fh, **kwargs):
        assert os.fstat(fh.fileno()).st_size <= cli._MAX_SPACE_FILE_BYTES, "json.load read the oversize file"
        return load(fh, **kwargs)

    monkeypatch.setattr(json, "load", guarded)


class TestConfigErrorsExitTwo:
    """Values a spec dataclass rejects or cannot coerce are config errors,
    not tracebacks (exit 1 is reserved for a failed check)."""

    def run_with(self, tmp_path, capsys, overrides):
        cfg = write_config(tmp_path, overrides)
        code = cli.main(["--quiet", "run", cfg, "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    def test_estimate_with_zero_restarts(self, tmp_path, capsys):
        code, err = self.run_with(tmp_path, capsys, {"checks": [{"estimate": {"check": "T6", "restarts": 0}}]})
        assert code == 2
        assert err.startswith("config error: checks[0].estimate:") and "restarts" in err

    def test_space_with_null_n(self, tmp_path, capsys):
        code, err = self.run_with(tmp_path, capsys, {"spaces": [{"id": "g", "family": "grid", "n": None}]})
        assert code == 2
        assert err.startswith("config error: spaces[0]: 'n'")

    def build_space(self, tmp_path, capsys, command, entry):
        """``run`` with the one space ``entry``, or ``gen`` of it."""
        if command == "run":
            return self.run_with(tmp_path, capsys, {"spaces": [entry]})
        (tmp_path / "spec.json").write_text(json.dumps(entry))
        code = cli.main(["gen", str(tmp_path / "spec.json"), "-o", str(tmp_path / "space.json")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "gen"])
    def test_generated_space_that_fails_validation(self, tmp_path, capsys, command):
        """A Gaussian grid this wide has masses that underflow to 0: the
        space is invalid, which is exit 2 with the space's id, not a traceback."""
        entry = {"id": "g", "family": "gaussian-grid", "n": 16, "halfwidth": 40.0}
        code, err = self.build_space(tmp_path, capsys, command, entry)
        assert code == 2
        assert err.startswith("config error: space 'g': invalid space: NonpositiveMass(0,), NonpositiveMass(1,)")
        assert not (tmp_path / "out").exists() and not (tmp_path / "space.json").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["run", "gen"])
    def test_generated_space_past_the_float_range(self, tmp_path, capsys, command):
        """A grid cell of side 5e199 in two dimensions has a volume past the
        float range: its masses and distances are not finite, exit 2, with
        no overflow warning."""
        entry = {"family": "grid", "n": 4, "dim": 2, "halfwidth": 1e200}
        code, err = self.build_space(tmp_path, capsys, command, entry)
        assert code == 2
        assert err == "config error: space 'space0': invalid space: Shape('non-finite entries',)\n"

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"checks": [{"estimate": {"check": "T6", "space": "g5"}}]}, "checks[0].estimate: unknown space 'g5'"),
            ({"checks": [{"estimate": {"check": "T6", "exponent": 1}}]}, "checks[0].estimate: exponent index 1 out"),
            ({"checks": [{"estimate": {"check": "T6", "exponent": -1}}]}, "checks[0].estimate: exponent index -1 out"),
            ({"checks": ["T6", {"sweep": {"alpha": 0.25, "p": 2.0, "function": "x"}}]}, "checks[1].sweep: unknown function 'x'"),
            ({"spaces": [{"id": "g", "family": "grid", "n": 4}] * 2}, "spaces[1]: duplicate id 'g'"),
            ({"functions": [{"family": "constant"}, {"id": "fn0", "family": "constant"}]}, "functions[1]: duplicate id 'fn0'"),
        ],
        ids=["estimate-space", "estimate-exponent", "estimate-negative-exponent", "sweep-function", "space-id", "function-id"],
    )
    def test_unknown_or_repeated_reference(self, tmp_path, capsys, overrides, message):
        code, err = self.run_with(tmp_path, capsys, overrides)
        assert code == 2
        assert err.startswith(f"config error: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"seed": 2.7}, "config: 'seed' must be int, got 2.7"),
            ({"seed": True}, "config: 'seed' must be int, got True"),
            ({"spaces": [{"id": "g", "family": "grid", "n": 4.9}]}, "spaces[0]: 'n' must be int, got 4.9"),
            ({"spaces": [{"id": "g", "family": "grid", "n": 4.0}]}, "spaces[0]: 'n' must be int, got 4.0"),
            ({"spaces": [{"id": "g", "family": "grid", "n": "4"}]}, "spaces[0]: 'n' must be int, got '4'"),
            ({"spaces": [{"id": "g", "family": "grid", "n": 4, "dim": True}]}, "spaces[0]: 'dim' must be int, got True"),
            ({"gamma_grid": {"count": 2.5}}, "gamma_grid: 'count' must be int, got 2.5"),
            ({"gamma_grid": {"lo": True}}, "gamma_grid: 'lo' must be float, got True"),
            ({"checks": [{"estimate": {"check": "T6", "max_iters": 47.9}}]}, "checks[0].estimate: 'max_iters' must be int, got 47.9"),
            ({"checks": [{"estimate": {"check": "T6", "exponent": 0.7}}]}, "checks[0].estimate: 'exponent' must be int, got 0.7"),
            ({"functions": [{"id": "f", "family": "power-spike", "center": 3.99}]}, "functions[0]: 'center' must be int, got 3.99"),
            ({"functions": [{"id": "f", "family": "constant", "value": True}]}, "functions[0]: 'value' must be float, got True"),
            ({"exponents": [[2.0, True, 0.25]]}, "exponents[0]: 'q' must be float, got True"),
            ({"checks": [{"sweep": {"alpha": 0.25, "p": True}}]}, "checks[0].sweep: 'p' must be float, got True"),
            ({"functions": [{"id": "f", "family": "constant", "value": "nan"}]}, "functions[0]: 'value' must be float, got 'nan'"),
            ({"exponents": [["2.0", 1.5, 0.25]]}, "exponents[0]: 'p' must be float, got '2.0'"),
            ({"gamma_grid": {"lo": "0.001"}}, "gamma_grid: 'lo' must be float, got '0.001'"),
            ({"functions": [{"id": "f", "family": "constant", "value": 10**400}]}, f"functions[0]: 'value' must be float, got {10**400}"),
        ],
        ids=[
            "seed-fraction", "seed-bool", "space-n-fraction", "space-n-integral-float", "space-n-string",
            "space-dim-bool", "gamma-count-fraction", "gamma-lo-bool", "estimate-max-iters-fraction",
            "estimate-exponent-fraction", "function-center-fraction", "function-value-bool", "exponent-bool",
            "sweep-p-bool", "function-value-string", "exponent-string", "gamma-lo-string", "function-value-past-float",
        ],
    )
    def test_mistyped_number(self, tmp_path, capsys, overrides, message):
        """int() would truncate these and read true as 1; float() would read
        true as 1.0 and a string such as "nan" as a number."""
        code, err = self.run_with(tmp_path, capsys, overrides)
        assert code == 2
        assert err.startswith(f"config error: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"functions": [{"id": "f", "family": "constant", "value": float("nan")}]}, "functions[0]: bad function"),
            ({"functions": [{"id": "f", "family": "power-spike", "cap": float("inf")}]}, "functions[0]: bad function"),
            ({"functions": [{"id": "f", "family": "ball-indicator", "radius": float("nan")}]}, "functions[0]: bad function"),
            ({"functions": [{"id": "f", "family": "power-spike", "beta": float("-inf")}]}, "functions[0]: bad function"),
            ({"spaces": [{"id": "g", "family": "grid", "halfwidth": float("inf")}]}, "spaces[0]: need finite halfwidth"),
            ({"spaces": [{"id": "g", "family": "radial-decay-grid", "beta": float("nan")}]}, "spaces[0]: need finite halfwidth"),
        ],
        ids=["function-value-nan", "function-cap-inf", "function-radius-nan", "function-beta-minus-inf", "space-halfwidth-inf", "space-beta-nan"],
    )
    def test_non_finite_spec_number(self, tmp_path, capsys, overrides, message):
        """json.load reads a bare NaN or Infinity, and NaN passes every ``<`` test."""
        code, err = self.run_with(tmp_path, capsys, overrides)
        assert code == 2
        assert err.startswith(f"config error: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"output_dir": None}, "config: 'output_dir' must be str, got None"),
            ({"output_dir": 7}, "config: 'output_dir' must be str, got 7"),
            ({"spaces": [{"id": None, "family": "grid", "n": 4}]}, "spaces[0]: 'id' must be str, got None"),
            ({"functions": [{"id": 3, "family": "constant"}]}, "functions[0]: 'id' must be str, got 3"),
            ({"spaces": [{"id": "7", "family": "grid", "n": 4}], "checks": [{"estimate": {"check": "T6", "space": 7}}]},
             "checks[0].estimate: 'space' must be str, got 7"),
            ({"functions": [{"id": "3.0", "family": "constant"}], "checks": [{"sweep": {"alpha": 0.25, "p": 2.0, "function": 3.0}}]},
             "checks[0].sweep: 'function' must be str, got 3.0"),
            ({"spaces": [{"id": "g", "file": 5}]}, "spaces[0]: 'file' must be str, got 5"),
            ({"checks": [{"estimate": {"check": "T6", "space": None}}]}, "checks[0].estimate: 'space' must be str, got None"),
        ],
        ids=["output-dir-null", "output-dir-number", "space-id-null", "function-id-number", "estimate-space-number",
             "sweep-function-number", "space-file-number", "estimate-space-null"],
    )
    def test_string_key_of_another_type(self, tmp_path, capsys, overrides, message):
        """str() would name a directory, space or function "None", match the
        space "7" with 7 or the function "3.0" with 3.0, and read the file "5"."""
        code, err = self.run_with(tmp_path, capsys, overrides)
        assert code == 2
        assert err.startswith(f"config error: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key,overrides",
        [
            ("spaces", {"spaces": 3}),
            ("functions", {"functions": 3}),
            ("exponents", {"exponents": 2.0}),
            ("checks", {"checks": "T1"}),
            ("checks[0].sweep.kappas", {"checks": [{"sweep": {"alpha": 0.25, "p": 2.0, "kappas": 2.0}}]}),
        ],
    )
    def test_scalar_where_a_list_is_needed(self, tmp_path, capsys, key, overrides):
        code, err = self.run_with(tmp_path, capsys, overrides)
        assert code == 2
        assert err.startswith(f"config error: {key}: expected a list")

    @pytest.mark.parametrize("check", ["T1", "T2", "T3", "T6", "T7"])
    def test_check_without_exponent_triples(self, tmp_path, capsys, check):
        """A check that runs once per exponent triple, in a config with none,
        would check nothing and pass; weakL1 alone needs no triple."""
        code, err = self.run_with(tmp_path, capsys, {"exponents": [], "checks": ["weakL1", check]})
        assert code == 2
        assert err.startswith(f"config error: checks ['{check}'] need at least one [p, q, alpha] triple")
        assert not (tmp_path / "out").exists()
        code, _ = self.run_with(tmp_path, capsys, {"exponents": [], "checks": ["weakL1"]})
        assert code == 0
        assert len((tmp_path / "out" / "records.csv").read_text().splitlines()) > 1

    @pytest.mark.parametrize(
        "sweep",
        [
            {"alpha": 0.25, "p": 2.0, "kappas": [0.0]},
            {"alpha": 1.5, "p": 2.0},
            {"alpha": 0.25, "p": 0.5},
            {"alpha": 0.6, "p": 2.0},  # alpha >= 1/p, outside T2's range
            {"alpha": 0.9, "p": 2.0},
            {"alpha": 0.25, "p": 2.0, "kappas": [1.0, 0.0]},
        ],
    )
    def test_bad_sweep_parameter(self, tmp_path, capsys, monkeypatch, sweep):
        """Rejected when the config is read, before any space is built."""

        def unbuilt(spec):
            raise AssertionError("a space was built")

        monkeypatch.setattr(cli, "generate_space", unbuilt)
        code, err = self.run_with(tmp_path, capsys, {"checks": ["T1", {"sweep": sweep}]})
        assert code == 2
        assert err.startswith("config error: sweep (")
        assert not (tmp_path / "out").exists()

    def test_sweep_of_a_non_finite_function_file(self, tmp_path, capsys):
        (tmp_path / "nan.json").write_text(json.dumps([1.0, float("nan"), 1.0, 1.0]))
        sweep = {"sweep": {"alpha": 0.25, "p": 2.0, "function": "nan"}}
        code, err = self.run_with(tmp_path, capsys, {"functions": [{"id": "nan", "file": "nan.json"}], "checks": [sweep]})
        assert code == 2
        assert err.startswith("config error: sweep (") and "finite" in err

    @pytest.mark.parametrize(
        "grid",
        [
            {"lo": -1, "hi": -0.001},  # every T1 record would fail
            {"count": 0},  # T1, T3 and weakL1 would write no records
            {"lo": 0},  # every level-set check would error
            {"count": -1},
            {"hi": float("inf")},
            {"lo": float("nan")},
        ],
    )
    def test_bad_gamma_grid(self, tmp_path, capsys, grid):
        code, err = self.run_with(tmp_path, capsys, {"gamma_grid": grid})
        assert code == 2
        assert err.startswith("config error: gamma_grid: need finite lo > 0")

    @pytest.mark.parametrize(
        "first,second,code",
        [([1.0, 1.5, 2.0, 3.0, 4.0], [4.0, 5.0, 6.0, 7.0, 8.0], 2), ([1.0, 1.5, 2.0, 3.0], [3.0, 4.0, 5.0, 6.0, 7.0], 0)],
        ids=["nine", "eight"],
    )
    def test_sweep_kappas_past_the_bound(self, tmp_path, capsys, monkeypatch, first, second, code):
        """Each distinct kappa keeps an n x n index table in every space for
        the rest of the run: more than 8 across the sweeps, a shared one
        counted once, are rejected before any space is built."""
        if code == 2:
            monkeypatch.setattr(cli, "generate_space", lambda spec: pytest.fail("a space was built"))
        sweeps = [{"sweep": {"alpha": 0.25, "p": 2.0, "kappas": kappas}} for kappas in (first, second)]
        got, err = self.run_with(tmp_path, capsys, {"checks": sweeps})
        assert got == code
        if code == 2:
            assert err == "config error: sweeps: at most MAX_SWEEP_KAPPAS = 8 distinct kappas, got 9\n"

    def test_gamma_count_past_the_bound(self, tmp_path, capsys):
        """Each T1 or T3 call holds 64 * count rows: a count past 1024 is
        rejected when the config is read."""
        assert parse_config(dict(BASE_CONFIG, gamma_grid={"count": 1024})).gamma_grid == (1e-3, 1e3, 1024)
        code, err = self.run_with(tmp_path, capsys, {"gamma_grid": {"count": 1025}})
        assert code == 2
        assert err == ("config error: gamma_grid: need finite lo > 0, finite hi > 0 and 1 <= count <= 1024,"
                       " got {'lo': 0.001, 'hi': 1000.0, 'count': 1025}\n")

    @pytest.mark.parametrize("excess", [0, 1])
    def test_function_file_past_the_byte_bound(self, tmp_path, capsys, monkeypatch, excess):
        """A function file of more than MAX_POINTS * 64 bytes is refused
        before json.load reads it; one of exactly that size is read."""
        path = tmp_path / "f.json"
        text = json.dumps([1.0, 2.0, 3.0, 4.0])
        path.write_text(text + " " * (cli._MAX_FUNCTION_FILE_BYTES + excess - len(text)))
        load = json.load

        def guarded(fh, **kwargs):
            assert os.fstat(fh.fileno()).st_size <= cli._MAX_FUNCTION_FILE_BYTES, "json.load read the oversize file"
            return load(fh, **kwargs)

        monkeypatch.setattr(json, "load", guarded)
        code, err = self.run_with(tmp_path, capsys, {"functions": [{"id": "f", "file": "f.json"}]})
        if excess:
            assert code == 2
            assert err == (f"config error: cannot use input file {path}:"
                           " a function file holds at most 262144 bytes, got 262145\n")
        else:
            assert code == 0 and err == ""

    @pytest.mark.parametrize(
        "kind,name,content",
        [
            ("spaces", "missing.json", None),
            ("spaces", "words.json", {"n": 2, "dist": ["a", "b", "c", "d"], "mass": [1, 1]}),
            ("spaces", "object.json", {"n": [2], "dist": [0, 1, 1, 0], "mass": [1, 1]}),
            ("spaces", "triangle.json", {"n": 3, "dist": [0, 1, 5, 1, 0, 1, 5, 1, 0], "mass": [1, 1, 1]}),
            ("spaces", "empty.json", {"n": 0, "dist": [], "mass": []}),
            ("functions", "missing.json", None),
            ("functions", "words.json", ["a", "b", "c", "d"]),
            ("functions", "object.json", {"values": [1, 2, 3, 4]}),
            ("functions", "short.json", [1, 2]),
            ("spaces", "fractional-n.json", {"n": 2.9, "dist": [0, 1, 1, 0], "mass": [1, 1]}),
            ("spaces", "boolean-n.json", {"n": True, "dist": [0], "mass": [1]}),
        ],
    )
    def test_bad_input_file(self, tmp_path, capsys, kind, name, content):
        if content is not None:
            (tmp_path / name).write_text(json.dumps(content))
        code, err = self.run_with(tmp_path, capsys, {kind: [{"id": "x", "file": name}]})
        assert code == 2
        assert err.startswith(f"config error: cannot use input file {tmp_path / name}")

    def test_space_file_past_max_points(self, tmp_path, capsys):
        """n is checked before the one-entry arrays are reshaped to n x n."""
        (tmp_path / "big.json").write_text(json.dumps({"n": 4097, "dist": [0], "mass": [1]}))
        code, err = self.run_with(tmp_path, capsys, {"spaces": [{"id": "x", "file": "big.json"}]})
        assert code == 2
        assert err == (f"config error: cannot use input file {tmp_path / 'big.json'}:"
                       " 'n' must lie in [0, MAX_POINTS = 4096], got 4097\n")

    def test_space_file_past_the_byte_bound(self, tmp_path, capsys, monkeypatch):
        """A space file larger than the largest one save_space_file writes is
        refused before json.load reads it."""
        oversize_space_file(tmp_path / "huge.json", monkeypatch)
        code, err = self.run_with(tmp_path, capsys, {"spaces": [{"id": "x", "file": "huge.json"}]})
        assert code == 2
        assert err == (f"config error: cannot use input file {tmp_path / 'huge.json'}:"
                       " a space file holds at most 436314176 bytes, got 436314177\n")

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["minus-one", "two-to-the-64"])
    @pytest.mark.parametrize(
        "where,context",
        [("config", "config"), ("--seed", "config"), ("space", "spaces[0]"), ("function", "functions[0]"), ("gen", "spaces[0]")],
    )
    def test_seed_out_of_range(self, tmp_path, capsys, where, context, seed):
        """A seed outside [0, 2**64) cannot be hashed; every path that takes one stops with exit 2."""
        out = str(tmp_path / "out")
        if where == "gen":
            spec = tmp_path / "spec.json"
            spec.write_text(json.dumps({"family": "random-points", "n": 4, "seed": seed}))
            code = cli.main(["gen", str(spec), "-o", str(tmp_path / "space.json")])
        elif where == "--seed":
            code = cli.main(["--quiet", "run", write_config(tmp_path), "--seed", str(seed), "--out", out])
        else:
            overrides = {
                "config": {"seed": seed},
                "space": {"spaces": [{"id": "r", "family": "random-points", "n": 4, "seed": seed}]},
                "function": {"functions": [{"id": "u", "family": "random-uniform", "seed": seed}]},
            }[where]
            code = cli.main(["--quiet", "run", write_config(tmp_path, overrides), "--out", out])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {context}: seed must lie in [0, 2**64), got {seed}")
        assert not os.path.exists(out) and not (tmp_path / "space.json").exists()

    def test_largest_seed_is_accepted(self):
        assert parse_config(dict(BASE_CONFIG, seed=2**64 - 1)).seed == 2**64 - 1
        sp = generate_space(SpaceSpec("random-points", n=4, seed=2**64 - 1))
        assert generate_function(sp, FunctionSpec("random-uniform", seed=2**64 - 1)).shape == (4,)

    @pytest.mark.parametrize("family", ["ball-indicator", "power-spike"])
    def test_function_center_out_of_range(self, tmp_path, capsys, family):
        code, err = self.run_with(tmp_path, capsys, {"functions": [{"id": "f", "family": family, "center": 10}]})
        assert code == 2
        assert err.startswith("config error: function 'f' on space 'g4': center 10 out of range for n=4")

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"checks": None}, "config: missing required key 'checks'"),
            ({"checks": [{"sweep": {"p": 2.0}}]}, "checks[0].sweep: missing required key 'alpha'"),
            ({"checks": [{"estimate": {"space": "g4"}}]}, "checks[0].estimate: missing required key 'check'"),
            ({"spaces": [{"id": "g", "n": 4}]}, "spaces[0]: missing required key 'family'"),
        ],
        ids=["config-checks", "sweep-alpha", "estimate-check", "space-family"],
    )
    def test_missing_required_key(self, tmp_path, capsys, overrides, message):
        raw = {**BASE_CONFIG, **overrides}
        path = tmp_path / "config.json"
        path.write_text(json.dumps({key: v for key, v in raw.items() if v is not None}))
        assert cli.main(["--quiet", "run", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"seed": None}, "config: 'seed' must be int, got None"),
            ({"spaces": [{"id": "g", "family": "grid", "seed": None}]}, "spaces[0]: 'seed' must be int, got None"),
            ({"functions": [{"id": "f", "file": None}]}, "functions[0]: 'file' must be str, got None"),
            ({"gamma_grid": {"count": None}}, "gamma_grid: 'count' must be int, got None"),
            ({"checks": [{"estimate": {"check": "T6", "restarts": None}}]}, "checks[0].estimate: 'restarts' must be int, got None"),
        ],
        ids=["config-seed", "space-seed", "function-file", "gamma-count", "estimate-restarts"],
    )
    def test_explicit_null_is_a_type_error(self, tmp_path, capsys, overrides, message):
        """A null never stands for the default, nor a file entry for a generated one."""
        code, err = self.run_with(tmp_path, capsys, overrides)
        assert code == 2
        assert err == f"config error: {message}\n"

    @pytest.mark.parametrize("kind", ["spaces", "functions"])
    def test_file_entry_takes_only_id_and_file(self, tmp_path, capsys, kind):
        """The generator keys of a file entry would be ignored, not read."""
        save_space_file(generate_space(SpaceSpec("grid", n=4)), str(tmp_path / "sp.json"))
        (tmp_path / "f.json").write_text(json.dumps([1.0, 2.0, 3.0, 4.0]))
        entry = {"spaces": {"id": "g", "file": "sp.json"}, "functions": {"id": "f", "file": "f.json"}}[kind]
        code, _ = self.run_with(tmp_path, capsys, {kind: [entry]})
        assert code == 0
        code, err = self.run_with(tmp_path, capsys, {kind: [{**entry, "family": "grid", "n": "junk"}]})
        assert code == 2
        assert err == f"config error: {kind}[0]: unknown keys ['family', 'n']\n"

    def test_repeated_check_id(self, tmp_path, capsys):
        """A repeated check would write every record twice and count each pass twice."""
        code, err = self.run_with(tmp_path, capsys, {"checks": ["T2", "T6", "T2"]})
        assert code == 2
        assert err == "config error: checks[2]: duplicate check id 'T2'\n"
        assert not (tmp_path / "out").exists()

    def test_weak_l1_estimate_needs_an_exponent_triple(self, tmp_path, capsys):
        """weakL1 needs no triple as a check, but an estimate names one by index."""
        code, _ = self.run_with(tmp_path, capsys, {"exponents": [], "checks": ["weakL1"]})
        assert code == 0
        code, err = self.run_with(tmp_path, capsys, {"exponents": [], "checks": [{"estimate": {"check": "weakL1"}}]})
        assert code == 2
        assert err == "config error: checks[0].estimate: exponent index 0 out of range\n"

    @pytest.mark.parametrize(
        "values",
        [[True, "0.5", 1, 2], [1, 2, 3, "4"], [1, 2, None, 4], [[1, 2], [3, False]], [10**400, 1, 1, 1]],
        ids=["bool-and-string", "string", "null", "nested-bool", "past-float"],
    )
    def test_function_file_of_non_numbers(self, tmp_path, capsys, values):
        """float() would read true as 1.0, "4" as 4.0 and null as NaN."""
        (tmp_path / "f.json").write_text(json.dumps(values))
        code, err = self.run_with(tmp_path, capsys, {"functions": [{"id": "f", "file": "f.json"}]})
        assert code == 2
        assert err.startswith(f"config error: cannot use input file {tmp_path / 'f.json'}: ")
        assert not (tmp_path / "out").exists()

    def test_space_file_of_non_numbers(self, tmp_path, capsys):
        (tmp_path / "sp.json").write_text(json.dumps({"n": 2, "dist": [[0, 1], [1, 0]], "mass": [1, "2"]}))
        code, err = self.run_with(tmp_path, capsys, {"spaces": [{"id": "x", "file": "sp.json"}]})
        assert code == 2
        path = tmp_path / "sp.json"
        assert err == f"config error: cannot use input file {path}: {path}: 'mass' must be float, got '2'\n"

    @pytest.mark.parametrize("command", ["run", "gen"])
    @pytest.mark.parametrize(
        "entry",
        [{"family": "ultrametric-tree", "depth": 40}, {"family": "grid", "n": 2, "dim": 10**12}],
        ids=["tree", "grid"],
    )
    def test_space_past_max_points(self, tmp_path, capsys, monkeypatch, command, entry):
        """Rejected when the spec is read: exit 2, not numpy's MemoryError (exit 1)."""

        def unbuilt(spec):
            raise AssertionError("a space was built")

        monkeypatch.setattr(cli, "generate_space", unbuilt)
        code, err = self.build_space(tmp_path, capsys, command, entry)
        assert code == 2
        assert err.startswith("config error: spaces[0]: a generated space holds at most MAX_POINTS = 4096 points")


    @pytest.mark.parametrize("command", ["run", "gen"])
    def test_space_past_max_coordinates(self, tmp_path, capsys, monkeypatch, command):
        """n=4 points of dim 10**8 are rejected when the spec is read, with
        exit 2, before any coordinate is drawn."""

        def unbuilt(spec):
            raise AssertionError("a space was built")

        monkeypatch.setattr(cli, "generate_space", unbuilt)
        code, err = self.build_space(tmp_path, capsys, command, {"family": "random-points", "n": 4, "dim": 10**8})
        assert code == 2
        assert err.startswith("config error: spaces[0]: a generated space holds at most MAX_POINTS * 64 = 262144")


class TestSpaceFiles:
    def test_round_trip_exact(self, tmp_path):
        sp = generate_space(SpaceSpec("random-points", n=7, dim=2, seed=3))
        path = str(tmp_path / "space.json")
        save_space_file(sp, path)
        back = load_space_file(path)
        np.testing.assert_array_equal(back.dist, sp.dist)
        np.testing.assert_array_equal(back.mass, sp.mass)

    def test_validate_rejects_asymmetric(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "dist": [0, 1, 2, 0], "mass": [1, 1]}))
        code = cli.main(["validate", str(path)])
        assert code == 1
        assert "Asymmetry" in capsys.readouterr().out

    def test_validate_unreadable_exits_two(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"n": 2, "dist": [0, 1, 1], "mass": [1, 1]}))
        assert cli.main(["validate", str(path)]) == 2
        assert "cannot read space file" in capsys.readouterr().err

    def test_validate_rejects_empty_space(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"n": 0, "dist": [], "mass": []}))
        assert cli.main(["validate", str(path)]) == 1
        assert capsys.readouterr().out == "Shape('no points',)\n"

    def test_validate_non_numeric_count_exits_two(self, tmp_path, capsys):
        path = tmp_path / "object.json"
        path.write_text(json.dumps({"n": [2], "dist": [0, 1, 1, 0], "mass": [1, 1]}))
        assert cli.main(["validate", str(path)]) == 2
        assert "cannot read space file" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [2.9, True], ids=["fractional", "boolean"])
    def test_validate_non_integral_count_exits_two(self, tmp_path, capsys, n):
        # int() would read 2.9 as 2 and true as 1 and accept the file
        path = tmp_path / "count.json"
        path.write_text(json.dumps({"n": n, "dist": [0.0] * int(n) ** 2, "mass": [1.0] * int(n)}))
        assert cli.main(["validate", str(path)]) == 2
        assert "'n' must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 2, "dist": [0, "1", True, 0], "mass": [1, "2"]},
            {"n": 2, "dist": [0, 1, 1, 0], "mass": [1, True]},
            {"n": 2, "dist": [[0, 1], [1, None]], "mass": [1, 1]},
            {"n": 2, "dist": [0, 1, 1, 0], "mass": [1, 10**400]},
        ],
        ids=["string-and-bool", "bool-mass", "nested-null", "past-float"],
    )
    def test_validate_non_numbers_exit_two(self, tmp_path, capsys, doc):
        """float() would read "1" and true as 1.0 and null as NaN."""
        path = tmp_path / "space.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"cannot read space file: {path}: '")

    def test_validate_past_the_byte_bound_exits_two(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "huge.json"
        oversize_space_file(path, monkeypatch)
        assert cli.main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == "cannot read space file: a space file holds at most 436314176 bytes, got 436314177\n"

    @pytest.mark.parametrize("n", [4097, -1])
    def test_validate_past_max_points_exits_two(self, tmp_path, capsys, n):
        """n is checked before the one-entry arrays are reshaped to n x n."""
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"n": n, "dist": [0], "mass": [1]}))
        assert cli.main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"cannot read space file: 'n' must lie in [0, MAX_POINTS = 4096], got {n}\n"

    def test_byte_bound_fits_the_longest_numbers(self, tmp_path):
        """save_space_file spends at most 26 bytes a number (the longest float
        repr and ", ") and 64 on the keys, the budget of the byte bound."""
        n = 3
        dist = np.full((n, n), 2.2250738585072014e-308) * (1.0 - np.eye(n))
        sp = MetricMeasureSpace(dist, np.full(n, 1.2345678901234567e-300))
        save_space_file(sp, str(tmp_path / "space.json"))
        assert {len(repr(v)) for v in (*dist[0, 1:].tolist(), *sp.mass.tolist())} == {23}
        assert os.path.getsize(tmp_path / "space.json") <= (n * n + n) * 26 + 64

    def test_validate_missing_mass_exits_two(self, tmp_path, capsys):
        path = tmp_path / "space.json"
        path.write_text(json.dumps({"n": 1, "dist": [0]}))
        assert cli.main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"cannot read space file: {path}: missing required key 'mass'\n"

    def test_gen_then_validate(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"family": "grid", "n": 4, "dim": 1, "halfwidth": 0.5}))
        out = tmp_path / "space.json"
        assert cli.main(["gen", str(spec), "-o", str(out)]) == 0
        assert cli.main(["validate", str(out)]) == 0
        sp = load_space_file(str(out))
        assert sp.csum0[0, -1] == pytest.approx(1.0, rel=1e-12)

    def test_gen_bad_spec_value_exits_two(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        for bad in ({"seed": "x"}, {"n": None}):
            spec.write_text(json.dumps({"family": "random-points", "n": 4, **bad}))
            assert cli.main(["gen", str(spec), "-o", str(tmp_path / "space.json")]) == 2
            assert capsys.readouterr().err.startswith("config error: spaces[0]:")

    def test_gen_unwritable_output_exits_two(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"family": "grid", "n": 4}))
        out = tmp_path / "missing" / "dir" / "x.json"
        assert cli.main(["gen", str(spec), "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"cannot write space file {out}: ")
        assert not (tmp_path / "missing").exists()


class TestRun:
    def test_exit_zero_and_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, {"output_dir": str(tmp_path / "out")})
        assert cli.main(["--quiet", "run", cfg]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["verdict"]["fail"] == 0
        assert report["verdict"]["errors"] == 0
        assert (tmp_path / "out" / "records.csv").exists()

    def test_single_point_t6_record(self, tmp_path):
        sp_path = tmp_path / "one.json"
        sp_path.write_text(json.dumps({"n": 1, "dist": [0.0], "mass": [0.5]}))
        cfg = write_config(
            tmp_path,
            {
                "spaces": [{"id": "pt", "file": "one.json"}],
                "checks": ["T6"],
                "output_dir": str(tmp_path / "out"),
            },
        )
        assert cli.main(["--quiet", "run", cfg]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        t6 = [r for r in report["records"] if r["check_id"] == "T6"]
        assert len(t6) == 2  # one per function
        for rec in t6:
            assert rec["empirical_constant"] == pytest.approx(1.0, abs=1e-12)

    def test_errored_records_exit_three(self, tmp_path):
        (tmp_path / "nan.json").write_text(json.dumps([1.0, float("nan"), 1.0, 1.0]))
        cfg = write_config(
            tmp_path,
            {
                "functions": [{"id": "nan", "file": "nan.json"}],
                "checks": list(CHECK_IDS),
                "output_dir": str(tmp_path / "out"),
            },
        )
        assert cli.main(["--quiet", "run", cfg]) == 3
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["verdict"] == {"pass": 0, "fail": 0, "errors": 6}
        # every check of the pair shares one Values, and each still raises
        assert [r["check_id"] for r in report["records"]] == list(CHECK_IDS)
        assert len({r["error"] for r in report["records"]}) == 1
        assert "finite" in report["records"][0]["error"]
        with open(tmp_path / "out" / "records.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["error"] for r in rows] == [r["error"] for r in report["records"]]

    def test_csv_quotes_error_text(self):
        buf = io.StringIO()
        cli.write_csv([{"check_id": "T7", "error": 'ValueError: need "q", got q=3, p=2'}], buf)
        (row,) = csv.DictReader(io.StringIO(buf.getvalue()))
        assert row["check_id"] == "T7" and row["error"] == 'ValueError: need "q", got q=3, p=2'

    def test_records_follow_config_order(self):
        raw = dict(BASE_CONFIG, exponents=[[4.0, 2.0, 0.125], [2.0, 1.5, 0.25]], checks=["T6", "T2"])
        report, code = cli.run(parse_config(raw))
        assert code == 0
        assert [(r["function_id"], r["check_id"], r["p"]) for r in expand(report["records"])] == [
            (fid, check, p) for fid in ("const", "rough") for check in ("T6", "T2") for p in (4.0, 2.0)
        ]

    def test_program_errors_are_not_records(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("a bug, not bad input")

        monkeypatch.setattr(cli, "evaluate", broken)
        with pytest.raises(TypeError, match="a bug"):
            cli.run(parse_config(BASE_CONFIG))

    def test_malformed_exponent_exits_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"exponents": [[2.0, 1.5, 0.9]]})
        assert cli.main(["--quiet", "run", cfg]) == 2
        assert "0.9" in capsys.readouterr().err

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        assert cli.main(["--quiet", "run", cfg, "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["--quiet", "run", cfg, "--out", str(tmp_path / "b")]) == 0
        for name in ("report.json", "records.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_seed_override_changes_report(self, tmp_path):
        cfg1 = write_config(tmp_path, {"output_dir": str(tmp_path / "a")}, "c1.json")
        cfg2 = write_config(tmp_path, {"output_dir": str(tmp_path / "b")}, "c2.json")
        assert cli.main(["--quiet", "run", cfg1]) == 0
        assert cli.main(["--quiet", "run", cfg2, "--seed", "6"]) == 0
        a = json.loads((tmp_path / "a" / "report.json").read_text())
        b = json.loads((tmp_path / "b" / "report.json").read_text())
        assert a["environment"]["config_sha256"] != b["environment"]["config_sha256"]

    def test_report_rerenders_csv(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"output_dir": str(out)})
        assert cli.main(["--quiet", "run", cfg]) == 0
        assert cli.main(["report", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert rendered == (out / "records.csv").read_text()

    @pytest.mark.parametrize("content", ["{", "{}", "[]", '{"records": [1]}', '{"records": {}}'])
    def test_report_of_a_malformed_report_exits_two(self, tmp_path, capsys, content):
        """A report.json that is not JSON, or not an object holding a
        ``records`` list of objects, is exit 2 with nothing written."""
        (tmp_path / "report.json").write_text(content)
        assert cli.main(["report", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"cannot read {tmp_path / 'report.json'}: ")

    def test_help_prints_the_first_docstring_paragraph(self, capsys):
        """``--help`` describes the tool in the first paragraph of the
        module docstring, not the writer internals that follow it."""
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        first, rest = cli.__doc__.split("\n\n", 1)
        assert " ".join(first.split()) in out
        assert "write_report" in rest and "write_report" not in out

    def test_unwritable_output_directory_exits_two(self, tmp_path, capsys):
        """An output directory that cannot be made (here an existing file)
        is exit 2, which the README gives to input errors, not 1."""
        (tmp_path / "taken").write_text("")
        assert cli.main(["--quiet", "run", write_config(tmp_path), "--out", str(tmp_path / "taken")]) == 2
        assert capsys.readouterr().err.startswith(f"cannot write report to {tmp_path / 'taken'}: ")
        assert (tmp_path / "taken").read_text() == ""

    def test_estimates_and_sweeps_hold_python_floats(self):
        """The tables' float64 arrays stay in the record blocks: what the
        estimates and sweeps hold is made of Python scalars."""
        checks = [
            *({"estimate": {"check": check, "space": "g4", "restarts": 1, "max_iters": 4}} for check in CHECK_IDS),
            {"sweep": {"alpha": 0.25, "p": 2.0}},
        ]
        report, code = cli.run(parse_config(dict(BASE_CONFIG, checks=checks)))
        assert code == 0

        def leaves(value):
            if isinstance(value, (dict, list)):
                for item in value.values() if isinstance(value, dict) else value:
                    yield from leaves(item)
            else:
                yield value

        for section in ("estimates", "sweeps"):
            values = list(leaves(report[section]))
            assert values and all(type(v) in (str, int, float) for v in values), section
        assert all(type(e["best_ratio"]) is float for e in report["estimates"])
        assert all(type(row["ratio"]) is float for sweep in report["sweeps"] for row in sweep["table"])

    def test_estimate_and_sweep_subcommands(self, tmp_path):
        checks = [
            {"estimate": {"check": "T6", "space": "g4", "restarts": 2, "max_iters": 24}},
            {"sweep": {"alpha": 0.25, "p": 2.0, "kappas": [1.0, 2.0], "function": "rough"}},
        ]
        cfg = write_config(tmp_path, {"checks": checks, "output_dir": str(tmp_path / "out")})
        assert cli.main(["--quiet", "run", cfg]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert len(report["estimates"]) == 1
        assert report["estimates"][0]["best_ratio"] > 0
        assert len(report["sweeps"]) == 1
        kappas = {row["kappa"] for row in report["sweeps"][0]["table"]}
        assert kappas == {1.0, 2.0}

    def test_sweep_of_a_function_file_matches_its_spec(self, tmp_path):
        parsed = parse_config(json.loads(json.dumps(BASE_CONFIG)))
        (_, space_spec), (_, rough_spec) = parsed.spaces[0], parsed.functions[1]
        values = generate_function(generate_space(space_spec), rough_spec)
        (tmp_path / "rough.json").write_text(json.dumps(values.tolist()))
        sweep = {"sweep": {"alpha": 0.25, "p": 2.0, "kappas": [1.0, 1.5, 2.0], "function": "rough"}}
        tables = []
        for name, rough in (("spec", BASE_CONFIG["functions"][1]), ("file", {"id": "rough", "file": "rough.json"})):
            cfg = write_config(tmp_path, {"functions": [rough], "checks": [sweep]}, f"{name}.json")
            assert cli.main(["--quiet", "sweep", cfg, "--out", str(tmp_path / name)]) == 0
            tables.append(json.loads((tmp_path / name / "report.json").read_text())["sweeps"][0]["table"])
        assert len(tables[0]) == 3 and tables[0] == tables[1]


    def test_subcommands_fill_only_their_section(self, tmp_path):
        checks = [
            "T6",
            {"estimate": {"check": "T6", "space": "g4", "restarts": 1, "max_iters": 8}},
            {"sweep": {"alpha": 0.25, "p": 2.0, "kappas": [2.0], "function": "rough"}},
        ]
        cfg = write_config(tmp_path, {"checks": checks})
        filled = {"check": "records", "estimate": "estimates", "sweep": "sweeps"}
        for command, section in filled.items():
            out = tmp_path / command
            assert cli.main(["--quiet", command, cfg, "--out", str(out)]) == 0
            report = json.loads((out / "report.json").read_text())
            for name in filled.values():
                assert bool(report[name]) == (name == section), (command, name)


@pytest.fixture(scope="module")
def corpus_report():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "..", "configs", "corpus.json"), encoding="utf-8") as fh:
        report, code = cli.run(parse_config(json.load(fh)))
    assert code == 0
    return report


def expand(blocks) -> list:
    """The plain rows of record blocks ``(shared, columns)``, with the array
    columns' cells as Python floats and bools; a block without columns is
    one row."""
    rows = []
    for shared, columns in blocks:
        n = len(next(iter(columns.values()))) if columns else 1
        cells = {key: column.tolist() for key, column in columns.items()}
        rows += [{**shared, **{key: column[i] for key, column in cells.items()}} for i in range(n)]
    return rows


def reference_csv(records) -> str:
    """The CSV table built whole in memory, as the writer did before it streamed."""
    columns = [*cli.CSV_COLUMNS, "error"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([cli._fmt(row.get(c, "")) for c in columns] for row in records)
    return buf.getvalue()


def assert_oracle_bytes(report, out_dir):
    """write_report gives the bytes of json.dumps(indent=2) and the in-memory
    CSV, both of the report with its record blocks expanded into rows."""
    write_report(report, str(out_dir))
    rows = expand(report["records"])
    expected = json.dumps(dict(report, records=rows), sort_keys=True, indent=2) + "\n"
    assert (out_dir / "report.json").read_bytes() == expected.encode("utf-8")
    assert (out_dir / "records.csv").read_bytes() == reference_csv(rows).encode("utf-8")


# Error text that looks like the row separators, with quotes, commas, braces,
# a raw newline and characters outside ASCII.
ODD_ERROR = 'need "q", got {q: 3}, p=2 },\n      {"x": "ü∞𝔐"}\t\\ — \u2028 end'

# Nested values for the config, estimates and sweeps of a report: the floats
# and ints JSON prints differently from repr, and strings that hold the
# separators the writer rewrites.
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 2**64]),
    st.text(max_size=8),
    st.sampled_from(['"},{"', "\n", "},\n      {", "\n    },\n    {\n      ", "é\u2028"]),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
FLAT_ROWS = st.lists(
    st.dictionaries(st.sampled_from([*cli.CSV_COLUMNS, "error"]) | st.text(max_size=6), JSON_SCALARS, min_size=1),
    max_size=12,
)

# Values by kind, shared by a block's rows or the cells of a float64 or bool
# column: the values a table of distinct values could confuse (-0.0 == 0.0,
# NaN, True == 1 == 1.0, a float subclass) and strings the CSV must quote,
# the JSON must escape or a writer must not read as a format.
CELLS = {
    "float": st.sampled_from([0.0, -0.0, 1.0, 0.1, 1e-300, 2.5e17, float("nan"), float("inf"), float("-inf")])
    | st.floats(),
    "finite": st.sampled_from([0.0, 1.0, 0.1, 1e-300, -2.5e17]),
    "int": st.sampled_from([0, 1, -1, 2**64]),
    "bool": st.booleans(),
    "float64": st.sampled_from([0.0, -0.0, 1.0, float("nan")]).map(np.float64),
    "str": st.sampled_from(["", "T1", 'a,"b"', "x\ny", "cr\r", "é\u2028𝔐", "%s", "100%", "\\", "\x00"])
    | st.text(max_size=4),
    "none": st.none(),
}
KEYS = st.sampled_from([*cli.CSV_COLUMNS, "error", "%", "%s", "100%%", "ü", "𝔐 key", 'q"t']) | st.text(max_size=4)


@st.composite
def block_rows(draw):
    """Record blocks over one key order: each key is shared by the block's
    rows, with a value of any kind, or a float64 or bool array column."""
    keys = draw(st.lists(KEYS, min_size=1, max_size=5, unique=True))
    blocks = []
    for _ in range(draw(st.integers(1, 4))):
        length = draw(st.integers(1, 12))
        shared, columns = {}, {}
        for key in keys:
            kind = draw(st.sampled_from(sorted(CELLS)))
            if draw(st.booleans()):
                shared[key] = draw(CELLS[kind])
            else:
                kind = "bool" if kind == "bool" else "float"
                columns[key] = np.array(draw(st.lists(CELLS[kind], min_size=length, max_size=length)), dtype=kind)
        blocks.append((shared, columns))
    return blocks


# Doubles that a pool by value would merge (-0.0 == 0.0), that JSON spells
# apart from repr (NaN of either sign or another payload, the infinities), the
# least subnormals, and doubles whose repr and %.17g differ.
NAN_PAYLOAD = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]
DOUBLES = [0.0, -0.0, math.nan, -math.nan, NAN_PAYLOAD, math.inf, -math.inf, 5e-324, -5e-324, 0.1, 1 / 3, 2.5e17]


@st.composite
def array_blocks(draw):
    """Record blocks over one key order whose columns are float64 arrays of
    ``DOUBLES`` and other doubles, or now and then bool arrays; a key is
    shared by a block's rows about one time in four, with a value of one of
    the number kinds."""
    keys = draw(st.lists(KEYS, min_size=1, max_size=4, unique=True))
    blocks = []
    for _ in range(draw(st.integers(1, 5))):
        length = draw(st.integers(0, 10))
        shared, columns = {}, {}
        for key in keys:
            kind = draw(st.integers(0, 5))
            if kind == 0:
                shared[key] = draw(CELLS["float"] | CELLS["int"] | CELLS["bool"])
            elif kind == 1:
                columns[key] = np.array(draw(st.lists(st.booleans(), min_size=length, max_size=length)), dtype=bool)
            else:
                cells = st.lists(st.sampled_from(DOUBLES) | st.floats(), min_size=length, max_size=length)
                columns[key] = np.array(draw(cells), dtype=float)
        blocks.append((shared, columns))
    return blocks


class Recording:
    """A text file that appends the length of each text it writes to
    ``sizes``, shared by the files it wraps, and raises ``OSError`` (no
    space left on the device) for write number ``fail_at`` of them."""

    def __init__(self, fh, sizes: list, fail_at=None):
        self.fh, self.sizes, self.fail_at = fh, sizes, fail_at

    def write(self, text):
        if len(self.sizes) == self.fail_at:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.sizes.append(len(text))
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


class TestWriteReport:
    """report.json and records.csv are written a record block at a time;
    their bytes must stay those of ``json.dumps(report, sort_keys=True,
    indent=2)`` and of the CSV built cell by cell, over the expanded rows."""

    def test_corpus_report(self, corpus_report, tmp_path):
        assert_oracle_bytes(corpus_report, tmp_path)

    def test_errored_run(self, tmp_path, monkeypatch):
        original = cli.evaluate

        def odd(space, f, check, *args):
            if check == "T7":
                raise ValueError(ODD_ERROR)
            return original(space, f, check, *args)

        monkeypatch.setattr(cli, "evaluate", odd)
        report, code = cli.run(parse_config(dict(BASE_CONFIG, checks=["T6", "T7"])))
        assert code == 3 and report["verdict"]["errors"] == 2
        assert_oracle_bytes(report, tmp_path)
        assert "\\u00fc\\u221e\\ud835\\udd10" in (tmp_path / "report.json").read_text()

    def test_estimate_only_run(self, tmp_path):
        checks = [{"estimate": {"check": "T6", "space": "g4", "restarts": 1, "max_iters": 8}}]
        report, code = cli.run(parse_config(dict(BASE_CONFIG, checks=checks)))
        assert code == 0 and report["records"] == [] and report["estimates"]
        assert_oracle_bytes(report, tmp_path)

    @pytest.mark.parametrize(
        "count", [0, 1, cli._WRITE_ROWS - 1, cli._WRITE_ROWS, cli._WRITE_ROWS + 1, 2 * cli._WRITE_ROWS]
    )
    def test_rows_at_batch_edges(self, tmp_path, count):
        """A block is written ``_WRITE_ROWS`` rows at a time, its float64
        array columns pooled by bits, with a row of NaN, -0.0 and a flipped
        flag at either edge of a write."""
        report, _ = cli.run(parse_config(BASE_CONFIG))
        t1 = [block for block in report["records"] if block[0]["check_id"] == "T1"]
        assert len({(tuple(r), tuple(map(type, r.values()))) for r in expand(t1)}) == 1
        shared, columns = t1[0]
        for other in (None, 0, cli._WRITE_ROWS - 1, cli._WRITE_ROWS):
            block = {key: np.resize(column, count) for key, column in columns.items()}
            if other is not None and other < count:
                block["gamma"][other], block["lhs"][other] = math.nan, -0.0
                block["pass"][other] = not block["pass"][other]
            report["records"] = [(shared, block)]
            out = tmp_path / f"other{other}"
            out.mkdir()
            assert_oracle_bytes(report, out)

    def test_percent_in_constant_columns(self, tmp_path, monkeypatch):
        """A value shared by a block's rows is written into its fixed texts,
        where a ``%`` is plain text."""
        original = cli.evaluate

        def odd(space, f, check, *args):
            if check == "T7":
                raise ValueError("100% of %s, %(x)d and %% fail")
            return original(space, f, check, *args)

        monkeypatch.setattr(cli, "evaluate", odd)
        spaces = [dict(BASE_CONFIG["spaces"][0], id="50%")]
        report, code = cli.run(parse_config(dict(BASE_CONFIG, spaces=spaces, checks=["T1", "T6", "T7"])))
        assert code == 3 and report["verdict"]["errors"] == 2
        assert_oracle_bytes(report, tmp_path)
        for shared, columns in report["records"]:
            json_row, csv_row = cli._block_rows(shared, columns)
            assert '\n      "space_id": "50%",' in "".join(json_row[::2])
            assert csv_row[0].startswith(shared["check_id"] + ",50%,")
        assert len(json_row) == 1 and '"error": "ValueError: 100% of %s' in json_row[0]

    @pytest.mark.parametrize("edge", [cli._WRITE_ROWS - 1, cli._WRITE_ROWS, cli._WRITE_ROWS + 1])
    def test_column_constant_in_one_run_varying_in_the_next(self, tmp_path, edge):
        """Blocks of ``_WRITE_ROWS`` rows whose float64 columns hold one
        value in one block and vary in the next, on either side of the block
        edge: each block formats its own doubles."""
        report, _ = cli.run(parse_config(BASE_CONFIG))
        t1 = [r for r in expand(report["records"]) if r["check_id"] == "T1"]
        size = cli._WRITE_ROWS
        kinds = {key: column.dtype for key, column in report["records"][0][1].items()}
        assert kinds == {"gamma": float, "lhs": float, "rhs_without_constant": float, "empirical_constant": float, "pass": bool}

        def block(k, rows):  # as the run keeps it: str and scalar keys shared, the table's columns arrays
            shared = {key: v for key, v in rows[0].items() if key not in kinds}
            return dict(shared, function_id=f"f{k}%"), {key: np.array([r[key] for r in rows], kinds[key]) for key in kinds}

        for name, varies in (("forward", lambda i: i >= edge), ("backward", lambda i: i < edge)):
            rows = [dict(t1[i % len(t1)], lhs=i / 7) if varies(i) else t1[0] for i in range(2 * size)]
            blocks = [block(k, rows[k * size : (k + 1) * size]) for k in range(2)]
            csv_rows = [cli._block_rows(*b)[1] for b in blocks]  # function_id in the first fixed text, lhs after gamma
            one_text = [not any(map(varies, range(k * size, (k + 1) * size))) for k in range(2)]
            assert [row[0].split(",")[2] for row in csv_rows] == ["f0%", "f1%"]
            assert [len(set(row[3])) == 1 for row in csv_rows] == one_text
            assert [len(row[3]) for row in csv_rows] == [size, size]
            report["records"] = blocks
            out = tmp_path / name
            out.mkdir()
            assert_oracle_bytes(report, out)

    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(
        config=JSON_VALUES,
        estimates=JSON_VALUES,
        sweeps=JSON_VALUES,
        records=FLAT_ROWS,
    )
    # The rows go in at the top-level "records" key alone: a nested
    # "records": [] and strings holding that key's text stay where they are.
    @example(
        config={"nested": {"records": []}, "note": '\n  "records": []', "records": []},
        estimates=[{"check_id": '\n  "records": []', "records": []}],
        sweeps={"records": [[]]},
        records=[{"check_id": "T1", "error": '\n  "records": []'}, {"records": []}],
    )
    def test_random_report_sections(self, tmp_path_factory, config, estimates, sweeps, records):
        """Arbitrary nested sections, and plain rows as one-row blocks."""
        report = {
            "config": config,
            "environment": {"tool_version": "x"},
            "estimates": estimates,
            "records": [(row, {}) for row in records],
            "sweeps": sweeps,
            "verdict": {"pass": 2**80, "fail": 0, "errors": -1},
        }
        assert_oracle_bytes(report, tmp_path_factory.mktemp("out"))

    @settings(derandomize=True, deadline=None, max_examples=80, database=None)
    @given(blocks=block_rows(), batch=st.integers(1, 8))
    @example(blocks=[({}, {"lhs": np.array([0.0, -0.0, 0.0])})], batch=256)
    @example(blocks=[({"%": "100%"}, {"x": np.array([True, False, True])})], batch=256)
    @example(blocks=[({}, {"x": np.array([1.0, float("nan"), float("inf"), np.float64(-0.0)])})], batch=256)
    @example(blocks=[({}, {"x": np.array([1.0, float("-inf"), 1.0])}), ({"x": 1.0}, {"y": np.array([])})], batch=256)
    # A varying column first and last in each file's order (alpha and
    # theory_constant in JSON, check_id and error in CSV), varying columns
    # next to each other, and blocks whose every column is one value.
    @example(blocks=[({"check_id": "T1", "lhs": 0.5}, {"alpha": np.array([0.25, 0.5]), "theory_constant": np.array([4.0, 2.0])})], batch=1)
    @example(blocks=[({"alpha": 0.25, "kappa": 2.0}, {"check_id": np.array([True, False, True]), "error": np.array([0.5, -0.0, 0.5])})], batch=2)
    @example(blocks=[({"check_id": "T1"}, {"lhs": np.array([0.5, 1.0, 2.0]), "rhs_without_constant": np.array([1.0, 2.0, 0.5])})], batch=2)
    @example(blocks=[({"check_id": "T1", "lhs": 0.5}, {}), ({"check_id": "T3"}, {"lhs": np.array([1.0, 1.0, 1.0])})], batch=2)
    @example(blocks=[({}, {}), ({"x": 1.0}, {})], batch=256)  # a record with no key prints as {}
    def test_block_shaped_rows(self, tmp_path_factory, blocks, batch):
        """Blocks with shared values of every kind and float64 and bool
        columns, written at every cap from 1 to 8 rows; a block of empty
        columns has no rows.  A row is its fixed texts with the varying
        columns' texts between them."""
        report = {"config": {}, "records": blocks, "verdict": {}}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_WRITE_ROWS", batch)
            assert_oracle_bytes(report, tmp_path_factory.mktemp("out"))

    def test_array_columns_pool_doubles_by_bits(self, tmp_path):
        """Float64 array columns holding -0.0 beside 0.0, NaNs, both
        infinities and the least subnormals, with 0.1 and -0.0 in two
        blocks: the bytes are the oracles', and -0.0 keeps its sign."""
        first = {"lhs": np.array([0.0, -0.0, 0.1, 0.0]), "gamma": np.array([math.nan, -math.nan, NAN_PAYLOAD, math.inf])}
        second = {"lhs": np.array([-math.inf, 5e-324, -5e-324, 0.1, -0.0]), "pass": np.array([True, False, True, True, False])}
        blocks = [({"check_id": "T1"}, first), ({"check_id": "T3"}, second), ({"check_id": "T6"}, {"lhs": np.array([])})]
        assert_oracle_bytes({"records": blocks}, tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        assert [r["lhs"] for r in report["records"][:4]] == [0.0, -0.0, 0.1, 0.0]
        assert [math.copysign(1.0, r["lhs"]) for r in report["records"][:4]] == [1.0, -1.0, 1.0, 1.0]

    def test_shared_values_keep_type_and_sign(self, tmp_path):
        """A shared value has one exact text per file: a float zero never
        takes the text of its sign twin, nor 1 or True that of 1.0."""
        values = [0.0, -0.0, 0, False, 0.0, -0.0, 1, True, 1.0, math.nan, -math.inf, math.inf, "0.0", None, -0.0, np.float64(-0.0), np.float64(0.0)]
        blocks = [({"check_id": "T2", "kappa": v}, {"lhs": np.array([v if type(v) is float else 1.0])}) for v in values]
        assert_oracle_bytes({"records": blocks}, tmp_path)
        rows = [cli._block_rows(*block) for block in blocks]  # kappa sits in the first fixed texts
        assert [json_row[0].split('"kappa": ')[1] for json_row, _ in rows] == [f'{json.dumps(v)},\n      "lhs": ' for v in values]
        assert [csv_row[0].split(",", 8)[8] for _, csv_row in rows] == [cli._csv_field(cli._fmt(v)) + ",," for v in values]

    @settings(derandomize=True, deadline=None, max_examples=60, database=None)
    @given(blocks=array_blocks(), batch=st.integers(1, 8))
    @example(blocks=[({}, {"x": np.array([0.0, -0.0])}), ({"y": -0.0}, {"x": np.array([-0.0, 0.0, math.nan])})], batch=1)
    @example(blocks=[({}, {"x": np.array([math.inf, -math.inf, -math.nan])}), ({}, {"x": np.array([])})], batch=2)
    def test_array_blocks(self, tmp_path_factory, blocks, batch):
        """Blocks of float64 array columns, written 1 to 8 rows at a time,
        give the oracles' bytes."""
        report = {"config": {}, "records": blocks, "verdict": {}}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_WRITE_ROWS", batch)
            assert_oracle_bytes(report, tmp_path_factory.mktemp("out"))

    @pytest.mark.parametrize(
        "column",
        [[0.5, 1.0], [True, False], np.array([1, 2]), np.array([0.5, 1.0], dtype=np.float32), np.array(["T1", "T3"])],
        ids=["float-list", "bool-list", "int64-array", "float32-array", "str-array"],
    )
    def test_other_columns_are_rejected(self, tmp_path, column):
        """A block's columns are float64 or bool arrays; anything else is a
        ``TypeError``."""
        blocks = [({"check_id": "T1"}, {"lhs": np.array([0.5, 1.0]), "gamma": column})]
        with pytest.raises(TypeError, match="float64 or bool arrays"):
            write_report({"records": blocks}, str(tmp_path))

    def test_report_command_rerenders_corpus_csv(self, corpus_report, tmp_path, capsys):
        write_report(corpus_report, str(tmp_path))
        capsys.readouterr()
        assert cli.main(["report", str(tmp_path)]) == 0
        assert capsys.readouterr().out.encode("utf-8") == (tmp_path / "records.csv").read_bytes()

    @staticmethod
    def write_sizes(report, out_dir, monkeypatch) -> list:
        """The length of each text ``write_report`` writes, to either file."""
        sizes = []
        with monkeypatch.context() as m:
            m.setattr(cli, "open", lambda *a, **k: Recording(open(*a, **k), sizes), raising=False)
            write_report(report, str(out_dir))
        total = (out_dir / "report.json").stat().st_size + (out_dir / "records.csv").stat().st_size
        assert sum(sizes) == total
        return sizes

    @staticmethod
    def earlier_run(out_dir, earlier: bool) -> dict:
        """The files of ``out_dir``, by name, after a run of check T6 alone
        was written there, or none if not ``earlier``."""
        if earlier:
            write_report(cli.run(parse_config(dict(BASE_CONFIG, checks=["T6"])))[0], str(out_dir))
        return {path.name: path.read_bytes() for path in out_dir.iterdir()}

    @pytest.mark.parametrize("earlier", [True, False], ids=["over-an-earlier-run", "into-an-empty-dir"])
    def test_block_failing_mid_write_leaves_earlier_files(self, tmp_path, monkeypatch, earlier):
        """A block whose column is a list raises ``TypeError`` after the
        blocks before it are written: the directory holds the earlier run's
        bytes, or nothing."""
        before = self.earlier_run(tmp_path, earlier)
        report, _ = cli.run(parse_config(BASE_CONFIG))
        report["records"].append(({"check_id": "T1"}, {"lhs": [0.5]}))
        sizes = []
        monkeypatch.setattr(cli, "open", lambda *a, **k: Recording(open(*a, **k), sizes), raising=False)
        with pytest.raises(TypeError, match="float64 or bool arrays"):
            write_report(report, str(tmp_path))
        assert sum(sizes) > len(json.dumps(expand(report["records"][:-2]), indent=2))
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("earlier", [True, False], ids=["over-an-earlier-run", "into-an-empty-dir"])
    def test_write_error_leaves_earlier_files(self, tmp_path, monkeypatch, earlier):
        """A ``write`` that raises ``OSError`` (a full disk) part way: the
        error reaches the caller, and the directory holds the earlier run's
        bytes, or nothing."""
        before = self.earlier_run(tmp_path, earlier)
        report, _ = cli.run(parse_config(BASE_CONFIG))
        sizes = []
        monkeypatch.setattr(cli, "open", lambda *a, **k: Recording(open(*a, **k), sizes, fail_at=8), raising=False)
        with pytest.raises(OSError, match="No space left"):
            write_report(report, str(tmp_path))
        assert len(sizes) == 8
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before

    def test_writes_are_bounded(self, corpus_report, tmp_path, monkeypatch):
        """The writer streams: no single write holds the whole 6.9 MB report."""
        sizes = self.write_sizes(corpus_report, tmp_path, monkeypatch)
        assert sum(sizes) > 6_000_000
        assert max(sizes) <= 1 << 20

    def test_one_large_block_is_written_in_pieces(self, tmp_path, monkeypatch):
        """One T1 table whose rows print to more than 1 MiB is still written
        ``_WRITE_ROWS`` rows at a time."""
        raw = dict(BASE_CONFIG, functions=BASE_CONFIG["functions"][1:], checks=["T1"])
        report, code = cli.run(parse_config(dict(raw, gamma_grid={"count": 400})))
        assert code == 0 and len(report["records"]) == 1
        assert len(json.dumps(expand(report["records"]), indent=2)) > 1 << 20
        assert max(self.write_sizes(report, tmp_path, monkeypatch)) <= 1 << 20
        assert_oracle_bytes(report, tmp_path)


class TestSharedWork:
    def run_counted(self, monkeypatch, with_sweep):
        """cli.run on the corpus string checks (and its sweep) with the calls
        of enumerate_balls and the three shared operators counted per space."""
        from morrey_lab import extremal, functions, operators, theorems

        calls = {"enumerate_balls": [], "maximal": [], "fractional_integral": [], "morrey_norm": []}
        with monkeypatch.context() as m:
            for name in calls:
                original = getattr(theorems, name)

                def counted(space, *args, _name=name, _original=original, **kwargs):
                    calls[_name].append(id(space))
                    return _original(space, *args, **kwargs)

                for module in (functions, operators, theorems, extremal, cli):
                    if getattr(module, name, None) is original:
                        m.setattr(module, name, counted)

            cfg = self.corpus_config(with_sweep)
            report, code = cli.run(cfg)
        assert code == 0 and report["verdict"]["errors"] == 0
        assert len(report["sweeps"]) == int(with_sweep)
        return cfg, calls

    @staticmethod
    def corpus_config(with_sweep):
        """The shipped corpus config with its string checks, and its sweep if asked."""
        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "..", "configs", "corpus.json"), encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["checks"] = [c for c in raw["checks"] if isinstance(c, str) or (with_sweep and "sweep" in c)]
        return parse_config(raw)

    def test_plain_checks_share_balls_and_operators(self, monkeypatch):
        """Balls are enumerated once per space, and M_2|f|, each I_alpha|f|
        and each Morrey norm once per (space, function): one call per
        distinct value, for all checks and the kappa sweep together."""
        cfg, calls = self.run_counted(monkeypatch, with_sweep=True)
        n_spaces, n_functions, n_exps = len(cfg.spaces), len(cfg.functions), len(cfg.exponents)
        assert (n_spaces, n_functions, n_exps) == (3, 5, 2)
        assert len(calls["enumerate_balls"]) == len(set(calls["enumerate_balls"])) == n_spaces
        # M_2|f|: one per pair
        assert len(calls["maximal"]) == 15
        # I_alpha|f| at kappa 2 per (pair, triple), plus the sweep's function
        # on each space at the two kappas other than 2
        assert len(calls["fractional_integral"]) == 30 + 6
        # per (pair, triple): the (p,1,2) and (p,q,2) norms of f, T6's norm
        # of I_alpha|f| and T7's norm of M_2|f|
        assert len(calls["morrey_norm"]) == 120
        for space_id in set(calls["enumerate_balls"]):
            assert calls["maximal"].count(space_id) == n_functions
            assert calls["morrey_norm"].count(space_id) == n_functions * 4 * n_exps

    @pytest.mark.parametrize(
        "checks,per_space",
        [(["T1", "T3", {"estimate": {"check": "T1", "restarts": 1, "max_iters": 4}}], 1), (["T2", "T6", "T7", "weakL1"], 0)],
        ids=["ball-checks-and-estimate", "no-ball-check"],
    )
    def test_balls_enumerated_once_per_space(self, monkeypatch, checks, per_space):
        """The T1 and T3 records and a T1 estimate on the first space, made
        with the run's seed, share the space's one ball sample; a run without
        T1 or T3 samples none."""
        from morrey_lab import theorems

        calls, original = [], theorems.enumerate_balls

        def counted(space, *args, **kwargs):
            calls.append(id(space))
            return original(space, *args, **kwargs)

        monkeypatch.setattr(theorems, "enumerate_balls", counted)
        raw = dict(BASE_CONFIG, spaces=[*BASE_CONFIG["spaces"], {"id": "t2", "family": "ultrametric-tree", "depth": 2}])
        cfg = parse_config(dict(raw, checks=checks))
        report, _ = cli.run(cfg)
        assert report["verdict"]["errors"] == 0 and len(report["estimates"]) == len(cfg.estimates)
        assert len(calls) == len(set(calls)) == per_space * len(cfg.spaces)

    def test_sweep_reuses_the_checks_values(self, monkeypatch):
        _, plain = self.run_counted(monkeypatch, with_sweep=False)
        _, swept = self.run_counted(monkeypatch, with_sweep=True)
        # the sweep's kappa = 2 column and its M_2|f| and norm come from T2
        assert len(swept["maximal"]) == len(plain["maximal"])
        assert len(swept["morrey_norm"]) == len(plain["morrey_norm"])
        assert len(swept["fractional_integral"]) - len(plain["fractional_integral"]) == 6


    def test_run_reaches_the_public_checks(self, monkeypatch):
        """``cli.run`` calls each check through its public name in
        ``theorems``, where a wrapper sees every call, and each call builds
        one ``CheckReport``, which becomes one record block: 165 reports for
        the corpus's 17,765 rows."""
        from morrey_lab import theorems

        calls = {name: 0 for name in dir(theorems) if name.startswith("check_")}
        assert len(calls) == len(CHECK_IDS)
        for name in calls:

            def counted(*args, _name=name, _original=getattr(theorems, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(theorems, name, counted)
        built = []

        def counted_report(*fields, _original=theorems.CheckReport):
            built.append(fields[0])
            return _original(*fields)

        monkeypatch.setattr(theorems, "CheckReport", counted_report)
        report, code = cli.run(self.corpus_config(with_sweep=False))
        assert code == 0
        assert calls == {
            "check_T1_weak_maximal": 30,
            "check_T2_hedberg": 30,
            "check_T3_weak_frac": 30,
            "check_T6_strong": 30,
            "check_T7_maximal_morrey": 30,
            "check_weak_L1": 15,
        }
        assert len(built) == len(report["records"]) == 165
        assert [shared["check_id"] for shared, _ in report["records"]] == built

    def test_run_keeps_one_block_per_table(self, corpus_report):
        """The run keeps each check call's table as one record block: one per
        (space, function, check, exponent triple), one per weakL1 pair, and
        the varying columns are the table's columns: float64 arrays, and a
        bool array of the pass flags."""
        cfg = corpus_report["config"]
        pairs = len(cfg["spaces"]) * len(cfg["functions"])
        per_pair = [check for check in cfg["checks"] if isinstance(check, str)]
        assert len(corpus_report["records"]) == pairs * (len(cfg["exponents"]) * (len(per_pair) - 1) + 1) == 165
        rows = 0
        for shared, columns in corpus_report["records"]:
            assert set(columns) >= {"lhs", "rhs_without_constant", "empirical_constant"}
            assert not set(shared) & set(columns)
            for key, column in columns.items():
                assert type(column) is np.ndarray and column.dtype == (bool if key == "pass" else np.float64)
                assert column.ndim == 1
            (length,) = {len(column) for column in columns.values()}
            rows += length
        assert rows == len(expand(corpus_report["records"])) == 17765

    def test_verdict_is_a_recount_of_the_records(self, tmp_path, monkeypatch):
        """The verdict is counted per table as the records are built; it must
        equal a count over the records, with passes, failures and errors."""
        from morrey_lab import theorems

        (tmp_path / "nan.json").write_text(json.dumps([1.0, float("nan"), 1.0, 1.0]))
        functions = [*BASE_CONFIG["functions"], {"id": "nan", "file": "nan.json"}]
        monkeypatch.setattr(theorems, "hedberg_constant", lambda p, alpha: 0.0)  # every nonzero T2 row fails
        report, code = cli.run(parse_config(dict(BASE_CONFIG, functions=functions)), base_dir=str(tmp_path))
        records = expand(report["records"])
        recount = {
            "pass": sum(r["pass"] is True for r in records),
            "fail": sum(r["pass"] is False for r in records),
            "errors": sum("error" in r for r in records),
        }
        assert report["verdict"] == recount and code == 1
        assert recount["pass"] > 0 and recount["fail"] == 2 and recount["errors"] == len(CHECK_IDS)


def _builtin(name):
    return importlib.util.find_spec(name) is not None


class TestBuiltinHashes:
    """A run hashes with CPython's built-in BLAKE2b and SHA-256 modules:
    ``hashlib`` would also load OpenSSL's libcrypto, about a tenth of a
    run's peak RSS.  The digests are hashlib's."""

    @pytest.mark.skipif(
        not _builtin("_blake2") or not (_builtin("_sha2") or _builtin("_sha256")),
        reason="this interpreter lacks the built-in hash modules; a run falls back to hashlib",
    )
    def test_run_does_not_load_openssl(self, tmp_path):
        """``python -m morrey_lab.cli --quiet run`` in a fresh interpreter
        leaves ``_hashlib`` out of ``sys.modules`` to the end."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        cfg = write_config(tmp_path, {"output_dir": str(tmp_path / "out")})
        code = (
            "import atexit, runpy, sys\n"
            "atexit.register(lambda: print('_hashlib' in sys.modules))\n"
            f"sys.argv = ['morrey-lab', '--quiet', 'run', {cfg!r}]\n"
            "runpy.run_module('morrey_lab.cli', run_name='__main__', alter_sys=True)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
        assert (tmp_path / "out" / "report.json").exists()

    def test_config_sha256_is_hashlib_sha256(self):
        report, _ = cli.run(parse_config(BASE_CONFIG))
        want = hashlib.sha256(json.dumps(BASE_CONFIG, sort_keys=True).encode()).hexdigest()
        assert report["environment"]["config_sha256"] == want


class TestShippedCorpus:
    def test_corpus_config_passes(self, tmp_path):
        here = os.path.dirname(os.path.abspath(__file__))
        cfg_path = os.path.join(here, "..", "configs", "corpus.json")
        assert cli.main(["--quiet", "run", cfg_path, "--out", str(tmp_path / "out")]) == 0
