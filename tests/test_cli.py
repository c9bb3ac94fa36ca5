import json
import os

import numpy as np
import pytest

from morrey_lab import cli
from morrey_lab.cli import ConfigError, load_space_file, parse_config, save_space_file
from morrey_lab.generators import SpaceSpec, generate_space

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

    def test_gen_then_validate(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"family": "grid", "n": 4, "dim": 1, "halfwidth": 0.5}))
        out = tmp_path / "space.json"
        assert cli.main(["gen", str(spec), "-o", str(out)]) == 0
        assert cli.main(["validate", str(out)]) == 0
        sp = load_space_file(str(out))
        assert sp.total_mass == pytest.approx(1.0, rel=1e-12)


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


class TestSharedWork:
    def test_plain_checks_share_balls_and_operators(self, monkeypatch):
        """Balls are enumerated once per space, and M_2 and I_alpha run a
        bounded number of times per (space, function), not once per ball."""
        from morrey_lab import extremal, operators, theorems

        calls = {"enumerate_balls": [], "maximal": [], "fractional_integral": []}
        for name in calls:
            original = getattr(theorems, name)

            def counted(space, *args, _name=name, _original=original, **kwargs):
                calls[_name].append(id(space))
                return _original(space, *args, **kwargs)

            for module in (operators, theorems, extremal, cli):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)

        here = os.path.dirname(os.path.abspath(__file__))
        with open(os.path.join(here, "..", "configs", "corpus.json"), encoding="utf-8") as fh:
            raw = json.load(fh)
        raw["checks"] = [c for c in raw["checks"] if isinstance(c, str)]
        cfg = parse_config(raw)
        report, code = cli.run(cfg)
        assert code == 0 and report["verdict"]["errors"] == 0

        n_spaces, n_functions, n_exps = len(cfg.spaces), len(cfg.functions), len(cfg.exponents)
        assert len(calls["enumerate_balls"]) == n_spaces
        assert len(set(calls["enumerate_balls"])) == n_spaces
        assert calls["maximal"] and calls["fractional_integral"]
        for space_id in set(calls["enumerate_balls"]):
            # T1 and weakL1: once each per function, plus weakL1's checker;
            # T2 and T7: once per exponent triple
            assert calls["maximal"].count(space_id) <= n_functions * (3 + 2 * n_exps)
            # T2, T3 and T6: once per exponent triple
            assert calls["fractional_integral"].count(space_id) <= n_functions * 3 * n_exps


class TestShippedCorpus:
    def test_corpus_config_passes(self, tmp_path):
        here = os.path.dirname(os.path.abspath(__file__))
        cfg_path = os.path.join(here, "..", "configs", "corpus.json")
        assert cli.main(["--quiet", "run", cfg_path, "--out", str(tmp_path / "out")]) == 0
