"""Batch front end: declarative experiment configs in, deterministic
reports out.

A config names spaces, functions, exponent triples and checks; ``run``
executes everything and writes one hierarchical report (JSON) plus a flat
CSV table.  Report bytes are a pure function of (config, seed, tool
version): records are merged in canonical order, numbers are printed with
17 significant digits, and logging goes to stderr only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import __version__, rng
from .extremal import OptimizerConfig, estimate_constant, kappa_sweep
from .functions import ExponentOutOfRange, ExponentSet
from .generators import FunctionSpec, InvalidSpec, SpaceSpec, generate_function, generate_space
from .space import MetricMeasureSpace, find_violations, validate_space
from .theorems import BALL_CHECKS, CHECK_IDS, enumerate_balls, evaluate

CSV_COLUMNS = [
    "check_id",
    "space_id",
    "function_id",
    "p",
    "q",
    "alpha",
    "s",
    "t",
    "kappa",
    "gamma",
    "lhs",
    "rhs_without_constant",
    "empirical_constant",
    "theory_constant",
    "pass",
]


class ConfigError(ValueError):
    pass


def _take(raw: dict, context: str, required: tuple, optional: dict) -> dict:
    """Pull keys out of a config mapping; unknown keys are an error."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{context}: expected a mapping, got {type(raw).__name__}")
    unknown = set(raw) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    out = {}
    for key in required:
        if key not in raw:
            raise ConfigError(f"{context}: missing required key {key!r}")
        out[key] = raw[key]
    for key, default in optional.items():
        out[key] = raw.get(key, default)
    return out


@dataclass(frozen=True)
class EstimateRequest:
    check: str
    space: str
    exponent: int
    optimizer: OptimizerConfig


@dataclass(frozen=True)
class SweepRequest:
    alpha: float
    p: float
    kappas: tuple
    function: str


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    spaces: list  # (id, SpaceSpec | path)
    functions: list  # (id, FunctionSpec | path)
    exponents: list  # ExponentSet
    checks: list  # check id strings
    estimates: list  # EstimateRequest
    sweeps: list  # SweepRequest
    gamma_lo: float
    gamma_hi: float
    gamma_count: int
    output_dir: str
    raw: dict


def _parse_space_entry(raw, index, default_seed):
    ent = _take(
        raw,
        f"spaces[{index}]",
        (),
        {
            "id": f"space{index}",
            "file": None,
            "family": None,
            "n": 16,
            "dim": 1,
            "beta": 0.0,
            "halfwidth": 1.0,
            "depth": 3,
            "seed": None,
        },
    )
    sid = str(ent["id"])
    if ent["file"] is not None:
        return sid, str(ent["file"])
    if ent["family"] is None:
        raise ConfigError(f"spaces[{index}]: need either 'file' or 'family'")
    seed = default_seed if ent["seed"] is None else int(ent["seed"])
    try:
        spec = SpaceSpec(
            family=str(ent["family"]),
            n=int(ent["n"]),
            dim=int(ent["dim"]),
            beta=float(ent["beta"]),
            halfwidth=float(ent["halfwidth"]),
            depth=int(ent["depth"]),
            seed=seed,
        )
    except InvalidSpec as exc:
        raise ConfigError(f"spaces[{index}]: {exc}") from exc
    return sid, spec


def _parse_function_entry(raw, index, default_seed):
    ent = _take(
        raw,
        f"functions[{index}]",
        (),
        {
            "id": f"fn{index}",
            "file": None,
            "family": None,
            "value": 1.0,
            "center": 0,
            "radius": 0.0,
            "beta": 1.0,
            "cap": 100.0,
            "density": 0.25,
            "seed": None,
        },
    )
    fid = str(ent["id"])
    if ent["file"] is not None:
        return fid, str(ent["file"])
    if ent["family"] is None:
        raise ConfigError(f"functions[{index}]: need either 'file' or 'family'")
    seed = default_seed if ent["seed"] is None else int(ent["seed"])
    try:
        spec = FunctionSpec(
            family=str(ent["family"]),
            value=float(ent["value"]),
            center=int(ent["center"]),
            radius=float(ent["radius"]),
            beta=float(ent["beta"]),
            cap=float(ent["cap"]),
            density=float(ent["density"]),
            seed=seed,
        )
    except InvalidSpec as exc:
        raise ConfigError(f"functions[{index}]: {exc}") from exc
    return fid, spec


def parse_config(raw: dict) -> ExperimentConfig:
    top = _take(
        raw,
        "config",
        ("spaces", "functions", "exponents", "checks"),
        {
            "seed": 0,
            "gamma_grid": {"lo": 1e-3, "hi": 1e3, "count": 25},
            "output_dir": "morrey-lab-out",
        },
    )
    seed = int(top["seed"])
    spaces = [_parse_space_entry(s, i, rng.u64(seed, 1, i) >> 1) for i, s in enumerate(top["spaces"])]
    functions = [
        _parse_function_entry(f, i, rng.u64(seed, 2, i) >> 1) for i, f in enumerate(top["functions"])
    ]
    exponents = []
    for i, triple in enumerate(top["exponents"]):
        if not (isinstance(triple, (list, tuple)) and len(triple) == 3):
            raise ConfigError(f"exponents[{i}]: expected a [p, q, alpha] triple, got {triple!r}")
        try:
            exponents.append(ExponentSet.from_pqa(*(float(v) for v in triple)))
        except ExponentOutOfRange as exc:
            raise ConfigError(f"exponents[{i}] {list(triple)}: {exc}") from exc

    checks, estimates, sweeps = [], [], []
    for i, item in enumerate(top["checks"]):
        if isinstance(item, str):
            if item not in CHECK_IDS:
                raise ConfigError(f"checks[{i}]: unknown check id {item!r}")
            checks.append(item)
        elif isinstance(item, dict) and set(item) == {"estimate"}:
            ent = _take(
                item["estimate"],
                f"checks[{i}].estimate",
                ("check",),
                {
                    "space": None,
                    "exponent": 0,
                    "restarts": 8,
                    "max_iters": 2000,
                    "step_init": 1.5,
                    "step_decay": 0.9,
                    "stop_tol": 1e-6,
                },
            )
            if ent["check"] not in CHECK_IDS:
                raise ConfigError(f"checks[{i}].estimate: unknown check id {ent['check']!r}")
            estimates.append(
                EstimateRequest(
                    check=ent["check"],
                    space=str(ent["space"]) if ent["space"] is not None else spaces[0][0],
                    exponent=int(ent["exponent"]),
                    optimizer=OptimizerConfig(
                        seed=seed,
                        restarts=int(ent["restarts"]),
                        max_iters=int(ent["max_iters"]),
                        step_init=float(ent["step_init"]),
                        step_decay=float(ent["step_decay"]),
                        stop_tol=float(ent["stop_tol"]),
                    ),
                )
            )
        elif isinstance(item, dict) and set(item) == {"sweep"}:
            ent = _take(
                item["sweep"],
                f"checks[{i}].sweep",
                ("alpha", "p"),
                {"kappas": [1.0, 1.5, 2.0], "function": None},
            )
            sweeps.append(
                SweepRequest(
                    alpha=float(ent["alpha"]),
                    p=float(ent["p"]),
                    kappas=tuple(float(k) for k in ent["kappas"]),
                    function=str(ent["function"]) if ent["function"] is not None else functions[0][0],
                )
            )
        else:
            raise ConfigError(f"checks[{i}]: expected a check id or an estimate/sweep request")

    if not spaces or not functions or not (checks or estimates or sweeps):
        raise ConfigError("config needs at least one space, one function and one check")
    gg = _take(top["gamma_grid"], "gamma_grid", (), {"lo": 1e-3, "hi": 1e3, "count": 25})
    return ExperimentConfig(
        seed=seed,
        spaces=spaces,
        functions=functions,
        exponents=exponents,
        checks=checks,
        estimates=estimates,
        sweeps=sweeps,
        gamma_lo=float(gg["lo"]),
        gamma_hi=float(gg["hi"]),
        gamma_count=int(gg["count"]),
        output_dir=str(top["output_dir"]),
        raw=raw,
    )


# ---------------------------------------------------------------------------
# space / function file IO


def _read_space_doc(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The (dist, mass) arrays of a space file, not yet validated."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    ent = _take(doc, path, ("n", "dist", "mass"), {})
    n = int(ent["n"])
    return np.asarray(ent["dist"], dtype=float).reshape(n, n), np.asarray(ent["mass"], dtype=float)


def load_space_file(path: str) -> MetricMeasureSpace:
    return validate_space(*_read_space_doc(path))


def save_space_file(space: MetricMeasureSpace, path: str):
    doc = {
        "n": space.n,
        "dist": [float(v) for v in space.dist.ravel()],
        "mass": [float(v) for v in space.mass],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_function_file(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        return np.asarray(json.load(fh), dtype=float)


# ---------------------------------------------------------------------------
# run


def _report_to_row(rep, space_id, function_id, extra=None):
    row = {c: "" for c in CSV_COLUMNS}
    row.update(
        {
            "check_id": rep.check_id,
            "space_id": space_id,
            "function_id": function_id,
            "lhs": rep.lhs,
            "rhs_without_constant": rep.rhs_without_constant,
            "empirical_constant": rep.empirical_constant,
        }
    )
    for key in ("p", "q", "alpha", "s", "t", "gamma"):
        if key in rep.params:
            row[key] = rep.params[key]
    if rep.theory_constant is not None:
        row["theory_constant"] = rep.theory_constant
        row["pass"] = bool(rep.passed)
    if extra:
        row.update(extra)
    return row


def _error_row(check_id, space_id, function_id, error):
    row = {c: "" for c in CSV_COLUMNS}
    row.update({"check_id": check_id, "space_id": space_id, "function_id": function_id, "error": error})
    return row


def _pair_records(space, space_id, f, function_id, balls, cfg: ExperimentConfig):
    """All requested check records for one (space, function) pair."""
    rows = []
    for check in cfg.checks:
        try:
            reports = evaluate(space, f, check, cfg.exponents, balls, cfg.gamma_lo, cfg.gamma_hi, cfg.gamma_count)
        except Exception as exc:  # surfaced per record, run continues
            rows.append(_error_row(check, space_id, function_id, f"{type(exc).__name__}: {exc}"))
            continue
        rows.extend(_report_to_row(rep, space_id, function_id, {"kappa": 2.0}) for rep in reports)
    return rows


def _materialize_spaces(cfg: ExperimentConfig, base_dir: str):
    out = []
    for sid, spec in cfg.spaces:
        if isinstance(spec, str):
            path = spec if os.path.isabs(spec) else os.path.join(base_dir, spec)
            out.append((sid, load_space_file(path)))
        else:
            out.append((sid, generate_space(spec)))
    return out


def _materialize_functions(cfg: ExperimentConfig, space, base_dir: str):
    out = []
    for fid, spec in cfg.functions:
        if isinstance(spec, str):
            path = spec if os.path.isabs(spec) else os.path.join(base_dir, spec)
            values = load_function_file(path)
            if values.shape != (space.n,):
                out.append((fid, None))
                continue
            out.append((fid, np.abs(values)))
        else:
            out.append((fid, generate_function(space, spec)))
    return out


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def run(cfg: ExperimentConfig, base_dir: str = ".", log=None):
    """Execute a parsed config; returns (report dict, exit code)."""

    def say(msg):
        if log is not None:
            print(msg, file=log)

    spaces = _materialize_spaces(cfg, base_dir)
    say(f"materialized {len(spaces)} spaces")

    records = []
    needs_balls = any(check in BALL_CHECKS for check in cfg.checks)
    for sid, space in spaces:
        balls = enumerate_balls(space, limit=64, seed=cfg.seed) if needs_balls else []
        for fid, f in _materialize_functions(cfg, space, base_dir):
            if f is None:
                records.append(_error_row("", sid, fid, "FunctionShapeMismatch"))
            else:
                records += _pair_records(space, sid, f, fid, balls, cfg)
    # canonical order: report bytes do not depend on evaluation order
    records.sort(key=lambda r: tuple(_fmt(r.get(c, "")) for c in CSV_COLUMNS))
    say(f"collected {len(records)} check records")

    space_by_id = dict(spaces)
    estimates = []
    for req in cfg.estimates:
        if req.space not in space_by_id:
            raise ConfigError(f"estimate names unknown space {req.space!r}")
        if not 0 <= req.exponent < len(cfg.exponents):
            raise ConfigError(f"estimate names exponent index {req.exponent} out of range")
        res = estimate_constant(space_by_id[req.space], req.check, cfg.exponents[req.exponent], req.optimizer)
        estimates.append(
            {
                "check_id": req.check,
                "space_id": req.space,
                "exponent_index": req.exponent,
                "best_ratio": res.best_ratio,
                "iterations_used": res.iterations_used,
                "argmax_f": [float(v) for v in res.argmax_f],
            }
        )
    say(f"ran {len(estimates)} extremal estimates")

    sweeps = []
    for req in cfg.sweeps:
        fspec = dict(cfg.functions).get(req.function)
        if fspec is None or isinstance(fspec, str):
            raise ConfigError(f"sweep needs a generated function spec, got {req.function!r}")
        ordered = [space for _, space in sorted(spaces, key=lambda kv: kv[1].n)]
        rows = kappa_sweep(ordered, fspec, req.alpha, req.p, req.kappas)
        sweeps.append({"alpha": req.alpha, "p": req.p, "function_id": req.function, "table": rows})
    say(f"ran {len(sweeps)} kappa sweeps")

    n_pass = sum(1 for r in records if r.get("pass") is True)
    n_fail = sum(1 for r in records if r.get("pass") is False)
    n_error = sum(1 for r in records if "error" in r)
    config_bytes = json.dumps(cfg.raw, sort_keys=True).encode()
    report = {
        "config": cfg.raw,
        "environment": {
            "tool_version": __version__,
            "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
        },
        "records": records,
        "estimates": estimates,
        "sweeps": sweeps,
        "verdict": {"pass": n_pass, "fail": n_fail, "errors": n_error},
    }
    exit_code = 1 if n_fail > 0 else 0
    return report, exit_code


def render_csv(records) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in records:
        lines.append(",".join(_fmt(row.get(c, "")) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_report(report: dict, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    with open(os.path.join(out_dir, "records.csv"), "w", encoding="utf-8") as fh:
        fh.write(render_csv(report["records"]))


# ---------------------------------------------------------------------------
# command line


def _load_config(path: str, seed_override=None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if seed_override is not None:
        raw = dict(raw)
        raw["seed"] = seed_override
    return parse_config(raw)


def _run_command(args, only=None) -> int:
    try:
        cfg = _load_config(args.config, args.seed)
        if only is not None:
            cfg = ExperimentConfig(
                **{
                    **{f.name: getattr(cfg, f.name) for f in fields(ExperimentConfig)},
                    "checks": cfg.checks if "checks" in only else [],
                    "estimates": cfg.estimates if "estimates" in only else [],
                    "sweeps": cfg.sweeps if "sweeps" in only else [],
                }
            )
        log = None if args.quiet else sys.stderr
        report, code = run(cfg, base_dir=os.path.dirname(args.config) or ".", log=log)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out if args.out is not None else cfg.output_dir
    write_report(report, out_dir)
    if not args.quiet:
        v = report["verdict"]
        print(f"pass={v['pass']} fail={v['fail']} errors={v['errors']} -> {out_dir}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="morrey-lab", description=__doc__)
    ap.add_argument("--quiet", action="store_true", help="suppress stderr logging")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_run_like(name, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("config", help="experiment config file (JSON)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        return p

    add_run_like("run", "run every check, estimate and sweep in the config")
    add_run_like("check", "run only the theorem checks")
    add_run_like("estimate", "run only the extremal estimates")
    add_run_like("sweep", "run only the kappa sweeps")

    pv = sub.add_parser("validate", help="validate a space file")
    pv.add_argument("space_file")

    pg = sub.add_parser("gen", help="generate a space file from a spec document")
    pg.add_argument("spec_file")
    pg.add_argument("-o", "--output", required=True)

    pr = sub.add_parser("report", help="re-render the CSV table from a run directory")
    pr.add_argument("run_dir")

    args = ap.parse_args(argv)

    if args.command == "validate":
        try:
            dist, mass = _read_space_doc(args.space_file)
        except (OSError, ValueError, ConfigError) as exc:
            print(f"cannot read space file: {exc}", file=sys.stderr)
            return 2
        violations = find_violations(dist, mass)
        for v in violations:
            print(str(v))
        return 1 if violations else 0

    if args.command == "gen":
        try:
            with open(args.spec_file, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
            _, spec = _parse_space_entry(raw, 0, int(raw.get("seed", 0)))
            if isinstance(spec, str):
                raise ConfigError("gen spec must be a generator family, not a file reference")
            space = generate_space(spec)
        except (OSError, ValueError, ConfigError, InvalidSpec) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        save_space_file(space, args.output)
        return 0

    if args.command == "report":
        path = os.path.join(args.run_dir, "report.json")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return 2
        sys.stdout.write(render_csv(report["records"]))
        return 0

    only = {
        "run": None,
        "check": {"checks"},
        "estimate": {"estimates"},
        "sweep": {"sweeps"},
    }[args.command]
    return _run_command(args, only)


if __name__ == "__main__":
    raise SystemExit(main())
