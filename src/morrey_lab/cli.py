"""Batch front end: declarative experiment configs in, deterministic
reports out.

A config names spaces, functions, exponent triples and checks; ``run``
executes everything and writes one hierarchical report (JSON) plus a flat
CSV table.  Report bytes are a pure function of (config, seed, tool
version): records follow config order (space, function, check, exponent
triple, ball, level), ``report.json`` prints floats with ``repr`` (the
shortest string that round-trips), ``records.csv`` prints them with 17
significant digits, and logging goes to stderr only.

``run`` keeps each check call's table (see ``theorems``) as one record
block: the values its rows share, and its float64 arrays and bool pass
flags as columns.  ``write_report`` formats each distinct double of a run
of blocks once, by its bits, giving the bytes of ``json.dumps(indent=2)``
and of ``csv.writer``, and joins a block's rows from its fixed texts, which
hold every shared value, and its columns' texts.  ``report`` re-renders
the CSV of a ``report.json`` through ``csv.writer``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import gc
import io
import itertools
import json
import math
import os
import sys
import typing
from dataclasses import MISSING, dataclass, fields, replace
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, rng
from .extremal import OptimizerConfig, estimate_constant, kappa_sweep
from .functions import ExponentSet
from .generators import FunctionSpec, InvalidSpec, SpaceSpec, generate_function, generate_space
from .space import InvalidSpaceError, MetricMeasureSpace, find_violations, validate_space
from .theorems import BALL_CHECKS, CHECK_IDS, GAMMA_COUNT, GAMMA_HI, GAMMA_LO, Values, enumerate_balls, evaluate

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


def _list(key: str, value) -> list:
    """A config value that must be a list (a scalar would be iterated or crash)."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key}: expected a list, got {type(value).__name__}")
    return value


# The JSON types a config value of each field type may have: ``int()`` would
# truncate 4.9 and read ``true`` as 1, ``float()`` would read ``"nan"``, and
# ``str()`` would read ``null`` as "None".  A boolean is none of them.
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,)}


def _coerce(context: str, key: str, kind, value):
    """``kind(value)`` for a value of one of ``kind``'s JSON types."""
    error = ConfigError(f"{context}: {key!r} must be {kind.__name__}, got {value!r}")
    if type(value) not in _JSON_TYPES[kind]:
        raise error
    try:
        return kind(value)
    except OverflowError as exc:  # an integer past the float range
        raise error from exc


def _spec_defaults(cls, skip=()) -> dict:
    """The config keys of a spec dataclass: its field names and defaults."""
    return {f.name: (None if f.default is MISSING else f.default) for f in fields(cls) if f.name not in skip}


def _build_spec(cls, ent: dict, context: str, **given):
    """``cls`` from a config entry, each field coerced to its annotated type."""
    types = typing.get_type_hints(cls)
    kwargs = {f.name: _coerce(context, f.name, types[f.name], ent[f.name]) for f in fields(cls) if f.name not in given}
    try:
        return cls(**kwargs, **given)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _parse_spec_entry(cls, raw, context: str, default_id: str, default_seed: int):
    """(id, spec) for a generated entry, (id, path) for a file entry."""
    ent = _take(raw, context, (), {"id": default_id, "file": None, **_spec_defaults(cls), "seed": None})
    ident = _coerce(context, "id", str, ent["id"])
    if ent["file"] is not None:
        return ident, _coerce(context, "file", str, ent["file"])
    if ent["family"] is None:
        raise ConfigError(f"{context}: need either 'file' or 'family'")
    if ent["seed"] is None:
        ent["seed"] = default_seed
    return ident, _build_spec(cls, ent, context)


def _parse_space_entry(raw, index, default_seed):
    return _parse_spec_entry(SpaceSpec, raw, f"spaces[{index}]", f"space{index}", default_seed)


def _parse_function_entry(raw, index, default_seed):
    return _parse_spec_entry(FunctionSpec, raw, f"functions[{index}]", f"fn{index}", default_seed)


def _unique_ids(key: str, entries: list) -> list:
    """The ids of (id, spec) entries, in order; a repeated id is a config error."""
    ids = [ident for ident, _ in entries]
    for i, ident in enumerate(ids):
        if ident in ids[:i]:
            raise ConfigError(f"{key}[{i}]: duplicate id {ident!r}")
    return ids


def parse_config(raw: dict) -> ExperimentConfig:
    top = _take(
        raw,
        "config",
        ("spaces", "functions", "exponents", "checks"),
        {"seed": 0, "gamma_grid": {}, "output_dir": "morrey-lab-out"},
    )
    seed = _coerce("config", "seed", int, top["seed"])
    if not 0 <= seed < 2**64:
        raise ConfigError(f"config: seed must lie in [0, 2**64), got {seed}")
    for key in ("spaces", "functions", "exponents", "checks"):
        _list(key, top[key])
    spaces = [_parse_space_entry(s, i, rng.u64(seed, 1, i) >> 1) for i, s in enumerate(top["spaces"])]
    functions = [
        _parse_function_entry(f, i, rng.u64(seed, 2, i) >> 1) for i, f in enumerate(top["functions"])
    ]
    if not spaces or not functions or not top["checks"]:
        raise ConfigError("config needs at least one space, one function and one check")
    space_ids, function_ids = _unique_ids("spaces", spaces), _unique_ids("functions", functions)
    exponents = []
    for i, triple in enumerate(top["exponents"]):
        if not (isinstance(triple, (list, tuple)) and len(triple) == 3):
            raise ConfigError(f"exponents[{i}]: expected a [p, q, alpha] triple, got {triple!r}")
        pqa = [_coerce(f"exponents[{i}]", key, float, v) for key, v in zip(("p", "q", "alpha"), triple)]
        try:
            exponents.append(ExponentSet.from_pqa(*pqa))
        except ValueError as exc:  # out of range
            raise ConfigError(f"exponents[{i}] {list(triple)}: {exc}") from exc

    checks, estimates, sweeps = [], [], []
    for i, item in enumerate(top["checks"]):
        if isinstance(item, str):
            if item not in CHECK_IDS:
                raise ConfigError(f"checks[{i}]: unknown check id {item!r}")
            checks.append(item)
        elif isinstance(item, dict) and set(item) == {"estimate"}:
            ctx = f"checks[{i}].estimate"
            ent = _take(
                item["estimate"],
                ctx,
                ("check",),
                {"space": space_ids[0], "exponent": 0, **_spec_defaults(OptimizerConfig, skip=("seed",))},
            )
            if ent["check"] not in CHECK_IDS:
                raise ConfigError(f"{ctx}: unknown check id {ent['check']!r}")
            space = _coerce(ctx, "space", str, ent["space"])
            if space not in space_ids:
                raise ConfigError(f"{ctx}: unknown space {space!r}")
            exponent = _coerce(ctx, "exponent", int, ent["exponent"])
            if not 0 <= exponent < len(exponents):
                raise ConfigError(f"{ctx}: exponent index {exponent} out of range")
            optimizer = _build_spec(OptimizerConfig, ent, ctx, seed=seed)
            estimates.append(EstimateRequest(check=ent["check"], space=space, exponent=exponent, optimizer=optimizer))
        elif isinstance(item, dict) and set(item) == {"sweep"}:
            ctx = f"checks[{i}].sweep"
            ent = _take(item["sweep"], ctx, ("alpha", "p"), {"kappas": [1.0, 1.5, 2.0], "function": function_ids[0]})
            function = _coerce(ctx, "function", str, ent["function"])
            if function not in function_ids:
                raise ConfigError(f"{ctx}: unknown function {function!r}")
            sweeps.append(
                SweepRequest(
                    alpha=_coerce(ctx, "alpha", float, ent["alpha"]),
                    p=_coerce(ctx, "p", float, ent["p"]),
                    kappas=tuple(_coerce(ctx, "kappas", float, k) for k in _list(f"{ctx}.kappas", ent["kappas"])),
                    function=function,
                )
            )
        else:
            raise ConfigError(f"checks[{i}]: expected a check id or an estimate/sweep request")

    gg = _take(top["gamma_grid"], "gamma_grid", (), {"lo": GAMMA_LO, "hi": GAMMA_HI, "count": GAMMA_COUNT})
    gamma_lo = _coerce("gamma_grid", "lo", float, gg["lo"])
    gamma_hi = _coerce("gamma_grid", "hi", float, gg["hi"])
    gamma_count = _coerce("gamma_grid", "count", int, gg["count"])
    if not (0.0 < gamma_lo < math.inf and 0.0 < gamma_hi < math.inf and gamma_count >= 1):
        raise ConfigError(f"gamma_grid: need finite lo > 0, finite hi > 0 and count >= 1, got {gg}")
    return ExperimentConfig(
        seed=seed,
        spaces=spaces,
        functions=functions,
        exponents=exponents,
        checks=checks,
        estimates=estimates,
        sweeps=sweeps,
        gamma_lo=gamma_lo,
        gamma_hi=gamma_hi,
        gamma_count=gamma_count,
        output_dir=_coerce("config", "output_dir", str, top["output_dir"]),
        raw=raw,
    )


# ---------------------------------------------------------------------------
# space / function file IO


def _read_space_doc(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The (dist, mass) arrays of a space file, not yet validated."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    ent = _take(doc, path, ("n", "dist", "mass"), {})
    n = ent["n"]
    if type(n) is not int:  # a bool is an int subclass, and int() would truncate 2.9
        raise ValueError(f"'n' must be an integer, got {n!r}")
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


def _pair_records(space, space_id, f, function_id, balls, cfg: ExperimentConfig, verdict: dict):
    """The record blocks of one (space, function) pair, one per check call:
    ``(shared, columns)``, the values its rows share and the call's float64
    arrays and bool pass flags as they are; ``verdict`` counts them."""
    blocks = []
    for check in cfg.checks:
        base = {**dict.fromkeys(CSV_COLUMNS, ""), "check_id": check, "space_id": space_id, "function_id": function_id}
        try:
            tables = evaluate(space, f, check, cfg.exponents, balls, cfg.gamma_lo, cfg.gamma_hi, cfg.gamma_count)
        except ValueError as exc:  # bad function values or exponents: surfaced per record, run continues
            blocks.append(({**base, "error": f"{type(exc).__name__}: {exc}"}, {}))
            verdict["errors"] += 1
            continue
        for t in tables:
            shared = {**base, **t.params, "kappa": 2.0}  # evaluate runs every check at kappa = 2
            if t.passed is not None:
                shared["theory_constant"] = t.theory_constant
                verdict["pass"] += int(np.count_nonzero(t.passed))
                verdict["fail"] += int(np.count_nonzero(~t.passed))
            table = {"gamma": t.gamma, "lhs": t.lhs, "rhs_without_constant": t.rhs_without_constant,
                     "empirical_constant": t.empirical_constant, "pass": t.passed}
            columns = {key: column for key, column in table.items() if column is not None}
            blocks.append(({key: v for key, v in shared.items() if key not in columns}, columns))
    return blocks


def _read_input_file(load, path: str):
    """``load(path)`` with an unreadable or invalid file as a config error."""
    try:
        return load(path)
    except (OSError, TypeError, ValueError, InvalidSpaceError) as exc:
        raise ConfigError(f"cannot use input file {path}: {exc}") from exc


def _materialize_spaces(cfg: ExperimentConfig, base_dir: str):
    out = []
    for sid, spec in cfg.spaces:
        if isinstance(spec, str):
            out.append((sid, _read_input_file(load_space_file, os.path.join(base_dir, spec))))
        else:
            out.append((sid, generate_space(spec)))
    return out


def _materialize_functions(cfg: ExperimentConfig, sid: str, space, base_dir: str):
    """One ``Values`` per configured function, shared by all checks of the pair."""
    out = []
    for fid, spec in cfg.functions:
        if isinstance(spec, str):
            path = os.path.join(base_dir, spec)
            values = _read_input_file(load_function_file, path)
            if values.shape != (space.n,):
                raise ConfigError(f"cannot use input file {path}: need {space.n} values, got shape {values.shape}")
        else:
            try:
                values = generate_function(space, spec)
            except InvalidSpec as exc:
                raise ConfigError(f"function {fid!r} on space {sid!r}: {exc}") from exc
        out.append((fid, Values(space, values)))
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

    records, built = [], []  # built: (space, {function id: Values}) per space
    verdict = {"pass": 0, "fail": 0, "errors": 0}
    needs_balls = any(check in BALL_CHECKS for check in cfg.checks)
    for sid, space in spaces:
        balls = enumerate_balls(space, limit=64, seed=cfg.seed) if needs_balls else []
        values = _materialize_functions(cfg, sid, space, base_dir)
        built.append((space, dict(values)))
        for fid, f in values:
            records += _pair_records(space, sid, f, fid, balls, cfg, verdict)
    say(f"collected {len(records)} check record blocks")

    space_by_id = dict(spaces)  # ids are unique (parse_config)
    estimates = []
    for req in cfg.estimates:
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

    by_size = sorted(built, key=lambda sv: sv[0].n)
    sweeps = []
    for req in cfg.sweeps:
        instances = [(space, values[req.function]) for space, values in by_size]
        try:
            rows = kappa_sweep(instances, req.alpha, req.p, req.kappas)
        except ValueError as exc:  # (alpha, p, kappas) out of range, or non-finite values from a file
            raise ConfigError(f"sweep (alpha={req.alpha}, p={req.p}, kappas={list(req.kappas)}): {exc}") from exc
        sweeps.append({"alpha": req.alpha, "p": req.p, "function_id": req.function, "table": rows})
    say(f"ran {len(sweeps)} kappa sweeps")

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
        "verdict": verdict,
    }
    exit_code = 1 if verdict["fail"] > 0 else 3 if verdict["errors"] > 0 else 0
    return report, exit_code


_WRITE_ROWS = 256  # rows per write call, so no write holds a whole large block
_RUN_CELLS = 1 << 12  # float64 cells whose doubles are pooled at a time, which bounds the pool's memory
# "error" is not in CSV_COLUMNS: a JSON record has an "error" key only when it
# could not be evaluated, which is how run() counts errors.
_CSV_ALL_COLUMNS = [*CSV_COLUMNS, "error"]
_CSV_HEADER = ",".join(_CSV_ALL_COLUMNS) + "\n"


@functools.cache
def _csv_field(text: str) -> str:
    """``text`` quoted as the csv module quotes one field of a longer row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _json_text(value) -> str:
    """A shared value as ``json.dumps`` prints it."""
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return encode_basestring_ascii(value) if isinstance(value, str) else json.dumps(value)


def _row(start: str, fields: list, sep: str, end: str) -> list:
    """A row as its fixed texts and its varying columns, alternately:
    ``start``, each field's label and texts with ``sep`` between, ``end``."""
    row = [start]
    for i, (label, texts) in enumerate(fields):
        fixed = row.pop() + (sep if i else "") + label
        row += [fixed + texts] if isinstance(texts, str) else [fixed, texts, ""]
    row[-1] += end
    return row


def _json_row(texts: dict) -> list:
    """A row as ``json.dumps(indent=2)`` prints records two levels deep,
    led by its separator; records are flat and keyed by strings."""
    fields = [(encode_basestring_ascii(key) + ": ", texts[key]) for key in sorted(texts)]
    return _row(",\n    {\n      ", fields, ",\n      ", "\n    }") if fields else [",\n    {}"]


def _csv_row(texts: dict) -> list:
    return _row("", [("", texts.get(column, "")) for column in _CSV_ALL_COLUMNS], ",", "\n")


def _array_texts(arrays: list) -> list:
    """Per array of the float64 ``arrays``, its JSON and CSV cell texts: each
    distinct double of the pool, told apart by its bits, is formatted once."""
    values = np.concatenate(arrays)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    floats = bits.view(np.float64).tolist()
    json_texts = [float.__repr__(v) if math.isfinite(v) else json.dumps(v) for v in floats]
    cells = [np.array(texts, dtype=object)[inverse].tolist() for texts in (json_texts, ["%.17g" % v for v in floats])]
    bounds = np.cumsum([0, *map(len, arrays)]).tolist()
    return [tuple(c[i:j] for c in cells) for i, j in zip(bounds, bounds[1:])]


def _float_columns(columns: dict) -> list:
    """A block's float64 columns; every other column must be a bool array."""
    if not all(isinstance(c, np.ndarray) and c.dtype in (np.float64, np.bool_) for c in columns.values()):
        raise TypeError(f"record columns must be float64 or bool arrays: {sorted(columns)}")
    return [c for c in columns.values() if c.dtype == np.float64]


def _block_texts(blocks: list):
    """Per block, its JSON and CSV ``{key: texts}``: a text per shared value
    (``_json_text``; ``_csv_field`` of its ``_fmt``) and a list per column.
    The float64 columns of a run of blocks of about ``_RUN_CELLS`` cells are
    pooled (``_array_texts``); a bool column prints ``true`` and ``false``
    in both files."""
    sizes = (sum(c.size for c in _float_columns(columns)) for _, columns in blocks)
    for _, run in itertools.groupby(zip(itertools.accumulate(sizes, initial=0), blocks),
                                    lambda cells_block: cells_block[0] // _RUN_CELLS):
        run = [block for _, block in run]
        arrays = [c for _, columns in run for c in _float_columns(columns)]
        pooled = iter(_array_texts(arrays) if arrays else [])
        for shared, columns in run:
            texts = {key: (_json_text(v), _csv_field(_fmt(v))) for key, v in shared.items()}
            for key, c in columns.items():
                flags = list(map(("false", "true").__getitem__, c.tolist())) if c.dtype == bool else None
                texts[key] = next(pooled) if flags is None else (flags, flags)
            yield {key: t for key, (t, _) in texts.items()}, {key: t for key, (_, t) in texts.items()}


def _chunks(blocks: list):
    """The JSON and CSV rows of ``blocks``, ``_WRITE_ROWS`` rows a chunk.  A
    block is ``(shared, columns)``: the values all its rows share, by key,
    and equally long float64 or bool array columns; without columns it is
    one row.  A chunk is the row repeated, each column's texts sliced in."""
    for (_, columns), (json_texts, csv_texts) in zip(blocks, _block_texts(blocks)):
        n = len(next(iter(columns.values()))) if columns else 1
        rows = _json_row(json_texts), _csv_row(csv_texts)
        for i in range(0, n, _WRITE_ROWS):
            chunks = []
            for row in rows:
                chunk = row * min(_WRITE_ROWS, n - i)
                for j in range(1, len(row), 2):
                    chunk[j :: len(row)] = row[j][i : i + _WRITE_ROWS]
                chunks.append("".join(chunk))
            yield chunks


def write_csv(records, fh):
    """``records.csv`` of plain row dicts: the ``_fmt`` of each cell, a key a
    row lacks an empty cell, through ``csv.writer``."""
    fh.write(_CSV_HEADER)
    cells = ([_fmt(row.get(key, "")) for key in _CSV_ALL_COLUMNS] for row in records)
    csv.writer(fh, lineterminator="\n").writerows(cells)


def write_report(report: dict, out_dir: str):
    """Write ``report.json`` and ``records.csv`` into ``out_dir``.

    The bytes are those of the rows that the blocks of ``report["records"]``
    (``_chunks``) expand to: ``report.json`` is ``json.dumps(report,
    sort_keys=True, indent=2)`` plus a newline, and ``records.csv`` what
    ``csv.writer`` prints for the ``_fmt`` of every cell.  Equal bits are the
    same double, so pooling float64 columns by bits is exact.
    """
    os.makedirs(out_dir, exist_ok=True)
    with (
        open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh,
        open(os.path.join(out_dir, "records.csv"), "w", encoding="utf-8") as fc,
    ):
        fc.write(_CSV_HEADER)
        fh.write("{")
        for i, key in enumerate(sorted(report)):
            fh.write(("," if i else "") + "\n  " + json.dumps(key) + ": ")
            if key != "records":
                fh.write(json.dumps(report[key], sort_keys=True, indent=2).replace("\n", "\n  "))
                continue
            lead = "["  # in place of the first row's ","
            for json_rows, csv_rows in _chunks(report[key]):
                fh.write(lead + json_rows[1:] if lead else json_rows)
                fc.write(csv_rows)
                lead = ""
            fh.write("[]" if lead else "\n  ]")
        fh.write("\n}\n")


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


def _run_command(args) -> int:
    try:
        cfg = _load_config(args.config, args.seed)
        if args.command != "run":  # check, estimate or sweep: that config section alone
            cfg = replace(cfg, **{key: [] for key in ("checks", "estimates", "sweeps") if key != args.command + "s"})
        log = None if args.quiet else sys.stderr
        report, code = run(cfg, base_dir=os.path.dirname(args.config) or ".", log=log)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out if args.out is not None else cfg.output_dir
    try:
        write_report(report, out_dir)
    except OSError as exc:
        print(f"cannot write report to {out_dir}: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        v = report["verdict"]
        print(f"pass={v['pass']} fail={v['fail']} errors={v['errors']} -> {out_dir}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    gc.freeze()  # the collection at exit need not walk what the imports built
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
        except (OSError, TypeError, ValueError) as exc:
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
            _, spec = _parse_space_entry(raw, 0, 0)  # seed 0 unless the spec sets one
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
            records = report.get("records") if isinstance(report, dict) else None
            if not isinstance(records, list) or not all(isinstance(row, dict) for row in records):
                raise ValueError("expected an object holding a 'records' list of objects")
        except (OSError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return 2
        write_csv(records, sys.stdout)
        return 0

    return _run_command(args)


if __name__ == "__main__":
    raise SystemExit(main())
