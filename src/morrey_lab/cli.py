"""Batch front end: declarative experiment configs in, deterministic
reports out.

A config names spaces, functions, exponent triples and checks; ``run``
executes everything and writes one hierarchical report (JSON) plus a flat
CSV table.  Report bytes are a pure function of (config, seed, tool
version): records follow config order (space, function, check, exponent
triple, ball, level), ``report.json`` prints floats with ``repr`` (the
shortest string that round-trips), ``records.csv`` prints them with 17
significant digits, and logging goes to stderr only.

``run`` keeps each check call's ``CheckReport`` (see ``theorems``) as one
record block: the values its rows share, and its float64 arrays and bool
pass flags as columns.  ``write_report`` writes a block at a time, formatting
each of its distinct doubles once, and gives the bytes of
``json.dumps(indent=2)`` and of ``csv.writer``.  ``report`` re-renders the
CSV of a ``report.json`` through ``csv.writer``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import gc
import io
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
from .functions import ExponentOutOfRange, ExponentSet
from .generators import FunctionSpec, InvalidSpec, SpaceSpec, generate_function, generate_space
from .operators import hedberg_constant
from .space import MAX_POINTS, MetricMeasureSpace, find_violations, validate_space
from .theorems import CHECK_IDS, GAMMA_COUNT, GAMMA_HI, GAMMA_LO, Values, evaluate

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


# Each T1 or T3 call holds a (ball x level) table of 64 * count rows, about 260 bytes a row.
MAX_GAMMA_COUNT = 1024
# Each distinct sweep kappa keeps one n x n index table in every space for the rest of the
# run (``MetricMeasureSpace.dilated_measure``): 32 MiB each at ``MAX_POINTS``.
MAX_SWEEP_KAPPAS = 8


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

    def error(self, exc: ValueError) -> ConfigError:
        return ConfigError(f"sweep (alpha={self.alpha}, p={self.p}, kappas={list(self.kappas)}): {exc}")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    spaces: list  # (id, SpaceSpec | path)
    functions: list  # (id, FunctionSpec | path)
    exponents: list  # ExponentSet
    checks: list  # check id strings
    estimates: list  # EstimateRequest
    sweeps: list  # SweepRequest
    gamma_grid: tuple  # (lo, hi, count)
    output_dir: str
    raw: dict


# A config section is read by its key table, {key: (type, default)}.  A type
# is one of _JSON_TYPES, a key table (a section), ``np.ndarray`` (JSON numbers
# nested in lists) or ``object`` (any value, checked by the caller).  The JSON
# types of each type: ``int()`` would truncate 4.9 and read ``true`` as 1,
# ``float()`` would read ``"nan"``, and ``str()`` would read ``null`` as
# "None".  A boolean is none of them.
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,), list: (list, tuple)}
_REQUIRED = object()  # the default of a key that the section must set
_CONFIG = {"seed": (int, 0), **dict.fromkeys(("spaces", "functions", "exponents", "checks"), (list, _REQUIRED)),
           "gamma_grid": ({"lo": (float, GAMMA_LO), "hi": (float, GAMMA_HI), "count": (int, GAMMA_COUNT)}, {}),
           "output_dir": (str, "morrey-lab-out")}


def _take(raw, context: str, keys: dict) -> dict:
    """The values of a config section by its key table: an unknown key or a
    missing required one is an error, and every value, a default too, is
    read as its type (``_coerce``)."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{context}: expected a mapping, got {type(raw).__name__}")
    unknown = set(raw) - set(keys)
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    out = {}
    for key, (kind, default) in keys.items():
        value = raw.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"{context}: missing required key {key!r}")
        out[key] = _coerce(context, key, kind, value)
    return out


def _coerce(context: str, key: str, kind, value):
    """``value`` read as ``kind`` (see the key tables): ``kind(value)`` for a
    value of one of ``kind``'s JSON types."""
    if isinstance(kind, dict):  # a section or a list is named by its path: "gamma_grid", "checks[0].sweep.kappas"
        return _take(value, f"{context}.{key}".removeprefix("config."), kind)
    if kind is np.ndarray:  # one type check and one numpy pass; a leaf at a time only to name a bad one
        leaves = np.array(value, dtype=object)
        if set(map(type, leaves.flat)) <= {int, float}:
            try:
                return np.array(value, dtype=float)
            except OverflowError:  # an integer past the float range
                pass
        return np.array([_coerce(context, key, float, v) for v in leaves.flat], dtype=float).reshape(leaves.shape)
    if kind is object:
        return value
    if type(value) in _JSON_TYPES[kind]:
        try:
            return kind(value)
        except OverflowError:  # an integer past the float range
            pass
    if kind is list:
        raise ConfigError(f"{context}.{key}".removeprefix("config.") + f": expected a list, got {type(value).__name__}")
    raise ConfigError(f"{context}: {key!r} must be {kind.__name__}, got {value!r}")


@functools.cache
def _fields(cls) -> dict:
    """The key table of a dataclass: each field's annotated type and default."""
    types = typing.get_type_hints(cls)
    return {f.name: (types[f.name], _REQUIRED if f.default is MISSING else f.default) for f in fields(cls)}


def _parse_spec_entry(cls, raw, context: str, default_id: str, default_seed: int):
    """(id, spec) for a generated entry, (id, path) for a file entry, which
    takes only ``id`` and ``file``."""
    keys = {"id": (str, default_id), "file": (str, _REQUIRED)}
    if not (isinstance(raw, dict) and "file" in raw):
        keys = {"id": (str, default_id), **_fields(cls), "seed": (int, default_seed)}
    ent = _take(raw, context, keys)
    ident = ent.pop("id")
    if "file" in ent:
        return ident, ent["file"]
    try:
        return ident, cls(**ent)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _unique_ids(key: str, entries: list) -> list:
    """The ids of (id, spec) entries, in order; a repeated id is a config error."""
    ids = [ident for ident, _ in entries]
    for i, ident in enumerate(ids):
        if ident in ids[:i]:
            raise ConfigError(f"{key}[{i}]: duplicate id {ident!r}")
    return ids


def parse_config(raw: dict) -> ExperimentConfig:
    top = _take(raw, "config", _CONFIG)
    seed = top["seed"]
    if not 0 <= seed < 2**64:
        raise ConfigError(f"config: seed must lie in [0, 2**64), got {seed}")
    spaces = [
        _parse_spec_entry(SpaceSpec, s, f"spaces[{i}]", f"space{i}", rng.u64(seed, 1, i) >> 1)
        for i, s in enumerate(top["spaces"])
    ]
    functions = [
        _parse_spec_entry(FunctionSpec, f, f"functions[{i}]", f"fn{i}", rng.u64(seed, 2, i) >> 1)
        for i, f in enumerate(top["functions"])
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
    optimizer_keys = {key: kd for key, kd in _fields(OptimizerConfig).items() if key != "seed"}  # seed: the config's
    for i, item in enumerate(top["checks"]):
        if isinstance(item, str):
            if item not in CHECK_IDS:
                raise ConfigError(f"checks[{i}]: unknown check id {item!r}")
            if item in checks:
                raise ConfigError(f"checks[{i}]: duplicate check id {item!r}")
            checks.append(item)
        elif isinstance(item, dict) and set(item) == {"estimate"}:
            ctx = f"checks[{i}].estimate"
            keys = {"check": (str, _REQUIRED), "space": (str, space_ids[0]), "exponent": (int, 0), **optimizer_keys}
            ent = _take(item["estimate"], ctx, keys)
            check, space, exponent = ent.pop("check"), ent.pop("space"), ent.pop("exponent")
            if check not in CHECK_IDS:
                raise ConfigError(f"{ctx}: unknown check id {check!r}")
            if space not in space_ids:
                raise ConfigError(f"{ctx}: unknown space {space!r}")
            if not 0 <= exponent < len(exponents):
                raise ConfigError(f"{ctx}: exponent index {exponent} out of range")
            try:
                optimizer = OptimizerConfig(seed=seed, **ent)
            except ValueError as exc:
                raise ConfigError(f"{ctx}: {exc}") from exc
            estimates.append(EstimateRequest(check=check, space=space, exponent=exponent, optimizer=optimizer))
        elif isinstance(item, dict) and set(item) == {"sweep"}:
            ctx = f"checks[{i}].sweep"
            ent = _take(item["sweep"], ctx, {"alpha": (float, _REQUIRED), "p": (float, _REQUIRED),
                                             "kappas": (list, [1.0, 1.5, 2.0]), "function": (str, function_ids[0])})
            if ent["function"] not in function_ids:
                raise ConfigError(f"{ctx}: unknown function {ent['function']!r}")
            sweep = SweepRequest(**{**ent, "kappas": tuple(_coerce(ctx, "kappas", float, k) for k in ent["kappas"])})
            try:  # T2's (p, alpha) range and positive kernel dilations, before any space is built
                hedberg_constant(sweep.p, sweep.alpha)
                if not all(k > 0.0 for k in sweep.kappas):
                    raise ExponentOutOfRange(f"kappas must be positive, got {list(sweep.kappas)}")
            except ExponentOutOfRange as exc:
                raise sweep.error(exc) from exc
            sweeps.append(sweep)
        else:
            raise ConfigError(f"checks[{i}]: expected a check id or an estimate/sweep request")
    kappas = {k for sweep in sweeps for k in sweep.kappas}
    if len(kappas) > MAX_SWEEP_KAPPAS:
        raise ConfigError(f"sweeps: at most MAX_SWEEP_KAPPAS = {MAX_SWEEP_KAPPAS} distinct kappas, got {len(kappas)}")
    per_triple = sorted(set(checks) - {"weakL1"})  # every check but weakL1 runs once per exponent triple
    if per_triple and not exponents:
        raise ConfigError(f"checks {per_triple} need at least one [p, q, alpha] triple in exponents")

    gg = top["gamma_grid"]
    if not (0.0 < gg["lo"] < math.inf and 0.0 < gg["hi"] < math.inf and 1 <= gg["count"] <= MAX_GAMMA_COUNT):
        raise ConfigError(f"gamma_grid: need finite lo > 0, finite hi > 0 and 1 <= count <= {MAX_GAMMA_COUNT},"
                          f" got {gg}")
    return ExperimentConfig(
        seed=seed, spaces=spaces, functions=functions, exponents=exponents, checks=checks, estimates=estimates,
        sweeps=sweeps, gamma_grid=(gg["lo"], gg["hi"], gg["count"]), output_dir=top["output_dir"], raw=raw,
    )


# ---------------------------------------------------------------------------
# space / function file IO


_SPACE_FILE = {"n": (object, _REQUIRED), "dist": (np.ndarray, _REQUIRED), "mass": (np.ndarray, _REQUIRED)}
# The largest file that save_space_file writes: MAX_POINTS**2 + MAX_POINTS numbers, each at
# most 24 characters (the longest float repr, "-2.2250738585072014e-308") and a ", ", and
# the keys.  About 416 MiB; json.load reads a file into Python floats before any check.
_MAX_SPACE_FILE_BYTES = (MAX_POINTS**2 + MAX_POINTS) * (24 + 2) + 64
# A function file: MAX_POINTS numbers, each with room for 24 characters, a separator and indentation.
_MAX_FUNCTION_FILE_BYTES = MAX_POINTS * 64


def _read_json(path: str, limit: int, what: str):
    """The JSON document of a file, refused before ``json.load`` if it holds more than ``limit`` bytes."""
    with open(path, "r", encoding="utf-8") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size > limit:
            raise ValueError(f"a {what} file holds at most {limit} bytes, got {size}")
        return json.load(fh)


def _read_space_doc(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The (dist, mass) arrays of a space file, not yet validated."""
    doc = _take(_read_json(path, _MAX_SPACE_FILE_BYTES, "space"), path, _SPACE_FILE)
    n = doc["n"]
    if type(n) is not int:  # a bool is an int subclass, and int() would truncate 2.9
        raise ValueError(f"'n' must be an integer, got {n!r}")
    if not 0 <= n <= MAX_POINTS:
        raise ValueError(f"'n' must lie in [0, MAX_POINTS = {MAX_POINTS}], got {n}")
    return doc["dist"].reshape(n, n), doc["mass"]


def load_space_file(path: str) -> MetricMeasureSpace:
    return validate_space(*_read_space_doc(path))


def save_space_file(space: MetricMeasureSpace, path: str):
    doc = {"n": space.n, "dist": space.dist.ravel().tolist(), "mass": space.mass.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_function_file(path: str) -> np.ndarray:
    return _coerce(path, "values", np.ndarray, _read_json(path, _MAX_FUNCTION_FILE_BYTES, "function"))


# ---------------------------------------------------------------------------
# run


def _pair_records(space, space_id, f, function_id, cfg: ExperimentConfig, verdict: dict):
    """The record blocks of one (space, function) pair, one per check call:
    ``(shared, columns)``, the values its rows share and the call's float64
    arrays and bool pass flags as they are; ``verdict`` counts them."""
    blocks = []
    for check in cfg.checks:
        base = {**dict.fromkeys(CSV_COLUMNS, ""), "check_id": check, "space_id": space_id, "function_id": function_id}
        try:
            tables = evaluate(space, f, check, cfg.exponents, cfg.seed, cfg.gamma_grid)
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
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot use input file {path}: {exc}") from exc


def _generate_space(sid: str, spec: SpaceSpec) -> MetricMeasureSpace:
    """``generate_space(spec)`` with a space that fails validation as a config error."""
    try:
        return generate_space(spec)
    except ValueError as exc:
        raise ConfigError(f"space {sid!r}: {exc}") from exc


def _materialize_spaces(cfg: ExperimentConfig, base_dir: str):
    out = []
    for sid, spec in cfg.spaces:
        if isinstance(spec, str):
            out.append((sid, _read_input_file(load_space_file, os.path.join(base_dir, spec))))
        else:
            out.append((sid, _generate_space(sid, spec)))
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
    for sid, space in spaces:
        values = _materialize_functions(cfg, sid, space, base_dir)
        built.append((space, dict(values)))
        for fid, f in values:
            records += _pair_records(space, sid, f, fid, cfg, verdict)
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
        except ValueError as exc:  # non-finite values from a file; parse_config checked (alpha, p, kappas)
            raise req.error(exc) from exc
        sweeps.append({"alpha": req.alpha, "p": req.p, "function_id": req.function, "table": rows})
    say(f"ran {len(sweeps)} kappa sweeps")

    config_bytes = json.dumps(cfg.raw, sort_keys=True).encode()
    report = {
        "config": cfg.raw,
        "environment": {
            "tool_version": __version__,
            "config_sha256": rng.sha256(config_bytes).hexdigest(),
        },
        "records": records,
        "estimates": estimates,
        "sweeps": sweeps,
        "verdict": verdict,
    }
    exit_code = 1 if verdict["fail"] > 0 else 3 if verdict["errors"] > 0 else 0
    return report, exit_code


_WRITE_ROWS = 256  # rows per write call, so no write holds a whole large block
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
    """A value of a record as ``json.dumps`` prints it."""
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


def _block_rows(shared: dict, columns: dict) -> tuple:
    """A block's JSON row, led by its separator, and its CSV row (``_row``).
    A shared value has one text per file (``_json_text``; ``_csv_field`` of
    its ``_fmt``).  Each distinct double of the float64 columns is formatted
    once: equal bits are the same double.  A bool column prints ``true``
    and ``false`` in both files."""
    if not all(isinstance(c, np.ndarray) and c.dtype in (np.float64, np.bool_) for c in columns.values()):
        raise TypeError(f"record columns must be float64 or bool arrays: {sorted(columns)}")
    texts = {key: (_json_text(v), _csv_field(_fmt(v))) for key, v in shared.items()}
    for key, c in columns.items():
        if c.dtype == np.bool_:
            texts[key] = (list(map(("false", "true").__getitem__, c.tolist())),) * 2
    floats = [key for key, c in columns.items() if c.dtype == np.float64]
    if floats:
        values = np.array([columns[key] for key in floats])  # equally long, or a ValueError
        bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
        doubles = bits.view(np.float64).tolist()
        cells = [np.array(t, dtype=object)[inverse.reshape(len(floats), -1)].tolist()
                 for t in (list(map(_json_text, doubles)), ["%.17g" % v for v in doubles])]
        texts.update(zip(floats, zip(*cells)))
    fields = [(encode_basestring_ascii(key) + ": ", texts[key][0]) for key in sorted(texts)]
    json_row = _row(",\n    {\n      ", fields, ",\n      ", "\n    }") if fields else [",\n    {}"]
    return json_row, _row("", [("", texts[key][1] if key in texts else "") for key in _CSV_ALL_COLUMNS], ",", "\n")


def _chunks(blocks: list):
    """The JSON and CSV rows of ``blocks``, ``_WRITE_ROWS`` rows a chunk.  A
    block is ``(shared, columns)``: the values all its rows share, by key,
    and equally long float64 or bool array columns; without columns it is
    one row.  A chunk is the row repeated, each column's texts sliced in."""
    for shared, columns in blocks:
        rows = _block_rows(shared, columns)
        n = len(next(iter(columns.values()))) if columns else 1
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
    expand to (``_chunks``): ``report.json`` is ``json.dumps(report,
    sort_keys=True, indent=2)`` plus a newline, and ``records.csv`` what
    ``csv.writer`` prints for the ``_fmt`` of every cell.  The rows go in
    where the top-level ``"records"`` key stands in one ``json.dumps`` of
    the rest.

    Both files are written under temporary names in ``out_dir``, renamed into
    place once both are complete, and removed on any exception before that:
    ``out_dir`` keeps an earlier run's files as they were, or none.
    """
    os.makedirs(out_dir, exist_ok=True)
    names = ("report.json", "records.csv")
    temps = [os.path.join(out_dir, f".{name}.{os.getpid()}.tmp") for name in names]
    # Only a top-level key starts a line two spaces in: json.dumps escapes
    # the newlines and quotes of strings, and indents nested keys further.
    anchor = '\n  "records": []'
    head, tail = json.dumps({**report, "records": []}, sort_keys=True, indent=2).split(anchor)
    try:
        with open(temps[0], "w", encoding="utf-8") as fh, open(temps[1], "w", encoding="utf-8") as fc:
            fc.write(_CSV_HEADER)
            fh.write(head + anchor[:-2])
            lead = "["  # in place of the first row's ","
            for json_rows, csv_rows in _chunks(report["records"]):
                fh.write(lead + json_rows[1:] if lead else json_rows)
                fc.write(csv_rows)
                lead = ""
            fh.write(("[]" if lead else "\n  ]") + tail + "\n")
        for temp, name in zip(temps, names):
            os.replace(temp, os.path.join(out_dir, name))
    except BaseException:
        for temp in filter(os.path.exists, temps):
            os.remove(temp)
        raise


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
    ap = argparse.ArgumentParser(prog="morrey-lab", description=__doc__.split("\n\n")[0])
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
            sid, spec = _parse_spec_entry(SpaceSpec, raw, "spaces[0]", "space0", 0)  # seed 0 unless the spec sets one
            if isinstance(spec, str):
                raise ConfigError("gen spec must be a generator family, not a file reference")
            space = _generate_space(sid, spec)
        except (OSError, ValueError) as exc:  # ConfigError and InvalidSpec are ValueErrors
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        try:
            save_space_file(space, args.output)
        except OSError as exc:
            print(f"cannot write space file {args.output}: {exc}", file=sys.stderr)
            return 2
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
