#!/usr/bin/env python3
"""The morrey-lab benchmark.

Runs ``morrey-lab run <config>`` as a fresh child process per invocation,
one invocation at a time (a closed loop with one client), and checks every
report it writes.  See ``perfbench/README.md`` for the workloads, the
metrics and what each per-layer metric should move.

One run, as BENCHMARK.json describes it (last stdout line is JSON):

    python3 perfbench/run.py --workload corpus --seed 3 --seconds 60 --trace 0

Every workload, untraced and traced, one row per run:

    python3 perfbench/run.py

Uses only the standard library and numpy.  Runs from a checkout of the
repository; everything it writes goes under ``.perfbench-work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = ROOT / "configs" / "corpus.json"
WORK = ROOT / ".perfbench-work"

DEFAULT_SEED = 0
# Untraced runs spawn this many set-up children before the first invocation
# and one before each later one; setup_s is their median.
SETUP_FIRST = 3
RUN_BUDGET_S = 170.0  # every child is killed before a run reaches 180 s

# The shared host changes speed by up to 1.8x for minutes at a time, so
# untraced child times are scaled to a nominal host speed: each is multiplied
# by REF_NOMINAL_S over the time of a fixed pure-Python loop run in this
# process just before the child.  REF_NOMINAL_S is a round figure near that
# loop's median time on the 2-vCPU Xeon the bounds were set on.
REF_LOOPS = 1_500_000
REF_NOMINAL_S = 0.15

WORKLOADS = {
    "corpus": "configs/corpus.json as committed: the config users and acceptance 9 run; "
    "time goes to the per-ball T1/T3 recompute and to encoding a 6.9 MB report",
    "large-n": "one random-points space at n=256 with all six checks: validation, "
    "enumerate_balls and the per-point operator loops dominate, the report is small",
}

# report.json sha256 at DEFAULT_SEED, with the tool_version it was taken at.
# A report at another tool_version is reported as changed, not as failed.
PINNED = {
    "corpus": ("0.1.0", "f97bc2395e83b4ec5d46b38ff10199420a6bb5121aa655a341c7972d8013b5d9"),
    "large-n": ("0.1.0", "82f595a4958172d0a79f1f41769e62837f6c3826815dec375806fb429e5073fb"),
}

END_TO_END = {  # name -> unit, the metrics BENCHMARK.json gates
    "total_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "records_per_s": "1/s",
}

# large-n has no estimate and no sweep, so it never reaches extremal; these
# layers are printed but left out of BENCHMARK.json's per-layer set, whose
# metrics must be measured on every workload.
NOT_GATED = ("extremal.",)

OPERATORS = ("operators.maximal", "operators.fractional_integral", "functions.morrey_norm")
CHECKS = (
    "check_T1_weak_maximal",
    "check_T2_hedberg",
    "check_T3_weak_frac",
    "check_T6_strong",
    "check_T7_maximal_morrey",
    "check_weak_L1",
)


# ---------------------------------------------------------------------------
# workloads


def large_n_config(seed: int) -> dict:
    """One random-points space at n=256 with the corpus exponents, level grid
    and checks; the points, the spike's center and the config seed follow
    ``seed``."""
    r = random.Random(seed)
    return {
        "seed": r.getrandbits(31),
        "gamma_grid": {"lo": 0.001, "hi": 1000.0, "count": 5},
        "spaces": [{"id": "points256", "family": "random-points", "n": 256, "dim": 2, "halfwidth": 1.0}],
        "functions": [
            {"id": "spike", "family": "power-spike", "center": r.randrange(256), "beta": 1.5, "cap": 50.0},
            {"id": "rough", "family": "random-uniform"},
        ],
        "exponents": [[2.0, 1.5, 0.25], [4.0, 2.0, 0.125]],
        "checks": ["T1", "T2", "T3", "T6", "T7", "weakL1"],
    }


def workload_config(name: str, seed: int, work: Path) -> Path:
    """The config file the program receives for this workload and seed."""
    if name == "corpus":
        return CORPUS
    path = work / f"{name}.json"
    path.write_text(json.dumps(large_n_config(seed), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# children


class Budget:
    """Wall-clock budget of one run; every child is killed before it ends."""

    def __init__(self, seconds: float):
        self.deadline = time.perf_counter() + seconds

    def left(self) -> float:
        return self.deadline - time.perf_counter()


def spawn(argv, budget: Budget, log: Path):
    """Run one child to completion; returns (wall s, exit code, peak RSS MiB).

    The peak RSS comes from ``os.wait4`` on this child alone, not from the
    cumulative RUSAGE_CHILDREN.  Linux folds the parent's high-water mark
    into a child's ``ru_maxrss`` at exec, so this process keeps its own
    memory small: no numpy, no parsed report (see inspect_report.py).
    """
    if budget.left() <= 1.0:
        raise TimeoutError("run budget spent")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with open(log, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err
        )
        timer = threading.Timer(budget.left(), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024


def reference_s() -> float:
    """Seconds of a fixed pure-Python loop: the host's speed right now.

    It does not depend on morrey_lab, so no change to the program moves it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def run_argv(config: Path, out: Path):
    return ["-m", "morrey_lab.cli", "--quiet", "run", str(config), "--out", str(out)]


def trace_argv(config: Path, out: Path, spans: Path):
    return [str(HERE / "trace_child.py"), str(config), str(out), str(spans)]


# ---------------------------------------------------------------------------
# correctness


class ReportCheck:
    """Checks every report of one run against the first and the pin."""

    def __init__(self, workload: str, seed: int, budget: Budget):
        self.workload = workload
        self.seed = seed
        self.budget = budget
        self.digest = None
        self.info = {}
        self.problems = []

    def check(self, code: int, out: Path) -> list[str]:
        """Problems with one invocation; an empty list means it passed."""
        problems = []
        if code != 0:
            problems.append(f"exit code {code}, expected 0")
        path = out / "report.json"
        if not path.is_file():
            return problems + ["no report.json"]
        with open(path, "rb") as fh:
            digest = hashlib.file_digest(fh, "sha256").hexdigest()
        if self.digest is None:
            self.digest = digest
            self.info = self._inspect(path)
            self.problems = self.info.pop("problems")
        elif digest != self.digest:
            problems.append(f"report.json sha256 {digest[:12]} differs from the run's first {self.digest[:12]}")
        return problems + self.problems

    def _inspect(self, path: Path) -> dict:
        done = subprocess.run(
            [sys.executable, str(HERE / "inspect_report.py"), str(path)],
            capture_output=True,
            text=True,
            timeout=max(self.budget.left(), 1.0),
        )
        if done.returncode != 0:
            return {"problems": [f"unreadable report.json: {done.stderr.strip()[-500:]}"]}
        info = json.loads(done.stdout)
        info["report_bytes"] = path.stat().st_size
        version = info["tool_version"]
        pin_version, pin_digest = PINNED[self.workload]
        if self.seed != DEFAULT_SEED:
            info["pin"] = "not pinned at this seed"
        elif version != pin_version:
            info["pin"] = f"changed: tool_version {version}, pinned at {pin_version}"
        elif self.digest != pin_digest:
            info["pin"] = "mismatch"
            info["problems"].append(f"report.json sha256 {self.digest} is not the pinned {pin_digest} at {version}")
        else:
            info["pin"] = "matches"
        return info


# ---------------------------------------------------------------------------
# traced run


def span_stats(spans: list) -> dict:
    """Per span name: calls, inclusive s, self s, keys, points, peak alloc."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    stats = {}
    for i, (name, t0, t1, parent, attrs) in enumerate(spans):
        if name == "extremal.objective":
            name = f"extremal.objective.{attrs['check']}"
        s = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "keys": set(), "points": 0, "alloc": 0})
        s["calls"] += 1
        s["s"] += t1 - t0
        s["self_s"] += t1 - t0 - child_time[i]
        if attrs and "key" in attrs:
            s["keys"].add(attrs["key"])
            s["points"] += attrs["n"]
        if attrs and "peak_alloc_bytes" in attrs:
            s["alloc"] = max(s["alloc"], attrs["peak_alloc_bytes"])
    return stats


def layer_metrics(stats: dict, report_bytes: int) -> dict:
    """Per-layer metrics of one traced invocation: name -> (value, unit)."""

    def get(name):
        return stats.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "keys": set(), "points": 0, "alloc": 0})

    def share(name):
        s = get(name)
        return len(s["keys"]) / s["calls"] if s["calls"] else 0.0

    m = {
        "cli.parse_config.s": (get("cli.parse_config")["s"], "s"),
        "cli.run.self_s": (get("cli.run")["self_s"], "s"),
        "cli.write_report.s": (get("cli.write_report")["s"], "s"),
        "cli.report_bytes": (report_bytes, "count"),
        "generators.generate_space.self_s": (get("generators.generate_space")["self_s"], "s"),
        "generators.generate_function.s": (get("generators.generate_function")["s"], "s"),
        "space.validate_space.s": (get("space.validate_space")["s"], "s"),
        "space.validate_space.peak_alloc_mb": (get("space.validate_space")["alloc"] / 1e6, "MB"),
        "theorems.enumerate_balls.calls": (get("theorems.enumerate_balls")["calls"], "count"),
        "theorems.enumerate_balls.self_s": (get("theorems.enumerate_balls")["self_s"], "s"),
        "theorems.enumerate_balls.distinct_share": (share("theorems.enumerate_balls"), "ratio"),
        "rng.shuffle_indices.calls": (get("rng.shuffle_indices")["calls"], "count"),
        "rng.shuffle_indices.s": (get("rng.shuffle_indices")["s"], "s"),
    }
    for check in CHECKS:
        s = get(f"theorems.{check}")
        if check in ("check_T1_weak_maximal", "check_T3_weak_frac"):
            m[f"theorems.{check}.calls"] = (s["calls"], "count")
        m[f"theorems.{check}.self_s"] = (s["self_s"], "s")
    for op in OPERATORS:
        s = get(op)
        m[f"{op}.calls"] = (s["calls"], "count")
        m[f"{op}.s"] = (s["s"], "s")
        m[f"{op}.distinct_share"] = (share(op), "ratio")
        m[f"{op}.us_per_point"] = (s["s"] / s["points"] * 1e6 if s["points"] else 0.0, "us")
    objective_calls = 0
    for name in sorted(stats):
        if name.startswith("extremal.objective."):
            s = stats[name]
            objective_calls += s["calls"]
            m[f"{name}.ms_per_call"] = (s["s"] / s["calls"] * 1e3, "ms")
    m["extremal.objective.calls"] = (objective_calls, "count")
    m["extremal.estimate_constant.s"] = (get("extremal.estimate_constant")["s"], "s")
    m["extremal.kappa_sweep.s"] = (get("extremal.kappa_sweep")["s"], "s")
    return m


# ---------------------------------------------------------------------------
# one run


def median(values):
    return statistics.median(values) if values else float("nan")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: set-up children and invocations for about ``seconds``."""
    budget = Budget(RUN_BUDGET_S)
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run_in(work, name, seed, seconds, trace, budget)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_in(work: Path, name: str, seed: int, seconds: float, trace: bool, budget: Budget) -> dict:
    config = workload_config(name, seed, work)
    log = work / "stderr.txt"
    failures = []
    attempted = 0

    def fail(what, problems):
        failures.append(f"{what}: " + "; ".join(problems))
        tail = log.read_text(errors="replace")[-2000:] if log.is_file() else ""
        print(f"[{name}] {what} failed: {'; '.join(problems)}\n{tail}", file=sys.stderr)

    setup_argv = [str(HERE / "setup_child.py"), str(config)]
    # Warm-up: the first child of a fresh checkout compiles the .pyc files.
    spawn(setup_argv, budget, log)

    reports = ReportCheck(name, seed, budget)
    setup, setup_refs, totals, refs, rss, traced_totals, layers = [], [], [], [], [], [], []
    start = time.perf_counter()
    i, last = 0, 0.0
    # The window holds the set-up children too; an iteration starts only if
    # it is expected to end no more than half its length past the window.
    while i < 2 or time.perf_counter() - start + last / 2 < seconds:
        began = time.perf_counter()
        setups = 0 if trace else SETUP_FIRST if i == 0 else 1
        for _ in range(setups):
            wall, code, _ = spawn(setup_argv, budget, log)
            attempted += 1
            if code != 0:
                fail(f"set-up before invocation {i}", [f"exit code {code}"])
            setup.append(wall)
        traced = trace and i % 2 == 1
        if not trace:
            refs.append(reference_s())
            setup_refs += [refs[-1]] * setups
        out = work / f"out{i}"
        spans = work / f"spans{i}.json"
        argv = trace_argv(config, out, spans) if traced else run_argv(config, out)
        wall, code, peak = spawn(argv, budget, log)
        attempted += 1
        problems = reports.check(code, out)
        if traced and not problems:
            doc = json.loads(spans.read_text(encoding="utf-8"))
            layers.append(layer_metrics(span_stats(doc["spans"]), reports.info["report_bytes"]))
            if any(layers[-1][k] != layers[0][k] for k in layers[0] if layers[0][k][1] == "count"):
                problems.append("traced call counts differ from the first traced invocation")
        if problems:
            fail(f"invocation {i}", problems)
        (traced_totals if traced else totals).append(wall)
        if not traced:
            rss.append(peak)
        shutil.rmtree(out, ignore_errors=True)
        spans.unlink(missing_ok=True)
        i += 1
        last = time.perf_counter() - began

    info = reports.info
    result = {
        "workload": name,
        "why": WORKLOADS[name],
        "seed": seed,
        "trace": trace,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "digest": reports.digest,
        "pin": info.get("pin", "no report"),
        "records": info.get("records", 0),
        "optimizer_iterations": info.get("optimizer_iterations", 0),
        "end_to_end": {},
        "per_layer": {},
        "samples": {
            "wall_total_s": totals,
            "wall_setup_s": setup,
            "ref_s": refs,
            "peak_rss_mb": rss,
            "traced_total_s": traced_totals,
        },
    }
    if trace:
        for key, (_, unit) in (layers[0].items() if layers else ()):
            values = [layer[key][0] for layer in layers]
            result["per_layer"][key] = {"value": median(values), "unit": unit, "samples": len(values)}
        overhead = median(traced_totals) / median(totals) - 1
        result["per_layer"]["trace.overhead_share"] = {"value": overhead, "unit": "ratio", "samples": len(traced_totals)}
    else:
        scaled = {
            "total_s": [w * REF_NOMINAL_S / r for w, r in zip(totals, refs)],
            "setup_s": [w * REF_NOMINAL_S / r for w, r in zip(setup, setup_refs)],
        }
        values = {**scaled, "peak_rss_mb": rss, "wall_total_s": totals, "wall_setup_s": setup, "ref_s": refs}
        for key, samples in values.items():
            unit = END_TO_END.get(key, "s")
            result["end_to_end"][key] = {"value": median(samples), "unit": unit, "samples": len(samples)}
        # Fixed counts over total_s.  optimizer_iters_per_s is 0 on a
        # workload without estimates, so BENCHMARK.json does not gate it.
        total = result["end_to_end"]["total_s"]["value"]
        rates = {"records_per_s": result["records"], "optimizer_iters_per_s": result["optimizer_iterations"]}
        for key, count in rates.items():
            result["end_to_end"][key] = {"value": count / total, "unit": "1/s", "samples": len(totals)}
    return result


# ---------------------------------------------------------------------------
# environment and output


def environment() -> dict:
    env = {
        "git_sha": _git_sha(),
        "tool_version": _tool_version(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
    }
    env.update(_cpu())
    n = 256
    env["large_n_validation_temporary_bytes_computed"] = n**3 * 8
    return env


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git not available)"
    return out.stdout.strip() or "unknown"


def _tool_version() -> str:
    text = (SRC / "morrey_lab" / "__init__.py").read_text(encoding="utf-8")
    found = re.search(r'__version__\s*=\s*"([^"]+)"', text)
    return found.group(1) if found else "unknown"


def _cpu() -> dict:
    """CPU model and cache sizes, from lscpu or else /proc/cpuinfo."""
    cpu = {"cpu_model": "unknown", "l2_cache": "unknown", "l3_cache": "unknown"}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        out = ""
    for line in out.splitlines():
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key == "Model name":
            cpu["cpu_model"] = value
        elif key == "L2 cache":
            cpu["l2_cache"] = value
        elif key == "L3 cache":
            cpu["l3_cache"] = value
    if cpu["cpu_model"] == "unknown":
        try:
            text = Path("/proc/cpuinfo").read_text(encoding="utf-8", errors="replace")
        except OSError:
            text = ""
        for line in text.splitlines():
            key, _, value = line.partition(":")
            if key.strip() == "model name":
                cpu["cpu_model"] = value.strip()
            elif key.strip() == "cache size":
                cpu["l3_cache"] = value.strip() + " (cpuinfo cache size)"
    return cpu


def fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.4g}"


def print_row(result: dict):
    """One row: every metric of one run by name, unit and sample count."""
    block = "per_layer" if result["trace"] else "end_to_end"
    cells = [f"{k}={fmt(v['value'])} {v['unit']} (n={v['samples']})" for k, v in result[block].items()]
    cells.append(f"failed_share={result['failed']}/{result['attempted']}")
    cells.append(f"report={result['pin']}")
    label = f"{result['workload']}{' traced' if result['trace'] else ''}"
    print(f"{label:<17} " + "  ".join(cells), flush=True)


def check_checkout():
    missing = [str(p.relative_to(ROOT)) for p in (SRC / "morrey_lab" / "cli.py", CORPUS) if not p.is_file()]
    if missing:
        print(f"perfbench: not a morrey-lab checkout, missing {', '.join(missing)}", file=sys.stderr)
        raise SystemExit(2)


def result_path(name: str, seed: int, trace: bool) -> Path:
    return WORK / f"result-{name}-seed{seed}-trace{int(trace)}.json"


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced and traced, each run in a fresh process so
    that no run's parent memory shows in another run's children."""
    failed = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            path = result_path(name, seed, trace)
            path.unlink(missing_ok=True)
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
            argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL)
            try:
                proc.wait()
            except BaseException:
                proc.terminate()  # the run kills and reaps its own child
                proc.wait()
                raise
            if proc.returncode != 0 or not path.is_file():
                print(f"{name} trace={trace}: run exited with {proc.returncode}", flush=True)
                failed += 1
                continue
            result = json.loads(path.read_text(encoding="utf-8"))
            print_row(result)
            failed += result["failed"]
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), help="one run of one workload (default: all, as a table)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED, help="workload seed")
    ap.add_argument("--seconds", type=float, default=60.0, help="length of a run: set-up children and invocations")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics")
    args = ap.parse_args(argv)
    check_checkout()
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    WORK.mkdir(exist_ok=True)
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True), flush=True)
    if args.workload is None:
        return run_all(args.seed, args.seconds)

    trace = bool(args.trace)
    result = run_workload(args.workload, args.seed, args.seconds, trace)
    path = result_path(args.workload, args.seed, trace)
    path.write_text(json.dumps({"environment": env, **result}, indent=1) + "\n", encoding="utf-8")
    print_row(result)
    if trace:
        block = {k: v for k, v in result["per_layer"].items() if not k.startswith(NOT_GATED)}
    else:
        block = {k: result["end_to_end"][k] for k in END_TO_END}
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in block.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
