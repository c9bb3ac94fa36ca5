"""Traced `morrey-lab run`: one CLI invocation with a span around every call
into a public ``morrey_lab`` function.

    python3 perfbench/trace_child.py CONFIG OUT_DIR SPANS_JSON

The wrappers live here, not in the package, and are installed at every
module attribute that resolves to the wrapped function (``maximal`` is
wrapped as ``morrey_lab.operators.maximal``, ``morrey_lab.theorems.maximal``,
``morrey_lab.extremal.maximal`` and ``morrey_lab.cli.maximal``), so calls
inside a module are seen as well as calls across modules.  Spans stay in
memory and are written to SPANS_JSON when the run ends.  Return values pass
through untouched, so ``report.json`` is byte-identical to an untraced run.
"""

import functools
import inspect
import json
import sys
import time
import tracemalloc

import numpy as np

import morrey_lab
from morrey_lab import cli

# Per-draw primitives of the counter-based stream: rng.u64 alone is called
# about 800k times at n=256, so wrapping them would swamp the measurement.
NOT_WRAPPED = {"rng.u64", "rng.uniform01", "rng.uniform", "rng.randint_below"}

# Functions whose inputs are keyed, so that a run can say how many calls
# repeated an earlier call's inputs.  The key is the space's identity plus
# the bytes of ``f`` (or, for enumerate_balls, plus limit and seed) and the
# remaining arguments with defaults filled in.
KEYED_BY_F = {"operators.maximal", "operators.fractional_integral", "functions.morrey_norm"}
KEYED_BY_ARGS = {"theorems.enumerate_balls"}


class Tracer:
    """Records spans as ``[name, start, end, parent, attrs]`` lists."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.spaces = {}  # id -> space, held so that ids are never reused

    def _space_id(self, space):
        self.spaces.setdefault(id(space), space)
        return id(space)

    def _attrs(self, name, args, kwargs, rest_params):
        if name not in KEYED_BY_F and name not in KEYED_BY_ARGS:
            return None
        space = args[0] if args else kwargs["space"]
        tail = list(args[1:])
        for pname, default in rest_params[len(tail):]:
            tail.append(kwargs.get(pname, default))
        if name in KEYED_BY_F:
            f = np.asarray(tail[0], dtype=float).tobytes()
            key = hash((self._space_id(space), f, repr(tail[1:])))
            return {"key": key, "n": int(space.n)}
        return {"key": hash((self._space_id(space), repr(tail))), "n": int(space.n)}

    def wrap(self, name, fn, attrs_of=None):
        params = list(inspect.signature(fn).parameters.values())[1:]
        rest_params = [(p.name, p.default) for p in params]
        measure_alloc = name == "space.validate_space"
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = attrs_of(args) if attrs_of else self._attrs(name, args, kwargs, rest_params)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, attrs]
            spans.append(span)
            stack.append(index)
            alloc = measure_alloc and not tracemalloc.is_tracing()
            if alloc:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if alloc:
                    span[4] = {"peak_alloc_bytes": tracemalloc.get_traced_memory()[1]}
                    tracemalloc.stop()
            if name == "extremal.make_objective":
                check = args[1] if len(args) > 1 else kwargs["check_id"]
                return self.wrap("extremal.objective", result, attrs_of=lambda _a, c=check: {"check": c})
            return result

        return traced


def public_functions():
    """Every public function defined in morrey_lab, mapped to its short name."""
    out = {}
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("morrey_lab.") or module is None:
            continue
        short = modname[len("morrey_lab.") :]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != modname:
                continue
            name = f"{short}.{attr}"
            if name not in NOT_WRAPPED:
                out[obj] = name
    return out


def install(tracer):
    """Replace every module attribute that resolves to a public function."""
    wrapped = {fn: tracer.wrap(name, fn) for fn, name in public_functions().items()}
    modules = [m for k, m in sys.modules.items() if k == "morrey_lab" or k.startswith("morrey_lab.")]
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])


def main(config, out_dir, spans_path):
    tracer = Tracer()
    install(tracer)
    code = cli.main(["--quiet", "run", config, "--out", out_dir])
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"tool_version": morrey_lab.__version__, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:4]))
