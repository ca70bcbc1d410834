"""Run one `vpl` command in this process and time it from outside the program.

    python3 child.py --src SRC --entry SPAN --probe FILE [--trace] -- VPL_ARGS...

Imports `vplab` from SRC, wraps the main-loop entry point SPAN with a
time stamp and a step counter, optionally wraps every span in SPANS with a
call counter and a self timer, runs `vplab.cli.main(VPL_ARGS)` and writes
what it saw to FILE as JSON. The exit code is the command's exit code.
"""

import argparse
import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

# Per-layer span name -> the callables it times. A dotted path names a
# module function ("module.func") or a class attribute ("module.Class.attr").
SPANS = {
    "grid.NormSuite.sigma_sq_batch": ["grid.NormSuite.sigma_sq_batch"],
    "grid.NormSuite.sigma_form": ["grid.NormSuite.sigma_form"],
    "collision.CollisionAssembly": ["collision.CollisionAssembly.__init__"],
    "collision.assemble_sigma": ["collision.assemble_sigma"],
    "collision.build_K_dense": ["collision.CollisionAssembly.build_K_dense"],
    "collision.apply_K": ["collision.CollisionAssembly.apply_K"],
    "collision.apply_A": ["collision.CollisionAssembly.apply_A"],
    "collision.coercivity_probe": ["collision.coercivity_probe"],
    "collision.GammaOp.coefficients": ["collision.GammaOp.coefficients"],
    "collision.GammaOp.apply": ["collision.GammaOp.apply"],
    "macroscopic.moment_residuals": ["macroscopic.moment_residuals"],
    "macroscopic.solve_poisson": ["macroscopic.solve_poisson"],
    "macroscopic.MacroProjector.split": ["macroscopic.MacroProjector.split"],
    "lineardecay.whole_space_decay": ["lineardecay.whole_space_decay"],
    "lineardecay.evolve_mode": ["lineardecay.evolve_mode"],
    "lineardecay.ModeOperator": ["lineardecay.ModeOperator.__init__"],
    "lineardecay.ModeOperator.propagators": ["lineardecay.ModeOperator.propagators"],
    "solver.Simulation": ["solver.Simulation.__init__"],
    "solver.Simulation.step": ["solver.Simulation.step"],
    "solver.Simulation.forcing": ["solver.Simulation.forcing"],
    "solver.energy_report": ["solver.energy_report"],
    "cli.write": ["cli.write_json", "cli.write_csv", "cli.write_snapshots"],
}

# Exact counts recorded beside the spans, with their units.
COUNTERS = {"collision.fft3d.calls": "count", "lineardecay.mode_steps": "count",
            "lineardecay.propagator_bytes": "B", "cli.write.bytes": "B"}


def patch(path, make):
    """Replace the callable at `path` with make(callable) wherever vplab looks it up.

    A class attribute is looked up on the class, so replacing it there is
    enough. A module function may also have been imported by name into other
    vplab modules (`from .collision import coercivity_probe`); every module
    global that holds the original is replaced, or those call sites would
    bypass the wrapper.
    """
    parts = path.split(".")
    mod = importlib.import_module("vplab." + parts[0])
    if len(parts) == 3:
        cls = getattr(mod, parts[1])
        setattr(cls, parts[2], make(cls.__dict__[parts[2]]))
        return
    orig = getattr(mod, parts[1])
    new = make(orig)
    for name, module in list(sys.modules.items()):
        if name == "vplab" or name.startswith("vplab."):
            for attr, val in list(vars(module).items()):
                if val is orig:
                    setattr(module, attr, new)


def mode_steps_of(fn):
    """Steps `evolve_mode` will take, read from its own arguments."""
    sig = inspect.signature(fn)

    def steps(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        return int(round(bound.arguments["t_end"] / bound.arguments["dt"]))
    return steps


class Tracer:
    """Call counts and self times of nested spans, kept in memory."""

    def __init__(self):
        self.stats = {}          # span name -> [calls, self seconds]
        self.open = []           # seconds covered by children of each open span
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.step_s = []         # duration of every solver.Simulation.step

    def span(self, name, fn, durations=None):
        stats = self.stats.setdefault(name, [0, 0.0])
        open_ = self.open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stats[0] += 1
                stats[1] += dur - open_.pop()
                if open_:
                    open_[-1] += dur
                if durations is not None:
                    durations.append(dur)
        return wrapper

    def install(self):
        import numpy.fft
        counters = self.counters

        def count_fft(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counters["collision.fft3d.calls"] += 1
                return fn(*args, **kwargs)
            return wrapper
        numpy.fft.rfftn = count_fft(numpy.fft.rfftn)
        numpy.fft.irfftn = count_fft(numpy.fft.irfftn)

        def count_mode_steps(fn):
            steps = mode_steps_of(fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counters["lineardecay.mode_steps"] += steps(args, kwargs)
                return fn(*args, **kwargs)
            return wrapper

        def count_propagator_bytes(fn):
            # computed, not measured: two dense complex n x n per build
            @functools.wraps(fn)
            def wrapper(op, *args, **kwargs):
                before = len(op._props)
                out = fn(op, *args, **kwargs)
                n = op.Bs.shape[0]
                counters["lineardecay.propagator_bytes"] += (
                    (len(op._props) - before) * 2 * n * n * 16)
                return out
            return wrapper

        def count_write_bytes(fn):
            @functools.wraps(fn)
            def wrapper(path, *args, **kwargs):
                out = fn(path, *args, **kwargs)
                counters["cli.write.bytes"] += os.path.getsize(path)
                return out
            return wrapper

        inner = {"lineardecay.evolve_mode": count_mode_steps,
                 "lineardecay.ModeOperator.propagators": count_propagator_bytes,
                 "cli.write_json": count_write_bytes,
                 "cli.write_csv": count_write_bytes,
                 "cli.write_snapshots": count_write_bytes}
        for name, paths in SPANS.items():
            durations = self.step_s if name == "solver.Simulation.step" else None
            for path in paths:
                count = inner.get(path, lambda fn: fn)
                patch(path, lambda fn, name=name, count=count, durations=durations:
                      self.span(name, count(fn), durations))

    def report(self):
        return {"spans": {k: {"calls": c, "self_s": s}
                          for k, (c, s) in self.stats.items()},
                "counters": self.counters,
                "step_s": self.step_s}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--entry", required=True, help="dotted path of the main-loop entry")
    ap.add_argument("--probe", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("vpl_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    vpl_args = args.vpl_args[1:] if args.vpl_args[:1] == ["--"] else args.vpl_args

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import vplab
    import vplab.cli
    if not Path(vplab.__file__).resolve().is_relative_to(src):
        print(f"vplab imported from {vplab.__file__}, not from {src}", file=sys.stderr)
        return 2

    probe = {"entry_t": None, "steps": 0}
    main_fn = vplab.cli.main
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        main_fn = tracer.span("cli.main", main_fn)

    def stamp(fn):
        steps = (mode_steps_of(fn) if args.entry == "lineardecay.evolve_mode"
                 else lambda a, k: 1)

        @functools.wraps(fn)
        def wrapper(*a, **k):
            if probe["entry_t"] is None:
                probe["entry_t"] = time.monotonic()
            probe["steps"] += steps(a, k)
            return fn(*a, **k)
        return wrapper
    patch(args.entry, stamp)

    try:
        rc = main_fn(vpl_args)
    finally:
        if tracer is not None:
            probe.update(tracer.report())
        Path(args.probe).write_text(json.dumps(probe), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
