"""vplab benchmark: run a `vpl` workload in a closed loop, check it, print metrics.

    python3 perfbench/run.py --workload decay --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

One driving process launches one fresh `vpl` process at a time (through
child.py) until --seconds have passed since the first launch, and always at
least once; with --trace 1 it alternates traced and untraced invocations and
makes at least one of each. Every invocation's outputs are checked (exit
code, key scalars against reference.json, output bytes against earlier runs
of the same source), and a failed check counts in `failed`.

--trace 0 reports the end-to-end metrics of the untraced invocations;
--trace 1 reports per-layer call counts, self times and exact counters of the
traced invocations. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines above it give each metric
with its unit, fail_rate and the run environment. Results are also kept in
.perfbench_runs/results/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from child import COUNTERS, SPANS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"
REFERENCE = HERE / "reference.json"

# Seeded workloads map --seed onto this many inputs; each has a stored
# reference, so every input the benchmark can make is checked.
N_VARIANTS = 16
RUN_LIMIT_S = 170.0

REL = ("rel", 1e-7)        # roundoff, and the 1e-8 trajectory bound of criterion 8
ROUNDOFF = ("abs", 1e-11)  # quantities that are themselves roundoff
EXACT = ("abs", 0)

# Each workload is one `vpl` command. `entry` is the main loop's entry point:
# set-up ends when it is first called, and it counts the steps.
WORKLOADS = {
    "simulate": {
        "argv": ["simulate", "--nv", "8", "--nx", "32", "--dt", "0.05",
                 "--t-end", "1.0"],
        "config": {"initial_data": {"kind": "noise"}},
        "seeded": True,
        "entry": "solver.Simulation.step",
        "report": "simulate_report.json",
        "checks": {"E_final": REL, "min_F_final": REL},
        "predicted": ["collision.CollisionAssembly", "collision.assemble_sigma",
                  "collision.GammaOp.coefficients", "collision.GammaOp.apply",
                  "collision.fft3d.calls", "lineardecay.ModeOperator",
                  "lineardecay.ModeOperator.propagators",
                  "lineardecay.propagator_bytes", "solver.Simulation",
                  "solver.Simulation.step", "solver.Simulation.forcing",
                  "solver.energy_report", "macroscopic.solve_poisson",
                  "macroscopic.MacroProjector.split", "cli.write"],
    },
    "decay": {
        "argv": ["decay", "--gamma", "0", "--m", "0"],
        "config": {"decay": {"data": "mixed", "n_y": 12, "t_end": 50.0,
                             "fit_lo": 10.0, "fit_hi": 50.0}},
        "seeded": True,
        "entry": "lineardecay.evolve_mode",
        "report": "decay_report.json",
        "checks": {"slope": REL, "r2": REL, "total_violations": EXACT},
        "predicted": ["collision.CollisionAssembly", "collision.assemble_sigma",
                  "collision.build_K_dense", "lineardecay.whole_space_decay",
                  "lineardecay.evolve_mode", "lineardecay.mode_steps",
                  "lineardecay.ModeOperator",
                  "lineardecay.ModeOperator.propagators",
                  "lineardecay.propagator_bytes",
                  "grid.NormSuite.sigma_sq_batch", "cli.write"],
    },
    "moments": {
        "argv": ["moments-check", "--nv", "12", "--nx", "4"],
        "config": {},
        "seeded": False,
        "entry": "solver.Simulation.step",
        "report": "moments_report.json",
        "checks": {"min_order": REL},
        "predicted": ["collision.CollisionAssembly", "collision.assemble_sigma",
                  "collision.GammaOp.coefficients", "collision.GammaOp.apply",
                  "collision.fft3d.calls", "collision.apply_K",
                  "collision.apply_A", "lineardecay.ModeOperator",
                  "lineardecay.ModeOperator.propagators",
                  "lineardecay.propagator_bytes", "solver.Simulation",
                  "solver.Simulation.step", "solver.Simulation.forcing",
                  "macroscopic.moment_residuals", "macroscopic.solve_poisson",
                  "macroscopic.MacroProjector.split", "cli.write"],
    },
    "coercivity": {
        "argv": ["collision-check", "--nv", "12", "--gamma", "0"],
        "config": {},
        "seeded": False,
        "entry": "collision.coercivity_probe",
        "report": "collision_report.json",
        "checks": {"lambda_h": REL, "null_residual_max": ROUNDOFF,
                   "sigma_fft_vs_direct": ROUNDOFF},
        "predicted": ["collision.CollisionAssembly", "collision.assemble_sigma",
                  "collision.coercivity_probe", "collision.build_K_dense",
                  "collision.apply_K", "collision.apply_A",
                  "grid.NormSuite.sigma_form", "cli.write"],
    },
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s",
              "peak_rss_mb": "MB"}


def program_seed(workload, seed):
    return seed % N_VARIANTS if WORKLOADS[workload]["seeded"] else 0


def thread_env():
    """Child environment: BLAS/OpenMP threads pinned to the usable cores."""
    n = str(len(os.sched_getaffinity(0)))
    pins = {k: n for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                           "MKL_NUM_THREADS")}
    env = dict(os.environ, **pins)
    env.pop("PYTHONPATH", None)
    return env, pins


def source_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "vplab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def output_digest(out_dir):
    h = hashlib.sha256()
    for path in sorted(out_dir.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(out_dir)).encode() + b"\0")
            h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def invoke(workload, pseed, trace, deadline):
    """Launch one `vpl` process through child.py; time it and read its probe."""
    wl = WORKLOADS[workload]
    base = WORK / workload
    out_dir, probe = base / "out", base / "probe.json"
    shutil.rmtree(base, ignore_errors=True)
    out_dir.mkdir(parents=True)
    argv = list(wl["argv"])
    if wl["config"]:
        cfg = base / "config.json"
        cfg.write_text(json.dumps(wl["config"]), encoding="utf-8")
        argv += ["--config", str(cfg)]
    cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC),
           "--entry", wl["entry"], "--probe", str(probe)]
    cmd += ["--trace"] * trace + ["--"] + argv + ["--seed", str(pseed),
                                                 "--out", str(out_dir)]
    env, _ = thread_env()
    with open(base / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=err, stderr=err)
        timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        t1 = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {"trace": bool(trace), "rc": proc.returncode, "wall_s": t1 - t0,
              "peak_rss_mb": usage.ru_maxrss / 1024.0, "errors": []}
    if probe.exists():
        p = json.loads(probe.read_text(encoding="utf-8"))
        sample.update(p)
        if p["entry_t"] is not None:
            sample["setup_s"] = p["entry_t"] - t0
            sample["steps_per_s"] = p["steps"] / (t1 - p["entry_t"])
    if proc.returncode != 0:
        tail = (base / "stderr.txt").read_text(errors="replace").strip()[-400:]
        sample["errors"].append(f"exit code {proc.returncode}: {tail}")
    if "setup_s" not in sample:
        sample["errors"].append(f"{wl['entry']} was never entered")
    report = out_dir / wl["report"]
    if proc.returncode == 0 and report.exists():
        sample["report"] = json.loads(report.read_text(encoding="utf-8"))
        sample["digest"] = output_digest(out_dir)
    elif proc.returncode == 0:
        sample["errors"].append(f"{wl['report']} missing")
    return sample


def check_reference(workload, pseed, sample, reference):
    """Key report scalars against the stored reference for this input."""
    ref = reference[workload][str(pseed)]
    for key, (kind, tol) in WORKLOADS[workload]["checks"].items():
        got, want = sample["report"].get(key), ref[key]
        if not isinstance(got, (int, float)):
            sample["errors"].append(f"{key} = {got!r} is not a number")
            continue
        err = abs(got - want) / (abs(want) if kind == "rel" else 1.0)
        if not err <= tol:
            sample["errors"].append(
                f"{key} = {got!r}, reference {want!r}: {kind} error {err:.3g} > {tol:g}")


def check_digest(workload, pseed, samples, src_sha):
    """Output bytes must match every earlier run of the same source and input.

    Digests persist in .perfbench_runs/digests.json, so a run is compared with
    the invocations before it in this run and with earlier runs in this
    checkout (the criterion-12 determinism check across runs).
    """
    store = WORK / "digests.json"
    digests = json.loads(store.read_text()) if store.exists() else {}
    wl = WORKLOADS[workload]
    command = json.dumps([wl["argv"], wl["config"], pseed], sort_keys=True)
    key = f"{src_sha}:{workload}:{hashlib.sha256(command.encode()).hexdigest()[:16]}"
    for s in samples:
        if "digest" not in s:
            continue
        want = digests.setdefault(key, s["digest"])
        if s["digest"] != want:
            s["errors"].append("output bytes differ from an earlier run")
    store.write_text(json.dumps(digests, indent=1, sort_keys=True))


def check_trace(workload, traced):
    """Every predicted span ran, and exact counts agree across invocations."""
    first = traced[0]
    for name in WORKLOADS[workload]["predicted"]:
        calls = (first.get("counters", {}).get(name)
                 if name in first.get("counters", {})
                 else first.get("spans", {}).get(name, {}).get("calls", 0))
        if not calls:
            first["errors"].append(f"predicted span {name} reads calls == 0")
    exact = lambda s: ({k: v["calls"] for k, v in s.get("spans", {}).items()},
                       s.get("counters"))
    for s in traced[1:]:
        if exact(s) != exact(first):
            s["errors"].append("call counts differ between traced invocations")


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def describe(values):
    """Median, the highest percentile with at least ten samples beyond it, n."""
    n = len(values)
    text = f"median={statistics.median(values):.6g}"
    for p in (99, 95, 90, 75):
        if n * (1 - p / 100.0) >= 10:
            text += f" p{p}={percentile(values, p):.6g}"
            break
    return text + f" n={n}"


def end_to_end(samples):
    metrics = {}
    for name, unit in END_TO_END.items():
        values = [s[name] for s in samples if name in s]
        metrics[name] = {"value": statistics.median(values) if values else None,
                         "unit": unit, "summary": describe(values) if values else "n=0"}
    return metrics


def per_layer(traced, untraced):
    metrics = {}
    span = lambda s, name: s.get("spans", {}).get(name, {"calls": 0, "self_s": 0.0})
    # call counts and counters repeat exactly (check_trace), so the first is taken
    for name in SPANS:
        metrics[f"{name}.calls"] = {"value": span(traced[0], name)["calls"],
                                    "unit": "count"}
        metrics[f"{name}.self_s"] = {
            "value": statistics.median(span(s, name)["self_s"] for s in traced),
            "unit": "s"}
    metrics["cli.main.self_s"] = {
        "value": statistics.median(span(s, "cli.main")["self_s"] for s in traced),
        "unit": "s"}
    for name, unit in COUNTERS.items():
        metrics[name] = {"value": traced[0].get("counters", {}).get(name, 0), "unit": unit}
    steps = [d for s in traced for d in s.get("step_s", [])]
    for p in (50, 90):
        metrics[f"solver.Simulation.step.p{p}_s"] = {
            "value": percentile(steps, p) if len(steps) > 1 else 0.0, "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": (statistics.median(s["wall_s"] for s in traced)
                  - statistics.median(s["wall_s"] for s in untraced)), "unit": "s"}
    return metrics


def environment(workloads, seed, samples_by_workload):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip() or None
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit, "source_sha256": source_sha256(),
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "threads": thread_env()[1],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "config_hash": {w: sorted({s["report"]["config_hash"]
                                   for s in samples_by_workload[w] if "report" in s})
                        for w in workloads},
        "seed": seed,
        "program_seed": {w: program_seed(w, seed) for w in workloads},
    }


def run_workload(workload, seed, seconds, trace, reference, src_sha):
    pseed = program_seed(workload, seed)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    samples = []
    while True:
        traced = trace and len(samples) % 2 == 0
        samples.append(invoke(workload, pseed, traced, deadline))
        enough = not trace or len(samples) >= 2
        if enough and time.monotonic() - start >= seconds:
            break
        if time.monotonic() >= deadline:
            break
    for s in samples:
        if "report" in s:
            check_reference(workload, pseed, s, reference)
    check_digest(workload, pseed, samples, src_sha)
    traced = [s for s in samples if s["trace"]]
    untraced = [s for s in samples if not s["trace"]]
    if trace and traced:
        check_trace(workload, traced)
    return samples, traced, untraced


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "vplab" / "__init__.py").is_file():
        print(f"no vplab sources under {SRC}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    src_sha = source_sha256()

    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    all_samples, metrics = {}, {}
    attempted = failed = 0
    for w in workloads:
        samples, traced, untraced = run_workload(w, args.seed, args.seconds,
                                                 args.trace, reference, src_sha)
        all_samples[w] = samples
        attempted += len(samples)
        bad = [s for s in samples if s["errors"]]
        failed += len(bad)
        for s in bad:
            for e in s["errors"]:
                print(f"{w}: FAILED check: {e}")
        m = per_layer(traced, untraced) if args.trace else end_to_end(untraced)
        print(f"{w}: fail_rate = {len(bad)}/{len(samples)} = "
              f"{len(bad) / len(samples):.3g} failed/attempted")
        for name, v in m.items():
            print(f"{w}: {name} = {v['value']} {v['unit']}"
                  + (f"  ({v['summary']})" if "summary" in v else ""))
            key = name if len(workloads) == 1 else f"{w}.{name}"
            metrics[key] = {"value": v["value"], "unit": v["unit"]}

    env = environment(workloads, args.seed, all_samples)
    print("environment: " + json.dumps(env, sort_keys=True))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = {"args": vars(args), "environment": env, "metrics": metrics,
              "samples": {w: [{k: v for k, v in s.items() if k != "report"}
                              for s in ss] for w, ss in all_samples.items()}}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
