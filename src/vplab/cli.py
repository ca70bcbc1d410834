"""Command-line front end: run files, seeding, persistence, reports.

Every output embeds the hash of the fully resolved configuration, outputs
carry no wall-clock state, and all randomness flows through a counter-based
generator keyed by the seed, so identical config + seed reproduce outputs
byte for byte. Exit codes: 0 success, 1 check or runtime failure (one
line on stderr), 2 config error.
"""

import argparse
import hashlib
import io as _io
import json
import math
import sys
import zipfile
from pathlib import Path

import numpy as np

from .grid import build_grid, from_split, maxwellian, split_matvec, to_split
from .collision import CollisionAssembly, assemble_sigma, coercivity_probe
from .macroscopic import moment_residuals
from .lineardecay import default_y_max, whole_space_decay
from .solver import (Simulation, TwoSpeciesField, make_initial_data,
                     energy_report, PsiWeight, energy_inequality_monitor,
                     check_propagator_budget, kept_modes)
from . import weyl


class ConfigError(Exception):
    pass


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v):
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


def _is_bool(v):
    return isinstance(v, bool)


def _is_str(v):
    return isinstance(v, str) and v != ""


# The run-file schema, one row per key: (block, key, default, flag or None,
# type check, range check, what the value must be). A key whose default is
# null also takes null. DEFAULTS, the checks of _validate and the flags of
# build_parser are all read from this table.
_KEYS = [
    ("grid", "nv", 8, "--nv", _is_int, lambda v: v >= 8 and v % 2 == 0,
     "an even integer >= 8"),
    ("grid", "vmax", 6.0, None, _is_number, lambda v: v > 0, "a positive number"),
    ("grid", "nx", 32, "--nx", _is_int, lambda v: v >= 1 and v & (v - 1) == 0,
     "a power of two"),
    ("grid", "lx", float(np.pi), None, _is_number, lambda v: v > 0, "a positive number"),
    ("physics", "gamma", 0.0, "--gamma", _is_number, lambda v: -3.0 <= v <= 1.0,
     "a number in [-3, 1]"),
    ("physics", "K", 3, "--K", _is_int, lambda v: v >= 0, "a nonnegative integer"),
    ("physics", "l", 3.0, "--l", _is_number, lambda v: True, "a finite number"),
    ("physics", "psi_mode", "one", "--psi", _is_str, lambda v: v in ("one", "tn"),
     "'one' or 'tn'"),
    ("physics", "lambda_h", None, None, _is_number, lambda v: v > 0,
     "null or a positive number"),
    ("scheme", "dt", 0.05, "--dt", _is_number, lambda v: v > 0, "a positive number"),
    ("scheme", "t_end", 5.0, "--t-end", _is_number, lambda v: v > 0, "a positive number"),
    ("scheme", "snapshot_every", 5, None, _is_int, lambda v: v >= 1, "an integer >= 1"),
    ("scheme", "disable_gamma", False, "--disable-gamma", _is_bool, lambda v: True,
     "true or false"),
    ("scheme", "disable_field_nl", False, None, _is_bool, lambda v: True, "true or false"),
    ("io", "out_dir", ".", "--out", _is_str, lambda v: True, "a non-empty string"),
    ("decay", "m", 0, "--m", _is_int, lambda v: v >= 0, "a nonnegative integer"),
    ("decay", "l", 0.0, None, _is_number, lambda v: True, "a finite number"),
    ("decay", "l_star", None, None, _is_number, lambda v: v >= 0,
     "null or a nonnegative number"),
    ("decay", "y_min", 0.02, None, _is_number, lambda v: v > 0, "a positive number"),
    ("decay", "y_max", None, None, _is_number, lambda v: v > 0, "null or a positive number"),
    ("decay", "n_y", 48, None, _is_int, lambda v: v >= 2, "an integer >= 2"),
    ("decay", "t_end", 100.0, None, _is_number, lambda v: v > 0, "a positive number"),
    ("decay", "fit_lo", 10.0, None, _is_number, lambda v: v > 0, "a positive number"),
    ("decay", "fit_hi", 100.0, None, _is_number, lambda v: v > 0, "a positive number"),
    ("decay", "data", "macroscopic", None, _is_str,
     lambda v: v in ("macroscopic", "mixed"), "'macroscopic' or 'mixed'"),
    ("initial_data", "kind", "macroscopic", None, _is_str,
     lambda v: v in ("macroscopic", "noise", "file"), "'macroscopic', 'noise' or 'file'"),
    ("initial_data", "amplitude", 1e-3, None, _is_number, lambda v: True, "a finite number"),
    ("initial_data", "mode", 1, None, _is_int, lambda v: v >= 1, "a positive integer"),
    ("initial_data", "asym", 0.25, None, _is_number, lambda v: True, "a finite number"),
    ("initial_data", "path", None, None, _is_str, lambda v: True,
     "null or a non-empty string"),
]

DEFAULTS = {}
for _block, _key, _default, *_ in _KEYS:
    DEFAULTS.setdefault(_block, {})[_key] = _default
DEFAULTS["seed"] = 0


def _validate(cfg, overrides=()):
    """Merge a run file over DEFAULTS, apply flag overrides, check the result.

    `overrides` holds (path, value) pairs from command-line flags. Every
    value is checked after the merge, so a bad flag fails like a bad file.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("run file must hold a JSON object")
    out = json.loads(json.dumps(DEFAULTS))
    for block, val in cfg.items():
        if block == "seed":
            out[block] = val
            continue
        if block not in DEFAULTS:
            raise ConfigError(f"unknown config block '{block}'")
        if not isinstance(val, dict):
            raise ConfigError(f"config block '{block}' must be an object")
        for key, v in val.items():
            if key not in DEFAULTS[block]:
                raise ConfigError(f"unknown config key '{block}.{key}'")
            out[block][key] = v
    for dest, val in overrides:
        node = out
        for k in dest[:-1]:
            node = node[k]
        node[dest[-1]] = val
    if not _is_int(out["seed"]) or out["seed"] < 0:
        raise ConfigError("config key 'seed' must be a nonnegative integer")
    for block, key, default, _, is_type, in_range, what in _KEYS:
        v = out[block][key]
        if v is None and default is None:
            continue
        if not (is_type(v) and in_range(v)):
            raise ConfigError(f"config key '{block}.{key}' must be {what}, got {v!r}")
    if out["scheme"]["t_end"] < out["scheme"]["dt"]:
        raise ConfigError("config key 'scheme.t_end' must be >= scheme.dt")
    dc = out["decay"]
    y_max, key = dc["y_max"], "decay.y_max"
    if y_max is None:       # the default upper end is fixed, so y_min is at fault
        y_max, key = default_y_max(out["physics"]["gamma"]), "decay.y_min"
    if y_max <= dc["y_min"]:
        raise ConfigError(f"config key '{key}' must give decay.y_min < decay.y_max, "
                          f"got {dc['y_min']:g} and {y_max:g}")
    if dc["fit_hi"] <= dc["fit_lo"]:
        raise ConfigError("config key 'decay.fit_hi' must be > decay.fit_lo")
    if dc["fit_lo"] >= dc["t_end"]:
        raise ConfigError("config key 'decay.fit_lo' must be < decay.t_end")
    return out


def _read_initial_file(cfg):
    """The array f of the initial-data file, or None unless initial_data.kind is 'file'.

    The file is read once, here, and refused unless `make_initial_data` can use it.
    """
    if cfg["initial_data"]["kind"] != "file":
        return None
    path, grid = cfg["initial_data"]["path"], cfg["grid"]
    shape = (2, grid["nx"], grid["nv"] ** 3)
    what = (f"config key 'initial_data.path' must name an .npz file holding a finite "
            f"array f of shape {shape} when initial_data.kind is 'file'")
    if not isinstance(path, str):
        raise ConfigError(what)
    try:
        with np.load(path, allow_pickle=False) as z:
            f = z["f"]
    except (OSError, ValueError, KeyError, TypeError, zipfile.BadZipFile) as e:
        raise ConfigError(f"{what}: {type(e).__name__}: {e}")
    if f.shape != shape or f.dtype.kind not in "fiu" or not np.all(np.isfinite(f)):
        raise ConfigError(f"{what}; {path} holds f of shape {f.shape}, dtype {f.dtype}")
    return f


def _check_initial_mode(cfg):
    """Refuse macroscopic data on an x-mode above the 2/3 rule cutoff, which a
    `Simulation` would drop."""
    idc = cfg["initial_data"]
    K = kept_modes(cfg["grid"]["nx"])
    if idc["kind"] == "macroscopic" and idc["mode"] >= K:
        raise ConfigError(f"config key 'initial_data.mode' must be below {K}, the x-modes "
                          f"the 2/3 rule keeps at grid.nx = {cfg['grid']['nx']}, "
                          f"got {idc['mode']}")


def config_hash(cfg):
    """Hash of the resolved configuration, excluding io destinations."""
    hashed = {k: v for k, v in cfg.items() if k != "io"}
    text = json.dumps(hashed, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def write_json(path, obj, cfg_h):
    rec = dict(_jsonable(obj))
    rec["config_hash"] = cfg_h
    Path(path).write_text(
        json.dumps(rec, sort_keys=True, ensure_ascii=False, indent=1) + "\n",
        encoding="utf-8",
    )


def write_csv(path, header, rows, cfg_h):
    lines = [f"# config_hash={cfg_h}", ",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_snapshots(path, arrays, cfg_h):
    """Deterministic array container: zip of .npy members, fixed timestamps."""
    stamp = (1980, 1, 1, 0, 0, 0)
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        meta = {"config_hash": cfg_h,
                "members": {k: {"shape": list(np.asarray(v).shape),
                                "dtype": str(np.asarray(v).dtype)}
                            for k, v in arrays.items()}}
        for name, arr in arrays.items():
            buf = _io.BytesIO()
            np.save(buf, np.asarray(arr))
            zf.writestr(zipfile.ZipInfo(name + ".npy", date_time=stamp), buf.getvalue())
        zf.writestr(zipfile.ZipInfo("__meta__.json", date_time=stamp),
                    json.dumps(meta, sort_keys=True).encode("utf-8"))


def _assembly_from(cfg, g):
    mw = maxwellian(g)
    asm = CollisionAssembly(g, mw, cfg["physics"]["gamma"])
    return mw, asm


def _simulation_grid(cfg):
    """The configured grid, refused before any assembly if its propagators do not fit."""
    g = build_grid(**cfg["grid"])
    check_propagator_budget(g)
    return g


def _initial_field(cfg, g, mw, amplitude, asym, f_file):
    idc = cfg["initial_data"]
    f0 = make_initial_data(g, mw, idc["kind"], amplitude, idc["mode"], asym,
                           cfg["seed"], f_file)
    return TwoSpeciesField(f0, g, mw)


def _run_with_energy(cfg, out_dir, cfg_h, f_file):
    """Run the configured trajectory, one energy report per snapshot; write energy.csv."""
    g = _simulation_grid(cfg)
    mw, asm = _assembly_from(cfg, g)
    K, l = cfg["physics"]["K"], cfg["physics"]["l"]
    with np.errstate(over="ignore"):
        if not np.isfinite(asm.weight.pow(l)).all():
            raise RuntimeError(f"physics.l = {l:g} overflows w^l on the velocity box, so "
                               "the energy and dissipation would be non-finite")
    sc = cfg["scheme"]
    sim = Simulation(asm, sc["dt"], disable_gamma=sc["disable_gamma"],
                     disable_field_nl=sc["disable_field_nl"])
    idc = cfg["initial_data"]
    state = _initial_field(cfg, g, mw, idc["amplitude"], idc["asym"], f_file)
    psi = PsiWeight(cfg["physics"]["psi_mode"])
    reports = []

    def cb(st):
        with np.errstate(over="ignore", invalid="ignore"):      # refused below instead
            rep = energy_report(st, asm, K, l, psi, sim.projector)
        if not np.isfinite([rep.E_total, rep.Eh_total, rep.D_total]).all():
            # w^l is finite: the squares of the weighted state overflow
            raise RuntimeError(f"the energy or dissipation is non-finite at t = {st.t:g}, "
                               f"max |f| = {np.abs(st.f).max():.3e}: the initial data "
                               f"(initial_data.kind = {idc['kind']!r}, initial_data.amplitude "
                               f"= {idc['amplitude']:g}) are too large")
        reports.append(rep)

    snaps = sim.run(state, sc["t_end"], sc["snapshot_every"], callback=cb)
    keys = sorted(reports[0].summands)
    header = ["t"] + keys + ["E_total", "Eh_total", "D_total", "dtphi_inf",
                             "z1", "min_F", "div_E_residual"]
    rows = [[r.t] + [r.summands[k] for k in keys]
            + [r.E_total, r.Eh_total, r.D_total, r.dtphi_inf, r.z1, r.min_F,
               r.div_E_residual] for r in reports]
    write_csv(out_dir / "energy.csv", header, rows, cfg_h)
    return asm, snaps, reports


def _missed(*checks):
    """The messages of the (holds, message) checks that fail, in order."""
    return [message for holds, message in checks if not holds]


def cmd_simulate(cfg, out_dir, cfg_h, f_file):
    _, snaps, reports = _run_with_energy(cfg, out_dir, cfg_h, f_file)
    times = np.array([t for t, _ in snaps])
    fields = np.stack([f for _, f in snaps])
    write_snapshots(out_dir / "snapshots.npz",
                    {"t": times, "f": fields}, cfg_h)
    summary = {
        "t_end": float(times[-1]),
        "n_snapshots": len(snaps),
        "E_final": reports[-1].E_total,
        "min_F_final": reports[-1].min_F,
        "div_E_residual_final": reports[-1].div_E_residual,
    }
    write_json(out_dir / "simulate_report.json", summary, cfg_h)
    return []


def cmd_decay(cfg, out_dir, cfg_h, f_file):
    _, asm = _assembly_from(cfg, build_grid(**cfg["grid"]))
    dc = cfg["decay"]
    report, trajs = whole_space_decay(
        asm, m=dc["m"], l=dc["l"], l_star=dc["l_star"], data=dc["data"],
        y_min=dc["y_min"], y_max=dc["y_max"], n_y=dc["n_y"],
        t_end=dc["t_end"], fit_window=(dc["fit_lo"], dc["fit_hi"]),
        seed=cfg["seed"])
    report.pop("fits", None)
    write_json(out_dir / "decay_report.json", report, cfg_h)
    rows = []
    for tr in trajs:
        for t, e, dsc in zip(tr.t, tr.energy, tr.sigma_diss):
            rows.append([float(t), float(tr.y), float(e), float(dsc)])
    write_csv(out_dir / "decay_modes.csv",
              ["t", "y", "functional", "sigma_dissipation"], rows, cfg_h)
    return _missed((report["r2"] >= 0.98, f"r2 = {report['r2']:.4f} < 0.98"),
                   (report["total_violations"] == 0,
                    f"total_violations = {report['total_violations']} > 0"))


def cmd_collision_check(cfg, out_dir, cfg_h, f_file):
    g = build_grid(**cfg["grid"])
    mw, asm = _assembly_from(cfg, g)
    res = asm.null_residuals()
    sig_fft = asm.sigma
    sig_dir = assemble_sigma(g, mw, asm._kit, method="direct")
    sig_agree = float(np.abs(sig_fft - sig_dir).max())
    lam, prob = coercivity_probe(asm)       # raises unless lambda_h > 0
    # the probe and the mode propagators read K through the split blocks of
    # (L_sum - L_diff)/2, the time steps through apply_K: compare apply_K(H)
    # with Q Kb Q^T H on 4 seeded fields, from the blocks the probe built; the
    # fields ride as the real and imaginary parts of 2 complex states
    rng = np.random.default_rng(np.random.Philox(key=cfg["seed"]))
    H = rng.standard_normal((4, g.n)) * mw.sqrt_mu
    Ls, Ld = asm.sector_blocks()
    z = from_split(split_matvec(0.5 * (Ls - Ld), to_split(H[:2] + 1j * H[2:])))
    k_ref = np.concatenate([z.real, z.imag])
    k_agree = float(np.abs(asm.apply_K(H) - k_ref).max() / np.abs(k_ref).max())
    limits = {"null_residual_max": 5e-3, "sigma_fft_vs_direct": 1e-10,
              "K_fft_vs_blocks": 1e-10}
    report = {
        "nv": g.nv, "gamma": cfg["physics"]["gamma"],
        "null_residuals": [float(r) for r in res],
        "null_residual_max": float(res.max()),
        "sigma_fft_vs_direct": sig_agree,
        "K_fft_vs_blocks": k_agree,
        "lambda_h": lam,
        "coercivity": prob,
        "thresholds": limits,
    }
    missed = _missed(*((report[k] <= v, f"{k} = {report[k]:.3e} > {v:g}")
                       for k, v in limits.items()))
    report["passed"] = not missed
    write_json(out_dir / "collision_report.json", report, cfg_h)
    return missed


def cmd_moments_check(cfg, out_dir, cfg_h, f_file):
    """Residual convergence study: spin-up past the stiff transient, then
    compare RMS residuals per line at (dt, dt/2) over a fixed 0.6 window.

    The study uses its own data scale (amplitude 1e-2, species-asymmetric)
    so the time-discretization signal sits well above the quadrature floors.
    """
    base_dt = cfg["scheme"]["dt"]
    horizon = 0.6
    steps = int(round(horizon / base_dt))
    if steps < 2:
        raise RuntimeError(f"scheme.dt = {base_dt:g} leaves {steps} step(s) in the {horizon:g} "
                           "study window; the moment residuals need 2 (3 snapshots)")
    g = _simulation_grid(cfg)
    mw, asm = _assembly_from(cfg, g)
    spin = Simulation(asm, base_dt / 4.0)
    st = _initial_field(cfg, g, mw, 1e-2, 0.5, f_file)
    for _ in range(int(round(0.5 / (base_dt / 4.0)))):
        spin.step(st)
    del spin        # free its propagators before the study builds its own
    fstart = st.f.copy()

    def rms_by_line(dt):
        simx = Simulation(asm, dt)
        stx = TwoSpeciesField(fstart.copy(), g, mw)
        snaps = simx.run(stx, dt * int(round(horizon / dt)), 1)
        recs = moment_residuals(snaps, dt, simx.projector, asm.apply_L, simx.forcing)
        agg = {}
        for r in recs:
            agg.setdefault(r["equation_id"], []).append(r["l2_residual"] ** 2)
        return recs, {k: float(np.sqrt(np.mean(v))) for k, v in agg.items()}

    recs1, r1 = rms_by_line(base_dt)
    _, r2 = rms_by_line(base_dt / 2.0)
    orders = {k: float(np.log2(r1[k] / max(r2[k], 1e-300)))
              for k in r1 if r1[k] > 1e-10}
    min_order = min(orders.values()) if orders else float("nan")
    report = {
        "dt_pair": [base_dt, base_dt / 2.0],
        "residuals_coarse": r1,
        "orders": orders,
        "min_order": min_order,
        "records": recs1,
    }
    missed = _missed((bool(orders), "orders = {}: no coarse residual is above 1e-10"),
                     (min_order >= 1.8, f"min_order = {min_order:.3f} < 1.8, on line "
                      f"{min(orders, key=orders.get, default=None)}"))
    report["passed"] = not missed
    write_json(out_dir / "moments_report.json", report, cfg_h)
    return missed


def cmd_symbols_check(cfg, out_dir, cfg_h, f_file):
    gamma = cfg["physics"]["gamma"] if cfg["physics"]["gamma"] < 0 else -1.0
    one = weyl.make_symbol("custom", custom=lambda v, e: np.ones_like(v * e))
    op1 = weyl.quantize(one, 0.5)
    id_err = float(np.abs(op1.matrix - np.eye(op1.matrix.shape[0])).max())
    vs = weyl.make_symbol("custom", custom=lambda v, e: v * np.ones_like(e))
    opv = weyl.quantize(vs, 0.5)
    mult_err = float(np.abs(opv.matrix - np.diag(vs.v_axis)).max())
    br = weyl.bracket_decomposition_check(2.0, gamma=gamma)
    br_fine = weyl.bracket_decomposition_check(2.0, gamma=gamma,
                                               fd_step=br["fd_step_eta"] / 2)
    sweeps = {nv: weyl.theta_norm_sweep(gamma=gamma, nv=nv)["sup"]
              for nv in (21, 33, 49)}
    ratio = max(sweeps.values()) / min(sweeps.values())
    bd = weyl.atilde_sigma_bound_check(gamma=gamma)
    interp = [weyl.interpolation_display_check(a, b, gamma=gamma)
              for (a, b) in ((4, 0), (2, 1))]
    missed = _missed(
        (id_err < 1e-6, f"identity_error = {id_err:.3e} >= 1e-06"),
        (mult_err < 1e-6, f"multiplication_error = {mult_err:.3e} >= 1e-06"),
        (br_fine["max_discrepancy"] <= 0.6 * br["max_discrepancy"],
         f"bracket_half_step = {br_fine['max_discrepancy']:.3e} > 0.6 x "
         f"bracket.max_discrepancy = {br['max_discrepancy']:.3e}"),
        (br["max_disc_on_chi_one"] < 1e-12,
         f"bracket.max_disc_on_chi_one = {br['max_disc_on_chi_one']:.3e} >= 1e-12"),
        (ratio < 2.0, f"theta_norm_refinement_ratio = {ratio:.3f} >= 2"),
        *((i["holds_on_refined"], f"interpolation_checks[{k}].holds_on_refined = false")
          for k, i in enumerate(interp)))
    report = {
        "identity_error": id_err,
        "multiplication_error": mult_err,
        "bracket": br,
        "bracket_half_step": br_fine["max_discrepancy"],
        "theta_norm_sup_by_nv": {str(k): v for k, v in sweeps.items()},
        "theta_norm_refinement_ratio": float(ratio),
        "atilde_sigma_constant": bd["C_measured"],
        "interpolation_checks": interp,
        "passed": not missed,
    }
    write_json(out_dir / "symbols_report.json", report, cfg_h)
    # symbol dump per the interface: CSV (v, eta, value)
    th = weyl.make_symbol("theta", gamma=gamma, y=2.0)
    rows = [[float(v), float(e), float(th.values[i, j])]
            for i, v in enumerate(th.v_axis)
            for j, e in enumerate(th.eta_axis)]
    write_csv(out_dir / "theta_symbol.csv", ["v", "eta", "value"], rows, cfg_h)
    return missed


def cmd_energy_report(cfg, out_dir, cfg_h, f_file):
    sc = cfg["scheme"]
    steps = int(round(sc["t_end"] / sc["dt"]))      # as Simulation.run counts them
    if steps <= sc["snapshot_every"]:               # 1 + ceil(steps / every) snapshots
        raise RuntimeError(f"scheme.t_end = {sc['t_end']:g} gives 2 snapshots ({steps} steps "
                           f"of {sc['dt']:g}, one every {sc['snapshot_every']}); the "
                           "inequality monitor needs 3")
    asm, _, reports = _run_with_energy(cfg, out_dir, cfg_h, f_file)
    lam_h = cfg["physics"]["lambda_h"]
    if lam_h is None:
        lam_h, _ = coercivity_probe(asm)
    mon = energy_inequality_monitor(reports, lam_h / 2.0)
    mon["lambda_h"] = lam_h
    write_json(out_dir / "inequality_report.json", mon, cfg_h)
    return _missed((np.isfinite(mon["C_cov"]), f"C_cov = {mon['C_cov']} is not finite"))


# Each command takes the resolved config, the output directory, the config
# hash and the initial-data array read from initial_data.path (None unless
# initial_data.kind is 'file'), and returns the thresholds it missed, one
# message each (none when it passed).
COMMANDS = {
    "simulate": cmd_simulate,
    "decay": cmd_decay,
    "collision-check": cmd_collision_check,
    "moments-check": cmd_moments_check,
    "symbols-check": cmd_symbols_check,
    "energy-report": cmd_energy_report,
}
# The commands that step a `Simulation`: they alone read initial_data.mode,
# which must lie below the x-modes the 2/3 rule keeps.
SIMULATION_COMMANDS = ("simulate", "energy-report", "moments-check")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="vpl",
        description="Vlasov-Poisson-Landau numerical laboratory")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", type=str, default=None)
    ap.add_argument("--seed", type=int, default=None)
    # a flag sets one key, named by its dest; _validate checks the value
    for block, key, _, flag, is_type, *_ in _KEYS:
        if flag is None:
            continue
        if is_type is _is_bool:
            ap.add_argument(flag, dest=f"{block}.{key}", action="store_true", default=None)
        else:
            ap.add_argument(flag, dest=f"{block}.{key}", default=None,
                            type={_is_int: int, _is_number: float, _is_str: str}[is_type])
    return ap


def resolve_config(args):
    raw = {}
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError(f"run file not found: {args.config}")
        except json.JSONDecodeError as e:
            raise ConfigError(f"run file is not valid JSON: {e}")
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"run file {args.config} cannot be read: "
                              f"{type(e).__name__}: {e}")
    overrides = [(dest.split("."), v) for dest, v in vars(args).items()
                 if dest not in ("command", "config") and v is not None]
    return _validate(raw, overrides)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        f_file = _read_initial_file(cfg)
        if args.command in SIMULATION_COMMANDS:
            _check_initial_mode(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    cfg_h = config_hash(cfg)
    out_dir = Path(cfg["io"]["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        missed = COMMANDS[args.command](cfg, out_dir, cfg_h, f_file)
    except (RuntimeError, MemoryError) as e:
        # CFL violation, blow-up, propagator memory budget, too few samples,
        # an unconverged or nonpositive coercivity probe
        print(f"{args.command}: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    if missed:
        print(f"{args.command}: acceptance thresholds not met: {missed[0]}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
