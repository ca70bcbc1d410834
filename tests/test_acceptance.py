"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (pytest -s shows them; they are also
printed on assertion failure). Criteria with stated runtime budgets assert
the elapsed wall time as well.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from vplab import build_grid, maxwellian, CollisionAssembly, coercivity_probe
from vplab.macroscopic import (MacroProjector, moment_residuals,
                               div_E_residual)
from vplab.lineardecay import (ModeOperator, evolve_mode, whole_space_decay,
                               default_mode_data)
from vplab.solver import (Simulation, TwoSpeciesField, make_initial_data,
                          energy_report, PsiWeight, energy_inequality_monitor,
                          smoothing_diagnostic)
from vplab import weyl


_CACHE = {}


def _asm16(gamma):
    key = ("asm16", gamma)
    if key not in _CACHE:
        _CACHE.clear()            # keep at most one nv=16 assembly resident
        g = build_grid(nv=16, vmax=6.0, nx=8)
        _CACHE[key] = CollisionAssembly(g, maxwellian(g), gamma)
    return _CACHE[key]


def _report(num, ok, detail):
    line = f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def test_criterion_01_null_space():
    t0 = time.time()
    res16 = _asm16(0.0).null_residuals()
    g24 = build_grid(nv=24, vmax=6.0, nx=8)
    asm24 = CollisionAssembly(g24, maxwellian(g24), 0.0)
    res24 = asm24.null_residuals()
    elapsed = time.time() - t0
    # residuals sit at the roundoff floor (exactness of the conjugated
    # differences); "decreases under refinement" holds up to that floor
    ok = (res16.max() <= 5e-3
          and res24.max() <= max(res16.max(), 1e-10)
          and elapsed < 120.0)
    _report(1, ok, f"max res nv16 {res16.max():.2e} nv24 {res24.max():.2e} "
                   f"({elapsed:.0f}s)")


def test_criterion_02_coercivity():
    t0 = time.time()
    lines = []
    ok = True
    for gamma in (0.0, -1.0, -2.5):
        asm = _asm16(gamma)
        lam, rep = coercivity_probe(asm)
        ok &= lam > 0
        grid = asm.grid
        proj = MacroProjector(grid, asm.maxw)
        rng = np.random.default_rng(np.random.Philox(key=2))
        worst = np.inf
        for _ in range(100):
            gvec = rng.standard_normal((2, grid.n))
            gvec /= np.sqrt(np.sum(gvec ** 2) * grid.wv)
            lhs = -np.sum(gvec * asm.apply_L(gvec)) * grid.wv
            _, IPg = proj.split(gvec)
            rhs = asm.norms.sigma_sq_batch(IPg, 0.0).sum()
            margin = lhs - (lam * rhs - 1e-8)
            worst = min(worst, margin)
            ok &= margin >= 0
        lines.append(f"g={gamma}: lam_h={lam:.4f} worst margin {worst:.2e}")
    elapsed = time.time() - t0
    ok &= elapsed < 300.0
    _report(2, ok, "; ".join(lines) + f" ({elapsed:.0f}s)")


@pytest.fixture(scope="module")
def decay_hard(asm8):
    t0 = time.time()
    report, trajs = whole_space_decay(asm8, m=[0, 1], n_y=48, t_end=100.0)
    report["_elapsed"] = time.time() - t0
    return report, trajs


def test_criterion_03_hard_decay(decay_hard):
    report, _ = decay_hard
    s0 = report["fits"][0]["slope"]
    s1 = report["fits"][1]["slope"]
    ok = (abs(s0 + 0.75) <= 0.10 and abs(s1 + 1.25) <= 0.15
          and report["_elapsed"] < 600.0)
    _report(3, ok, f"m=0 slope {s0:.3f} (-0.75±0.10), m=1 slope {s1:.3f} "
                   f"(-1.25±0.15) ({report['_elapsed']:.0f}s)")


def test_criterion_04_soft_decay(asm8_soft):
    report, _ = whole_space_decay(asm8_soft, m=0, l=0.0, l_star=[0.5, 0.0],
                                  n_y=48, t_end=100.0)
    fits = report["fits"][0]["soft_fits"]
    s_weighted = fits[0.5]["slope"]
    s_unweighted = fits[0.0]["slope"]
    ok = (abs(s_weighted + 0.75) <= 0.15
          and s_unweighted > s_weighted + 0.05)
    _report(4, ok, f"l*=0.5 slope {s_weighted:.3f} (-0.75±0.15); "
                   f"l*=0 slope {s_unweighted:.3f} strictly shallower "
                   f"(box fit {report['fits'][0]['slope_box']:.3f})")


def test_criterion_05_mode_monotonicity(asm8):
    u0 = default_mode_data(asm8, "mixed", 1e-3, seed=4)
    ys = np.geomspace(0.02, 4.0, 48)
    viol_total = 0
    viol_low = 0
    max_inc = 0.0
    for y in ys:
        dt = 0.05 * min(1.0, 1.0 / y)
        op = ModeOperator([y, 0, 0], asm8)
        tr = evolve_mode(op, u0, dt, 30.0, n_samples=120)
        viol_total += tr.violations
        if y <= 1.0:
            viol_low += tr.violations
        max_inc = max(max_inc, tr.max_rel_increase)
    # implicit midpoint preserves the quadratic decrease identity, so the
    # truncation allowance reduces to the roundoff tolerance
    ok = viol_low == 0 and viol_total == 0 and max_inc <= 1e-11
    _report(5, ok, f"48-mode sweep: violations {viol_total} "
                   f"(|y|<=1: {viol_low}), max rel increase {max_inc:.1e}")


def test_criterion_06_conservation():
    g = build_grid(nv=8, vmax=6.0, nx=32)
    mw = maxwellian(g)
    asm = CollisionAssembly(g, mw, 0.0)
    sim = Simulation(asm, 0.05)
    st = TwoSpeciesField(
        make_initial_data(g, mw, "macroscopic", amplitude=1e-3, asym=0.5),
        g, mw)
    smu = mw.sqrt_mu
    background = 2.0 * g.lx

    def masses(s):
        return np.array([np.sum(s.f[k] @ smu) * g.wv * g.dx for k in (0, 1)])

    prev = masses(st)
    drift = 0.0
    dive = 0.0
    for _ in range(100):
        sim.step(st)
        cur = masses(st)
        drift = max(drift, np.abs(cur - prev).max() / background)
        dive = max(dive, div_E_residual(st.field(), g))
        prev = cur
    ok = drift <= 1e-10 and dive <= 1e-12
    _report(6, ok, f"per-step mass drift {drift:.1e} (<=1e-10), "
                   f"div E residual {dive:.1e} (<=1e-12)")


def test_criterion_07_moment_residual_order():
    g = build_grid(nv=12, vmax=6.0, nx=8)
    mw = maxwellian(g)
    asm = CollisionAssembly(g, mw, 0.0)
    proj = MacroProjector(g, mw)
    spin = Simulation(asm, 0.0125)
    st = TwoSpeciesField(
        make_initial_data(g, mw, "macroscopic", amplitude=1e-2, asym=0.5),
        g, mw)
    for _ in range(40):
        spin.step(st)
    fstart = st.f.copy()

    def rms_lines(dt):
        simx = Simulation(asm, dt)
        stx = TwoSpeciesField(fstart.copy(), g, mw)
        snaps = simx.run(stx, dt * int(round(0.6 / dt)), 1)
        recs = moment_residuals(snaps, dt, proj, asm.apply_L, simx.forcing)
        agg = {}
        for r in recs:
            agg.setdefault(r["equation_id"], []).append(r["l2_residual"] ** 2)
        return {k: float(np.sqrt(np.mean(v))) for k, v in agg.items()}

    r1 = rms_lines(0.05)
    r2 = rms_lines(0.025)
    orders = {k: np.log2(r1[k] / max(r2[k], 1e-300))
              for k in r1 if r1[k] > 1e-10}
    min_order = min(orders.values())
    n_floor = len(r1) - len(orders)
    ok = min_order >= 1.8
    _report(7, ok, f"{len(orders)} lines measured (+{n_floor} at floor), "
                   f"min order {min_order:.2f} (>=1.8)")


def test_criterion_08_cross_module_equivalence(asm8):
    g, mw = asm8.grid, asm8.maxw
    sim = Simulation(asm8, 0.05, disable_gamma=True, disable_field_nl=True)
    smu = mw.sqrt_mu
    shape = 1e-3 * ((g.vsq - 3) * smu + 0.3 * g.v[0] * smu)
    f0 = np.stack([np.cos(g.x)[:, None] * shape[None, :],
                   np.cos(g.x)[:, None] * (0.4 * shape)[None, :]])
    u0 = np.fft.rfft(f0, axis=1)[:, 1, :]
    st = TwoSpeciesField(f0.copy(), g, mw)
    for _ in range(200):
        sim.step(st)
    fh = np.fft.rfft(st.f, axis=1)[:, 1, :]
    op = ModeOperator([1.0, 0, 0], asm8)
    tr = evolve_mode(op, u0, 0.05, 10.0, n_samples=1)
    us, ud = tr.final_state
    u_fin = np.stack([(us + ud) / np.sqrt(2), (us - ud) / np.sqrt(2)])
    err = np.abs(fh - u_fin).max()
    ok = err <= 1e-8
    _report(8, ok, f"single-mode trajectory max error {err:.2e} (<=1e-8) "
                   f"over t in [0, 10]")


def test_criterion_09_energy_inequality(asm8):
    g, mw = asm8.grid, asm8.maxw
    lam_h, _ = coercivity_probe(asm8)
    sim = Simulation(asm8, 0.05)
    st = TwoSpeciesField(
        make_initial_data(g, mw, "macroscopic", amplitude=1e-3, asym=0.3),
        g, mw)
    psi = PsiWeight("one")
    reports = []
    sim.run(st, 10.0, snapshot_every=2,
            callback=lambda s: reports.append(
                energy_report(s, asm8, 3, 3.0, psi, sim.projector)))
    mon = energy_inequality_monitor(reports, lam_h / 2.0)
    ok = (np.isfinite(mon["C_cov"])
          and mon["fraction_satisfied_at_C_cov"] >= 0.99)
    _report(9, ok, f"(lambda, C) = ({lam_h/2:.4f}, {mon['C_cov']:.3g}), "
                   f"satisfied at {100*mon['fraction_satisfied_at_C_cov']:.1f}% "
                   f"of {mon['n_snapshots']} snapshots")


def test_criterion_10_weyl_suite():
    t0 = time.time()
    one = weyl.make_symbol("custom", custom=lambda v, e: np.ones_like(v * e))
    id_err = float(np.abs(weyl.quantize(one, 0.5).matrix
                          - np.eye(one.v_axis.size)).max())
    vs = weyl.make_symbol("custom", custom=lambda v, e: v * np.ones_like(e))
    mult_err = float(np.abs(weyl.quantize(vs, 0.5).matrix
                            - np.diag(vs.v_axis)).max())
    br = weyl.bracket_decomposition_check(2.0, gamma=-1.0)
    br_half = weyl.bracket_decomposition_check(
        2.0, gamma=-1.0, fd_step=br["fd_step_eta"] / 2)
    br_tiny = weyl.bracket_decomposition_check(2.0, gamma=-1.0, fd_step=1e-4)
    sweeps = {nv: weyl.theta_norm_sweep(gamma=-1.0, nv=nv)["sup"]
              for nv in (21, 33, 49)}
    ratio = max(sweeps.values()) / min(sweeps.values())
    elapsed = time.time() - t0
    ok = (id_err <= 1e-6 and mult_err <= 1e-6
          and br_half["max_discrepancy"] <= 0.6 * br["max_discrepancy"]
          and br_tiny["max_discrepancy"] <= 1e-5
          and br["max_disc_on_chi_one"] <= 1e-12
          and ratio < 2.0
          and br["r1_over_atilde"] < 10.0 and br["r2_over_atilde"] < 10.0
          and elapsed < 180.0)
    _report(10, ok,
            f"quant err {max(id_err, mult_err):.1e}; bracket fd-order "
            f"{np.log2(br['max_discrepancy']/br_half['max_discrepancy']):.2f}, "
            f"identity@1e-4 {br_tiny['max_discrepancy']:.1e}; "
            f"theta^w sup ratio {ratio:.2f} (<2); "
            f"|R1|/a~<= {br['r1_over_atilde']:.2f}, "
            f"|R2|/a~<= {br['r2_over_atilde']:.2f} ({elapsed:.0f}s)")


def test_criterion_11_smoothing_proxy(asm8):
    d1 = smoothing_diagnostic(asm8, K=4, l=4.0, t0=0.5, dt=1e-3,
                              amplitude=1e-3, seed=6, snapshot_every=50)
    d2 = smoothing_diagnostic(asm8, K=4, l=4.0, t0=0.5, dt=5e-4,
                              amplitude=1e-3, seed=6, snapshot_every=100)
    C1, C2 = d1["C_ratio"], d2["C_ratio"]
    stable = abs(C1 - C2) / max(C1, C2) <= 0.25
    # exact vanishing of the psi-weighted higher summands at t = 0
    g, mw = asm8.grid, asm8.maxw
    st0 = TwoSpeciesField(
        make_initial_data(g, mw, "noise", amplitude=1e-3, seed=6), g, mw)
    rep0 = energy_report(st0, asm8, 4, 4.0, PsiWeight("tn"), MacroProjector(g, mw))
    high_zero = all(
        v == 0.0 for k, v in rep0.summands.items()
        if not k.startswith("D_") and _order_of(k) > 3)
    ok = np.isfinite(C1) and C1 > 0 and stable and high_zero
    _report(11, ok, f"sup E_Kl / E_3l(0): C = {C1:.3g} (dt halved: {C2:.3g}, "
                    f"stable={stable}); t=0 higher summands exactly zero: "
                    f"{high_zero}")


def _order_of(key):
    tag = key.split("|")[1]
    if "b" in tag:
        a = int(tag.split("b")[0][1:])
        b = sum(int(c) for c in tag.split("b")[1])
    else:
        a, b = int(tag[1:]), 0
    return a + b


def test_criterion_12_determinism(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        cmds = [
            [sys.executable, "-W", "ignore", "-m", "vplab.cli", "simulate",
             "--nv", "8", "--nx", "16", "--t-end", "0.4", "--seed", "9",
             "--out", str(out / "sim")],
            [sys.executable, "-W", "ignore", "-m", "vplab.cli",
             "collision-check", "--nv", "8", "--gamma", "-1",
             "--out", str(out / "col")],
        ]
        for c in cmds:
            r = subprocess.run(c, capture_output=True)
            assert r.returncode == 0, r.stderr.decode()
        outs.append(out)
    same = True
    count = 0
    for p in sorted(outs[0].rglob("*")):
        if p.is_file():
            q = outs[1] / p.relative_to(outs[0])
            same &= p.read_bytes() == q.read_bytes()
            count += 1
    ok = same and count >= 4
    _report(12, ok, f"{count} output files byte-identical across reruns: {same}")
