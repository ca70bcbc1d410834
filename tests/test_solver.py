import warnings

import numpy as np
import pytest

from vplab import build_grid, maxwellian, CollisionAssembly
from vplab import solver
from vplab.collision import GammaOp
from vplab.grid import along
from vplab.macroscopic import div_E_residual, moment_residuals
from vplab.solver import (Simulation, TwoSpeciesField, PsiWeight,
                          make_initial_data, energy_report,
                          energy_inequality_monitor, dealias_x,
                          dt_phi_sup)


@pytest.fixture(scope="module")
def sim_env():
    g = build_grid(nv=8, vmax=6.0, nx=16, lx=np.pi)
    mw = maxwellian(g)
    asm = CollisionAssembly(g, mw, 0.0)
    sim = Simulation(asm, dt=0.05)
    return g, mw, asm, sim


def test_zero_is_fixed_point(sim_env):
    g, mw, asm, sim = sim_env
    st = TwoSpeciesField(np.zeros((2, g.nx, g.n)), g, mw)
    sim.step(st)
    assert np.abs(st.f).max() == 0.0
    rep = energy_report(st, asm, 3, 3.0, PsiWeight("one"), sim.projector)
    assert rep.E_total == 0.0


def test_mass_conservation_and_field_identity(sim_env):
    g, mw, asm, sim = sim_env
    f0 = make_initial_data(g, mw, "macroscopic", amplitude=1e-2, asym=0.5)
    st = TwoSpeciesField(f0, g, mw)
    smu = mw.sqrt_mu

    def masses(s):
        return np.array([np.sum(s.f[k] @ smu) * g.wv * g.dx for k in (0, 1)])

    m0 = masses(st)
    for _ in range(20):
        sim.step(st)
        assert div_E_residual(st.field(), g) < 1e-12
    drift = np.abs(masses(st) - m0).max() / (2 * g.lx) / 20
    assert drift < 1e-10


def test_field_follows_reassigned_f(sim_env):
    g, mw, _, _ = sim_env
    st = TwoSpeciesField(make_initial_data(g, mw, "macroscopic", asym=0.5), g, mw)
    st.field()
    st.f = make_initial_data(g, mw, "macroscopic", asym=-0.5)
    np.testing.assert_array_equal(st.field().rho, st.charge_density())


def test_cross_module_equivalence_quick(sim_env):
    # with the nonlinear terms off, each kept x-mode follows its own
    # evolve_mode trajectory and the modes above the cutoff stay empty
    from vplab.lineardecay import ModeOperator, evolve_mode
    g, mw, asm, _ = sim_env
    sim = Simulation(asm, dt=0.05, disable_gamma=True, disable_field_nl=True)
    K = solver.kept_modes(g.nx)
    smu = mw.sqrt_mu
    shape = 1e-3 * ((g.vsq - 3) * smu + 0.3 * g.v[0] * smu)
    f0 = np.zeros((2, g.nx, g.n))
    for j, k in enumerate(g.kx_r[:K]):
        prof = np.cos(k * g.x + 0.3 * j)[:, None] / (1 + j)
        f0 += np.stack([prof * shape, prof * (0.5 + 0.1 * j) * shape])
    u0 = np.fft.rfft(f0, axis=1)
    st = TwoSpeciesField(f0.copy(), g, mw)
    for _ in range(40):
        sim.step(st)
    fh = np.fft.rfft(st.f, axis=1)
    assert np.abs(fh[:, K:]).max() < 1e-14 * np.abs(u0).max()
    for j, k in enumerate(g.kx_r[:K]):
        tr = evolve_mode(ModeOperator(k, asm), u0[:, j], 0.05, 2.0, n_samples=1)
        us, ud = tr.final_state
        u_fin = np.stack([(us + ud) / np.sqrt(2), (us - ud) / np.sqrt(2)])
        assert np.abs(fh[:, j] - u_fin).max() < 1e-10 * np.abs(u0).max(), j


def _above_cutoff(f, g):
    """Largest rfft mode of f above the 2/3 rule cutoff, relative to the largest."""
    fh = np.abs(np.fft.rfft(f, axis=-2))
    return fh[:, solver.kept_modes(g.nx):].max() / fh.max()


@pytest.mark.parametrize("kind", ["macroscopic", "noise", "file", None])
def test_initial_data_and_stepped_states_band_limited(sim_env, kind):
    # every kind of initial data, and every state a step leaves, even from
    # data given directly (None) on every x-mode
    g, mw, asm, sim = sim_env
    rough = 1e-3 * np.random.default_rng(2).standard_normal((2, g.nx, g.n)) * mw.sqrt_mu
    rough -= rough.mean(axis=1, keepdims=True)          # no x-mean charge
    assert _above_cutoff(rough, g) > 0.1
    if kind is None:
        f0 = rough
    else:
        amplitude = 1.0 if kind == "file" else 1e-3
        f0 = make_initial_data(g, mw, kind, amplitude=amplitude, asym=0.3, data=rough)
        assert _above_cutoff(f0, g) <= 1e-14
    st = TwoSpeciesField(f0, g, mw)
    for _ in range(5):
        sim.step(st)
        assert _above_cutoff(st.f, g) <= 1e-14


def test_orthogonality_preserved(sim_env):
    g, mw, asm, sim = sim_env
    f0 = make_initial_data(g, mw, "macroscopic", amplitude=1e-2, asym=0.3)
    st = TwoSpeciesField(f0, g, mw)
    for _ in range(10):
        sim.step(st)
    Pf, IPf = sim.projector.split(st.f)
    inner = abs(np.sum(Pf * IPf) * g.wv * g.dx)
    norm = np.sum(st.f ** 2) * g.wv * g.dx
    assert inner < 1e-10 * norm


def test_energy_hierarchy_and_weight_monotonicity(sim_env):
    g, mw, asm, sim = sim_env
    f0 = make_initial_data(g, mw, "noise", amplitude=1e-3, seed=5)
    st = TwoSpeciesField(f0, g, mw)
    psi = PsiWeight("one")
    r2 = energy_report(st, asm, 3, 2.0, psi, sim.projector)
    r4 = energy_report(st, asm, 3, 4.0, psi, sim.projector)
    assert r2.Eh_total <= r2.E_total
    assert r2.E_total <= r4.E_total          # w >= 1 monotone in l


@pytest.mark.parametrize("K", [1, 2])
def test_energy_report_warns_at_the_v1_noise_ceiling(sim_env, K):
    # the order-K warning reads d_{v1}^K (I-P)f: a checkerboard in v1 reaches
    # the grid's noise ceiling at the one-sided end rows; one in v3 does not
    g, mw, asm, sim = sim_env
    idx = np.indices((g.nv,) * 3).reshape(3, -1)

    def report(axis):
        f = np.broadcast_to((-1.0) ** idx[axis], (2, g.nx, g.n)).copy()
        return energy_report(TwoSpeciesField(f, g, mw), asm, K, 3.0, PsiWeight("one"),
                             sim.projector)

    with pytest.warns(RuntimeWarning, match=f"order-{K} velocity derivatives"):
        report(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report(2)


def test_pure_macroscopic_data_has_zero_fluctuation_summands(sim_env):
    g, mw, asm, sim = sim_env
    basis = sim.projector.basis
    prof = np.cos(g.x)
    f = 1e-3 * (prof[:, None] * basis[5][:, None, :]
                + 0.5 * prof[:, None] * basis[0][:, None, :])
    f = np.moveaxis(f, 0, 0)
    st = TwoSpeciesField(f, g, mw)
    rep = energy_report(st, asm, 2, 2.0, PsiWeight("one"), sim.projector)
    for key, val in rep.summands.items():
        if key.startswith("IPf|"):
            assert val < 1e-25


def test_psi_weight_rules():
    psi = PsiWeight("tn")
    assert psi.psi_k(0.5, 0) == 1.0
    assert psi.psi_k(0.5, -2) == 1.0
    assert psi.psi_k(0.0, 1) == 0.0
    assert psi.psi_k(0.5, 1, a=4, b=0) == pytest.approx(0.5 ** 8.5)
    # order rule: N(4) with delta1 = 1/2 -> (16 + 1)/2
    assert psi.N_of(4, 0) == pytest.approx(8.5)
    assert psi.N_of(2, 1) == 20.0
    assert 0 < psi.delta1(5, 4) <= 0.5
    one = PsiWeight("one")
    assert one.psi_k(0.3, 5) == 1.0
    with pytest.raises(ValueError):
        PsiWeight("bogus")


def test_psi_tn_initial_energy_collapse(sim_env):
    # at t = 0 every summand with |alpha| + |beta| > 3 vanishes exactly,
    # so E_{K,l}(0) = E_{3,l}(0)
    g, mw, asm, sim = sim_env
    f0 = make_initial_data(g, mw, "noise", amplitude=1e-3, seed=8)
    st = TwoSpeciesField(f0, g, mw)
    tn = PsiWeight("tn")
    r4 = energy_report(st, asm, 4, 4.0, tn, sim.projector)
    r3 = energy_report(st, asm, 3, 4.0, PsiWeight("one"), sim.projector)
    assert r4.E_total == pytest.approx(r3.E_total, rel=1e-12)
    for key, val in r4.summands.items():
        if key.startswith("D_"):
            continue
        tag = key.split("|")[1]
        a = int(tag[1]) if "b" not in tag else int(tag.split("b")[0][1:])
        b = 0 if "b" not in tag else sum(int(c) for c in tag.split("b")[1])
        if a + b > 3:
            assert val == 0.0


def test_cfl_violation_raises(sim_env):
    g, mw, asm, _ = sim_env
    sim = Simulation(asm, dt=0.5)
    f0 = make_initial_data(g, mw, "macroscopic", amplitude=50.0, asym=1.0)
    st = TwoSpeciesField(f0, g, mw)
    with pytest.raises(RuntimeError, match="CFL"):
        sim.step(st)


def test_noise_data_deterministic(sim_env):
    g, mw, _, _ = sim_env
    f1 = make_initial_data(g, mw, "noise", amplitude=1e-3, seed=42)
    f2 = make_initial_data(g, mw, "noise", amplitude=1e-3, seed=42)
    f3 = make_initial_data(g, mw, "noise", amplitude=1e-3, seed=43)
    assert np.array_equal(f1, f2)
    assert not np.array_equal(f1, f3)
    rho = np.tensordot(f1[0] - f1[1], mw.sqrt_mu, axes=(-1, 0)) * g.wv
    assert abs(rho.mean()) < 1e-18


def test_dealias_removes_top_modes(sim_env):
    g, mw, _, _ = sim_env
    rng = np.random.default_rng(1)
    f = rng.standard_normal((2, g.nx, g.n))
    fd = dealias_x(f, g)
    fh = np.fft.rfft(fd, axis=1)
    cutoff = (2.0 / 3.0) * np.abs(g.kx_r).max()
    assert np.abs(fh[:, np.abs(g.kx_r) > cutoff + 1e-12, :]).max() < 1e-12


@pytest.mark.parametrize("nx", [1, 2, 4, 8, 16, 32, 64, 128, 256])
def test_kept_modes_is_the_two_thirds_rule(nx):
    # the kept modes are those with |k| <= 2/3 k_max, a prefix of kx_r
    k = np.abs(build_grid(nv=8, nx=nx).kx_r)
    kept = k <= (2.0 / 3.0) * k.max() + 1e-12
    assert solver.kept_modes(nx) == np.count_nonzero(kept)
    assert kept[:solver.kept_modes(nx)].all()


def _forcing_reference(sim, f, fs):
    """The x-space forcing: field term plus GammaOp(f, f) on all nx points,
    dealiased by an rfft/irfft pair."""
    asm, g = sim.asm, sim.grid
    adv = along(asm.ct1, f, 0)
    mom = np.tensordot(adv, sim._mass_dir, axes=(-1, 0)) * g.wv
    adv -= mom[..., None] * sim._mass_dir
    out = np.stack([-fs.E[:, None] * adv[0], fs.E[:, None] * adv[1]])
    out += GammaOp(asm)(f, f)
    fh = np.fft.rfft(out, axis=-2)[..., :solver.kept_modes(g.nx), :]
    return np.fft.irfft(fh, n=g.nx, axis=-2)


@pytest.mark.parametrize("nx", [1, 2, 4, 8, 32])
def test_forcing_matches_the_x_space_formula(nx):
    # Gamma's coefficients on the 2K - 1 real mode fields agree with the
    # x-space formula on band-limited states, a midpoint stage included
    g = build_grid(nv=8, vmax=6.0, nx=nx, lx=np.pi)
    mw = maxwellian(g)
    sim = Simulation(CollisionAssembly(g, mw, 0.0), dt=0.05)
    A, S, P = solver.kept_mode_maps(nx)
    K = solver.kept_modes(nx)
    assert A.shape == S.T.shape == (2 * K - 1, nx)
    assert np.abs(A @ S - np.eye(2 * K - 1)).max() < 1e-14
    assert np.abs(P @ P - P).max() < 1e-14
    rough = 1e-3 * np.random.default_rng(5).standard_normal((2, nx, g.n)) * mw.sqrt_mu
    rough[1] += (rough[0] - rough[1]).mean(axis=0)     # no x-mean charge
    mode = min(1, K - 1)                               # mode 0 only at nx 1, 2: no charge
    states = [make_initial_data(g, mw, "noise", seed=7),
              make_initial_data(g, mw, "macroscopic", asym=0.3 * mode, mode=mode),
              make_initial_data(g, mw, "file", amplitude=1.0, data=rough)]
    st = TwoSpeciesField(states[0], g, mw)
    states.append(st.f + 0.5 * 0.025 * sim.forcing(st.f, st.field()))
    for f in states:
        st = TwoSpeciesField(f, g, mw)
        fs = st.field()
        got, want = sim.forcing(f, fs), _forcing_reference(sim, f, fs)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        if K < nx // 2 + 1:
            assert _above_cutoff(got, g) <= 1e-14


def test_forcing_transform_counts(sim_env, monkeypatch):
    # no numpy.fft call, and one GammaOp.coefficients call on 2K - 1 fields
    g, mw, _, sim = sim_env
    st = TwoSpeciesField(make_initial_data(g, mw, "noise"), g, mw)
    fs = st.field()
    calls, fields = [], []
    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn"):
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)

    def coefficients(self, hsum, _fn=GammaOp.coefficients):
        fields.append(hsum.shape)
        return _fn(self, hsum)
    monkeypatch.setattr(GammaOp, "coefficients", coefficients)
    sim.forcing(st.f, fs)
    assert calls == []
    assert fields == [(2 * solver.kept_modes(g.nx) - 1, g.n)]


@pytest.mark.parametrize("nx", [1, 2])
def test_poisson_warns_for_real_charge_only(nx):
    # at nx 1 and 2 only k = 0 is kept, so rho is constant in x: its roundoff
    # mean is judged against the species densities, not against itself
    g = build_grid(nv=8, vmax=6.0, nx=nx, lx=np.pi)
    mw = maxwellian(g)
    asm = CollisionAssembly(g, mw, 0.0)
    st = TwoSpeciesField(make_initial_data(g, mw, "noise", seed=3), g, mw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert 0.0 < abs(st.field().mean_rho) < 1e-18
        sim = Simulation(asm, dt=0.05)
        snaps = sim.run(st, 0.1)
        moment_residuals(snaps, 0.05, sim.projector, asm.apply_L, sim.forcing)
    st.f[0] += 1e-6 * mw.sqrt_mu                     # a net charge
    with pytest.warns(RuntimeWarning, match="charge mean"):
        st.field()


@pytest.mark.parametrize("m", [1, 3])
def test_dt_phi_sup_single_mode_current(sim_env, m):
    # G_1 = A sin(k x): -Lap d_t phi = -d_x G_1 gives d_t phi = -(A / k) cos(k x)
    g, mw, _, _ = sim_env
    k, A = m * np.pi / g.lx, 0.3
    dirn = g.v[0] * mw.sqrt_mu / (np.sum((g.v[0] * mw.sqrt_mu) ** 2) * g.wv)
    half = 0.5 * A * np.sin(k * g.x)[:, None] * dirn
    IPf = np.stack([half, -half])
    st = TwoSpeciesField(np.zeros_like(IPf), g, mw)
    assert dt_phi_sup(st, IPf) == pytest.approx(A / k, rel=1e-12)


def test_inequality_monitor_trivial_and_structure(sim_env):
    g, mw, asm, sim = sim_env

    class R:
        def __init__(s, t, E, D, p):
            s.t, s.E_total, s.D_total, s.dtphi_inf = t, E, D, p

    rows = [R(0.1 * k, 1.0 - 0.1 * k, 0.01, 0.1) for k in range(5)]
    mon = energy_inequality_monitor(rows, lam=0.0)
    assert mon["C_full"] == 0.0                      # strictly decreasing E
    rows = [R(0.1 * k, 1.0, 0.5, 0.2) for k in range(5)]     # flat E, lam D > 0
    mon = energy_inequality_monitor(rows, lam=1.0)
    assert np.isfinite(mon["C_cov"]) and mon["C_cov"] > 0
    with pytest.raises(ValueError):
        energy_inequality_monitor(rows[:2], 1.0)


def test_propagator_budget_guard(sim_env, monkeypatch):
    g, mw, asm, _ = sim_env
    monkeypatch.setattr(solver, "PROPAGATOR_BUDGET_BYTES", 1000)
    with pytest.raises(MemoryError):
        Simulation(asm, dt=0.05)


def test_smoothing_smooth_data_bounded(sim_env):
    # t^N-weighted instant energy of a smooth-data run stays within a
    # constant of the low-order initial energy (the constant is measured;
    # pure-macroscopic data starts with empty fluctuation summands, so it
    # is large but must stay bounded along the run)
    g, mw, asm, sim = sim_env
    st = TwoSpeciesField(
        make_initial_data(g, mw, "macroscopic", amplitude=1e-3, asym=0.3),
        g, mw)
    psi_tn = PsiWeight("tn")
    base = energy_report(st, asm, 3, 4.0, PsiWeight("one"), sim.projector)
    simx = Simulation(asm, 2e-3)
    sup_E = 0.0
    for k in range(100):
        simx.step(st)
        if (k + 1) % 20 == 0:
            r = energy_report(st, asm, 4, 4.0, psi_tn, sim.projector)
            sup_E = max(sup_E, r.E_total)
    assert np.isfinite(sup_E)
    C = sup_E / base.E_total
    assert C <= 1e3, f"measured smoothing constant C = {C}"


def test_smoothing_rough_data_derivative_decreases_under_refinement():
    # ||d_v f|| of the smoothed rough-data state at fixed t: finite,
    # decreasing along the run and under velocity refinement
    from vplab import build_grid, maxwellian, CollisionAssembly
    vals = {}
    for nv in (8, 12):
        g = build_grid(nv=nv, vmax=6.0, nx=8)
        mw = maxwellian(g)
        asm = CollisionAssembly(g, mw, 0.0)
        st = TwoSpeciesField(
            make_initial_data(g, mw, "noise", amplitude=1e-3, seed=6), g, mw)
        sim = Simulation(asm, 2.5e-3)
        def dvnorm(f, g=g):
            return float(np.sqrt(sum(np.sum(along(g.d1, f, j) ** 2)
                                     for j in range(3)) * g.wv * g.dx))

        start = dvnorm(st.f)
        for _ in range(200):
            sim.step(st)
        vals[nv] = dvnorm(st.f)
        assert np.isfinite(vals[nv])
        assert vals[nv] < start
    assert vals[12] < vals[8]


def test_soft_branch_weighted_energy_bounded():
    # gamma = -2.5 run at the theorem's combined weight: the instant energy
    # from a spun-up state admits E(t) <= C E(t0) with C ~ 1 (recorded)
    from vplab import build_grid, maxwellian, CollisionAssembly
    g = build_grid(nv=8, vmax=6.0, nx=16)
    mw = maxwellian(g)
    asm = CollisionAssembly(g, mw, -2.5)
    sim = Simulation(asm, 0.05)
    f0 = make_initial_data(g, mw, "macroscopic", amplitude=1e-3, asym=0.3) \
        + make_initial_data(g, mw, "noise", amplitude=5e-4, seed=12)
    st = TwoSpeciesField(f0, g, mw)
    for _ in range(20):
        sim.step(st)
    psi = PsiWeight("one")
    r0 = energy_report(st, asm, 3, 4.0, psi, sim.projector)
    C = 1.0
    for k in range(40):
        sim.step(st)
        if (k + 1) % 5 == 0:
            r = energy_report(st, asm, 3, 4.0, psi, sim.projector)
            C = max(C, r.E_total / r0.E_total)
    assert np.isfinite(C) and C <= 2.0, f"measured soft Gronwall C = {C}"
    assert np.abs(st.f).max() < 1.0
