import numpy as np
import pytest

from vplab import build_grid, maxwellian
from vplab import CollisionAssembly
from vplab.macroscopic import (MacroProjector, MacroState, macro_state, solve_poisson,
                               div_E_residual, moment_residuals,
                               MASS, MO, EN, TH, LA)
from vplab.solver import Simulation, TwoSpeciesField, make_initial_data


@pytest.fixture(scope="module")
def setup12():
    g = build_grid(nv=12, vmax=6.0, nx=16, lx=np.pi)
    mw = maxwellian(g)
    return g, mw, MacroProjector(g, mw)


def _state(f, proj):
    """(MacroState, Pf, (I-P)f) of one snapshot f."""
    Pf, IPf = proj.split(f)
    return macro_state(proj.moments(f), proj.moments(IPf)), Pf, IPf


def _x_const(field_v, grid):
    return np.broadcast_to(field_v[:, None, :],
                           (2, grid.nx, field_v.shape[-1])).copy()


def test_projection_mass_example(setup12):
    g, mw, proj = setup12
    f = _x_const(np.stack([mw.sqrt_mu, mw.sqrt_mu]), g)
    st, _, _ = _state(f, proj)
    assert np.allclose(st.a_plus, 1.0, atol=1e-5)
    assert np.allclose(st.a_minus, 1.0, atol=1e-5)
    assert np.abs(st.b).max() < 1e-12
    assert np.abs(st.c).max() < 1e-5


def test_projection_momentum_example(setup12):
    g, mw, proj = setup12
    shape = g.v[0] * mw.sqrt_mu
    f = _x_const(np.stack([shape, shape]), g)
    st, _, _ = _state(f, proj)
    assert np.allclose(st.b[0], 1.0, atol=1e-5)
    assert np.abs(st.b[1:]).max() < 1e-12
    assert np.abs(st.a_plus).max() < 1e-12
    assert np.abs(st.c).max() < 1e-12


def test_projection_energy_example(setup12):
    g, mw, proj = setup12
    shape = (g.vsq - 3.0) * mw.sqrt_mu
    f = _x_const(np.stack([shape, shape]), g)
    st, _, _ = _state(f, proj)
    assert np.allclose(st.c, 1.0, atol=1e-4)


def test_projection_idempotent_and_orthogonal(setup12):
    g, mw, proj = setup12
    rng = np.random.default_rng(2)
    f = rng.standard_normal((2, g.nx, g.n))
    _, Pf, IPf = _state(f, proj)
    _, PPf, _ = _state(Pf, proj)
    assert np.abs(PPf - Pf).max() < 1e-10
    # pointwise in x
    inner = np.einsum("sxv,sxv->x", Pf, IPf) * g.wv
    norm = np.einsum("sxv,sxv->x", f, f) * g.wv
    assert np.abs(inner / norm).max() < 1e-10


def test_moment_table_layout(setup12):
    # macro_state and every table row against the quadrature sums written out
    g, mw, proj = setup12
    v, vsq, smu = g.v, g.vsq, mw.sqrt_mu
    f = np.random.default_rng(3).standard_normal((2, g.nx, g.n)) * smu
    st, _, IPf = _state(f, proj)

    def mom(zeta, X):
        return np.tensordot(X, zeta, axes=(-1, 0)) * g.wv

    def close(got, want):
        want = np.asarray(want)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    fsum = f[0] + f[1]
    close(st.a_plus, mom(smu, f[0]))
    close(st.a_minus, mom(smu, f[1]))
    close(st.b, [0.5 * mom(v[j] * smu, fsum) for j in range(3)])
    close(st.c, mom((vsq - 3.0) * smu, fsum) / 12.0)
    close(st.theta, [[[mom((v[j] * v[k] - 1.0) * smu, IPf[s]) for k in range(3)]
                      for j in range(3)] for s in range(2)])
    close(st.lam, [[mom(0.1 * (vsq - 5.0) * v[j] * smu, IPf[s]) for j in range(3)]
                   for s in range(2)])
    close(st.G, [mom(v[j] * smu, IPf[0] - IPf[1]) for j in range(3)])
    rows = [(MASS, smu), (EN, (vsq - 3.0) * smu)]
    rows += [(MO + j, v[j] * smu) for j in range(3)]
    rows += [(TH + 3 * j + k, (v[j] * v[k] - 1.0) * smu)
             for j in range(3) for k in range(3)]
    rows += [(LA + j, 0.1 * (vsq - 5.0) * v[j] * smu) for j in range(3)]
    assert sorted(r for r, _ in rows) == list(range(17))
    m = proj.moments(f)
    for r, zeta in rows:
        close(m[:, r], mom(zeta, f))


def test_poisson_eigenfunction(setup12):
    g, _, _ = setup12
    fs = solve_poisson(np.cos(g.x), g)
    assert np.abs(fs.phi - np.cos(g.x)).max() < 1e-13
    assert np.abs(fs.E - np.sin(g.x)).max() < 1e-13
    fs0 = solve_poisson(np.zeros(g.nx), g)
    assert np.abs(fs0.phi).max() == 0.0
    assert np.abs(fs0.E).max() == 0.0


def test_poisson_spectral_identity(setup12):
    g, _, _ = setup12
    rng = np.random.default_rng(4)
    rho = rng.standard_normal(g.nx)
    rho -= rho.mean()
    # keep it representable for differentiation: drop the Nyquist mode
    rh = np.fft.rfft(rho)
    rh[-1] = 0.0
    rho = np.fft.irfft(rh, n=g.nx)
    fs = solve_poisson(rho, g)
    assert div_E_residual(fs, g) < 1e-12
    assert abs(fs.phi.mean()) < 1e-14


def test_poisson_reports_mean(setup12):
    g, _, _ = setup12
    with pytest.warns(RuntimeWarning):
        fs = solve_poisson(np.cos(g.x) + 0.1, g)
    assert fs.mean_rho == pytest.approx(0.1, rel=1e-10)


def test_moment_residuals_stationary_zero(setup12):
    g, mw, proj = setup12
    f = np.zeros((2, g.nx, g.n))
    snaps = [(0.0, f), (0.1, f), (0.2, f)]
    recs = moment_residuals(snaps, 0.1, proj,
                            lambda x: np.zeros_like(x),
                            lambda x, fs: np.zeros_like(x))
    assert max(r["max_residual"] for r in recs) == 0.0


def test_moment_residuals_needs_three_snapshots(setup12):
    g, mw, proj = setup12
    f = np.zeros((2, g.nx, g.n))
    with pytest.raises(ValueError):
        moment_residuals([(0.0, f), (0.1, f)], 0.1, proj,
                         lambda x: x, lambda x, fs: x)


# -- per-snapshot reference of moment_residuals ------------------------------
# The residual lines as first written: one pack of tables per snapshot and a
# closure per d/dt. The whole-series moment_residuals must reproduce every
# record bit for bit.


def _ref_project_P(f, projector):
    """Reference: split f into (MacroState, Pf, (I-P)f), one snapshot.

    The macroscopic coefficients follow the stated inner products; the split
    itself uses the orthonormalized basis (idempotent at grid level).
    """
    f = np.asarray(f)
    Pf, IPf = projector.split(f)
    mf, mi = projector.moments(f), projector.moments(IPf)
    state = MacroState(
        a_plus=mf[0, MASS], a_minus=mf[1, MASS],
        b=0.5 * (mf[0, MO:MO + 3] + mf[1, MO:MO + 3]),
        c=(mf[0, EN] + mf[1, EN]) / 12.0,
        theta=mi[:, TH:TH + 9].reshape((2, 3, 3) + mi.shape[2:]),
        lam=mi[:, LA:LA + 3],
        G=mi[0, MO:MO + 3] - mi[1, MO:MO + 3])
    return state, Pf, IPf


def _ref_moment_pack(f, projector, apply_L, forcing):
    """All per-snapshot ingredients the residual lines need.

    Besides the state and the field, the pack holds the table moments
    (2, 17, nx) of (I-P)f, g, Lf, h and v_1 d_x (I-P)f.
    """
    grid = projector.grid
    state, Pf, IPf = _ref_project_P(f, projector)
    fs = solve_poisson(state.a_plus - state.a_minus, grid)
    Lf = apply_L(f)
    g = forcing(f, fs)
    dxf = grid.ddx(IPf, axis=-2)
    transport = -grid.v[0] * dxf     # -v.grad_x (I-P)f, one spatial axis
    h = transport + Lf
    mom = projector.moments
    return {"state": state, "field": fs, "ipf": mom(IPf), "g": mom(g),
            "L": mom(Lf), "h": mom(h), "trans": mom(grid.v[0] * dxf)}


def _ref_moment_residuals(snapshots, dt, projector, apply_L, forcing):
    """Reference: the residual lines evaluated one interior snapshot at a time,
    with a per-snapshot pack and one d/dt closure per line.

    Parameters
    ----------
    snapshots : list of (t, f) with f shaped (2, nx, n) at uniform spacing dt
    projector : MacroProjector; its grid is the grid of the snapshots
    apply_L : callable f -> Lf
    forcing : callable (f, FieldState) -> g, the nonlinear forcing as the
        time stepper discretizes it (zeroed parts excluded).

    Returns a list of records {"equation_id", "t", "max_residual",
    "l2_residual"}, one per equation line per interior snapshot, plus the
    continuity check d/dt(a_+ - a_-) + div G.
    """
    if len(snapshots) < 3:
        raise ValueError("moment residuals need at least 3 consecutive snapshots")
    packs = [_ref_moment_pack(f, projector, apply_L, forcing) for _, f in snapshots]
    times = [t for t, _ in snapshots]
    ddx = projector.grid.ddx
    records = []

    def emit(eq, t, r):
        records.append({
            "equation_id": eq,
            "t": float(t),
            "max_residual": float(np.abs(r).max()),
            "l2_residual": float(np.sqrt(np.mean(np.abs(r) ** 2))),
        })

    sgn = (1.0, -1.0)
    for k in range(1, len(snapshots) - 1):
        t = times[k]
        pm, p0, pp = packs[k - 1], packs[k], packs[k + 1]
        def dt_of(extract):
            return (extract(pp) - extract(pm)) / (2.0 * dt)
        st = p0["state"]
        E1 = p0["field"].E
        a = (st.a_plus, st.a_minus)
        ipf, mg, mh, tr = p0["ipf"], p0["g"], p0["h"], p0["trans"]
        mLg = p0["L"] + mg
        for s in range(2):
            tag = "p" if s == 0 else "m"
            # mass
            r = dt_of(lambda q, s=s: (q["state"].a_plus, q["state"].a_minus)[s]) \
                + ddx(st.b[0]) + ddx(ipf[s, MO])
            emit(f"s17_mass_{tag}", t, r)
            # momentum
            for j in range(3):
                r = dt_of(lambda q, s=s, j=j: q["state"].b[j] + q["ipf"][s, MO + j]) \
                    + (ddx(a[s] + 2.0 * st.c) if j == 0 else 0.0) \
                    - sgn[s] * (E1 if j == 0 else 0.0) \
                    + tr[s, MO + j] - mLg[s, MO + j]
                emit(f"s17_momentum_{tag}{j+1}", t, r)
            # energy
            r = dt_of(lambda q, s=s: q["state"].c + q["ipf"][s, EN] / 6.0) \
                + ddx(st.b[0]) / 3.0 + tr[s, EN] / 6.0 - mLg[s, EN] / 6.0
            emit(f"s17_energy_{tag}", t, r)
            # Theta diagonal
            for j in range(3):
                r = dt_of(lambda q, s=s, j=j: q["state"].theta[s, j, j] + 2.0 * q["state"].c) \
                    + 2.0 * (ddx(st.b[j]) if j == 0 else 0.0) \
                    - mg[s, TH + 3 * j + j] - mh[s, TH + 3 * j + j]
                emit(f"s17_theta_{tag}{j+1}{j+1}", t, r)
            # Theta off-diagonal
            for j in range(3):
                for kk in range(j + 1, 3):
                    r = dt_of(lambda q, s=s, j=j, kk=kk: q["state"].theta[s, j, kk]) \
                        + (ddx(st.b[kk]) if j == 0 else 0.0) \
                        + (ddx(st.b[j]) if kk == 0 else 0.0) \
                        + ddx(ipf[s, MO]) \
                        - mg[s, TH + 3 * j + kk] - mh[s, TH + 3 * j + kk] \
                        - mg[s, MASS] - p0["L"][s, MASS]
                    emit(f"s17_theta_{tag}{j+1}{kk+1}", t, r)
            # Lambda
            for j in range(3):
                r = dt_of(lambda q, s=s, j=j: q["state"].lam[s, j]) \
                    + (ddx(st.c) if j == 0 else 0.0) \
                    - mg[s, LA + j] - mh[s, LA + j]
                emit(f"s17_lambda_{tag}{j+1}", t, r)

        # (19): species means
        r = dt_of(lambda q: 0.5 * (q["state"].a_plus + q["state"].a_minus)) + ddx(st.b[0])
        emit("s19_mass", t, r)
        th_sum = p0["state"].theta[0] + p0["state"].theta[1]
        g_sum, gh_sum = mg.sum(axis=0), (mg + mh).sum(axis=0)
        for j in range(3):
            r = dt_of(lambda q, j=j: q["state"].b[j]) \
                + (ddx(0.5 * (st.a_plus + st.a_minus) + 2.0 * st.c) if j == 0 else 0.0) \
                + 0.5 * ddx(th_sum[j, 0]) - 0.5 * g_sum[MO + j]
            emit(f"s19_momentum_{j+1}", t, r)
        lam_sum = p0["state"].lam[0] + p0["state"].lam[1]
        r = dt_of(lambda q: q["state"].c) + ddx(st.b[0]) / 3.0 \
            + (5.0 / 6.0) * ddx(lam_sum[0]) - g_sum[EN] / 12.0
        emit("s19_energy", t, r)
        for j in range(3):
            for kk in range(j, 3):
                r = dt_of(lambda q, j=j, kk=kk:
                          0.5 * (q["state"].theta[0, j, kk] + q["state"].theta[1, j, kk])
                          + (2.0 * q["state"].c if j == kk else 0.0)) \
                    + (ddx(st.b[kk]) if j == 0 else 0.0) \
                    + (ddx(st.b[j]) if kk == 0 else 0.0) \
                    - 0.5 * gh_sum[TH + 3 * j + kk]
                emit(f"s19_theta_{j+1}{kk+1}", t, r)
        for j in range(3):
            r = 0.5 * dt_of(lambda q, j=j: q["state"].lam[0, j] + q["state"].lam[1, j]) \
                + (ddx(st.c) if j == 0 else 0.0) - 0.5 * gh_sum[LA + j]
            emit(f"s19_lambda_{j+1}", t, r)

        # (21): species differences / field dissipation
        r = dt_of(lambda q: q["state"].a_plus - q["state"].a_minus) + ddx(st.G[0])
        emit("s21_continuity", t, r)
        th_diff = p0["state"].theta[0] - p0["state"].theta[1]
        for j in range(3):
            r = dt_of(lambda q, j=j: q["state"].G[j]) \
                + (ddx(st.a_plus - st.a_minus) if j == 0 else 0.0) \
                - 2.0 * (E1 if j == 0 else 0.0) \
                + ddx(th_diff[j, 0]) - (mLg[0, MO + j] - mLg[1, MO + j])
            emit(f"s21_field_{j+1}", t, r)
    return records


@pytest.mark.parametrize("nv, nx", [(8, 8), (12, 4)])
def test_moment_residuals_match_per_snapshot_reference(nv, nx):
    g = build_grid(nv=nv, vmax=6.0, nx=nx)
    mw = maxwellian(g)
    asm = CollisionAssembly(g, mw, 0.0)
    proj = MacroProjector(g, mw)
    sim = Simulation(asm, 0.05)
    st = TwoSpeciesField(make_initial_data(g, mw, "macroscopic", amplitude=1e-2, asym=0.5),
                         g, mw)
    snaps = sim.run(st, 0.3, 1)
    assert len(snaps) == 7
    got = moment_residuals(snaps, 0.05, proj, asm.apply_L, sim.forcing)
    want = _ref_moment_residuals(snaps, 0.05, proj, asm.apply_L, sim.forcing)
    assert len(got) == len(want) == 46 * 5
    for r, w in zip(got, want):
        assert r == w        # equation_id, t and both residuals, bit for bit
