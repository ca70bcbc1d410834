import numpy as np
import pytest

from vplab import build_grid, maxwellian
from vplab.macroscopic import (MacroProjector, project_P, solve_poisson,
                               div_E_residual, moment_residuals,
                               MASS, MO, EN, TH, LA)


@pytest.fixture(scope="module")
def setup12():
    g = build_grid(nv=12, vmax=6.0, nx=16, lx=np.pi)
    mw = maxwellian(g)
    return g, mw, MacroProjector(g, mw)


def _x_const(field_v, grid):
    return np.broadcast_to(field_v[:, None, :],
                           (2, grid.nx, field_v.shape[-1])).copy()


def test_projection_mass_example(setup12):
    g, mw, proj = setup12
    f = _x_const(np.stack([mw.sqrt_mu, mw.sqrt_mu]), g)
    st, _, _ = project_P(f, proj)
    assert np.allclose(st.a_plus, 1.0, atol=1e-5)
    assert np.allclose(st.a_minus, 1.0, atol=1e-5)
    assert np.abs(st.b).max() < 1e-12
    assert np.abs(st.c).max() < 1e-5


def test_projection_momentum_example(setup12):
    g, mw, proj = setup12
    shape = g.v[0] * mw.sqrt_mu
    f = _x_const(np.stack([shape, shape]), g)
    st, _, _ = project_P(f, proj)
    assert np.allclose(st.b[0], 1.0, atol=1e-5)
    assert np.abs(st.b[1:]).max() < 1e-12
    assert np.abs(st.a_plus).max() < 1e-12
    assert np.abs(st.c).max() < 1e-12


def test_projection_energy_example(setup12):
    g, mw, proj = setup12
    shape = (g.vsq - 3.0) * mw.sqrt_mu
    f = _x_const(np.stack([shape, shape]), g)
    st, _, _ = project_P(f, proj)
    assert np.allclose(st.c, 1.0, atol=1e-4)


def test_projection_idempotent_and_orthogonal(setup12):
    g, mw, proj = setup12
    rng = np.random.default_rng(2)
    f = rng.standard_normal((2, g.nx, g.n))
    _, Pf, IPf = project_P(f, proj)
    _, PPf, _ = project_P(Pf, proj)
    assert np.abs(PPf - Pf).max() < 1e-10
    # pointwise in x
    inner = np.einsum("sxv,sxv->x", Pf, IPf) * g.wv
    norm = np.einsum("sxv,sxv->x", f, f) * g.wv
    assert np.abs(inner / norm).max() < 1e-10


def test_moment_table_layout(setup12):
    # project_P and every table row against the quadrature sums written out
    g, mw, proj = setup12
    v, vsq, smu = g.v, g.vsq, mw.sqrt_mu
    f = np.random.default_rng(3).standard_normal((2, g.nx, g.n)) * smu
    st, _, IPf = project_P(f, proj)

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
