import numpy as np
import pytest
from scipy.integrate import quad

from vplab import build_grid, maxwellian, NormSuite, VelocityWeight


def test_constructor_echo():
    g = build_grid(nv=16, vmax=6.0, nx=32, lx=np.pi)
    assert g.n == 16 ** 3
    assert g.kx_r.size == 32 // 2 + 1
    # quadrature weights sum to the box volume
    assert np.isclose(g.n * g.wv, (2 * 6.0) ** 3)
    # the rfft wavenumbers are 0, 1, ..., 16 in units of pi / lx
    ks = np.round(g.kx_r * g.lx / np.pi).astype(int)
    np.testing.assert_array_equal(ks, np.arange(17))


def test_dx_powers_match_trig_polynomial_derivatives():
    # every rfft mode below Nyquist, with random amplitudes and phases; the
    # a-th derivative of cos(k x + p) is k^a cos(k x + p + a pi / 2)
    g = build_grid(nv=8, vmax=6.0, nx=32, lx=2.5)
    rng = np.random.default_rng(5)
    amp, phase = rng.standard_normal(16), rng.uniform(0, 2 * np.pi, 16)
    k = g.kx_r[:16]
    f = (amp[:, None] * np.cos(k[:, None] * g.x + phase[:, None])).sum(axis=0)
    got = g.dx_powers(f, 3, -1)
    assert got[0] is f
    for a in range(4):
        exact = (amp[:, None] * k[:, None] ** a
                 * np.cos(k[:, None] * g.x + phase[:, None] + a * np.pi / 2)).sum(axis=0)
        assert np.abs(got[a] - exact).max() <= 1e-12 * np.abs(exact).max()
    # the same ladder along another axis of a stacked field, and ddx is its first rung
    F = np.stack([f, 2 * f])[:, :, None] * np.ones(3)
    np.testing.assert_allclose(g.dx_powers(F, 2, 1)[2][1, :, 2], 2 * got[2],
                               rtol=0, atol=1e-12 * np.abs(got[2]).max())
    np.testing.assert_array_equal(g.ddx(F, axis=1), g.dx_powers(F, 1, 1)[1])


def test_dx_of_nyquist_mode_is_zero():
    g = build_grid(nv=8, vmax=6.0, nx=32, lx=2.5)
    nyq = np.cos(g.kx_r[-1] * g.x)             # (-1)^j on the grid
    assert np.abs(g.ddx(nyq)).max() <= 1e-12 * g.kx_r[-1]


def test_grid_validation():
    with pytest.raises(ValueError):
        build_grid(nv=15, vmax=6.0)
    with pytest.raises(ValueError):
        build_grid(nv=16, vmax=-1.0)
    with pytest.raises(ValueError):
        build_grid(nv=16, vmax=6.0, nx=12)
    with pytest.raises(ValueError):
        build_grid(nv=6, vmax=6.0)


def test_velocity_grid_symmetric(grid8):
    assert np.allclose(grid8.v1d, -grid8.v1d[::-1])


def test_maxwellian_mass_against_quadrature_oracle():
    g = build_grid(nv=24, vmax=6.0, nx=8)
    mw = maxwellian(g)
    # independent oracle: adaptive 1D Gaussian quadrature over the box, cubed
    one_d, _ = quad(lambda v: (2 * np.pi) ** -0.5 * np.exp(-v * v / 2), -6, 6)
    # midpoint vs exact integral differ by endpoint corrections ~2e-9 here
    assert abs(mw.mass - one_d ** 3) < 1e-8
    assert abs(mw.mass - 1.0) < 1e-6


def test_maxwellian_peak_formula(grid8, maxw8):
    # formula value at v = 0 (not a cell center); the tabulated peak matches
    # the formula at its own node
    assert abs((2 * np.pi) ** -1.5 - 0.063494) < 1e-6
    imax = np.argmax(maxw8.mu)
    expect = (2 * np.pi) ** -1.5 * np.exp(-grid8.vsq[imax] / 2)
    assert maxw8.mu[imax] == pytest.approx(expect, rel=1e-14)
    assert maxw8.mu.min() > 0


def test_maxwellian_even(grid8, maxw8):
    nv = grid8.nv
    m3 = maxw8.mu.reshape(nv, nv, nv)
    assert np.array_equal(m3, m3[::-1, ::-1, ::-1])


def test_odd_integrand_vanishes(grid8, maxw8):
    val = grid8.integrate_v(grid8.v[0] * maxw8.mu)
    assert abs(val) < 1e-16


def test_velocity_weight_branches(grid8):
    hard = VelocityWeight(grid8, 0.0)
    assert hard.hard
    assert np.allclose(hard.w, np.sqrt(1 + grid8.vsq))
    soft = VelocityWeight(grid8, -2.5)
    assert not soft.hard
    assert np.allclose(soft.w, np.sqrt(1 + grid8.vsq) ** 2.5)
    assert hard.w.min() >= 1.0 and soft.w.min() >= 1.0
    with pytest.raises(ValueError):
        VelocityWeight(grid8, -3.5)


def _sigma(ns, g, l):
    """|g|_{sigma,l} of one velocity field, through the batched evaluator."""
    return float(np.sqrt(ns.sigma_sq_batch(g, l)))


def test_sigma_norm_zero_and_homogeneity(grid8, maxw8):
    ns = NormSuite(grid8, VelocityWeight(grid8, 0.0))
    assert _sigma(ns, np.zeros(grid8.n), 0.0) == 0.0
    rng = np.random.default_rng(1)
    gfield = rng.standard_normal(grid8.n) * maxw8.sqrt_mu
    s1 = _sigma(ns, gfield, 1.0)
    s2 = _sigma(ns, -2.5 * gfield, 1.0)
    assert s2 == pytest.approx(2.5 * s1, rel=1e-12)


def test_sigma_norm_dominates_weighted_l2(grid8, maxw8):
    # gamma = 0, l = 0: the zeroth term alone is ||<v> g||^2
    ns = NormSuite(grid8, VelocityWeight(grid8, 0.0))
    gfield = (1 + grid8.vsq) * maxw8.sqrt_mu
    val = _sigma(ns, gfield, 0.0)
    low = np.sqrt(np.sum((1 + grid8.vsq) * gfield ** 2) * grid8.wv)
    assert val >= low


def test_sigma_norm_sqrt_mu_against_radial_quadrature():
    # gamma = -3, l = 0: P_v grad sqrt_mu = -(v/2) sqrt_mu, perpendicular 0
    g = build_grid(nv=24, vmax=6.0, nx=8)
    mw = maxwellian(g)
    ns = NormSuite(g, VelocityWeight(g, -3.0))
    val = _sigma(ns, mw.sqrt_mu, 0.0)
    mu_r = lambda r: (2 * np.pi) ** -1.5 * np.exp(-r * r / 2)
    t1, _ = quad(lambda r: 4 * np.pi * r ** 2 * (1 + r * r) ** -1.5
                 * (r * r / 4) * mu_r(r), 0, 6.0)
    t2, _ = quad(lambda r: 4 * np.pi * r ** 2 * (1 + r * r) ** -0.5 * mu_r(r),
                 0, 6.0)
    oracle = np.sqrt(t1 + t2)
    assert abs(val - oracle) / oracle < 0.01


def test_sigma_norm_second_order_refinement():
    vals = {}
    for nv in (16, 24, 32):
        g = build_grid(nv=nv, vmax=6.0, nx=8)
        ns = NormSuite(g, VelocityWeight(g, 0.0))
        gfield = np.exp(-g.vsq / 3.0) * (1 + g.v[0])
        vals[nv] = _sigma(ns, gfield, 0.0)
    d1 = abs(vals[16] - vals[24])
    d2 = abs(vals[24] - vals[32])
    expected = (1 / 16 ** 2 - 1 / 24 ** 2) / (1 / 24 ** 2 - 1 / 32 ** 2)
    assert d1 / d2 == pytest.approx(expected, rel=0.5)


def test_z1_factorization(grid8, maxw8):
    ns = NormSuite(grid8, VelocityWeight(grid8, 0.0))
    alpha = 1.0 + 0.3 * np.sin(grid8.x)
    beta = maxw8.sqrt_mu * (1 + grid8.v[1])
    f = np.stack([alpha[:, None] * beta[None, :],
                  np.zeros((grid8.nx, grid8.n))])
    l1x = np.sum(np.abs(alpha)) * grid8.dx
    l2v = np.sqrt(np.sum(beta ** 2) * grid8.wv)
    assert ns.z1(f) == pytest.approx(l1x * l2v, rel=1e-12)
