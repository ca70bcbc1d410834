import numpy as np
import pytest

from vplab.weyl import (chi0, chi0_prime, make_symbol, quantize, SymbolTable,
                        operator_norm_probe,
                        bracket_decomposition_check, theta_norm_sweep,
                        atilde_sigma_bound_check, interpolation_display_check)


def test_cutoff_shape():
    assert chi0(0.0) == 1.0
    assert chi0(0.49) == 1.0
    assert chi0(1.0) == 0.0
    assert chi0(2.0) == 0.0
    z = np.linspace(0.5, 1.0, 50)
    vals = chi0(z)
    assert np.all(np.diff(vals) <= 0)
    # C^1 consistency of the derivative
    h = 1e-6
    for z0 in (0.6, 0.75, 0.9):
        fd = (chi0(z0 + h) - chi0(z0 - h)) / (2 * h)
        assert chi0_prime(z0) == pytest.approx(fd, abs=1e-6)


def test_symbol_parameter_validation():
    with pytest.raises(ValueError):
        make_symbol("theta", delta1=0.7)
    with pytest.raises(ValueError):
        make_symbol("theta", delta1=0.0)
    with pytest.raises(ValueError):
        make_symbol("nope")
    with pytest.raises(ValueError):
        make_symbol("custom")
    sym = make_symbol("theta", gamma=-1.0, delta1=0.4)
    assert sym.params["delta2"] == pytest.approx(0.6)
    assert sym.params["l0"] == pytest.approx(-0.6)


def test_a_tilde_origin_value():
    at = make_symbol("a_tilde", gamma=-1.0, K0=1.5, nv=33)
    iv = np.argmin(np.abs(at.v_axis))
    ie = np.argmin(np.abs(at.eta_axis))
    assert at.v_axis[iv] == pytest.approx(0.0, abs=1e-12)
    assert at.values[iv, ie] == pytest.approx(1.0 + 1.5, rel=1e-10)


def test_theta_bounded_and_chi_region():
    th = make_symbol("theta", gamma=-1.0, y=2.0)
    assert th.sup() <= 1.0 + 0.2
    ch = make_symbol("chi", gamma=-1.0, y=2.0)
    p = ch.params
    V, H = np.meshgrid(ch.v_axis, ch.eta_axis, indexing="ij")
    z = np.sqrt(1 + H ** 2) * np.sqrt(1 + V ** 2) ** p["l0"] / 2.0 ** p["delta2"]
    inside = z < 0.5
    if inside.any():
        assert np.all(ch.values[inside] == 1.0)


def test_quantize_identity_multiplication_derivative():
    one = make_symbol("custom", custom=lambda v, e: np.ones_like(v * e))
    op1 = quantize(one, 0.5)
    n = op1.matrix.shape[0]
    assert np.abs(op1.matrix - np.eye(n)).max() < 1e-6
    vs = make_symbol("custom", custom=lambda v, e: v * np.ones_like(e))
    opv = quantize(vs, 0.5)
    assert np.abs(opv.matrix - np.diag(vs.v_axis)).max() < 1e-6
    es = make_symbol("custom", custom=lambda v, e: np.ones_like(v) * e)
    ope = quantize(es, 0.5)
    v = es.v_axis
    h = v[1] - v[0]
    coef = np.zeros(n, dtype=complex)
    coef[1], coef[2] = 1 + 0.5j, 0.3 - 0.2j
    coef[-1], coef[-2] = np.conj(coef[1]), np.conj(coef[2])
    f = np.fft.ifft(coef).real
    fp = np.fft.ifft(2j * np.pi * np.fft.fftfreq(n, d=h) * np.fft.fft(f)).real
    assert np.abs(ope.matrix @ f - fp / (2j * np.pi)).max() < 1e-6


def test_weyl_hermitian_for_real_symbols():
    th = make_symbol("theta", gamma=-1.0, y=2.0)
    op = quantize(th, 0.5)
    assert op.hermiticity_defect < 1e-10          # measured before hermitizing
    assert np.abs(op.matrix - op.matrix.conj().T).max() < 1e-15


def test_op0_equals_weyl_on_diagonal_symbols():
    vs = make_symbol("custom", custom=lambda v, e: v ** 2 * np.ones_like(e))
    assert np.abs(quantize(vs, 0.0).matrix - quantize(vs, 0.5).matrix).max() < 1e-10
    es = make_symbol("custom", custom=lambda v, e: np.ones_like(v) * np.cos(e))
    assert np.abs(quantize(es, 0.0).matrix - quantize(es, 0.5).matrix).max() < 1e-10


def test_quantize_caps():
    big = make_symbol("custom", nv=129, custom=lambda v, e: np.ones_like(v * e))
    with pytest.raises(ValueError):
        quantize(big, 0.5)
    with pytest.raises(ValueError):
        quantize(make_symbol("theta"), 0.25)


def compose_first_order(a, b):
    """First-order symbol composition a #_1 b = ab + (1/4 pi i){a, b}.

    The Poisson bracket uses second-order finite differences on the
    tabulated (v, eta) grid (one-sided at the edges).
    """
    if a.values.shape != b.values.shape:
        raise ValueError("symbols must share a grid")
    dv = a.v_axis[1] - a.v_axis[0]
    da_v = np.gradient(a.values, dv, axis=0)
    db_v = np.gradient(b.values, dv, axis=0)
    da_e = np.gradient(a.values, a.eta_axis, axis=1)
    db_e = np.gradient(b.values, b.eta_axis, axis=1)
    bracket = da_e * db_v - da_v * db_e
    vals = a.values * b.values + bracket / (4j * np.pi)
    he = float(np.min(np.diff(a.eta_axis)))

    def func(v, e, af=a.func, bf=b.func, hv=dv, he=he):
        # same centered stencil as the tabulated bracket, evaluable at
        # the quantization midpoints
        br = ((af(v, e + he) - af(v, e - he)) * (bf(v + hv, e) - bf(v - hv, e))
              - (af(v + hv, e) - af(v - hv, e)) * (bf(v, e + he) - bf(v, e - he))) \
            / (4.0 * hv * he)
        return af(v, e) * bf(v, e) + br / (4j * np.pi)

    return SymbolTable(v_axis=a.v_axis, eta_axis=a.eta_axis, values=vals,
                       func=func, params=dict(a.params), y=a.y)


def test_compose_examples():
    one = make_symbol("custom", custom=lambda v, e: np.ones_like(v * e))
    b = make_symbol("custom", custom=lambda v, e: np.ones_like(v) * e)
    a = make_symbol("custom", custom=lambda v, e: v * np.ones_like(e))
    assert np.abs(compose_first_order(one, b).values - b.values).max() < 1e-14
    ab = compose_first_order(a, b)
    expect = a.values * b.values - 1.0 / (4j * np.pi)
    assert np.abs(ab.values - expect).max() < 1e-12


def test_bracket_antisymmetry():
    a = make_symbol("custom", custom=lambda v, e: np.exp(-(v ** 2 + e ** 2) / 4))
    b = make_symbol("custom", custom=lambda v, e: v * np.cos(e))
    ab = compose_first_order(a, b)
    ba = compose_first_order(b, a)
    # products cancel; bracket parts are opposite
    assert np.abs((ab.values + ba.values) - 2 * a.values * b.values).max() < 1e-13


def test_first_order_composition_beats_zeroth():
    # Gaussian bumps concentrated inside the eta band (aliasing) and away
    # from the box faces; the comparison restricts to interior-supported
    # action, where the wrap-around entries of the periodized kernel
    # (whose midpoint evaluation is meaningless) do not contribute.
    def bump(c, wv, we):
        return lambda v, e: np.exp(-((v - c) ** 2) / (2 * wv ** 2)
                                   - e ** 2 / (2 * we ** 2))

    prev = None
    for (wv, we) in ((1.5, 0.2), (2.5, 0.3)):
        a = make_symbol("custom", custom=bump(0.8, wv, we))
        b = make_symbol("custom", custom=bump(-0.8, wv, we))
        win = np.abs(a.v_axis) <= 3.0
        prod = quantize(a, 0.5).matrix @ quantize(b, 0.5).matrix
        ab0 = make_symbol("custom", custom=lambda v, e, A=a.func, B=b.func:
                          A(v, e) * B(v, e))
        D0 = quantize(ab0, 0.5).matrix - prod
        ab1 = compose_first_order(a, b)
        assert ab1.func is not None
        D1 = quantize(ab1, 0.5).matrix - prod
        e0 = np.abs(D0[np.ix_(win, win)]).max()
        e1 = np.abs(D1[np.ix_(win, win)]).max()
        assert e1 < 0.5 * e0
        if prev is not None:
            assert e1 < prev          # improves with smoothness
        prev = e1


def test_operator_norm_probe_examples():
    one = make_symbol("custom", custom=lambda v, e: np.ones_like(v * e))
    assert operator_norm_probe(quantize(one, 0.5)) == pytest.approx(1.0, abs=1e-8)
    vs = make_symbol("custom", custom=lambda v, e: v * np.ones_like(e))
    nrm = operator_norm_probe(quantize(vs, 0.5))
    assert nrm == pytest.approx(np.abs(vs.v_axis).max(), rel=1e-8)


def test_bracket_decomposition_identity():
    r1 = bracket_decomposition_check(2.0, gamma=-1.0)
    r2 = bracket_decomposition_check(2.0, gamma=-1.0,
                                     fd_step=r1["fd_step_eta"] / 2)
    assert r2["max_discrepancy"] < 0.6 * r1["max_discrepancy"]
    tiny = bracket_decomposition_check(2.0, gamma=-1.0, fd_step=1e-4)
    assert tiny["max_discrepancy"] < 1e-5
    assert r1["max_disc_on_chi_one"] < 1e-12
    assert r1["r1_over_atilde"] < 10.0
    assert r1["r2_over_atilde"] < 10.0
    assert r1["theta_sup"] < 1.2


def test_theta_norm_sweep_bounded():
    sw = theta_norm_sweep(nv=33, y_exponents=range(-3, 4))
    assert sw["sup"] < 2.0
    assert all(v >= 0 for v in sw["norms"].values())


def test_atilde_halfpower_sigma_bound():
    rep = atilde_sigma_bound_check(gamma=-1.0)
    assert np.isfinite(rep["C_measured"])
    assert rep["C_measured"] < 10.0


def test_interpolation_displays_hold():
    for (a, b) in ((4, 0), (5, 0), (2, 1), (1, 3)):
        rep = interpolation_display_check(a, b)
        assert rep["holds_base"], (a, b, rep)
        assert rep["holds_on_refined"], (a, b, rep)
