"""Discrete pseudo-differential calculus: symbols, quantization, brackets.

Symbols live on a velocity grid times the DFT frequency grid of the same
box, with the 2pi-in-the-exponent Fourier convention, so op_t(a) has kernel
K(x, x') = sum_k exp(2 pi i (x - x') eta_k) a((1-t)x + t x', eta_k) d_eta,
and a == 1 quantizes to the exact identity. Quantization runs in reduced
dimension d = 1; the smoothing-proof symbols are evaluated pointwise in
any dimension.
"""

from dataclasses import dataclass, field

import numpy as np

VMAX = 6.0      # half-width of the velocity interval of every symbol table


def chi0(z):
    """Smooth cutoff: 1 on |z| < 1/2, 0 on |z| >= 1, quintic smoothstep between."""
    z = np.abs(np.asarray(z, dtype=float))
    t = np.clip((z - 0.5) / 0.5, 0.0, 1.0)
    s = t * t * t * (10.0 - 15.0 * t + 6.0 * t * t)
    return 1.0 - s


def chi0_prime(z):
    """Derivative of chi0 with respect to z (for z >= 0)."""
    z = np.asarray(z, dtype=float)
    t = np.clip((np.abs(z) - 0.5) / 0.5, 0.0, 1.0)
    ds = 30.0 * t * t * (1.0 - t) ** 2 / 0.5
    return -np.sign(z) * ds * ((np.abs(z) > 0.5) & (np.abs(z) < 1.0))


def _check_params(params):
    d1 = params.get("delta1", 0.5)
    if not 0.0 < d1 <= 0.5:
        raise ValueError("delta1 must lie in (0, 1/2]")
    gamma = params.get("gamma", -1.0)
    out = dict(params)
    out["delta1"] = float(d1)
    out["delta2"] = 1.0 - float(d1)
    out["gamma"] = float(gamma)
    out["l0"] = float(gamma) * out["delta2"]
    out.setdefault("K0", 1.0)
    return out


@dataclass
class SymbolTable:
    """Tabulated symbol a(v, eta) with its evaluator and parameters."""
    v_axis: np.ndarray
    eta_axis: np.ndarray
    values: np.ndarray
    func: object = field(repr=False)
    params: dict = field(default_factory=dict)
    y: float = 0.0

    def sup(self):
        return float(np.abs(self.values).max())


def _grids(nv):
    if nv % 2 == 0:
        nv += 1           # odd point count keeps the frequency set symmetric
    hv = 2.0 * VMAX / nv
    v = -VMAX + (np.arange(nv) + 0.5) * hv
    eta = np.sort(np.fft.fftfreq(nv, d=hv))
    return v, eta


def _symbol_funcs(kind, p, y):
    ay = abs(y)
    gamma, K0 = p["gamma"], p["K0"]
    l0, d1, d2 = p["l0"], p["delta1"], p["delta2"]

    def br(x):
        return np.sqrt(1.0 + x ** 2)

    if kind == "a_tilde":
        return lambda v, eta: br(v) ** gamma * (1.0 + eta ** 2 + v ** 2) \
            + K0 * br(v) ** (gamma + 2.0)
    if kind == "b_tilde":
        return lambda v, eta: br(v) ** l0 * ay ** d1 * np.ones_like(eta)
    if kind == "chi":
        return lambda v, eta: chi0(br(eta) * br(v) ** l0 / ay ** d2)
    if kind == "theta":
        return lambda v, eta: br(v) ** l0 * ay ** (-1.0 - d2) * (y * eta) \
            * chi0(br(eta) * br(v) ** l0 / ay ** d2)
    raise ValueError(f"unknown symbol kind: {kind!r}")


def make_symbol(kind, gamma=-1.0, K0=1.0, delta1=0.5, y=1.0, nv=33, custom=None):
    """Tabulate one of the smoothing-proof symbols (or a custom callable).

    Kinds: "a_tilde" (admissible weight), "b_tilde", "chi" (cutoff),
    "theta" (bounded bracket symbol), "custom". Parameters are validated:
    delta1 in (0, 1/2], delta2 = 1 - delta1, l0 = gamma delta2.
    """
    p = _check_params({"gamma": gamma, "K0": K0, "delta1": delta1})
    v, eta = _grids(nv)
    if kind == "custom":
        if custom is None:
            raise ValueError("custom symbol needs a callable")
        func = custom
    else:
        func = _symbol_funcs(kind, p, y)
    V, H = np.meshgrid(v, eta, indexing="ij")
    vals = func(V, H)
    if not np.all(np.isfinite(vals)):
        raise ValueError("symbol table has non-finite entries")
    return SymbolTable(v_axis=v, eta_axis=eta, values=np.asarray(vals),
                       func=func, params=p, y=float(y))


@dataclass
class QuantizedOperator:
    """Dense realization of op_t(a) on the velocity grid."""
    matrix: np.ndarray
    hermiticity_defect: float


def quantize(sym, t=0.5):
    """Dense op_t(a), t in {0, 1/2}; midpoint quadrature over the eta grid.

    Weyl quantization (t = 1/2) of a real symbol is hermitized after
    quadrature; `hermiticity_defect` is measured before. Raises above 64
    velocity points.
    """
    if t not in (0.0, 0.5):
        raise ValueError("quantization supports t in {0, 1/2}")
    v, eta = sym.v_axis, sym.eta_axis
    nv = v.size
    if nv > 64:
        raise ValueError(f"grid too large for a dense kernel (nv={nv})")
    deta = 1.0 / (nv * (v[1] - v[0]))
    dv = v[1] - v[0]
    X = v[:, None]
    Y = v[None, :]
    mid = (1.0 - t) * X + t * Y
    a_mid = sym.func(mid[:, :, None], eta[None, None, :])
    phase = np.exp(2j * np.pi * (X - Y)[:, :, None] * eta[None, None, :])
    M = (a_mid * phase).sum(axis=-1) * deta * dv
    defect = float(np.abs(M - M.conj().T).max())
    if t == 0.5 and np.isrealobj(sym.values):
        M = 0.5 * (M + M.conj().T)
    return QuantizedOperator(matrix=M, hermiticity_defect=defect)


def operator_norm_probe(op):
    """Largest singular value, exact: the dense 2-norm (quantize caps nv at 64)."""
    return float(np.linalg.norm(op.matrix, 2))


def bracket_decomposition_check(y, gamma=-1.0, fd_step=None):
    """Pointwise check of {theta, v.y} = b_tilde + R1 + R2 on a 4D sample grid.

    delta1 = 1/2, K0 = 1, y along the first axis. The grid spans (v1, v2,
    eta1, eta2), |v| <= 6, |eta| <= max(2, 2|y|^delta2), with the remaining
    components zero (the symbols depend on |v|, |eta|, and eta1 only). The
    bracket side uses a second-order finite difference of step fd_step along
    eta1 (grid spacing by default); the decomposition side is closed-form.
    Reports the maximum discrepancy, the domination ratios sup|R1|/a_tilde
    and sup|R2|/a_tilde, and the discrepancy on the region where the cutoff
    is identically one across the whole stencil (theta is linear in eta1
    there, so the difference is exact).
    """
    p = _check_params({"gamma": gamma})
    l0, d1, d2, K0 = p["l0"], p["delta1"], p["delta2"], p["K0"]
    ay = abs(float(y))
    eta_max = max(2.0, 2.0 * ay ** d2)
    v1 = np.linspace(-6.0, 6.0, 24)
    v2 = np.linspace(0.0, 6.0, 12)
    e1 = np.linspace(-eta_max, eta_max, 24)
    e2 = np.linspace(0.0, eta_max, 12)
    V1, V2, E1, E2 = np.meshgrid(v1, v2, e1, e2, indexing="ij")
    bv = np.sqrt(1.0 + V1 ** 2 + V2 ** 2)
    be = np.sqrt(1.0 + E1 ** 2 + E2 ** 2)

    def zeta(E1v):
        return np.sqrt(1.0 + E1v ** 2 + E2 ** 2) * bv ** l0 / ay ** d2

    def theta_of(E1v):
        return bv ** l0 * ay ** (-1.0 - d2) * (ay * E1v) * chi0(zeta(E1v))

    he = float(fd_step) if fd_step is not None else float(e1[1] - e1[0])
    bracket_fd = ay * (theta_of(E1 + he) - theta_of(E1 - he)) / (2.0 * he)

    z = zeta(E1)
    btilde = bv ** l0 * ay ** (1.0 - d2)
    R1 = bv ** l0 * ay ** (1.0 - d2) * (chi0(z) - 1.0)
    dchi_de1 = chi0_prime(z) * bv ** l0 / ay ** d2 * (E1 / be)
    R2 = bv ** l0 * ay ** (-1.0 - d2) * (ay * E1) * (ay * dchi_de1)
    analytic = btilde + R1 + R2

    atilde = bv ** gamma * (1.0 + E1 ** 2 + E2 ** 2 + V1 ** 2 + V2 ** 2) \
        + K0 * bv ** (gamma + 2.0)
    disc = np.abs(bracket_fd - analytic)
    chi_one = (chi0(z) >= 1.0) & (chi0(zeta(E1 + he)) >= 1.0) \
        & (chi0(zeta(E1 - he)) >= 1.0)
    report = {
        "y": ay, "gamma": gamma, "delta1": d1,
        "max_discrepancy": float(disc.max()),
        "fd_step_eta": he,
        "r1_over_atilde": float((np.abs(R1) / atilde).max()),
        "r2_over_atilde": float((np.abs(R2) / atilde).max()),
        "max_disc_on_chi_one": float(disc[chi_one].max()) if chi_one.any() else 0.0,
        "theta_sup": float(np.abs(theta_of(E1)).max()),
    }
    return report


def theta_norm_sweep(gamma=-1.0, nv=33, y_exponents=range(-4, 5)):
    """sup ||theta^w|| over a dyadic y sweep (dense 2-norm)."""
    norms = {}
    for e in y_exponents:
        y = 2.0 ** e
        sym = make_symbol("theta", gamma=gamma, y=y, nv=nv)
        op = quantize(sym, t=0.5)
        norms[float(y)] = operator_norm_probe(op)
    return {"norms": norms, "sup": max(norms.values()), "nv": nv}


def sigma_norm_1d(f, v, gamma):
    """One-dimensional analog of the weighted dissipation norm (l = 0)."""
    h = v[1] - v[0]
    df = np.gradient(f, h)
    br2 = 1.0 + v ** 2
    val = np.sum(br2 ** (gamma / 2.0) * np.abs(df) ** 2) * h \
        + np.sum(br2 ** ((gamma + 2.0) / 2.0) * np.abs(f) ** 2) * h
    return float(np.sqrt(val))


def atilde_sigma_bound_check(gamma=-1.0):
    """Measured constant in ||(a_tilde^{1/2})^w f|| <= C |f|_{sigma,0} (1D), K0 = 1."""
    n_fields = 50               # seeded random real fields; C is their largest ratio
    sym = make_symbol("custom", gamma=gamma,
                      custom=lambda v, eta: np.sqrt(
                          (1.0 + v ** 2) ** (gamma / 2.0)
                          * (1.0 + eta ** 2 + v ** 2)
                          + (1.0 + v ** 2) ** ((gamma + 2.0) / 2.0)))
    op = quantize(sym, t=0.5)
    v = sym.v_axis
    h = v[1] - v[0]
    rng = np.random.default_rng(np.random.Philox(key=0))
    ratios = []
    n = v.size
    for _ in range(n_fields):
        coef = np.zeros(n, dtype=complex)
        idx = np.arange(1, 7)                 # a real field of Fourier modes 0..6
        c = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        coef[idx] = c
        coef[-idx] = np.conj(c)
        coef[0] = rng.standard_normal()
        f = np.fft.ifft(coef).real
        num = float(np.sqrt(np.sum(np.abs(op.matrix @ f) ** 2) * h))
        den = sigma_norm_1d(f, v, gamma)
        ratios.append(num / den)
    return {"C_measured": float(max(ratios)), "n_fields": n_fields}


def interpolation_display_check(alpha, beta=0, gamma=-1.0):
    """Check the time-weight interpolation display pointwise on a sample grid.

    psi_{|a|-3-1/(2N)} <= delta b_tilde^{1/2} psi_{|a|-3}
                          + C_{0,delta} <v>^{-l0 |a|/delta1} |y|^{-|a|}.

    The display is a Young-inequality split in the weight b_tilde, so the
    constant is taken in closed form, C = q^{-1} (delta p)^{-q/p} with the
    conjugate pair implied by the order rule; the check evaluates the
    pointwise inequality with that constant on a base and a refined, wider
    (t, v, y) grid, and also reports the attained supremum. delta = 1/2 and
    delta1 follows the order rule.
    """
    from .solver import PsiWeight
    psi = PsiWeight("tn")
    delta1 = psi.delta1(alpha, beta)
    delta = 0.5
    p = _check_params({"gamma": gamma, "delta1": delta1})
    l0 = p["l0"]
    N = psi.N_of(alpha, beta)
    k = alpha - 3.0
    if k - 1.0 / (2 * N) > 0:
        q = 2.0 * N * k
        pc = q / (q - 1.0)
    else:
        # below the order threshold the left side is 1; the split pairs
        # b_tilde^{eta/2} with its reciprocal at eta/(1-eta) = 2 alpha/delta1
        eta = (2.0 * alpha / p["delta1"]) / (1.0 + 2.0 * alpha / p["delta1"])
        pc = 1.0 / eta
        q = 1.0 / (1.0 - eta)
    C_young = (1.0 / q) * (delta * pc) ** (-q / pc)
    t_grid = np.linspace(0.02, 1.0, 40)
    v_grid = np.linspace(0.0, 8.0, 40)
    y_grid = np.geomspace(0.1, 10.0, 30)

    def measure(ts, vs, ys):
        T, V, Y = np.meshgrid(ts, vs, ys, indexing="ij")
        bv = np.sqrt(1.0 + V ** 2)
        lhs = np.where(k - 1.0 / (2 * N) <= 0, 1.0,
                       T ** (N * max(k - 1 / (2 * N), 0.0)))
        psi_k = np.where(k <= 0, 1.0, T ** (N * max(k, 0.0)))
        btilde = bv ** l0 * np.abs(Y) ** p["delta1"]
        term1 = delta * np.sqrt(btilde) * psi_k
        gain = bv ** (-l0 * alpha / p["delta1"]) * np.abs(Y) ** (-alpha)
        need = np.where(lhs > term1, (lhs - term1) / gain, 0.0)
        return float(need.max())

    C0 = measure(t_grid, v_grid, y_grid)
    tr = np.linspace(t_grid[0] / 2.0, 1.0, 2 * len(t_grid))
    vr = np.linspace(0.0, v_grid[-1] * 2.0, 2 * len(v_grid))
    yr = np.geomspace(y_grid[0] / 2.0, y_grid[-1] * 2.0, 2 * len(y_grid))
    C1 = measure(tr, vr, yr)
    return {
        "alpha": alpha, "beta": beta, "N": float(N), "delta": delta,
        "delta1": float(delta1), "C_young": float(C_young),
        "C_attained_base": C0, "C_attained_refined": C1,
        "holds_base": bool(C0 <= C_young * (1.0 + 1e-9)),
        "holds_on_refined": bool(C1 <= C_young * (1.0 + 1e-9)),
    }
