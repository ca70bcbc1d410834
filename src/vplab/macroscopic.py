"""Macroscopic projection, moments, Poisson field solve, residual monitors.

Fields carry shapes (2, nx, n) for two-species phase-space data, (nx,) for
spatial scalars. The projection uses the discretely orthonormalized null
basis, so the split f = Pf + (I-P)f is idempotent at machine precision;
the reported coefficients a_pm, b, c use the stated inner-product formulas
on the discrete quadrature.
"""

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass
class MacroState:
    """Macroscopic coefficients and high-order moments per spatial point; the
    trailing axes `...` follow the moment tables, (nx,) or (snapshots, nx)."""
    a_plus: np.ndarray       # (...)
    a_minus: np.ndarray
    b: np.ndarray            # (3, ...)
    c: np.ndarray
    theta: np.ndarray        # (2, 3, 3, ...): Theta_jk((I-P)f_s)
    lam: np.ndarray          # (2, 3, ...):    Lambda_j((I-P)f_s)
    G: np.ndarray            # (3, ...)


@dataclass
class FieldState:
    """Potential, field E = -d_x phi (the one active axis) and charge density."""
    phi: np.ndarray          # (nx,)
    E: np.ndarray            # (nx,)
    rho: np.ndarray          # (nx,)
    mean_rho: float = 0.0


def null_basis_raw(grid, maxw):
    """The six collision invariants spanning ker L, un-normalized, (6, 2, n)."""
    smu = maxw.sqrt_mu
    v = grid.v
    vsq = grid.vsq
    zero = np.zeros_like(smu)
    return np.stack([
        np.stack([smu, zero]),
        np.stack([zero, smu]),
        np.stack([v[0] * smu, v[0] * smu]),
        np.stack([v[1] * smu, v[1] * smu]),
        np.stack([v[2] * smu, v[2] * smu]),
        np.stack([vsq * smu, vsq * smu]),
    ])


def orthonormalize(vecs, wv):
    """Gram-Schmidt in the discrete L^2_v inner product, in the order given."""
    out = []
    for vec in vecs:
        w = np.array(vec, dtype=float)
        for u in out:
            w -= np.sum(u * w) * wv * u
        w /= np.sqrt(np.sum(w * w) * wv)
        out.append(w)
    return np.stack(out)


# Rows of MacroProjector.zeta: mass, momentum MO + j, energy, Theta_jk at
# TH + 3 j + k, Lambda_j at LA + j.
MASS, MO, EN, TH, LA = 0, 1, 4, 5, 14


class MacroProjector:
    """L^2_v-orthogonal projection onto the six collision invariants.

    `zeta` (17, n) holds every velocity test function of the macroscopic
    layer: sqrt_mu, v_j sqrt_mu, (|v|^2 - 3) sqrt_mu, (v_j v_k - 1) sqrt_mu
    and (|v|^2 - 5) v_j sqrt_mu / 10, in the row order named above.
    """

    def __init__(self, grid, maxw):
        self.grid = grid
        self.maxw = maxw
        self.basis = orthonormalize(null_basis_raw(grid, maxw), grid.wv)  # (6, 2, n)
        smu, v, vsq = maxw.sqrt_mu, grid.v, grid.vsq
        self.zeta = np.concatenate([
            smu[None], v * smu, ((vsq - 3.0) * smu)[None],
            (v[:, None] * v[None, :] - 1.0).reshape(9, -1) * smu,
            0.1 * (vsq - 5.0) * v * smu,
        ])

    def split(self, f):
        """Return (Pf, (I-P)f) for f of shape (2, ..., n)."""
        f = np.asarray(f)
        coef = np.tensordot(self.basis, f, axes=([1, 2], [0, -1])) * self.grid.wv
        if f.ndim == 2:
            Pf = np.tensordot(coef, self.basis, axes=(0, 0))
        else:
            Pf = np.moveaxis(np.tensordot(coef, self.basis, axes=(0, 0)), [-2, -1], [0, -1])
        return Pf, f - Pf

    def moments(self, X):
        """Every (zeta_r, X) for X (..., nx, n), as (..., 17, nx)."""
        return (self.zeta @ np.swapaxes(X, -1, -2)) * self.grid.wv


def macro_state(mf, mi):
    """The MacroState of the moment tables (2, 17, ...) of f and (I-P)f.

    The macroscopic coefficients follow the stated inner products; the
    trailing axes of the tables, (nx,) or (snapshots, nx), carry over.
    """
    return MacroState(
        a_plus=mf[0, MASS], a_minus=mf[1, MASS],
        b=0.5 * (mf[0, MO:MO + 3] + mf[1, MO:MO + 3]),
        c=(mf[0, EN] + mf[1, EN]) / 12.0,
        theta=mi[:, TH:TH + 9].reshape((2, 3, 3) + mi.shape[2:]),
        lam=mi[:, LA:LA + 3],
        G=mi[0, MO:MO + 3] - mi[1, MO:MO + 3])


def solve_poisson(rho, grid, scale=None):
    """Spectral solve of -Lap phi = rho on the torus, zero-mean phi, E = -grad phi.

    The zero mode of rho is removed (required for solvability); its size is
    reported in FieldState.mean_rho and a warning is emitted if it exceeds
    1e-10 relative to the density scale: `scale` when given, such as the
    largest species density |n_pm| of rho = n_+ - n_-, else max|rho|. The
    latter is the mean itself when rho is constant in x, so a caller that
    knows the species densities passes them.
    """
    rho = np.asarray(rho, dtype=float)
    rh = np.fft.rfft(rho)
    mean_rho = rh[0].real / grid.nx
    if scale is None:
        scale = np.abs(rho).max()
    if abs(mean_rho) > 1e-10 * scale:
        warnings.warn(
            f"poisson: removing nonzero charge mean {mean_rho:.3e}", RuntimeWarning
        )
    rh[0] = 0.0
    k = grid.kx_r
    ph = np.zeros_like(rh)
    ph[1:] = rh[1:] / k[1:] ** 2
    phi = np.fft.irfft(ph, n=grid.nx)
    E = np.fft.irfft(-1j * k * ph, n=grid.nx)
    return FieldState(phi=phi, E=E, rho=rho, mean_rho=float(mean_rho))


def div_E_residual(fs, grid):
    """Relative spectral residual of div E = rho (zero mode excluded)."""
    divE = grid.ddx(fs.E)
    rho0 = fs.rho - fs.rho.mean()
    denom = np.linalg.norm(rho0)
    if denom == 0:
        return 0.0
    return float(np.linalg.norm(divE - rho0) / denom)


def moment_residuals(snapshots, dt, projector, apply_L, forcing):
    """Discrete residuals of the moment evolution systems along a trajectory.

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

    Each line is evaluated once for the whole trajectory: the moment tables
    stack time on axis -2, and d/dt is the centred difference along it.
    """
    if len(snapshots) < 3:
        raise ValueError("moment residuals need at least 3 consecutive snapshots")
    grid, mom = projector.grid, projector.moments
    series = []
    for _, f in snapshots:
        IPf = projector.split(f)[1]
        mf = mom(f)
        fs = solve_poisson(mf[0, MASS] - mf[1, MASS], grid, np.abs(mf[:, MASS]).max())
        Lf = apply_L(f)
        trans = grid.v[0] * grid.ddx(IPf, axis=-2)
        # tables of f, (I-P)f, g, Lf, h = -v.grad_x (I-P)f + Lf, v_1 d_x (I-P)f; and E.
        # No phase-space array of the previous snapshot is alive during `forcing`.
        series.append((mf, mom(IPf), mom(forcing(f, fs)), mom(Lf), mom(-trans + Lf),
                       mom(trans), fs.E))
    mf, mi, mg, mL, mh, tr, E = (np.stack(x, axis=-2) for x in zip(*series))
    st = macro_state(mf, mi)

    def dt_of(x):
        return (x[..., 2:, :] - x[..., :-2, :]) / (2.0 * dt)

    def ddx(x):
        return grid.ddx(x[..., 1:-1, :])

    # every term but d/dt is read at the interior snapshots
    mg, mh, mL, tr, E = (x[..., 1:-1, :] for x in (mg, mh, mL, tr, E))
    mLg = mL + mg
    a = (st.a_plus, st.a_minus)
    R = {}                           # equation id -> residual (interior snapshots, nx)
    for s, tag in enumerate("pm"):
        sgn = (1.0, -1.0)[s]
        R[f"s17_mass_{tag}"] = dt_of(a[s]) + ddx(st.b[0]) + ddx(mi[s, MO])
        for j in range(3):
            R[f"s17_momentum_{tag}{j+1}"] = dt_of(st.b[j] + mi[s, MO + j]) \
                + (ddx(a[s] + 2.0 * st.c) if j == 0 else 0.0) \
                - sgn * (E if j == 0 else 0.0) + tr[s, MO + j] - mLg[s, MO + j]
        R[f"s17_energy_{tag}"] = dt_of(st.c + mi[s, EN] / 6.0) \
            + ddx(st.b[0]) / 3.0 + tr[s, EN] / 6.0 - mLg[s, EN] / 6.0
        for j in range(3):
            R[f"s17_theta_{tag}{j+1}{j+1}"] = dt_of(st.theta[s, j, j] + 2.0 * st.c) \
                + 2.0 * (ddx(st.b[j]) if j == 0 else 0.0) \
                - mg[s, TH + 3 * j + j] - mh[s, TH + 3 * j + j]
        for j in range(3):
            for k in range(j + 1, 3):
                R[f"s17_theta_{tag}{j+1}{k+1}"] = dt_of(st.theta[s, j, k]) \
                    + (ddx(st.b[k]) if j == 0 else 0.0) + (ddx(st.b[j]) if k == 0 else 0.0) \
                    + ddx(mi[s, MO]) - mg[s, TH + 3 * j + k] - mh[s, TH + 3 * j + k] \
                    - mg[s, MASS] - mL[s, MASS]
        for j in range(3):
            R[f"s17_lambda_{tag}{j+1}"] = dt_of(st.lam[s, j]) \
                + (ddx(st.c) if j == 0 else 0.0) - mg[s, LA + j] - mh[s, LA + j]

    # (19): species means
    R["s19_mass"] = dt_of(0.5 * (st.a_plus + st.a_minus)) + ddx(st.b[0])
    th_sum, lam_sum = st.theta[0] + st.theta[1], st.lam[0] + st.lam[1]
    g_sum, gh_sum = mg.sum(axis=0), (mg + mh).sum(axis=0)
    for j in range(3):
        R[f"s19_momentum_{j+1}"] = dt_of(st.b[j]) \
            + (ddx(0.5 * (st.a_plus + st.a_minus) + 2.0 * st.c) if j == 0 else 0.0) \
            + 0.5 * ddx(th_sum[j, 0]) - 0.5 * g_sum[MO + j]
    R["s19_energy"] = dt_of(st.c) + ddx(st.b[0]) / 3.0 \
        + (5.0 / 6.0) * ddx(lam_sum[0]) - g_sum[EN] / 12.0
    for j in range(3):
        for k in range(j, 3):
            R[f"s19_theta_{j+1}{k+1}"] = \
                dt_of(0.5 * (st.theta[0, j, k] + st.theta[1, j, k])
                      + (2.0 * st.c if j == k else 0.0)) \
                + (ddx(st.b[k]) if j == 0 else 0.0) + (ddx(st.b[j]) if k == 0 else 0.0) \
                - 0.5 * gh_sum[TH + 3 * j + k]
    for j in range(3):
        R[f"s19_lambda_{j+1}"] = 0.5 * dt_of(lam_sum[j]) \
            + (ddx(st.c) if j == 0 else 0.0) - 0.5 * gh_sum[LA + j]

    # (21): species differences / field dissipation
    R["s21_continuity"] = dt_of(st.a_plus - st.a_minus) + ddx(st.G[0])
    th_diff = st.theta[0] - st.theta[1]
    for j in range(3):
        R[f"s21_field_{j+1}"] = dt_of(st.G[j]) \
            + (ddx(st.a_plus - st.a_minus) if j == 0 else 0.0) - 2.0 * (E if j == 0 else 0.0) \
            + ddx(th_diff[j, 0]) - (mLg[0, MO + j] - mLg[1, MO + j])

    return [{"equation_id": eq, "t": float(t),
             "max_residual": float(np.abs(r[i]).max()),
             "l2_residual": float(np.sqrt(np.mean(np.abs(r[i]) ** 2)))}
            for i, (t, _) in enumerate(snapshots[1:-1]) for eq, r in R.items()]
