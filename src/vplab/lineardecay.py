"""Per-frequency analysis of the homogeneous linearized system.

The two-species mode operator at spatial frequency y block-diagonalizes in
species sum/difference coordinates: the sum sector sees A + 2K, the
difference sector sees A plus the rank-one Poisson coupling. The recorded
mode functional is E_l(t, y) = |w^l f_hat|^2_{L2_v} + |E_hat|^2, which for
l = 0 decreases exactly along the flow; implicit-midpoint stepping
preserves that decrease to roundoff.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .grid import (from_real, from_split, split_blocks, split_quad, split_sizes, split_states,
                   to_real, to_split)

_SQ2 = np.sqrt(2.0)
INCREASE_TOL = 1e-11       # functional increase per sample counted as a violation


class ModeOperator:
    """Real swap-split blocks of d/dt u = B(y) u at one spatial frequency.

    y is the scalar frequency on the torus axis, the wave vector (y, 0, 0).
    The Poisson coupling uses phi_hat = |y|^{-2} (sqrt_mu, u_+ - u_-) for
    y != 0 and vanishes at y = 0, where B reduces to L.

    B = L - i Y, where Y = diag(v.y), plus (2 wv / |y|^2) outer(v.y sqrt_mu,
    sqrt_mu) in the difference sector. The velocity reversal R: v -> -v
    (`u[::-1]` on the cell-centred grid) commutes with L and anticommutes
    with Y, so the unitary map T = (I + R)/2 - i (I - R)/2 makes
    T B T^{-1} = L - Y R real. `grid.to_real`/`from_real` apply T and T^{-1}.

    Each sector is the five blocks of the symmetry-adapted basis of
    `grid.to_split`: `Bs`/`Bd` start from the assembly's `sector_blocks`,
    written into `out` if given. In parity block (s2, s3), R acts as s2 s3
    times the reversal of i1, so the transport term lies on each block's
    i1-reversed anti-diagonal; the field term lives in the swap-even (+,+)
    block of the difference sector alone.
    """

    def __init__(self, y, assembly, out=None):
        self.asm = assembly
        y = float(y)
        self.ynorm = abs(y)
        grid = assembly.grid
        self.nv = nv = grid.nv
        self.B = np.empty_like(assembly.sector_blocks()) if out is None else out
        self.B[...] = assembly.sector_blocks()
        self.Bs, self.Bd = self.B
        vy = grid.v1d * y
        for buf in self.B:
            E, O, M = split_blocks(buf, nv)
            # -s2 s3 v1 y on the i1-reversed anti-diagonal, one row of i1 each
            for X, sign in ((E, 1.0), (O, 1.0), (M, -1.0)):
                rows = np.arange(X.shape[-1]).reshape(nv, -1)
                X[..., rows, rows[::-1]] -= sign * vy[:, None]
        if self.ynorm > 0:
            smu, s = assembly.maxw.sqrt_mu, split_sizes(nv)[0]
            a, b = to_split(np.stack([grid.v[0] * y * smu, smu]))[:, :s]
            split_blocks(self.Bd, nv)[0][0] -= (2.0 * grid.wv / self.ynorm ** 2) * np.outer(a, b)
        self._props = {}

    def propagators(self, dt, out=None):
        """One-step implicit-midpoint real propagators, cached per dt.

        A (2, L) float64 buffer, rows (P_sum, P_diff), each the swap-split
        blocks of `split_blocks` (2 L 8 bytes per mode); apply them with
        `split_matvec` to fields mapped by `to_real` and `to_split`.
        Each block is built in place as P = 2 (I - dt B/2)^{-1} - I, into
        `out` if given (it may be `self.B`, which is then spent).
        """
        key = float(dt)
        if out is not None or key not in self._props:
            P = np.empty_like(self.B) if out is None else out
            for b, p in zip(self.B, P):         # one sector at a time: half the temporaries
                for B, Q in zip(split_blocks(b, self.nv), split_blocks(p, self.nv)):
                    np.multiply(B, -0.5 * dt, out=Q)
                    np.einsum("...ii->...i", Q)[...] += 1.0     # a view of the diagonal
                    np.multiply(np.linalg.inv(Q), 2.0, out=Q)
                    np.einsum("...ii->...i", Q)[...] -= 1.0
            self._props[key] = P
        return self._props[key]


def sectors(f):
    """(f_+, f_-) -> (f_+ + f_-, f_+ - f_-) / sqrt(2) along axis 0.

    The species map to the (sum, difference) sectors. It is orthogonal and
    its own inverse, so the same call maps sector fields back to species.
    """
    return np.stack([f[0] + f[1], f[0] - f[1]]) / _SQ2


@dataclass
class ModeTrajectory:
    """Sampled mode evolution: times, functional, sigma-norm dissipation."""
    y: float
    t: np.ndarray
    energy: np.ndarray
    sigma_diss: np.ndarray
    max_rel_increase: float
    violations: int
    final_state: tuple = field(default=None, repr=False)


def _sector_samples(P, u, steps, samp):
    """Split states (samples, 2, n) of both sectors from u (2, n), every samp
    steps and at the last step.

    P is the (2, L) buffer of the sectors' swap-split block propagators and
    u holds the (sum, difference) sector fields. The states stay in the real
    form (`to_real`) and the split basis (`to_split`) from the first step to
    the last sample: each block stack advances both sectors with one product,
    written into one preallocated sample stack. A stride is one product with
    P^samp, built for both sectors at once by repeated squaring, when it is
    taken at least twice, else samp products with P; leftover steps use P.
    """
    nv = round(u.shape[-1] ** (1 / 3))
    strides, rem = divmod(steps, samp)
    P = split_blocks(P, nv)
    Q, k = P, samp
    if strides >= 2 and samp > 1:
        Q, k = [np.linalg.matrix_power(B, samp) for B in P], 1
    out = np.empty((strides + 1 + (rem > 0),) + u.shape, dtype=complex)
    out[0] = to_split(to_real(u))
    samples = split_states(out.view(np.float64), nv)
    spare = split_states(np.empty_like(out[0].view(np.float64)), nv)

    def advance(blocks, j, count):
        # sample j + 1 = blocks^count sample j, alternating with the spare
        # states so that no product writes into its own input
        src = [X[j] for X in samples]
        for c in range(count, 0, -1):
            dst = [X[j + 1] for X in samples] if c % 2 else spare
            for B, x, y in zip(blocks, src, dst):
                np.matmul(B, x, out=y)
            src = dst

    for j in range(strides):
        advance(Q, j, k)
    if rem:
        advance(P, strides, rem)
    return out


def evolve_mode(op, u0, dt, t_end, l=0.0, n_samples=80):
    """Integrate one mode with implicit midpoint; sample functional and dissipation.

    u0 is a two-species complex field (2, n). The samples stay split
    (`_sector_samples`) and are read there by the assembly's
    `split_norms(l)`, the field energy by rho = sqrt(2) wv <Q^T sqrt_mu,
    x_diff> (T sqrt_mu = sqrt_mu); only the final state is mapped back.
    Emits a warning-grade flag via the returned violation count when the
    functional increases by more than INCREASE_TOL (relative) between
    consecutive samples.
    """
    asm = op.asm
    grid = asm.grid
    u0 = np.asarray(u0, dtype=complex)
    steps = int(round(t_end / dt))
    samp = max(1, steps // max(n_samples, 1))
    x = _sector_samples(op.propagators(dt), sectors(u0), steps, samp)
    t = np.concatenate([[0.0], np.cumsum(np.full(steps, dt))])    # t += dt, in order
    ts = t[np.unique(np.r_[0:steps + 1:samp, steps])]
    d, S = asm.split_norms(l)
    xf = x.view(np.float64)
    Es = ((xf * xf) @ d).sum(axis=1) * grid.wv
    if op.ynorm > 0:
        rho = _SQ2 * (x[:, 1] @ to_split(asm.maxw.sqrt_mu)) * grid.wv
        Es += np.abs(rho) ** 2 / op.ynorm ** 2
    Ds = split_quad(S, xf, grid.nv).sum(axis=1) * grid.wv
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.diff(Es) / np.where(Es[:-1] > 0, Es[:-1], 1.0)
    max_inc = float(rel.max()) if rel.size else 0.0
    viol = int(np.sum(rel > INCREASE_TOL))
    if viol:
        warnings.warn(
            f"mode functional increased beyond tolerance at {viol} samples "
            f"(y = {op.ynorm:.3g}, max relative increase {max_inc:.2e})",
            RuntimeWarning,
        )
    us, ud = from_real(from_split(x[-1]))
    return ModeTrajectory(
        y=op.ynorm, t=ts, energy=Es,
        sigma_diss=Ds, max_rel_increase=max_inc, violations=viol,
        final_state=(us.copy(), ud.copy()),
    )


def default_mode_data(assembly, kind="macroscopic", amplitude=1e-3, seed=0):
    """Initial mode data (y-independent amplitude).

    "macroscopic": eps (|v|^2 - 3) sqrt_mu (1, 1) -- excites the diffusive
    macroscopic branch, zero charge so the field starts at zero.
    "mixed": adds a species-asymmetric component that drives the Poisson
    coupling (used by the monotonicity sweep).
    """
    grid, maxw = assembly.grid, assembly.maxw
    smu = maxw.sqrt_mu
    core = (grid.vsq - 3.0) * smu
    if kind == "macroscopic":
        u = np.stack([core, core])
    elif kind == "mixed":
        rng = np.random.default_rng(np.random.Philox(key=seed))
        rough = rng.standard_normal(grid.n)
        asym = (1.0 + 0.2 * grid.v[0]) * smu + 0.05 * rough * smu
        u = np.stack([core + asym, core - asym])
    else:
        raise ValueError(f"unknown mode data kind: {kind!r}")
    return amplitude * u.astype(complex)


def _fit_loglog(t, I, t_lo, t_hi):
    win = (t >= t_lo) & (t <= t_hi) & (I > 0)
    x = np.log(t[win])
    yv = np.log(I[win])
    cf, cov = np.polyfit(x, yv, 1, cov=True)
    resid = yv - np.polyval(cf, x)
    r2 = 1.0 - resid.var() / yv.var() if yv.var() != 0 else 1.0     # NaN stays NaN
    ci = 1.96 * np.sqrt(cov[0, 0])
    return float(cf[0]), float(ci), float(r2)


def default_y_max(gamma):
    """Upper end of the default y sweep: 1.2 for hard potentials, 1.0 for soft."""
    return 1.2 if gamma + 2.0 >= 0.0 else 1.0


def whole_space_decay(assembly, m=0, l=0.0, l_star=None, data="macroscopic",
                      y_min=0.02, y_max=None, n_y=48, t_end=100.0,
                      fit_window=(10.0, 100.0), n_samples=80, seed=0):
    """Whole-space decay emulation by quadrature over a continuous y sweep.

    Evolves one mode per quadrature node, assembles
    ||grad_x^m w^l f(t)||^2 ~ 4 pi * int |y|^{2m} E_l(t, y) |y|^2 d|y|,
    and fits the log-log slope over the fit window. Norm slope = half the
    fitted squared-norm slope.

    Hard branch: the report slope is the measured fit; the y grid extends
    to 1.2 by default (the high-frequency block decays exponentially and is
    not part of the algebraic asymptotics).

    Soft branch: the velocity box floors the collision rate at
    <v_max>^{gamma+2}, so weight-starved algebraic mode decay cannot be
    exhibited dynamically; the report applies the weight-transfer
    interpolation with budget exponent j = 2 gamma l* / (gamma + 2) to the
    measured dissipation rate and the measured initial functional at weight
    l + l*, and reports that fit as `slope` together with the raw box fit
    as `slope_box`. l* defaults to 0.5; the low-frequency block (y <= 1)
    carries the quadrature.
    """
    gamma = assembly.gamma
    hard = gamma + 2.0 >= 0.0
    if y_max is None:
        y_max = default_y_max(gamma)
    if l_star is None:
        l_star = 0.0 if hard else 0.5
    ys = np.geomspace(y_min, y_max, n_y)
    u0 = default_mode_data(assembly, data, 1e-3, seed)
    trajs = []
    ws = np.empty_like(assembly.sector_blocks())     # each mode's B, then in place its propagators
    with np.errstate(over="ignore", invalid="ignore"):      # refused below instead
        for y in ys:
            dt = 0.05 * min(1.0, 1.0 / y)
            op = ModeOperator(y, assembly, out=ws)
            op.propagators(dt, out=ws)                      # evolve_mode's call hits the cache
            trajs.append(evolve_mode(op, u0, dt, t_end, l, n_samples))
    if not all(np.isfinite(tr.energy).all() and np.isfinite(tr.sigma_diss).all()
               for tr in trajs):
        raise RuntimeError(f"decay.l = {l:g} leaves a mode functional or its sigma "
                           "dissipation non-finite (w^l overflows on the velocity box)")
    # measured dissipation rate scale from the best-resolved (largest-y) mode;
    # the mode functional decays like exp(-lam_hat y^2/(1+y^2) t). A window
    # with two samples also gives every mode the sample t[1] read below.
    tr1 = trajs[-1]
    t_hi = min(40.0, t_end / 2)
    wfit = (tr1.t >= 2.0) & (tr1.t <= t_hi) & (tr1.energy > 0)
    if wfit.sum() < 2:
        raise RuntimeError(f"decay.t_end = {t_end:g} leaves {int(wfit.sum())} samples in the "
                           f"dissipation-rate window t in [2, {t_hi:g}]; the fit needs 2")
    t_eval = np.geomspace(max(0.5 * fit_window[0], trajs[0].t[1]), t_end, 160)
    n_fit = int(np.sum((t_eval >= fit_window[0]) & (t_eval <= fit_window[1])))
    if n_fit < 3:
        raise RuntimeError(f"decay.fit_lo/decay.fit_hi = {fit_window[0]:g}/{fit_window[1]:g} "
                           f"leave {n_fit} of {t_eval.size} fit times; the fit needs 3")
    E_ty = np.array([np.interp(t_eval, tr.t, tr.energy) for tr in trajs]).T
    lw = np.gradient(np.log(ys)) * ys
    mlist = np.atleast_1d(m)
    report = {
        "gamma": gamma, "l": l, "l_star": l_star,
        "y_grid": [float(v) for v in ys],
        "t_window": [float(fit_window[0]), float(fit_window[1])],
        "data": data,
        "total_violations": int(sum(tr.violations for tr in trajs)),
        "max_rel_increase": float(max(tr.max_rel_increase for tr in trajs)),
    }
    rate = -np.polyfit(tr1.t[wfit], np.log(tr1.energy[wfit]), 1)[0]
    lam_hat = float(rate / (tr1.y ** 2 / (1.0 + tr1.y ** 2)))
    report["lambda_hat"] = lam_hat

    def _soft_surrogate_fit(mm, lstar):
        """Weight-transfer cap fit: budget exponent j = 2 gamma l*/(gamma+2)."""
        j = 2.0 * gamma * lstar / (gamma + 2.0)
        w2 = assembly.weight.pow(l + lstar) ** 2
        grid = assembly.grid
        lad = float(np.sum(w2 * (np.abs(u0[0]) ** 2 + np.abs(u0[1]) ** 2)) * grid.wv)
        kap = lam_hat * ys ** 2 / (1.0 + ys ** 2)
        if j <= 0:
            S = np.ones((len(t_eval), len(ys))) * lad
        else:
            S = (1.0 + kap[None, :] * t_eval[:, None] / j) ** (-j) * lad
        surr = 4.0 * np.pi * (S * (ys ** (2 * mm + 2) * lw)[None, :]).sum(axis=1)
        win = (t_eval >= fit_window[0]) & (t_eval <= fit_window[1])
        if np.ptp(np.log(surr[win])) < 1e-12:
            return 0.0, 0.0, 1.0, j
        sl, ci, r2 = _fit_loglog(t_eval, surr, *fit_window)
        return sl, ci, r2, j

    lstars = [l_star] if np.isscalar(l_star) else list(l_star)
    results = {}
    for mm in mlist:
        meas = 4.0 * np.pi * (E_ty * (ys ** (2 * mm + 2) * lw)[None, :]).sum(axis=1)
        sl, ci, r2 = _fit_loglog(t_eval, meas, *fit_window)
        entry = {"m": int(mm), "slope_box": sl / 2.0, "slope_box_ci": ci / 2.0,
                 "r2_box": r2}
        if hard:
            entry.update({"slope": sl / 2.0, "slope_ci": ci / 2.0, "r2": r2})
        else:
            soft_fits = {}
            for lstar in lstars:
                sl_s, ci_s, r2_s, j = _soft_surrogate_fit(mm, lstar)
                soft_fits[float(lstar)] = {
                    "slope": sl_s / 2.0, "slope_ci": ci_s / 2.0, "r2": r2_s,
                    "j_budget": j,
                }
            first = soft_fits[float(lstars[0])]
            entry.update({"slope": first["slope"], "slope_ci": first["slope_ci"],
                          "r2": first["r2"], "j_budget": first["j_budget"],
                          "soft_fits": soft_fits})
        if entry["r2"] < 0.98:
            entry["warning"] = "no clean algebraic regime in the fit window"
        results[int(mm)] = entry
    report["fits"] = results
    if np.isscalar(m):
        report.update(results[int(m)])
        report["m"] = int(m)
    return report, trajs
