"""Time integration of the full perturbation system on the torus.

Strang-split IMEX stepping: the stiff linear part (transport, linear field
coupling, collision operator) advances per spatial Fourier mode with the
same implicit-midpoint propagators the mode analyzer uses, so a run with
the nonlinear terms disabled reproduces the per-mode trajectories exactly.
The quadratic terms (field transport of f and the bilinear collision term)
advance explicitly with a midpoint half-step on either side.

Energy instrumentation evaluates every summand of the instant energy, the
high-order instant energy, and the dissipation rate functional, with the
time weight psi attached per summand order.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .collision import GammaOp
from .grid import (along, from_real, from_split, split_entries, split_matvec, split_sizes,
                   to_real, to_split)
from .lineardecay import ModeOperator, sectors
from .macroscopic import MacroProjector, solve_poisson, div_E_residual


PROPAGATOR_BUDGET_BYTES = 1_500_000_000
# Largest allowed field CFL number and largest allowed ratio of a nonlinear
# half-step's max|increment| to the max|f| it starts from.
STABILITY_LIMIT = 1.0
# Smoothing exponent N of the t^N time weight below the order rule's range
N_DEFAULT = 20.0


class PsiWeight:
    """Time weight psi_k(t): 1 for k <= 0, t^{N k} in t^N mode.

    N follows the order rule for x-derivative counts above three, with the
    exponent delta_1 picked as the largest value in (0, 1/2] compatible with
    the mixed-order constraint; below that order N is N_DEFAULT.
    """

    def __init__(self, mode="one"):
        if mode not in ("one", "tn"):
            raise ValueError("psi mode must be 'one' or 'tn'")
        self.mode = mode

    def delta1(self, a, b):
        """Largest delta_1 in (0, 1/2] satisfying the mixed-order constraint."""
        if a <= 3 or b <= 3:
            return 0.5
        den = (b / 2.0 + 1.0) * (a - 3.0) / (b - 3.0) - 1.0
        if den <= 0:
            return 0.5
        return float(min(0.5, 2.0 * a / den))

    def N_of(self, a, b=0):
        """Smoothing exponent N(alpha) for |alpha| = a (default rule below 4)."""
        if a <= 3:
            return N_DEFAULT
        d1 = self.delta1(a, b)
        return (2.0 * a / d1 + 1.0) / (2.0 * (a - 3.0))

    def psi_k(self, t, k, a=0, b=0):
        """psi_k(t) for summand with |alpha| = a, |beta| = b, k = a + b - 3."""
        if self.mode == "one" or k <= 0:
            return 1.0
        if t <= 0.0:
            return 0.0
        return float(t ** (self.N_of(a, b) * k))


class TwoSpeciesField:
    """Perturbation f = (f_+, f_-) on (x, v) with its electrostatic field."""

    def __init__(self, f, grid, maxw, t=0.0):
        self.f = np.asarray(f, dtype=float)
        self.grid = grid
        self.maxw = maxw
        self.t = float(t)

    def charge_density(self):
        smu = self.maxw.sqrt_mu
        return np.tensordot(self.f[0] - self.f[1], smu, axes=(-1, 0)) * self.grid.wv

    def field(self):
        """The electrostatic field of the current f, solved afresh on each call;
        its charge mean is judged against the species densities."""
        n = np.tensordot(self.f, self.maxw.sqrt_mu, axes=(-1, 0)) * self.grid.wv
        return solve_poisson(self.charge_density(), self.grid, np.abs(n).max())

    def min_F(self):
        """Monitored (not enforced) minimum of F = mu + sqrt_mu f."""
        mu, smu = self.maxw.mu, self.maxw.sqrt_mu
        return float(np.min(mu + smu * self.f))


def kept_modes(nx):
    """Number K of rfft modes the 2/3 rule keeps on a power-of-two nx, |k| <= 2/3 k_max
    with k_max = nx / 2 (in units of the fundamental): the first nx // 3 + 1 of `kx_r`."""
    return nx // 3 + 1


@functools.cache
def kept_mode_maps(nx):
    """Real DFT matrices (A, S, S A) of the K = `kept_modes(nx)` kept modes.

    A (2K - 1, nx) takes nx points to (Re h_0, Re h_1..h_{K-1}, Im h_1..h_{K-1})
    of the rfft h; S (nx, 2K - 1) takes them back, weighted 1/nx at k = 0 and
    2/nx above (the Nyquist mode is never kept). So A S = I, and S A is the
    2/3 rule projector. Each twiddle is read from one table at (k j) mod nx.
    """
    K = kept_modes(nx)
    w = np.exp(-2j * np.pi * np.arange(nx) / nx)[np.outer(np.arange(K), np.arange(nx)) % nx]
    A = np.concatenate([w.real, w.imag[1:]])
    c = np.full(K, 2.0 / nx)
    c[0] = 1.0 / nx
    S = np.concatenate([w.real * c[:, None], w.imag[1:] * c[1:, None]]).T
    maps = A, S, S @ A
    for m in maps:          # shared by every caller
        m.flags.writeable = False
    return maps


def dealias_x(field, grid):
    """Zero spatial modes above the 2/3 rule cutoff (quadratic dealiasing), x on axis -2."""
    return np.matmul(kept_mode_maps(grid.nx)[2], field)


def _beta_multi_indices(max_order):
    out = []
    for b1 in range(max_order + 1):
        for b2 in range(max_order + 1 - b1):
            for b3 in range(max_order + 1 - b1 - b2):
                out.append((b1, b2, b3))
    return sorted(out, key=lambda b: (sum(b), b))


def make_initial_data(grid, maxw, kind="macroscopic", amplitude=1e-3, mode=1,
                      asym=0.0, seed=0, data=None):
    """Initial perturbation fields (charge-neutral in the x mean), every kind
    band-limited by `dealias_x`.

    "macroscopic": cosine-modulated macroscopic combination, optionally with
    a species-asymmetric part that drives the field. "noise": counter-based
    seeded noise, lightly mollified in v, times sqrt_mu (rough in v).
    "file": the given array `data` (2, nx, n), as read from a file.
    """
    smu = maxw.sqrt_mu
    vsq = grid.vsq
    if kind == "macroscopic":
        prof = np.cos(np.pi * mode * (grid.x + grid.lx) / grid.lx)
        shape = (vsq - 3.0) * smu + 0.5 * grid.v[0] * smu
        base = prof[:, None] * shape[None, :]
        f = np.stack([base + asym * prof[:, None] * smu[None, :],
                      base - asym * prof[:, None] * smu[None, :]])
    elif kind == "noise":
        rng = np.random.default_rng(np.random.Philox(key=seed))
        raw = rng.standard_normal((2, grid.nx, grid.nv, grid.nv, grid.nv))
        for ax in (2, 3, 4):
            raw = 0.5 * raw + 0.25 * (np.roll(raw, 1, axis=ax) + np.roll(raw, -1, axis=ax))
        f = raw.reshape(2, grid.nx, grid.n) * smu[None, None, :]
        rho = TwoSpeciesField(f, grid, maxw).charge_density()
        # remove the x-mean charge so the torus Poisson problem is solvable
        shift = rho.mean() / (2.0 * np.sum(smu ** 2) * grid.wv) * smu
        f[0] -= shift
        f[1] += shift
    elif kind == "file":
        f = data
    else:
        raise ValueError(f"unknown initial data kind: {kind!r}")
    return dealias_x(amplitude * f, grid)


def propagator_bytes(grid):
    """Bytes of the per-mode propagators of `grid`: per mode the 2/3 rule keeps
    (`kept_modes`), two sectors of swap-split float64 blocks, 2 s^2 + 2 a^2 + m^2
    entries each (`grid.split_sizes`)."""
    return kept_modes(grid.nx) * 2 * split_entries(grid.nv) * 8


def check_propagator_budget(grid):
    """Raise MemoryError when the per-mode propagators of `grid` exceed the budget.

    Depends on nv and nx only, so it can run before any operator is built.
    The budget is PROPAGATOR_BUDGET_BYTES as it stands when the check runs.
    """
    need = propagator_bytes(grid)
    if need > PROPAGATOR_BUDGET_BYTES:
        s, a, m = split_sizes(grid.nv)
        raise MemoryError(
            f"per-mode propagator storage {need/1e9:.1f} GB "
            f"({kept_modes(grid.nx)} kept modes x 2 sectors of swap-split float64 blocks "
            f"2 x {s}^2 + 2 x {a}^2 + {m}^2) "
            f"exceeds the budget of {PROPAGATOR_BUDGET_BYTES/1e9:.1f} GB; "
            "reduce nv or nx"
        )


class Simulation:
    """Owner of one trajectory of the perturbation system.

    Parameters mirror the run-file scheme block: dt, t_end, snapshot_every
    (steps), disable_gamma / disable_field_nl flags. The linear part always
    steps with implicit midpoint, on the x-modes the 2/3 rule keeps only: a
    step drops the modes above the cutoff, so every stepped state is
    band-limited, as the dealiased forcing and `make_initial_data` are.
    """

    def __init__(self, assembly, dt, disable_gamma=False, disable_field_nl=False):
        self.asm = assembly
        self.grid = assembly.grid
        self.maxw = assembly.maxw
        self.dt = float(dt)
        self.disable_gamma = bool(disable_gamma)
        self.disable_field_nl = bool(disable_field_nl)
        self.gamma_op = GammaOp(assembly)
        self.projector = MacroProjector(self.grid, self.maxw)
        check_propagator_budget(self.grid)
        # only the propagators of the kept modes are held, as one (sector, mode, L)
        # stack of swap-split blocks; each mode's slice takes its operator, then in
        # place its propagators
        self.kept = kept_modes(self.grid.nx)
        self._props = np.empty((2, self.kept, split_entries(self.grid.nv)))
        for k, y in enumerate(self.grid.kx_r[:self.kept]):
            P = self._props[:, k]
            ModeOperator(y, assembly, out=P).propagators(self.dt, out=P)
        smu = self.maxw.sqrt_mu
        self._mass_dir = smu / np.sqrt(np.sum(smu ** 2) * self.grid.wv)

    # -- nonlinear terms ------------------------------------------------------

    def forcing(self, f, fs):
        """Nonlinear forcing g_pm as the stepper discretizes it, dealiased.

        g_pm = +/- dphi . (grad_v - v/2) f_pm + Gamma_pm(f, f), with the
        conjugated difference applied along the active axis; disabled terms
        are zeroed. f must be band-limited (no x-mode above the 2/3 rule
        cutoff), as every state, stage and snapshot of a `Simulation` is:
        Gamma's coefficients, linear in f_+ + f_-, are convolved on its
        2K - 1 real mode fields (`kept_mode_maps`) and mapped back to x.
        """
        A, S, P = kept_mode_maps(self.grid.nx)
        g = np.zeros_like(f)
        if not self.disable_field_nl:
            dphi = -fs.E                        # d_x phi
            adv = along(self.asm.ct1, f, 0)
            # one-sided stencils at the box faces leak a small mass moment;
            # the continuum term has none, so project it out per species
            mdir = self._mass_dir
            mom = np.tensordot(adv, mdir, axes=(-1, 0)) * self.grid.wv
            adv -= mom[..., None] * mdir
            g[0] += dphi[:, None] * adv[0]
            g[1] -= dphi[:, None] * adv[1]
        if not self.disable_gamma:
            tabs = self.gamma_op.coefficients(A @ (f[0] + f[1]))
            U, W = (np.matmul(S, c.reshape(len(A), -1)).reshape((-1,) + c.shape[1:])
                    for c in tabs)
            g += self.gamma_op.apply(U, W, f)
        return np.matmul(P, g)

    def _nl_halfstep(self, state, half_dt):
        """Explicit midpoint half-step of the quadratic terms, with two guards.

        The field CFL number is checked before the step. The explicit forcing
        can still blow up with a CFL number below one, so the step is refused
        when its increment outgrows the field it started from.
        """
        if self.disable_gamma and self.disable_field_nl:
            return
        fs = state.field()
        if not self.disable_field_nl:
            cfl = self.dt * np.abs(fs.E).max() / self.grid.hv
            if cfl > STABILITY_LIMIT:
                raise RuntimeError(f"CFL violation: |dphi| dt / hv = {cfl:.3f}")
        k1 = self.forcing(state.f, fs)
        mid = TwoSpeciesField(state.f + 0.5 * half_dt * k1, self.grid, self.maxw)
        inc = half_dt * self.forcing(mid.f, mid.field())
        inc_max, f_max = np.abs(inc).max(), np.abs(state.f).max()
        if not inc_max <= STABILITY_LIMIT * f_max:
            raise RuntimeError(
                f"nonlinear half-step blow-up at t = {state.t:.6g}: max|increment| "
                f"{inc_max:.3e} exceeds max|f| {f_max:.3e}")
        state.f += inc

    def _linear_step(self, state):
        fh = np.fft.rfft(sectors(state.f), axis=1)[:, :self.kept]
        h = to_split(to_real(fh))                       # (2 sectors, kept modes, n)
        h = from_split(split_matvec(self._props, h))
        # irfft zero-pads the modes above the cutoff
        state.f = sectors(np.fft.irfft(from_real(h), n=self.grid.nx, axis=1))

    def step(self, state):
        """One Strang-split step: nonlinear half-step, linear step, nonlinear half-step."""
        self._nl_halfstep(state, 0.5 * self.dt)
        self._linear_step(state)
        self._nl_halfstep(state, 0.5 * self.dt)
        state.t += self.dt
        return state

    def run(self, state, t_end, snapshot_every=1, callback=None):
        """Advance to t_end, collecting (t, f) snapshots every so many steps."""
        steps = int(round((t_end - state.t) / self.dt))
        snaps = [(state.t, state.f.copy())]
        if callback:
            callback(state)
        for k in range(steps):
            self.step(state)
            if (k + 1) % snapshot_every == 0 or k == steps - 1:
                snaps.append((state.t, state.f.copy()))
                if callback:
                    callback(state)
        return snaps


@dataclass
class EnergyReport:
    """Every summand of the instant/high-order/dissipation functionals."""
    t: float
    K: int
    l: float
    summands: dict
    E_total: float
    Eh_total: float
    D_total: float
    dtphi_inf: float
    z1: float
    min_F: float
    div_E_residual: float


def dt_phi_sup(state, IPf):
    """||d_t phi||_inf via -Lap d_t phi = -div G, G from IPf = (I-P) state.f."""
    grid = state.grid
    smu = state.maxw.sqrt_mu
    G1 = np.tensordot(IPf[0] - IPf[1], grid.v[0] * smu, axes=(-1, 0)) * grid.wv
    return float(np.abs(solve_poisson(-grid.ddx(G1), grid).phi).max())


def energy_report(state, assembly, K, l, psi, projector):
    """Instant energy, high-order energy, and dissipation rate summands.

    Summands carry the weights w^{l-|alpha|-|beta|} and psi_{|alpha|+|beta|-3}
    exactly as displayed; the dissipation field part stops at |alpha| <= K-1
    and its (I-P) part uses sigma norms at matching weights.
    """
    grid = state.grid
    t = state.t
    f = state.f
    fs = state.field()
    weight = assembly.weight
    norms = assembly.norms
    Pf, IPf = projector.split(f)
    dx_measure = grid.dx

    summands = {}
    E_tot = Eh_tot = D_tot = 0.0

    for a, da in enumerate(grid.dx_powers(fs.E, K, -1)):
        pw = psi.psi_k(t, a - 3, a, 0) ** 2
        val = pw * float(np.sum(da ** 2) * dx_measure)
        summands[f"E|a{a}"] = val
        E_tot += val
        Eh_tot += val
        if a <= K - 1:
            summands[f"D_E|a{a}"] = val
            D_tot += val

    # Pf: x-derivatives of the projected part
    for a, da in enumerate(grid.dx_powers(Pf, K, 1)):
        pw = psi.psi_k(t, a - 3, a, 0) ** 2
        val = pw * float(np.sum(da ** 2) * grid.wv * dx_measure)
        summands[f"Pf|a{a}"] = val
        E_tot += val
        if a >= 1:
            Eh_tot += val
            summands[f"D_Pf|a{a}"] = val
            D_tot += val

    # (I-P)f: mixed derivatives
    betas = _beta_multi_indices(K)
    dbeta = {(0, 0, 0): IPf}
    for b in betas:
        if sum(b) == 0:
            continue
        j = next(i for i in range(3) if b[i] > 0)
        parent = tuple(b[i] - (1 if i == j else 0) for i in range(3))
        dbeta[b] = along(grid.d1, dbeta[parent], j)
    if K >= 1:      # d_{v1}^K (I-P)f against the grid's noise ceiling
        ceiling = 0.5 * (2.0 / grid.hv) ** K * (np.abs(IPf).max() + 1e-300)
        if np.abs(dbeta[(K, 0, 0)]).max() > ceiling:
            warnings.warn(f"order-{K} velocity derivatives are at the grid noise ceiling",
                          RuntimeWarning)
    for b in betas:
        nb = sum(b)
        if nb > K:
            continue
        for a, da in enumerate(grid.dx_powers(dbeta[b], K - nb, 1)):
            pw = psi.psi_k(t, a + nb - 3, a, nb) ** 2
            wl = weight.pow(l - a - nb)
            tag = f"a{a}b{b[0]}{b[1]}{b[2]}"
            val = pw * float(np.sum((wl * da) ** 2) * grid.wv * dx_measure)
            summands[f"IPf|{tag}"] = val
            E_tot += val
            Eh_tot += val
            sig = pw * float(
                norms.sigma_sq_batch(da.reshape(-1, grid.n), l - a - nb).sum() * dx_measure
            )
            summands[f"D_IPf|{tag}"] = sig
            D_tot += sig

    return EnergyReport(
        t=t, K=K, l=l, summands=summands,
        E_total=E_tot, Eh_total=Eh_tot, D_total=D_tot,
        dtphi_inf=dt_phi_sup(state, IPf),
        z1=assembly.norms.z1(f),
        min_F=state.min_F(),
        div_E_residual=div_E_residual(fs, grid),
    )


def energy_inequality_monitor(reports, lam):
    """Discrete check of d_t E + lam D <= C ||d_t phi||_inf E along a run.

    d_t E is the centred difference over the reports' own times t, so a
    short last interval is divided by its true length. Returns the smallest
    constants covering all interior snapshots (C_full) and 99 % of them
    (C_cov), with the per-snapshot data.
    """
    if len(reports) < 3:
        raise ValueError("inequality monitor needs at least 3 snapshots")
    coverage = 0.99
    t = np.array([r.t for r in reports])
    E = np.array([r.E_total for r in reports])
    Dv = np.array([r.D_total for r in reports])
    dphi = np.array([r.dtphi_inf for r in reports])
    lhs = (E[2:] - E[:-2]) / (t[2:] - t[:-2]) + lam * Dv[1:-1]
    rhs_base = dphi[1:-1] * E[1:-1]
    need = np.where(lhs <= 0, 0.0,
                    np.where(rhs_base > 0, lhs / np.where(rhs_base > 0, rhs_base, 1.0),
                             np.inf))
    sorted_need = np.sort(need)
    k_cov = int(np.ceil(coverage * need.size)) - 1
    C_cov = float(sorted_need[min(k_cov, need.size - 1)])
    C_full = float(sorted_need[-1])
    frac_ok = float(np.mean(need <= (C_cov if np.isfinite(C_cov) else np.inf)))
    return {
        "lambda": float(lam),
        "C_full": C_full,
        "C_cov": C_cov,
        "coverage_target": coverage,
        "fraction_satisfied_at_C_cov": frac_ok,
        "n_snapshots": int(need.size),
        "lhs": lhs.tolist(),
        "rhs_base": rhs_base.tolist(),
    }


def smoothing_diagnostic(assembly, K=4, l=4.0, t0=0.5, dt=1e-3, amplitude=1e-3,
                         seed=0, snapshot_every=25):
    """Rough-data run with psi = t^N weights; returns the time series.

    Reports sup_t E_{K,l}(t) with the t^N weights, the baseline E_{3,l}(0),
    the unweighted derivative norms at the final time, and (soft branch) the
    polynomially weighted norm ||<v>^10 f||; E_{K,l} > 1e6 stops the run.
    """
    grid, maxw = assembly.grid, assembly.maxw
    f0 = make_initial_data(grid, maxw, "noise", amplitude=amplitude, seed=seed)
    state = TwoSpeciesField(f0, grid, maxw)
    sim = Simulation(assembly, dt)
    psi_tn = PsiWeight("tn")
    proj = sim.projector
    base = energy_report(state, assembly, 3, l, PsiWeight("one"), proj)
    rows = []

    def cb(st):
        rep = energy_report(st, assembly, K, l, psi_tn, proj)
        if not np.isfinite(rep.E_total) or rep.E_total > 1e6:
            raise RuntimeError(f"smoothing run blow-up at t = {st.t:.3f}")
        mom = float(np.sqrt(np.sum(((1.0 + grid.vsq) ** 5.0
                                    * st.f) ** 2) * grid.wv * grid.dx))
        rows.append({"t": st.t, "E_Kl": rep.E_total, "D_Kl": rep.D_total,
                     "moment_norm": mom})

    sim.run(state, t0, snapshot_every=snapshot_every, callback=cb)
    final_plain = energy_report(state, assembly, K, l, PsiWeight("one"), proj)
    sup_E = max(r["E_Kl"] for r in rows if r["t"] > 0)
    return {
        "E3l_0": base.E_total,
        "sup_E_Kl": sup_E,
        "C_ratio": sup_E / base.E_total,
        "rows": rows,
        "final_unweighted_summands": final_plain.summands,
        "t0": t0, "dt": dt, "K": K, "l": l,
    }
