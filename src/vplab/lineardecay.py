"""Per-frequency analysis of the homogeneous linearized system.

The two-species mode operator at spatial frequency y block-diagonalizes in
species sum/difference coordinates: the sum sector sees A + 2K, the
difference sector sees A plus the rank-one Poisson coupling. The recorded
mode functional is E_l(t, y) = |w^l f_hat|^2_{L2_v} + |E_hat|^2, which for
l = 0 decreases exactly along the flow; implicit-midpoint stepping
preserves that decrease to roundoff.
"""

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np


_SQ2 = np.sqrt(2.0)
INCREASE_TOL = 1e-11       # functional increase per sample counted as a violation


class ModeOperator:
    """Real swap-split blocks of d/dt u = B(y) u at one spatial frequency.

    y is the frequency on the torus axis: a scalar or a 3-vector (y, 0, 0).
    The Poisson coupling uses phi_hat = |y|^{-2} (sqrt_mu, u_+ - u_-) for
    y != 0 and vanishes at y = 0, where B reduces to L.

    B = L - i Y, where Y = diag(v.y), plus (2 wv / |y|^2) outer(v.y sqrt_mu,
    sqrt_mu) in the difference sector. The velocity reversal R: v -> -v
    (`u[::-1]` on the cell-centred grid) commutes with L and anticommutes
    with Y, so the unitary map T = (I + R)/2 - i (I - R)/2 makes
    T B T^{-1} = L - Y R real. `to_real`/`from_real` apply T and T^{-1}.

    With v.y = v1 y, the real form and the field term also commute with the
    v2 and v3 reflections and the swap v2 <-> v3, so each sector is five
    blocks in the basis of `to_split` (Fassler & Stiefel 1992), held
    in one flat float64 buffer (`split_blocks`) like every propagator: `Bs`/`Bd`
    start from the assembly's `sector_blocks`, written into `out` if given. In parity
    block (s2, s3), R acts as s2 s3 times the reversal of i1, so the
    transport term lies on each block's i1-reversed anti-diagonal; the field
    term lives in the swap-even (+,+) block of the difference sector alone.
    """

    def __init__(self, y, assembly, out=None):
        self.asm = assembly
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.size == 1:
            y = np.array([float(y[0]), 0.0, 0.0])
        if y[1] != 0 or y[2] != 0:
            raise ValueError(f"ModeOperator: y = {y.tolist()} is off the torus axis; "
                             "the parity blocks need y = (y, 0, 0)")
        self.y = y
        self.ynorm = float(np.linalg.norm(y))
        grid = assembly.grid
        self.nv = nv = grid.nv
        self.B = np.empty_like(assembly.sector_blocks()) if out is None else out
        self.B[...] = assembly.sector_blocks()
        self.Bs, self.Bd = self.B
        vy = grid.v1d * y[0]
        for buf in self.B:
            E, O, M = split_blocks(buf, nv)
            # -s2 s3 v1 y on the i1-reversed anti-diagonal, one row of i1 each
            for X, sign in ((E, 1.0), (O, 1.0), (M, -1.0)):
                rows = np.arange(X.shape[-1]).reshape(nv, -1)
                X[..., rows, rows[::-1]] -= sign * vy[:, None]
        if self.ynorm > 0:
            smu, s = assembly.maxw.sqrt_mu, split_sizes(nv)[0]
            a, b = to_split(np.stack([grid.v[0] * y[0] * smu, smu]))[:, :s]
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

    def mode_energy(self, us, ud, w2l):
        grid = self.asm.grid
        E = float(np.sum(w2l * (np.abs(us) ** 2 + np.abs(ud) ** 2)) * grid.wv)
        if self.ynorm > 0:
            rho = _SQ2 * np.sum(self.asm.maxw.sqrt_mu * ud) * grid.wv
            E += abs(rho) ** 2 / self.ynorm ** 2
        return E


def sectors(f):
    """(f_+, f_-) -> (f_+ + f_-, f_+ - f_-) / sqrt(2) along axis 0.

    The species map to the (sum, difference) sectors. It is orthogonal and
    its own inverse, so the same call maps sector fields back to species.
    """
    return np.stack([f[0] + f[1], f[0] - f[1]]) / _SQ2


def split_sizes(nv):
    """Swap-split sizes (s, a, m): m = nv h^2 rows per parity block, h = nv/2,
    of which s = nv h (h + 1)/2 are swap-even (j2 <= j3) and a = nv h (h - 1)/2
    swap-odd (j2 < j3)."""
    h = nv // 2
    return nv * h * (h + 1) // 2, nv * h * (h - 1) // 2, nv * h * h


def split_entries(nv):
    """Entries 2 s^2 + 2 a^2 + m^2 of one sector's swap-split blocks."""
    s, a, m = split_sizes(nv)
    return 2 * s * s + 2 * a * a + m * m


def split_blocks(P, nv):
    """Views (E, O, M) of swap-split block buffers P (..., L), L = `split_entries`.

    E (..., 2, s, s): the swap-even parts of parity blocks (+,+) and (-,-);
    O (..., 2, a, a): their swap-odd parts; M (..., m, m): block (+,-),
    which serves block (-,+) as well.
    """
    s, a, m = split_sizes(nv)
    lead, e, o = P.shape[:-1], 2 * s * s, 2 * (s * s + a * a)
    return (P[..., :e].reshape(lead + (2, s, s)), P[..., e:o].reshape(lead + (2, a, a)),
            P[..., o:].reshape(lead + (m, m)))


def fold(u):
    """Parity blocks (..., 4, a, h, h) of arrays u (..., a, nv, nv), h = nv/2.

    The axes -2 and then -1 each map u to (u[h+j] + u[h-1-j], u[h+j] -
    u[h-1-j]) / sqrt(2), j < h: the v2 and v3 reflections of a velocity
    field (a = nv), or both sides of a 1-D factor (a = 1). Blocks (+,+),
    (+,-), (-,+), (-,-); slices only, orthogonal, undone by `unfold`.
    """
    h = u.shape[-1] // 2
    hi, lo = slice(h, None), slice(h - 1, None, -1)
    p, q = u[..., hi, hi] + u[..., lo, hi], u[..., hi, hi] - u[..., lo, hi]
    r, s = u[..., hi, lo] + u[..., lo, lo], u[..., hi, lo] - u[..., lo, lo]
    out = np.empty(u.shape[:-3] + (4,) + p.shape[-3:], p.dtype)
    np.add(p, r, out=out[..., 0, :, :, :])
    np.subtract(p, r, out=out[..., 1, :, :, :])
    np.add(q, s, out=out[..., 2, :, :, :])
    np.subtract(q, s, out=out[..., 3, :, :, :])
    out *= 0.5
    return out


def unfold(b):
    """Arrays (..., a, nv, nv) from their parity blocks b (..., 4, a, h, h)."""
    h = b.shape[-1]
    hi, lo = slice(h, None), slice(h - 1, None, -1)
    b0, b1, b2, b3 = (b[..., k, :, :, :] for k in range(4))
    p, q, r, s = b0 + b1, b0 - b1, b2 + b3, b2 - b3
    out = np.empty(b.shape[:-4] + b.shape[-3:-2] + (2 * h, 2 * h), b.dtype)
    np.add(p, r, out=out[..., hi, hi])
    np.add(q, s, out=out[..., hi, lo])
    np.subtract(p, r, out=out[..., lo, hi])
    np.subtract(q, s, out=out[..., lo, lo])
    out *= 0.5
    return out


@functools.cache
def _swap_tables(nv):
    """Gathers of the swap split of a parity block (..., nv, h, h), h = nv/2.

    Forward, on the flattened (j2, j3): the entries (j2, j3) and (j3, j2)
    of each pair j2 <= j3 and of each pair j2 < j3, and the weights of the
    swap-even part (1/2 on the diagonal, which is entered twice).
    Inverse: per (j2, j3), its swap-even and swap-odd entries and weights.
    """
    h = nv // 2
    iu, ju = np.triu_indices(h)
    il, jl = np.triu_indices(h, 1)
    ew = np.where(iu == ju, 0.5, np.sqrt(0.5))
    te, to = np.zeros((h, h), int), np.zeros((h, h), int)
    te[iu, ju] = te[ju, iu] = np.arange(iu.size)
    to[il, jl] = to[jl, il] = np.arange(il.size)
    ce = np.where(np.eye(h, dtype=bool), 1.0, np.sqrt(0.5))
    co = np.sqrt(0.5) * np.sign(np.arange(h) - np.arange(h)[:, None])     # j2 < j3: +
    return (iu * h + ju, ju * h + iu, ew, il * h + jl, jl * h + il), (te, ce, to, co)


def _swap(b, axis=-1):
    """Swap-even and swap-odd parts (x[j2, j3] +/- x[j3, j2]) / sqrt(2),
    j2 < j3, and x[j, j] in the even part, of parity blocks b whose
    flattened (j2, j3) is axis `axis`: h (h+1)/2 and h (h-1)/2 entries."""
    h = round(b.shape[axis] ** 0.5)
    fu, gu, ew, fl, gl = _swap_tables(2 * h)[0]
    ew = ew.reshape((-1,) + (1,) * (b.ndim - 1 - axis % b.ndim))
    return (ew * (np.take(b, fu, axis) + np.take(b, gu, axis)),
            np.sqrt(0.5) * (np.take(b, fl, axis) - np.take(b, gl, axis)))


def to_split(u):
    """Q^T u: fields u (..., n) in the symmetry-adapted basis, laid out as
    `split_states` views them.

    The parity fold of the v2 and v3 reflections (`fold`, slices), then
    the swap v2 <-> v3 (gathers): blocks (+,+) and (-,-) go to their
    swap-even parts in E and swap-odd parts in O, and x_{+-}[i1, j2, j3]
    and x_{-+}[i1, j3, j2] are the two columns of M. Orthogonal, so
    `from_split` = Q undoes it.
    """
    nv = round(u.shape[-1] ** (1 / 3))
    lead = u.shape[:-1]
    b = fold(u.reshape(lead + (nv, nv, nv)))
    out = np.empty(u.shape, np.result_type(u, float))
    E, O, M = split_states(out, nv)
    ev, od = _swap(b[..., ::3, :, :, :].reshape(lead + (2, nv, -1)))
    E[..., 0] = ev.reshape(E.shape[:-1])
    O[..., 0] = od.reshape(O.shape[:-1])
    M[..., 0] = b[..., 1, :, :, :].reshape(M.shape[:-1])
    M[..., 1] = b[..., 2, :, :, :].swapaxes(-1, -2).reshape(M.shape[:-1])
    return out


def from_split(x):
    """Q x: fields (..., n) back from the symmetry-adapted basis (`to_split`)."""
    nv = round(x.shape[-1] ** (1 / 3))
    h, lead = nv // 2, x.shape[:-1]
    te, ce, to, co = _swap_tables(nv)[1]
    E, O, M = split_states(x, nv)
    b = np.empty(lead + (4, nv, h, h), x.dtype)
    e, o = E[..., 0].reshape(lead + (2, nv, -1)), O[..., 0].reshape(lead + (2, nv, -1))
    b[..., ::3, :, :, :] = ce * np.take(e, te, axis=-1) + co * np.take(o, to, axis=-1)
    b[..., 1, :, :, :] = M[..., 0].reshape(lead + (nv, h, h))
    b[..., 2, :, :, :] = M[..., 1].reshape(lead + (nv, h, h)).swapaxes(-1, -2)
    return unfold(b).reshape(x.shape)


def split_states(x, nv):
    """Views E (..., 2, s, k), O (..., 2, a, k), M (..., m, 2 k) of swap-split
    states x (..., n k), k reals per entry, which the blocks of `split_blocks`
    advance with one real product each: k = 2 for the float64 view of complex
    states, real and imaginary parts as columns; k for a raveled (n, k) stack.
    """
    s, a, m = split_sizes(nv)
    k = x.shape[-1] // (4 * m)
    lead, e, o = x.shape[:-1], 2 * s * k, 2 * (s + a) * k
    return (x[..., :e].reshape(lead + (2, s, k)), x[..., e:o].reshape(lead + (2, a, k)),
            x[..., o:].reshape(lead + (m, 2 * k)))


def split_parity(K, nv, out):
    """Write the split blocks of the parity blocks K -- (+,+), (+,-) and (-,-),
    m x m each, of a symmetric operator that commutes with the symmetry --
    into the (L,) buffer out, laid out as `split_blocks` views it. K may be
    any iterable of the three blocks, so only one need exist at a time."""
    E, O, M = split_blocks(out, nv)
    hh = (nv // 2) ** 2
    for p, Kp in zip((0, 1, 3), K):
        if p == 1:
            M[...] = Kp
            continue
        ev, od = _swap(Kp.reshape(nv, hh, nv, hh))      # columns, then rows
        E[p // 3] = _swap(ev, 1)[0].reshape(E.shape[-2:])
        O[p // 3] = _swap(od, 1)[1].reshape(O.shape[-2:])
    return out


def fold_factor(X, axis, p):
    """The 1-D factor X along velocity axis `axis` in parity block p: (x, q),
    x the block of X that maps block p to block q. X is even or odd under
    v -> -v; on the folded axes v2 and v3 an odd X flips that axis's parity
    and x is an h x h block of the fold of X; along v1 it is X itself."""
    if axis == 0:
        return X, p
    bit = 2 if axis == 1 else 1
    F = fold(X[None])[:, 0]                            # (s', s) blocks of X
    odd = bool(np.abs(F[1:3]).sum() > np.abs(F[::3]).sum())
    s = int(bool(p & bit))
    so = s ^ odd
    return F[2 * so + s], (p & ~bit) | (bit if so else 0)


def _einsum_terms(j, k):
    """einsum subscripts (view of the (nv, h, h, nv, h, h) block, x_j, tau, x_k)
    of X_j^T diag(tau) X_k between the 1-D factors along axes j and k."""
    row, col = list("abc"), list("abc")
    if j == k:
        col[j] = "d"
        xj, tau, xk = "r" + row[j], "".join("r" if a == j else row[a] for a in range(3)), "r" + col[j]
        out = "abcd"
    else:
        col[j], col[k] = "d", "e"
        xj, xk = col[j] + row[j], row[k] + col[k]
        tau = "".join(col[j] if a == j else row[a] for a in range(3))
        out = "abcde"
    return "".join(row + col) + "->" + out, f"{xj},{tau},{xk}->{out}"


def split_form(form, nv):
    """The split blocks of Q^T F Q for a `grid.VelocityForm` F that commutes
    with the symmetry, as one (L,) buffer laid out as `split_blocks` views it.

    Built fold-first, with no n x n array: in parity block p each 1-D
    factor is a small block (`fold_factor`) and each table t_jk a diagonal
    table between two parity blocks (its fold, times 1/2), so block p is
    sum_jk Xb_j^T diag(tau_jk) Xb_k on the (nv, h, h) grid, and each term
    fills a diagonal view of the (m, m) block with one einsum of its three
    small factors.
    """
    h = nv // 2
    m = nv * h * h
    folds = [(X, 0.5 * fold(t.reshape(3, 3, nv, nv, nv))) for X, t in form.terms]

    def block(p):
        # T = (diag + sum_j term_jj) / 2 + sum_{j<k} term_jk, and the block is
        # T + T^T, as term_kj = term_jk^T
        T = np.zeros((m, m))
        T6 = T.reshape(nv, h, h, nv, h, h)
        if np.ndim(form.d):
            np.einsum("abcabc->abc", T6)[...] += 0.25 * fold(form.d.reshape(nv, nv, nv))[0]
        for (X, tau), (_, t) in zip(folds, form.terms):
            xs = [fold_factor(X, a, p) for a in range(3)]
            for j in range(3):
                for k in range(j, 3):
                    if j != k and not t[j, k].any():
                        continue
                    (xj, qj), (xk, qk) = xs[j], xs[k]
                    view, expr = _einsum_terms(j, k)
                    term = np.einsum(expr, xj, tau[j, k, qj ^ qk], xk)
                    np.einsum(view, T6)[...] += 0.5 * term if j == k else term
        return T + T.T

    return split_parity(map(block, (0, 1, 3)), nv, np.empty(split_entries(nv)))


def split_matvec(P, x):
    """Swap-split blocks P (..., L) times complex swap-split states x (..., n).

    One real product per block advances the real and imaginary parts (and
    both columns of M) without a complex copy of P.
    """
    x = np.ascontiguousarray(x)
    nv = round(x.shape[-1] ** (1 / 3))
    out = np.empty_like(x)
    for B, u, v in zip(split_blocks(P, nv), split_states(x.view(np.float64), nv),
                       split_states(out.view(np.float64), nv)):
        np.matmul(B, u, out=v)
    return out


_TC = 0.5 - 0.5j      # T = (I + R)/2 - i (I - R)/2 = _TC I + conj(_TC) R


def to_real(u):
    """T u: a complex field (..., n) in the coordinates of the real form."""
    return _TC * u + np.conj(_TC) * u[..., ::-1]


def from_real(w):
    """T^{-1} w = T^H w: back from the real-form coordinates."""
    return np.conj(_TC) * w + _TC * w[..., ::-1]


@dataclass
class ModeTrajectory:
    """Sampled mode evolution: times, functional, sigma-norm dissipation."""
    y: float
    l: float
    dt: float
    t: np.ndarray
    energy: np.ndarray
    sigma_diss: np.ndarray
    max_rel_increase: float
    violations: int
    final_state: tuple = field(default=None, repr=False)


def _sector_samples(P, u, steps, samp):
    """Sector states (samples, n) from u, every samp steps and at the last step.

    P is the sector's (L,) buffer of swap-split block propagators; the state
    stays split from the first step to the last sample, and every product
    writes into one preallocated sample stack. A stride is one product with
    P^samp, built by repeated squaring, when it is taken at least twice,
    else samp products with P; leftover steps use P.
    """
    nv = round(u.shape[-1] ** (1 / 3))
    strides, rem = divmod(steps, samp)
    P = split_blocks(P, nv)
    Q, k = P, samp
    if strides >= 2 and samp > 1:
        Q, k = [np.linalg.matrix_power(B, samp) for B in P], 1
    out = np.empty((strides + 1 + (rem > 0), u.shape[-1]), dtype=complex)
    out[0] = to_split(to_real(u))
    samples = split_states(out.view(np.float64), nv)
    spare = split_states(np.empty(2 * u.shape[-1]), nv)

    def advance(blocks, j, count):
        # sample j + 1 = blocks^count sample j, alternating with the spare
        # state so that no product writes into its own input
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
    return from_real(from_split(out))


def evolve_mode(op, u0, dt, t_end, l=0.0, n_samples=80):
    """Integrate one mode with implicit midpoint; sample functional and dissipation.

    u0 is a two-species complex field (2, n). Emits a warning-grade flag via
    the returned violation count when the functional increases by more than
    INCREASE_TOL (relative) between consecutive samples.
    """
    asm = op.asm
    u0 = np.asarray(u0, dtype=complex)
    Ps, Pd = op.propagators(dt)
    w2l = asm.weight.pow(l) ** 2
    steps = int(round(t_end / dt))
    samp = max(1, steps // max(n_samples, 1))
    # one sector at a time, so one stride power is alive at a time
    us, ud = (_sector_samples(P, u, steps, samp) for P, u in zip((Ps, Pd), sectors(u0)))
    t = np.concatenate([[0.0], np.cumsum(np.full(steps, dt))])    # t += dt, in order
    ts = t[np.unique(np.r_[0:steps + 1:samp, steps])]
    Es = np.array([op.mode_energy(a, b, w2l) for a, b in zip(us, ud)])
    Ds = asm.norms.sigma_sq_batch(np.stack([us, ud], axis=1), l).sum(axis=1)
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
    return ModeTrajectory(
        y=op.ynorm, l=l, dt=dt, t=ts, energy=Es,
        sigma_diss=Ds, max_rel_increase=max_inc, violations=viol,
        final_state=(us[-1].copy(), ud[-1].copy()),
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
    with np.errstate(over="ignore", invalid="ignore"):      # refused below instead
        for y in ys:
            dt = 0.05 * min(1.0, 1.0 / y)
            op = ModeOperator([y, 0, 0], assembly)
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
