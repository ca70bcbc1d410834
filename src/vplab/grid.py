"""Phase-space grids, Maxwellian tables, velocity weights, norms, and the
symmetry-adapted basis of the velocity grid.

The velocity domain is a truncated box [-vmax, vmax]^3 with a uniform
cell-centered mesh (midpoint quadrature, exactly symmetric under v -> -v).
The spatial domain is one periodic axis x in [-lx, lx) with spectral
differentiation. Fields over velocity are stored flattened in C order,
index k = i1*nv^2 + i2*nv + i3.
"""

import functools

import numpy as np


def _diff1d(n, h):
    """1D first-derivative stencil: central interior, 3-point one-sided ends.

    Both row types differentiate quadratics exactly, which the collision
    assembly relies on.
    """
    d = np.zeros((n, n))
    k = np.arange(1, n - 1)
    d[k, k - 1], d[k, k + 1] = -0.5 / h, 0.5 / h
    d[0, :3] = -1.5 / h, 2.0 / h, -0.5 / h
    d[-1, -3:] = 0.5 / h, -2.0 / h, 1.5 / h
    return d


def _diff4_1d(n, h):
    """Scaled fourth difference (1,-4,6,-4,1)/16, shifted windows at the ends.

    Normalized so the odd-even (checkerboard) mode maps to itself with unit
    amplitude; annihilates cubics exactly on every row.
    """
    d = np.zeros((n, n))
    for k in range(n):
        c = min(max(k - 2, 0), n - 5)
        d[k, c:c + 5] = np.array([1.0, -4.0, 6.0, -4.0, 1.0]) / 16.0
    return d


def along(M, u, axis):
    """The 1-D factor M (k, k) applied along velocity axis `axis` of fields u (..., n).

    The velocity grid is (n / k^2, k, k) in C order: (nv, nv, nv), or a
    parity block (nv, h, h) with a factor along its axis 1 or 2. One matmul
    per call (Van Loan 2000, the Kronecker product as a matrix product),
    batched over the leading axes: one flat (..., k) @ (k, k) product is
    large enough for OpenBLAS to thread, and two threads ran it 30-50x
    slower (8-16 ms for 0.2-0.3 ms).
    """
    k = M.shape[-1]
    lead = u.shape[:-1]
    if axis == 0:
        return np.matmul(M, u.reshape(lead + (k, -1))).reshape(u.shape)
    if axis == 1:
        return np.matmul(M, u.reshape(lead + (-1, k, k))).reshape(u.shape)
    return np.matmul(u.reshape(lead + (-1, k)), M.T).reshape(u.shape)


class VelocityForm:
    """Symmetric velocity operator sum_(X, t) sum_jk X_j^T diag(t_jk) X_k + diag(d).

    X is a dense nv x nv 1-D factor, even or odd under v -> -v, and X_j is
    X along velocity axis j; t is a (3, 3, n) table symmetric in j, k, and
    d an (n,) table or 0. The collision part A and the sigma form are both
    of this kind: `apply` serves A, `quad` the sigma norms, and
    `split_form` builds their dense split blocks from the same factors.
    """

    def __init__(self, terms, d):
        self.terms = terms
        self.d = d

    def quad(self, u):
        """Re(u* F u) per field of fields u (..., n), real or complex: from
        the three X_k u of each term, half the applies of `apply`."""
        if np.iscomplexobj(u):
            return self.quad(u.real) + self.quad(u.imag)
        out = np.einsum("...n,n,...n->...", u, self.d, u) if np.ndim(self.d) else 0.0
        for X, t in self.terms:
            xu = [along(X, u, k) for k in range(3)]
            for j in range(3):
                for k in range(j, 3):
                    if j == k or t[j, k].any():
                        q = np.einsum("...n,n,...n->...", xu[j], t[j, k], xu[k])
                        out = out + (q if j == k else 2.0 * q)
        return out

    def apply(self, u):
        """The operator applied to fields u (..., n), real or complex."""
        out = self.d * u
        for X, t in self.terms:
            xu = np.stack([along(X, u, k) for k in range(3)], axis=-2)
            y = np.einsum("jkn,...kn->...jn", t, xu)
            for j in range(3):
                out = out + along(X.T, y[..., j, :], j)
        return out


# The symmetry-adapted basis. The collision sectors, and with v.y = v1 y the
# real form of each mode operator and its field term, commute with the v2
# and v3 reflections and the swap v2 <-> v3, so each sector is five blocks
# in the basis of `to_split` (Fassler & Stiefel 1992), held in one flat
# float64 buffer (`split_blocks`) like every propagator.

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
    """The split blocks of Q^T F Q for a `VelocityForm` F that commutes
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


def split_quad(S, x, nv):
    """sum_b x_b^T S_b x_b per state of real split states x (..., n k), over
    the blocks S (L,) of `split_form` and every column of `split_states`:
    Re(u* F u) of u = Q x for complex states viewed as floats (k = 2)."""
    lead = x.shape[:-1]
    return sum(np.sum((u * (B @ u)).reshape(lead + (-1,)), axis=-1)
               for B, u in zip(split_blocks(S, nv), split_states(x, nv)))


_TC = 0.5 - 0.5j      # T = (I + R)/2 - i (I - R)/2 = _TC I + conj(_TC) R


def to_real(u):
    """T u: a complex field (..., n) in the coordinates of the real form."""
    return _TC * u + np.conj(_TC) * u[..., ::-1]


def from_real(w):
    """T^{-1} w = T^H w: back from the real-form coordinates."""
    return np.conj(_TC) * w + _TC * w[..., ::-1]


class PhaseGrid:
    """Truncated velocity box grid x periodic spatial Fourier grid.

    Parameters
    ----------
    nv : int
        Points per velocity axis (even, >= 8).
    vmax : float
        Velocity box half-width.
    nx : int
        Spatial points on the periodic axis (power of two).
    lx : float
        Torus half-period, x in [-lx, lx).
    """

    def __init__(self, nv, vmax, nx=32, lx=np.pi):
        if nv % 2 != 0:
            raise ValueError("nv must be even (odd nv breaks v -> -v symmetry)")
        if nv < 8:
            raise ValueError("nv must be >= 8")
        if vmax <= 0:
            raise ValueError("vmax must be positive")
        if nx < 1 or (nx & (nx - 1)) != 0:
            raise ValueError("nx must be a power of two")
        self.nv = int(nv)
        self.vmax = float(vmax)
        self.nx = int(nx)
        self.lx = float(lx)

        self.hv = 2.0 * vmax / nv
        self.v1d = -vmax + (np.arange(nv) + 0.5) * self.hv
        V1, V2, V3 = np.meshgrid(self.v1d, self.v1d, self.v1d, indexing="ij")
        self.v = np.stack([V1.ravel(), V2.ravel(), V3.ravel()])
        self.vsq = (self.v ** 2).sum(axis=0)
        self.n = nv ** 3
        self.wv = self.hv ** 3          # midpoint quadrature weight per cell

        self.dx = 2.0 * lx / nx
        self.x = -lx + np.arange(nx) * self.dx
        self.kx_r = 2.0 * np.pi * np.fft.rfftfreq(nx, d=self.dx)

        # 1-D stencils along one velocity axis: `along(d1, u, j)` is D_j u
        self.d1 = _diff1d(nv, self.hv)
        self.d4 = _diff4_1d(nv, self.hv)

    def integrate_v(self, g):
        """Midpoint quadrature of g over the velocity box (last axis)."""
        return np.sum(g, axis=-1) * self.wv

    def dx_powers(self, field, kmax, axis):
        """[d_x^a field for a = 0..kmax] of a real field along `axis`.

        One rfft, then the ladder multiplies by i kx_r once per order. The
        Nyquist mode (even nx) has no real odd derivative: irfft drops it.
        """
        shape = [1] * np.ndim(field)
        shape[axis] = self.kx_r.size
        ik = (1j * self.kx_r).reshape(shape)
        outs = [field]
        cur = np.fft.rfft(field, axis=axis)
        for _ in range(kmax):
            cur = cur * ik
            outs.append(np.fft.irfft(cur, n=self.nx, axis=axis))
        return outs

    def ddx(self, field, axis=-1):
        """Spectral x-derivative of a real field along `axis`."""
        return self.dx_powers(field, 1, axis)[1]


def build_grid(nv=16, vmax=6.0, nx=32, lx=np.pi):
    """Construct a PhaseGrid; validates parameters (see PhaseGrid)."""
    return PhaseGrid(nv, vmax, nx=nx, lx=lx)


class Maxwellian:
    """Normalized Maxwellian tabulated on the velocity grid."""

    def __init__(self, grid):
        self.mu = (2.0 * np.pi) ** -1.5 * np.exp(-grid.vsq / 2.0)
        self.sqrt_mu = np.sqrt(self.mu)
        # sqrt_mu = s(v1) s(v2) s(v3) with this 1-D factor s
        self.sqrt_mu_1d = (2.0 * np.pi) ** -0.25 * np.exp(-grid.v1d ** 2 / 4.0)
        self.mass = float(grid.integrate_v(self.mu))


def maxwellian(grid):
    """Tabulate mu and sqrt(mu) on the grid; discrete mass recorded."""
    return Maxwellian(grid)


class VelocityWeight:
    """Velocity weight w(v): <v> on the hard branch, <v>^{-gamma} on the soft.

    Valid for gamma in [-3, 1]; the branch flag follows the sign of gamma+2.
    Real powers w^l are cached; a power that overflows at the box corners
    holds inf there (numpy warns), and the commands that report weighted
    quantities refuse non-finite results.
    """

    def __init__(self, grid, gamma):
        if not -3.0 <= gamma <= 1.0:
            raise ValueError("gamma must lie in [-3, 1]")
        self.gamma = float(gamma)
        self.hard = gamma + 2.0 >= 0.0
        bracket = np.sqrt(1.0 + grid.vsq)
        self.w = bracket if self.hard else bracket ** (-gamma)
        self._pows = {}

    def pow(self, l):
        l = float(l)
        if l not in self._pows:
            self._pows[l] = self.w ** l
        return self._pows[l]


class NormSuite:
    """Norm evaluators bound to a grid and one velocity weight: sigma-norm, Z1.

    The sigma-norm uses the three-term weighted form (radially projected
    gradient with <v>^{gamma/2}, perpendicular gradient and zeroth term with
    <v>^{(gamma+2)/2}), all carrying w^l; gamma is the weight's.
    """

    def __init__(self, grid, weight):
        self.grid = grid
        self.weight = weight
        self._forms = {}

    def z1(self, f):
        """Z1 = L^2_v(L^1_x) norm of a field shaped (..., nx, n)."""
        l1x = np.sum(np.abs(f), axis=-2) * self.grid.dx
        return float(np.sqrt(np.sum(l1x ** 2) * self.grid.wv))

    def sigma_form(self, l):
        """The `VelocityForm` S with |g|^2_{sigma,l} = Re(g* . S g) * wv (cached per l).

        S = diag(w_perp) + sum_jk D_j^T diag(w_par n_j n_k + w_perp (delta_jk -
        n_j n_k)) D_k, n = v/|v|: the radial and perpendicular parts of the
        gradient with their weights, as sum_i n_i^2 = 1.
        """
        key = float(l)
        if key in self._forms:
            return self._forms[key]
        grid = self.grid
        gamma = self.weight.gamma
        w2l = self.weight.pow(l) ** 2
        av = 1.0 + grid.vsq          # <v>^2
        vsq = grid.vsq
        nn = np.where(vsq > 0, grid.v[:, None] * grid.v[None, :] / np.where(vsq > 0, vsq, 1.0),
                      0.0)
        wpar = w2l * av ** (gamma / 2.0)
        wperp = w2l * av ** ((gamma + 2.0) / 2.0)
        t = wpar * nn + wperp * (np.eye(3)[..., None] - nn)
        S = VelocityForm([(grid.d1, t)], wperp)
        self._forms[key] = S
        return S

    def sigma_sq_batch(self, G, l):
        """Squared sigma norms of fields stacked along leading axes (..., n)."""
        return self.sigma_form(l).quad(G) * self.grid.wv
