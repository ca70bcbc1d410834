"""Phase-space grids, Maxwellian tables, velocity weights, and norms.

The velocity domain is a truncated box [-vmax, vmax]^3 with a uniform
cell-centered mesh (midpoint quadrature, exactly symmetric under v -> -v).
The spatial domain is one periodic axis x in [-lx, lx) with spectral
differentiation. Fields over velocity are stored flattened in C order,
index k = i1*nv^2 + i2*nv + i3.
"""

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
    `lineardecay.split_form` builds their dense split blocks from the same
    factors.
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
