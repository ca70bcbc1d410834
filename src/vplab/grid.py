"""Phase-space grids, Maxwellian tables, velocity weights, and norms.

The velocity domain is a truncated box [-vmax, vmax]^3 with a uniform
cell-centered mesh (midpoint quadrature, exactly symmetric under v -> -v).
The spatial domain is one periodic axis x in [-lx, lx) with spectral
differentiation. Fields over velocity are stored flattened in C order,
index k = i1*nv^2 + i2*nv + i3.
"""

import numpy as np
import scipy.sparse as sp


def _diff1d(n, h):
    """1D first-derivative stencil: central interior, 3-point one-sided ends.

    Both row types differentiate quadratics exactly, which the collision
    assembly relies on.
    """
    rows, cols, vals = [], [], []
    for k in range(1, n - 1):
        rows += [k, k]
        cols += [k - 1, k + 1]
        vals += [-0.5 / h, 0.5 / h]
    rows += [0, 0, 0]
    cols += [0, 1, 2]
    vals += [-1.5 / h, 2.0 / h, -0.5 / h]
    rows += [n - 1, n - 1, n - 1]
    cols += [n - 1, n - 2, n - 3]
    vals += [1.5 / h, -2.0 / h, 0.5 / h]
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _diff4_1d(n, h):
    """Scaled fourth difference (1,-4,6,-4,1)/16, shifted windows at the ends.

    Normalized so the odd-even (checkerboard) mode maps to itself with unit
    amplitude; annihilates cubics exactly on every row.
    """
    st = np.array([1.0, -4.0, 6.0, -4.0, 1.0]) / 16.0
    rows, cols, vals = [], [], []
    for k in range(n):
        c = min(max(k - 2, 0), n - 5)
        rows += [k] * 5
        cols += list(range(c, c + 5))
        vals += list(st)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


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

        self._dv = None
        self._dv4 = None

    def dv_ops(self):
        """Sparse first-derivative operators D_j, j = 1..3, on flattened fields."""
        if self._dv is None:
            D1 = _diff1d(self.nv, self.hv)
            I = sp.identity(self.nv, format="csr")
            self._dv = [
                sp.kron(sp.kron(D1, I), I, format="csr"),
                sp.kron(sp.kron(I, D1), I, format="csr"),
                sp.kron(sp.kron(I, I), D1, format="csr"),
            ]
        return self._dv

    def dv4_ops(self):
        """Normalized fourth-difference operators along each velocity axis."""
        if self._dv4 is None:
            D4 = _diff4_1d(self.nv, self.hv)
            I = sp.identity(self.nv, format="csr")
            self._dv4 = [
                sp.kron(sp.kron(D4, I), I, format="csr"),
                sp.kron(sp.kron(I, D4), I, format="csr"),
                sp.kron(sp.kron(I, I), D4, format="csr"),
            ]
        return self._dv4

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
        """Sparse matrix S with |g|^2_{sigma,l} = Re(g* . S g) * wv (cached per l)."""
        key = float(l)
        if key in self._forms:
            return self._forms[key]
        grid = self.grid
        gamma = self.weight.gamma
        w2l = self.weight.pow(l) ** 2
        av = 1.0 + grid.vsq          # <v>^2
        D = grid.dv_ops()
        vsq = grid.vsq
        safe = np.where(vsq > 0, vsq, 1.0)
        R = []
        for i in range(3):
            Ri = None
            for j in range(3):
                T = sp.diags(np.where(vsq > 0, grid.v[i] * grid.v[j] / safe, 0.0)) @ D[j]
                Ri = T if Ri is None else Ri + T
            R.append(Ri.tocsr())
        wpar = w2l * av ** (gamma / 2.0)
        wperp = w2l * av ** ((gamma + 2.0) / 2.0)
        S = sp.diags(wperp).tocsr()
        for i in range(3):
            Qi = D[i] - R[i]
            S = S + R[i].T @ sp.diags(wpar) @ R[i] + Qi.T @ sp.diags(wperp) @ Qi
        S = ((S + S.T) * 0.5).tocsr()
        self._forms[key] = S
        return S

    def sigma_sq_batch(self, G, l):
        """Squared sigma norms of fields stacked along leading axes (..., n)."""
        S = self.sigma_form(l)
        flat = G.reshape(-1, G.shape[-1])
        out = np.einsum("ij,ij->i", np.conj(flat), (S @ flat.T).T).real * self.grid.wv
        return out.reshape(G.shape[:-1])

