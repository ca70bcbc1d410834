"""Landau collision kernel, linearized operator, and bilinear term.

The linearized operator acts per species as L_pm f = A f_pm + K(f_+ + f_-),
with A the Maxwellian-background diffusion part and K the integral part.
Both are discretized through the conjugated differences
C_j = diag(sqrt_mu) D_j diag(1/sqrt_mu), which makes

    -A = 2 sum_ij C_i^T diag(sigma_ij) C_j
     K =   sum_ij C_i^T M^{1/2} Xi_ij M^{1/2} C_j

structurally symmetric with -A and -(A + 2K) positive semidefinite, and
annihilates the six collision invariants to machine precision (C_j is exact
on sqrt_mu times quadratics, and the projector identity Phi(z) z = 0 holds
exactly on the difference grid).

Central differences leave the odd-even grid mode almost unpenalized; a
conjugated fourth-difference form (exact zero on sqrt_mu times cubics)
restores a physical dissipation rate at the grid scale.
"""

import numpy as np

from .grid import NormSuite, VelocityForm, VelocityWeight, along
from .lineardecay import (fold, fold_factor, from_split, split_blocks, split_entries,
                          split_form, split_parity, split_quad, split_states, to_real,
                          to_split)
from .macroscopic import null_basis_raw, orthonormalize

PAIRS = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
PAIR_INDEX = {p: k for k, p in enumerate(PAIRS)}
STAB = 0.5      # strength of the odd-even stabilization form

PROBE_TOL = 1e-9  # bound on the residual of each reported coercivity pair
FORM_TOL = 1e-10  # relative bound on a split norm against the velocity grid's


def pair_of(i, j):
    return PAIR_INDEX[(i, j) if i <= j else (j, i)]


class KernelTable:
    """Collision kernel Phi^{ij}(z) tabulated on the pair-difference grid.

    Phi(z) = reg(|z|)^{gamma+2} (I - z z^T/|z|^2) with the magnitude floored
    at eps_reg, half the cell diagonal, and the z = 0 self-cell excluded.
    The projector part is kept exact so Phi(z) z = 0 holds at every
    tabulated z.
    """

    def __init__(self, grid, gamma):
        nv, h = grid.nv, grid.hv
        self.eps_reg = float(np.sqrt(3.0) * h / 2.0)
        zd = np.arange(-(nv - 1), nv) * h
        Z = np.meshgrid(zd, zd, zd, indexing="ij")
        zsq = Z[0] ** 2 + Z[1] ** 2 + Z[2] ** 2
        znorm = np.sqrt(zsq)
        mag = np.maximum(znorm, self.eps_reg) ** (gamma + 2.0)
        safe = np.where(zsq > 0, zsq, 1.0)
        tabs = []
        for (i, j) in PAIRS:
            proj = (1.0 if i == j else 0.0) - Z[i] * Z[j] / safe
            P = mag * proj
            P[znorm == 0] = 0.0
            tabs.append(P)
        self.phi = np.stack(tabs)           # (6, 2nv-1, 2nv-1, 2nv-1)
        self.side = 2 * nv - 1


class _ConvKit:
    """Zero-padded (2nv)^3 DFT convolution with the six kernel components.

    Each input field is transformed once; the kernel acts on its spectrum
    through the precomputed component spectra Phi^{ij}-hat (the structure of
    the fast spectral Landau solvers of Pareschi, Russo and Toscani), so the
    only per-component work is a pointwise product. Each 1-D pass is one
    matrix product with a small dense DFT matrix over all lines at once (the
    matrix view of the DFT, Van Loan 1992), pruned to the nv nonzero inputs
    (forward) or the nv returned outputs (inverse). Spectra are held in
    (k3, k2, k1) order, k3 the rfft half axis.
    """

    def __init__(self, grid, kernel):
        self.kernel = kernel
        self.nv = nv = grid.nv
        m = 2 * nv
        pad = np.zeros((6, m, m, m))
        s = kernel.side
        pad[:, :s, :s, :s] = kernel.phi
        self.khat = np.fft.rfftn(pad, axes=(-3, -2, -1)).transpose(0, 3, 2, 1).copy()
        # every twiddle from one table, indexed by (j k) mod 2nv: np.exp of the
        # raw product j k put the FFT sigma up to 4x farther from the direct sum
        w = np.exp(-2j * np.pi * np.arange(m) / m)
        j, k = np.arange(nv), np.arange(m)
        self.F = w[np.outer(j, k) % m]                                  # (nv, m)
        self.Fint = self.F[:, :nv + 1].copy().view(float)              # cos, -sin
        keep = np.outer(k, j + nv - 1) % m
        self.G = w.conj()[keep] / m                                     # (m, nv)
        # the c2r pass: Re(X conj w) = Re X Re w + Im X Im w, weighted 1, 2, ...,
        # 2, 1 and by wv; irfft ignores Im X at k = 0 and nv
        c = np.full(nv + 1, 2.0)
        c[[0, nv]] = 1.0
        wk = w[keep[:nv + 1]] * (c * grid.wv / m)[:, None]
        wk.imag[[0, nv]] = 0.0
        self.Gint = np.stack([wk.real, wk.imag], axis=1).reshape(-1, nv)  # (2(nv+1), nv)

    def _forward(self, g):
        """Spectra (..., nv+1, 2nv, 2nv) of the zero-padded real fields g (..., nv^3)."""
        nv = self.nv
        a = (g.reshape(g.shape[:-1] + (nv, nv, nv)) @ self.Fint).view(complex)
        a = a.swapaxes(-1, -2) @ self.F                  # (..., j1, k3, k2)
        return np.moveaxis(a, -3, -1) @ self.F           # (..., k3, k2, k1)

    def _inverse(self, gh):
        """Fields (..., nv^3) on the velocity grid from product spectra gh.

        The quadrature weight wv is folded into the last pass.
        """
        a = (gh @ self.G).swapaxes(-1, -2) @ self.G      # (..., k3, j1, j2)
        a = np.ascontiguousarray(np.moveaxis(a, -3, -1))  # (..., j1, j2, k3)
        return (a.view(float) @ self.Gint).reshape(gh.shape[:-3] + (self.nv ** 3,))

    def components(self, g):
        """All six Phi^{ij} * g in PAIRS order, (..., 6, n), for real g (..., n)."""
        return self._inverse(self.khat * self._forward(g)[..., None, :, :, :])

    def contract(self, q):
        """sum_j Phi^{ij} * q_j for i = 0..2, (..., 3, n), for real q (..., 3, n)."""
        qh = self._forward(q)
        return self._inverse(np.stack([
            sum(self.khat[pair_of(i, j)] * qh[..., j, :, :, :] for j in range(3))
            for i in range(3)], axis=-4))


def _check_psd(sigma):
    """Raise ValueError unless the 3x3 matrix sigma^{ij} is PSD at every node."""
    mats = np.empty((sigma.shape[1], 3, 3))
    for (i, j) in PAIRS:
        mats[:, i, j] = mats[:, j, i] = sigma[pair_of(i, j)]
    eigmin = np.linalg.eigvalsh(mats)[:, 0].min()
    if eigmin < -1e-10 * max(np.abs(sigma).max(), 1.0):
        raise ValueError(
            f"sigma not positive semidefinite (min eigenvalue {eigmin:.3e}); "
            "eps_reg too small"
        )


def assemble_sigma(grid, maxw, gamma, method="fft", kit=None):
    """Diffusion coefficients sigma^{ij}(v) = int Phi^{ij}(v - v*) mu(v*) dv*.

    Returns the (6, n) table in PAIRS order. `method` selects the zero-padded
    FFT path or the direct windowed sum; the two agree to roundoff. `kit` is
    the convolution kit of the kernel table (built for `gamma` when omitted).
    Raises if the 3x3 matrix at any node fails positive semidefiniteness.
    """
    if kit is None:
        kit = _ConvKit(grid, KernelTable(grid, gamma))
    if method == "fft":
        sigma = kit.components(maxw.mu)
    elif method == "direct":
        # win[k, a, w] = Phi^k(a + w) is a strided view of the table, so
        # sigma(a) = sum_b Phi(a - b + nv - 1) mu(b) runs over it with mu
        # reversed, and nothing of size n x n is formed
        nv = grid.nv
        win = np.lib.stride_tricks.sliding_window_view(kit.kernel.phi, (nv,) * 3,
                                                       axis=(1, 2, 3))
        mu3 = maxw.mu.reshape(nv, nv, nv)[::-1, ::-1, ::-1]
        sigma = np.einsum("kabcdef,def->kabc", win, mu3).reshape(6, -1) * grid.wv
    else:
        raise ValueError(f"unknown sigma assembly method: {method!r}")
    _check_psd(sigma)
    return sigma


class CollisionAssembly:
    """Precomputed discrete collision operator with its A/K split.

    Parameters
    ----------
    grid, maxw : PhaseGrid, Maxwellian
    gamma : float
        Kernel exponent in [-3, 1].

    The kernel table is transformed once and its spectra serve sigma, K and
    the bilinear term. The sectors (A + 2K, A) exist only as their split
    blocks, assembled in the symmetry-adapted basis on the first
    `sector_blocks` call.
    """

    def __init__(self, grid, maxw, gamma):
        self.grid = grid
        self.maxw = maxw
        self.gamma = float(gamma)
        self.weight = VelocityWeight(grid, gamma)
        self.norms = NormSuite(grid, self.weight)
        self.kernel = KernelTable(grid, gamma)
        self._kit = _ConvKit(grid, self.kernel)
        self.sigma = assemble_sigma(grid, maxw, self.gamma, kit=self._kit)

        # 1-D factors along one axis: sqrt_mu = s(v1) s(v2) s(v3), so C_j is
        # c1 = diag(s) d1 diag(1/s) along axis j, and the field term's
        # conjugated difference diag(1/s) d1 diag(s) acts along v1 alone
        s = maxw.sqrt_mu_1d
        self.c1 = s[:, None] * grid.d1 / s
        self.ct1 = grid.d1 * s / s[:, None]
        r1 = s[:, None] * grid.d4 / s
        t = np.empty((3, 3, grid.n))
        for (i, j) in PAIRS:
            t[i, j] = t[j, i] = -2.0 * self.sigma[pair_of(i, j)]
        rho = (1.0 + grid.vsq) ** ((gamma + 2.0) / 2.0)
        self.A = VelocityForm([(self.c1, t), (r1, np.eye(3)[..., None] * (-STAB * rho))], 0.0)

        self._blocks = None
        self._split_norms = {}

    # -- K: integral part ---------------------------------------------------

    def apply_K(self, h):
        """K applied to species-sum fields h (..., n) by FFT convolution."""
        smu = self.maxw.sqrt_mu
        q = smu * np.stack([along(self.c1, h, j) for j in range(3)], axis=-2)
        g = smu * self._kit.contract(q)          # q_j = M^{1/2} C_j h
        return sum(along(self.c1.T, g[..., i, :], i) for i in range(3))

    def build_K_dense(self):
        """K as the (+,+), (+,-) and (-,-) diagonal blocks of P K P^T, a (3, m, m)
        array, m = n/4, P the parity fold of `lineardecay.to_split`. The (-,+)
        block, the swap of (+,-), is not built.

        No n x n array is formed. Block p is sum_ij Cb_i^T Y_ij Cb_j: Cb_j =
        diag(sqrt_mu) times C_j's 1-D factor in block p (`lineardecay.fold_factor`;
        C_2 and C_3 flip the parity of their own axis), applied along its axis
        of the folded (nv, h, h) grid, and Y_ij, as Phi^{ij} has a parity in
        each axis, is a gather along the v1 difference of a table holding, per
        folded axis, Phi(j - k) + s Phi(j + k + 1), s the column parity.
        """
        nv, h, m = self.grid.nv, self.grid.nv // 2, self.grid.n // 4
        smu = 0.5 * fold(self.maxw.sqrt_mu.reshape(nv, nv, nv))[0].reshape(m)
        k = np.arange(h)
        near, far = np.subtract.outer(k, k) + nv - 1, np.add.outer(k, k) + nv
        d1 = np.subtract.outer(range(nv), range(nv)) + nv - 1
        K = np.empty((3, m, m))
        for Kp, p in zip(K, (0, 1, 3)):            # (+,+), (+,-), (-,-)
            xs = [fold_factor(self.c1, a, p) for a in range(3)]
            RT = np.zeros((3, m, m))    # RT_j = (sum_i Cb_i^T Y_ij)^T over the pairs (i, j)
            for (i, j) in PAIRS:
                c = xs[j][1]        # the column parity of Y_ij
                phi = self.kernel.phi[pair_of(i, j)]
                G = phi[:, near] + (-1.0 if c & 2 else 1.0) * phi[:, far]
                G = G[..., near] + (-1.0 if c & 1 else 1.0) * G[..., far]   # (2nv-1, h, h, h, h)
                Y = G[d1].transpose(0, 2, 4, 1, 3, 5).reshape(m, m)
                Y *= self.grid.wv * (1.0 if i == j else 2.0)  # (j, i): transpose, via Kp.T
                RT[j] += along(xs[i][0].T, smu * Y.T, i)
            Kt = sum(along(xs[j][0].T, smu * RT[j].T, j) for j in range(3))     # K_p^T
            np.add(Kt, Kt.T, out=Kp)
            Kp *= 0.5
        return K

    # -- application helpers -------------------------------------------------

    def apply_A(self, g):
        """Diffusion part A applied per species field (..., n)."""
        return self.A.apply(g)

    def apply_L(self, f):
        """L = (L_+, L_-) applied to a two-species field f (2, ..., n)."""
        f = np.asarray(f)
        return self.apply_A(f) + self.apply_K(f[0] + f[1])

    # -- null space -----------------------------------------------------------

    def sector_kernels(self):
        """Orthonormal kernel bases of the sum and difference sectors."""
        raw = null_basis_raw(self.grid, self.maxw)[:, 0]   # smu, v_j smu, |v|^2 smu
        ks = orthonormalize(raw[[0, 2, 3, 4, 5]], self.grid.wv)
        kd = orthonormalize(raw[:1], self.grid.wv)
        return ks, kd

    def sector_blocks(self):
        """(L_sum, L_diff) = (A + 2K, A) as a (2, L) array of their split blocks.

        The diagonal blocks of Q^T L Q (`lineardecay.to_split`), laid out as
        `lineardecay.split_blocks` views them: A's from its 1-D factors
        (`lineardecay.split_form`), K's from its parity blocks
        (`build_K_dense`). Built on the first call and kept.
        """
        if self._blocks is None:
            nv = self.grid.nv
            K = self.build_K_dense()        # before B: a lower peak
            B = np.empty((2, split_entries(nv)))
            split_parity(K, nv, B[0])
            del K
            B[1] = split_form(self.A, nv)
            B[0] *= 2.0
            B[0] += B[1]
            self._blocks = B
        return self._blocks

    def split_norms(self, l):
        """(d, S): the L2 weight w^{2l} and the sigma form at weight l in the
        split basis, so that wv sum d x^2 = |w^l u|^2 and wv `split_quad(S, x)`
        = |u|^2_{sigma,l} for complex split states x viewed as floats, u =
        T^-1 Q x. d is the diagonal of Q^T diag(w^{2l}) Q (diagonal, as w^{2l}
        is invariant under the symmetry), twice per entry; S the split blocks
        of `norms.sigma_form(l)`. Built on the first call per l and checked
        then on a fixed field against the velocity grid: RuntimeError beyond
        FORM_TOL.
        """
        key = float(l)
        if key not in self._split_norms:
            grid = self.grid
            w2l = self.weight.pow(l) ** 2
            d = np.repeat(to_split(w2l * from_split(np.ones(grid.n))), 2)
            S = split_form(self.norms.sigma_form(l), grid.nv)
            # a chirp, rough in every parity block: numpy.random, loaded here,
            # would raise collision-check's peak RSS by 2.4 MB at nv 12
            u = self.maxw.sqrt_mu * np.exp(1j * np.arange(grid.n) ** 2 / 7.0)
            x = to_split(to_real(u)).view(np.float64)
            for name, got, ref in (("weight", x @ (d * x), np.sum(w2l * np.abs(u) ** 2)),
                                   ("sigma form", split_quad(S, x, grid.nv) * grid.wv,
                                    self.norms.sigma_sq_batch(u, l))):
                if np.isfinite(ref) and not abs(got - ref) <= FORM_TOL * abs(ref):
                    raise RuntimeError(f"the split {name} at l = {l:g} differs from the "
                                       f"velocity-grid norm by {abs(got / ref - 1):.2e} "
                                       f"relative on a fixed field (tolerance {FORM_TOL:g})")
            self._split_norms[key] = d, S
        return self._split_norms[key]

    def null_residuals(self):
        """Relative residual |L xi| / |xi| for each raw null vector."""
        out = []
        for xi in null_basis_raw(self.grid, self.maxw):
            r = self.apply_L(xi)
            out.append(
                float(np.sqrt(np.sum(r ** 2)) / np.sqrt(np.sum(xi ** 2)))
            )
        return np.array(out)


def _block_pencil(L, S, C, Z):
    """The pencil (-L, S) of one split block off span(Z), S^-1 = C^T C.

    With y = C^-T x it is H y = lam y, H = -C L C^T, off span(C Z), which
    the reflectors Q = H_1 ... H_k of C Z (numpy's raw QR: v_i is 1 at row
    i, h[i, i + 1:] below) split off by k symmetric rank-2 updates (Golub &
    Van Loan 5.1). Returns the eigenvalues of Q^T H Q's trailing block and
    residual(lam) = |P(-L x - lam S x)|, P = I - Z Z^T, at x = C^T Q [0; z]
    (x^T S x = 1), z after two inverse-iteration solves (one can leave 3.5e-9).
    """
    H = -(C @ L @ C.T)
    h, tau = np.linalg.qr(C @ Z, mode="raw")
    k = len(tau)
    vs = [np.concatenate(([1.0], h[i, i + 1:])) for i in range(k)]
    for i, (t, v) in enumerate(zip(tau, vs)):
        T = H[i:, i:]
        w = t * (T @ v)
        w -= (0.5 * t * (w @ v)) * v
        T -= np.outer(v, w) + np.outer(w, v)
    H = H[k:, k:]

    def residual(lam):
        z, K = np.ones(len(H)), H - lam * np.eye(len(H))
        for _ in range(2):
            z = np.linalg.solve(K, z)
            z /= np.linalg.norm(z)
        y = np.concatenate((np.zeros(k), z))
        for i in reversed(range(k)):
            y[i:] -= (tau[i] * (vs[i] @ y[i:])) * vs[i]
        x = C.T @ y
        r = -(L @ x) - lam * (S @ x)
        return np.linalg.norm(r - Z @ (Z.T @ r))
    return np.linalg.eigvalsh(H), residual


def coercivity_probe(assembly):
    """Smallest generalized eigenvalues of (-L, sigma-form) off the kernel.

    Works sector by sector (the species sum/difference change of variables
    block-diagonalizes L into A + 2K and A) and split block by split block:
    -L and the sigma form S at l = 0 both commute with the v2 and v3
    reflections and the v2 <-> v3 swap, so in the basis of
    `lineardecay.to_split` (Fassler & Stiefel 1992) the pencil is five
    dense blocks, the M block serving both parity blocks (+,-) and (-,+).
    Each Euclidean-orthonormal sector kernel vector has column norm 1 in one
    block and roundoff in the others, so a block of size m holds those with
    norm above 1/2 there. Each block of S is factored once for both sectors,
    S_b = R R^T, C = R^-1 (Golub & Van Loan 8.7), and `_block_pencil`
    solves the block off its kernel vectors. The eigenvalues of M count
    twice, and the 3 smallest of the union are the sector's.

    Returns lambda_h and a report of the 3 smallest eigenvalues per sector,
    with the kernel residuals and the largest pencil residual of those pairs.
    Raises RuntimeError if a residual exceeds PROBE_TOL, lambda_h <= 0, a
    split block of S is not positive definite or LAPACK fails on a block.
    """
    grid = assembly.grid
    nv = grid.nv
    blocks = assembly.sector_blocks()
    E, O, M = split_blocks(assembly.split_norms(0.0)[1], nv)
    S, C = (*E, *O, M), []
    for b, Sb in enumerate(S):
        try:
            C.append(np.linalg.inv(np.linalg.cholesky(Sb)))
        except np.linalg.LinAlgError as e:
            raise RuntimeError(f"coercivity probe: split block {b} of the sigma form is "
                               f"not positive definite: {e}") from None
    report = {"gamma": assembly.gamma, "nv": nv, "sectors": {}}
    lams = []
    # sign: the species fields of a sector vector are (g, sign * g) / sqrt(2)
    for tag, L, kern, sign in zip(("sum", "diff"), blocks, assembly.sector_kernels(),
                                  (1.0, -1.0)):
        d = kern.shape[0]
        Y = split_states(to_split(np.sqrt(grid.wv) * kern).T.ravel(), nv)
        E, O, M = split_blocks(L, nv)
        pairs, residual = [], []
        try:
            for b, (Lb, Sb, Cb, Yb) in enumerate(zip((*E, *O, M), S, C,
                                                     (*Y[0], *Y[1], Y[2][:, :d]))):
                Z = Yb[:, np.linalg.norm(Yb, axis=0) > 0.5]    # the kernel vectors of block b
                wb, rb = _block_pencil(Lb, Sb, Cb, Z)
                residual.append(rb)
                pairs += [(x, b) for x in wb[:3]] * (2 if b == 4 else 1)  # M: (+,-), (-,+)
            pairs = sorted(pairs)[:3]
            res = {}
            for lam, b in dict.fromkeys(pairs):     # M's pairs come twice
                res[lam, b] = residual[b](lam)
        except np.linalg.LinAlgError as e:
            raise RuntimeError(f"coercivity probe: LAPACK failed on split block {b} "
                               f"of the {tag} sector: {e}") from None
        w = np.array([lam for lam, _ in pairs])
        res = np.array([res[p] for p in pairs])
        if not np.all(res <= PROBE_TOL):
            raise RuntimeError(f"coercivity probe: pencil residual {res.max():.3e} > "
                               f"{PROBE_TOL:g} in the {tag} sector")
        f = np.stack([kern, sign * kern])
        Lf = assembly.apply_L(f)
        kres = np.sqrt(np.sum(Lf ** 2, axis=(0, 2)) / np.sum(f ** 2, axis=(0, 2)))
        report["sectors"][tag] = {
            "min_generalized_eigs": [float(x) for x in w],
            "kernel_dim": int(d),
            "kernel_residuals": [float(r) for r in kres],
            "max_residual": float(res.max()),
        }
        lams.append(float(w[0]))
    lam = min(lams)
    report["lambda_h"] = lam
    if lam <= 0:
        raise RuntimeError(f"coercivity probe failed: lambda_h = {lam:.3e} <= 0")
    return lam, report


class GammaOp:
    """Bilinear collision term Gamma_pm(f, g) = Gtilde(f_+ + f_-, g_pm).

    Gtilde(f, g) = (d_i - v_i/2)[U^{ij} d_j g - W^i g] with the convolution
    coefficients U^{ij} = Phi^{ij} * (sqrt_mu f) and
    W^i = sum_j Phi^{ij} * (sqrt_mu d_j f). The outer factor is applied in
    conjugated divergence form, so the collision invariance
    (Gtilde, sqrt_mu) = 0 is exact; the inner derivatives stay plain
    (stacked conjugations amplify at the low-mu box corners and destabilize
    the explicit treatment).
    """

    def __init__(self, assembly):
        self.asm = assembly

    def coefficients(self, hsum):
        """Convolution tables for fixed first argument hsum (..., n)."""
        asm = self.asm
        v = asm.grid.v
        u = asm.maxw.sqrt_mu * hsum
        U = asm._kit.components(u)
        # sqrt_mu d_j f = D_j u + (v_j/2) u
        d1 = asm.grid.d1
        du = np.stack([along(d1, u, j) + 0.5 * v[j] * u for j in range(3)], axis=-2)
        return U, asm._kit.contract(du)

    def apply(self, U, W, g):
        """Gtilde(f, g) given the coefficient tables U (..., 6, n), W (..., 3, n) of f.

        g is (..., n), or (2, ..., n) for both species at once.
        """
        asm = self.asm
        dg = np.stack([along(asm.grid.d1, g, j) for j in range(3)], axis=-2)
        out = None
        for i in range(3):
            br = -W[..., i, :] * g
            for j in range(3):
                br = br + U[..., pair_of(i, j), :] * dg[..., j, :]
            t = along(asm.c1.T, br, i)
            out = t if out is None else out + t
        return -out

    def __call__(self, f, g):
        """Species-coupled Gamma_pm(f, g) for two-species fields (2, ..., n)."""
        return self.apply(*self.coefficients(f[0] + f[1]), g)

