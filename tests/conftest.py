import os

# One BLAS/OpenMP thread, the default `import vplab` sets: OpenBLAS reads the
# variables once, when numpy loads it, and pytest loads no plugin that imports
# numpy before this file, so the default holds for the whole test process
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest
import scipy.sparse as sp

from vplab import build_grid, maxwellian, CollisionAssembly
from vplab.collision import PAIRS, STAB, pair_of
from vplab.grid import _diff1d, _diff4_1d
from vplab.lineardecay import split_blocks, split_entries, split_sizes


def kernel_matrix(asm, k):
    """Oracle: the n x n block-Toeplitz matrix Phi^k(v_a - v_b) wv of component k.

    win[a, w] = Phi^k(a + w) is a window view of the table; reversing w
    gives column b = nv - 1 - w, i.e. Phi^k(a - b + nv - 1).
    """
    grid = asm.grid
    win = np.lib.stride_tricks.sliding_window_view(asm.kernel.phi[k], (grid.nv,) * 3)
    return win[..., ::-1, ::-1, ::-1].reshape(grid.n, grid.n) * grid.wv


def kron_axis(X, j):
    """The 1-D matrix X along velocity axis j, as the n x n np.kron with identities."""
    mats = [np.eye(X.shape[0])] * 3
    mats[j] = X
    return np.kron(np.kron(mats[0], mats[1]), mats[2])


def conjugated(grid, X):
    """Oracle: diag(sqrt_mu) X_j diag(1/sqrt_mu), j = 1..3, as sparse n x n matrices.

    sqrt_mu is the np.kron of its 1-D factor exp(-v^2/4) (up to a constant,
    which the conjugation cancels): the ratios of the tabulated 3-D sqrt_mu
    carry the roundoff of |v|^2 in their exponents, up to 4e-15 relative at
    the box corners (nv 10), ten times the roundoff of the 1-D ratios.
    """
    e = np.exp(-grid.v1d ** 2 / 4.0)
    smu = np.kron(e, np.kron(e, e))
    return [sp.csr_matrix(smu[:, None] * kron_axis(X, j) / smu[None, :]) for j in range(3)]


def dense_K(asm):
    """Oracle: K as a dense n x n matrix, sum_ij C_i^T M^{1/2} Xi_ij M^{1/2} C_j."""
    grid = asm.grid
    smu = asm.maxw.sqrt_mu
    C = conjugated(grid, _diff1d(grid.nv, grid.hv))
    K = np.zeros((grid.n, grid.n))
    for (i, j) in PAIRS:
        Y = kernel_matrix(asm, pair_of(i, j))
        Y *= smu[:, None]
        Y *= smu[None, :]
        T = C[i].T @ (Y @ C[j])
        if i != j:
            T = T + T.T
        K += T
    return (K + K.T) * 0.5


def dense_A(asm):
    """Oracle: -A = 2 sum_ij C_i^T diag(sigma_ij) C_j + STAB sum_k R_k^T diag(rho) R_k,
    R_k the conjugated fourth difference, as a dense n x n matrix."""
    grid = asm.grid
    C = conjugated(grid, _diff1d(grid.nv, grid.hv))
    R = conjugated(grid, _diff4_1d(grid.nv, grid.hv))
    rho = (1.0 + grid.vsq) ** ((asm.gamma + 2.0) / 2.0)
    A = sum(C[i].T @ sp.diags(asm.sigma[pair_of(i, j)]) @ C[j]
            for i in range(3) for j in range(3))
    A = -2.0 * A - STAB * sum(Rk.T @ sp.diags(rho) @ Rk for Rk in R)
    return A.toarray()


def dense_S(norms, l):
    """Oracle: the sigma form as a dense n x n matrix, in its three-term form
    w_perp + sum_i R_i^T w_par R_i + Q_i^T w_perp Q_i, with R_i = sum_j n_i n_j D_j
    the radial and Q_i = D_i - R_i the perpendicular part of the gradient."""
    grid = norms.grid
    gamma = norms.weight.gamma
    D = [sp.csr_matrix(kron_axis(_diff1d(grid.nv, grid.hv), j)) for j in range(3)]
    n = grid.v / np.sqrt(grid.vsq)
    R = [sum(sp.diags(n[i] * n[j]) @ D[j] for j in range(3)) for i in range(3)]
    w2l = norms.weight.pow(l) ** 2
    wpar = w2l * (1.0 + grid.vsq) ** (gamma / 2.0)
    wperp = w2l * (1.0 + grid.vsq) ** ((gamma + 2.0) / 2.0)
    S = sp.diags(wperp) + sum(R[i].T @ sp.diags(wpar) @ R[i]
                              + (D[i] - R[i]).T @ sp.diags(wperp) @ (D[i] - R[i])
                              for i in range(3))
    return S.toarray()


def fold_matrix(nv):
    """Oracle: the parity fold P as a sparse n x n matrix, np.kron of the 1-D fold
    of the v2 and v3 axes, rows (s2, s3, i1, j2, j3): with h = nv/2 the 1-D
    fold maps u to (u[h+j] + u[h-1-j], u[h+j] - u[h-1-j]) / sqrt(2), j < h."""
    h = nv // 2
    F = np.zeros((nv, nv))
    j = np.arange(h)
    F[j, h + j] = F[j, h - 1 - j] = F[h + j, h + j] = np.sqrt(0.5)
    F[h + j, h - 1 - j] = -np.sqrt(0.5)
    P = np.kron(np.eye(nv), np.kron(F, F))
    rows = np.arange(nv ** 3).reshape(nv, 2, h, 2, h).transpose(1, 3, 0, 2, 4).ravel()
    return sp.csr_matrix(P[rows])


def folded(M):
    """P M P^T for the parity fold P, as a (4, m, 4, m) array."""
    n = M.shape[0]
    P = fold_matrix(round(n ** (1 / 3)))
    return (P @ (P @ M).T).T.reshape(4, n // 4, 4, n // 4)


def split_matrix(nv):
    """Oracle: the split map Q^T = W P as a sparse n x n matrix, by index arithmetic.

    W maps the parity blocks of P to the parts `split_blocks` names:
    (x[i1, j2, j3] +/- x[i1, j3, j2]) / sqrt(2) for j2 < j3 and x[i1, j, j]
    in E and O, and x_{+-}[i1, j2, j3] and x_{-+}[i1, j3, j2] as the two
    columns of M.
    """
    h, n = nv // 2, nv ** 3
    x = np.arange(n).reshape(4, nv, h, h)           # parity-block rows of P
    xs = x.swapaxes(-1, -2)
    iu, ju = np.triu_indices(h)
    il, jl = np.triu_indices(h, 1)
    # the diagonal of E is entered twice, 0.5 + 0.5, and summed on conversion
    e = np.broadcast_to(np.where(iu == ju, 0.5, np.sqrt(0.5)), (2, nv, iu.size)).ravel()
    o = np.full(2 * nv * il.size, np.sqrt(0.5))
    rows = np.r_[0:e.size, 0:e.size, e.size:e.size + o.size, e.size:e.size + o.size,
                 e.size + o.size:n]
    cols = np.concatenate([c.ravel() for c in (
        x[::3][..., iu, ju], xs[::3][..., iu, ju], x[::3][..., il, jl], xs[::3][..., il, jl],
        np.stack([x[1], xs[2]], axis=-1))])
    W = sp.csr_matrix((np.r_[e, e, o, -o, np.ones(n // 2)], (rows, cols)), shape=(n, n))
    return (W @ fold_matrix(nv)).tocsr()


def split_of(M):
    """Oracle: the diagonal split blocks of Q^T M Q for a dense M (n x n), as one
    (L,) buffer laid out as `split_blocks` views it; M from the rows of block
    (+,-), the even ones from 2 (s + a) on."""
    nv = round(M.shape[0] ** (1 / 3))
    s, a, _ = split_sizes(nv)
    cuts = (0, s, 2 * s, 2 * s + a, 2 * (s + a))
    rows = [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])] + [slice(cuts[-1], None, 2)]
    Qt = split_matrix(nv)
    SQ = (Qt @ (Qt @ M).T).T
    out = np.empty(split_entries(nv))
    E, O, B = split_blocks(out, nv)
    for X, r in zip((*E, *O, B), rows):
        X[...] = SQ[r, r]
    return out


def dense_sectors(asm):
    """Oracle: the dense sector operators (L_sum, L_diff) = (A + 2K, A)."""
    A = dense_A(asm)
    return A + 2.0 * dense_K(asm), A


@pytest.fixture(scope="session")
def grid8():
    return build_grid(nv=8, vmax=6.0, nx=16, lx=np.pi)


@pytest.fixture(scope="session")
def maxw8(grid8):
    return maxwellian(grid8)


@pytest.fixture(scope="session")
def asm8(grid8, maxw8):
    return CollisionAssembly(grid8, maxw8, 0.0)


@pytest.fixture(scope="session")
def asm8_soft(grid8, maxw8):
    return CollisionAssembly(grid8, maxw8, -2.5)


@pytest.fixture(scope="session")
def asm10():
    grid = build_grid(nv=10, vmax=6.0, nx=4)
    return CollisionAssembly(grid, maxwellian(grid), 0.0)
