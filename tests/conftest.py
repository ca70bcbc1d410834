import os

# One BLAS/OpenMP thread, the default `import vplab` sets: OpenBLAS reads the
# variables once, when numpy loads it, and pytest loads no plugin that imports
# numpy before this file, so the default holds for the whole test process
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np
import pytest

from vplab import build_grid, maxwellian, CollisionAssembly
from vplab.collision import PAIRS, pair_of
from vplab.lineardecay import symmetry_basis


def kernel_matrix(asm, k):
    """Oracle: the n x n block-Toeplitz matrix Phi^k(v_a - v_b) wv of component k.

    win[a, w] = Phi^k(a + w) is a window view of the table; reversing w
    gives column b = nv - 1 - w, i.e. Phi^k(a - b + nv - 1).
    """
    grid = asm.grid
    win = np.lib.stride_tricks.sliding_window_view(asm.kernel.phi[k], (grid.nv,) * 3)
    return win[..., ::-1, ::-1, ::-1].reshape(grid.n, grid.n) * grid.wv


def dense_K(asm):
    """Oracle: K as a dense n x n matrix, sum_ij C_i^T M^{1/2} Xi_ij M^{1/2} C_j."""
    grid = asm.grid
    smu = asm.maxw.sqrt_mu
    K = np.zeros((grid.n, grid.n))
    for (i, j) in PAIRS:
        Y = kernel_matrix(asm, pair_of(i, j))
        Y *= smu[:, None]
        Y *= smu[None, :]
        T = asm.CT[i] @ (Y @ asm.C[j])
        if i != j:
            T = T + T.T
        K += T
    return (K + K.T) * 0.5


def folded(M):
    """P M P^T for the parity fold P, as a (4, m, 4, m) array."""
    n = M.shape[0]
    P = symmetry_basis(round(n ** (1 / 3)))[0]
    return (P @ (P @ M).T).T.reshape(4, n // 4, 4, n // 4)


def dense_sectors(asm):
    """Oracle: the dense sector operators (L_sum, L_diff) = (A + 2K, A)."""
    K = dense_K(asm)
    A = asm.A.toarray()
    return A + 2.0 * K, A


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
