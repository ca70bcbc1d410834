import tracemalloc
import numpy as np
import pytest
import scipy.linalg as sla

from vplab.lineardecay import (ModeOperator, evolve_mode, whole_space_decay,
                               default_mode_data, from_real, from_split, sectors,
                               split_blocks, split_matvec, split_sizes, to_real, to_split)
from vplab.macroscopic import MacroProjector, null_basis_raw
from vplab import CollisionAssembly, build_grid, maxwellian, solver
from vplab.solver import Simulation

from conftest import dense_sectors, fold_matrix, folded, split_matrix


def apply_B(op, u):
    """B(y) of a ModeOperator applied to a two-species mode field u (2, n)."""
    w = to_split(to_real(sectors(u)))
    return sectors(from_real(from_split(split_matvec(op.B, w))))


def test_sectors_orthogonal_and_self_inverse():
    rng = np.random.default_rng(2)
    f = rng.standard_normal((2, 5, 7)) + 1j * rng.standard_normal((2, 5, 7))
    s = sectors(f)
    np.testing.assert_allclose(s[0], (f[0] + f[1]) / np.sqrt(2), rtol=0, atol=1e-15)
    np.testing.assert_allclose(s[1], (f[0] - f[1]) / np.sqrt(2), rtol=0, atol=1e-15)
    np.testing.assert_allclose(sectors(s), f, rtol=0, atol=1e-15 * np.abs(f).max())
    M = sectors(np.eye(2))                     # the map as a 2 x 2 matrix
    np.testing.assert_allclose(M @ M.T, np.eye(2), rtol=0, atol=1e-15)
    assert np.linalg.norm(s) == pytest.approx(np.linalg.norm(f), rel=1e-15)


def test_B_at_zero_is_L(asm8):
    op = ModeOperator([0.0, 0, 0], asm8)
    # no transport and no field term: B is a copy of the assembly's blocks
    assert np.array_equal(op.B, asm8.sector_blocks())
    assert not np.shares_memory(op.B, asm8.sector_blocks())
    for xi in null_basis_raw(asm8.grid, asm8.maxw):
        r = apply_B(op, xi.astype(complex))
        assert np.abs(r).max() < 1e-10 * np.abs(xi).max()


def test_transport_parity(asm8):
    # for real even-in-v data the transport part of Bu is odd and imaginary
    g = asm8.grid
    op = ModeOperator([1.0, 0, 0], asm8)
    u = np.exp(-g.vsq / 3.0)
    r = apply_B(op, np.stack([u, u]).astype(complex))
    nv = g.nv
    re = r[0].real.reshape(nv, nv, nv)
    im = r[0].imag.reshape(nv, nv, nv)
    flip = (slice(None, None, -1),) * 3
    assert np.abs(re - re[flip]).max() < 1e-12 * max(np.abs(re).max(), 1e-30)
    assert np.abs(im + im[flip]).max() < 1e-12 * np.abs(im).max()


def energy_metric_symmetric_bound(op):
    """Largest Rayleigh quotient of B in the mode-energy inner product.

    The energy metric adds |E_hat|^2 to the plain L2 norm; in that metric
    the symmetric part of B is negative semidefinite (the plain-L2
    symmetric part is not, the Poisson coupling is skew only against the
    field energy). The metric commutes with the unitary map to the real
    form and with the symmetry-adapted basis Q^T, so the bound is the
    largest over the ten real swap-split blocks; the field energy adds its
    rank-one term to the swap-even (+,+) block of the difference sector only.
    """
    grid = op.asm.grid
    s = split_blocks(op.Bs, grid.nv)[0].shape[-1]
    c = to_split(op.asm.maxw.sqrt_mu)[:s]     # swap-even (+,+) part
    bounds = []
    for sector, buf in enumerate((op.Bs, op.Bd)):
        E, O, M = split_blocks(buf, grid.nv)
        for k, B in enumerate([*E, *O, M]):
            m = B.shape[-1]
            Mp = np.eye(m) * grid.wv
            if sector == 1 and k == 0 and op.ynorm > 0:
                Mp = Mp + (2.0 * grid.wv ** 2 / op.ynorm ** 2) * np.outer(c, c)
            H = 0.5 * (Mp @ B + B.T @ Mp)
            w = sla.eigh(H, Mp, eigvals_only=True, subset_by_index=[m - 1, m - 1])
            bounds.append(float(w[-1]))
    return max(bounds)


def test_energy_metric_symmetric_part_nonpositive(asm8):
    for y in (0.3, 1.0, 3.0):
        op = ModeOperator([y, 0, 0], asm8)
        assert energy_metric_symmetric_bound(op) < 1e-9


def test_plain_dissipativity_random_states(asm8):
    # Re(Bu, u) <= 0 for seeded random u (hard potential)
    g = asm8.grid
    op = ModeOperator([1.0, 0, 0], asm8)
    rng = np.random.default_rng(21)
    for _ in range(100):
        u = (rng.standard_normal((2, g.n)) + 1j * rng.standard_normal((2, g.n)))
        u = u * asm8.maxw.sqrt_mu
        val = np.real(np.sum(np.conj(u) * apply_B(op, u))) * g.wv
        assert val <= 0.0


def test_equilibrium_trajectory_constant(asm8):
    op = ModeOperator([0.0, 0, 0], asm8)
    u0 = MacroProjector(asm8.grid, asm8.maxw).basis[2].astype(complex)
    tr = evolve_mode(op, u0, 0.1, 5.0)
    assert np.abs(tr.energy - tr.energy[0]).max() < 1e-10 * tr.energy[0]


def test_mode_functional_monotone(asm8):
    u0 = default_mode_data(asm8, "mixed", 1e-3, seed=2)
    for y in (0.05, 0.7, 2.0):
        op = ModeOperator([y, 0, 0], asm8)
        tr = evolve_mode(op, u0, 0.05, 20.0)
        assert tr.violations == 0
        assert tr.max_rel_increase <= 1e-11


def test_mode_self_convergence_second_order(asm8):
    op = ModeOperator([0.8, 0, 0], asm8)
    u0 = default_mode_data(asm8, "mixed", 1e-3, seed=3)

    def final(dt):
        tr = evolve_mode(op, u0, dt, 4.0, n_samples=1)
        us, ud = tr.final_state
        return np.concatenate([us, ud])

    e1 = np.abs(final(0.1) - final(0.05)).max()
    e2 = np.abs(final(0.05) - final(0.025)).max()
    assert e1 / e2 == pytest.approx(4.0, rel=0.3)


@pytest.mark.parametrize("t_end, n_samples, samp, rem", [
    (10.0, 40, 5, 0), (10.3, 40, 5, 1), (10.0, 16, 12, 8)])
def test_strided_sweep_matches_stepping(asm8, t_end, n_samples, samp, rem):
    # reference: one implicit-midpoint product per step, sampled every samp steps
    op = ModeOperator([0.7, 0, 0], asm8)
    u0 = default_mode_data(asm8, "mixed", 1e-3, seed=5)
    dt = 0.05
    steps = int(round(t_end / dt))
    assert (steps // n_samples, steps % samp) == (samp, rem)
    w2l = asm8.weight.pow(0.0) ** 2
    ws = [to_split(to_real((u0[0] + s * u0[1]) / np.sqrt(2))) for s in (1, -1)]
    t, ts, Es, Ds = 0.0, [], [], []
    for k in range(steps + 1):
        if k % samp == 0 or k == steps:
            us, ud = (from_real(from_split(w)) for w in ws)
            ts.append(t)
            Es.append(op.mode_energy(us, ud, w2l))
            Ds.append(asm8.norms.sigma_sq_batch(np.stack([us, ud]), 0.0).sum())
        if k < steps:
            ws = [split_matvec(P, w) for P, w in zip(op.propagators(dt), ws)]
            t += dt
    tr = evolve_mode(op, u0, dt, t_end, n_samples=n_samples)
    assert np.array_equal(tr.t, ts)
    np.testing.assert_allclose(tr.energy, Es, rtol=1e-11, atol=0)
    np.testing.assert_allclose(tr.sigma_diss, Ds, rtol=1e-11, atol=0)
    ref = np.concatenate([us, ud])
    assert np.abs(np.concatenate(tr.final_state) - ref).max() <= 1e-11 * np.abs(ref).max()
    assert tr.violations == int(np.sum(np.diff(Es) / np.array(Es[:-1]) > 1e-11))
    # the final state is a copy, not a view pinning every sample
    assert all(f.base is None and f.flags.owndata for f in tr.final_state)


def test_sigma_dissipation_samples_positive(asm8):
    op = ModeOperator([0.5, 0, 0], asm8)
    u0 = default_mode_data(asm8, "macroscopic", 1e-3)
    tr = evolve_mode(op, u0, 0.05, 5.0)
    assert np.all(tr.sigma_diss >= 0)
    assert tr.sigma_diss[0] > 0


def test_high_frequency_block_exponential(asm8):
    # fixed |y| >= 1: E(t,y) <= E(0,y) exp(-lambda_hat t) with lambda_hat > 0
    op = ModeOperator([1.5, 0, 0], asm8)
    u0 = default_mode_data(asm8, "macroscopic", 1e-3)
    tr = evolve_mode(op, u0, 0.03, 25.0)
    # measured envelope rate: largest lambda with E(t) <= E(0) exp(-lambda t)
    pos = (tr.t > 0) & (tr.energy > 0)
    lam_env = np.min(-np.log(tr.energy[pos] / tr.energy[0]) / tr.t[pos])
    assert lam_env > 0.1
    assert np.all(tr.energy[1:] <= tr.energy[0] * np.exp(-lam_env * tr.t[1:]) * (1 + 1e-12))


def test_low_frequency_dominance(asm8):
    # halving y_min changes the fitted slope by < 0.05
    kw = dict(m=0, n_y=12, t_end=60.0, fit_window=(8.0, 60.0), n_samples=60)
    r1, _ = whole_space_decay(asm8, y_min=0.02, **kw)
    r2, _ = whole_space_decay(asm8, y_min=0.01, **kw)
    assert abs(r1["slope"] - r2["slope"]) < 0.05


@pytest.mark.parametrize("asm_name", ["asm8", "asm8_soft"])   # gamma 0, -2.5
def test_sectors_commute_with_velocity_reversal(asm_name, request):
    # R: u -> u[::-1] is v -> -v on the cell-centred grid
    for L in dense_sectors(request.getfixturevalue(asm_name)):
        RLR = L[::-1, ::-1]
        assert np.linalg.norm(RLR - L) <= 1e-14 * np.linalg.norm(L)


@pytest.mark.parametrize("y", [[0.0, 0, 0], [0.8, 0, 0], [1.7, 0, 0]])
def test_real_form_matches_complex_reference(asm8, y):
    # reference: the complex operator B = L - i v.y (+ field term), stepped
    # with dense complex implicit-midpoint propagators
    g, smu = asm8.grid, asm8.maxw.sqrt_mu
    Ls, Ld = dense_sectors(asm8)
    vy = g.v[0] * y[0] + g.v[1] * y[1] + g.v[2] * y[2]
    yn = np.linalg.norm(y)
    Bs = Ls - 1j * np.diag(vy)
    Bd = Ld - 1j * np.diag(vy)
    if yn > 0:
        Bd = Bd - (2j * g.wv / yn ** 2) * np.outer(vy * smu, smu)
    dt, steps = 0.05, 200
    I = np.eye(g.n)
    u0 = default_mode_data(asm8, "mixed", 1e-3, seed=3)
    ref = []
    for B, u in ((Bs, (u0[0] + u0[1]) / np.sqrt(2)), (Bd, (u0[0] - u0[1]) / np.sqrt(2))):
        P = np.linalg.solve(I - 0.5 * dt * B, I + 0.5 * dt * B)
        for _ in range(steps):
            u = P @ u
        ref.append(u)
    ref = np.concatenate(ref)
    tr = evolve_mode(ModeOperator(y, asm8), u0, dt, steps * dt, n_samples=1)
    got = np.concatenate(tr.final_state)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_propagator_budget_boundary(asm8, monkeypatch):
    # per Fourier mode the 2/3 rule keeps (|k| <= 2/3 k_max), two sectors of
    # swap-split float64 blocks: 2 s x s, 2 a x a and one m x m, with h = nv/2
    g = asm8.grid
    kept = int(np.sum(g.kx_r <= 2.0 / 3.0 * g.kx_r.max() + 1e-12))
    assert kept == 6 < g.kx_r.size                     # nx 16: k = 0..5 of 0..8
    h = g.nv // 2
    s, a, m = g.nv * h * (h + 1) // 2, g.nv * h * (h - 1) // 2, g.nv * h * h
    need = kept * 2 * (2 * s ** 2 + 2 * a ** 2 + m ** 2) * 8
    assert need == solver.propagator_bytes(g)
    monkeypatch.setattr(solver, "PROPAGATOR_BUDGET_BYTES", need)
    Simulation(asm8, dt=0.05)
    monkeypatch.setattr(solver, "PROPAGATOR_BUDGET_BYTES", need - 1)
    with pytest.raises(MemoryError):
        Simulation(asm8, dt=0.05)


def test_propagator_bytes_is_the_built_storage(asm8):
    sim = Simulation(asm8, dt=0.05)
    assert sim._props.nbytes == solver.propagator_bytes(asm8.grid)


def test_simulation_forms_no_parity_propagator_stack(asm8):
    # nv 8, nx 16 (6 kept modes of 9): the swap-split propagators hold
    # 3.24 MB, and the build peaked at 3.53 MB, the rest being one block's
    # inverse and its solve temporaries (measured); the (2, modes, 4, m, m)
    # parity-block stack alone took 9.44 MB over all 9 modes
    asm8.sector_blocks()                   # the collision layer's blocks, kept by asm8
    tracemalloc.start()
    try:
        sim = Simulation(asm8, dt=0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= sim._props.nbytes + 2_000_000


@pytest.mark.parametrize("nv, nx", [(8, 16), (12, 4)])
def test_simulation_builds_each_mode_in_its_propagator_slice(nv, nx, asm8):
    # each mode's operator is written into its slice of the propagator stack
    # and inverted there, so beyond the stack the build holds one block's
    # inverse and its LAPACK copies: 3 m^2 8 B (0.39 MB at nv 8, 4.5 MB at
    # nv 12); the copy of B and the solve temporaries took 18.5 MB at nv 12
    if nv == 8:
        asm = asm8
    else:
        g = build_grid(nv=nv, vmax=6.0, nx=nx)
        asm = CollisionAssembly(g, maxwellian(g), 0.0)
    asm.sector_blocks()                    # the collision layer's blocks, kept by asm
    tracemalloc.start()
    try:
        sim = Simulation(asm, dt=0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m = split_sizes(nv)[2]
    assert peak - sim._props.nbytes <= 3 * m * m * 8


def test_mode_operator_rejects_off_axis_frequency(asm8):
    for y in ([0.3, -0.2, 0.7], [1.0, 0.0, 1e-3]):
        with pytest.raises(ValueError, match="off the torus axis") as err:
            ModeOperator(y, asm8)
        assert str(y) in str(err.value)


def test_fold_orthogonal_and_unfold_inverts_it():
    """`to_split` starts with the parity fold P: its matrix (the map of the
    identity) is orthogonal, equals P's index-arithmetic oracle up to the swap
    split, and each parity block has the reflection parity it is named for."""
    rng = np.random.default_rng(4)
    for nv in (8, 10):                                 # nv 10: odd half-width 5
        n, m = nv ** 3, nv ** 3 // 4
        G = to_split(np.eye(n)).T                      # Q^T
        np.testing.assert_allclose(G @ G.T, np.eye(n), rtol=0, atol=1e-15)
        np.testing.assert_allclose(G, split_matrix(nv).toarray(), rtol=0, atol=1e-15)
        u = rng.standard_normal((3, 2, n)) + 1j * rng.standard_normal((3, 2, n))
        w = to_split(u)
        np.testing.assert_allclose(from_split(w), u, rtol=0, atol=1e-15 * np.abs(u).max())
        assert np.linalg.norm(w) == pytest.approx(np.linalg.norm(u), rel=1e-15)
        # the reflection of one axis keeps the blocks even in it and negates
        # the odd ones
        P = fold_matrix(nv)
        x = u[:, 0].real
        c = x.reshape(3, nv, nv, nv)
        for axis, parity in ((2, np.repeat([1, 1, -1, -1], m)),
                             (3, np.repeat([1, -1, 1, -1], m))):
            ref = np.flip(c, axis).reshape(3, n)
            assert np.abs((P @ ref.T).T - parity * (P @ x.T).T).max() <= 1e-15


@pytest.mark.parametrize("nv", [8, 10])                # nv 10: odd half-width 5
def test_swap_fold_orthogonal_and_swap_unfold_inverts_it(nv):
    """`to_split` and `from_split` are orthogonal and undo each other, on real
    and complex stacks, and the swap split keeps the swap-even part of block
    (+,+) under the swap v2 <-> v3 and negates the swap-odd one."""
    n = nv ** 3
    s, a, _ = split_sizes(nv)
    G = from_split(np.eye(n))                          # Q^T, the rows of the map back
    np.testing.assert_allclose(G @ G.T, np.eye(n), rtol=0, atol=1e-15)
    np.testing.assert_allclose(G, to_split(np.eye(n)).T, rtol=0, atol=1e-15)
    rng = np.random.default_rng(7)
    for w in (rng.standard_normal((3, 2, n)),
              rng.standard_normal((3, 2, n)) + 1j * rng.standard_normal((3, 2, n))):
        x = to_split(w)
        assert x.dtype == w.dtype and x.flags.c_contiguous
        np.testing.assert_allclose(from_split(x), w, rtol=0, atol=1e-15 * np.abs(w).max())
        assert np.linalg.norm(x) == pytest.approx(np.linalg.norm(w), rel=1e-15)
    # in block (+,+) of the fold the swap keeps the swap-even part and
    # negates the odd one
    h = nv // 2
    P = fold_matrix(nv)
    x = np.zeros((3, 4, nv, h, h))
    x[:, 0] = rng.standard_normal((3, nv, h, h))
    sw = x.swapaxes(-1, -2).reshape(3, n)
    y, ys = (to_split((P.T @ z.T).T) for z in (x.reshape(3, n), sw))
    np.testing.assert_allclose(ys[:, :s], y[:, :s], rtol=0, atol=1e-15)
    np.testing.assert_allclose(ys[:, 2 * s:2 * s + a], -y[:, 2 * s:2 * s + a], rtol=0, atol=1e-15)


def _dense_real_form(asm, y):
    """Dense real-form sector operators (Bs, Bd) at frequency (y, 0, 0)."""
    g, smu = asm.grid, asm.maxw.sqrt_mu
    vy = g.v[0] * y
    anti = (np.arange(g.n), np.arange(g.n)[::-1])
    Bs, Bd = dense_sectors(asm)
    Bs[anti] -= vy
    Bd[anti] -= vy
    if y > 0:
        Bd -= (2.0 * g.wv / y ** 2) * np.outer(vy * smu, smu)
    return Bs, Bd


def _parity_blocks(M):
    """The four diagonal (m, m) blocks of the fold of a dense operator M."""
    p = np.arange(4)
    return folded(M)[p, :, p, :]


def _split_dense(M):
    """Q^T M Q for the split map Q^T of `to_split`, as an n x n array."""
    Qt = split_matrix(round(M.shape[0] ** (1 / 3)))
    return (Qt @ (Qt @ M).T).T


def _split_block_diag(buf, nv):
    """Swap-split blocks buf as the block-diagonal n x n matrix they apply.

    The M columns of a split state are interleaved, so M acts as kron(M, I_2).
    """
    E, O, M = split_blocks(buf, nv)
    return sla.block_diag(*E, *O, np.kron(M, np.eye(2)))


# gamma 0, -2.5 at nv 8, and gamma 0 at nv 10 (odd half-width 5)
@pytest.mark.parametrize("asm_name", ["asm8", "asm8_soft", "asm10"])
@pytest.mark.parametrize("y", [0.0, 0.7])
def test_folded_sectors_block_diagonal(asm_name, y, request):
    asm = request.getfixturevalue(asm_name)
    nv = asm.grid.nv
    o = 2 * sum(split_sizes(nv)[:2])                   # the first M row
    op = ModeOperator([y, 0, 0], asm)
    # the sectors (A + 2K, A) and the real-form operators (Bs, Bd)
    for M, buf in zip((*dense_sectors(asm), *_dense_real_form(asm, y)),
                      (*asm.sector_blocks(), op.Bs, op.Bd)):
        scale = np.abs(M).max()
        F = folded(M)                                  # four parity blocks
        on = np.zeros_like(F)
        for p in range(4):
            on[p, :, p, :] = F[p, :, p, :]
        assert np.linalg.norm(F - on) <= 1e-15 * np.linalg.norm(F)
        S = _split_dense(M)                            # five split blocks
        D = _split_block_diag(buf, nv)
        on = _split_block_diag(np.ones_like(buf), nv) != 0
        assert np.linalg.norm(S[~on]) <= 1e-15 * np.linalg.norm(S)
        # block (-,+), on the odd M rows, is block (+,-) on the even ones
        assert np.abs(S[o + 1::2, o + 1::2] - S[o::2, o::2]).max() <= 1e-15 * scale
        # the stored blocks are the diagonal blocks of the split
        assert np.abs(S[on] - D[on]).max() <= 1e-15 * scale


@pytest.mark.parametrize("asm_name", ["asm8", "asm8_soft"])   # gamma 0, -2.5
@pytest.mark.parametrize("y", [0.0, 0.7])
def test_parity_blocks_commute_with_swap(asm_name, y, request):
    # what the swap split discards: with S the swap (i1, j2, j3) -> (i1, j3, j2),
    # B(-,+) = S B(+,-) S^T, and B(+,+), B(-,-) commute with S
    asm = request.getfixturevalue(asm_name)
    nv, h = asm.grid.nv, asm.grid.nv // 2
    perm = np.arange(nv * h * h).reshape(nv, h, h).transpose(0, 2, 1).ravel()
    for M in (*dense_sectors(asm), *_dense_real_form(asm, y)):
        B = _parity_blocks(M)
        swap = B[:, perm][:, :, perm]
        scale = np.abs(M).max()
        assert np.abs(B[2] - swap[1]).max() <= 1e-15 * scale
        for p in (0, 3):
            assert np.abs(B[p] - swap[p]).max() <= 1e-15 * scale


def test_block_propagators_match_dense_oracle(asm8):
    # oracle: dense real-form implicit-midpoint propagators, stepped unfolded
    g, dt, y = asm8.grid, 0.05, 0.7
    op = ModeOperator([y, 0, 0], asm8)
    I = np.eye(g.n)
    u0 = default_mode_data(asm8, "mixed", 1e-3, seed=6)
    for B, P, u in zip(_dense_real_form(asm8, y), op.propagators(dt), sectors(u0)):
        Pd = np.linalg.solve(I - 0.5 * dt * B, I + 0.5 * dt * B)
        ref = w = to_real(u)
        blk = to_split(w)
        for k in range(200):
            ref, blk = Pd @ ref, split_matvec(P, blk)
            if k == 0:
                assert np.linalg.norm(from_split(blk) - ref) <= 1e-14 * np.linalg.norm(ref)
        assert np.linalg.norm(from_split(blk) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_split_propagators_match_parity_block_propagators(asm8):
    # oracle: implicit-midpoint propagators of the four parity blocks of each
    # real-form sector, solved here and stepped folded
    g, dt, y = asm8.grid, 0.05, 0.7
    op = ModeOperator([y, 0, 0], asm8)
    I = np.eye(g.n // 4)
    Pf = fold_matrix(g.nv)
    u0 = default_mode_data(asm8, "mixed", 1e-3, seed=8)
    for M, P, u in zip(_dense_real_form(asm8, y), op.propagators(dt), sectors(u0)):
        B = _parity_blocks(M)
        Pp = np.linalg.solve(I - 0.5 * dt * B, I + 0.5 * dt * B)
        ref = (Pf @ to_real(u)).reshape(4, -1)
        x = to_split(Pf.T @ ref.ravel())
        for _ in range(200):
            ref, x = (Pp @ ref[..., None])[..., 0], split_matvec(P, x)
        assert np.linalg.norm((Pf @ from_split(x)).reshape(4, -1) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_mode_operator_writes_B_into_out(asm8):
    for y in (0.0, 0.7):
        buf = np.full_like(ModeOperator([y, 0, 0], asm8).B, np.nan)
        op = ModeOperator([y, 0, 0], asm8, out=buf)
        assert op.B is buf
        assert np.array_equal(buf, ModeOperator([y, 0, 0], asm8).B)


def test_propagators_write_every_entry_of_out(asm8):
    # into a caller's buffer or over B itself, as the simulation builds them,
    # the same bits as the allocating call
    dt = 0.05
    want = ModeOperator([0.7, 0, 0], asm8).propagators(dt)
    op = ModeOperator([0.7, 0, 0], asm8)
    buf = np.full_like(op.B, np.nan)
    assert op.propagators(dt, out=buf) is buf
    assert np.array_equal(buf, want)
    assert op.propagators(dt, out=op.B) is op.B
    assert np.array_equal(op.B, want)


@pytest.mark.parametrize("asm_name", ["asm8", "asm10"])         # nv 8, 10
@pytest.mark.parametrize("y", [0.0, 0.7, 2.0])
def test_propagators_match_midpoint_solve(asm_name, y, request):
    # P = 2 (I - h B/2)^{-1} - I is (I - h B/2)^{-1} (I + h B/2), block by block
    asm = request.getfixturevalue(asm_name)
    nv, dt = asm.grid.nv, 0.05
    op = ModeOperator([y, 0, 0], asm)
    for b, p in zip(op.B, op.propagators(dt)):
        for B, P in zip(split_blocks(b, nv), split_blocks(p, nv)):
            I = np.eye(B.shape[-1])
            want = np.linalg.solve(I - 0.5 * dt * B, I + 0.5 * dt * B)
            assert np.abs(P - want).max() <= 1e-13 * np.abs(want).max()
