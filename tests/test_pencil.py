import sys

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from lapspec import cli, fem, geometry, pencil
from conftest import blas_threads, set_blas_threads, shared_mesh
from lapspec.pencil import Pencil, cluster, solve_general, solve_lowest, solve_symdef


# ---------------------------------------------------------------------------
# oracle 1: eigenvalue counting by the sign rule for leading principal minors
# (Jacobi/Sylvester), bisected per index.  No eigensolver involved anywhere.
# ---------------------------------------------------------------------------

def _negative_count(M):
    """Number of negative eigenvalues of symmetric M via minor sign changes."""
    n = M.shape[0]
    signs = [1.0]
    for k in range(1, n + 1):
        s, _ = np.linalg.slogdet(M[:k, :k])
        if s == 0:
            raise ArithmeticError("vanishing leading principal minor")
        signs.append(s)
    return sum(1 for a, b in zip(signs[:-1], signs[1:]) if a * b < 0)


def _count_below(A, B, t):
    # eigenvalues of (A, B) below t == negative eigenvalues of A - t B
    shift = t
    while True:
        try:
            return _negative_count(A - shift * B)
        except ArithmeticError:
            shift += 1e-13 * max(1.0, abs(t))


def _bisection_eigenvalues(A, B, tol=1e-10):
    n = A.shape[0]
    lo, hi = -1.0, 1.0
    while _count_below(A, B, lo) > 0:
        lo *= 2
    while _count_below(A, B, hi) < n:
        hi *= 2
    out = []
    for k in range(1, n + 1):
        a, b = lo, hi
        while b - a > tol * max(1.0, abs(a), abs(b)):
            m = 0.5 * (a + b)
            if _count_below(A, B, m) >= k:
                b = m
            else:
                a = m
        out.append(0.5 * (a + b))
    return np.array(out)


def test_symdef_against_minor_sign_bisection(rng):
    n = 20
    A = rng.standard_normal((n, n))
    A = (A + A.T) / 2
    L = np.tril(rng.standard_normal((n, n)), -1) + np.diag(rng.uniform(0.5, 2.0, n))
    B = L @ L.T
    ref = _bisection_eigenvalues(A, B)
    got = solve_symdef(Pencil(A, B)).eigenvalues
    assert np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))) < 1e-8


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------

def test_cluster_groups_near_duplicates():
    sizes, means = cluster(np.array([1.0, 1.0 + 1e-9, 2.0]))
    assert list(sizes) == [2, 1]
    assert means[0] == pytest.approx(1.0 + 5e-10)
    assert means[1] == 2.0


def test_cluster_threshold_scales_with_magnitude():
    # gap 5e-5 merges at value 1e2 (CLUSTER_RTOL*|v| = 1e-4) but separates
    # at value 1
    assert pencil.CLUSTER_RTOL == 1e-6
    sizes, _ = cluster(np.array([100.0, 100.0 + 5e-5]))
    assert list(sizes) == [2]
    sizes, _ = cluster(np.array([1.0, 1.0 + 5e-5]))
    assert list(sizes) == [1, 1]


def test_cluster_empty():
    sizes, means = cluster(np.array([]))
    assert len(sizes) == 0 and len(means) == 0


# ---------------------------------------------------------------------------
# solver contracts
# ---------------------------------------------------------------------------

def _random_spd_pencil(rng, n):
    A = rng.standard_normal((n, n))
    A = (A + A.T) / 2
    C = rng.standard_normal((n, n)) * 0.2
    B = np.eye(n) + (C + C.T) / 2
    if np.linalg.eigvalsh(B).min() < 0.1:
        B += np.eye(n)
    return A, B


def test_symdef_vectors_are_b_orthonormal(rng):
    A, B = _random_spd_pencil(rng, 30)
    spec = solve_symdef(Pencil(A, B))
    G = spec.vectors.T @ B @ spec.vectors
    assert np.max(np.abs(G - np.eye(30))) < 1e-8
    assert np.all(np.diff(spec.eigenvalues) >= -1e-12)
    assert spec.flags["residual"] <= 1e-9


def test_symdef_rejects_nonsymmetric():
    A = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        solve_symdef(Pencil(A, np.eye(2)))


def _symmetric(r, mu):
    Q = la.qr(r.standard_normal((len(mu), len(mu))))[0]
    return Q @ np.diag(mu) @ Q.T


@pytest.mark.parametrize("count", [0, -1])
def test_general_rejects_a_count_below_one(count):
    with pytest.raises(ValueError, match="count of at least 1"):
        solve_general(pencil.SelfAdjoint(np.diag([1.0, 0.5])), count=count)


@pytest.mark.parametrize("n,route", [(40, "lanczos"), (39, "eigh")])
def test_general_takes_lanczos_only_for_few_values_of_many(n, route):
    # count = 1 asks for 1 + PAD = 5 values: Lanczos returns those from
    # n = 8 * 5 = 40 up, and below it eigh computes every value and returns
    # the same 5
    Q = la.qr(np.random.default_rng(n).standard_normal((n, n)))[0]
    block = pencil.SelfAdjoint(Q @ np.diag(1.0 / np.arange(1.0, n + 1.0)) @ Q.T)
    spec = solve_general(block, count=1)
    assert spec.flags["solver"] == route
    assert ("matvecs" in spec.flags) == (route == "lanczos")
    assert len(spec) == 5
    assert np.allclose(spec.eigenvalues[:5], [1, 2, 3, 4, 5], rtol=1e-10, atol=0)


def test_lanczos_keeps_the_largest_mu_over_the_blocks():
    # the summed order 20 + 20 routes count = 1 to Lanczos; each block gives
    # its 5 largest mu, and the 5 largest of those ten are kept
    r = np.random.default_rng(6)
    first = _symmetric(r, 1.0 / np.arange(1.0, 40.0, 2.0))     # sigma 1, 3, 5, ...
    second = _symmetric(r, 1.0 / np.arange(2.0, 41.0, 2.0))    # sigma 2, 4, 6, ...
    spec = solve_general(pencil.SelfAdjoint(first), pencil.SelfAdjoint(second), count=1)
    assert spec.flags["solver"] == "lanczos"
    assert spec.flags["residual"] <= pencil.RESIDUAL_GATE
    assert np.allclose(spec.eigenvalues, [1, 2, 3, 4, 5], rtol=1e-10, atol=0)


def test_symmetric_route_returns_every_value_above_the_null_level():
    # mu at most NULL_RTOL of the largest over the blocks (rounding level,
    # zero or negative) gives no value, in either block; count = 1 keeps the
    # 1 + PAD = 5 largest mu over the blocks, and every value of those
    # above the null level is returned ascending
    r = np.random.default_rng(3)
    first = _symmetric(r, [1.0, 0.25, 1e-13, -1e-3])
    second = _symmetric(r, [0.5, 0.2, 0.0])
    spec = solve_general(pencil.SelfAdjoint(first), pencil.SelfAdjoint(second), count=1)
    assert np.allclose(spec.eigenvalues, [1.0, 2.0, 4.0, 5.0], rtol=1e-12, atol=0)
    assert spec.flags["solver"] == "eigh"
    assert spec.flags["residual"] <= pencil.RESIDUAL_GATE
    assert spec.flags["asymmetry"] < 1e-14


def test_symmetric_route_solves_the_symmetric_part_and_records_the_rest():
    # T = S + E with E antisymmetric: eigh solves S, returning its
    # count + PAD = 7 lowest values, and the flag records
    # max |T - T^T| / max |T|
    r = np.random.default_rng(4)
    S = _symmetric(r, 1.0 / np.arange(1.0, 11.0))
    E = 1e-6 * r.standard_normal((10, 10))
    E -= E.T
    T = S + E
    spec = solve_general(pencil.SelfAdjoint(T), count=3)
    assert np.allclose(spec.eigenvalues, np.arange(1.0, 8.0), rtol=1e-12, atol=0)
    assert spec.flags["asymmetry"] == np.abs(T - T.T).max() / np.abs(T).max()


def test_self_adjoint_block_must_be_square():
    with pytest.raises(ValueError, match="square"):
        pencil.SelfAdjoint(np.zeros((3, 4)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**6))
def test_congruence_invariance(seed):
    rng = np.random.default_rng(seed)
    A, B = _random_spd_pencil(rng, 12)
    P = np.eye(12) + 0.1 * rng.standard_normal((12, 12))
    base = solve_symdef(Pencil(A, B)).eigenvalues
    cong = solve_symdef(Pencil(P.T @ A @ P, P.T @ B @ P)).eigenvalues
    assert np.max(np.abs(base - cong) / np.maximum(1.0, np.abs(base))) < 1e-10


def _tridiagonal_spd(rng, n):
    main = 2.0 + rng.uniform(0, 1, n)
    off = -rng.uniform(0.1, 0.9, n - 1)
    return sp.diags([off, main, off], [-1, 0, 1]).tocsr()


def test_solve_lowest_matches_dense(rng):
    # SPD B: the lowest five against the full dense solve
    n = 120
    A = _tridiagonal_spd(rng, n)
    B = sp.diags(rng.uniform(0.5, 1.5, n)).tocsr()
    vals, V, residual, pair_residuals, matvecs = solve_lowest(A, B, 5, shift=-1.0)
    ref = solve_symdef(Pencil(A.toarray(), B.toarray())).eigenvalues[:5]
    assert np.max(np.abs(vals - ref) / ref) < 1e-10
    assert V.shape == (n, 5) and residual <= 1e-9 and matvecs > 0
    assert pair_residuals.shape == (5,) and np.all(pair_residuals <= 1e-9)
    assert np.max(np.abs(V.T @ (B @ V) - np.eye(5))) < 1e-10

    # PSD B with a Steklov-like null space: B lives on the first nb rows,
    # so the finite eigenvalues are those of the Schur complement
    # S = A_bb - A_bi A_ii^-1 A_ib against B_bb (a discrete DtN map)
    nb = 30
    A = A + sp.diags(np.r_[np.zeros(nb), np.ones(n - nb)])
    Bbb = np.diag(rng.uniform(0.5, 1.5, nb))
    B = sp.block_diag([Bbb, sp.csr_matrix((n - nb, n - nb))]).tocsr()
    Ad = A.toarray()
    S = Ad[:nb, :nb] - Ad[:nb, nb:] @ np.linalg.solve(Ad[nb:, nb:], Ad[nb:, :nb])
    ref = solve_symdef(Pencil((S + S.T) / 2, Bbb)).eigenvalues[:6]
    vals, V, residual, _, _ = solve_lowest(A, B, 6, shift=-0.5)
    assert np.max(np.abs(vals - ref) / ref) < 1e-10
    assert residual <= 1e-9

    # tiny: k >= n - 1 is below what ARPACK serves and takes the dense path
    n = 5
    A = _tridiagonal_spd(rng, n)
    B = sp.diags(rng.uniform(0.5, 1.5, n)).tocsr()
    vals, V, residual, _, matvecs = solve_lowest(A, B, n - 1, shift=0.0)
    ref = solve_symdef(Pencil(A.toarray(), B.toarray())).eigenvalues[:n - 1]
    assert np.max(np.abs(vals - ref) / ref) < 1e-12
    assert residual <= 1e-9 and matvecs == 0


def test_solve_lowest_factors_the_p2_drum_pencil_once_in_symmetric_mode(monkeypatch):
    # gww-a, P2 Dirichlet at level 4, shifted as solve_fem shifts it
    mesh = shared_mesh("gww-a", 4)
    space = fem.FemSpace("P2", mesh, fem._constrained_markers("dirichlet"))
    free = space.free
    A = fem.assemble_stiffness(space)[free][:, free]
    B = fem.assemble_mass(space)[free][:, free]
    shift = -1.0 / mesh.areas().sum()
    # reference: ARPACK's own shift-invert mode, before the spy is in place
    ref = np.sort(spla.eigsh(A, 10, M=B, sigma=shift, which="LM")[0])

    factor = spla.splu
    calls = []

    def spy(C, *args, **kwargs):
        lu = factor(C, *args, **kwargs)
        calls.append((args, kwargs, lu.nnz, C))
        return lu

    # the module eigsh lives in factors M itself when handed no Minv
    monkeypatch.setattr(spla, "splu", spy)
    monkeypatch.setattr(sys.modules[spla.eigsh.__module__], "splu", spy)
    vals, _, residual, _, _ = solve_lowest(A, B, 10, shift)
    monkeypatch.undo()

    assert len(calls) == 1
    args, kwargs, nnz, C = calls[0]
    assert args == () and kwargs == {"permc_spec": "MMD_AT_PLUS_A",
                                     "diag_pivot_thresh": 0,
                                     "options": {"SymmetricMode": True}}
    assert nnz < spla.splu(C).nnz
    assert np.max(np.abs(vals - ref) / ref) < 1e-10
    assert residual <= 1e-9


@pytest.mark.parametrize("n", [40, 6])
def test_solve_lowest_rejects_k_beyond_the_rank_of_b(rng, n):
    # two nonzero directions in B: the third value is infinite
    A = _tridiagonal_spd(rng, n)
    B = sp.diags(np.r_[1.0, 2.0, np.zeros(n - 2)]).tocsr()
    vals, _, _, _, _ = solve_lowest(A, B, 2, shift=-1.0)
    assert np.all(np.isfinite(vals))
    with pytest.raises(ValueError, match="null space"):
        solve_lowest(A, B, 3, shift=-1.0)


def test_solve_lowest_turns_any_arpack_error_into_value_error(rng, monkeypatch,
                                                              tmp_path):
    # an error code other than non-convergence, from the library and the CLI
    def failing(*args, **kwargs):
        raise spla.ArpackError(-9999)

    monkeypatch.setattr(spla, "eigsh", failing)
    A = _tridiagonal_spd(rng, 40)
    with pytest.raises(ValueError, match="Lanczos failed: ARPACK error -9999"):
        solve_lowest(A, sp.identity(40, format="csr"), 3, shift=-1.0)
    assert cli.main(["solve", "--domain", "unit-square", "--method", "fem-p2",
                     "--bc", "dirichlet", "--count", "3", "--levels", "2",
                     "--out", str(tmp_path)]) == cli.EXIT_QUALITY


@pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
def test_lanczos_stop_misses_no_multiple_eigenvalue(bc):
    # the unit square's symmetric pairs, each found twice by the gated stop
    # as by the dense oracle on the same pencil
    mesh = shared_mesh("unit-square", 4)
    spectrum = fem.solve_fem(geometry.load_domain("unit-square"),
                             fem.EigenProblemSpec(bc, 20, kind="P2", level=4),
                             mesh=mesh)
    space = spectrum.space
    free = space.free
    K = fem.assemble_stiffness(space)[free][:, free].toarray()
    M = fem.assemble_mass(space)[free][:, free].toarray()
    ref = solve_symdef(Pencil(K, M)).eigenvalues[:20]
    vals = spectrum.eigenvalues
    assert np.max(np.abs(vals - ref) / np.maximum(1.0, np.abs(ref))) < 1e-10
    assert np.array_equal(cluster(vals)[0], cluster(ref)[0])
    # the mesh's diagonals split some of the pairs, not all
    assert np.count_nonzero(cluster(ref)[0] == 2) >= 2


@pytest.mark.parametrize("n,k", [(120, 5), (6, 5)])
def test_solve_lowest_rejects_pairs_that_miss_the_residual_gate(rng, n, k):
    # a nonsymmetric A breaks the symmetric solvers' premise; the pairs they
    # return are not eigenpairs of (A, B), and the gate must say so
    A = _tridiagonal_spd(rng, n).tolil()
    A[0, 1] += 1e-3
    B = sp.identity(n, format="csr")
    with pytest.raises(ValueError, match="exceeds gate"):
        solve_lowest(A.tocsr(), B, k, shift=-1.0)


def test_solve_lowest_runs_on_one_blas_thread_and_restores_each_pool(
        rng, monkeypatch, blas_pools):
    # Lanczos sees every pool at one thread; on return, a forced ARPACK
    # error and a gate rejection each pool is back at its entry count, 2
    set_blas_threads(blas_pools, 2)
    entry = blas_threads(blas_pools)
    inside = []
    eigsh = spla.eigsh

    def spy(*args, **kwargs):
        inside.append(blas_threads(blas_pools))
        return eigsh(*args, **kwargs)

    def failing(*args, **kwargs):
        inside.append(blas_threads(blas_pools))
        raise spla.ArpackError(-9999)

    A = _tridiagonal_spd(rng, 120)
    B = sp.identity(120, format="csr")
    monkeypatch.setattr(spla, "eigsh", spy)
    solve_lowest(A, B, 5, shift=-1.0)
    assert blas_threads(blas_pools) == entry == [2] * len(blas_pools)
    skewed = A.tolil()
    skewed[0, 1] += 1e-3
    with pytest.raises(ValueError, match="exceeds gate"):
        solve_lowest(skewed.tocsr(), B, 5, shift=-1.0)
    assert blas_threads(blas_pools) == entry
    monkeypatch.setattr(spla, "eigsh", failing)
    with pytest.raises(ValueError, match="Lanczos failed"):
        solve_lowest(A, B, 5, shift=-1.0)
    assert blas_threads(blas_pools) == entry
    assert inside == [[1] * len(blas_pools)] * 3


def test_fem_values_do_not_depend_on_the_callers_blas_threads(blas_pools):
    # at level 5 a threaded dgemv split its sums and moved the values by
    # up to 3.3e-15 relative between 2 threads and 1
    domain = geometry.load_domain("gww-a")
    mesh = shared_mesh("gww-a", 5)
    spec = fem.EigenProblemSpec("dirichlet", 10, kind="P2", level=5)
    values = []
    for count in (2, 1):
        set_blas_threads(blas_pools, count)
        values.append(fem.solve_fem(domain, spec, mesh=mesh).eigenvalues)
    assert np.array_equal(values[0], values[1])


def _dense_pencil_with_double_value():
    """A dense (A, B) whose values are those of D: 1, 2, 2, 4, 5, ...;
    returns A, B and the double value with its two vectors from eig."""
    n = 30
    r = np.random.default_rng(11)
    D = np.diag(np.r_[1.0, 2.0, 2.0, np.arange(4.0, n + 1.0)])
    P = np.eye(n) + 0.1 * r.standard_normal((n, n))
    B = np.eye(n) + 0.2 * r.standard_normal((n, n))
    A = B @ P @ D @ np.linalg.inv(P)
    vals, V = la.eig(A, B)
    near = np.abs(vals - 2.0) < 1e-6
    assert near.sum() == 2 and np.all(vals[near].imag == 0) and np.all(V[:, near].imag == 0)
    return A, B, vals[near].real, V[:, near].real


def test_dense_gate_matches_the_numpy_product():
    # the gate multiplies in scipy's BLAS; numpy's product is the reference
    A, B, vals, V = _dense_pencil_with_double_value()
    worst, per_pair = pencil._residual_gate(A, B, vals, V)
    AV, BV = A @ V, B @ V
    r = np.linalg.norm(AV - BV * vals, axis=0)
    scale = np.abs(A).sum(axis=0).max() + np.abs(vals) * np.abs(B).sum(axis=0).max()
    own = np.linalg.norm(AV, axis=0) + np.abs(vals) * np.linalg.norm(BV, axis=0)
    assert worst <= pencil.RESIDUAL_GATE
    assert abs(worst - (r / (scale * np.linalg.norm(V, axis=0))).max()) <= 1e-15
    assert np.max(np.abs(per_pair - r / own)) <= 1e-15
    V = V.copy()
    V[:, 1] += 1e-3 * np.random.default_rng(3).standard_normal(len(V))
    with pytest.raises(ValueError, match="eigenpair 1 .* exceeds gate"):
        pencil._residual_gate(A, B, vals, V)


@pytest.mark.parametrize("storage", ["dense", "sparse"])
def test_gate_rejects_a_nan_residual(storage):
    # NaN > gate is False, so only "residual <= gate" can reject it
    A = np.diag([1.0, 2.0]) if storage == "dense" else sp.diags([1.0, 2.0]).tocsr()
    B = np.eye(2) if storage == "dense" else sp.identity(2, format="csr")
    V = np.eye(2)
    assert pencil._residual_gate(A, B, np.array([1.0, 2.0]), V)[0] == 0.0
    V[0, 0] = np.nan
    with pytest.raises(ValueError, match="eigenpair 0 relative residual nan exceeds"):
        pencil._residual_gate(A, B, np.array([1.0, 2.0]), V)


def test_pencil_shape_validation():
    with pytest.raises(ValueError):
        Pencil(np.eye(3), np.eye(4))


def test_spectrum_multiplicity_pattern():
    s = pencil.Spectrum([0.0, 1.0, 1.0 + 1e-9, 2.5], "test", None, None)
    assert list(cluster(s.eigenvalues)[0]) == [1, 2, 1]
    assert len(s) == 4
    assert s[1] == 1.0
