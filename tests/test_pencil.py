import sys
import warnings

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from lapspec import fem, pencil
from conftest import shared_mesh
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
# oracle 2: characteristic polynomial by determinant sampling, roots from the
# companion matrix of the interpolated polynomial.
# ---------------------------------------------------------------------------

def _charpoly_roots(A, B):
    n = A.shape[0]
    R = 1.1 * np.linalg.norm(np.linalg.solve(B, A), 2) + 1.0
    # n+1 Chebyshev sample points resolve the degree-n determinant exactly
    x = R * np.cos(np.pi * (2 * np.arange(n + 1) + 1) / (2 * (n + 1)))
    y = np.array([np.linalg.det(A - xi * B) for xi in x])
    y /= np.abs(y).max()
    poly = np.polynomial.Polynomial.fit(x, y, deg=n)
    return poly.roots()


def _match_each(got, ref, rtol):
    """Pair every value of `got` with a distinct nearest value of `ref`."""
    remaining = list(ref)
    for lam in got:
        dist = [abs(lam - r) for r in remaining]
        j = int(np.argmin(dist))
        assert dist[j] <= rtol * max(1.0, abs(lam))
        remaining.pop(j)


def _real_spectrum_pencil(r, n, noise):
    """Nonsymmetric (A, B) whose eigenvalues are -n/2 + 1/2, ..., n/2 - 1/2:
    B^-1 A is a similarity-transformed diagonal."""
    P = np.eye(n) + 0.1 * r.standard_normal((n, n))
    B = np.eye(n) + noise * r.standard_normal((n, n))
    D = np.diag(np.arange(n) - (n - 1) / 2)
    return B @ P @ D @ np.linalg.inv(P), B


def test_general_against_companion_matrix_roots(rng):
    n = 12
    A, B = _real_spectrum_pencil(rng, n, 0.1)
    ref = _charpoly_roots(A, B)
    got = solve_general(Pencil(A, B), count=n).eigenvalues
    assert np.isrealobj(got) and len(got) == n
    _match_each(got, ref, 1e-7)
    # a random pencil has complex pairs below its largest real value
    A = rng.standard_normal((n, n))
    with pytest.raises(ValueError, match="complex pencil eigenvalues inside"):
        solve_general(Pencil(A, B), count=n)


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


def test_general_rejects_singular_b():
    B = np.diag([1.0, 0.0])
    with pytest.raises(ValueError):
        solve_general(Pencil(np.eye(2), B), count=2)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_general_matches_qz_on_nonsymmetric_pencils(seed):
    r = np.random.default_rng(seed)
    n = 40
    A, B = _real_spectrum_pencil(r, n, 0.2)
    ref = la.eig(A, B, right=False)
    got = solve_general(Pencil(A, B), count=n).eigenvalues
    assert np.isrealobj(got) and len(got) == n
    assert np.all(np.diff(got) > 0)
    _match_each(got, ref, 1e-10)
    # a random nonsymmetric pencil has complex-conjugate pairs, and QZ
    # places some of them below its largest real value
    A = r.standard_normal((n, n))
    ref = la.eig(A, B, right=False)
    real = np.abs(ref.imag) <= pencil.REAL_RTOL * np.abs(ref)
    assert np.any(~real & (np.abs(ref) <= np.abs(ref[real]).max()))
    with pytest.raises(ValueError, match="complex pencil eigenvalues inside"):
        solve_general(Pencil(A, B), count=n)


def test_general_reports_reals_by_the_one_realness_rule():
    # eigenvalues 1 +- t i: imaginary parts of 1e-7 of the modulus are
    # rounding-level and count as real, 1e-5 is a true complex pair
    def rotation(t):
        return np.array([[1.0, -t], [t, 1.0]])

    got = solve_general(Pencil(rotation(1e-7), np.eye(2)), count=2).eigenvalues
    assert np.isrealobj(got)
    assert np.array_equal(got, [1.0, 1.0])
    # the pair lies below the first real value 3: inside the requested range
    A = la.block_diag(rotation(1e-5), 3.0)
    with pytest.raises(ValueError, match=r"inside the requested range "
                                         r"\(worst 1[+-]1e-05j\)"):
        solve_general(Pencil(A, np.eye(3)), count=1)
    # above the first real value 0.5 it is outside, and dropped
    A = la.block_diag(0.5, rotation(1e-5))
    got = solve_general(Pencil(A, np.eye(3)), count=1).eigenvalues
    assert np.array_equal(got, [0.5])


@pytest.mark.parametrize("count", [0, -1])
def test_general_rejects_a_count_below_one(count):
    # no count falls back to the largest real value as its cutoff
    with pytest.raises(ValueError, match="count of at least 1"):
        solve_general(Pencil(np.diag([1.0, 2.0]), np.eye(2)), count=count)


def test_general_ill_conditioned_error_carries_the_condition_number(svdvals_calls):
    B = np.diag([1.0, 1e-13])
    with pytest.raises(ValueError, match=r"condition number 1\.00e\+13"):
        solve_general(Pencil(np.eye(2), B), count=2)
    assert len(svdvals_calls) == 1


def test_general_estimate_near_the_gate_takes_the_exact_condition(svdvals_calls):
    # the estimate's bound 100 n / rcond = 2e13 exceeds the gate, but the
    # exact condition 1e11 does not, so B is accepted after one SVD
    spec = solve_general(Pencil(np.diag([2.0, 3.0]), np.diag([1.0, 1e-11])),
                         count=2)
    assert np.allclose(spec.eigenvalues, [2.0, 3e11], rtol=1e-12, atol=0)
    assert len(svdvals_calls) == 1


def test_general_singular_b_is_ill_conditioned_without_a_scipy_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="condition number inf"):
            solve_general(Pencil(np.eye(2), np.diag([1.0, 0.0])), count=2)


@pytest.mark.parametrize("n,route", [(40, "arnoldi"), (39, "lu-eigvals")])
def test_general_takes_arnoldi_only_for_few_values_of_many(n, route):
    # count = 1 asks for 1 + PAD = 5 values: Arnoldi from n = 8 * 5 = 40 up
    r = np.random.default_rng(n)
    P = np.eye(n) + 0.1 * r.standard_normal((n, n))
    A = P @ np.diag(np.arange(1.0, n + 1.0)) @ np.linalg.inv(P)
    spec = solve_general(Pencil(A, np.eye(n)), count=1)
    assert spec.flags["solver"] == route
    assert np.allclose(spec.eigenvalues[:5], [1, 2, 3, 4, 5], rtol=1e-10, atol=0)


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
    vals, V, residual, pair_residuals = solve_lowest(A, B, 5, shift=-1.0)
    ref = solve_symdef(Pencil(A.toarray(), B.toarray())).eigenvalues[:5]
    assert np.max(np.abs(vals - ref) / ref) < 1e-10
    assert V.shape == (n, 5) and residual <= 1e-9
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
    vals, V, residual, _ = solve_lowest(A, B, 6, shift=-0.5)
    assert np.max(np.abs(vals - ref) / ref) < 1e-10
    assert residual <= 1e-9

    # tiny: k >= n - 1 is below what ARPACK serves and takes the dense path
    n = 5
    A = _tridiagonal_spd(rng, n)
    B = sp.diags(rng.uniform(0.5, 1.5, n)).tocsr()
    vals, V, residual, _ = solve_lowest(A, B, n - 1, shift=0.0)
    ref = solve_symdef(Pencil(A.toarray(), B.toarray())).eigenvalues[:n - 1]
    assert np.max(np.abs(vals - ref) / ref) < 1e-12
    assert residual <= 1e-9


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
    vals, _, residual, _ = solve_lowest(A, B, 10, shift)
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
    vals, _, _, _ = solve_lowest(A, B, 2, shift=-1.0)
    assert np.all(np.isfinite(vals))
    with pytest.raises(ValueError, match="null space"):
        solve_lowest(A, B, 3, shift=-1.0)


@pytest.mark.parametrize("n,k", [(120, 5), (6, 5)])
def test_solve_lowest_rejects_pairs_that_miss_the_residual_gate(rng, n, k):
    # a nonsymmetric A breaks the symmetric solvers' premise; the pairs they
    # return are not eigenpairs of (A, B), and the gate must say so
    A = _tridiagonal_spd(rng, n).tolil()
    A[0, 1] += 1e-3
    B = sp.identity(n, format="csr")
    with pytest.raises(ValueError, match="exceeds gate"):
        solve_lowest(A.tocsr(), B, k, shift=-1.0)


def _dense_pencil_with_pair(pair):
    """A dense (A, B) whose values are those of D: 1, 4, 5, ... and a pair
    near 2, either 2 +- 1e-8 i (near-real) or 2 twice (exactly real); returns
    A, B and the two values with their vectors from eig."""
    n = 30
    r = np.random.default_rng(11)
    D = np.diag(np.r_[1.0, 2.0, 2.0, np.arange(4.0, n + 1.0)])
    if pair == "near-real":
        D[1, 2], D[2, 1] = -1e-8, 1e-8
    P = np.eye(n) + 0.1 * r.standard_normal((n, n))
    B = np.eye(n) + 0.2 * r.standard_normal((n, n))
    A = B @ P @ D @ np.linalg.inv(P)
    vals, V = la.eig(A, B)
    near = np.abs(vals - 2.0) < 1e-6
    assert near.sum() == 2
    return A, B, vals[near], V[:, near]


def _complex_product_gate(A, B, vals, V):
    # the former dense gate: numpy upcasts the real A and B to complex
    AV, BV = A @ V, B @ V
    r = np.linalg.norm(AV - BV * vals, axis=0)
    scale = np.abs(A).sum(axis=0).max() + np.abs(vals) * np.abs(B).sum(axis=0).max()
    rel = r / (scale * np.linalg.norm(V, axis=0))
    own = np.linalg.norm(AV, axis=0) + np.abs(vals) * np.linalg.norm(BV, axis=0)
    return rel.max(), r / own


@pytest.mark.parametrize("pair, vector_dtype",
                         [("near-real", complex), ("real", complex), ("real", float)])
def test_dense_gate_matches_the_complex_product(pair, vector_dtype):
    A, B, vals, V = _dense_pencil_with_pair(pair)
    if pair == "near-real":
        assert np.all(vals.imag != 0) and np.abs(V.imag).max() > 0.1
    else:
        assert np.all(vals.imag == 0) and np.all(V.imag == 0)
        vals, V = vals.real, V.real.astype(vector_dtype)
    worst, per_pair = pencil._residual_gate(A, B, vals, V)
    want_worst, want_per_pair = _complex_product_gate(A, B, vals, V)
    assert worst <= pencil.RESIDUAL_GATE
    assert abs(worst - want_worst) <= 1e-15
    assert np.max(np.abs(per_pair - want_per_pair)) <= 1e-15
    V = V.copy()
    V[:, 1] += 1e-3 * np.random.default_rng(3).standard_normal(len(V))
    with pytest.raises(ValueError, match="eigenpair 1 .* exceeds gate"):
        pencil._residual_gate(A, B, vals, V)


def test_pencil_shape_validation():
    with pytest.raises(ValueError):
        Pencil(np.eye(3), np.eye(4))


def test_spectrum_multiplicity_pattern():
    s = pencil.Spectrum([0.0, 1.0, 1.0 + 1e-9, 2.5], "test", None, None)
    assert list(cluster(s.eigenvalues)[0]) == [1, 2, 1]
    assert len(s) == 4
    assert s[1] == 1.0
