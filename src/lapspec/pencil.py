"""Generalized eigenvalue pencils: solvers, and the clustering the CLI prints.

Sparse definite pencils (every FEM problem) go through one shift-invert
Lanczos path, `solve_lowest`. The BIE Steklov problems go through
`solve_general`, which takes the symmetrized Neumann-to-Dirichlet blocks of
`bie` and owns the one route decision: Lanczos for a few values, a dense
symmetric eigensolve of every block for many. Both solve through one core,
`_largest`: Lanczos (ARPACK) from a fixed start vector, stopped at the
residual gate, its errors raised as ValueError and its operator
applications counted, and a dense eigh for a problem without an operator
or too small for ARPACK.
Every dense product of a BIE solve (Lanczos' S x, the gate's S V) goes
through scipy.linalg.blas, given F-ordered views so that f2py copies
nothing: numpy and scipy load separate OpenBLAS thread pools, and
switching between them on every product costs wall time and memory, also
with both pools at one thread (`annulus` benchmark, 2 cores). Sparse FEM
products keep `@`.
Every FEM, BIE and MPS solve runs with every OpenBLAS pool of the process
at one thread (`_one_blas_thread`, on `solve_lowest`, `solve_general`,
`bie._deflated_pencil` and `mps.sigma_min_sweep`, `mps.refine_minimum` and
`mps.fhm_enclosure`), restoring each pool's count on exit. OpenBLAS woke a
second thread for some of their BLAS calls, and that thread then
spin-waited between calls, so a round's CPU time was up to twice its wall
time. The calls gain little or nothing from a second thread: FEM calls
(SuperLU's supernodal triangular solves, ARPACK's reorthogonalization on
at most 12,545 x 29) are too small to split; at 440 nodes per curve
`eigh(driver="evd")` of the 441-order BIE block took 16.4 ms on one
thread or two; and the QR and SVD of gww-a's 222 x 56 MPS indicator block
in `mps._subspace_smin` took 0.66 ms on one thread against 1.14 ms on two
(best of 15 and of 40, 2 cores). No FEM, BIE or MPS value depends on the
core count.
`solve_symdef`, a dense Cholesky-reduction solve (sygvd), is the dense
reference: no solver path calls it, the tests compare against it and the
benchmark tracer wraps it by name.
"""
import contextlib
import ctypes
import functools
import glob
import os

import numpy as np
import scipy
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dgemm, dsymv

CLUSTER_RTOL = 1e-6    # relative gap up to which cluster() merges neighbors
RESIDUAL_GATE = 1e-9   # largest relative residual accepted from any solver
PAD = 4                # extra Lanczos pairs beyond the k requested
LANCZOS_SEED = 1234
NULL_RTOL = 1e-12      # nu below this fraction of the largest is infinite lambda


class Pencil:
    """Pair (A, B) of square matrices for the problem A v = lambda B v."""

    def __init__(self, A, B):
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A and B must be square matrices of equal size")
        self.A, self.B = A, B

    @property
    def n(self):
        return self.A.shape[0]


class SelfAdjoint:
    """Square matrix T, the discretization of a self-adjoint operator in an
    orthonormal basis: symmetric up to discretization error. Its
    eigenvalues mu are the reciprocals 1/sigma of the values sought."""

    def __init__(self, T):
        T = np.asarray(T, dtype=float)
        if T.ndim != 2 or T.shape[0] != T.shape[1]:
            raise ValueError("T must be a square matrix")
        self.matrix = T

    @property
    def n(self):
        return self.matrix.shape[0]


def _asymmetry(M):
    """max |M - M^T| / max |M| (max |M - M^T| for a zero M)."""
    return float(np.abs(M - M.T).max() / (np.abs(M).max() or 1.0))


def cluster(values):
    """Group an ascending array into multiplicity clusters.

    Two neighbors belong to one cluster when their gap is at most
    CLUSTER_RTOL * max(1, |value|); returns (cluster sizes, cluster means).
    """
    values = np.asarray(values)
    if len(values) == 0:
        return np.array([], dtype=int), np.array([])
    sizes, means = [], []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or (values[i] - values[i - 1]
                                > CLUSTER_RTOL * max(1.0, abs(values[i]))):
            sizes.append(i - start)
            means.append(values[start:i].mean())
            start = i
    return np.array(sizes, dtype=int), np.array(means)


class Spectrum:
    """Ascending eigenvalue list with provenance."""

    def __init__(self, eigenvalues, method, param, domain, vectors=None, flags=None):
        self.eigenvalues = np.asarray(eigenvalues)
        self.method = method
        self.param = param
        self.domain = domain
        self.vectors = vectors
        self.flags = dict(flags or {})

    def __len__(self):
        return len(self.eigenvalues)

    def __getitem__(self, k):
        return self.eigenvalues[k]

    def __repr__(self):
        head = ", ".join(f"{v:.6g}" for v in self.eigenvalues[:6])
        return (f"Spectrum[{self.method}]({len(self)} values: {head}"
                f"{', ...' if len(self) > 6 else ''})")


def solve_symdef(pencil):
    """All eigenpairs of a symmetric-definite pencil, ascending, B-orthonormal."""
    if not (_asymmetry(pencil.A) <= 1e-12 and _asymmetry(pencil.B) <= 1e-12):
        raise ValueError("solve_symdef needs symmetric A and B")
    try:
        vals, vecs = la.eigh(pencil.A, pencil.B)
    except la.LinAlgError as exc:
        raise ValueError(f"B is not positive definite to working precision: {exc}")
    residual, _ = _residual_gate(pencil.A, pencil.B, vals, vecs)
    return Spectrum(vals, "pencil", None, None, vectors=vecs,
                    flags={"residual": residual})


@functools.cache
def _blas_pools():
    """The (get, set) thread-count functions of each OpenBLAS that numpy and
    scipy bundle (`<package>.libs/libscipy_openblas*.so`), found on first
    use so that importing the module does not pay for the lookup; empty
    for another BLAS build."""
    pools = []
    for package in (np, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                            package.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so"))):
            lib = ctypes.CDLL(path)
            # numpy's is the 64-bit integer build, with suffixed symbols
            for suffix in ("64_", ""):
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
                put = getattr(lib, "scipy_openblas_set_num_threads" + suffix, None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    pools.append((get, put))
                    break
    return tuple(pools)


@contextlib.contextmanager
def _one_blas_thread():
    """Every pool of `_blas_pools` at one thread inside, each back at its
    own count on exit, also when the body raises."""
    pools = _blas_pools()
    counts = [get() for get, _ in pools]
    for _, put in pools:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(pools, counts):
            put(count)


def _largest(k, n, dense, apply, **mode):
    """The k largest eigenpairs of an order-n symmetric problem, descending,
    and the operator applications. Lanczos (ARPACK `eigsh`) runs on the
    map `apply` with the `eigsh` keywords `mode`, from a fixed start vector,
    stopped at a Ritz estimate of RESIDUAL_GATE times the value; an ARPACK
    error raises ValueError. With `apply` None, or when k >= n - 1 is too
    many for ARPACK, `dense()` gives every pair instead, with 0
    applications."""
    matvecs = 0
    if apply is None or k >= n - 1:
        vals, V = dense()
    else:
        def counted(x):
            nonlocal matvecs
            matvecs += 1
            return apply(x)

        op = spla.LinearOperator((n, n), dtype=float, matvec=counted)
        rng = np.random.default_rng(LANCZOS_SEED)
        try:
            vals, V = spla.eigsh(op, k, which="LA", v0=rng.uniform(-1.0, 1.0, n),
                                 rng=rng, tol=RESIDUAL_GATE, **mode)
        except spla.ArpackError as exc:
            raise ValueError(f"Lanczos failed: {exc}")
    order = np.argsort(vals)[::-1][:k]
    return vals[order], V[:, order], matvecs


@_one_blas_thread()
def solve_general(*blocks, count):
    """The lowest sigma = 1/mu of a self-adjoint problem given as its
    diagonal `SelfAdjoint` blocks, ascending: one block when it does not
    split. A count below 1 raises ValueError.

    Each block's symmetric part S = (T + T^T) / 2 is solved by `_largest`
    for its count + PAD largest mu, each pair of which must pass the
    residual gate against S, and the count + PAD largest over the blocks
    are kept, so every returned pair is gated. The route depends on the
    summed order n and the count alone. When 12 (count + PAD) <= n,
    Lanczos on the product S x computes them (a block too small for ARPACK
    takes eigh instead, as in `solve_lowest`); otherwise eigh (the
    divide-and-conquer driver) computes every value of each block, which
    costs less than a subset of them. On the annulus blocks (one thread)
    eigh was the faster below that ratio at every order measured, 127 to
    2,079, and Lanczos from a ratio of 16 at orders 259 to 2,079.
    mu at most NULL_RTOL times the largest mu over the blocks (the rounding
    level, or below) gives no value. A largest mu <= 0 keeps none, and
    otherwise that bound is positive, so every sigma returned is positive.
    flags["solver"] is "lanczos" or "eigh", flags["residual"] the largest
    relative residual, flags["asymmetry"] the largest max |T - T^T| / max |T|
    over the blocks, and flags["matvecs"] the operator applications ARPACK
    asked for, summed over the blocks (0 on the eigh route). Runs on one
    BLAS thread (`_one_blas_thread`).
    """
    if count < 1:
        raise ValueError("solve_general needs a count of at least 1")
    k = count + PAD
    lanczos = 12 * k <= sum(block.n for block in blocks)
    mus, residual, asymmetry, matvecs = [], 0.0, 0.0, 0
    for block in blocks:
        T = block.matrix
        asymmetry = max(asymmetry, _asymmetry(T))
        S = T + T.T
        S *= 0.5
        # S is exactly symmetric: S.T is S as an F-ordered view
        apply = functools.partial(dsymv, 1.0, S.T) if lanczos else None
        mu, V, m = _largest(k, block.n, lambda: la.eigh(S, driver="evd"), apply)
        matvecs += m
        residual = max(residual, _residual_gate(S, None, mu, V)[0])
        mus.append(mu)
    mu = np.sort(np.concatenate(mus))[::-1][:k]
    flags = {"solver": "lanczos" if lanczos else "eigh", "residual": residual,
             "asymmetry": asymmetry, "matvecs": matvecs}
    mu = mu[mu > NULL_RTOL * mu.max()]
    return Spectrum(np.sort(1.0 / mu), "pencil", None, None, flags=flags)


@_one_blas_thread()
def solve_lowest(A, B, k, shift):
    """The k lowest eigenpairs of the sparse pencil A v = lambda B v.

    Needs A - shift*B symmetric positive definite and B symmetric positive
    semidefinite. Lanczos (`_largest`) runs on the definite pencil
    B v = nu (A - shift*B) v for its largest nu, and lambda = shift + 1/nu;
    directions in the null space of B have nu = 0 and drop out. Each step
    solves with C = A - shift*B through one sparse LU of C in SuperLU's
    symmetric mode (minimum-degree ordering of C^T + C, diagonal pivots).
    C is SPD, so its pivots stay positive without row exchanges, and the
    factor holds about half the fill of SuperLU's default (COLAMD, partial
    pivoting), which eigsh would build without `Minv`. ARPACK's mode 2
    applies B once per solve with C, so the count of applications is the
    count of solves. A few more pairs than k are computed so that a cluster
    is not split at the cutoff. ARPACK stops at ||r|| <= RESIDUAL_GATE nu
    for r = C^-1 B v - nu v: as A v - lambda B v = -C r / nu, the gate's
    residual stays near the gate. When the pencil is too small for ARPACK
    (k + PAD >= n - 1), a dense eigh solves the same pencil. Every
    returned pair must pass the residual gate. Returns (values ascending,
    B-normalized vectors, the largest and the per-pair residuals of
    `_residual_gate`, and the Lanczos solves with C, 0 if dense). Runs on
    one BLAS thread (`_one_blas_thread`), as the BIE solves do.
    """
    n = A.shape[0]
    C = sp.csc_matrix(A - shift * B)
    lu = spla.splu(C, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                   options={"SymmetricMode": True})
    Cinv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
    nu, V, matvecs = _largest(k + PAD, n, lambda: la.eigh(B.toarray(), C.toarray()),
                              B.dot, M=C, Minv=Cinv)
    nu, V = nu[:k], V[:, :k]
    # nu at rounding level belongs to the null space of B (lambda = inf)
    if not nu[-1] > NULL_RTOL * nu[0]:
        raise ValueError(f"B has fewer than {k} directions off its null space: "
                         f"cannot return {k} finite eigenvalues")
    vals = shift + 1.0 / nu
    # V is (A - shift B)-orthonormal, so v^T B v = nu
    V = V / np.sqrt(nu)
    return (vals, V, *_residual_gate(A, B, vals, V), matvecs)


def _residual_gate(A, B, vals, V):
    """Largest ||Av - lambda Bv|| / ((||A||_1 + |lambda| ||B||_1) ||v||) over
    the pairs, raising ValueError when a pair's is not at most RESIDUAL_GATE
    (a NaN included), and each pair's own-term
    ||Av - lambda Bv|| / (||Av|| + |lambda| ||Bv||), 0 if 0/0.
    B None is the identity. Sparse A and B multiply with `@`; dense ones in
    scipy's BLAS."""
    def norm1(M):
        return 1.0 if M is None else float(abs(M).sum(axis=0).max())

    if sp.issparse(A):
        AV, BV = A @ V, B @ V
    else:
        W = np.asfortranarray(V)
        AV, BV = (W if M is None else dgemm(1.0, M.T, W, trans_a=1) for M in (A, B))
    r = np.linalg.norm(AV - BV * vals, axis=0)
    rel = r / ((norm1(A) + np.abs(vals) * norm1(B)) * np.linalg.norm(V, axis=0))
    # NaN fails every comparison: only a residual <= the gate passes
    if not np.all(rel <= RESIDUAL_GATE):
        j = int(np.argmax(rel))    # argmax finds a NaN first
        raise ValueError(f"eigenpair {j} relative residual {rel[j]:.2e} exceeds "
                         f"gate {RESIDUAL_GATE:.0e}")
    own = np.linalg.norm(AV, axis=0) + np.abs(vals) * np.linalg.norm(BV, axis=0)
    return float(rel.max(initial=0.0)), r / np.where(own > 0, own, 1.0)
