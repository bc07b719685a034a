"""Generalized eigenvalue pencils: solvers, and the clustering the CLI prints.

Sparse definite pencils (every FEM problem) go through one shift-invert
Lanczos path, `solve_lowest`. The BIE Steklov problems go through
`solve_general`: Arnoldi on a general pencil when a few values are asked
for, and a symmetric eigensolve of the Neumann-to-Dirichlet blocks when
many are. The Arnoldi route pairs a second-kind A with a first-kind B, so
only B can be ill-conditioned: A is factored once by LU, and B is never
inverted. It solves with A's getrf factor by getrs itself: lu_solve's
finite check and batch dispatch cost more than the solve at the order of
an Arnoldi step.
Every dense product of a BIE solve (Arnoldi's B x, the gate's A V and B V)
goes through scipy.linalg.blas, given F-ordered views with trans=1 so that
f2py copies nothing: numpy and scipy load separate OpenBLAS thread pools,
and switching between them cost the `annulus` benchmark about a quarter of
its wall time on 2 cores. Sparse FEM products keep `@`.
`solve_symdef`, a dense Cholesky-reduction solve (sygvd), is the dense
reference: no solver path calls it, the tests compare against it and the
benchmark tracer wraps it by name.
"""
import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dgemm, dgemv

CLUSTER_RTOL = 1e-6    # relative gap up to which cluster() merges neighbors
RESIDUAL_GATE = 1e-9   # largest relative residual accepted from any solver
PAD = 4                # extra Lanczos pairs beyond the k requested
LANCZOS_SEED = 1234
NULL_RTOL = 1e-12      # nu below this fraction of the largest is infinite lambda
REAL_RTOL = 1e-6       # Arnoldi: |imag| at most this fraction of |value| is real


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


def arnoldi_pays(n, count):
    """Whether Arnoldi pays for `count` values of a problem of order n:
    8 (count + PAD) <= n. Arnoldi took 2.1 s for 205 values of n = 879,
    where a dense solve took 0.8 s; at n = 659 the symmetric route took
    51 ms for all values, Arnoldi 22-32 ms for 2."""
    return 8 * (count + PAD) <= n


def solve_general(*blocks, count):
    """Real eigenvalues sigma of a problem given as its diagonal blocks,
    ascending: one block when it does not split. A count below 1 raises
    ValueError.

    `Pencil` blocks (A v = sigma B v) take the Arnoldi route, meant for
    few values (`arnoldi_pays`). Each A is factored once by LU (getrf),
    where an exactly zero pivot raises ValueError, and Arnoldi (ARPACK) on
    x -> A^-1 B x, solving with that factor by getrs from a fixed start
    vector, computes the count + PAD mu = 1/sigma of largest modulus of
    each block. B is never inverted, so a singular B needs no check. Their
    real pairs must pass the residual gate; an ARPACK failure raises
    ValueError. The count + PAD merged values of smallest modulus are
    kept, sigma is real by `is_real`, and a non-real sigma no larger in
    modulus than the count-th real value, or the largest when fewer are
    real, raises ValueError, which names the smallest one; the others are
    dropped. flags["solver"] is "arnoldi", flags["residual"] the largest
    relative residual over the blocks and flags["matvecs"] the operator
    applications ARPACK asked for, summed over the blocks.

    `SelfAdjoint` blocks take the symmetric route (`_solve_self_adjoint`),
    which returns every value and ignores the count.
    """
    if count < 1:
        raise ValueError("solve_general needs a count of at least 1")
    if isinstance(blocks[0], SelfAdjoint):
        return _solve_self_adjoint(blocks)
    vals, residual, matvecs = [], 0.0, 0
    for block in blocks:
        # getrf itself: lu_factor warns on an exactly zero pivot (info > 0)
        lu, piv, info = la.lapack.dgetrf(block.A)
        if info > 0:
            raise ValueError(f"A is singular: LU pivot {info} is exactly zero")
        v, r, m = _arnoldi(block, (lu, piv), count + PAD)
        vals.append(v)
        residual, matvecs = max(residual, r), matvecs + m
    vals = np.concatenate(vals)
    vals = vals[np.argsort(np.abs(vals))][:count + PAD]
    real = is_real(vals)
    out = np.sort(vals[real].real)
    cutoff = abs(out[min(count, len(out)) - 1]) if len(out) else 0.0
    inside = vals[~real & (np.abs(vals) <= cutoff)]
    if len(inside):
        raise ValueError("complex pencil eigenvalues inside the requested range "
                         f"(worst {inside[0]:.6g}); increase the node counts")
    return Spectrum(out, "pencil", None, None,
                    flags={"solver": "arnoldi", "residual": residual, "matvecs": matvecs})


def _solve_self_adjoint(blocks):
    """Every sigma = 1/mu of the `SelfAdjoint` blocks, ascending.

    eigh solves each block's symmetric part S = (T + T^T) / 2 (the
    divide-and-conquer driver, all values: a subset cost more for 202 of
    440), and every pair must pass the residual gate against S.
    mu at most NULL_RTOL times the largest mu over the blocks (the rounding
    level, or below) gives no value. flags["solver"] is "eigh",
    flags["residual"] the largest relative residual and
    flags["asymmetry"] the largest max |T - T^T| / max |T| over the blocks.
    """
    mus, residual, asymmetry = [], 0.0, 0.0
    for block in blocks:
        T = block.matrix
        asymmetry = max(asymmetry, _asymmetry(T))
        S = T + T.T
        S *= 0.5
        mu, V = la.eigh(S, driver="evd")
        residual = max(residual, _residual_gate(S, None, mu, V)[0])
        mus.append(mu)
    mu = np.concatenate(mus)
    mu = mu[mu > NULL_RTOL * mu.max()]
    return Spectrum(np.sort(1.0 / mu), "pencil", None, None,
                    flags={"solver": "eigh", "residual": residual,
                           "asymmetry": asymmetry})


def _arnoldi(pencil, lu, k):
    """The k sigma of smallest modulus of a one-block pencil, from Arnoldi on
    A^-1 B with A's LU factor `lu`, the largest relative residual of the
    real pairs, and the operator applications."""
    A, B, n = pencil.A, pencil.B, pencil.n
    matvecs = 0

    def apply(x):
        nonlocal matvecs
        matvecs += 1
        return _getrs(lu, dgemv(1.0, B.T, x, trans=1), overwrite_b=True)

    op = spla.LinearOperator((n, n), dtype=float, matvec=apply)
    v0 = np.random.default_rng(LANCZOS_SEED).uniform(-1.0, 1.0, n)
    try:
        mu, V = spla.eigs(op, k, which="LM", v0=v0)
    except spla.ArpackError as exc:
        # no convergence, or a start vector that A^-1 B maps to zero
        raise ValueError(f"Arnoldi failed: {exc}")
    vals = 1.0 / mu
    real = is_real(vals)
    return vals, _residual_gate(A, B, vals[real], V[:, real])[0], matvecs


def _getrs(lu, b, overwrite_b=False):
    """A^-1 b from A's getrf factor `lu` = (lu, piv), by getrs; a nonzero
    info raises ValueError, as in lu_solve."""
    x, info = la.lapack.dgetrs(*lu, b, overwrite_b=overwrite_b)
    if info:
        raise ValueError(f"illegal value in {-info}th argument of internal getrs")
    return x


def is_real(vals):
    """Mask of the values whose imaginary part is at most REAL_RTOL of their
    modulus."""
    return np.abs(vals.imag) <= REAL_RTOL * np.maximum(np.abs(vals), 1e-300)


def solve_lowest(A, B, k, shift):
    """The k lowest eigenpairs of the sparse pencil A v = lambda B v.

    Needs A - shift*B symmetric positive definite and B symmetric positive
    semidefinite. Lanczos (ARPACK) runs on the definite pencil
    B v = nu (A - shift*B) v for its largest nu, and lambda = shift + 1/nu;
    directions in the null space of B have nu = 0 and drop out. Each step
    solves with C = A - shift*B through one sparse LU of C in SuperLU's
    symmetric mode (minimum-degree ordering of C^T + C, diagonal pivots).
    C is SPD, so its pivots stay positive without row exchanges, and the
    factor holds about half the fill of SuperLU's default (COLAMD, partial
    pivoting), which eigsh would build without `Minv`. A few more
    pairs than k are computed so that a cluster is not split at the cutoff.
    ARPACK stops at ||r|| <= RESIDUAL_GATE nu for r = C^-1 B v - nu v: as
    A v - lambda B v = -C r / nu, the gate's residual stays near the gate.
    Any ARPACK error raises ValueError. When the pencil is too small for
    ARPACK (k + PAD >= n - 1), a dense eigh solves the same pencil. Every
    returned pair must pass the residual gate. Returns (values ascending,
    B-normalized vectors, the largest and the per-pair residuals of
    `_residual_gate`, and the Lanczos solves with C, 0 if dense).
    """
    n = A.shape[0]
    C = sp.csc_matrix(A - shift * B)
    matvecs = 0
    if k + PAD >= n - 1:
        nu, V = la.eigh(B.toarray(), C.toarray())
    else:
        lu = spla.splu(C, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                       options={"SymmetricMode": True})

        def solve(x):
            nonlocal matvecs
            matvecs += 1
            return lu.solve(x)

        Cinv = spla.LinearOperator((n, n), matvec=solve, dtype=float)
        rng = np.random.default_rng(LANCZOS_SEED)
        try:
            nu, V = spla.eigsh(B, k + PAD, M=C, Minv=Cinv, which="LA",
                               v0=rng.uniform(-1.0, 1.0, n), rng=rng,
                               tol=RESIDUAL_GATE)
        except spla.ArpackError as exc:
            raise ValueError(f"Lanczos failed: {exc}")
    order = np.argsort(nu)[::-1][:k]
    nu, V = nu[order], V[:, order]
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
    scipy's BLAS, a complex V as the real block [Re V, Im V], recombined."""
    def norm1(M):
        return 1.0 if M is None else float(abs(M).sum(axis=0).max())

    if sp.issparse(A):
        AV, BV = A @ V, B @ V
    else:
        # numpy would upcast A and B to complex
        split = np.iscomplexobj(V)
        W = np.asfortranarray(np.hstack([V.real, V.imag]) if split else V)
        AV, BV = (W if M is None else dgemm(1.0, M.T, W, trans_a=1) for M in (A, B))
        if split:
            p = V.shape[1]
            AV, BV = (X[:, :p] + 1j * X[:, p:] for X in (AV, BV))
    r = np.linalg.norm(AV - BV * vals, axis=0)
    rel = r / ((norm1(A) + np.abs(vals) * norm1(B)) * np.linalg.norm(V, axis=0))
    # NaN fails every comparison: only a residual <= the gate passes
    if not np.all(rel <= RESIDUAL_GATE):
        j = int(np.argmax(rel))    # argmax finds a NaN first
        raise ValueError(f"eigenpair {j} relative residual {rel[j]:.2e} exceeds "
                         f"gate {RESIDUAL_GATE:.0e}")
    own = np.linalg.norm(AV, axis=0) + np.abs(vals) * np.linalg.norm(BV, axis=0)
    return float(rel.max(initial=0.0)), r / np.where(own > 0, own, 1.0)
