"""Generalized eigenvalue pencils: solvers, and the clustering the CLI prints.

Sparse definite pencils (every FEM problem) go through one shift-invert
Lanczos path (ARPACK) with a residual gate. Every caller shifts below the
spectrum, so C = A - shift*B is symmetric positive definite and needs no
pivoting for stability: SuperLU factors C once in symmetric mode
(minimum-degree ordering of C^T + C, diagonal pivots), and that factor
serves every Lanczos step. General pencils (the BIE Steklov problems)
first factor B by LU; its 1-norm condition estimate (gecon) admits a
well-conditioned B, and only a B near the gate costs an exact 2-norm
condition number. They then take one of two routes, chosen by size: when a
few values of smallest modulus are wanted (8 (count + PAD) <= n),
shift-invert Arnoldi (ARPACK) runs on A^-1 B from one LU of A, and its pairs
pass the residual gate; otherwise B's LU reduces the pencil to the standard
problem B^-1 A, solved whole by Hessenberg QR (geev) without vectors and
without the gate. Either way solve_general returns only the values that
are real to REAL_RTOL, and rejects a non-real one inside the requested range.
`solve_symdef`, a dense Cholesky-reduction solve (sygvd), is the dense
reference: no solver path calls it, the tests compare against it and the
benchmark tracer wraps it by name.
"""
import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

CLUSTER_RTOL = 1e-6    # relative gap up to which cluster() merges neighbors
RESIDUAL_GATE = 1e-9   # largest relative residual accepted from any solver
PAD = 4                # extra Lanczos pairs beyond the k requested
LANCZOS_SEED = 1234
NULL_RTOL = 1e-12      # nu below this fraction of the largest is infinite lambda
COND_GATE = 1e12       # largest 2-norm condition number of B that solve_general takes
REAL_RTOL = 1e-6       # |imag| at most this fraction of |value| counts as real


class IllConditionedError(ValueError):
    """B is too ill-conditioned for solve_general; `cond` is its 2-norm
    condition number."""

    def __init__(self, cond):
        super().__init__(f"B condition number {cond:.2e} exceeds {COND_GATE:.2g}")
        self.cond = cond


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


def _is_symmetric(M):
    scale = np.abs(M).max() or 1.0
    return np.abs(M - M.T).max() <= 1e-12 * scale


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
    if not (_is_symmetric(pencil.A) and _is_symmetric(pencil.B)):
        raise ValueError("solve_symdef needs symmetric A and B")
    try:
        vals, vecs = la.eigh(pencil.A, pencil.B)
    except la.LinAlgError as exc:
        raise ValueError(f"B is not positive definite to working precision: {exc}")
    residual, _ = _residual_gate(pencil.A, pencil.B, vals, vecs)
    return Spectrum(vals, "pencil", None, None, vectors=vecs,
                    flags={"residual": residual})


def solve_general(pencil, count):
    """Real eigenvalues of a general square pencil A v = sigma B v, ascending.

    B must have a 2-norm condition number of at most COND_GATE, otherwise
    IllConditionedError is raised; B is then nonsingular and no infinite
    eigenvalues arise. The gate reads LAPACK's estimate rcond of
    1 / kappa_1(B) from one LU of B: since kappa_2 <= n kappa_1, B passes
    when 100 n / rcond <= COND_GATE, which errs only if the estimate is over
    100 times low. Any other B takes its exact condition number from its
    singular values, and IllConditionedError carries that value. When
    8 (count + PAD) <= n, Arnoldi (ARPACK) on x -> A^-1 B x, from one LU of
    A and a fixed start vector, computes the count + PAD values of smallest
    modulus as sigma = 1/mu, and its real pairs must pass the residual gate.
    Otherwise eigvals of B^-1 A, formed from B's LU, computes all n values,
    ungated. Of these, a non-real value (`is_real`) no larger in modulus than
    the count-th real value, or the largest when fewer are real, raises
    ValueError, which names the smallest one; the others are dropped. A
    count below 1 raises ValueError. flags["solver"] is "arnoldi" or
    "lu-eigvals"; the Arnoldi route also records its largest relative
    residual in flags["residual"].
    """
    if count < 1:
        raise ValueError("solve_general needs a count of at least 1")
    A, B, n = pencil.A, pencil.B, pencil.n
    # getrf itself: lu_factor warns on an exactly zero pivot (info > 0)
    luB, piv, info = la.lapack.dgetrf(B)
    rcond = 0.0 if info else la.lapack.dgecon(luB, np.abs(B).sum(axis=0).max())[0]
    if not (rcond > 0 and 100 * n / rcond <= COND_GATE):
        sv = la.svdvals(B)
        cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
        if not np.isfinite(cond) or cond > COND_GATE:
            raise IllConditionedError(cond)
    # Arnoldi pays only for a few values: 205 of n = 879 took 2.1 s against
    # 0.8 s for the dense route
    if 8 * (count + PAD) <= n:
        lu = la.lu_factor(A)
        op = spla.LinearOperator((n, n), dtype=float,
                                 matvec=lambda x: la.lu_solve(lu, B @ x))
        v0 = np.random.default_rng(LANCZOS_SEED).uniform(-1.0, 1.0, n)
        try:
            mu, V = spla.eigs(op, count + PAD, which="LM", v0=v0)
        except spla.ArpackNoConvergence as exc:
            raise ValueError(f"Arnoldi did not converge: {exc}")
        vals = 1.0 / mu
        real = is_real(vals)
        flags = {"solver": "arnoldi",
                 "residual": _residual_gate(A, B, vals[real], V[:, real])[0]}
    else:
        vals = la.eigvals(la.lu_solve((luB, piv), A), overwrite_a=True)
        flags = {"solver": "lu-eigvals"}
    vals = vals[np.argsort(np.abs(vals))]
    real = is_real(vals)
    out = np.sort(vals[real].real)
    cutoff = abs(out[min(count, len(out)) - 1]) if len(out) else 0.0
    inside = vals[~real & (np.abs(vals) <= cutoff)]
    if len(inside):
        raise ValueError("complex pencil eigenvalues inside the requested range "
                         f"(worst {inside[0]:.6g}); increase the node counts")
    return Spectrum(out, "pencil", None, None, flags=flags)


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
    When the pencil is too small for ARPACK (k + PAD >= n - 1), a dense eigh
    solves the same pencil. Every returned pair must pass the residual gate.
    Returns (values ascending, B-normalized vectors, and the largest and the
    per-pair residuals of `_residual_gate`).
    """
    n = A.shape[0]
    C = sp.csc_matrix(A - shift * B)
    if k + PAD >= n - 1:
        nu, V = la.eigh(B.toarray(), C.toarray())
    else:
        lu = spla.splu(C, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
                       options={"SymmetricMode": True})
        Cinv = spla.LinearOperator((n, n), matvec=lu.solve, dtype=float)
        rng = np.random.default_rng(LANCZOS_SEED)
        try:
            nu, V = spla.eigsh(B, k + PAD, M=C, Minv=Cinv, which="LA",
                               v0=rng.uniform(-1.0, 1.0, n), rng=rng)
        except spla.ArpackNoConvergence as exc:
            raise ValueError(f"Lanczos did not converge: {exc}")
    order = np.argsort(nu)[::-1][:k]
    nu, V = nu[order], V[:, order]
    # nu at rounding level belongs to the null space of B (lambda = inf)
    if not nu[-1] > NULL_RTOL * nu[0]:
        raise ValueError(f"B has fewer than {k} directions off its null space: "
                         f"cannot return {k} finite eigenvalues")
    vals = shift + 1.0 / nu
    # V is (A - shift B)-orthonormal, so v^T B v = nu
    V = V / np.sqrt(nu)
    return (vals, V, *_residual_gate(A, B, vals, V))


def _residual_gate(A, B, vals, V):
    """Largest ||Av - lambda Bv|| / ((||A||_1 + |lambda| ||B||_1) ||v||) over
    the pairs, raising ValueError when a pair exceeds RESIDUAL_GATE, and each
    pair's own-term ||Av - lambda Bv|| / (||Av|| + |lambda| ||Bv||), 0 if 0/0."""
    def norm1(M):
        return float(abs(M).sum(axis=0).max())

    AV, BV = A @ V, B @ V
    r = np.linalg.norm(AV - BV * vals, axis=0)
    rel = r / ((norm1(A) + np.abs(vals) * norm1(B)) * np.linalg.norm(V, axis=0))
    if np.any(rel > RESIDUAL_GATE):
        j = int(np.argmax(rel))
        raise ValueError(f"eigenpair {j} relative residual {rel[j]:.2e} exceeds "
                         f"gate {RESIDUAL_GATE:.0e}")
    own = np.linalg.norm(AV, axis=0) + np.abs(vals) * np.linalg.norm(BV, axis=0)
    return float(rel.max(initial=0.0)), r / np.where(own > 0, own, 1.0)
