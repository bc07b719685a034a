"""Generalized eigenvalue pencils: dense solvers, clustering, subspace gap.

Dense symmetric-definite solves go through LAPACK's Cholesky-reduction path
(sygvd): B = LL^T, reduce to a standard symmetric problem, tridiagonalize,
implicit-shift QR. General pencils with a well-conditioned B are reduced by
one LU solve to the standard problem B^-1 A and solved by Hessenberg QR
(geev). Sparse definite pencils go through one shift-invert Lanczos path
(ARPACK) with a residual gate.
"""
import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DEFAULT_CLUSTER_RTOL = 1e-6
RESIDUAL_GATE = 1e-9   # largest relative residual accepted from any solver
PAD = 4                # extra Lanczos pairs beyond the k requested
LANCZOS_SEED = 1234
NULL_RTOL = 1e-12      # nu below this fraction of the largest is infinite lambda
COND_GATE = 1e12       # largest 2-norm condition number of B that solve_general takes


class IllConditionedError(ValueError):
    """B is too ill-conditioned for solve_general; `cond` is its 2-norm
    condition number."""

    def __init__(self, cond):
        super().__init__(f"B condition number {cond:.2e} exceeds {COND_GATE:.2g}")
        self.cond = cond


class Pencil:
    """Pair (A, B) for the problem A v = lambda B v, with verified flags."""

    def __init__(self, A, B, b_definiteness="none"):
        A = np.asarray(A, dtype=float)
        B = np.asarray(B, dtype=float)
        if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("A and B must be square matrices of equal size")
        self.A, self.B = A, B
        self.sym_a = _is_symmetric(A)
        self.sym_b = _is_symmetric(B)
        if b_definiteness not in ("positive-definite", "positive-semidefinite", "none"):
            raise ValueError(f"unknown definiteness flag {b_definiteness!r}")
        self.b_definiteness = b_definiteness

    @property
    def n(self):
        return self.A.shape[0]


def _is_symmetric(M):
    scale = np.abs(M).max() or 1.0
    return np.abs(M - M.T).max() <= 1e-12 * scale


def cluster(values, rtol=DEFAULT_CLUSTER_RTOL):
    """Group an ascending array into multiplicity clusters.

    Two neighbors belong to one cluster when their gap is at most
    rtol * max(1, |value|); returns (cluster sizes, cluster means).
    """
    values = np.asarray(values)
    if len(values) == 0:
        return np.array([], dtype=int), np.array([])
    sizes, means = [], []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or (values[i] - values[i - 1]
                                > rtol * max(1.0, abs(values[i]))):
            sizes.append(i - start)
            means.append(values[start:i].mean())
            start = i
    return np.array(sizes, dtype=int), np.array(means)


class Spectrum:
    """Ascending eigenvalue list with multiplicity clustering and provenance."""

    def __init__(self, eigenvalues, method, param, domain, vectors=None,
                 cluster_rtol=DEFAULT_CLUSTER_RTOL, flags=None):
        self.eigenvalues = np.asarray(eigenvalues)
        self.method = method
        self.param = param
        self.domain = domain
        self.vectors = vectors
        self.cluster_rtol = cluster_rtol
        self.flags = dict(flags or {})
        if np.isrealobj(self.eigenvalues):
            sizes, means = cluster(self.eigenvalues, cluster_rtol)
            self.cluster_sizes = sizes
            self.cluster_means = means
        else:
            self.cluster_sizes = np.ones(len(self.eigenvalues), dtype=int)
            self.cluster_means = self.eigenvalues

    def __len__(self):
        return len(self.eigenvalues)

    def __getitem__(self, k):
        return self.eigenvalues[k]

    def multiplicity_pattern(self):
        return list(self.cluster_sizes)

    def __repr__(self):
        head = ", ".join(f"{v:.6g}" for v in self.eigenvalues[:6])
        return (f"Spectrum[{self.method}]({len(self)} values: {head}"
                f"{', ...' if len(self) > 6 else ''})")


def solve_symdef(pencil, method="pencil", param=None, domain=None):
    """All eigenpairs of a symmetric-definite pencil, ascending, B-orthonormal."""
    if not (pencil.sym_a and pencil.sym_b):
        raise ValueError("solve_symdef needs symmetric A and B")
    try:
        vals, vecs = la.eigh(pencil.A, pencil.B)
    except la.LinAlgError as exc:
        raise ValueError(f"B is not positive definite to working precision: {exc}")
    residual = _residual_gate(pencil.A, pencil.B, vals, vecs)
    return Spectrum(vals, method, param, domain, vectors=vecs,
                    flags={"residual": residual})


def solve_general(pencil, method="pencil", param=None, domain=None):
    """Eigenvalues of a general square pencil by LU reduction to B^-1 A.

    B must have a 2-norm condition number of at most COND_GATE, otherwise
    IllConditionedError is raised; B is then nonsingular and no infinite
    eigenvalues arise. Real pairs are reported as reals when the imaginary
    part is at most 1e-8 of the modulus; the full list is sorted by modulus,
    real lists ascending.
    """
    est = np.linalg.cond(pencil.B)
    if not np.isfinite(est) or est > COND_GATE:
        raise IllConditionedError(est)
    vals = la.eigvals(la.solve(pencil.B, pencil.A), overwrite_a=True)
    mod = np.abs(vals)
    realish = np.abs(vals.imag) <= 1e-8 * np.maximum(mod, 1e-300)
    if np.all(realish):
        out = np.sort(vals.real)
    else:
        out = vals[np.argsort(mod)]
    return Spectrum(out, method, param, domain)


def subspace_gap(U, V, gram=None):
    """Symmetrized subspace distance delta-hat(U, V) in [0, 1].

    delta(U, V) is the sup over unit u in span(U) of the distance to span(V),
    measured in the inner product given by `gram` (identity by default).
    """
    U = np.atleast_2d(np.asarray(U, dtype=float))
    V = np.atleast_2d(np.asarray(V, dtype=float))
    if U.shape[0] != V.shape[0]:
        raise ValueError("U and V must share the ambient dimension")
    if gram is not None:
        L = la.cholesky(gram, lower=True)
        U = L.T @ U
        V = L.T @ V
    Qu = _orthonormal(U, "U")
    Qv = _orthonormal(V, "V")

    def delta(Qa, Qb):
        if Qa.shape[1] > Qb.shape[1]:
            return 1.0
        s = la.svd(Qb.T @ Qa, compute_uv=False)
        smin = s.min() if len(s) else 1.0
        return float(np.sqrt(max(0.0, 1.0 - min(1.0, smin) ** 2)))

    return max(delta(Qu, Qv), delta(Qv, Qu))


def _orthonormal(M, label):
    q, r = la.qr(M, mode="economic")
    d = np.abs(np.diag(r))
    if d.min() <= 1e-12 * max(1.0, d.max()):
        raise ValueError(f"{label} block is rank deficient")
    return q


def solve_lowest(A, B, k, shift):
    """The k lowest eigenpairs of the sparse pencil A v = lambda B v.

    Needs A - shift*B symmetric positive definite and B symmetric positive
    semidefinite. Lanczos (ARPACK) runs on the definite pencil
    B v = nu (A - shift*B) v for its largest nu, and lambda = shift + 1/nu;
    directions in the null space of B have nu = 0 and drop out. A few more
    pairs than k are computed so that a cluster is not split at the cutoff.
    When the pencil is too small for ARPACK (k + PAD >= n - 1), a dense eigh
    solves the same pencil. Every returned pair must pass the residual gate.
    Returns (values ascending, B-normalized vectors, largest relative
    residual).
    """
    n = A.shape[0]
    C = sp.csc_matrix(A - shift * B)
    if k + PAD >= n - 1:
        nu, V = la.eigh(B.toarray(), C.toarray())
    else:
        rng = np.random.default_rng(LANCZOS_SEED)
        try:
            nu, V = spla.eigsh(B, k + PAD, M=C, which="LA",
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
    return vals, V, _residual_gate(A, B, vals, V)


def _residual_gate(A, B, vals, V):
    """Largest ||Av - lambda Bv|| / ((||A||_1 + |lambda| ||B||_1) ||v||) over
    the pairs; raises ValueError when a pair exceeds RESIDUAL_GATE."""
    def norm1(M):
        return float(abs(M).sum(axis=0).max())

    R = A @ V - (B @ V) * vals
    scale = (norm1(A) + np.abs(vals) * norm1(B)) * np.linalg.norm(V, axis=0)
    rel = np.linalg.norm(R, axis=0) / scale
    if np.any(rel > RESIDUAL_GATE):
        j = int(np.argmax(rel))
        raise ValueError(f"eigenpair {j} relative residual {rel[j]:.2e} exceeds "
                         f"gate {RESIDUAL_GATE:.0e}")
    return float(rel.max())
