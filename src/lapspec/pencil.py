"""Generalized eigenvalue pencils: solvers and multiplicity clustering.

Sparse definite pencils (every FEM problem) go through one shift-invert
Lanczos path (ARPACK) with a residual gate. General pencils with a
well-conditioned B (the BIE Steklov problems) are reduced by one LU solve to
the standard problem B^-1 A and solved by Hessenberg QR (geev); an eigenvalue
whose imaginary part is at most REAL_RTOL of its modulus counts as real.
`solve_symdef`, a dense Cholesky-reduction solve (sygvd), is the dense
reference: no solver path calls it, the tests compare against it and the
benchmark tracer wraps it by name.
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

    def __init__(self, eigenvalues, method, param, domain, vectors=None, flags=None):
        self.eigenvalues = np.asarray(eigenvalues)
        self.method = method
        self.param = param
        self.domain = domain
        self.vectors = vectors
        self.flags = dict(flags or {})
        if np.isrealobj(self.eigenvalues):
            self.cluster_sizes = cluster(self.eigenvalues)[0]
        else:
            self.cluster_sizes = np.ones(len(self.eigenvalues), dtype=int)

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
    if not (_is_symmetric(pencil.A) and _is_symmetric(pencil.B)):
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
    eigenvalues arise. When every imaginary part is at most REAL_RTOL of its
    modulus the values are reported as reals, ascending; otherwise the
    complex list is sorted by modulus.
    """
    est = np.linalg.cond(pencil.B)
    if not np.isfinite(est) or est > COND_GATE:
        raise IllConditionedError(est)
    vals = la.eigvals(la.solve(pencil.B, pencil.A), overwrite_a=True)
    if np.all(is_real(vals)):
        out = np.sort(vals.real)
    else:
        out = vals[np.argsort(np.abs(vals))]
    return Spectrum(out, method, param, domain)


def is_real(vals):
    """Mask of the values whose imaginary part is at most REAL_RTOL of their
    modulus."""
    return np.abs(vals.imag) <= REAL_RTOL * np.maximum(np.abs(vals), 1e-300)


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
