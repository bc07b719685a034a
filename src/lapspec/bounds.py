"""Eigenvalue bounds and mesh-sequence extrapolation.

The nonconforming (edge-midpoint) element underestimates Dirichlet
eigenvalues asymptotically, and a computable correction turns its output
into a guaranteed lower bound on polygons; conforming elements give upper
bounds by min-max. Running both over a refinement schedule yields a
two-sided bracket, and Richardson extrapolation of each column gives the
best single estimate together with an observed convergence rate.
"""
from collections import namedtuple

import numpy as np
from scipy.special import jn_zeros

from .fem import (KINDS, EigenProblemSpec, FemSpace, _constrained_markers,
                  build_mesh, solve_fem)
from .fem import assemble_stiffness  # noqa: F401 (bench/test_bench.py reads it)
from .geometry import refine

_J11 = float(jn_zeros(1, 1)[0])
KAPPA_SQ = 0.125 + 1.0 / _J11**2


def cr_lower_bound(lam_cr, h):
    """Guaranteed lower bound from a nonconforming eigenvalue.

    lam / (1 + kappa^2 h^2 lam) with kappa^2 = 1/8 + 1/j_{1,1}^2 and h the
    largest triangle diameter. Valid for the Dirichlet Laplacian on polygons
    (Carstensen & Gedicke, Math. Comp. 2014) and, at the positive discrete
    eigenvalues, for the pure-Neumann problem (Liu, Appl. Math. Comput.
    2015); `bracket_report` certifies the Dirichlet case only. Either way
    the discrete problem must be solved exactly; the algebraic solve is
    accurate to solver tolerance here, so pair the bound with the pencil
    residual when it matters.
    """
    lam_cr = float(lam_cr)
    h = float(h)
    if lam_cr <= 0 or h <= 0:
        raise ValueError("lower bound needs a positive eigenvalue and mesh size")
    return lam_cr / (1.0 + KAPPA_SQ * h**2 * lam_cr)


EXTRAPOLATE_FROM = 3   # levels behind every extrapolated value: Aitken takes three
Extrapolation = namedtuple("Extrapolation", "limit rate")


def richardson_extrapolate(values, hs):
    """Limit estimate from values on a halving mesh sequence.

    Fits v(h) = v* + C h^r on the finest three levels (a, b, c): r is the
    log2 ratio of the increments b - a and c - b, and v* follows by Aitken
    elimination. Coarser levels only have to halve the mesh size. When the
    two increments differ in sign or do not shrink (a rate of zero or less,
    which Aitken would extrapolate away from the data), the result is the
    finest value un-extrapolated, with rate nan.
    """
    v = np.asarray(values, dtype=float)
    h = np.asarray(hs, dtype=float)
    if v.shape != h.shape or v.ndim != 1 or len(v) < EXTRAPOLATE_FROM:
        raise ValueError("need matching 1-d arrays with at least "
                         f"{EXTRAPOLATE_FROM} levels")
    ratios = h[:-1] / h[1:]
    if np.any(h <= 0) or np.any(np.abs(ratios - 2.0) > 0.02):
        raise ValueError("mesh sizes must halve between consecutive levels")
    a, b, c = v[-3:]
    p, q = b - a, c - b
    if not (p * q > 0 and abs(p) > abs(q)):
        return Extrapolation(float(c), float("nan"))
    return Extrapolation(float(c - q ** 2 / (q - p)), float(np.log2(p / q)))


def extrapolated_spectrum(domain, spec):
    """Solve `spec` at the EXTRAPOLATE_FROM levels up to spec.level and
    extrapolate.

    Returns (limits, spectra): the Richardson limit of each of the
    spec.count eigenvalues over those levels, and the Spectrum of each
    level, coarsest first.
    """
    first = spec.level - EXTRAPOLATE_FROM + 1
    if first < 0:
        raise ValueError("three-level extrapolation needs spec.level >= "
                         f"{EXTRAPOLATE_FROM - 1}")
    spectra = [solve_fem(domain, EigenProblemSpec(spec.bc, spec.count,
                                                  kind=spec.kind, level=lvl))
               for lvl in range(first, spec.level + 1)]
    values = np.array([sp.eigenvalues for sp in spectra])
    hs = [sp.param for sp in spectra]
    limits = np.array([richardson_extrapolate(values[:, j], hs).limit
                       for j in range(spec.count)])
    return limits, spectra


def _infer_bc(domain):
    if domain.kind != "polygon":
        raise ValueError("bracket reports run on polygon domains")
    kinds = set(domain.markers)
    if kinds == {"dirichlet"}:
        return "dirichlet"
    if kinds == {"neumann"}:
        return "neumann"
    return "mixed"


def _pencil_residual(spectrum, index):
    """Pair `index`'s recorded residual (the bench tracer times this by name)."""
    return float(spectrum.flags["pair_residuals"][index - 1])


class BracketReport:
    """Two-sided eigenvalue localization over a refinement schedule.

    rows: one per level, (level, h, cr, cr_lower, p1, p2); cr_lower is nan
    when the lower-bound theorem does not apply (non-Dirichlet markers or a
    non-unit weight). extrapolated maps each eigenvalue column (cr, p1, p2)
    to an Extrapolation; cr_lower has none, since the Richardson limit of a
    lower bound is not a bound. enclosure is [max lower bound, min
    conforming value]; cr_residuals records the algebraic pencil residual
    behind each bound.
    """

    def __init__(self, domain, index, rows, extrapolated, cr_residuals, certified):
        self.domain = getattr(domain, "name", str(domain))
        self.index = index
        self.rows = rows
        self.extrapolated = extrapolated
        self.cr_residuals = cr_residuals
        self.certified = certified
        lowers = [r[3] for r in rows]
        uppers = [x for r in rows for x in (r[4], r[5])]
        self.enclosure = (max(lowers) if certified else float("nan"), min(uppers))

    @property
    def best(self):
        return self.extrapolated["p2"].limit

    def to_csv(self):
        lines = [f"# bracket report: domain={self.domain} index={self.index} "
                 f"certified={str(self.certified).lower()}",
                 f"# enclosure,{self.enclosure[0]!r},{self.enclosure[1]!r}"]
        lines += [f"# cr_pencil_residual,level_{lvl},{res:.3e}"
                  for (lvl, *_), res in zip(self.rows, self.cr_residuals)]
        lines.append("level,h,cr,cr_lower,p1,p2")
        for lvl, h, cr, lo, p1, p2 in self.rows:
            lines.append(f"{lvl},{h!r},{cr!r},{lo!r},{p1!r},{p2!r}")
        for col, ex in self.extrapolated.items():
            lines.append(f"extrapolated,{col},{ex.limit!r},{ex.rate!r}")
        return "\n".join(lines) + "\n"

    def __repr__(self):
        lo, hi = self.enclosure
        return (f"BracketReport({self.domain!r}, index={self.index}, "
                f"levels={len(self.rows)}, enclosure=[{lo:.6g}, {hi:.6g}])")


def first_level(domain, index, finest):
    """The coarsest level in 1..finest at which the CR, P1 and P2 spaces
    each have at least `index` free dofs, or None when no level does."""
    markers = _constrained_markers(_infer_bc(domain))
    mesh = build_mesh(domain, 0)
    for lvl in range(1, finest + 1):
        mesh = refine(mesh)
        if all(len(FemSpace(kind, mesh, markers).free) >= index
               for kind in KINDS):
            return lvl
    return None


def bracket_report(domain, index, levels):
    """Solve P1, P2, and edge-midpoint problems per level and bracket.

    The certified lower-bound column requires all-Dirichlet markers and the
    unit weight; any other volume problem still gets the observational
    columns. Levels must be consecutive so the mesh size halves.
    """
    levels = [int(l) for l in levels]
    if (len(levels) < EXTRAPOLATE_FROM
            or any(b - a != 1 for a, b in zip(levels, levels[1:]))):
        raise ValueError(f"need at least {EXTRAPOLATE_FROM} consecutive refinement levels")
    if index < 1:
        raise ValueError("eigenvalue index is 1-based")
    bc = _infer_bc(domain)
    certified = bc == "dirichlet" and domain.weight == "unit"
    rows, residuals = [], []
    for lvl in levels:
        mesh = build_mesh(domain, lvl)
        per_kind = {}
        for kind in ("CR", "P1", "P2"):
            spec = EigenProblemSpec(bc, index, kind=kind, level=lvl)
            per_kind[kind] = solve_fem(domain, spec, mesh=mesh)
        cr = float(per_kind["CR"].eigenvalues[index - 1])
        lo = cr_lower_bound(cr, mesh.h) if certified and cr > 0 else float("nan")
        rows.append((lvl, float(mesh.h), cr, lo,
                     float(per_kind["P1"].eigenvalues[index - 1]),
                     float(per_kind["P2"].eigenvalues[index - 1])))
        residuals.append(_pencil_residual(per_kind["CR"], index))
    hs = [r[1] for r in rows]
    extrapolated = {name: richardson_extrapolate([r[j] for r in rows], hs)
                    for name, j in (("cr", 2), ("p1", 4), ("p2", 5))}
    return BracketReport(domain, index, rows, extrapolated, residuals, certified)
