"""Command-line driver: solve, compare, sweep, bounds, validate.

Artifacts are CSV (spectra, sweeps, bracket reports) plus an optional SVG
with nodal-line renderings; multiplicities are decided once, when
`spectrum.csv` is written (`pencil.cluster`). Exit codes: 0 success, 1 usage
error (an invalid flag value or domain), 2 numerical-quality rejection, 3
validation failure.
"""
import argparse
import os
import sys

import numpy as np

from . import __version__, bie, bounds, fem, geometry, mps, pencil, reference, specfun
from .bounds import EXTRAPOLATE_FROM

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_QUALITY = 2
EXIT_VALIDATE = 3

BCS = fem.EigenProblemSpec.BCS
# method -> (FEM element kind, boundary conditions, Domain.kind); the
# --method choices, the FEM kind and the printed matrix all come from here
METHODS = {"fem-p1": ("P1", BCS, "polygon"),
           "fem-p2": ("P2", BCS, "polygon"),
           "fem-cr": ("CR", BCS, "polygon"),
           "bie": (None, ("steklov",), "smooth-curves"),
           "mps": (None, ("dirichlet",), "polygon")}
FEM_METHODS = tuple(m for m, (kind, _, _) in METHODS.items() if kind)

COMPAT_MATRIX = "method / boundary-condition / domain compatibility:\n" + "".join(
    f"  {m:8} {' '.join(bcs):36} {kind} domains\n"
    for m, (_, bcs, kind) in METHODS.items())


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _positive_int(text):
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return v


def _nonnegative_int(text):
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return v


def _finite(text):
    v = float(text)
    if not np.isfinite(v):
        raise argparse.ArgumentTypeError(f"{text} is not a finite number")
    return v


def _positive_finite(text):
    v = _finite(text)
    if v <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return v


def _span(text):
    """a:b -> (a, b) with 0 < a < b"""
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected a:b")
    a, b = _finite(parts[0]), _finite(parts[1])
    if not 0 < a < b:
        raise argparse.ArgumentTypeError("need 0 < a < b")
    return a, b


def _grid(text):
    """a:b:n -> n evenly spaced values from a to b inclusive."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected start:stop:count")
    a, b, n = _finite(parts[0]), _finite(parts[1]), int(parts[2])
    if n < 2 or b <= a:
        raise argparse.ArgumentTypeError("need stop > start and count >= 2")
    return np.linspace(a, b, n)


def _lambda_grid(text):
    grid = _grid(text)
    if grid[0] <= 0:
        raise argparse.ArgumentTypeError("need start > 0")
    return grid


def _offset_grid(text):
    """Hole offsets from 0 up to a stop at which the annulus still builds."""
    grid = _grid(text)
    if grid[0] < 0:
        raise argparse.ArgumentTypeError("need start >= 0")
    try:
        geometry.annulus_domain(grid[-1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"offset {grid[-1]:g}: {exc}")
    return grid


def _extrapolation_levels(text):
    """A finest level from which the last three levels extrapolate."""
    v = _positive_int(text)
    if v < EXTRAPOLATE_FROM:
        raise argparse.ArgumentTypeError(f"must be at least {EXTRAPOLATE_FROM} "
                                         "to extrapolate")
    return v


def _node_count(text):
    """Nodes on one curve: the log-weight rule needs an even count."""
    v = int(text)
    if v % 2 or v < 4:
        raise argparse.ArgumentTypeError("node counts must be even and at least 4")
    return v


def _node_total(text):
    """Nodes over the two annulus circles, split evenly between them."""
    v = int(text)
    if v % 4 or v < 8:
        raise argparse.ArgumentTypeError("must be twice an even count of at least 4")
    return v


def _int_list(text):
    values = [int(t) for t in text.split(",") if t]
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    return values


def _index_list(text):
    """Distinct 1-based eigenvalue indices (index 0 would be a zero mode)."""
    values = _int_list(text)
    if min(values) < 1:
        raise argparse.ArgumentTypeError("indices start at 1")
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"index repeated in {text}")
    return values


def _corners(text):
    return text if text in ("singular", "reentrant") else _int_list(text)


def build_parser():
    top = _Parser(prog="lapspec",
                  description="Planar Laplace eigenvalue toolkit")
    top.add_argument("--config",
                     help="file of key = value lines, read as flags of the "
                          "command; flags typed after the command win")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", metavar="command")

    def common(p):
        p.add_argument("--out", default=None,
                       help="output directory (default $SPECTRA_OUT or cwd)")

    solve = sub.add_parser("solve", help="compute one spectrum", parents=[])
    solve.add_argument("--domain", required=True)
    solve.add_argument("--method", required=True, choices=METHODS)
    solve.add_argument("--bc", default="dirichlet", choices=BCS)
    solve.add_argument("--count", type=_positive_int, default=10)
    solve.add_argument("--levels", type=_positive_int, default=4,
                       help=f"finest refinement level; levels >= "
                            f"{EXTRAPOLATE_FROM} extrapolate over the last three")
    solve.add_argument("--n", type=_node_count, default=128,
                       help="quadrature nodes per boundary curve (bie)")
    solve.add_argument("--bracket", type=_span,
                       help="a:b eigenvalue bracket (mps)")
    solve.add_argument("--grid", type=_lambda_grid,
                       help="start:stop:count indicator sweep grid (mps)")
    solve.add_argument("--basis-size", type=_positive_int, default=14)
    solve.add_argument("--corners", type=_corners, default="singular",
                       help="mps fan placement: singular | reentrant "
                            "| comma-separated corner indices")
    solve.add_argument("--scale", type=_positive_finite, default=1.0,
                       help="dilate the domain before solving")
    solve.add_argument("--modes", type=_index_list,
                       help="render these eigenfunction indices to modes.svg")
    solve.add_argument("--seed", type=_nonnegative_int, default=mps.HALTON_OFFSET,
                       help="offset of the low-discrepancy interior sequence "
                            "(mps)")
    common(solve)

    comp = sub.add_parser("compare", help="isospectrality verdict for two domains")
    comp.add_argument("--domain-a", required=True)
    comp.add_argument("--domain-b", required=True)
    comp.add_argument("--method", choices=FEM_METHODS, default="fem-p2")
    comp.add_argument("--bc", default="dirichlet", choices=BCS)
    comp.add_argument("--count", type=_positive_int, default=10)
    comp.add_argument("--levels", type=_extrapolation_levels, default=5)
    common(comp)

    swp = sub.add_parser("sweep", help="eccentric-annulus Steklov sweep")
    swp.add_argument("--eps", type=_offset_grid, required=True,
                     help="start:stop:count eccentricity grid")
    swp.add_argument("--n", type=_node_total, default=660,
                     help="total quadrature nodes, split evenly over the "
                          "two circles")
    swp.add_argument("--k", type=_index_list, default=[1],
                     help="eigenvalue indices to track")
    common(swp)

    bnd = sub.add_parser("bounds", help="two-sided bracket report")
    bnd.add_argument("--domain", required=True)
    bnd.add_argument("--index", type=_positive_int, default=1)
    bnd.add_argument("--levels", type=_extrapolation_levels, default=5,
                     help="finest level; the schedule runs up to it from the "
                          "coarsest level at which every element space has "
                          "--index free dofs (level 1 for low indices)")
    common(bnd)

    val = sub.add_parser("validate", help="run the analytic-oracle suite")
    common(val)

    return top


def _config_flags(path):
    """Each `key = value` line of a config file as one `--key=value` flag."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"lapspec: cannot read --config {path}: {exc}")
    flags = []
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def parse_args(argv):
    """Parse argv. A --config file (given before the command) is read as
    flags placed straight after the command, so the parser checks its
    values like typed ones and the user's own flags, parsed later, win."""
    early = _Parser(prog="lapspec", add_help=False)
    early.add_argument("--config")
    early.add_argument("rest", nargs=argparse.REMAINDER)
    known, _ = early.parse_known_args(argv)
    if known.config and known.rest:
        cut = len(argv) - len(known.rest) + 1   # just after the command
        argv = argv[:cut] + _config_flags(known.config) + argv[cut:]
    args = build_parser().parse_args(argv)
    if args.command is None:
        raise UsageError("missing command (solve, compare, sweep, bounds, validate)")
    return args


def _outdir(args):
    out = args.out or os.environ.get("SPECTRA_OUT") or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"lapspec: --out {out} is not a usable directory: {exc}")
    return out


def _load_domain(method, bc, name, scale=1.0, command=None):
    """The named domain, if METHODS lists `bc` and its kind for `method`;
    the boundary condition is checked before the domain file is read. A
    domain that cannot be loaded, validated or scaled is a usage error, and
    so is a non-unit weight for MPS or a Steklov problem. A `command` that
    picks `method` itself is named when the domain's kind does not fit."""
    _, bcs, kind = METHODS[method]
    if bc not in bcs:
        raise UsageError(f"{method} computes {' '.join(bcs)} spectra only\n"
                         + COMPAT_MATRIX)
    try:
        dom = geometry.load_domain(name)
        if dom.kind != kind:
            who = f"lapspec {command}:" if command else method
            raise UsageError(f"{who} needs a {kind} domain\n" + COMPAT_MATRIX)
        if dom.weight != "unit" and (method == "mps" or bc == "steklov"):
            raise UsageError(f"lapspec: {name} has weight {dom.weight}; --method "
                             f"{method} with --bc {bc} solves the unit weight only")
        return dom.scaled(scale) if scale != 1.0 else dom
    except ValueError as exc:
        raise UsageError(f"lapspec: invalid domain {name}: {exc}")


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _write_csv(out, name, header, rows):
    """The CSV file `name` in `out`: the header line, then each row's cells
    joined by commas. Float cells are Python floats, whose str is their
    shortest round-trip repr."""
    lines = [header] + [",".join(map(str, row)) for row in rows]
    _write(os.path.join(out, name), "\n".join(lines) + "\n")


def _write_spectrum(out, values, method, param, domain):
    """spectrum.csv, one row per value: each row carries the mean and the
    size of its multiplicity cluster (pencil.cluster)."""
    sizes, means = pencil.cluster(np.asarray(values, dtype=float))
    rows = zip(np.repeat(means, sizes), np.repeat(sizes, sizes))
    _write_csv(out, "spectrum.csv",
               "index,eigenvalue,multiplicity,method,param,domain,version",
               [(idx, float(mean), size, method, param, domain, __version__)
                for idx, (mean, size) in enumerate(rows, 1)])


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def cmd_solve(args):
    if args.modes and args.method not in FEM_METHODS:
        raise UsageError("lapspec solve: --modes renders FEM eigenfunctions; "
                         f"--method {args.method} computes none")
    if args.modes and max(args.modes) > args.count:
        raise UsageError(f"lapspec solve: --modes index {max(args.modes)} "
                         f"exceeds --count {args.count}")
    dom = _load_domain(args.method, args.bc, args.domain, args.scale)
    if args.method == "mps":
        return _solve_mps(dom, args)
    out = _outdir(args)

    if args.method == "bie":
        spectrum = bie.solve_steklov_bie(dom, args.n, count=args.count)
        _write_spectrum(out, spectrum.eigenvalues, "bie", f"n={args.n}", dom.name)
        return EXIT_OK

    top = args.levels
    spec = fem.EigenProblemSpec(args.bc, args.count, kind=METHODS[args.method][0],
                                level=top)
    if top < EXTRAPOLATE_FROM:
        finest = fem.solve_fem(dom, spec)
        vals, param = finest.eigenvalues, f"h={float(finest.param)!r}"
    else:
        vals, spectra = bounds.extrapolated_spectrum(dom, spec)
        finest = spectra[-1]
        param = (f"levels={spectra[0].flags['level']}-{top};"
                 f"h={float(finest.param)!r};extrapolated")
    _write_spectrum(out, vals, finest.method, param, dom.name)
    if args.modes:
        svg = render_modes_svg(finest, args.modes)
        _write(os.path.join(out, "modes.svg"), svg)
    return EXIT_OK


def _solve_mps(dom, args):
    if args.bracket is None and args.grid is None:
        raise UsageError("mps needs --bracket a:b and/or --grid a:b:n")
    try:
        basis = mps.corner_basis(dom, args.basis_size, corners=args.corners)
    except ValueError as exc:
        raise UsageError(f"lapspec solve: invalid --basis-size or --corners: {exc}")
    out = _outdir(args)
    if args.grid is not None:
        _write_csv(out, "smin.csv", "lambda,smin",
                   mps.sigma_min_sweep(dom, basis, args.grid, offset=args.seed))
    if args.bracket is not None:
        lam_h, coeff = mps.refine_minimum(dom, basis, args.bracket,
                                          offset=args.seed)
        enc = mps.fhm_enclosure(dom, lam_h, coeff, basis)
        _write_csv(out, "enclosure.csv", "lambda_h,lower,upper,epsilon,caveat",
                   [(enc.lambda_h, enc.lower, enc.upper, enc.epsilon,
                     str(enc.caveat).lower())])
        krec = "+".join(str(fan.size) for fan in basis)
        _write_spectrum(out, [lam_h], "mps", f"K={krec};eps={enc.epsilon:.3e}",
                        dom.name)
        print(f"lambda_h = {lam_h!r}  enclosure = [{enc.lower!r}, {enc.upper!r}]")
    return EXIT_OK


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def compare_domains(dom_a, dom_b, bc, count, top_level, kind="P2"):
    """Per-index verdicts from extrapolated spectra of two domains.

    Each domain's uncertainty width is the distance from the finest-level
    value to the extrapolated limit, floored at one part in 1e4 of the
    value: claiming less would overstate what mesh extrapolation of
    corner-singular eigenfunctions can certify. Verdict per index is
    "consistent-with-equal" when the gap is within the combined widths.
    """
    def limits_and_widths(dom):
        spec = fem.EigenProblemSpec(bc, count, kind=kind, level=top_level)
        limits, spectra = bounds.extrapolated_spectrum(dom, spec)
        return limits, np.maximum(np.abs(limits - spectra[-1].eigenvalues),
                                  1e-4 * np.abs(limits))

    (la, wa), (lb, wb) = limits_and_widths(dom_a), limits_and_widths(dom_b)
    rows = []
    for j in range(count):
        gap = abs(la[j] - lb[j])
        verdict = "consistent-with-equal" if gap <= wa[j] + wb[j] else "distinct"
        rows.append((j + 1, float(la[j]), float(lb[j]),
                     float(wa[j]), float(wb[j]), verdict))
    overall = "distinct" if any(r[-1] == "distinct" for r in rows) \
        else "consistent-with-equal"
    return rows, overall


def cmd_compare(args):
    dom_a = _load_domain(args.method, args.bc, args.domain_a)
    dom_b = _load_domain(args.method, args.bc, args.domain_b)
    out = _outdir(args)
    rows, overall = compare_domains(dom_a, dom_b, args.bc, args.count,
                                    args.levels, kind=METHODS[args.method][0])
    for idx, va, vb, _, _, verdict in rows:
        print(f"  {idx:3d}: {va:.6f} vs {vb:.6f}  -> {verdict}")
    print(f"overall verdict: {overall}")
    _write_csv(out, "compare.csv", "index,value_a,value_b,width_a,width_b,verdict",
               rows + [("overall", "", "", "", "", overall)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep / bounds / validate
# ---------------------------------------------------------------------------

def cmd_sweep(args):
    out = _outdir(args)
    per_curve = (args.n // 2, args.n // 2)
    rows = bie.sweep_annulus(args.eps, per_curve, args.k)
    _write_csv(out, "sweep.csv", "eps,k,sigma,ratio_to_concentric,N", rows)
    for k in args.k:
        sig = [r[2] for r in rows if r[1] == k]
        mono = all(b < a for a, b in zip(sig, sig[1:]))
        print(f"sigma_{k}: strictly decreasing over the grid: {mono}")
    return EXIT_OK


def cmd_bounds(args):
    # the report solves dirichlet problems with CR, P1 and P2 alike
    dom = _load_domain("fem-p2", "dirichlet", args.domain, command="bounds")
    first = bounds.first_level(dom, args.index, args.levels)
    if first is None or args.levels - first + 1 < EXTRAPOLATE_FROM:
        reached = (f"first at level {first}" if first else
                   f"at no level up to {args.levels}")
        raise UsageError(f"lapspec bounds: --index {args.index} needs {args.index} "
                         f"free dofs in each of the CR, P1 and P2 spaces, {reached}; "
                         f"--levels {args.levels} must leave at least "
                         f"{EXTRAPOLATE_FROM} levels from there")
    out = _outdir(args)
    report = bounds.bracket_report(dom, args.index, range(first, args.levels + 1))
    _write(os.path.join(out, "bracket.csv"), report.to_csv())
    print(report)
    return EXIT_OK


def _validation_checks():
    sq = geometry.load_domain("unit-square")

    def disk_bie():
        disk = geometry.load_domain("unit-disk")
        got = bie.solve_steklov_bie(disk, 128, count=7).eigenvalues[:7]
        want = reference.disk_spectra("steklov", count=7).values[:7]
        return float(np.abs(got - want).max()), 1e-9

    def annulus_bie():
        dom = bie.annulus_domain(0.0)
        got = bie.solve_steklov_bie(dom, 128, count=12).eigenvalues[:12]
        want = reference.concentric_annulus_steklov(0.1, count=12).values[:12]
        return float(np.abs(got - want).max()), 1e-9

    def square_p1():
        spec = fem.EigenProblemSpec("dirichlet", 1, kind="P1", level=4)
        got = fem.solve_fem(sq, spec).eigenvalues[0]
        return abs(got - 2 * np.pi**2) / (2 * np.pi**2), 2e-2

    def square_p2():
        spec = fem.EigenProblemSpec("dirichlet", 3, kind="P2", level=4)
        got = fem.solve_fem(sq, spec).eigenvalues[:3]
        want = reference.rectangle_spectra("dirichlet", count=3).values[:3]
        return float(np.abs(got / want - 1).max()), 1e-3

    def square_neumann():
        spec = fem.EigenProblemSpec("neumann", 4, kind="P2", level=3)
        got = fem.solve_fem(sq, spec).eigenvalues[:4]
        want = reference.rectangle_spectra("neumann", count=4).values[:4]
        return float(np.abs(got - want).max()), 1e-2

    def square_mps():
        basis = mps.corner_basis(sq, size=12)
        lam_h, _ = mps.refine_minimum(sq, basis, (19, 21))
        return abs(lam_h - 2 * np.pi**2), 1e-6

    def square_bracket():
        lo, hi = bounds.bracket_report(sq, 1, [1, 2, 3]).enclosure
        ok = lo <= 2 * np.pi**2 <= hi
        return (0.0 if ok else 1.0), 0.5

    def bessel_half_order():
        # J_{1/2}(x) = sqrt(2/(pi x)) sin x
        x = np.linspace(0.5, 60.0, 400)
        closed = np.sqrt(2.0 / (np.pi * x)) * np.sin(x)
        return float(np.abs(specfun.bessel_j(0.5, x) - closed).max()), 1e-12

    return [("bie disk steklov vs closed form", disk_bie),
            ("bie concentric annulus vs closed form", annulus_bie),
            ("fem p1 square dirichlet lowest", square_p1),
            ("fem p2 square dirichlet triple", square_p2),
            ("fem p2 square neumann quadruple", square_neumann),
            ("mps square lowest eigenvalue", square_mps),
            ("bounds square two-sided bracket", square_bracket),
            ("specfun half-order bessel vs closed form", bessel_half_order)]


def cmd_validate(args):
    failures = []
    for name, check in _validation_checks():
        try:
            err, tol = check()
            ok = err <= tol
        except Exception as exc:  # a crash is a failure, not an abort
            err, tol, ok = float("nan"), float("nan"), False
            print(f"FAIL {name}: raised {exc!r}")
        if ok:
            print(f"PASS {name}: error {err:.3e} <= {tol:.1e}")
        else:
            failures.append(name)
            print(f"FAIL {name}: error {err:.3e} > {tol:.1e}")
    if failures:
        print(f"{len(failures)} validation failure(s): {', '.join(failures)}")
        return EXIT_VALIDATE
    print("all validation checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# SVG rendering
# ---------------------------------------------------------------------------

def _vertex_values(spectrum, column):
    space = spectrum.space
    mesh = space.mesh
    vec = spectrum.vectors[:, column]
    nv = len(mesh.vertices)
    if space.kind in ("P1", "P2"):
        return vec[:nv]
    # edge-midpoint dofs: average onto vertices for display
    ends = mesh.edges.ravel()
    vals = np.bincount(ends, weights=np.repeat(vec, 2), minlength=nv)
    hits = np.bincount(ends, minlength=nv)
    return vals / np.maximum(hits, 1)


def _nodal_segments(mesh, values):
    segs = []
    for tri in mesh.triangles:
        pts = mesh.vertices[tri]
        f = values[tri]
        cuts = []
        for i in range(3):
            a, b = i, (i + 1) % 3
            fa, fb = f[a], f[b]
            if fa == 0.0 and fb == 0.0:
                cuts = [pts[a], pts[b]]
                break
            if (fa < 0) != (fb < 0):
                t = fa / (fa - fb)
                cuts.append(pts[a] + t * (pts[b] - pts[a]))
        if len(cuts) == 2:
            segs.append((cuts[0], cuts[1]))
    return segs


def render_modes_svg(spectrum, indices):
    """Nodal lines of the selected modes, one panel per index."""
    size = 240   # side of one panel, in pixels
    mesh = spectrum.space.mesh
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    span = float(max(hi - lo))
    pad = 0.05 * span

    def fit(p, panel):
        x = (p[0] - lo[0] + pad) / (span + 2 * pad) * size + panel * (size + 10)
        y = size - (p[1] - lo[1] + pad) / (span + 2 * pad) * size
        return x, y

    width = len(indices) * (size + 10)
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{size + 20}" viewBox="0 0 {width} {size + 20}">']
    for panel, idx in enumerate(indices):
        if idx < 1 or idx > spectrum.vectors.shape[1]:
            raise ValueError(f"mode index {idx} out of range")
        vals = _vertex_values(spectrum, idx - 1)
        outline = " ".join(f"{fit(p, panel)[0]:.2f},{fit(p, panel)[1]:.2f}"
                           for p in mesh.vertices[mesh.boundary_edges[:, 0]])
        parts.append(f'<polygon points="{outline}" fill="#f7f7f7" '
                     f'stroke="#444" stroke-width="1"/>')
        for a, b in _nodal_segments(mesh, vals):
            xa, ya = fit(a, panel)
            xb, yb = fit(b, panel)
            parts.append(f'<line x1="{xa:.2f}" y1="{ya:.2f}" x2="{xb:.2f}" '
                         f'y2="{yb:.2f}" stroke="#1465c0" stroke-width="1.2"/>')
        lam = spectrum.eigenvalues[idx - 1]
        parts.append(f'<text x="{panel * (size + 10) + 4}" y="{size + 14}" '
                     f'font-size="11" font-family="monospace">#{idx} '
                     f'{lam:.5g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {"solve": cmd_solve, "compare": cmd_compare, "sweep": cmd_sweep,
             "bounds": cmd_bounds, "validate": cmd_validate}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parse_args(argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"numerical-quality rejection: {exc}", file=sys.stderr)
        return EXIT_QUALITY


if __name__ == "__main__":
    sys.exit(main())
