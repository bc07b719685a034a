"""Command-line driver: solve, compare, sweep, bounds, validate.

Artifacts are CSV (spectra, sweeps, bracket reports) plus an optional SVG
with nodal-line renderings. Exit codes: 0 success, 1 usage error, 2
numerical-quality rejection, 3 validation failure.
"""
import argparse
import os
import sys

import numpy as np

from . import __version__, bie, bounds, fem, geometry, mps, pencil, reference, specfun

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_QUALITY = 2
EXIT_VALIDATE = 3

METHODS = ("fem-p1", "fem-p2", "fem-cr", "bie", "mps")
EXTRAPOLATE_FROM = 3   # smallest --levels at which solve and compare extrapolate

COMPAT_MATRIX = """\
method / boundary-condition compatibility:
  fem-p1   dirichlet neumann mixed steklov      polygon domains
  fem-p2   dirichlet neumann mixed steklov      polygon domains
  fem-cr   dirichlet neumann mixed              polygon domains
           steklov only with --cr-midpoint (edge-midpoint boundary mass)
  bie      steklov                              circle domains only
  mps      dirichlet                            polygon domains only
"""


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


def _span(text):
    """a:b -> (a, b)"""
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected a:b")
    return float(parts[0]), float(parts[1])


def _grid(text):
    """a:b:n -> n evenly spaced values from a to b inclusive."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected start:stop:count")
    a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 2 or b <= a:
        raise argparse.ArgumentTypeError("need stop > start and count >= 2")
    return np.linspace(a, b, n)


def _int_list(text):
    return [int(t) for t in text.split(",") if t]


def build_parser():
    top = _Parser(prog="lapspec",
                  description="Planar Laplace eigenvalue toolkit")
    top.add_argument("--config", help="key=value file; explicit flags win")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", metavar="command")

    def common(p):
        p.add_argument("--out", default=None,
                       help="output directory (default $SPECTRA_OUT or cwd)")

    solve = sub.add_parser("solve", help="compute one spectrum", parents=[])
    solve.add_argument("--domain")
    solve.add_argument("--method", choices=METHODS)
    solve.add_argument("--bc", default="dirichlet",
                       choices=("dirichlet", "neumann", "mixed", "steklov"))
    solve.add_argument("--count", type=_positive_int, default=10)
    solve.add_argument("--levels", type=_positive_int, default=4,
                       help=f"finest refinement level; levels >= "
                            f"{EXTRAPOLATE_FROM} extrapolate over the last three")
    solve.add_argument("--n", type=_positive_int, default=128,
                       help="quadrature nodes per boundary curve (bie)")
    solve.add_argument("--bracket", type=_span,
                       help="a:b eigenvalue bracket (mps)")
    solve.add_argument("--grid", type=_grid,
                       help="start:stop:count indicator sweep grid (mps)")
    solve.add_argument("--basis-size", type=_positive_int, default=14)
    solve.add_argument("--corners", default="auto",
                       help="mps fan placement: auto | singular | reentrant "
                            "| comma-separated corner indices")
    solve.add_argument("--scale", type=float, default=1.0,
                       help="dilate the domain before solving")
    solve.add_argument("--cr-midpoint", action="store_true",
                       help="enable the edge-midpoint Steklov variant of fem-cr")
    solve.add_argument("--modes", type=_int_list,
                       help="render these eigenfunction indices to modes.svg")
    solve.add_argument("--seed", type=int, default=17,
                       help="offset of the low-discrepancy interior sequence "
                            "(mps)")
    common(solve)

    comp = sub.add_parser("compare", help="isospectrality verdict for two domains")
    comp.add_argument("--domain-a")
    comp.add_argument("--domain-b")
    comp.add_argument("--method", choices=("fem-p1", "fem-p2", "fem-cr"),
                      default="fem-p2")
    comp.add_argument("--bc", default="dirichlet",
                      choices=("dirichlet", "neumann", "mixed", "steklov"))
    comp.add_argument("--count", type=_positive_int, default=10)
    comp.add_argument("--levels", type=_positive_int, default=5)
    comp.add_argument("--cr-midpoint", action="store_true")
    common(comp)

    swp = sub.add_parser("sweep", help="eccentric-annulus Steklov sweep")
    swp.add_argument("--eps", type=_grid,
                     help="start:stop:count eccentricity grid")
    swp.add_argument("--n", type=_positive_int, default=660,
                     help="total quadrature nodes, split evenly over the "
                          "two circles")
    swp.add_argument("--k", type=_int_list, default=[1],
                     help="eigenvalue indices to track")
    common(swp)

    bnd = sub.add_parser("bounds", help="two-sided bracket report")
    bnd.add_argument("--domain", required=True)
    bnd.add_argument("--index", type=_positive_int, default=1)
    bnd.add_argument("--levels", type=_positive_int, default=5,
                     help="schedule 1..levels")
    common(bnd)

    val = sub.add_parser("validate", help="run the analytic-oracle suite")
    common(val)

    return top


def _load_config(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{ln}: expected key=value")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


_REQUIRED = {"solve": ("domain", "method"),
             "compare": ("domain_a", "domain_b"),
             "sweep": ("eps",)}


def parse_args(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        raise UsageError("missing command (solve, compare, sweep, bounds, validate)")
    if args.config:
        conf = _load_config(args.config)
        given = _explicit_dests(parser, argv)
        for key, value in conf.items():
            if not hasattr(args, key):
                raise UsageError(f"config key {key!r} is not a flag of "
                                 f"{args.command!r}")
            if key in given:
                continue
            setattr(args, key, _coerce_like(parser, args.command, key, value))
    missing = [f"--{d.replace('_', '-')}" for d in _REQUIRED.get(args.command, ())
               if getattr(args, d) is None]
    if missing:
        raise UsageError(f"lapspec {args.command}: missing {', '.join(missing)}")
    return args


def _explicit_dests(parser, argv):
    """Dests the user actually typed, so flags beat config values."""
    given = set()
    for token in argv:
        if token.startswith("--"):
            given.add(token[2:].split("=", 1)[0].replace("-", "_"))
    return given


def _coerce_like(parser, command, dest, text):
    for action in parser._subparsers._group_actions[0].choices[command]._actions:
        if action.dest == dest:
            if action.type is not None:
                return action.type(text)
            if isinstance(action, argparse._StoreTrueAction):
                return text.lower() in ("1", "true", "yes", "on")
            return text
    return text


def _outdir(args):
    out = args.out or os.environ.get("SPECTRA_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _resolve_domain(name, scale=1.0):
    dom = geometry.load_domain(name)
    if scale != 1.0:
        dom = dom.scaled(scale)
    return dom


def _check_compat(args):
    m = args.method
    if m == "bie":
        if args.bc != "steklov":
            raise UsageError("bie computes steklov spectra only\n" + COMPAT_MATRIX)
    elif m == "mps":
        if args.bc != "dirichlet":
            raise UsageError("mps computes dirichlet spectra only\n" + COMPAT_MATRIX)
    elif m == "fem-cr":
        if args.bc == "steklov" and not args.cr_midpoint:
            raise UsageError("fem-cr with steklov needs --cr-midpoint\n"
                             + COMPAT_MATRIX)


def _check_domain_compat(args, dom):
    if args.method == "bie" and dom.kind != "smooth-curves":
        raise UsageError("bie needs a circle domain\n" + COMPAT_MATRIX)
    if args.method == "mps" and dom.kind != "polygon":
        raise UsageError("mps needs a polygon domain\n" + COMPAT_MATRIX)
    if args.method.startswith("fem") and dom.kind != "polygon":
        raise UsageError("fem methods need a polygon domain\n" + COMPAT_MATRIX)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _spectrum_csv(rows):
    lines = ["index,eigenvalue,multiplicity,method,param,domain,version"]
    for idx, val, mult, method, param, domain in rows:
        lines.append(f"{idx},{float(val)!r},{mult},{method},{param},{domain},"
                     f"{__version__}")
    return "\n".join(lines) + "\n"


def _with_multiplicities(values, rtol=pencil.DEFAULT_CLUSTER_RTOL):
    sizes, means = pencil.cluster(np.asarray(values, dtype=float), rtol)
    out = []
    for size, mean in zip(sizes, means):
        out.extend((mean, size) for _ in range(size))
    return out


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _fem_kind(method):
    return {"fem-p1": "P1", "fem-p2": "P2", "fem-cr": "CR"}[method]


def cmd_solve(args):
    _check_compat(args)
    dom = _resolve_domain(args.domain, args.scale)
    _check_domain_compat(args, dom)
    out = _outdir(args)

    if args.method == "bie":
        spectrum = bie.solve_steklov_bie(dom, args.n, count=args.count)
        vals = spectrum.eigenvalues[:args.count]
        n_used = spectrum.flags["n_per_curve"][0]   # all curves alike
        rows = [(i + 1, v, m, "bie", f"n={n_used}", dom.name)
                for i, (v, m) in enumerate(_with_multiplicities(vals))]
        _write(os.path.join(out, "spectrum.csv"), _spectrum_csv(rows))
        return EXIT_OK

    if args.method == "mps":
        return _solve_mps(dom, args, out)

    top = args.levels
    spec = fem.EigenProblemSpec(args.bc, args.count, kind=_fem_kind(args.method),
                                level=top, weight=dom.weight)
    if top < EXTRAPOLATE_FROM:
        finest = fem.solve_fem(dom, spec)
        vals, param = finest.eigenvalues, f"h={float(finest.param)!r}"
    else:
        vals, spectra = bounds.extrapolated_spectrum(dom, spec)
        finest = spectra[-1]
        param = f"levels={top - 2}-{top};h={float(finest.param)!r};extrapolated"
    method = finest.method
    rows = [(i + 1, v, m, method, param, dom.name)
            for i, (v, m) in enumerate(_with_multiplicities(vals))]
    _write(os.path.join(out, "spectrum.csv"), _spectrum_csv(rows))
    if args.modes:
        svg = render_modes_svg(finest, args.modes)
        _write(os.path.join(out, "modes.svg"), svg)
    return EXIT_OK


def _mps_basis(dom, args):
    # "auto" means the singular-corner set; corner_basis falls back to the
    # largest-angle corner on polygons where every corner is regular.
    corners = {"auto": "singular", "singular": "singular",
               "reentrant": "reentrant"}.get(args.corners)
    if corners is None:
        corners = _int_list(args.corners)
    return mps.corner_basis(dom, args.basis_size, corners=corners)


def _solve_mps(dom, args, out):
    if args.bracket is None and args.grid is None:
        raise UsageError("mps needs --bracket a:b and/or --grid a:b:n")
    basis = _mps_basis(dom, args)
    if args.grid is not None:
        rows = mps.sigma_min_sweep(dom, basis, args.grid, offset=args.seed)
        csv = "lambda,smin\n" + "".join(f"{l!r},{s!r}\n" for l, s in rows)
        _write(os.path.join(out, "smin.csv"), csv)
    if args.bracket is not None:
        lam_h, coeff = mps.refine_minimum(dom, basis, args.bracket,
                                          offset=args.seed)
        enc = mps.fhm_enclosure(dom, lam_h, coeff, basis)
        csv = "lambda_h,lower,upper,epsilon,caveat\n" + enc.report_line() + "\n"
        _write(os.path.join(out, "enclosure.csv"), csv)
        krec = "+".join(str(fan.size) for fan in basis)
        rows = [(1, lam_h, 1, "mps",
                 f"K={krec};eps={enc.epsilon:.3e}", dom.name)]
        _write(os.path.join(out, "spectrum.csv"), _spectrum_csv(rows))
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
        spec = fem.EigenProblemSpec(bc, count, kind=kind, level=top_level,
                                    weight=dom.weight)
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
    if args.method == "fem-cr" and args.bc == "steklov" and not args.cr_midpoint:
        raise UsageError("fem-cr with steklov needs --cr-midpoint\n" + COMPAT_MATRIX)
    if args.levels < EXTRAPOLATE_FROM:
        raise UsageError(f"lapspec compare: --levels must be at least {EXTRAPOLATE_FROM}"
                         " (the verdict extrapolates over levels levels-2..levels)")
    dom_a = _resolve_domain(args.domain_a)
    dom_b = _resolve_domain(args.domain_b)
    out = _outdir(args)
    rows, overall = compare_domains(dom_a, dom_b, args.bc, args.count,
                                    args.levels, kind=_fem_kind(args.method))
    lines = ["index,value_a,value_b,width_a,width_b,verdict"]
    for idx, va, vb, wa, wb, verdict in rows:
        lines.append(f"{idx},{va!r},{vb!r},{wa!r},{wb!r},{verdict}")
        print(f"  {idx:3d}: {va:.6f} vs {vb:.6f}  -> {verdict}")
    lines.append(f"overall,,,,,{overall}")
    print(f"overall verdict: {overall}")
    _write(os.path.join(out, "compare.csv"), "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep / bounds / validate
# ---------------------------------------------------------------------------

def cmd_sweep(args):
    out = _outdir(args)
    if args.n % 2:
        raise UsageError("--n is the total node count and must be even")
    per_curve = (args.n // 2, args.n // 2)
    rows = bie.sweep_annulus(args.eps, per_curve, args.k)
    lines = ["eps,k,sigma,ratio_to_concentric,N"]
    for eps, k, sigma, ratio, ntot in rows:
        lines.append(f"{eps!r},{k},{sigma!r},{ratio!r},{ntot}")
    _write(os.path.join(out, "sweep.csv"), "\n".join(lines) + "\n")
    for k in args.k:
        sig = [r[2] for r in rows if r[1] == k]
        mono = all(b < a for a, b in zip(sig, sig[1:]))
        print(f"sigma_{k}: strictly decreasing over the grid: {mono}")
    return EXIT_OK


def cmd_bounds(args):
    dom = _resolve_domain(args.domain)
    out = _outdir(args)
    report = bounds.bracket_report(dom, args.index, range(1, args.levels + 1))
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
        spec_cr = fem.EigenProblemSpec("dirichlet", 1, kind="CR", level=3)
        spec_p1 = fem.EigenProblemSpec("dirichlet", 1, kind="P1", level=3)
        mesh = fem.build_mesh(sq, 3)
        lam_cr = fem.solve_fem(sq, spec_cr, mesh=mesh).eigenvalues[0]
        lam_p1 = fem.solve_fem(sq, spec_p1, mesh=mesh).eigenvalues[0]
        lo = bounds.cr_lower_bound(lam_cr, mesh.h)
        ok = lo <= 2 * np.pi**2 <= lam_p1
        return (0.0 if ok else 1.0), 0.5

    def bessel_zeros():
        import scipy.special as sp
        errs = [abs(specfun.bessel_j_zero(n, k) - sp.jn_zeros(n, k)[-1])
                for n in (0, 1, 3) for k in (1, 4)]
        return float(max(errs)), 1e-10

    return [("bie disk steklov vs closed form", disk_bie),
            ("bie concentric annulus vs closed form", annulus_bie),
            ("fem p1 square dirichlet lowest", square_p1),
            ("fem p2 square dirichlet triple", square_p2),
            ("fem p2 square neumann quadruple", square_neumann),
            ("mps square lowest eigenvalue", square_mps),
            ("bounds square two-sided bracket", square_bracket),
            ("specfun bessel zeros vs scipy", bessel_zeros)]


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
    vals = np.zeros(nv)
    hits = np.zeros(nv)
    for (a, b), v in zip(space.edges, vec):
        vals[a] += v
        vals[b] += v
        hits[a] += 1
        hits[b] += 1
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


def render_modes_svg(spectrum, indices, size=240):
    """Nodal lines of the selected modes, one panel per index."""
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
                           for p in _boundary_loop(mesh))
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


def _boundary_loop(mesh):
    nxt = {int(a): int(b) for a, b in mesh.boundary_edges}
    start = int(mesh.boundary_edges[0, 0])
    loop, cur = [], start
    while True:
        loop.append(mesh.vertices[cur])
        cur = nxt[cur]
        if cur == start:
            return loop


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
