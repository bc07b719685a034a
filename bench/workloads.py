"""The three workloads: inputs made from the seed, operations and their checks.

An operation is one lapspec CLI command with its checks. It fails when the
command raises, exits non-zero, or a check fails. `known_fault` marks the
one operation that fails on every run because of a named program fault;
its inputs do not depend on the seed.
"""
import contextlib
import csv
import io
import math
import os
import random

import checks

# the Gordon-Webb-Wolpert pair, with the vertices of lapspec's gww-a and gww-b
GWW_A = [(0, 0), (1, 0), (1.5, 0.5), (2, 0), (2, 1), (1.5, 1.5), (0.5, 0.5), (0, 1)]
GWW_B = [(0, 0), (0.5, -0.5), (1, 0), (0.5, 0.5), (1, 1), (1, 2), (0.5, 1.5), (0, 2)]
SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]

SWEEP_POINTS = 6
ANNULUS_HOLE = 0.1
HIGH_EPS = 0.4
HIGH_COUNT = 201
SQUARE_MPS = 5


class Op:
    def __init__(self, name, run, known_fault=False):
        self.name = name
        self.run = run
        self.known_fault = known_fault


class Context:
    """What an operation needs: the CLI module, a scratch directory, and
    values handed from one operation to the next within a round."""

    def __init__(self, cli, workdir):
        self.cli = cli
        self.workdir = workdir
        self.state = {}

    def lapspec(self, name, argv):
        out = os.path.join(self.workdir, name)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = self.cli.main(list(argv) + ["--out", out])
        if rc != 0:
            raise checks.CheckFailed(f"lapspec {argv[0]} exited with {rc}")
        return out


def _lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _rows(path):
    return list(csv.reader(l for l in _lines(path) if not l.startswith("#")))


def _table(path):
    return list(csv.DictReader(l for l in _lines(path) if not l.startswith("#")))


def exact_motion(vertices, rng, scale=1.0):
    """Rotate by a multiple of 90 degrees, scale (by a power of two) and
    shift by multiples of 1/8. Every step is exact in binary floating point,
    so the mesh is the moved copy of the unmoved one and the work is the same."""
    quarter = rng.randrange(4)
    tx, ty = rng.randint(-16, 16) / 8, rng.randint(-16, 16) / 8
    out = []
    for x, y in vertices:
        for _ in range(quarter):
            x, y = -y, x
        out.append((scale * x + tx, scale * y + ty))
    return out


def write_polygon(path, vertices, note):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {note}\n")
        fh.writelines(f"v {x!r} {y!r}\n" for x, y in vertices)
    return path


# ---------------------------------------------------------------------------
# drums: FEM and pencil
# ---------------------------------------------------------------------------

def drums(seed, workdir):
    rng = random.Random(seed)
    scale = 2.0 ** rng.choice((-1, 0, 1))
    shapes = {"a": exact_motion(GWW_A, rng, scale), "b": exact_motion(GWW_B, rng, scale)}
    order = ("b", "a") if rng.random() < 0.5 else ("a", "b")
    files = [write_polygon(os.path.join(workdir, f"gww-{k}.poly"), shapes[k],
                           f"gww-{k}, seed {seed}") for k in order]
    areas = [checks.polygon_area(shapes[k]) for k in order]
    perimeters = [checks.polygon_perimeter(shapes[k]) for k in order]
    pair = ["--domain-a", files[0], "--domain-b", files[1], "--method", "fem-p2",
            "--levels", "5"]

    def compare(ctx, name, bc, count):
        out = ctx.lapspec(name, ["compare"] + pair + ["--bc", bc, "--count", str(count)])
        rows = _rows(os.path.join(out, "compare.csv"))
        body = rows[1:-1]
        if len(body) != count or rows[-1][0] != "overall":
            raise checks.CheckFailed(f"compare.csv has {len(body)} rows, expected {count}")
        va = [float(r[1]) for r in body]
        vb = [float(r[2]) for r in body]
        return va, vb, rows[-1][-1]

    def dirichlet(ctx):
        va, vb, overall = compare(ctx, "dirichlet", "dirichlet", 10)
        checks.equal_spectra(va, vb, 1e-3)
        checks.verdict(overall, "consistent-with-equal")
        for lam1, area in zip((va[0], vb[0]), areas):
            checks.faber_krahn(lam1, area)

    def steklov(ctx):
        va, vb, overall = compare(ctx, "steklov", "steklov", 5)
        for values, perimeter in zip((va, vb), perimeters):
            checks.is_zero(values[0], 1e-9)
            checks.weinstock(values[1], perimeter)
        checks.verdict(overall, "distinct")

    return [Op("compare-dirichlet", dirichlet), Op("compare-steklov", steklov)]


# ---------------------------------------------------------------------------
# annulus: BIE and QZ
# ---------------------------------------------------------------------------

def annulus(seed, workdir):
    rng = random.Random(seed)
    stop = round(0.80 + 0.08 * rng.random(), 4)
    sigma1 = checks.concentric_annulus_steklov(ANNULUS_HOLE, 3)[1]
    merged = checks.merged_circle_steklov([1.0, ANNULUS_HOLE], HIGH_COUNT)

    def sweep(ctx):
        out = ctx.lapspec("sweep", ["sweep", "--eps", f"0:{stop!r}:{SWEEP_POINTS}",
                                    "--n", "660", "--k", "1"])
        rows = _table(os.path.join(out, "sweep.csv"))
        eps = [float(r["eps"]) for r in rows]
        sigma = [float(r["sigma"]) for r in rows]
        if len(rows) != SWEEP_POINTS or eps[0] != 0.0:
            raise checks.CheckFailed(f"sweep rows start at {eps[:1]}, count {len(rows)}")
        checks.close(sigma[0], sigma1, 1e-9, "sigma_1 at eps = 0")
        checks.strictly_decreasing(sigma, "sigma_1")

    def high_index(ctx):
        out = ctx.lapspec("high", ["solve", "--domain", f"annulus:eps={HIGH_EPS}",
                                   "--method", "bie", "--bc", "steklov",
                                   "--n", "440", "--count", str(HIGH_COUNT)])
        values = [float(r["eigenvalue"]) for r in _table(os.path.join(out, "spectrum.csv"))]
        if len(values) != HIGH_COUNT:
            raise checks.CheckFailed(f"{len(values)} eigenvalues, expected {HIGH_COUNT}")
        checks.relative_agreement(values[50:], merged[50:], 1e-3, first_index=50)

    return [Op("sweep", sweep), Op("solve-high-index", high_index)]


# ---------------------------------------------------------------------------
# certify: bounds, MPS and specfun
# ---------------------------------------------------------------------------

def _enclosure(out):
    row = _table(os.path.join(out, "enclosure.csv"))[0]
    return float(row["lambda_h"]), float(row["lower"]), float(row["upper"])


def _bracket(out):
    path = os.path.join(out, "bracket.csv")
    head = _lines(path)[:2]
    if "certified=true" not in head[0]:
        raise checks.CheckFailed(f"bracket report not certified: {head[0]}")
    lo, hi = (float(v) for v in head[1].split(",")[1:])
    return (lo, hi), [r for r in _table(path) if r["level"] != "extrapolated"]


def certify(seed, workdir):
    rng = random.Random(seed)
    # unit area kept: the exact values and the brackets assume it
    square = write_polygon(os.path.join(workdir, "square.poly"),
                           exact_motion(SQUARE, rng), f"unit square, seed {seed}")
    offset = str(rng.randint(1, 9999))
    targets = checks.square_dirichlet_distinct(SQUARE_MPS)
    brackets = [(lam * (1 - rng.uniform(0.01, 0.03)), lam * (1 + rng.uniform(0.01, 0.03)))
                for lam in targets]
    lam1 = 2 * math.pi ** 2
    gww_area = checks.polygon_area(GWW_A)

    def square_bounds(ctx):
        _, table = _bracket(ctx.lapspec("bounds-square", [
            "bounds", "--domain", square, "--index", "1", "--levels", "5"]))
        if [int(r["level"]) for r in table] != [1, 2, 3, 4, 5]:
            raise checks.CheckFailed("bracket report levels are not 1..5")
        for r in table:
            checks.within(lam1, float(r["cr_lower"]), float(r["p1"]),
                          f"2 pi^2 at level {r['level']}")

    def square_mps(j):
        def run(ctx):
            a, b = brackets[j]
            _, lower, upper = _enclosure(ctx.lapspec(f"mps-square-{j}", [
                "solve", "--domain", square, "--method", "mps", "--bc", "dirichlet",
                "--bracket", f"{a!r}:{b!r}", "--seed", offset]))
            checks.within(targets[j], lower, upper, "FHM interval")
        return run

    def gww_bounds(ctx):
        (lo, hi), _ = _bracket(ctx.lapspec("bounds-gww", [
            "bounds", "--domain", "gww-a", "--index", "1", "--levels", "3"]))
        if not 0 < lo < hi:
            raise checks.CheckFailed(f"empty bracket [{lo!r}, {hi!r}]")
        checks.faber_krahn(hi, gww_area)
        ctx.state["gww"] = (lo, hi)

    def gww_mps(scale):
        def run(ctx):
            if "gww" not in ctx.state:
                raise checks.CheckFailed("no certified gww-a bracket this round")
            lo, hi = ctx.state["gww"]
            s2 = scale * scale
            lam, lower, upper = _enclosure(ctx.lapspec(f"mps-gww-{scale}", [
                "solve", "--domain", "gww-a", "--method", "mps", "--bc", "dirichlet",
                "--scale", str(scale), "--bracket", f"{lo / s2!r}:{hi / s2!r}"]))
            checks.within(lam * s2, lo, hi, "gww-a MPS value in the FEM bracket")
            rel = (upper - lower) / (2 * lam)
            if scale == 1:
                ctx.state["rel"] = rel
            else:
                checks.dilation_invariant(ctx.state["rel"], rel, 1e-3)
        return run

    return ([Op("bounds-square", square_bounds)]
            + [Op(f"mps-square-{j}", square_mps(j)) for j in range(SQUARE_MPS)]
            + [Op("bounds-gww-a", gww_bounds), Op("mps-gww-a", gww_mps(1)),
               Op("mps-gww-a-scale-2", gww_mps(2), known_fault=True)])


WORKLOADS = {"drums": drums, "annulus": annulus, "certify": certify}
