"""Tests of the benchmark itself: no check is vacuous, and the span
accounting adds up. Run with `python3 -m pytest -q bench/test_bench.py`.

The workload tests feed each operation canned CLI output built from the
references, then perturb one checked quantity past its tolerance and
expect that operation to fail.
"""
import math
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy.linalg as la  # noqa: E402

import checks  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def test_concentric_annulus_matches_the_two_by_two_pencils():
    a = 0.1
    got = checks.concentric_annulus_steklov(a, 9)
    want = [0.0, (1 + 1 / a) / math.log(1 / a)]
    for n in range(1, 5):
        # u = A r^n + B r^-n; rows: d/dr u = s u at r = 1, -d/dr u = s u at r = a
        K = np.array([[n, -n], [-n * a ** (n - 1), n * a ** (-n - 1)]])
        M = np.array([[1.0, 1.0], [a ** n, a ** -n]])
        want += [v.real for v in la.eigvals(K, M) for _ in range(2)]
    assert np.allclose(got, np.sort(want)[:9], rtol=1e-13)


def test_merged_circles_and_square_values():
    assert list(checks.merged_circle_steklov([1.0, 0.1], 7)) == [0, 0, 1, 1, 2, 2, 3]
    assert np.allclose(np.array(checks.square_dirichlet_distinct(5)) / math.pi ** 2,
                       [2, 5, 8, 10, 13])


def test_exact_motion_is_exact_and_seeded():
    moved = wl.exact_motion(wl.GWW_A, random.Random(3), 0.5)
    assert checks.polygon_area(moved) == 0.25 * checks.polygon_area(wl.GWW_A)
    assert checks.polygon_perimeter(moved) == 0.5 * checks.polygon_perimeter(wl.GWW_A)
    assert moved == wl.exact_motion(wl.GWW_A, random.Random(3), 0.5)


# ---------------------------------------------------------------------------
# every check fails past its tolerance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("check, ok, bad", [
    (checks.equal_spectra, ([1.0, 2.0 * (1 + 0.9e-3)], [1.0, 2.0], 1e-3),
     ([1.0, 2.0 * (1 + 1.1e-3)], [1.0, 2.0], 1e-3)),
    (checks.faber_krahn, (math.pi * checks.J01 ** 2 * (1 + 1e-12), 1.0),
     (math.pi * checks.J01 ** 2 * (1 - 1e-12), 1.0)),
    (checks.is_zero, (0.9e-9, 1e-9), (1.1e-9, 1e-9)),
    (checks.weinstock, (1.0, 2 * math.pi * (1 - 1e-12)), (1.0, 2 * math.pi * (1 + 1e-12))),
    (checks.close, (1.0 + 0.9e-9, 1.0, 1e-9, "x"), (1.0 + 1.1e-9, 1.0, 1e-9, "x")),
    (checks.strictly_decreasing, ([3.0, 2.0, 1.0], "x"), ([3.0, 2.0, 2.0], "x")),
    (checks.relative_agreement, ([10.0, 20.0 * (1 + 0.9e-3)], [10.0, 20.0], 1e-3, 50),
     ([10.0, 20.0 * (1 - 1.1e-3)], [10.0, 20.0], 1e-3, 50)),
    (checks.within, (1.0, 1.0, 2.0, "x"), (0.999, 1.0, 2.0, "x")),
    (checks.dilation_invariant, (1e-4, 1e-4 * (1 + 0.9e-3), 1e-3),
     (1e-4, 1e-4 * (1 + 1.1e-3), 1e-3)),
    (checks.verdict, ("distinct", "distinct"), ("consistent-with-equal", "distinct")),
])
def test_check_fails_just_past_its_tolerance(check, ok, bad):
    check(*ok)
    with pytest.raises(checks.CheckFailed):
        check(*bad)


class FakeCli:
    """Stands in for lapspec.cli: writes canned files to --out, exits 0."""

    def __init__(self, outputs):
        self.outputs = outputs

    def main(self, argv):
        out = argv[argv.index("--out") + 1]
        os.makedirs(out, exist_ok=True)
        for fname, text in self.outputs[os.path.basename(out)].items():
            with open(os.path.join(out, fname), "w", encoding="utf-8") as fh:
                fh.write(text)
        return 0


def _compare_csv(va, vb, overall):
    rows = [f"{i + 1},{float(a)!r},{float(b)!r},0.0,0.0,x"
            for i, (a, b) in enumerate(zip(va, vb))]
    return "\n".join(["index,value_a,value_b,width_a,width_b,verdict"] + rows
                     + [f"overall,,,,,{overall}"]) + "\n"


def _drum_outputs(seed, tmp_path, **bad):
    rng = random.Random(seed)
    scale = 2.0 ** rng.choice((-1, 0, 1))
    lam = np.linspace(20.0, 60.0, 10) / scale ** 2
    sigma = np.array([0.0, 0.6, 0.8, 1.2, 1.7]) / scale
    lam_b, sigma_b = lam.copy(), sigma.copy()
    lam_b[4] *= 1 + bad.get("gww", 0.0)
    lam[0] *= bad.get("fk", 1.0)
    lam_b[0] *= bad.get("fk", 1.0)
    sigma_b[0] += bad.get("zero", 0.0)
    sigma_b[1] *= bad.get("weinstock", 1.0)
    return {"dirichlet": {"compare.csv": _compare_csv(lam, lam_b, bad.get(
                "dverdict", "consistent-with-equal"))},
            "steklov": {"compare.csv": _compare_csv(sigma, sigma_b, bad.get(
                "sverdict", "distinct"))}}


def _sweep_csv(stop, **bad):
    eps = np.linspace(0.0, stop, wl.SWEEP_POINTS)
    sigma = checks.concentric_annulus_steklov(wl.ANNULUS_HOLE, 3)[1] - 0.1 * eps
    sigma[0] += bad.get("eps0", 0.0)
    sigma[3] = sigma[2] + bad.get("rise", -1e-3)
    rows = [f"{float(e)!r},1,{float(s)!r},1.0,660" for e, s in zip(eps, sigma)]
    return "\n".join(["eps,k,sigma,ratio_to_concentric,N"] + rows) + "\n"


def _spectrum_csv(values):
    rows = [f"{i + 1},{float(v)!r},1,bie,n=440,d,0.1.0" for i, v in enumerate(values)]
    return "\n".join(["index,eigenvalue,multiplicity,method,param,domain,version"]
                     + rows) + "\n"


def _annulus_outputs(seed, **bad):
    stop = round(0.80 + 0.08 * random.Random(seed).random(), 4)
    high = checks.merged_circle_steklov([1.0, wl.ANNULUS_HOLE], wl.HIGH_COUNT).copy()
    high[120] *= 1 + bad.get("high", 0.0)
    return {"sweep": {"sweep.csv": _sweep_csv(stop, **bad)},
            "high": {"spectrum.csv": _spectrum_csv(high)}}


def _bracket_csv(lo, hi, rows, certified="true"):
    lines = [f"# bracket report: domain=d index=1 certified={certified}",
             f"# enclosure,{lo!r},{hi!r}", "level,h,cr,cr_lower,p1,p2"]
    lines += [f"{lvl},0.1,{cl!r},{cl!r},{p1!r},{p1!r}" for lvl, cl, p1 in rows]
    lines.append("extrapolated,p2,1.0,2.0")
    return "\n".join(lines) + "\n"


def _enclosure_csv(lam, rel):
    r = lam * rel
    return f"lambda_h,lower,upper,epsilon,caveat\n{lam!r},{lam - r!r},{lam + r!r},1e-5,true\n"


def _certify_outputs(**bad):
    lam1 = 2 * math.pi ** 2
    rows = [(lvl, lam1 * (1 - 0.01 / lvl), lam1 * (1 + 0.01 / lvl)) for lvl in range(1, 6)]
    if "cr" in bad:
        rows[2] = (3, lam1 * (1 + bad["cr"]), rows[2][2])
    if "p1" in bad:
        rows[4] = (5, rows[4][1], lam1 * (1 - bad["p1"]))
    out = {"bounds-square": {"bracket.csv": _bracket_csv(19.0, 20.0, rows)}}
    for j, lam in enumerate(checks.square_dirichlet_distinct(wl.SQUARE_MPS)):
        shift = bad.get("mps", 0.0) if j == 3 else 0.0
        out[f"mps-square-{j}"] = {"enclosure.csv": _enclosure_csv(lam * (1 + shift), 1e-10)}
    lo, hi = bad.get("gww_lo", 15.0), bad.get("gww_hi", 20.5)
    out["bounds-gww"] = {"bracket.csv": _bracket_csv(lo, hi, [], bad.get("cert", "true"))}
    lam = bad.get("gww_lam", 20.3)
    out["mps-gww-1"] = {"enclosure.csv": _enclosure_csv(lam, 1.7e-4)}
    out["mps-gww-2"] = {"enclosure.csv": _enclosure_csv(lam / 4, 1.7e-4 * bad.get("dil", 1.0))}
    return out


def _failures(build, seed, tmp_path, outputs):
    ops = build(seed, str(tmp_path))
    ctx = wl.Context(FakeCli(outputs), str(tmp_path))
    failed = []
    for op in ops:
        try:
            op.run(ctx)
        except checks.CheckFailed:
            failed.append(op.name)
    return failed


@pytest.mark.parametrize("seed", [1, 2])
def test_workload_checks_pass_on_reference_outputs(seed, tmp_path):
    assert _failures(wl.drums, seed, tmp_path, _drum_outputs(seed, tmp_path)) == []
    assert _failures(wl.annulus, seed, tmp_path, _annulus_outputs(seed)) == []
    assert _failures(wl.certify, seed, tmp_path, _certify_outputs()) == []


@pytest.mark.parametrize("bad, op", [
    ({"gww": 1.1e-3}, "compare-dirichlet"),
    ({"fk": 0.1}, "compare-dirichlet"),
    ({"dverdict": "distinct"}, "compare-dirichlet"),
    ({"zero": 1.1e-9}, "compare-steklov"),
    ({"weinstock": 20.0}, "compare-steklov"),
    ({"sverdict": "consistent-with-equal"}, "compare-steklov"),
])
def test_drum_checks_fail_when_perturbed(bad, op, tmp_path):
    assert _failures(wl.drums, 5, tmp_path, _drum_outputs(5, tmp_path, **bad)) == [op]


@pytest.mark.parametrize("bad, op", [
    ({"eps0": 1.1e-9}, "sweep"),
    ({"rise": 0.0}, "sweep"),
    ({"high": 1.1e-3}, "solve-high-index"),
])
def test_annulus_checks_fail_when_perturbed(bad, op, tmp_path):
    assert _failures(wl.annulus, 5, tmp_path, _annulus_outputs(5, **bad)) == [op]


@pytest.mark.parametrize("bad, ops", [
    ({"cr": 1e-6}, ["bounds-square"]),
    ({"p1": 1e-6}, ["bounds-square"]),
    ({"mps": 2e-10}, ["mps-square-3"]),
    ({"cert": "false"}, ["bounds-gww-a", "mps-gww-a", "mps-gww-a-scale-2"]),
    ({"gww_lo": 20.6}, ["bounds-gww-a", "mps-gww-a", "mps-gww-a-scale-2"]),
    ({"gww_lo": 5.0, "gww_hi": 10.0}, ["bounds-gww-a", "mps-gww-a", "mps-gww-a-scale-2"]),
    ({"gww_lam": 20.6}, ["mps-gww-a", "mps-gww-a-scale-2"]),
    ({"dil": 1 + 1.1e-3}, ["mps-gww-a-scale-2"]),
    ({"dil": 0.5}, ["mps-gww-a-scale-2"]),
])
def test_certify_checks_fail_when_perturbed(bad, ops, tmp_path):
    assert _failures(wl.certify, 5, tmp_path, _certify_outputs(**bad)) == ops


def test_only_the_dilation_operation_is_a_known_fault(tmp_path):
    ops = wl.certify(1, str(tmp_path)) + wl.drums(1, str(tmp_path)) + wl.annulus(1, str(tmp_path))
    assert [op.name for op in ops if op.known_fault] == ["mps-gww-a-scale-2"]


# ---------------------------------------------------------------------------
# span accounting
# ---------------------------------------------------------------------------

def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_sum_to_the_root_span():
    t = tr.Tracer()
    inner = t.wrap("inner", lambda: _busy(0.002))
    outer = t.wrap("outer", lambda: (_busy(0.001), inner(), inner()))
    t.start(tr.ROOT)
    outer()
    inner()
    t.stop()
    selfs = t.self_times()
    root = t.spans[0][2] - t.spans[0][1]
    assert sum(selfs.values()) == pytest.approx(root, rel=1e-9)
    assert t.counts["inner"] == 3 and selfs["inner"] >= 0.006
    assert 0.001 <= selfs["outer"] < selfs["inner"]


def test_traced_cli_run_partitions_the_wall_time(tmp_path):
    import lapspec
    import lapspec.cli
    names = [(lapspec.fem, "refine"), (lapspec.bounds, "build_mesh"),
             (lapspec.bounds, "assemble_stiffness"), (lapspec.mps, "build_mesh"),
             (lapspec.mps, "_subspace_smin"), (lapspec, "solve_fem")]
    before = [getattr(mod, name) for mod, name in names]
    t = tr.Tracer()
    t.install(lapspec)
    try:
        assert all(hasattr(getattr(mod, name), "__wrapped__") for mod, name in names)
        t.start(tr.ROOT)
        rc = lapspec.cli.main(["bounds", "--domain", "unit-square", "--index", "1",
                               "--levels", "3", "--out", str(tmp_path)])
        t.stop()
    finally:
        t.restore()
    assert rc == 0
    assert [getattr(mod, name) for mod, name in names] == before
    m = tr.layer_metrics(t)
    parts = [v for k, v in m.items() if k.endswith("_s") and k != "trace.wall_s"]
    assert sum(parts) == pytest.approx(m["trace.wall_s"], rel=1e-9)
    # CR, P1 and P2 at each of the three levels
    assert m["fem.solves"] == 9 and m["fem.mesh_builds"] >= 1
    assert m["bounds.residual_s"] > 0 and m["geometry.refine_calls"] > 0
    assert set(m) | {"trace.overhead_s"} == set(tr.LAYER_UNITS)
