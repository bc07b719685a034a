"""The benchmark tracer's hold on the library: the names and argument shapes
that bench/tracer.py wraps and sizes must stay as it reads them.

bench/test_bench.py traces a `bounds` run for its time partition; this
traces the same run for its assembly traffic, BIE solves, whose
`pencil.general` span the tracer sizes by `args[0].n` (the first block, the
even one) and whose kernel builds it counts, a drum `compare` for its mesh
traffic, and MPS searches for their indicator calls.
"""
import os
import sys

import numpy as np
import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")
if BENCH not in sys.path:
    sys.path.append(BENCH)

import tracer as tr  # noqa: E402

import lapspec  # noqa: E402
from lapspec import cli  # noqa: E402


def test_traced_sweep_sizes_the_general_pencil(tmp_path):
    t = tr.Tracer()
    t.install(lapspec)
    try:
        t.start(tr.ROOT)
        rc = cli.main(["sweep", "--eps", "0:0.5:2", "--n", "128", "--k", "1",
                       "--out", str(tmp_path)])
        t.stop()
    finally:
        t.restore()
    assert rc == 0
    m = tr.layer_metrics(t)
    # the offsets 0 and 0.5 at 64 nodes per curve: each Neumann-to-Dirichlet
    # map of order 127 (the constants deflated) splits into an even block
    # of 65 (62 pairs, 4 fixed nodes, less the constant) and an odd block
    # of 62
    assert m["pencil.general_calls"] == 2
    assert m["pencil.general_max_n"] == 65
    assert m["bie.solves"] == 2


def test_traced_high_index_solve_sizes_the_largest_block(tmp_path):
    t = tr.Tracer()
    t.install(lapspec)
    try:
        t.start(tr.ROOT)
        rc = cli.main(["solve", "--domain", "annulus:eps=0.4", "--method", "bie",
                       "--bc", "steklov", "--n", "440", "--count", "201",
                       "--out", str(tmp_path)])
        t.stop()
    finally:
        t.restore()
    assert rc == 0
    # 440 nodes per curve: 438 pairs and 4 fixed nodes give the even block
    # 441 and the odd block 438 (the whole map, deflated, has order 879)
    assert tr.layer_metrics(t)["pencil.general_max_n"] == 441


def test_traced_bie_solves_build_their_kernels_once_each(tmp_path):
    # every solve, few values or many, builds its kernel rows through the
    # traced assemble_kernels once: bie.halvings reads 0
    for argv in (["sweep", "--eps", "0:0.5:2", "--n", "128", "--k", "1"],
                 ["solve", "--domain", "annulus:eps=0.4", "--method", "bie",
                  "--bc", "steklov", "--n", "440", "--count", "201"]):
        t = tr.Tracer()
        t.install(lapspec)
        try:
            t.start(tr.ROOT)
            rc = cli.main(argv + ["--out", str(tmp_path)])
            t.stop()
        finally:
            t.restore()
        assert rc == 0
        assert t.counts["bie.kernels"] == t.counts["bie.solve"] > 0
        m = tr.layer_metrics(t)
        assert m["bie.halvings"] == 0 and m["bie.kernels_s"] > 0


def test_traced_bracket_assembles_only_inside_the_solves(tmp_path):
    t = tr.Tracer()
    t.install(lapspec)
    try:
        t.start(tr.ROOT)
        rc = cli.main(["bounds", "--domain", "unit-square", "--index", "1",
                       "--levels", "3", "--out", str(tmp_path)])
        t.stop()
    finally:
        t.restore()
    assert rc == 0
    m = tr.layer_metrics(t)
    # CR, P1 and P2 at each of the levels 1-3, each solve assembling K and M
    # once; the printed residual is read from the solve, not assembled again
    assert m["fem.solves"] == 9
    assert m["fem.assemble_calls"] == 18
    assert m["bounds.residual_s"] > 0


def test_traced_mps_solve_locates_lambda_in_few_indicator_calls(tmp_path):
    t = tr.Tracer()
    t.install(lapspec)
    try:
        t.start(tr.ROOT)
        rc = cli.main(["solve", "--domain", "unit-square", "--method", "mps",
                       "--bc", "dirichlet", "--bracket", "19:20.5",
                       "--out", str(tmp_path)])
        t.stop()
    finally:
        t.restore()
    assert rc == 0
    # parabolic steps on s^2 locate 2 pi^2 here in 13 indicator calls
    assert tr.layer_metrics(t)["mps.indicator_evals"] <= 20


@pytest.mark.parametrize("bracket,most", [("19.6:21.0", 14), ("103.5:105.5", 11)],
                         ids=["lambda1", "lambda10"])
def test_traced_gww_mps_search_stops_at_what_s_resolves(tmp_path, bracket, most):
    t = tr.Tracer()
    t.install(lapspec)
    try:
        t.start(tr.ROOT)
        rc = cli.main(["solve", "--domain", "gww-a", "--method", "mps",
                       "--bc", "dirichlet", "--bracket", bracket,
                       "--out", str(tmp_path)])
        t.stop()
    finally:
        t.restore()
    assert rc == 0
    # the search stops once the bracket is under 1e-2 s lambda: 13 calls on
    # lambda1 and 10 on lambda10, against 18 and 12 searched to 1e-9
    assert tr.layer_metrics(t)["mps.indicator_evals"] <= most


def test_traced_compare_refines_one_mesh_per_schedule(tmp_path, monkeypatch):
    seen = []
    t = tr.Tracer()
    t.install(lapspec)
    traced_solve = lapspec.bounds.solve_fem

    def recording(domain, spec, mesh=None):
        result = traced_solve(domain, spec, mesh=mesh)
        seen.append((domain, spec, result.eigenvalues))
        return result

    try:
        monkeypatch.setattr(lapspec.bounds, "solve_fem", recording)
        t.start(tr.ROOT)
        rc = cli.main(["compare", "--domain-a", "gww-a", "--domain-b", "gww-b",
                       "--method", "fem-p2", "--bc", "dirichlet", "--count", "3",
                       "--levels", "4", "--out", str(tmp_path)])
        t.stop()
    finally:
        monkeypatch.undo()
        t.restore()
    assert rc == 0
    m = tr.layer_metrics(t)
    # levels 2-4 per drum: one mesh built at level 2 and refined twice
    # (building each level from scratch takes 18 refines and 6 builds)
    assert m["geometry.refine_calls"] == 8
    assert m["fem.mesh_builds"] == 2
    assert m["fem.assemble_calls"] == 12
    # each level's values are bitwise those of a solve on its own mesh
    assert [spec.level for _, spec, _ in seen] == [2, 3, 4, 2, 3, 4]
    for domain, spec, values in seen:
        fresh = lapspec.fem.solve_fem(domain, lapspec.fem.EigenProblemSpec(
            spec.bc, spec.count, kind=spec.kind, level=spec.level))
        assert np.array_equal(values, fresh.eigenvalues)
