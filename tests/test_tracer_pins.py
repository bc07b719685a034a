"""The benchmark tracer's hold on the library: the names and argument shapes
that bench/tracer.py wraps and sizes must stay as it reads them.

bench/test_bench.py traces a `bounds` run for its time partition; this
traces the same run for its assembly traffic, and a BIE sweep, whose pencil
span the tracer sizes by `args[0].n` (a `Pencil`).
"""
import os
import sys

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
    # the offsets 0 and 0.5 at 64 nodes per curve: two deflated pencils of
    # order 127
    assert m["pencil.general_calls"] == 2
    assert m["pencil.general_max_n"] == 127
    assert m["bie.solves"] == 2


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
