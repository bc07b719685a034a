"""End-to-end acceptance checks, one test per headline result.

Every test here recomputes its numbers through the library (the
session caches in conftest only avoid repeat work inside one pytest
run) and asserts at the tolerance the result is claimed at. Run with
-v to get one pass/fail line per item.
"""

import os
import time

import numpy as np
import pytest
from scipy.special import jn_zeros

from lapspec import bie, bounds, cli, fem, geometry, pencil, reference
from conftest import (shared_bie, shared_extrapolated, shared_gww_mps,
                      shared_solve, shared_square_mps, union_spectrum)

PI2 = np.pi**2

# Reference eccentric-annulus values (hole offset 0.88) at the finest
# node count of the refinement schedule.
ANNULUS_TARGETS = {1: 0.794597555472255, 2: 0.961791479149744,
                   10: 4.438646399422233, 100: 46.438543189337942}

# Steklov values for the two drums that the refined computation has to
# land on: sigma_1..sigma_4 per drum, quadratic elements, extrapolated.
DRUM_STEKLOV = {"gww-a": (0.2803, 0.7919, 1.0897, 1.7054),
                "gww-b": (0.3096, 0.6130, 1.2375, 2.0244)}


# ---------------------------------------------------------------------------
# boundary-integral route
# ---------------------------------------------------------------------------

def test_c01_eccentric_annulus_refinement_schedule():
    """Hole offset 0.88: the node-count schedule reaches the reference
    values, sigma_1/2/10 to rel 1e-8 and sigma_100 to rel 1e-6, in
    under five minutes.

    The schedule counts are per curve. Read as totals split evenly the
    coarsest level is not even runnable (65 nodes per curve is odd, and
    the outer circle could not carry the 100th eigenfunction), and the
    per-curve reading tracks the reference table one to four orders of
    magnitude closer at every coarser level.
    """
    t0 = time.monotonic()
    finest = None
    for n in (130, 260, 520, 780, 1040):
        finest = shared_bie(0.88, n, count=101)
    elapsed = time.monotonic() - t0
    for k, target in ANNULUS_TARGETS.items():
        rel = abs(finest.eigenvalues[k] - target) / target
        assert rel <= (1e-6 if k == 100 else 1e-8), \
            f"sigma_{k}: {finest.eigenvalues[k]!r} vs {target!r} (rel {rel:.2e})"
    assert elapsed < 300.0, f"schedule took {elapsed:.0f}s"


def test_c02_concentric_annulus_closed_form():
    """Centered hole: first 20 eigenvalues match the separated solution
    to 1e-9 absolute, and clustering recovers the multiplicity pattern
    (zero mode and radial log mode simple, everything else double)."""
    computed = shared_bie(0.0, 256, count=512).eigenvalues[:20]
    ref = reference.concentric_annulus_steklov(0.1, count=20)
    assert np.max(np.abs(computed - ref.values)) <= 1e-9
    radial = -(1.0 + 10.0) / np.log(0.1)
    assert np.min(np.abs(computed - radial)) <= 1e-9
    sizes, _ = pencil.cluster(computed)
    assert list(sizes) == [m for _, m in ref.pairs()]


def test_c07_hole_offset_monotonicity():
    """sigma_1 decreases strictly as the hole slides from centered to
    offset 0.88, across the full 45-point grid at 660 nodes."""
    grid = np.linspace(0.0, 0.88, 45)
    rows = bie.sweep_annulus(grid, 330, [1])
    sigma1 = np.array([r[2] for r in rows])
    assert len(sigma1) == 45
    assert np.all(np.diff(sigma1) < 0.0)


def test_c08_quasimode_union_agreement():
    """Offset 0.4: eigenvalues 50..200 agree with the merged spectra of
    the two boundary circles to rel 1e-3 (they agree far better; the
    bound is the claimed super-algebraic closeness at finite k)."""
    sp = shared_bie(0.4, 440, count=880)
    union = union_spectrum(
        reference.disk_spectra("steklov", radius=1.0, count=260),
        reference.disk_spectra("steklov", radius=0.1, count=40),
        count=220)
    k = np.arange(50, 201)
    dev = np.abs(sp.eigenvalues[k] - union.values[k]) / union.values[k]
    assert dev.max() <= 1e-3, f"max rel deviation {dev.max():.2e}"


# ---------------------------------------------------------------------------
# the isospectral drums
# ---------------------------------------------------------------------------

def test_c03_steklov_distinguishes_the_drums(gww_steklov):
    """The drums share Dirichlet and Neumann spectra but not Steklov:
    extrapolated quadratic-element values land within 5e-3 of the
    reference rows, the nonconforming <= P2 <= P1 ordering holds at
    every level, and the compare verdict is distinct."""
    for name, known in DRUM_STEKLOV.items():
        lims, spectra = shared_extrapolated(name, "steklov", 5, 5)
        err = np.abs(lims[1:5] - np.array(known))
        assert err.max() <= 5e-3, f"{name}: {err}"
        for lvl, sp in zip((3, 4, 5), spectra):
            cr = gww_steklov(name, "CR", lvl).eigenvalues[1:5]
            p2 = sp.eigenvalues[1:5]
            p1 = gww_steklov(name, "P1", lvl).eigenvalues[1:5]
            assert np.all(cr <= p2 + 1e-12) and np.all(p2 <= p1 + 1e-12)
    rows, overall = cli.compare_domains(geometry.load_domain("gww-a"),
                                        geometry.load_domain("gww-b"),
                                        "steklov", 5, 5, kind="P2")
    assert overall == "distinct"
    assert all(r[-1] == "distinct" for r in rows[1:])  # every nonzero index


def test_c04_dirichlet_isospectrality():
    """First 10 Dirichlet eigenvalues of the two drums agree pairwise to
    rel 1e-3 after extrapolation, with the 10th at 26.08 +- 0.05.

    The 26.08 normalization corresponds to the drums at twice the
    builtin unit edge length, hence scale=2 here (eigenvalues of the
    unit drums are exactly 4x these).
    """
    a = shared_extrapolated("gww-a", "dirichlet", 10, 6, scale=2.0)[0]
    b = shared_extrapolated("gww-b", "dirichlet", 10, 6, scale=2.0)[0]
    assert np.max(np.abs(a - b) / a) <= 1e-3
    assert abs(a[9] - 26.08) <= 0.05, f"gww-a 10th: {a[9]:.4f}"
    assert abs(b[9] - 26.08) <= 0.05, f"gww-b 10th: {b[9]:.4f}"


def test_c04_neumann_isospectrality():
    """Same pairing for the Neumann spectra: zero mode on both drums,
    then 10 nonzero values agreeing pairwise to rel 1e-3."""
    a = shared_extrapolated("gww-a", "neumann", 11, 6, scale=2.0)[0]
    b = shared_extrapolated("gww-b", "neumann", 11, 6, scale=2.0)[0]
    assert a[0] == 0.0 and b[0] == 0.0
    assert np.max(np.abs(a[1:] - b[1:]) / a[1:]) <= 1e-3


def test_c04_neumann_tenth_magnitude():
    """The 10th nonzero Neumann value of drum a at the scale-2
    normalization (10th Dirichlet value 26.08) is 11.332, certified from
    both sides at level 6.

    An earlier version of this test pinned the value at 9.62165 +- 0.01.
    No source for that number could be found: it is neither the 10th
    nonzero value at the unit normalization (45.33) nor at area 14
    (5.666), and the program's own two-sided bounds exclude it:

    - normalization and index count: the drum is a union of half-square
      tiles of the (4,4,2) reflection tiling, so pi^2/2 and pi^2 are
      exact Neumann eigenvalues; P2 extrapolation over levels 4-6 puts
      the 5th and 9th nonzero values within 2e-7 and 1e-6 of them, and
      the dense level-4 solve has no eigenvalue between 8.83 and 9.87;
    - enclosure of the 10th nonzero value (index 11 with the zero mode)
      at level 6, h = 0.0699: the Crouzeix-Raviart value 11.2814 gives
      the lower bound 11.1626 (cr_lower_bound, Neumann case after Liu
      2015), the conforming P2 value 11.3335 is an upper bound by
      min-max. The same construction encloses pi^2 for the 9th, in
      [9.748, 9.870];
    - the CR column rises towards the P2 column and extrapolates to
      11.3248, within 0.008 of the P2 limit 11.3323;
    - the lower bound holds for the exact discrete eigenvalue. The CR
      mass is diagonal with condition 4 on these meshes, so a relative
      pencil residual r puts the computed value within 4 lambda r
      (about 45 r) of a discrete eigenvalue; the residual is 1.3e-11,
      and the gate at 1e-5 keeps that distance under 5e-4, far inside
      the margins above.
    """
    a, spectra = shared_extrapolated("gww-a", "neumann", 11, 6, scale=2.0)
    tenth_nonzero = a[a > 0.0][9]
    assert abs(a[5] - PI2 / 2) <= 1e-5 and abs(a[9] - PI2) <= 1e-5, \
        f"5th/9th nonzero Neumann values: {a[5]:.8f}, {a[9]:.8f}"
    p2 = spectra[-1]
    cr = shared_solve("gww-a", "neumann", "CR", 6, 11, scale=2.0)
    residual = bounds._pencil_residual(cr, 11)
    assert residual <= 1e-5, f"CR pencil residual {residual:.2e}"
    lower = bounds.cr_lower_bound(cr.eigenvalues[10], cr.param)
    upper = p2.eigenvalues[10]
    assert lower <= tenth_nonzero <= upper, \
        f"{tenth_nonzero:.5f} outside [{lower:.5f}, {upper:.5f}]"
    old = 9.62165
    assert lower > old + 0.01 or upper < old - 0.01, \
        f"[{lower:.5f}, {upper:.5f}] meets {old} +- 0.01"
    assert abs(tenth_nonzero - 11.332) <= 0.01, \
        f"10th nonzero Neumann value: {tenth_nonzero:.5f}"


def test_c09_mps_enclosure_consistency():
    """Particular-solutions route against the finite-element route. On
    the square each of the five located eigenvalues carries a residual
    interval containing the analytic value. On drum a, the located
    eigenvalue near 26.08 (at the scale-2 normalization) agrees with
    the extrapolated 10th Dirichlet value to within its own interval
    radius."""
    for lam, enc, exact in shared_square_mps(14):
        assert exact in enc, f"[{enc.lower}, {enc.upper}] misses {exact}"
    lam, enc, _, _ = shared_gww_mps(14)  # unit drum; divide by 4 to rescale
    fem10 = shared_extrapolated("gww-a", "dirichlet", 10, 6, scale=2.0)[0][9]
    assert abs(lam / 4.0 - 26.08) <= 0.05
    assert abs(lam / 4.0 - fem10) <= enc.radius / 4.0, \
        f"mps {lam/4.0:.6f} vs fem {fem10:.6f}, radius {enc.radius/4.0:.2e}"


def test_c10_faber_krahn_normalization():
    """Area-normalized fundamental tones: lambda_1 * |Omega| exceeds the
    disk value pi * j_{0,1}^2 for both drums and both squares, solved
    all-Dirichlet."""
    disk_value = np.pi * jn_zeros(0, 1)[0]**2
    for name in ("gww-a", "gww-b", "unit-square", "dn-square"):
        dom = geometry.load_domain(name)
        sp = fem.solve_fem(dom, fem.EigenProblemSpec("dirichlet", 1,
                                                     kind="P2", level=4))
        assert sp.eigenvalues[0] * dom.area() > disk_value


# ---------------------------------------------------------------------------
# mixed problems and bracketing
# ---------------------------------------------------------------------------

def test_c05_mixed_bc_isospectral_pair():
    """dn-square and dn-triangle: first 6 mixed eigenvalues agree
    pairwise to rel 1e-3, and the square's first is pi^2(1 + 1/4) to
    rel 1e-4 (separable: Dirichlet across, Neumann along)."""
    rows, overall = cli.compare_domains(geometry.load_domain("dn-square"),
                                        geometry.load_domain("dn-triangle"),
                                        "mixed", 6, 5, kind="P2")
    assert overall == "consistent-with-equal"
    for _, va, vb, *_ in rows:
        assert abs(va - vb) / va <= 1e-3
    assert abs(rows[0][1] - 1.25 * PI2) / (1.25 * PI2) <= 1e-4


def test_c06_certified_bracketing_square(square):
    """Five-level two-sided localization of the square's fundamental
    tone: the shifted nonconforming lower bound and the conforming
    upper value straddle 2 pi^2 at every level, final width <= 0.5."""
    report = bounds.bracket_report(square, 1, [1, 2, 3, 4, 5])
    assert report.certified
    for _, _, _, lower, p1, _ in report.rows:
        assert lower <= 2 * PI2 <= p1
    lo, hi = report.enclosure
    assert lo <= 2 * PI2 <= hi
    assert hi - lo <= 0.5


_PARTITION_FILE = os.environ.get(
    "SPECTRA_PARTITION_FILE",
    os.path.join(os.path.dirname(__file__), "data", "partition-weighted.domain"))


def test_c11_weighted_partition_bracketing():
    """Weighted mixed problem on a partitioned domain, bracketed from
    both sides over five levels. The partition geometry is not pinned
    down enough to build in, so this runs only when a domain file is
    supplied (SPECTRA_PARTITION_FILE or tests/data/)."""
    if not os.path.exists(_PARTITION_FILE):
        pytest.skip("weighted-partition domain file not supplied; looked at "
                    f"{_PARTITION_FILE} (the partition geometry is "
                    "under-specified, so no builtin stands in for it)")
    dom = geometry.load_domain(_PARTITION_FILE)
    p1, cr = [], []
    for lvl in (1, 2, 3, 4, 5):
        for kind, seq in (("P1", p1), ("CR", cr)):
            spec = fem.EigenProblemSpec("mixed", 1, kind=kind, level=lvl)
            seq.append(fem.solve_fem(dom, spec).eigenvalues[0])
    assert np.all(np.diff(p1) < 0) and np.all(np.diff(cr) > 0)
    assert 2.2 <= cr[-1] <= p1[-1] <= 2.35


def test_c12_validation_gate():
    """The self-check battery the CLI ships with exits clean."""
    assert cli.main(["validate"]) == 0
