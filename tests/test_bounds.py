import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapspec import bounds, fem, geometry, reference
from lapspec.bounds import (KAPPA_SQ, bracket_report, cr_lower_bound,
                            richardson_extrapolate)

from conftest import shared_solve


def test_kappa_constant():
    j11 = 3.8317059702075125
    assert KAPPA_SQ == pytest.approx(0.125 + 1.0 / j11**2, rel=1e-12)


def test_lower_bound_formula_by_hand():
    lam, h = 19.0, 0.1
    want = lam / (1.0 + KAPPA_SQ * h * h * lam)
    assert cr_lower_bound(lam, h) == pytest.approx(want, rel=1e-15)
    assert cr_lower_bound(lam, h) == pytest.approx(18.327543336103453, rel=1e-13)


def test_lower_bound_input_validation():
    with pytest.raises(ValueError):
        cr_lower_bound(-1.0, 0.1)
    with pytest.raises(ValueError):
        cr_lower_bound(5.0, 0.0)


@pytest.mark.parametrize("lam, h", [(np.nan, 0.1), (10.0, np.nan), (np.inf, 0.1),
                                    (10.0, np.inf)])
def test_lower_bound_rejects_non_finite_input(lam, h):
    # NaN fails every comparison and inf passes "> 0": both used to slip
    # through as a nan or 0.0 bound
    with pytest.raises(ValueError, match="finite positive"):
        cr_lower_bound(lam, h)


@settings(max_examples=80, deadline=None)
@given(lam=st.floats(min_value=1e-3, max_value=1e4),
       h=st.floats(min_value=1e-4, max_value=1.0))
def test_lower_bound_below_input_and_monotone(lam, h):
    lo = cr_lower_bound(lam, h)
    assert 0 < lo < lam
    # increasing in the eigenvalue, decreasing in the mesh size
    assert cr_lower_bound(lam * 1.01, h) > lo
    assert cr_lower_bound(lam, h * 1.5) < lo


def test_lower_bound_tightens_as_h_vanishes():
    assert cr_lower_bound(19.0, 1e-8) == pytest.approx(19.0, rel=1e-12)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_lower_bound_below_exact_neumann_square(square, level):
    # Neumann square: pi^2 (m^2 + n^2), m, n >= 0, zero mode first
    exact = np.sort([np.pi**2 * (m * m + n * n)
                     for m in range(5) for n in range(5)])[:13]
    spec = fem.EigenProblemSpec("neumann", 13, kind="CR", level=level)
    neumann = geometry.Domain("polygon", square.vertices, ["neumann"] * 4)
    sp = fem.solve_fem(neumann, spec)
    assert sp.eigenvalues[0] == 0.0
    for lam_cr, lam in zip(sp.eigenvalues[1:], exact[1:]):
        assert cr_lower_bound(lam_cr, sp.param) <= lam


# ---------------------------------------------------------------------------
# extrapolation
# ---------------------------------------------------------------------------

def test_extrapolation_recovers_quadratic_model():
    hs = np.array([0.4, 0.2, 0.1, 0.05])
    vals = 5.0 + 3.0 * hs**2
    ex = richardson_extrapolate(vals, hs)
    assert ex.limit == pytest.approx(5.0, abs=1e-12)
    assert ex.rate == pytest.approx(2.0, abs=1e-10)


def test_extrapolation_constant_sequence_unextrapolated():
    ex = richardson_extrapolate([3.0, 3.0, 3.0], [0.4, 0.2, 0.1])
    assert ex.limit == 3.0
    assert np.isnan(ex.rate)


def test_extrapolation_nonmonotone_tail_unextrapolated():
    ex = richardson_extrapolate([5.3, 5.1, 5.2], [0.4, 0.2, 0.1])
    assert ex.limit == 5.2
    assert np.isnan(ex.rate)


def test_extrapolation_growing_increments_unextrapolated():
    # increments 48.1 then 52.7: a negative rate, whose Aitken limit (-480)
    # would lie below every level
    ex = richardson_extrapolate([29.8, 77.9, 130.6], [0.4, 0.2, 0.1])
    assert ex.limit == 130.6
    assert np.isnan(ex.rate)


def test_extrapolation_two_windows_must_agree():
    # rates 1.0 then 2.0: the finest three levels alone give the limit
    # 2.5 - 0.25 / 1.5 and the rate 2
    hs = [0.8, 0.4, 0.2, 0.1]
    vals = [9.0, 5.0, 3.0, 2.5]
    ex = richardson_extrapolate(vals, hs)
    assert np.isfinite(ex.limit)
    assert ex == richardson_extrapolate(vals[1:], hs[1:])
    assert ex.limit == pytest.approx(7.0 / 3.0, rel=1e-14)
    assert ex.rate == pytest.approx(2.0, rel=1e-14)


def test_extrapolation_rejects_bad_schedules():
    with pytest.raises(ValueError):
        richardson_extrapolate([1.0, 2.0], [0.2, 0.1])
    with pytest.raises(ValueError):
        richardson_extrapolate([1.0, 2.0, 3.0], [0.4, 0.3, 0.15])
    with pytest.raises(ValueError):
        richardson_extrapolate([1.0, 2.0, 3.0], [0.4, -0.2, 0.1])


@settings(max_examples=60, deadline=None)
@given(limit=st.floats(min_value=-100, max_value=100),
       c=st.floats(min_value=0.1, max_value=10.0),
       rate=st.floats(min_value=0.8, max_value=4.0))
def test_extrapolation_recovers_synthetic_models(limit, c, rate):
    hs = np.array([0.8, 0.4, 0.2, 0.1, 0.05])
    vals = limit + c * hs**rate
    ex = richardson_extrapolate(vals, hs)
    assert ex.rate == pytest.approx(rate, rel=1e-6)
    # Aitken leaves an O(h^{2r}) remainder, so compare against that scale
    assert abs(ex.limit - limit) <= max(1e-9, 0.5 * c * hs[-1] ** min(2 * rate, 8))


# ---------------------------------------------------------------------------
# three-level solve and extrapolate
# ---------------------------------------------------------------------------

# 2 pi^2 and the first of the 5 pi^2 pair; the pair's second member
# extrapolates to 1.01e-5 relative at this level
_SQUARE_P2 = fem.EigenProblemSpec("dirichlet", 2, kind="P2", level=4)


@pytest.fixture(scope="module")
def square_extrapolated(square):
    return bounds.extrapolated_spectrum(square, _SQUARE_P2)


def test_extrapolated_spectrum_matches_exact_square(square_extrapolated):
    limits, _ = square_extrapolated
    exact = reference.rectangle_spectra("dirichlet", count=2).values[:2]
    assert np.max(np.abs(limits - exact) / exact) <= 1e-5


def test_extrapolated_spectrum_equals_hand_written_loop(square,
                                                        square_extrapolated):
    limits, _ = square_extrapolated
    spectra = [fem.solve_fem(square, fem.EigenProblemSpec(
        "dirichlet", 2, kind="P2", level=lvl)) for lvl in (2, 3, 4)]
    hs = [sp.param for sp in spectra]
    want = [richardson_extrapolate([sp.eigenvalues[j] for sp in spectra],
                                   hs).limit for j in range(2)]
    assert limits.tolist() == want


def test_extrapolated_spectrum_returns_each_level(square_extrapolated):
    _, spectra = square_extrapolated
    assert [sp.flags["level"] for sp in spectra] == [2, 3, 4]


def test_extrapolated_spectrum_needs_three_levels(square):
    spec = fem.EigenProblemSpec("dirichlet", 2, kind="P2", level=1)
    with pytest.raises(ValueError):
        bounds.extrapolated_spectrum(square, spec)


# ---------------------------------------------------------------------------
# bracket reports
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def square_report(square):
    return bracket_report(square, 1, [1, 2, 3, 4, 5])


def test_square_bracket_encloses_truth(square_report):
    lo, hi = square_report.enclosure
    exact = 2 * np.pi**2
    assert lo <= exact <= hi
    assert square_report.certified is True
    assert hi - lo < 0.5


def test_square_bracket_column_structure(square_report):
    for (lvl, h, cr, lo, p1, p2) in square_report.rows:
        assert lo <= cr  # the correction only pushes the CR value down
        assert lo <= 2 * np.pi**2 <= p1  # two-sided at every level
        assert p2 <= p1
        for x in (h, cr, lo, p1, p2):
            assert type(x) is float
    hs = [r[1] for r in square_report.rows]
    assert np.allclose(np.array(hs[:-1]) / np.array(hs[1:]), 2.0)


def test_square_bracket_rates(square_report):
    assert square_report.extrapolated["cr"].rate == pytest.approx(2.0, abs=0.05)
    assert square_report.extrapolated["p1"].rate == pytest.approx(2.0, abs=0.05)
    assert square_report.extrapolated["p2"].rate == pytest.approx(4.0, abs=0.2)
    assert square_report.best == pytest.approx(2 * np.pi**2, rel=1e-7)


def test_square_bracket_residuals_small(square_report):
    assert len(square_report.cr_residuals) == 5
    assert max(square_report.cr_residuals) < 1e-10


def _reassembled_residual(spectrum, index):
    """Reference: ||Kv - lam Mv|| / (||Kv|| + |lam| ||Mv||) for pair `index`,
    with K and M assembled anew and applied to the stored vector."""
    space = spectrum.space
    K = fem.assemble_stiffness(space)
    M = fem.assemble_mass(space, spectrum.flags["weight"])
    free = space.free
    lam = spectrum.eigenvalues[index - 1]
    vec = spectrum.vectors[free, index - 1]
    kv = K[free][:, free] @ vec
    mv = M[free][:, free] @ vec
    denom = np.linalg.norm(kv) + abs(lam) * np.linalg.norm(mv)
    return 0.0 if denom == 0 else float(np.linalg.norm(kv - lam * mv) / denom)


@pytest.mark.parametrize("name, bc, level",
                         [("unit-square", "dirichlet", lvl) for lvl in range(1, 6)]
                         + [("dn-square", "mixed", 3)])
def test_recorded_residual_matches_a_reassembled_one(name, bc, level):
    # level 1 of the square has 8 free CR dofs, so four pairs take the
    # dense path there; the other cases take Lanczos
    spectrum = shared_solve(name, bc, "CR", level, 4)
    for index in range(1, 5):
        want = _reassembled_residual(spectrum, index)
        assert want > 0
        assert bounds._pencil_residual(spectrum, index) == pytest.approx(
            want, rel=1e-12, abs=0)


def test_bracket_csv_shape(square_report):
    text = square_report.to_csv()
    lines = text.strip().split("\n")
    assert lines[0].startswith("# bracket report: domain=unit-square index=1 "
                               "certified=true")
    assert lines[1].startswith("# enclosure,")
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "level,h,cr,cr_lower,p1,p2"
    data = [l for l in lines if not l.startswith(("#", "level", "extrapolated"))]
    assert len(data) == 5
    assert len(data[0].split(",")) == 6
    tail = [l for l in lines if l.startswith("extrapolated")]
    assert [t.split(",")[1] for t in tail] == ["cr", "p1", "p2"]
    # the file round-trips through float() without precision loss
    lvl, h, cr, lo, p1, p2 = data[-1].split(",")
    assert float(h) == square_report.rows[-1][1]
    assert float(cr) == square_report.rows[-1][2]


def test_no_lower_value_lies_above_the_enclosure(square_report):
    # the Richardson limit of the cr_lower column over levels 1-5 was
    # 19.758, above both 2 pi^2 and the enclosure's upper end 19.739
    lines = square_report.to_csv().strip().split("\n")
    hi = float(lines[1].split(",")[2])
    header = next(l for l in lines if l.startswith("level,")).split(",")
    lowers = []
    for line in lines:
        cells = line.split(",")
        if cells[0] == "extrapolated" and "lower" in cells[1]:
            lowers.append(float(cells[2]))
        elif cells[0].isdigit():
            lowers += [float(c) for name, c in zip(header, cells) if "lower" in name]
    assert lowers
    assert max(lowers) <= hi


def test_improvement_with_refinement_for_flagged_columns(square_report):
    exact = 2 * np.pi**2
    for col in ("cr", "p1", "p2"):
        ex = square_report.extrapolated[col]
        vals = {"cr": [r[2] for r in square_report.rows],
                "p1": [r[4] for r in square_report.rows],
                "p2": [r[5] for r in square_report.rows]}[col]
        assert abs(vals[-1] - ex.limit) <= abs(vals[0] - ex.limit)
        assert abs(vals[-1] - exact) <= abs(vals[0] - exact)


def test_mixed_markers_not_certified():
    dom = geometry.load_domain("dn-square")
    rep = bracket_report(dom, 1, [2, 3, 4])
    assert rep.certified is False
    assert np.isnan(rep.enclosure[0])
    assert np.all(np.isnan([r[3] for r in rep.rows]))
    exact = reference.rectangle_spectra("mixed", neumann_sides=("top",), count=1)[0]
    assert rep.enclosure[1] >= exact
    assert rep.best == pytest.approx(exact, rel=1e-5)


def test_bracket_report_validation(square, disk):
    with pytest.raises(ValueError):
        bracket_report(square, 1, [1, 2])
    with pytest.raises(ValueError):
        bracket_report(square, 1, [1, 2, 4])
    with pytest.raises(ValueError):
        bracket_report(square, 0, [1, 2, 3])
    with pytest.raises(ValueError):
        bracket_report(disk, 1, [1, 2, 3])
    with pytest.raises(ValueError, match="unknown edge marker 'steklov'"):
        geometry.Domain("polygon", square.vertices, ["steklov"] * 4)


def test_first_level_counts_the_free_dofs_of_every_space(square):
    # the Dirichlet square has (2^L - 1)^2 free P1 dofs at level L, the
    # fewest of the three spaces
    assert bounds.first_level(square, 1, 5) == 1
    assert bounds.first_level(square, 2, 5) == 2
    assert bounds.first_level(square, 9, 5) == 2
    assert bounds.first_level(square, 10, 5) == 3
    assert bounds.first_level(square, 50, 3) is None
    # the search runs over levels 1..finest: none at all for finest 0
    assert bounds.first_level(square, 1, 0) is None
    neumann = geometry.Domain("polygon", square.vertices, ["neumann"] * 4)
    # with nothing eliminated, P1 has (2^L + 1)^2 dofs
    assert bounds.first_level(neumann, 9, 5) == 1
    assert bounds.first_level(neumann, 10, 5) == 2
