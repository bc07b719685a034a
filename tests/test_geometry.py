import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lapspec
from lapspec import geometry
from lapspec.geometry import Domain, boundary_quadrature, load_domain, refine, triangulate


def test_builtin_names_resolve():
    for name in ("gww-a", "gww-b", "unit-square", "dn-square", "dn-triangle",
                 "unit-disk", "annulus:eps=0.3"):
        assert load_domain(name).name == name


def test_annulus_name_is_canonical():
    # one constructor for the family: the name is the offset's shortest form
    dom = load_domain("annulus:eps=0.40")
    assert dom.name == "annulus:eps=0.4"
    assert [(tuple(c), r, o) for c, r, o in dom.circles] == \
        [((0.0, 0.0), 1.0, 1), ((0.0, 0.4), 0.1, -1)]
    assert lapspec.annulus_domain is lapspec.bie.annulus_domain is geometry.annulus_domain


def test_unknown_name_raises():
    with pytest.raises(ValueError):
        load_domain("no-such-domain")


def test_square_area(square):
    assert square.area() == pytest.approx(1.0, rel=1e-15)


def test_gww_pair_share_area(gww_a, gww_b):
    # both drums are unions of seven half-unit right triangles
    assert gww_a.area() == pytest.approx(1.75, rel=1e-14)
    assert gww_b.area() == pytest.approx(gww_a.area(), rel=1e-14)


def test_clockwise_polygon_rejected():
    with pytest.raises(ValueError):
        Domain("polygon", [(0, 0), (0, 1), (1, 1), (1, 0)])


def test_self_intersecting_polygon_rejected():
    with pytest.raises(ValueError):
        Domain("polygon", [(0, 0), (1, 1), (1, 0), (0, 1)])


def test_short_edge_rejected_naming_the_edge():
    # vertex 3 duplicates vertex 2 up to a relative 1e-12
    verts = [(0, 0), (1, 0), (1, 1), (1 - 1e-12, 1), (0, 1)]
    with pytest.raises(ValueError, match=r"polygon edge 2 \(vertex 2 to 3\)"):
        Domain("polygon", verts)


def test_minimum_edge_is_relative_to_the_diameter():
    edge = 10 * geometry.MIN_EDGE_FRACTION
    for s in (1e-9, 1.0, 1e9):
        verts = s * np.array([(0, 0), (1, 0), (1, 1), (1 - edge, 1), (0, 1)])
        assert Domain("polygon", verts).area() == pytest.approx(s * s, rel=1e-12, abs=0)


def test_area_of_a_polygon_far_from_the_origin():
    square = np.array([(0, 0), (1, 0), (1, 1), (0, 1)], dtype=float)
    assert Domain("polygon", square + 1e8).area() == 1.0


def test_bad_marker_rejected():
    with pytest.raises(ValueError):
        Domain("polygon", [(0, 0), (1, 0), (0, 1)], ["dirichlet", "robin", "dirichlet"])


def test_inner_circle_containment_enforced():
    with pytest.raises(ValueError):
        Domain("smooth-curves", circles=[((0, 0), 1.0, +1), ((0.95, 0), 0.2, -1)])


@pytest.mark.parametrize("kind, geometry_kw", [
    ("polygon", {"vertices": [(0, 0), (1, 0), (np.nan, 1)]}),
    ("polygon", {"vertices": [(0, 0), (1, 0), (np.inf, 1)]}),
    ("smooth-curves", {"circles": [((0, 0), 1.0, +1), ((0, np.nan), 0.1, -1)]}),
    ("smooth-curves", {"circles": [((0, 0), 1.0, +1), ((0, 0.4), np.nan, -1)]}),
    ("smooth-curves", {"circles": [((0, 0), np.inf, +1)]}),
], ids=["vertex-nan", "vertex-inf", "centre-nan", "radius-nan", "radius-inf"])
def test_non_finite_geometry_rejected(kind, geometry_kw):
    with pytest.raises(ValueError, match="finite"):
        Domain(kind, **geometry_kw)


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_non_finite_annulus_offset_rejected(eps):
    with pytest.raises(ValueError, match="finite"):
        load_domain(f"annulus:eps={eps}")


@pytest.mark.parametrize("s", [0.0, -1.0, np.nan, np.inf])
def test_scale_factor_must_be_positive_and_finite(s):
    with pytest.raises(ValueError, match="positive and finite"):
        load_domain("unit-square").scaled(s)


def test_scaled_area_and_markers():
    dom = load_domain("dn-square").scaled(2.0)
    assert dom.area() == pytest.approx(4.0, rel=1e-14)
    assert dom.markers == ["dirichlet", "dirichlet", "neumann", "dirichlet"]
    disk = load_domain("unit-disk").scaled(0.5)
    assert disk.area() == pytest.approx(np.pi * 0.25, rel=1e-14)


def test_domain_file_polygon(tmp_path):
    f = tmp_path / "wedge.dom"
    f.write_text(
        "# a marked triangle\n"
        "v 0 0\nv 2 0\nv 0 2\n"
        "e 0 1 neumann\n"
        "e 1 2 dirichlet\n"
        "e 2 0 neumann\n"
    )
    dom = load_domain(str(f))
    assert dom.kind == "polygon"
    assert dom.markers == ["neumann", "dirichlet", "neumann"]
    assert dom.area() == pytest.approx(2.0)


def test_domain_file_circles(tmp_path):
    f = tmp_path / "ring.dom"
    f.write_text("c 0 0 1 ccw\nc 0 0.4 0.1 cw\nweight genus2\n")
    dom = load_domain(str(f))
    assert dom.kind == "smooth-curves"
    assert dom.weight == "genus2"
    assert len(dom.circles) == 2


def test_readme_domain_file_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Domain files", 1)[1]
    example = re.search(r"```\n(.*?)```", section, re.S).group(1)
    f = tmp_path / "readme.dom"
    f.write_text(example)
    dom = load_domain(str(f))
    assert dom.kind == "polygon"
    assert dom.markers == ["dirichlet", "neumann", "dirichlet", "neumann"]
    assert dom.weight == "unit"
    assert dom.area() == pytest.approx(1.0)


def test_domain_file_steklov_marker_names_the_line(tmp_path):
    # no solve reads a steklov edge marker: --bc steklov puts the condition
    # on every edge, and any other bc would treat the edge as neumann
    f = tmp_path / "square.dom"
    f.write_text("v 0 0\nv 1 0\nv 1 1\nv 0 1\ne 1 2 neumann\ne 2 3 steklov\n")
    with pytest.raises(ValueError,
                       match=r"square\.dom:6: unknown edge marker 'steklov'"):
        load_domain(str(f))


def test_domain_file_mixed_sections_rejected(tmp_path):
    f = tmp_path / "bad.dom"
    f.write_text("v 0 0\nv 1 0\nv 0 1\nc 0 0 1 ccw\n")
    with pytest.raises(ValueError):
        load_domain(str(f))


@pytest.mark.parametrize("text", [
    "v 0 0\nv nan 1\nv 1 1\n",
    "v 0 0\nv inf 1\nv 1 1\n",
    "c 0 0 1 ccw\nc 0 nan 0.1 cw\n",
    "c 0 0 1 ccw\nc 0 0.4 inf cw\n",
], ids=["vertex-nan", "vertex-inf", "centre-nan", "radius-inf"])
def test_domain_file_non_finite_number_names_the_line(text, tmp_path):
    f = tmp_path / "bad.dom"
    f.write_text(text)
    with pytest.raises(ValueError, match=r"bad\.dom:2: .*non-finite"):
        load_domain(str(f))


def test_domain_file_parse_error_carries_line_number(tmp_path):
    f = tmp_path / "typo.dom"
    f.write_text("v 0 0\nv 1 zero\n")
    with pytest.raises(ValueError, match=":2:"):
        load_domain(str(f))


@pytest.mark.parametrize("edge", ["e 5 2 neumann", "e -1 0 neumann"],
                         ids=["past-the-end", "negative"])
def test_domain_file_edge_index_outside_the_polygon(edge, tmp_path):
    # an index is not taken modulo the vertex count: "e -1 0" would mark
    # edge 3, and "e 5 2" would index past the markers
    f = tmp_path / "square.dom"
    f.write_text(f"v 0 0\nv 1 0\nv 1 1\nv 0 1\n{edge}\n")
    with pytest.raises(ValueError, match=r"square\.dom:5: .*outside 0\.\.3"):
        load_domain(str(f))


SQUARE = "v 0 0\nv 1 0\nv 1 1\nv 0 1\n"
DISK = "c 0 0 1 ccw\n"


@pytest.mark.parametrize("text, match", [
    (SQUARE + "e 0 1 neumann\ne 1 2 neumann\ne 0 1 dirichlet\n",
     r"shape\.dom:7: edge \(0,1\) is marked again \(first at .*shape\.dom:5\)"),
    (SQUARE + "e 2 3 neumann\ne 2 3 neumann\n",
     r"shape\.dom:6: edge \(2,3\) is marked again \(first at .*shape\.dom:5\)"),
    (SQUARE + "weight genus2\n# unit after all\nweight unit\n",
     r"shape\.dom:7: second weight line \(first at .*shape\.dom:5\)"),
    (DISK + "weight unit\nweight unit\n",
     r"shape\.dom:3: second weight line \(first at .*shape\.dom:2\)"),
    (DISK + "e 0 1 neumann\n", r"shape\.dom:2: edge line in a circle file"),
], ids=["edge-remarked", "edge-repeated", "weight-twice", "circle-weight-twice",
        "edge-in-circle-file"])
def test_domain_file_says_each_thing_once(text, match, tmp_path):
    # a second line would silently override the first, and a circle file has
    # no polygon edges for an `e` line to mark
    f = tmp_path / "shape.dom"
    f.write_text(text)
    with pytest.raises(ValueError, match=match):
        load_domain(str(f))


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------

def _mesh_tower(domain, levels):
    m = triangulate(domain)
    tower = [m]
    for _ in range(levels):
        m = refine(m)
        tower.append(m)
    return tower


@pytest.mark.parametrize("name", ["unit-square", "gww-a", "gww-b", "dn-triangle"])
def test_boundary_edges_chain_head_to_tail(name):
    # the outline renderer reads vertices[boundary_edges[:, 0]] as the loop
    dom = load_domain(name)
    for mesh in _mesh_tower(dom, 3):
        b = mesh.boundary_edges
        assert np.array_equal(b[:, 1], np.roll(b[:, 0], -1))
        assert len(np.unique(b[:, 0])) == len(b)
        assert geometry.polygon_area(mesh.vertices[b[:, 0]]) == pytest.approx(
            dom.area(), rel=1e-12)


@pytest.mark.parametrize("name", ["unit-square", "gww-a", "gww-b", "dn-triangle"])
def test_triangle_areas_positive_and_sum_to_domain_area(name):
    dom = load_domain(name)
    for mesh in _mesh_tower(dom, 3):
        areas = mesh.areas()
        assert np.all(areas > 0)
        assert np.sum(areas) == pytest.approx(dom.area(), rel=1e-12)


def test_nonconvex_ear_clipping_triangle_count(gww_a):
    mesh = triangulate(gww_a)
    assert len(mesh.triangles) == len(gww_a.vertices) - 2


@pytest.mark.parametrize("s", [1e-9, 1e6])
def test_ear_clipping_is_scale_invariant(gww_a, s):
    assert np.array_equal(triangulate(gww_a.scaled(s)).triangles,
                          triangulate(gww_a).triangles)


def test_refinement_adds_only_edge_midpoints(square):
    coarse = triangulate(square)
    fine = refine(coarse)
    nold = coarse.n_vertices
    assert np.array_equal(fine.vertices[:nold], coarse.vertices)
    # every appended vertex is the midpoint of some coarse edge
    t = coarse.triangles
    raw = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    raw.sort(axis=1)
    edges = np.unique(raw, axis=0)
    mids = 0.5 * (coarse.vertices[edges[:, 0]] + coarse.vertices[edges[:, 1]])
    for p in fine.vertices[nold:]:
        assert np.min(np.sum((mids - p) ** 2, axis=1)) < 1e-28
    assert fine.n_vertices == nold + len(edges)


def test_refinement_preserves_boundary(gww_a):
    coarse = triangulate(gww_a)
    fine = refine(coarse)
    old_bnd = set(np.unique(coarse.boundary_edges))
    new_bnd = set(np.unique(fine.boundary_edges))
    assert old_bnd <= new_bnd
    assert len(fine.boundary_edges) == 2 * len(coarse.boundary_edges)
    # markers duplicate in place, so edge pairs keep their parent's condition
    for k, m in enumerate(coarse.markers):
        assert fine.markers[2 * k] == m
        assert fine.markers[2 * k + 1] == m
    # perimeter is preserved exactly by midpoint splitting
    assert np.sum(fine.edge_lengths()) == pytest.approx(
        np.sum(coarse.edge_lengths()), rel=1e-14)


@pytest.mark.parametrize("name", ["unit-square", "gww-a", "dn-triangle"])
def test_mesh_numbers_each_edge_once(name):
    for mesh in _mesh_tower(load_domain(name), 2):
        t = mesh.triangles
        brute = sorted({tuple(sorted((int(tri[i]), int(tri[j]))))
                        for tri in t for i, j in ((0, 1), (1, 2), (2, 0))})
        assert [tuple(e) for e in mesh.edges.tolist()] == brute
        for i in range(3):
            opposite = np.sort(np.delete(t, i, axis=1), axis=1)
            assert np.array_equal(mesh.edges[mesh.tri_edges[:, i]], opposite)
        assert np.array_equal(mesh.edges[mesh.boundary_edge_index],
                              np.sort(mesh.boundary_edges, axis=1))


def test_quadruple_triangle_count_and_halved_h(square):
    coarse = triangulate(square)
    fine = refine(coarse)
    assert len(fine.triangles) == 4 * len(coarse.triangles)
    assert fine.h == pytest.approx(coarse.h / 2, rel=1e-14)


_ULP_AFTER_005 = float(np.nextafter(0.05, 1.0))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=0.05, max_value=2 * np.pi - 0.05),
                min_size=4, max_size=9, unique=True))
# vertex pairs 1 ulp apart must be rejected at entry, not reported as a
# false self-intersection or left to give a zero-area triangle in refine
@example([0.05, _ULP_AFTER_005, 1.0, 2.0])
@example([0.05, _ULP_AFTER_005, 1.0, 4.0])
@example([1.0, 6.0, 6.2331853071795855, 6.233185307179586])
# every edge passes the length check, but the polygon is numerically flat
@example([1.0, 1.0 + 2e-8, 1.0 + 4e-8, 1.0 + 6e-8])
def test_convex_polygon_mesh_area_preserved(angles):
    """Every convex polygon inscribed in the circle either meshes with
    positive triangle areas summing to its own area, or is rejected at
    construction because an edge is shorter than the minimum feature or
    the area is below the minimum feature times the squared diameter."""
    pts = np.column_stack([np.cos(sorted(angles)), np.sin(sorted(angles))])
    try:
        dom = Domain("polygon", pts)
    except ValueError as exc:
        if str(exc).startswith("polygon area "):
            diameter = max(np.linalg.norm(pts - p, axis=1).max() for p in pts)
            assert geometry.polygon_area(pts) < geometry.MIN_EDGE_FRACTION * diameter**2
            assert "squared diameter" in str(exc)
            return
        lengths = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1)
        short = int(np.argmin(lengths))
        assert str(exc).startswith(f"polygon edge {short} ")
        assert "of the diameter" in str(exc)
        return
    mesh = refine(triangulate(dom))
    assert np.all(mesh.areas() > 0)
    # relative only: approx's default abs=1e-12 would pass any tiny polygon
    assert np.sum(mesh.areas()) == pytest.approx(dom.area(), rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# circle quadrature
# ---------------------------------------------------------------------------

def test_circle_weights_sum_to_circumference():
    dom = load_domain("annulus:eps=0.3")
    quad = boundary_quadrature(dom, [64, 32])
    for curve, (_, r, _) in zip(quad.curves, dom.circles):
        assert np.sum(curve.weights) == pytest.approx(2 * np.pi * r, rel=1e-14)
    assert quad.total == 96


def test_quadrature_normals_point_out_of_the_domain():
    dom = load_domain("annulus:eps=0.3")
    quad = boundary_quadrature(dom, 32)
    outer, inner = quad.curves
    ro = outer.points - outer.center
    ri = inner.points - inner.center
    assert np.all(np.sum(outer.normals * ro, axis=1) > 0)
    assert np.all(np.sum(inner.normals * ri, axis=1) < 0)
    assert np.allclose(np.sum(quad.normals**2, axis=1), 1.0, atol=1e-14)


def test_quadrature_node_counts_validated(disk):
    with pytest.raises(ValueError):
        boundary_quadrature(disk, 33)
    with pytest.raises(ValueError):
        boundary_quadrature(disk, 2)
    with pytest.raises(ValueError):
        boundary_quadrature(load_domain("unit-square"), 32)


def test_spectral_accuracy_of_trapezoid_rule(disk):
    # the equispaced rule integrates smooth periodic integrands to machine precision
    quad = boundary_quadrature(disk, 24)
    theta = np.arctan2(quad.points[:, 1], quad.points[:, 0])
    val = np.sum(np.exp(np.sin(theta)) * quad.weights)
    dense = boundary_quadrature(disk, 512)
    theta_d = np.arctan2(dense.points[:, 1], dense.points[:, 0])
    ref = np.sum(np.exp(np.sin(theta_d)) * dense.weights)
    assert val == pytest.approx(ref, rel=1e-13)
