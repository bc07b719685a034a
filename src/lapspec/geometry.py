"""Domains (polygons and circle chains), triangulations, boundary quadrature."""
import numpy as np

MARKERS = ("dirichlet", "neumann")

# Shortest polygon edge accepted, as a fraction of the polygon's diameter.
# A shorter edge is in practice a duplicated vertex; the orientation tests
# in validation and ear clipping cannot resolve it reliably in double
# precision, which shows up as a false self-intersection or as a
# zero-area triangle after refinement.
MIN_EDGE_FRACTION = 1e-8


class Domain:
    """A planar domain: either a marked simple polygon or a list of oriented circles.

    Polygon domains carry one marker per edge (edge k joins vertex k to k+1).
    Circle domains consist of one ccw outer circle and optional cw inner circles.
    `weight` selects the mass coefficient: 1 or 4/(1+r^2)^2.
    """

    def __init__(self, kind, vertices=None, markers=None, circles=None,
                 weight="unit", name=None):
        if kind not in ("polygon", "smooth-curves"):
            raise ValueError(f"unknown domain kind {kind!r}")
        if weight not in ("unit", "genus2"):
            raise ValueError(f"unknown weight {weight!r}")
        self.kind = kind
        self.weight = weight
        self.name = name or kind
        if kind == "polygon":
            self.vertices = np.asarray(vertices, dtype=float)
            if self.vertices.ndim != 2 or self.vertices.shape[1] != 2 or len(self.vertices) < 3:
                raise ValueError("polygon needs an (n,2) vertex array, n >= 3")
            if not np.all(np.isfinite(self.vertices)):
                raise ValueError("polygon vertices must be finite")
            n = len(self.vertices)
            self.markers = list(markers) if markers is not None else ["dirichlet"] * n
            if len(self.markers) != n:
                raise ValueError("need one marker per edge")
            for m in self.markers:
                if m not in MARKERS:
                    raise ValueError(f"unknown edge marker {m!r}")
            self._validate_polygon()
        else:
            self.circles = [(np.asarray(c, dtype=float), float(r), int(o))
                            for c, r, o in circles]
            self._validate_circles()

    def _validate_polygon(self):
        v = self.vertices
        n = len(v)
        lengths = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
        diameter = max(np.linalg.norm(v - p, axis=1).max() for p in v)
        short = int(np.argmin(lengths))
        if lengths[short] < MIN_EDGE_FRACTION * diameter:
            raise ValueError(
                f"polygon edge {short} (vertex {short} to {(short + 1) % n}) has "
                f"length {lengths[short]:.3e}, below {MIN_EDGE_FRACTION:g} of "
                f"the diameter {diameter:.3e}")
        area = polygon_area(v)
        if area <= 0:
            raise ValueError("polygon vertices must be counterclockwise")
        # a polygon this thin meshes into triangles whose areas are rounding
        # noise, even when every edge passes the length check above
        if area < MIN_EDGE_FRACTION * diameter**2:
            raise ValueError(
                f"polygon area {area:.3e} is below {MIN_EDGE_FRACTION:g} of "
                f"the squared diameter {diameter:.3e}^2 (numerically flat)")
        # simplicity: no two non-adjacent edges may intersect
        for i in range(n):
            a1, a2 = v[i], v[(i + 1) % n]
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue
                if _segments_intersect(a1, a2, v[j], v[(j + 1) % n]):
                    raise ValueError(f"polygon self-intersects (edges {i} and {j})")

    def _validate_circles(self):
        if not self.circles:
            raise ValueError("need at least one circle")
        for c, r, o in self.circles:
            if not (np.all(np.isfinite(c)) and np.isfinite(r)):
                raise ValueError("circle centres and radii must be finite")
            if r <= 0:
                raise ValueError("circle radius must be positive")
            if o not in (+1, -1):
                raise ValueError("circle orientation must be +1 (ccw) or -1 (cw)")
        (c0, r0, o0) = self.circles[0]
        if o0 != +1:
            raise ValueError("first circle must be the ccw outer boundary")
        inner = self.circles[1:]
        for c, r, o in inner:
            if o != -1:
                raise ValueError("inner circles must be cw")
            if np.linalg.norm(c - c0) + r >= r0:
                raise ValueError("inner circle not strictly inside the outer one")
        for i in range(len(inner)):
            for j in range(i + 1, len(inner)):
                ci, ri, _ = inner[i]
                cj, rj, _ = inner[j]
                if np.linalg.norm(ci - cj) <= ri + rj:
                    raise ValueError("inner circles overlap")

    def area(self):
        if self.kind == "polygon":
            return polygon_area(self.vertices)
        (c0, r0, _) = self.circles[0]
        return np.pi * (r0**2 - sum(r**2 for _, r, _ in self.circles[1:]))

    def scaled(self, s):
        """Copy of the domain dilated by s about the origin."""
        if not 0 < s < np.inf:
            raise ValueError("scale factor must be positive and finite")
        name = f"{self.name}*{s:g}"
        if self.kind == "polygon":
            return Domain("polygon", self.vertices * s, self.markers,
                          weight=self.weight, name=name)
        circles = [(c * s, r * s, o) for c, r, o in self.circles]
        return Domain("smooth-curves", circles=circles, weight=self.weight, name=name)

    def __repr__(self):
        return f"Domain({self.name!r}, kind={self.kind!r}, weight={self.weight!r})"


def polygon_area(v):
    """Signed shoelace area, taken about the first vertex so that a thin
    polygon far from the origin does not lose its area to cancellation."""
    v = np.asarray(v)
    x, y = (v - v[0]).T
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def _orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _segments_intersect(p1, p2, q1, q2):
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True
    def on_seg(a, b, c):
        return (_orient(a, b, c) == 0 and
                min(a[0], b[0]) <= c[0] <= max(a[0], b[0]) and
                min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))
    return on_seg(q1, q2, p1) or on_seg(q1, q2, p2) or on_seg(p1, p2, q1) or on_seg(p1, p2, q2)


# ---------------------------------------------------------------------------
# built-in domains
# ---------------------------------------------------------------------------

_GWW_A = [(0, 0), (1, 0), (1.5, 0.5), (2, 0), (2, 1), (1.5, 1.5), (0.5, 0.5), (0, 1)]
_GWW_B = [(0, 0), (0.5, -0.5), (1, 0), (0.5, 0.5), (1, 1), (1, 2), (0.5, 1.5), (0, 2)]
_SQRT2 = np.sqrt(2.0)


def _builtin(name):
    if name == "gww-a":
        return Domain("polygon", _GWW_A, name=name)
    if name == "gww-b":
        return Domain("polygon", _GWW_B, name=name)
    if name == "unit-square":
        return Domain("polygon", [(0, 0), (1, 0), (1, 1), (0, 1)], name=name)
    if name == "dn-square":
        # Neumann on the top edge (vertex 2 -> 3), Dirichlet elsewhere
        return Domain("polygon", [(0, 0), (1, 0), (1, 1), (0, 1)],
                      ["dirichlet", "dirichlet", "neumann", "dirichlet"], name=name)
    if name == "dn-triangle":
        # Neumann on the horizontal leg (vertex 0 -> 1), Dirichlet elsewhere
        return Domain("polygon", [(0, 0), (_SQRT2, 0), (0, _SQRT2)],
                      ["neumann", "dirichlet", "dirichlet"], name=name)
    if name == "unit-disk":
        return Domain("smooth-curves", circles=[((0.0, 0.0), 1.0, +1)], name=name)
    if name.startswith("annulus:eps="):
        return annulus_domain(float(name.split("=", 1)[1]))
    return None


def annulus_domain(eps):
    """The unit disk with a hole of radius 0.1 centred at (0, eps)."""
    return Domain("smooth-curves",
                  circles=[((0.0, 0.0), 1.0, +1), ((0.0, eps), 0.1, -1)],
                  name=f"annulus:eps={eps:g}")


def load_domain(path_or_name):
    """Resolve a built-in domain name, or parse a domain file.

    File grammar (UTF-8, line oriented, '#' starts a comment; at most one `e`
    line per edge, one `weight` line, and no `e` line in a circle file):
        v x y                 polygon vertex
        e i j marker          polygon edge, 0-based vertex indices, marker
                              dirichlet|neumann
        c cx cy r orientation circle, orientation ccw|cw
        weight unit|genus2
    """
    dom = _builtin(str(path_or_name))
    if dom is not None:
        return dom
    verts, edges, circles, weights = [], [], [], []
    try:
        with open(path_or_name, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ValueError(f"no built-in domain and no readable file: {path_or_name} ({exc})")
    for ln, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        try:
            nums = [float(t) for t in tok[1:4]] if tok[0] in ("v", "c") else []
            if not np.all(np.isfinite(nums)):
                raise ValueError("non-finite number")
            if tok[0] == "v" and len(tok) == 3:
                verts.append(tuple(nums))
            elif tok[0] == "e" and len(tok) == 4:
                edges.append((ln, int(tok[1]), int(tok[2]), tok[3]))
            elif tok[0] == "c" and len(tok) == 5:
                o = {"ccw": +1, "outer-ccw": +1, "cw": -1, "inner-cw": -1}[tok[4]]
                circles.append((tuple(nums[:2]), nums[2], o))
            elif tok[0] == "weight" and len(tok) == 2:
                weights.append((ln, tok[1]))
            else:
                raise ValueError("unrecognized line")
        except (ValueError, KeyError, IndexError) as exc:
            raise ValueError(f"{path_or_name}:{ln}: cannot parse {raw.strip()!r} ({exc})")
    if verts and circles:
        raise ValueError(f"{path_or_name}: mixed polygon and circle sections")
    if len(weights) > 1:
        raise ValueError(f"{path_or_name}:{weights[1][0]}: second weight line "
                         f"(first at {path_or_name}:{weights[0][0]})")
    weight = weights[0][1] if weights else "unit"
    if circles and edges:
        raise ValueError(f"{path_or_name}:{edges[0][0]}: edge line in a circle file")
    if circles:
        return Domain("smooth-curves", circles=circles, weight=weight, name=str(path_or_name))
    if not verts:
        raise ValueError(f"{path_or_name}: no geometry found")
    n = len(verts)
    markers = ["dirichlet"] * n
    marked = {}
    for ln, i, j, m in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"{path_or_name}:{ln}: edge ({i},{j}) names a vertex "
                             f"outside 0..{n - 1}")
        if j != (i + 1) % n:
            raise ValueError(f"{path_or_name}: edge ({i},{j}) does not follow the vertex cycle")
        if i in marked:
            raise ValueError(f"{path_or_name}:{ln}: edge ({i},{j}) is marked again "
                             f"(first at {path_or_name}:{marked[i]})")
        if m not in MARKERS:
            raise ValueError(f"{path_or_name}:{ln}: unknown edge marker {m!r}")
        marked[i] = ln
        markers[i] = m
    return Domain("polygon", verts, markers, weight=weight, name=str(path_or_name))


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------

class Mesh:
    """Conforming triangulation: vertices (n,2), triangles (t,3) ccw,
    boundary_edges (b,2) with per-edge markers, mesh size h, refinement level,
    and the one edge numbering: edges (e,2) as sorted vertex pairs in
    lexicographic order, tri_edges (t,3) with local edge i opposite local
    vertex i, and boundary_edge_index (b,) into edges.
    The boundary edges of `triangulate` and `refine` chain head to tail
    around the polygon (edge k ends where edge k+1 starts), so
    vertices[boundary_edges[:, 0]] is the outline in order."""

    def __init__(self, vertices, triangles, boundary_edges, markers, level=0):
        self.vertices = np.asarray(vertices, dtype=float)
        self.triangles = np.asarray(triangles, dtype=int)
        self.boundary_edges = np.asarray(boundary_edges, dtype=int).reshape(-1, 2)
        self.markers = list(markers)
        self.level = level
        areas = self.areas()
        if np.any(areas <= 0):
            bad = int(np.argmin(areas))
            raise ValueError(f"triangle {bad} has non-positive area {areas[bad]:.3e}")
        self.h = self._mesh_size()
        # key a*n + b (a < b < n) sorts like the pair (a, b)
        n, t = len(self.vertices), self.triangles
        local = np.stack([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]], axis=1)
        pairs = np.sort(local.reshape(-1, 2), axis=1)
        keys, inverse = np.unique(pairs[:, 0] * n + pairs[:, 1], return_inverse=True)
        self.edges = np.column_stack([keys // n, keys % n])
        self.tri_edges = inverse.reshape(-1, 3)
        bpairs = np.sort(self.boundary_edges, axis=1)
        bkeys = bpairs[:, 0] * n + bpairs[:, 1]
        pos = np.searchsorted(keys, bkeys)
        if np.any(pos >= len(keys)) or np.any(keys[pos] != bkeys):
            raise ValueError("boundary edge missing from the triangulation")
        self.boundary_edge_index = pos

    def areas(self):
        p = self.vertices[self.triangles]
        return 0.5 * ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                      - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))

    def _mesh_size(self):
        p = self.vertices[self.triangles]
        e = np.concatenate([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
        return float(np.sqrt((e**2).sum(axis=1).max()))

    @property
    def n_vertices(self):
        return len(self.vertices)

    def edge_lengths(self):
        """Length of each boundary edge, in `boundary_edges` order."""
        d = self.vertices[self.boundary_edges[:, 1]] - self.vertices[self.boundary_edges[:, 0]]
        return np.sqrt((d**2).sum(axis=1))

    def __repr__(self):
        return (f"Mesh(level={self.level}, vertices={len(self.vertices)}, "
                f"triangles={len(self.triangles)}, h={self.h:.4g})")


def triangulate(domain):
    """Coarse conforming triangulation of a simple polygon by ear clipping.

    Deterministic: always clips the lowest-index ear. Boundary edges keep the
    polygon's markers.
    """
    if domain.kind != "polygon":
        raise ValueError("triangulate applies to polygon domains")
    verts = domain.vertices
    n = len(verts)
    # corners whose orientation (twice a triangle area, so it scales with
    # the square of the polygon's extent) is below this count as straight
    flat = 1e-14 * np.ptp(verts, axis=0).max() ** 2
    idx = list(range(n))
    tris = []
    while len(idx) > 3:
        for pos in range(len(idx)):
            i0, i1, i2 = (idx[(pos - 1) % len(idx)], idx[pos], idx[(pos + 1) % len(idx)])
            a, b, c = verts[i0], verts[i1], verts[i2]
            if _orient(a, b, c) <= flat:
                continue  # reflex or degenerate corner
            if any(_point_in_triangle(verts[k], a, b, c)
                   for k in idx if k not in (i0, i1, i2)):
                continue
            tris.append((i0, i1, i2))
            del idx[pos]
            break
        else:
            raise ValueError("ear clipping failed: degenerate polygon")
    tris.append(tuple(idx))
    if _orient(*verts[list(tris[-1])]) <= 0:
        raise ValueError("ear clipping failed: final triangle degenerate")
    bedges = [(k, (k + 1) % n) for k in range(n)]
    return Mesh(verts, tris, bedges, list(domain.markers), level=0)


def _point_in_triangle(p, a, b, c):
    d1, d2, d3 = _orient(a, b, p), _orient(b, c, p), _orient(c, a, p)
    return d1 >= 0 and d2 >= 0 and d3 >= 0


def refine(mesh):
    """Red refinement: split every triangle into 4 via edge midpoints."""
    v, t = mesh.vertices, mesh.triangles
    edges = mesh.edges
    newv = np.vstack([v, 0.5 * (v[edges[:, 0]] + v[edges[:, 1]])])
    # midpoint vertex of the edge opposite local vertex 0, 1, 2
    m12, m20, m01 = (len(v) + mesh.tri_edges).T
    children = np.empty((4 * len(t), 3), dtype=int)
    children[0::4] = np.column_stack([t[:, 0], m01, m20])
    children[1::4] = np.column_stack([t[:, 1], m12, m01])
    children[2::4] = np.column_stack([t[:, 2], m20, m12])
    children[3::4] = np.column_stack([m01, m12, m20])
    # boundary edges split in two, inheriting markers
    bm = len(v) + mesh.boundary_edge_index
    newb = np.empty((2 * len(bm), 2), dtype=int)
    newb[0::2] = np.column_stack([mesh.boundary_edges[:, 0], bm])
    newb[1::2] = np.column_stack([bm, mesh.boundary_edges[:, 1]])
    newmark = [m for m in mesh.markers for _ in range(2)]
    return Mesh(newv, children, newb, newmark, level=mesh.level + 1)


# ---------------------------------------------------------------------------
# boundary quadrature for circle chains
# ---------------------------------------------------------------------------

class CurveQuadrature:
    """Equispaced-parameter nodes on one circle."""

    def __init__(self, center, radius, orientation, n):
        h = 2 * np.pi / n
        t = h * np.arange(n)
        c, s = np.cos(orientation * t), np.sin(orientation * t)
        self.center = np.asarray(center, dtype=float)
        self.radius = radius
        self.orientation = orientation
        self.n = n
        self.h = h
        self.points = self.center + radius * np.column_stack([c, s])
        # out of the domain: towards the centre on a cw inner circle
        self.normals = orientation * np.column_stack([c, s])
        self.weights = np.full(n, h * radius)


class BoundaryQuadrature:
    """Concatenated quadrature over all curves of a smooth-curves domain."""

    def __init__(self, domain, n_per_curve):
        if domain.kind != "smooth-curves":
            raise ValueError("boundary quadrature applies to smooth-curves domains")
        if np.isscalar(n_per_curve):
            n_per_curve = [int(n_per_curve)] * len(domain.circles)
        n_per_curve = [int(n) for n in n_per_curve]
        if len(n_per_curve) != len(domain.circles):
            raise ValueError("one node count per curve required")
        if any(n % 2 or n < 4 for n in n_per_curve):
            raise ValueError("node counts must be even and at least 4")
        self.curves = [CurveQuadrature(c, r, o, n)
                       for (c, r, o), n in zip(domain.circles, n_per_curve)]
        self.points = np.vstack([c.points for c in self.curves])
        self.normals = np.vstack([c.normals for c in self.curves])
        self.weights = np.concatenate([c.weights for c in self.curves])
        self.offsets = np.cumsum([0] + [c.n for c in self.curves])

    @property
    def total(self):
        return len(self.weights)


def boundary_quadrature(domain, n_per_curve):
    return BoundaryQuadrature(domain, n_per_curve)
