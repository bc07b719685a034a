import numpy as np
import pytest

from lapspec import bounds, fem, geometry, reference

_MESH_CACHE = {}
_SOLVE_CACHE = {}


@pytest.fixture
def call_counter(monkeypatch):
    """count(owner, name) wraps owner.name for the test and returns a list
    that gains one entry per call."""
    def count(owner, name):
        calls = []
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls
    return count


@pytest.fixture
def jv_orders(monkeypatch):
    """List that gains, per scipy.special.jv call made by lapspec.specfun,
    the number of orders in that call."""
    from lapspec import specfun
    calls = []
    jv = specfun.jv

    def counting(nu, x):
        calls.append(np.size(nu))
        return jv(nu, x)

    monkeypatch.setattr(specfun, "jv", counting)
    return calls


def union_spectrum(spec_a, spec_b, count):
    """Oracle: merge two analytic spectra ascending; exact ties add
    multiplicities."""
    merged = np.sort(np.concatenate([spec_a.values, spec_b.values]))
    if len(merged) < count:
        raise ValueError("inputs too short for the requested count")
    return reference.AnalyticSpectrum(merged[:count])


def shared_mesh(name, level):
    key = (name, level)
    if key not in _MESH_CACHE:
        _MESH_CACHE[key] = fem.build_mesh(geometry.load_domain(name), level)
    return _MESH_CACHE[key]


def shared_solve(name, bc, kind, level, count, scale=1.0):
    """Memoized FEM solve so the expensive drum spectra are computed once."""
    key = (name, bc, kind, level, count, scale)
    if key not in _SOLVE_CACHE:
        dom = geometry.load_domain(name)
        if scale != 1.0:
            dom = dom.scaled(scale)
        spec = fem.EigenProblemSpec(bc, count, kind=kind, level=level)
        mesh = None if scale != 1.0 else shared_mesh(name, level)
        _SOLVE_CACHE[key] = fem.solve_fem(dom, spec, mesh=mesh)
    return _SOLVE_CACHE[key]


def shared_extrapolated(name, bc, count, level, scale=1.0):
    """Memoized P2 extrapolated_spectrum over levels level-2..level:
    (limits, spectra)."""
    key = ("extrapolated", name, bc, count, level, scale)
    if key not in _SOLVE_CACHE:
        dom = geometry.load_domain(name)
        if scale != 1.0:
            dom = dom.scaled(scale)
        spec = fem.EigenProblemSpec(bc, count, kind="P2", level=level)
        _SOLVE_CACHE[key] = bounds.extrapolated_spectrum(dom, spec)
    return _SOLVE_CACHE[key]


def shared_bie(eps, n_per_curve, count):
    """Memoized off-center-annulus spectrum at n nodes per curve: its lowest
    `count` values (2 n_per_curve, the node total, is the whole spectrum)."""
    from lapspec import bie
    key = ("bie", float(eps), int(n_per_curve), count)
    if key not in _SOLVE_CACHE:
        _SOLVE_CACHE[key] = bie.solve_steklov_bie(
            bie.annulus_domain(eps), int(n_per_curve), count=count)
    return _SOLVE_CACHE[key]


def shared_square_mps(size=14):
    """Locate the distinct low square eigenvalues once: (lambda_h, enclosure,
    exact) for 2, 5, 8, 10, 13 times pi^2."""
    from lapspec import mps
    key = ("square-mps", size)
    if key not in _SOLVE_CACHE:
        dom = geometry.load_domain("unit-square")
        basis = mps.corner_basis(dom, size)
        out = []
        for m2 in (2, 5, 8, 10, 13):
            exact = m2 * np.pi**2
            lam, coeff = mps.refine_minimum(dom, basis,
                                            (exact - 1.5, exact + 1.5))
            out.append((lam, mps.fhm_enclosure(dom, lam, coeff, basis), exact))
        _SOLVE_CACHE[key] = out
    return _SOLVE_CACHE[key]


def shared_gww_mps(size=14):
    """One located eigenvalue near the drum's tenth: (lambda_h, enclosure,
    coefficients, basis)."""
    from lapspec import mps
    key = ("gww-mps", size)
    if key not in _SOLVE_CACHE:
        dom = geometry.load_domain("gww-a")
        basis = mps.corner_basis(dom, size, corners="singular")
        lam, coeff = mps.refine_minimum(dom, basis, (103.5, 105.5))
        _SOLVE_CACHE[key] = (lam, mps.fhm_enclosure(dom, lam, coeff, basis),
                             coeff, basis)
    return _SOLVE_CACHE[key]


@pytest.fixture(scope="session")
def gww_steklov():
    def get(name, kind, level, count=5):
        return shared_solve(name, "steklov", kind, level, count)
    return get


@pytest.fixture(scope="session")
def square():
    return geometry.load_domain("unit-square")


@pytest.fixture(scope="session")
def gww_a():
    return geometry.load_domain("gww-a")


@pytest.fixture(scope="session")
def gww_b():
    return geometry.load_domain("gww-b")


@pytest.fixture(scope="session")
def disk():
    return geometry.load_domain("unit-disk")


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)
