"""Spans around the public functions of each lapspec module.

A `Tracer` replaces each traced function by a wrapper that records a span
(name, start, end, parent) and a call count, in every lapspec module that
binds the same function object, so names imported into other modules
(`fem.refine`, `bounds.build_mesh`, `mps._subspace_smin`, ...) are traced
too. Spans are kept in memory; `restore()` puts the original functions
back. The tracer keeps one span stack, so it assumes that lapspec runs on
one Python thread (BLAS threads do not matter).
"""
import sys
import time
from collections import Counter, defaultdict

# (module, attribute, span name); several functions may share a span name
TARGETS = (
    ("geometry", "triangulate", "geometry.triangulate"),
    ("geometry", "refine", "geometry.refine"),
    ("geometry", "boundary_quadrature", "geometry.quadrature"),
    ("fem", "build_mesh", "fem.build_mesh"),
    ("fem", "assemble_stiffness", "fem.assemble"),
    ("fem", "assemble_mass", "fem.assemble"),
    ("fem", "assemble_boundary_mass", "fem.assemble"),
    ("fem", "solve_fem", "fem.solve"),
    ("pencil", "solve_symdef", "pencil.symdef"),
    ("pencil", "solve_lowest", "pencil.lowest"),
    ("pencil", "solve_general", "pencil.general"),
    ("bie", "assemble_kernels", "bie.kernels"),
    ("bie", "_deflated_pencil", "bie.deflate"),
    ("bie", "solve_steklov_bie", "bie.solve"),
    ("bie", "sweep_annulus", "bie.sweep"),
    ("mps", "refine_minimum", "mps.refine"),
    ("mps", "_subspace_smin", "mps.indicator"),
    ("mps", "_l2_norm", "mps.l2norm"),
    ("mps", "fhm_enclosure", "mps.enclosure"),
    ("specfun", "bessel_j", "specfun.bessel"),
    ("bounds", "bracket_report", "bounds.bracket"),
    ("bounds", "_pencil_residual", "bounds.residual"),
    ("cli", "main", "cli"),
)
METHOD_TARGETS = (("mps", "CornerBasis", "evaluate", "mps.basis_eval"),)

ROOT = "round"


def _pencil_n(args, kwargs, result):
    return args[0].n


def _fem_dofs(args, kwargs, result):
    return result.space.n_dofs


# span name -> (size key, function of (args, kwargs, result))
SIZES = {
    "fem.solve": ("fem.max_dofs", _fem_dofs),
    "pencil.symdef": ("pencil.symdef_max_n", _pencil_n),
    "pencil.general": ("pencil.general_max_n", _pencil_n),
}


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or None]
        self.counts = Counter()
        self.sizes = defaultdict(int)
        self._stack = []
        self._restore = []

    def start(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        self.counts[name] += 1

    def stop(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def wrap(self, name, fn):
        sizer = SIZES.get(name)

        def traced(*args, **kwargs):
            self.start(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stop()
            if sizer is not None:
                key, size = sizer
                self.sizes[key] = max(self.sizes[key], size(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        """Wrap every target wherever a lapspec module binds it."""
        prefix = package.__name__ + "."
        modules = [m for name, m in list(sys.modules.items())
                   if name == package.__name__ or name.startswith(prefix)]
        for mod_name, attr, name in TARGETS:
            original = getattr(getattr(package, mod_name), attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))
        for mod_name, cls_name, attr, name in METHOD_TARGETS:
            cls = getattr(getattr(package, mod_name), cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, original))
            self._restore.append((cls, attr, original))

    def restore(self):
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def self_times(self):
        """Per span name: summed duration minus the time of child spans."""
        out = defaultdict(float)
        for name, start, end, _ in self.spans:
            out[name] += end - start
        for name, start, end, parent in self.spans:
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return out

    def dump(self):
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]


# per-layer metric -> (kind, span name); kind "self" sums self time,
# "calls" counts spans, "size" is the largest recorded problem size
LAYER_METRICS = {
    "geometry.triangulate_s": ("self", "geometry.triangulate"),
    "geometry.refine_s": ("self", "geometry.refine"),
    "geometry.refine_calls": ("calls", "geometry.refine"),
    "geometry.quadrature_s": ("self", "geometry.quadrature"),
    "fem.mesh_builds": ("calls", "fem.build_mesh"),
    "fem.assemble_s": ("self", "fem.assemble"),
    "fem.assemble_calls": ("calls", "fem.assemble"),
    "fem.solve_self_s": ("self", "fem.solve"),
    "fem.solves": ("calls", "fem.solve"),
    "fem.max_dofs": ("size", "fem.max_dofs"),
    "pencil.symdef_s": ("self", "pencil.symdef"),
    "pencil.symdef_calls": ("calls", "pencil.symdef"),
    "pencil.symdef_max_n": ("size", "pencil.symdef_max_n"),
    "pencil.lowest_s": ("self", "pencil.lowest"),
    "pencil.lowest_calls": ("calls", "pencil.lowest"),
    "pencil.general_s": ("self", "pencil.general"),
    "pencil.general_calls": ("calls", "pencil.general"),
    "pencil.general_max_n": ("size", "pencil.general_max_n"),
    "bie.kernels_s": ("self", "bie.kernels"),
    "bie.deflate_s": ("self", "bie.deflate"),
    "bie.solve_self_s": ("self", "bie.solve"),
    "bie.solves": ("calls", "bie.solve"),
    "mps.basis_eval_s": ("self", "mps.basis_eval"),
    "mps.indicator_s": ("self", "mps.indicator"),
    "mps.indicator_evals": ("calls", "mps.indicator"),
    "mps.l2norm_s": ("self", "mps.l2norm"),
    "mps.enclosure_s": ("self", "mps.enclosure"),
    "specfun.bessel_s": ("self", "specfun.bessel"),
    "specfun.bessel_calls": ("calls", "specfun.bessel"),
    "bounds.residual_s": ("self", "bounds.residual"),
    "bounds.bracket_self_s": ("self", "bounds.bracket"),
    "cli.self_s": ("self", "cli"),
    "bench.self_s": ("self", ROOT),
}


_UNITS = {"self": "s", "calls": "count", "size": "count"}
LAYER_UNITS = {name: _UNITS[kind] for name, (kind, _) in LAYER_METRICS.items()}
LAYER_UNITS.update({"bie.halvings": "count", "trace.other_self_s": "s",
                    "trace.wall_s": "s", "trace.overhead_s": "s"})


def layer_metrics(tracer):
    """Per-layer numbers of one traced round (the root span is ROOT).

    The `_s` metrics are self times; with `trace.other_self_s`, the self
    time of the spans no metric names, they add up to `trace.wall_s`.
    """
    selfs = tracer.self_times()
    out = {}
    for metric, (kind, key) in LAYER_METRICS.items():
        if kind == "self":
            out[metric] = selfs.get(key, 0.0)
        elif kind == "calls":
            out[metric] = tracer.counts[key]
        else:
            out[metric] = tracer.sizes[key]
    named = {key for kind, key in LAYER_METRICS.values() if kind == "self"}
    out["trace.other_self_s"] = sum(v for k, v in selfs.items() if k not in named)
    # every solve assembles its kernels once per attempt
    out["bie.halvings"] = tracer.counts["bie.kernels"] - tracer.counts["bie.solve"]
    root = [s for s in tracer.spans if s[3] is None]
    out["trace.wall_s"] = sum(end - start for _, start, end, _ in root)
    return out
