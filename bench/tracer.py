"""Out-of-program tracing of magschro layers.

``Tracer.install()`` replaces module attributes with timing wrappers, the way
the package resolves them at call time:

* every public function of the magschro modules, plus a few methods
  (the per-step diagnostics, exports, ``Observation.build``,
  ``MultiplierField.radial``);
* the SciPy/NumPy linear-algebra entry points magschro calls (``la``):
  ``splu`` (its factor is proxied so solves and right-hand-side columns are
  counted), ``eigsh`` (the operator ARPACK iterates with is proxied to count
  its applications: A without a shift, the shift-inverted operator, given
  as ``OPinv`` or built by SciPy, with one), the dense eigensolvers, and sparse
  ``@`` (counted only, no span).  Only calls made from magschro code count.

Each call records a span (id, parent, name, start, end, experiment id) in
memory, and per-name totals: calls, inclusive time of outermost calls, and
self time (duration minus the time covered by direct child spans).
``uninstall()`` restores every attribute.  The numerics are untouched: every
wrapper calls the original with the original arguments, or with proxies
that forward to them.
"""

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

_PACKAGE_MODULES = ("mesh", "magop", "evolve", "spectra", "obsgram",
                    "multiplier", "weights", "cli")

# (module, class, method) wrapped in addition to the public functions.
_METHODS = (
    ("magop", "GeneratorMatrix", "energy"),
    ("magop", "GeneratorMatrix", "dissipation"),
    ("magop", "GeneratorMatrix", "mass_norm"),
    ("magop", "GeneratorMatrix", "stiffness_norm"),
    ("evolve", "EnergyTrace", "export_csv"),
    ("obsgram", "Observation", "build"),
    ("multiplier", "MultiplierField", "radial"),
)

# Functions that write files: the byte count of the paths they are given
# is added to the named counter after each call.
_WRITERS = {
    "evolve.EnergyTrace.export_csv": ("evolve.export.bytes", (1,)),
    "evolve.export_snapshots": ("evolve.export.bytes", (1, 2)),
}

_DENSE_EIG = (("scipy.linalg", "eigh"), ("scipy.linalg", "eigvalsh"),
              ("scipy.linalg", "eig"), ("scipy.linalg", "eigvals"),
              ("numpy.linalg", "eigh"), ("numpy.linalg", "eigvalsh"),
              ("numpy.linalg", "eig"), ("numpy.linalg", "eigvals"))


def _from_package():
    """True when the caller of the wrapper that calls this runs magschro code."""
    return sys._getframe(2).f_globals.get("__name__", "").startswith("magschro")


class Tracer:
    def __init__(self):
        self.experiment = None
        self._patches = []          # (owner, attribute, original)
        self._next_id = 1
        self.reset()

    def reset(self):
        """Start a new measurement window: clear spans, totals and counters."""
        self.spans = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])   # calls, total_s, self_s
        self.counters = defaultdict(float)
        self._stack = []            # [span id, name, start, child seconds]
        self._open = defaultdict(int)

    # -- spans -------------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        frame = [sid, name, 0.0, 0.0]
        self._stack.append(frame)
        self._open[name] += 1
        frame[2] = start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1
            dur = end - start
            st = self.stats[name]
            st[0] += 1
            st[2] += dur - frame[3]
            if not self._open[name]:
                st[1] += dur          # outermost call of this name only
            if self._stack:
                self._stack[-1][3] += dur
            self.spans.append((sid, parent, name, start, end, self.experiment))

    def _wrap(self, name, fn):
        tracer = self
        writer = _WRITERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = tracer.call(name, fn, args, kwargs)
            if writer is not None:
                counter, positions = writer
                for i in positions:
                    if i < len(args) and os.path.exists(args[i]):
                        tracer.counters[counter] += os.path.getsize(args[i])
            return out

        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        mods = {m: importlib.import_module(f"magschro.{m}") for m in _PACKAGE_MODULES}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if short == "cli" and attr == "run":
                    new = self._wrap_cli_run(obj)
                else:
                    new = self._wrap(f"{short}.{attr}", obj)
                # also rebind names imported with ``from .x import f``
                for other in mods.values():
                    if other.__dict__.get(attr) is obj:
                        self._patch(other, attr, new)
        for short, cls_name, meth in _METHODS:
            cls = getattr(mods[short], cls_name)
            raw = cls.__dict__[meth]
            name = f"{short}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
            self._patch(cls, meth, new)
        self._install_la()

    def _wrap_cli_run(self, fn):
        tracer = self

        @functools.wraps(fn)
        def run(config, *args, **kwargs):
            return tracer.call(f"cli.run.{config.kind}", fn, (config,) + args, kwargs)

        return run

    def _install_la(self):
        import scipy.sparse._base as spbase
        import scipy.sparse.linalg as spla

        tracer = self
        orig_splu = spla.splu

        def splu(*args, **kwargs):
            if not _from_package():
                return orig_splu(*args, **kwargs)
            lu = tracer.call("la.splu", orig_splu, args, kwargs)
            tracer.counters["la.splu.fill_nnz"] += lu.L.nnz + lu.U.nnz
            return _CountingLU(lu, tracer)

        self._patch(spla, "splu", splu)

        orig_eigsh = spla.eigsh
        eigsh_signature = inspect.signature(orig_eigsh)
        arpack = importlib.import_module("scipy.sparse.linalg._eigen.arpack.arpack")

        def eigsh(*args, **kwargs):
            if not _from_package():
                return orig_eigsh(*args, **kwargs)
            bound = eigsh_signature.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            orig_factory = None
            if a["sigma"] is None:
                # ARPACK applies A; with k >= n SciPy calls dense eigh on A instead
                if a["k"] < a["A"].shape[0]:
                    a["A"] = tracer._counting_operator(a["A"])
            elif a["OPinv"] is not None:
                a["OPinv"] = tracer._counting_operator(a["OPinv"])
            else:
                # shift-invert without OPinv: SciPy builds the inverse itself
                # through this module-level function, looked up at call time
                orig_factory = arpack.get_OPinv_matvec
                arpack.get_OPinv_matvec = tracer._counting_factory(orig_factory)
            try:
                return tracer.call("la.eigsh", orig_eigsh, bound.args, bound.kwargs)
            finally:
                if orig_factory is not None:
                    arpack.get_OPinv_matvec = orig_factory

        self._patch(spla, "eigsh", eigsh)

        for modname, attr in _DENSE_EIG:
            mod = importlib.import_module(modname)
            self._patch(mod, attr, self._dense_eig(mod.__dict__[attr]))

        for slot in ("__matmul__", "__rmatmul__"):
            orig = spbase._spbase.__dict__[slot]
            self._patch(spbase._spbase, slot, self._counting_matmul(orig))

    def _dense_eig(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if not _from_package():
                return fn(a, *args, **kwargs)
            shape = getattr(a, "shape", ())
            if len(shape) >= 2:
                batch = 1
                for s in shape[:-2]:
                    batch *= s
                tracer.counters["la.dense_eig.n3"] += float(batch) * shape[-1] ** 3
            return tracer.call("la.dense_eig", fn, (a,) + args, kwargs)

        return wrapper

    def _counting_matmul(self, fn):
        counters = self.counters

        def wrapper(a, b):
            if _from_package():
                counters["la.sparse_matmul.calls"] += 1
            return fn(a, b)

        return wrapper

    def _counting_operator(self, op):
        """``op`` (matrix, sparse matrix or LinearOperator) as a LinearOperator
        that counts its applications; eigsh applies it through
        ``aslinearoperator(op).matvec`` either way, so the numerics are the same."""
        from scipy.sparse.linalg import LinearOperator, aslinearoperator

        op = aslinearoperator(op)
        return LinearOperator(op.shape, matvec=self._counting(op.matvec), dtype=op.dtype)

    def _counting_factory(self, factory):
        """``factory`` returning a matvec function, with that function counted."""

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return self._counting(factory(*args, **kwargs))

        return wrapper

    def _counting(self, matvec):
        counters = self.counters

        def counted(x):
            counters["la.eigsh.matvecs"] += 1
            return matvec(x)

        return counted

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results -------------------------------------------------------------

    def snapshot(self):
        """Totals of the current window, as plain data."""
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counters": dict(self.counters)}


class _CountingLU:
    """A SuperLU factor whose solves are traced; everything else forwards."""

    __slots__ = ("_lu", "_tracer")

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, *args, **kwargs):
        tracer = self._tracer
        tracer.counters["la.lu_solve.rhs_columns"] += 1 if rhs.ndim == 1 else rhs.shape[1]
        return tracer.call("la.lu_solve", self._lu.solve, (rhs,) + args, kwargs)

    def __getattr__(self, attr):
        return getattr(self._lu, attr)
