"""Outside-in tracer: wraps the program's public functions from outside.

Nothing in ``src/lrdec`` is edited.  While a :class:`Tracer` is installed,
every public function and public method (plus ``__init__``) defined in the
traced lrdec modules is replaced, in every lrdec module namespace that
refers to it, by a wrapper that records calls, inclusive time and self
time.  ``numpy.linalg.solve`` and ``scipy.sparse.linalg.cg`` are wrapped
at their module attributes, which is where the solver looks them up.

Self time of a call is its duration minus the time covered by traced
calls made inside it, so the self times of all wrappers plus the time
outside any wrapper add up to the wall time of the traced region.

Calls and inclusive time are recorded per *key*, counting only the
outermost call of a key: ``idft_nd`` calling ``idft_nd_complex`` is one
N-D transform, and ``apply`` calling ``apply_arrays`` is one operator
application.  Self time is summed per *layer* (the module the function
belongs to; the block solve and CG are layers of their own).
"""

import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

# the modules named by the benchmark's layer metrics; metrics, synth and
# the package itself are not layers but are patched where they refer to a
# traced function
LAYERS = ("convmodel", "tensor", "transform", "solver", "io", "cli")

# functions that share a key with another, so one logical operation counts
# once however it is spelled
_KEYS = {
    "convmodel.pad_to_shape": "convmodel.filter_spectra",
    "convmodel.SpectralOperator.__init__": "convmodel.operator_build",
    "convmodel.SpectralOperator.gram_blocks": "convmodel.gram",
    "convmodel.SpectralOperator.normal_blocks": "convmodel.normal_blocks",
    "convmodel.SpectralOperator.apply": "convmodel.apply",
    "convmodel.SpectralOperator.apply_arrays": "convmodel.apply",
    "convmodel.SpectralOperator.apply_adjoint": "convmodel.adjoint",
    "convmodel.SpectralOperator.adjoint_arrays": "convmodel.adjoint",
    "transform.dft_nd": "transform.nd",
    "transform.idft_nd": "transform.nd",
    "transform.idft_nd_complex": "transform.nd",
    "transform.dft_factor": "transform.factor",
    "transform.idft_factor": "transform.factor",
    "solver.solve_mode_admm": "solver.admm",
}

_FILE_READERS = ("read_tensor", "read_dictionary", "read_image")
_FILE_WRITERS = ("write_tensor", "write_dictionary", "write_image")


class _KeyStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Per-key call statistics, per-layer self times and event counters.

    Use as a context manager around the region to trace; the original
    functions are restored on exit.  Statistics accumulate across
    installs.
    """

    def __init__(self):
        self._modules = {name: importlib.import_module(f"lrdec.{name}")
                         for name in LAYERS}
        self._patches = []
        self.keys = defaultdict(_KeyStats)
        self.layer_self = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []
        self._depth = defaultdict(int)

    # -- wrapping ---------------------------------------------------------

    def _timed(self, fn, key, layer):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            tracer._stack.append(frame)
            tracer._depth[key] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                tracer._stack.pop()
                tracer._depth[key] -= 1
                own = elapsed - frame[0]
                stats = tracer.keys[key]
                stats.self_s += own
                tracer.layer_self[layer] += own
                if tracer._stack:
                    tracer._stack[-1][0] += elapsed
                if tracer._depth[key] == 0:
                    stats.calls += 1
                    stats.total_s += elapsed

        return traced

    def _counted(self, fn, qualname):
        """Add the event counters that need a look at arguments or results."""
        counts = self.counts
        name = qualname.rsplit(".", 1)[-1]

        if qualname == "convmodel.SpectralOperator.gram_blocks":
            @functools.wraps(fn)
            def gram_blocks(op, *args, **kwargs):
                # the operator caches its Gram stack; a call that finds no
                # cache builds one
                if getattr(op, "_gram", None) is None:
                    counts["convmodel.gram_builds"] += 1
                return fn(op, *args, **kwargs)
            return gram_blocks

        if qualname == "solver.solve_mode_admm":
            @functools.wraps(fn)
            def solve_mode_admm(*args, **kwargs):
                # AdmmState.iterations is a running total over warm starts,
                # so one visit's work is the difference
                state = args[3] if len(args) > 3 else kwargs.get("state")
                before = state.iterations if state is not None else 0
                result = fn(*args, **kwargs)
                counts["solver.admm_iters"] += result[1].iterations - before
                return result
            return solve_mode_admm

        if qualname in ("solver.lrd_fit", "solver.lrd_fit_masked"):
            @functools.wraps(fn)
            def fit(*args, **kwargs):
                result = fn(*args, **kwargs)
                report = result[-1]
                counts["solver.sweeps"] += report.sweeps
                counts["solver.mode_visits"] += len(report.mode_objectives)
                counts["solver.l2_increase_warnings"] += sum(
                    w.startswith("l2 objective increased")
                    for w in report.warnings)
                # kept to show that the report's inner_iters overstates
                # ADMM work (it sums a running total)
                counts["solver.report_inner_iters"] += sum(report.inner_iters)
                return result
            return fit

        if qualname.startswith("io.") and name in _FILE_READERS:
            @functools.wraps(fn)
            def reader(path, *args, **kwargs):
                counts["io.bytes_read"] += os.path.getsize(path)
                return fn(path, *args, **kwargs)
            return reader

        if qualname.startswith("io.") and name in _FILE_WRITERS:
            @functools.wraps(fn)
            def writer(path, *args, **kwargs):
                result = fn(path, *args, **kwargs)
                counts["io.bytes_written"] += os.path.getsize(path)
                return result
            return writer

        return fn

    def _cg(self, cg):
        counts = self.counts

        @functools.wraps(cg)
        def counted_cg(*args, **kwargs):
            user_callback = kwargs.pop("callback", None)

            def callback(xk):
                counts["solver.cg_iters"] += 1
                if user_callback is not None:
                    user_callback(xk)

            sol, info = cg(*args, callback=callback, **kwargs)
            counts["solver.cg_budget_exhausted"] += int(info > 0)
            counts["solver.cg_converged"] += int(info == 0)
            return sol, info

        return counted_cg

    def _wrapper(self, fn, qualname, layer):
        key = _KEYS.get(qualname, qualname)
        if layer == "io":
            # read_mask reads through read_tensor: one read, not two
            for verb in ("read", "write"):
                if qualname.startswith(f"io.{verb}_"):
                    key = f"io.{verb}"
        return self._timed(self._counted(fn, qualname), key, layer)

    # -- install / restore --------------------------------------------------

    def _set(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def __enter__(self):
        import numpy.linalg
        import scipy.sparse.linalg

        replaced = {}  # id(original function) -> wrapper
        for layer, module in self._modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    replaced[id(obj)] = self._wrapper(obj, f"{layer}.{name}",
                                                      layer)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, member in list(vars(obj).items()):
                        if inspect.isfunction(member) and (
                                attr == "__init__" or not attr.startswith("_")):
                            self._set(obj, attr, self._wrapper(
                                member, f"{layer}.{name}.{attr}", layer))

        # rebind every lrdec namespace entry that names a wrapped function,
        # so calls through ``from .x import f`` are traced too
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "lrdec" and not mod_name.startswith("lrdec."):
                continue
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    self._set(module, name, replaced[id(obj)])

        self._set(numpy.linalg, "solve", self._timed(
            numpy.linalg.solve, "solver.block_solve", "solver.block_solve"))
        self._set(scipy.sparse.linalg, "cg", self._timed(
            self._cg(scipy.sparse.linalg.cg), "solver.cg", "solver.cg"))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        return False

    # -- results ------------------------------------------------------------

    def self_seconds(self):
        """Total self time over all traced calls."""
        return sum(self.layer_self.values())
