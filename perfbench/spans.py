"""Outside-in span tracer for the spintorus benchmark.

The tracer replaces, for the duration of a traced phase, every function the
package's layers export with a timing wrapper, in every namespace where a
caller looks it up (``spintorus.solver.evaluate`` is the same wrapper as
``spintorus.nonlinear.evaluate``).  It also wraps the FFT entry points of
``numpy.fft`` and, when imported, ``scipy.fft``, and ``numpy.einsum``.
Nothing inside the package is edited.  Spans stay in memory as plain tuples;
``aggregate`` turns them into per-op layer metrics, with self time = span
duration minus the time covered by its child spans.

Calls the wrapper cannot see: array methods and operators (``@``, ``*``),
generator functions (only their creation would be timed, so they are left
unwrapped), properties, and names bound under another name.  Their time shows
as the self time of the calling span.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time

LAYERS = ("spectral", "nonlinear", "norms", "dyadic", "solver", "fieldio",
          "cli", "clifford")

FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "fft2", "ifft2",
             "rfft", "irfft", "rfftn", "irfftn")
FFT_BACKENDS = ("numpy.fft", "scipy.fft")
# n-dimensional entry points transform space; the package's 1-D calls run
# along the frame (time) axis and have no padding.
_SPATIAL_FFTS = {"fftn", "ifftn", "fft2", "ifft2", "rfftn", "irfftn"}

# Private helpers worth a span of their own.  Planned refactors remove some of
# them; a missing one is listed in ``Tracer.absent``, never an error.
PRIVATE_NAMES = (
    "solver._batch_inverse",
    "solver._batch_forward",
    "solver._nonlinear_coefficients",
    "solver._second_order_rhs",
    "solver._DuhamelMap.apply",
    "norms._spatial_norms",
    "norms._box_spatial_norms",
)

# span tuple fields; TOP marks a span with no enclosing span of its layer
FIELDS = ("trace_id", "span_id", "parent_id", "name", "layer", "start", "end",
          "self_s", "top", "info")
TRACE, SID, PARENT, NAME, LAYER, START, END, SELF, TOP, INFO = range(len(FIELDS))


def _fft_info(name, args, kwargs, radius_by_dim):
    """(flop, bytes, useful points, transformed points) of one FFT call,
    computed from shapes: 5 n log2 n flop per length-n transform and the
    complex128 bytes of input plus output."""
    a = args[0] if args else kwargs.get("a", kwargs.get("x"))
    shape = getattr(a, "shape", None)
    if shape is None:
        return None
    ndim = len(shape)
    if name in _SPATIAL_FFTS:
        axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
        sizes = kwargs.get("s", args[1] if len(args) > 1 else None)
        if axes is None:
            axes = tuple(range(ndim)) if sizes is None else tuple(range(-len(sizes), 0))
        axes = tuple(ax % ndim for ax in axes)
        lengths = tuple(sizes) if sizes is not None else tuple(shape[ax] for ax in axes)
    else:
        axis = kwargs.get("axis", args[2] if len(args) > 2 else -1) % ndim
        n = kwargs.get("n", args[1] if len(args) > 1 else None)
        axes, lengths = (axis,), (n if n is not None else shape[axis],)
    n_t = math.prod(lengths)
    total = math.prod(shape) // max(math.prod(shape[ax] for ax in axes), 1) * n_t
    batch = total // max(n_t, 1)
    flop = 5.0 * total * math.log2(n_t) if n_t > 1 else 0.0
    nbytes = 2 * 16 * total
    radius = radius_by_dim.get(len(axes)) if name in _SPATIAL_FFTS else None
    useful = total if radius is None else batch * min((2 * radius + 1) ** len(axes), n_t)
    return (flop, nbytes, useful, total)


def _grid_points(args, kwargs):
    """Spinor values an ``evaluate(F, psi)`` call works on."""
    psi = args[1] if len(args) > 1 else kwargs.get("psi")
    shape = getattr(psi, "shape", None)
    return math.prod(shape[:-1]) if shape else None


class Tracer:
    """Wraps the package's layer functions while installed; records spans.

    ``radius_by_dim`` maps the number of transformed axes to the lattice
    radius of the workload at that dimension; it only feeds the
    ``spectral.useful_frac`` count.
    """

    def __init__(self, radius_by_dim: dict[int, int]):
        self.radius_by_dim = dict(radius_by_dim)
        self.spans: list[tuple] = []
        self.trace_id = 0
        self.enabled = False  # spans are recorded only while True
        self.absent: list[str] = []
        self._stack: list[list] = []
        self._active: dict[str, int] = {}
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- wrappers -------------------------------------------------------

    def wrap(self, fn, name: str, layer: str, info=None):
        tracer, stack, active, spans = self, self._stack, self._active, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            extra = info(args, kwargs) if info is not None else None
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1] if stack else None
            depth = active.get(layer, 0)
            active[layer] = depth + 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[layer] = depth
                dur = t1 - t0
                if parent is not None:
                    parent[1] += dur
                spans.append((tracer.trace_id, sid,
                               parent[0] if parent is not None else -1,
                               name, layer, t0, t1, dur - frame[1], depth == 0,
                               extra))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _fft_wrapper(self, fn, backend, fname):
        radius = self.radius_by_dim
        return self.wrap(fn, f"{backend}.{fname}", "spectral.fft",
                         lambda a, k: _fft_info(fname, a, k, radius))

    # -- install / uninstall --------------------------------------------

    def install(self) -> None:
        """Wrap every target; the package must already be imported."""
        self.absent = []
        replace: dict[int, object] = {}
        owners: list = []

        import numpy.fft  # numpy loads it lazily, on first use

        for backend in FFT_BACKENDS:
            # a backend nothing has imported cannot be called; importing scipy
            # here would only add start-up time to traced CLI processes
            mod = sys.modules.get(backend)
            if mod is None:
                self.absent.append(backend)
                continue
            owners.append(mod)
            for fname in FFT_NAMES:
                fn = getattr(mod, fname, None)
                if fn is None:
                    self.absent.append(f"{backend}.{fname}")
                elif id(fn) not in replace:
                    replace[id(fn)] = self._fft_wrapper(fn, backend, fname)
        owners.append(numpy)
        replace[id(numpy.einsum)] = self.wrap(numpy.einsum, "numpy.einsum",
                                              "spectral.einsum")

        class_methods: list[tuple] = []
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"spintorus.{layer}")
            except ImportError:
                self.absent.append(f"spintorus.{layer}")
                continue
            for attr, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    if not inspect.isgeneratorfunction(obj):
                        name = f"{layer}.{attr}"
                        info = _grid_points if name == "nonlinear.evaluate" else None
                        replace[id(obj)] = self.wrap(obj, name, layer, info)
                elif inspect.isclass(obj) and not attr.startswith("_"):
                    class_methods.extend(self._methods(obj, layer))
        for dotted in PRIVATE_NAMES:
            layer, *path = dotted.split(".")
            mod = sys.modules.get(f"spintorus.{layer}")
            target = mod
            for part in path:
                target = getattr(target, part, None) if target is not None else None
            if target is None:
                self.absent.append(dotted)
            elif len(path) == 1:
                replace[id(target)] = self.wrap(target, dotted, layer)
            else:
                owner = getattr(mod, path[0])
                class_methods.append((owner, path[1], owner.__dict__[path[1]],
                                      self.wrap(target, dotted, layer)))

        for modname, mod in list(sys.modules.items()):
            if mod is not None and (modname == "spintorus" or modname.startswith("spintorus.")):
                owners.append(mod)
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    self._patches.append((owner, attr, obj))
                    setattr(owner, attr, wrapper)
        for owner, attr, original, wrapper in class_methods:
            self._patches.append((owner, attr, original))
            if isinstance(original, classmethod):
                wrapper = classmethod(wrapper)
            elif isinstance(original, staticmethod):
                wrapper = staticmethod(wrapper)
            setattr(owner, attr, wrapper)

    def _methods(self, cls, layer: str):
        for attr, raw in vars(cls).items():
            if attr.startswith("_"):
                continue
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                yield (cls, attr, raw,
                       self.wrap(fn, f"{layer}.{cls.__name__}.{attr}", layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def run(self, trace_id: int, fn, *args):
        """Call ``fn`` under a root span ``bench.op`` carrying ``trace_id``."""
        self.trace_id = trace_id
        self.enabled = True
        try:
            return self.wrap(fn, "bench.op", "bench")(*args)
        finally:
            self.enabled = False


def aggregate(spans, n_ops: int) -> dict[str, float]:
    """Per-op means of the layer metrics over ``n_ops`` traced ops."""
    self_s = dict.fromkeys(LAYERS + ("spectral.fft", "spectral.einsum", "bench"), 0.0)
    top_s = dict.fromkeys(LAYERS, 0.0)
    saves = 0.0
    by_name: dict[str, float] = {}
    calls: dict[str, int] = {}
    fft = [0.0, 0.0, 0.0, 0.0]
    points = 0
    for sp in spans:
        layer = sp[LAYER]
        self_s[layer] = self_s.get(layer, 0.0) + sp[SELF]
        calls[layer] = calls.get(layer, 0) + 1
        dur = sp[END] - sp[START]
        # the named functions below do not call themselves, so their spans
        # never nest and inclusive times add without double counting
        by_name[sp[NAME]] = by_name.get(sp[NAME], 0.0) + dur
        if sp[TOP]:
            top_s[layer] = top_s.get(layer, 0.0) + dur
            if sp[NAME].startswith("fieldio.save"):
                saves += dur
        calls[sp[NAME]] = calls.get(sp[NAME], 0) + 1
        info = sp[INFO]
        if layer == "spectral.fft" and info is not None:
            for i in range(4):
                fft[i] += info[i]
        elif sp[NAME] == "nonlinear.evaluate" and info is not None:
            points += info
    n = max(n_ops, 1)
    out = {
        "spectral.fft_s": self_s["spectral.fft"] / n,
        "spectral.fft_calls": calls.get("spectral.fft", 0) / n,
        "spectral.fft_gflop": fft[0] / 1e9 / n,
        "spectral.fft_mib": fft[1] / 2**20 / n,
        "spectral.useful_frac": fft[2] / fft[3] if fft[3] else 0.0,
        "spectral.einsum_s": self_s["spectral.einsum"] / n,
        "spectral.einsum_calls": calls.get("spectral.einsum", 0) / n,
        "nonlinear.evaluate_s": by_name.get("nonlinear.evaluate", 0.0) / n,
        "nonlinear.evaluate_calls": calls.get("nonlinear.evaluate", 0) / n,
        "nonlinear.points": points / n,
        "nonlinear.jacobian_s": by_name.get("nonlinear.jacobian", 0.0) / n,
        "norms.solution_norm_s": by_name.get("norms.solution_norm", 0.0) / n,
        "norms.modulation_norm_s": by_name.get("norms.modulation_norm", 0.0) / n,
        "norms.bernstein_s": by_name.get("norms.measure_bernstein_constant", 0.0) / n,
        "dyadic.s": top_s["dyadic"] / n,
        "dyadic.calls": calls.get("dyadic", 0) / n,
        "solver.residual_s": by_name.get("solver.dirac_residual", 0.0) / n,
        "fieldio.save_s": saves / n,
        "clifford.s": top_s["clifford"] / n,
        "trace.spans": len(spans) / n,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer] / n
    return out


def layer_self_total(metrics: dict[str, float]) -> float:
    """Sum of the per-layer self times, FFT and einsum included."""
    return (sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
            + metrics["spectral.fft_s"] + metrics["spectral.einsum_s"])
