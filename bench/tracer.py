"""Spans and counters recorded around calls into the library's layers.

The library itself carries no instrumentation, so the benchmark wraps the
public functions and methods of each module from the outside.  A span is
(name, start, end, parent); a layer's self time is its span minus the part
of that interval covered by its child spans.

Three details decide whether the numbers mean anything:

* ``simulate`` runs path blocks on a thread pool, so every thread keeps its
  own span stack.  A span opened on a thread with an empty stack is parented
  to the span on top of the main thread's stack, which is the ``simulate``
  call blocked on the pool.
* ``cli`` and ``feller`` bind library functions by name at import, so every
  module-level binding of a wrapped function is replaced, not just the one
  in the defining module.
* The package attribute ``volterra_feller.simulate`` is the function, so
  modules are taken from ``sys.modules`` by their dotted names.
"""

import functools
import sys
import threading
import time

PKG = "volterra_feller"


def _size(x):
    try:
        return int(getattr(x, "size", None) or len(x))
    except TypeError:
        return 1


def _count_eval(rec, args, result):
    rec.count("kernels.eval_points", _size(args[1]))


def _count_limit(rec, args, result):
    rec.count("scale.boundary_limit_calls")
    if result.method == "sample":
        rec.count("scale.sampled")
        rec.count("scale.sample_points", len(result.evidence.get("points", ())))
    if result.kind != "inconclusive":
        rec.count("scale.decisive")


def _count_verdicts(rec, args, result):
    verdicts = result if isinstance(result, list) else [result]
    for bv in verdicts:
        rec.count("feller.verdicts")
        if bv.verdict.value != "Inconclusive":
            rec.count("feller.decisive")


def _count_grid(rec, args, result):
    rec.count("resolvent.grid_points", len(result.times))


def _count_gauss(rec, args, result):
    rec.count("fracapprox.gauss_nodes", len(result.rates))


def _count_paths(rec, args, result):
    config = args[2]
    rec.count("simulate.path_steps", config.n_paths * config.n_steps)


def _counter(name):
    def hook(rec, args, result):
        rec.count(name)
    return hook


_VERDICT_TESTS = {
    "necessary_test": "feller.necessary",
    "sufficient_test": "feller.sufficient",
    "bounded_interval_test": "feller.bounded_interval",
    "sup_inf_test": "feller.sup_inf",
    "family_test": "feller.family",
}

# (module, function) -> (span name, count hook, error counter)
FUNCTIONS = {
    ("resolvent", "solve_resolvent"): ("resolvent.solve", _count_grid, "resolvent.errors"),
    ("resolvent", "check_hypotheses"): ("resolvent.check", None, None),
    ("fracapprox", "gaussian_quadrature_kernel"): ("fracapprox.gauss_kernel", _count_gauss, None),
    ("fracapprox", "approximation_error"): ("fracapprox.approx_error", None, None),
    ("feller", "fractional_condition_study"): ("feller.study", None, None),
    ("simulate", "simulate"): ("simulate.simulate", _count_paths, None),
    ("simulate", "verdict_crosscheck"): ("simulate.crosscheck", None, None),
    ("cli", "main"): ("cli.main", None, None),
}
FUNCTIONS.update(
    {("feller", fn): (span, _count_verdicts, None) for fn, span in _VERDICT_TESTS.items()}
)

# (module, class, method) -> (span name, count hook, error counter)
METHODS = {
    ("scale", "ScaleContext", "boundary_limit"):
        ("scale.boundary_limit", _count_limit, "scale.errors"),
    ("scale", "ScaleContext", "v"): ("scale.v", _counter("scale.v_calls"), None),
    ("scale", "ScaleContext", "scale"): ("scale.p", _counter("scale.p_calls"), None),
    ("scale", "ScaleContext", "u_series"): ("scale.u_series", None, None),
}
for _cls in ("CIRModel", "JacobiModel", "PowerModel", "CustomModel"):
    for _meth in ("drift", "diffusion", "truncate"):
        METHODS[("scale", _cls, _meth)] = (
            "scale.model_coeff", _counter("scale.model_coeff_calls"), None
        )
for _cls in ("ConstantKernel", "SumOfExponentialsKernel", "TruncatedFractionalKernel",
             "UserKernel"):
    for _meth in ("eval", "eval_deriv"):
        METHODS[("kernels", _cls, _meth)] = ("kernels.eval", _count_eval, None)


class Recorder:
    """Collects spans and counts; one span stack per thread."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = None
        self.spans = []  # [name, start, end, parent index]
        self.counts = {}

    def reset(self):
        with self._lock:
            self.spans = []
            self.counts = {}

    def count(self, name, n=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is self._main:
                self._main_stack = stack
        return stack

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.current_thread() is not self._main and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = -1
        span = [name, time.perf_counter(), None, parent]
        with self._lock:
            self.spans.append(span)
            idx = len(self.spans) - 1
        stack.append(idx)
        return span

    def close(self, span):
        span[2] = time.perf_counter()
        self._stack().pop()


def _wrap(rec, fn, span_name, hook, error_name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.open(span_name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            if error_name:
                rec.count(error_name)
            raise
        finally:
            rec.close(span)
        if hook is not None:
            hook(rec, args, result)
        return result

    return wrapper


def install(rec):
    """Wrap every listed function and method; returns an undo callable."""
    modules = {name: sys.modules[f"{PKG}.{name}"] for name in
               ("kernels", "resolvent", "scale", "feller", "fracapprox", "simulate", "cli")}
    undo = []
    wrappers = {}
    for (mod, fname), (span, hook, err) in FUNCTIONS.items():
        fn = getattr(modules[mod], fname)
        wrappers[fn] = _wrap(rec, fn, span, hook, err)
    # every module-level binding of a wrapped function, including the
    # package's own re-exports and names imported into cli and feller
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PKG or name.startswith(PKG + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if callable(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
                undo.append((module, attr, value))
    for (mod, cls_name, meth), (span, hook, err) in METHODS.items():
        cls = getattr(modules[mod], cls_name)
        fn = cls.__dict__[meth]
        setattr(cls, meth, _wrap(rec, fn, span, hook, err))
        undo.append((cls, meth, fn))

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


def _union_length(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per-name self time, the union of root spans, and the thread overlap.

    Children of one span can overlap when they run on pool threads; the
    overlap is the sum of their durations minus the union they cover, and
    it is what makes summed self times exceed the wall time they share.
    """
    children = {}
    for i, (_, _, _, parent) in enumerate(spans):
        children.setdefault(parent, []).append(i)
    out = {}
    overlap = 0.0
    for i, (name, t0, t1, _) in enumerate(spans):
        kids = [(max(spans[k][1], t0), min(spans[k][2], t1)) for k in children.get(i, ())]
        kids = [(lo, hi) for lo, hi in kids if hi > lo]
        covered = _union_length(kids)
        overlap += sum(hi - lo for lo, hi in kids) - covered
        out[name] = out.get(name, 0.0) + (t1 - t0) - covered
    roots = _union_length([(spans[k][1], spans[k][2]) for k in children.get(-1, ())])
    return out, roots, overlap
