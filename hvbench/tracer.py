"""Outside-in tracer for hatvol.

Spans are recorded from the benchmark's side by replacing module
attributes with wrappers: the public functions of each layer module,
a few named class members, the `enumerate_staircases` generator (one
span per `next()`), and `scipy.optimize.minimize`, which `hvol_toric`
imports at call time. A span holds a name, start, end, parent and run
id. Spans stay in memory until the worker writes them out once.
"""

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("cli", "invariants", "simplex", "monomials", "geometry", "models", "linalg")

# per-element helpers called far more often than a span is cheap; their
# time stays in the caller's self time
UNTRACED = {"linalg.dot", "linalg.primitive", "linalg.clear_denominators"}

CLASS_MEMBERS = {
    ("geometry", "Polyhedron"): ("facets",),
    ("geometry", "Cone"): ("__init__",),
    ("monomials", "MonomialIdeal"): ("multiplicity", "staircase"),
}

COUNTERS = {
    "simplex.solve_covering": lambda args, kwargs, result: {"rows": len(args[1])},
    "invariants.hvol_toric": lambda args, kwargs, result: {"exact": int(result.exact)},
    "scipy.optimize.minimize": lambda args, kwargs, result: {"nfev": int(result.nfev)},
}

NAME, START, END, PARENT, RUN, ERROR, COUNTS = range(7)


class Tracer:
    """Records nested spans; `clock` returns integer nanoseconds."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []
        self.run = 0
        self._stack = []

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.run, False, None])
        self._stack.append(index)
        return index

    def _close(self, index, end, error=False, counts=None):
        span = self.spans[index]
        span[END], span[ERROR], span[COUNTS] = end, error, counts
        self._stack.pop()

    def wrap(self, name, fn, counter=None):
        """A traced stand-in for fn; generator functions get a span per item."""
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                return self._iterate(name, fn(*args, **kwargs))

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(index, self.clock(), error=True)
                raise
            end = self.clock()
            self._close(index, end, counts=counter(args, kwargs, result) if counter else None)
            return result

        return traced

    def _iterate(self, name, inner):
        while True:
            index = self._open(name)
            try:
                item = next(inner)
            except StopIteration:
                self._close(index, self.clock())
                return
            except BaseException:
                self._close(index, self.clock(), error=True)
                raise
            self._close(index, self.clock(), counts={"items": 1})
            yield item

    def patch(self, owner, attr, name, counter=None):
        """Replace owner.attr (a function or property) with a traced one."""
        original = vars(owner)[attr]
        if isinstance(original, property):
            replacement = property(self.wrap(name, original.fget), original.fset, original.fdel, original.__doc__)
        else:
            replacement = self.wrap(name, original, counter)
        setattr(owner, attr, replacement)
        return original, replacement


class _ScipyHook:
    """Meta-path finder that times scipy's import where the program does
    it and wraps `minimize` as soon as scipy.optimize has loaded."""

    def __init__(self, tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        if fullname not in ("scipy", "scipy.optimize"):
            return None
        for finder in sys.meta_path:
            if finder is not self and hasattr(finder, "find_spec"):
                spec = finder.find_spec(fullname, path, target)
                if spec is not None:
                    break
        else:
            return None
        exec_module = self.tracer.wrap("scipy.import", spec.loader.exec_module)

        def traced_exec(module):
            exec_module(module)
            if fullname == "scipy.optimize":
                _patch_minimize(self.tracer, module)

        spec.loader.exec_module = traced_exec
        return spec


def _patch_minimize(tracer, module):
    tracer.patch(module, "minimize", "scipy.optimize.minimize", COUNTERS["scipy.optimize.minimize"])


def install_hatvol(tracer):
    """Wrap the public functions of every layer module of hatvol."""
    modules = {short: importlib.import_module(f"hatvol.{short}") for short in LAYERS}
    wrappers = {}
    for short, module in modules.items():
        for attr, value in list(vars(module).items()):
            name = f"{short}.{attr}"
            if (
                attr.startswith("_")
                or not inspect.isfunction(value)
                or value.__module__ != module.__name__
                or name in UNTRACED
            ):
                continue
            original, wrapper = tracer.patch(module, attr, name, COUNTERS.get(name))
            wrappers[id(original)] = (original, wrapper)
    # names imported with `from .x import f` are bindings of their own
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    for (short, cls_name), members in CLASS_MEMBERS.items():
        cls = getattr(modules[short], cls_name)
        for member in members:
            suffix = "" if member == "__init__" else f".{member}"
            tracer.patch(cls, member, f"{short}.{cls_name}{suffix}")
    if "scipy.optimize" in sys.modules:
        _patch_minimize(tracer, sys.modules["scipy.optimize"])
    else:
        sys.meta_path.insert(0, _ScipyHook(tracer))


def aggregate(spans):
    """{name: {"calls", "total_s", "self_s", "errors", counters...}}.

    Self time is a span's duration minus the time its child spans cover.
    Total time counts only the outermost span of a name, so recursion is
    not counted twice.
    """
    covered = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    stats = {}
    for i, span in enumerate(spans):
        entry = stats.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0})
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["self_s"] += (duration - covered[i]) / 1e9
        entry["errors"] += int(span[ERROR])
        if not _has_ancestor_named(spans, span[PARENT], span[NAME]):
            entry["total_s"] += duration / 1e9
        for key, value in (span[COUNTS] or {}).items():
            entry[key] = entry.get(key, 0) + value
    return stats


def _has_ancestor_named(spans, parent, name):
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False
