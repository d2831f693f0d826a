"""Span tracer that instruments polarlab from outside.

`Tracer.install()` replaces each traced public function with a wrapper in
every polarlab module that binds it (so `integrate_grid`, defined in
`integration` and re-exported by `polar_integrals`, is caught under both
bindings) and wraps the methods `LiftedBody.support_batch` and
`SphereQuadrature.build` on their classes.  Each call records one span:
name, start, end, parent span and op id.  Spans stay in memory until the
process writes them out; `layers.py` turns them into per-layer metrics.

Nothing here changes arguments or results, so a traced run computes the same
values as an untraced one (the benchmark's tests check this bit for bit).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from typing import Callable, Dict, List, Optional

# span name -> (module, attribute) that defines the traced callable
FUNCTIONS = {
    "funcmodel.spec_from_json": ("funcmodel", "spec_from_json"),
    "funcmodel.evaluate_batch": ("funcmodel", "evaluate_batch"),
    "funcmodel.barycenter": ("funcmodel", "barycenter"),
    "transforms.s_polar_batch": ("transforms", "s_polar_batch"),
    "transforms.log_polar_batch": ("transforms", "log_polar_batch"),
    "transforms.legendre": ("transforms", "legendre"),
    "integration.richardson_box": ("integration", "richardson_box"),
    "integration.integrate_grid": ("integration", "integrate_grid"),
    "integration.split_moments": ("integration", "split_moments"),
    "polar_integrals.phi_sphere": ("polar_integrals", "phi_sphere"),
    "polar_integrals.node_support": ("polar_integrals", "node_support"),
    "polar_integrals.phi_oracle": ("polar_integrals", "phi_oracle"),
    "polar_integrals.phi_log": ("polar_integrals", "phi_log"),
    "santalo.santalo_point": ("santalo", "santalo_point"),
    "santalo.verify_santalo": ("santalo", "verify_santalo"),
    "regions.region_boundary": ("regions", "region_boundary"),
    "regions.region_membership": ("regions", "region_membership"),
    "suites.run_suite": ("suites", "run_suite"),
}

# span name -> (module, class, method, is_classmethod)
METHODS = {
    "lifting.support_batch": ("lifting", "LiftedBody", "support_batch", False),
    "polar_integrals.SphereQuadrature.build":
        ("polar_integrals", "SphereQuadrature", "build", True),
}

MODULES = ("funcmodel", "transforms", "lifting", "integration", "polar_integrals",
           "santalo", "regions", "suites", "cli")


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "op", "attrs")

    def __init__(self, sid, name, start, parent, op):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.attrs: Dict[str, float] = {}


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return int(shape[0]) if len(shape) > 1 else 1


def _attrs(name: str, args, kwargs, result) -> Dict[str, float]:
    """Work counts recorded on a span, taken from arguments and results."""
    if name == "funcmodel.evaluate_batch":
        return {"points": _rows(args[1])}
    if name == "transforms.s_polar_batch":
        return {"points": _rows(args[2])}
    if name == "transforms.log_polar_batch":
        # after the call the spec's evaluator is cached, so this builds nothing
        from polarlab import transforms

        return {"pairs": _rows(args[1]) * len(transforms._cached_evaluator(args[0]).nodes)}
    if name == "lifting.support_batch":
        return {"directions": _rows(args[1])}
    if name == "santalo.santalo_point":
        return {"iterations": result.iterations, "converged": int(result.converged)}
    if name == "regions.region_boundary":
        return {"rays": len(result.rays)}
    if name == "suites.run_suite":
        return {"suite": args[0] if args else kwargs["name"]}
    return {}


class Tracer:
    """Collects spans from wrapped polarlab callables; thread-safe."""

    def __init__(self):
        self.spans: List[Span] = []
        self.op: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()  # per-thread stack of open spans
        self._undo: List[Callable[[], None]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(next(tracer._ids), name, 0.0,
                        stack[-1].sid if stack else None, tracer.op)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)  # list.append is atomic under the GIL
            span.attrs = _attrs(name, args, kwargs, result)
            return result

        return traced

    def install(self) -> "Tracer":
        mods = {m: importlib.import_module(f"polarlab.{m}") for m in MODULES}
        pkg = importlib.import_module("polarlab")
        for name, (mod, attr) in FUNCTIONS.items():
            original = getattr(mods[mod], attr)
            wrapper = self._wrap(name, original)
            for target in list(mods.values()) + [pkg]:
                for key, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, key, wrapper)
                        self._undo.append(
                            lambda t=target, k=key, v=original: setattr(t, k, v))
        for name, (mod, cls_name, meth, is_cm) in METHODS.items():
            cls = getattr(mods[mod], cls_name)
            original = cls.__dict__[meth]
            fn = original.__func__ if is_cm else original
            wrapper = self._wrap(name, fn)
            setattr(cls, meth, classmethod(wrapper) if is_cm else wrapper)
            self._undo.append(lambda c=cls, m=meth, v=original: setattr(c, m, v))
        return self

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()
