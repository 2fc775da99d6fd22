"""Span tracing of glaurent's public functions, from outside the package.

:meth:`Tracer.install` replaces each traced function in every ``glaurent.*``
namespace that imported it with a wrapper that records a span ``(name,
parent, start, end)`` and feeds a counting hook with the call's arguments
and result.  Spans stay in memory; :func:`self_times` turns them into self
time (duration minus the time of child spans) after the run, :func:`dump`
writes them out, and :meth:`Tracer.uninstall` restores the original
functions.

Vector helpers such as ``dot`` stay unwrapped: they run tens of millions of
times and a wrapper would swamp them.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

#: Traced functions per glaurent module, which is also the layer name.
TRACED = {
    "grading": ("find_representative", "associated_vectors"),
    "polycone": ("dual_cone", "hilbert_basis", "polytope_part", "lattice_points",
                 "is_in_halfspace_extend", "rays_in_halfspace"),
    "positivity": ("positivity_test", "special_matrix"),
    "exactmat": ("smith_normal_form", "solve_integer", "integer_kernel",
                 "rational_kernel_basis", "det_and_scaled_inverse", "reduce_mod_lattice"),
    "components": ("component", "s0_generators"),
    "cli": ("main",),
}
CACHED = ("grading.associated_vectors", "polycone.dual_cone", "polycone.hilbert_basis")

_MARK = "__perfbench_span__"


def self_times(spans) -> dict[str, float]:
    """Total self time per span name.

    ``spans`` is a list of ``(name, parent_index, start, end)`` in call
    order, ``parent_index`` being -1 for a root span.
    """
    child = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, _, start, end) in enumerate(spans):
        out[name] += end - start - child[i]
    return dict(out)


def under(spans, ancestor: str) -> list[bool]:
    """For each span, whether some enclosing span is named ``ancestor``."""
    flags = [False] * len(spans)
    for i, (_, parent, _, _) in enumerate(spans):
        if parent >= 0:
            flags[i] = flags[parent] or spans[parent][0] == ancestor
    return flags


def _box_points(counts, args, kwargs, result, exc) -> None:
    if exc is None:
        counts["grading.find_representative.found"] += 1
    elif getattr(exc, "conclusive", True):
        return  # the degree is not in the image: no box was scanned
    kd = args[1] if len(args) > 1 else kwargs["kd"]
    bound = args[3] if len(args) > 3 else kwargs.get("search_bound", 10)
    counts["grading.find_representative.box_points_computed"] += (2 * bound + 1) ** kd.l


def _route(counts, args, kwargs, result, exc) -> None:
    if exc is not None:
        return
    if result.positive:
        route = "positive"
    elif result.failed_condition is not None:
        route = "necessary"
    elif result.flip_set is not None:
        route = "flip"
    else:
        route = "halfspace"
    counts[f"positivity.route.{route}"] += 1


def _component_out(counts, args, kwargs, result, exc) -> None:
    if exc is not None:
        return
    kind = type(result.kind).__name__
    if kind == "FiniteBasis":
        counts["components.component.basis_out"] += len(result.kind.monomials)
    elif kind == "ModuleGenerators":
        counts["components.component.generators_out"] += len(result.kind.sa_gens)


def _unavailable(counts, args, kwargs, result, exc) -> None:
    if type(exc).__name__ == "BlockFormUnavailable":
        counts["positivity.special_matrix.unavailable"] += 1


def _points_out(counts, args, kwargs, result, exc) -> None:
    if exc is None:
        counts["polycone.lattice_points.points_out"] += len(result)


def _output_bytes(counts, args, kwargs, result, exc) -> None:
    counts["cli.main.output_bytes"] += len(kwargs["out"].getvalue().encode())


def _first_call_counter(metric: str, size):
    """Count ``size(result)`` on the first call per argument: with a fresh
    unbounded cache that is exactly the call that computed the result."""
    seen: set = set()

    def hook(counts, args, kwargs, result, exc) -> None:
        if exc is None and args not in seen:
            seen.add(args)
            counts[metric] += size(result)
    return hook


class Tracer:
    """Collects spans and counts while installed on a fresh glaurent import."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._installed: list = []
        self._cached: dict[str, object] = {}

    def _hooks(self) -> dict:
        return {
            "grading.find_representative": _box_points,
            "positivity.positivity_test": _route,
            "positivity.special_matrix": _unavailable,
            "components.component": _component_out,
            "polycone.lattice_points": _points_out,
            "polycone.dual_cone": _first_call_counter(
                "polycone.dual_cone.generators_out", lambda r: len(r.generators)),
            "polycone.hilbert_basis": _first_call_counter(
                "polycone.hilbert_basis.elements_out", lambda r: len(r.elements)),
            "cli.main": _output_bytes,
        }

    def _wrap(self, name: str, fn, hook):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, start, end)
                counts[f"{name}.calls"] += 1
                if hook is not None:
                    hook(counts, args, kwargs, result, exc)

        setattr(wrapper, _MARK, name)
        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a glaurent module holds it."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "glaurent" or k.startswith("glaurent.")]
        hooks = self._hooks()
        for layer, names in TRACED.items():
            home = sys.modules[f"glaurent.{layer}"]
            for fname in names:
                name = f"{layer}.{fname}"
                orig = getattr(home, fname)
                if name in CACHED:
                    self._cached[name] = orig
                wrapper = self._wrap(name, orig, hooks.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, attr, wrapper)
                            self._installed.append((module, attr, orig))

    def uninstall(self) -> None:
        for module, attr, orig in reversed(self._installed):
            setattr(module, attr, orig)
        self._installed.clear()

    def metrics(self, wall_traced: float, wall_untraced: float) -> dict[str, float]:
        """Every per-layer metric, from the spans and counts collected."""
        selfs = self_times(self.spans)
        c = self.counts
        out: dict[str, float] = {}
        for layer, names in TRACED.items():
            for fname in names:
                out[f"{layer}.{fname}.self_s"] = selfs.get(f"{layer}.{fname}", 0.0)
                out[f"{layer}.{fname}.calls"] = c[f"{layer}.{fname}.calls"]
            out[f"{layer}.self_s"] = sum(selfs.get(f"{layer}.{f}", 0.0) for f in names)
        for name, fn in self._cached.items():
            info = fn.cache_info()
            lookups = info.hits + info.misses
            out[f"{name}.cache_hit_ratio"] = info.hits / lookups if lookups else 0.0
        calls = c["grading.find_representative.calls"]
        out["grading.find_representative.found_ratio"] = (
            c["grading.find_representative.found"] / calls if calls else 0.0)
        solves = sum(1 for (name, *_), flag in
                     zip(self.spans, under(self.spans, "polycone.dual_cone"))
                     if flag and name == "exactmat.rational_kernel_basis")
        out["polycone.dual_cone.kernel_solves"] = solves
        out["polycone.dual_cone.yield"] = (
            c["polycone.dual_cone.generators_out"] / solves if solves else 0.0)
        for key in ("grading.find_representative.box_points_computed",
                    "polycone.dual_cone.generators_out", "polycone.hilbert_basis.elements_out",
                    "polycone.lattice_points.points_out", "positivity.special_matrix.unavailable",
                    "positivity.route.positive", "positivity.route.halfspace",
                    "positivity.route.flip", "positivity.route.necessary",
                    "components.component.basis_out", "components.component.generators_out",
                    "cli.main.output_bytes"):
            out[key] = c[key]
        out["trace_overhead_ratio"] = wall_traced / wall_untraced - 1.0
        return out


def dump(spans, path) -> None:
    """Write spans as tab-separated ``name parent start_s end_s`` lines, times
    in seconds from the first span's start and ``parent`` a line index."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = spans[0][2] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name\tparent\tstart_s\tend_s\n")
        for name, parent, start, end in spans:
            fh.write(f"{name}\t{parent}\t{start - origin:.9f}\t{end - origin:.9f}\n")


def installed_wrappers() -> list[str]:
    """Names of glaurent attributes that are still tracing wrappers."""
    return [f"{k}.{attr}" for k, m in list(sys.modules.items())
            if k == "glaurent" or k.startswith("glaurent.")
            for attr, value in vars(m).items() if hasattr(value, _MARK)]
