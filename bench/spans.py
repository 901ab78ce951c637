"""Per-layer tracing from outside the program.

``Tracer.install`` wraps the public callables of each stochdual module (the
layers) and rebinds every name under which the package binds them, so a
call is traced wherever its caller looks it up: ``solve_lp`` is bound in
``stochdual.simplex``, ``stochdual.qp``, ``stochdual.convex`` and
``stochdual.duality``; ``solve_qp`` in ``stochdual.qp`` and
``stochdual.solver``.  Public methods of the classes a module defines are
wrapped on the class.  ``uninstall`` restores every binding.

Each call becomes a span (name, start, end, parent) kept in memory.  Self
time (duration minus the time of the direct child spans) and, for every
metric group, whether the span is the outermost of its group are computed
as the span closes, so nested calls of one group are not counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import weakref

import numpy as np

LAYERS = ("cli", "models", "tree", "convex", "integrand", "solver", "qp",
          "simplex", "duality", "optimality")

LEAF_FNS = ("primal_function", "lagrangian_function_of_x", "conjugate_function_of_v")


def _group_members(name: str) -> tuple[str, ...]:
    """Metric groups a traced callable belongs to: itself, its layer and the
    named groups PER_LAYER reads."""
    layer, _, rest = name.partition(".")
    attr = rest.rpartition(".")[2]
    groups = [name, layer]
    if name == "cli.parse_problem_file":
        groups.append("cli.parse")
    if layer == "models" and attr.startswith("build_"):
        groups.append("models.build")
    if name in ("solver.primal_objective", "solver.CompiledObjective.qp_data"):
        groups.append("solver.compile")
    if name == "solver.dual_via_orthocomplement":
        groups.append("solver.annihilator")
    if layer == "integrand" and attr in LEAF_FNS:
        groups.append("integrand.leaf_fn")
    if name in ("tree.adapted_projection", "tree.conditional_expectation"):
        groups.append("tree.projection")
    if layer == "optimality" and attr.startswith("check_"):
        groups.append("optimality.check")
    return tuple(groups)


# ---------------------------------------------------------------------------
# counters observed at span boundaries
# ---------------------------------------------------------------------------


def _qp_counts(args, kwargs, result):
    return {"qp.solve_qp.iterations": result.iterations,
            "qp.solve_qp.not_optimal": int(result.status != "optimal")}


def _lp_tableau_bytes(args, kwargs):
    """Bytes of the dense phase-1 tableau solve_lp builds: one row per
    constraint, columns x+, x-, slacks, artificials and the right side."""
    n = int(np.asarray(args[0] if args else kwargs["c"]).size)

    def rows(i, key):
        a = args[i] if len(args) > i else kwargs.get(key)
        return 0 if a is None else int(np.asarray(a).size // max(n, 1))

    m_ub, m_eq = rows(1, "a_ub"), rows(3, "a_eq")
    m = m_ub + m_eq
    return {"simplex.solve_lp.tableau_bytes_computed": 8 * m * (2 * n + m_ub + m + 1)}


class _LeafMatrixBytes:
    """Bytes of leaf selection matrices computed rather than served from a
    cache: a matrix counts unless its layout already returned that very
    object for the leaf."""

    def __init__(self):
        self.seen = {}

    def __call__(self, args, kwargs, result):
        layout, leaf = args[0], args[1] if len(args) > 1 else kwargs["leaf"]
        key = (id(layout), leaf)
        known = self.seen.get(key)
        if known is not None and known[0]() is layout and known[1]() is result:
            return None
        self.seen[key] = (weakref.ref(layout), weakref.ref(result))
        return {"solver.leaf_matrix.bytes_computed": int(result.nbytes)}


def _dual_path(args, kwargs, result):
    return {f"solver.dual.{result.method}": 1}


def _annihilator(args, kwargs, result):
    return {"solver.annihilator.failed": int(not np.isfinite(result.value))}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# (metric, unit, keys summed from Tracer.totals).  Calls and seconds of a
# group count only its outermost spans; self_s is span time minus child spans.
PER_LAYER = [
    ("cli.parse.calls", "count", ["cli.parse.calls"]),
    ("cli.parse.s", "s", ["cli.parse.s"]),
    ("models.build.s", "s", ["models.build.s"]),
    ("cli.run.self_s", "s", ["cli.run.self_s"]),
    ("solver.solve_primal.calls", "count", ["solver.solve_primal.calls"]),
    ("solver.solve_primal.s", "s", ["solver.solve_primal.s"]),
    ("solver.solve_dual.s", "s", ["solver.solve_dual.s"]),
    ("solver.dual_objective.calls", "count", ["solver.dual_objective.calls"]),
    ("solver.dual_objective.s", "s", ["solver.dual_objective.s"]),
    ("solver.compile.s", "s", ["solver.compile.s"]),
    ("solver.leaf_matrix.calls", "count", ["solver.AdaptedLayout.leaf_matrix.calls"]),
    ("solver.leaf_matrix.bytes_computed", "B", ["solver.leaf_matrix.bytes_computed"]),
    ("integrand.leaf_fn.calls", "count", ["integrand.leaf_fn.calls"]),
    ("integrand.leaf_fn.s", "s", ["integrand.leaf_fn.s"]),
    ("solver.annihilator.s", "s", ["solver.annihilator.s"]),
    ("solver.annihilator.failed", "count",
     ["solver.annihilator.failed", "solver.dual_via_orthocomplement.raised"]),
    ("solver.dual.recovered", "count", ["solver.dual.recovered"]),
    ("solver.dual.ascent", "count", ["solver.dual.ascent"]),
    ("qp.solve_qp.calls", "count", ["qp.solve_qp.calls"]),
    ("qp.solve_qp.s", "s", ["qp.solve_qp.s"]),
    ("qp.solve_qp.self_s", "s", ["qp.solve_qp.self_s"]),
    ("qp.solve_qp.iterations", "count", ["qp.solve_qp.iterations"]),
    ("qp.solve_qp.not_optimal", "count", ["qp.solve_qp.not_optimal"]),
    ("simplex.solve_lp.calls", "count", ["simplex.solve_lp.calls"]),
    ("simplex.solve_lp.s", "s", ["simplex.solve_lp.s"]),
    ("simplex.solve_lp.raised", "count", ["simplex.solve_lp.raised"]),
    ("simplex.solve_lp.tableau_bytes_computed", "B",
     ["simplex.solve_lp.tableau_bytes_computed"]),
    ("tree.projection.s", "s", ["tree.projection.s"]),
    ("duality.s", "s", ["duality.s"]),
    ("optimality.check.calls", "count", ["optimality.check.calls"]),
    ("optimality.check.s", "s", ["optimality.check.s"]),
] + [(f"{layer}.self_s", "s", [f"{layer}.self_s"]) for layer in LAYERS]


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # span = (name id, parent span id, start, end, self seconds, outermost groups, counters)
        self.spans: list[tuple | None] = []
        self._stack: list[list] = []  # [span id, child seconds]
        self._active: dict[str, int] = {}
        self._bindings: list[tuple[object, str, object]] = []
        self._observers = {
            "qp.solve_qp": _qp_counts,
            "solver.AdaptedLayout.leaf_matrix": _LeafMatrixBytes(),
            "solver.solve_dual": _dual_path,
            "solver.dual_via_orthocomplement": _annihilator,
        }
        self._arg_observers = {"simplex.solve_lp": _lp_tableau_bytes}

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        groups = _group_members(name)
        observe = self._observers.get(name)
        observe_args = self._arg_observers.get(name)
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            outer = tuple(g for g in groups if not active.get(g))
            for g in groups:
                active[g] = active.get(g, 0) + 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            counts = observe_args(args, kwargs) if observe_args else None
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                for g in groups:
                    active[g] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                if raised:
                    counts = dict(counts or {}, raised=1)
                elif observe is not None:
                    extra = observe(args, kwargs, result)
                    if extra:
                        counts = dict(counts or {}, **extra)
                spans[span_id] = (name_id, parent, start, end, duration - frame[1],
                                  outer, counts)
            return result

        return traced

    def _targets(self, package):
        """(qualified name, owner, attribute, original) for every callable."""
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield f"{layer}.{attr}", None, attr, obj
                elif inspect.isclass(obj):
                    for meth, raw in sorted(vars(obj).items()):
                        if meth.startswith("_"):
                            continue
                        if isinstance(raw, (staticmethod, classmethod)) or inspect.isfunction(raw):
                            yield f"{layer}.{attr}.{meth}", obj, meth, raw

    def install(self, package: str = "stochdual"):
        if self._bindings:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for name, owner, attr, original in list(self._targets(package)):
            if owner is not None:
                if isinstance(original, (staticmethod, classmethod)):
                    wrapped = type(original)(self._wrap(name, original.__func__))
                else:
                    wrapped = self._wrap(name, original)
                self._bindings.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                continue
            wrapped = self._wrap(name, original)
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, alias, original))
                        setattr(mod, alias, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Per-group calls and seconds (outermost spans), self time per layer
        and per callable, and the observed counters, over all spans."""
        out: dict[str, float] = {}
        self_keys = [(f"{n.partition('.')[0]}.self_s", f"{n}.self_s") for n in self.names]
        for name_id, _, start, end, self_s, outer, counts in self.spans:
            for key in self_keys[name_id]:
                out[key] = out.get(key, 0.0) + self_s
            for g in outer:
                out[f"{g}.calls"] = out.get(f"{g}.calls", 0) + 1
                out[f"{g}.s"] = out.get(f"{g}.s", 0.0) + (end - start)
            if counts:
                for key, val in counts.items():
                    key = f"{self.names[name_id]}.raised" if key == "raised" else key
                    out[key] = out.get(key, 0) + val
        return out

    def dump(self, path: str):
        """Write spans as JSON lines: one header with the name table, then
        one [name id, parent, start, end] row per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for name_id, parent, start, end, *_ in self.spans:
                fh.write(f"[{name_id},{parent},{start!r},{end!r}]\n")
