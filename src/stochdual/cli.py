"""Problem-file parsing, command dispatch and report emission.

Problem files are UTF-8 JSON with four sections: "tree", "model",
"parameters" and optional "solver" overrides.  Commands:

    stochdual solve    file.json      primal solve
    stochdual dualize  file.json      dual solve + model dual representation
    stochdual gap      file.json      duality gap
    stochdual check    file.json      optimality certificate
    stochdual report   file.json      all of the above

Exit codes: 0 success/pass, 1 usage or parse error, 2 certificate failure,
3 degenerate or inconclusive, 4 solver non-convergence (a finite primal
value with a duality gap that is infinite or above the checker tolerance,
relative to max(1, |primal|), included).  Each command
solves the primal, the dual and the annihilator bound at most once and
shares them between its sections.  Reports are emitted as JSON (sorted
keys, no timestamps) or aligned text, deterministic at a fixed BLAS
thread count: a threaded BLAS may round large products differently under
another count (ROADMAP item 7).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from .convex import (
    Affine,
    AffinePrecomposition,
    Entropy,
    Exponential,
    FiniteSum,
    NoClosedFormError,
    PiecewiseLinear,
    Polyhedron,
    PolyhedralIndicator,
    Quadratic,
    SeparableSum,
    SupportFunction,
    absolute_value,
    indicator_interval,
    indicator_nonneg,
    indicator_nonpos,
    indicator_point,
)
from .duality import alm_dual_value, bolza_dual_value, check_martingale_density
from .integrand import BolzaStage
from .models import (
    build_alm,
    build_bolza,
    build_constrained,
    build_generic,
    build_kabanov,
)
from .optimality import (
    check_alm,
    check_consistent_price_system,
    check_euler_lagrange,
    check_hamiltonian_system,
    check_kkt,
    check_saddle,
)
from .simplex import PivotLimitError
from .solver import (
    Problem,
    SolverConfig,
    dual_via_orthocomplement,
    duality_gap,
    solve_dual,
    solve_primal,
)
from .tree import (
    NotAdaptedError,
    ScenarioTree,
    StochasticProcess,
    TreeError,
    build_tree,
    is_adapted,
)

__all__ = ["ProblemFileError", "parse_problem_file", "run", "main", "fixture_path"]


def fixture_path(name: str) -> str:
    """Absolute path of a bundled problem file (the fixture corpus)."""
    from importlib import resources

    return str(resources.files("stochdual") / "fixtures" / name)

INF = float("inf")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAIL = 2
EXIT_DEGENERATE = 3
EXIT_NO_CONVERGENCE = 4


class ProblemFileError(ValueError):
    def __init__(self, message: str, path: str):
        super().__init__(f"{path}: {message}")
        self.field_path = path


def _object(value, path):
    if not isinstance(value, dict):
        raise ProblemFileError("expected a JSON object", path)
    return value


def _get(section, key, path, required=True, default=None):
    if key not in _object(section, path):
        if required:
            raise ProblemFileError("missing field", f"{path}.{key}")
        return default
    return section[key]


# ---------------------------------------------------------------------------
# function grammar
# ---------------------------------------------------------------------------


def parse_function(spec, path: str):
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ProblemFileError("function spec needs a 'kind'", path)
    kind = spec["kind"]
    try:
        if kind == "affine":
            return Affine(spec.get("a", [0.0]), spec.get("b", 0.0))
        if kind == "quadratic":
            return Quadratic(_get(spec, "weights", path), spec.get("tilt"),
                             spec.get("offset", 0.0))
        if kind == "abs":
            fn = absolute_value()
            return fn.scaled(spec["scale"]) if "scale" in spec else fn
        if kind == "pwl":
            lo = spec.get("lo", -INF)
            hi = spec.get("hi", INF)
            anchor = tuple(spec.get("anchor", (0.0, 0.0)))
            return PiecewiseLinear(spec.get("breaks", []), _get(spec, "slopes", path),
                                   lo=lo, hi=hi, anchor=anchor)
        if kind == "indicator_nonneg":
            return indicator_nonneg()
        if kind == "indicator_nonpos":
            return indicator_nonpos()
        if kind == "interval":
            return indicator_interval(spec.get("lo", -INF), spec.get("hi", INF))
        if kind == "point":
            return indicator_point(_get(spec, "at", path), spec.get("value", 0.0))
        if kind == "entropy":
            return Entropy(spec.get("coeff", 1.0), spec.get("tilt", 0.0),
                           spec.get("offset", 0.0))
        if kind == "exponential":
            return Exponential(spec.get("coeff", 1.0), spec.get("rate", 1.0),
                               spec.get("offset", 0.0))
        if kind == "polyhedron":
            return PolyhedralIndicator(parse_polyhedron(spec, path))
        if kind == "support":
            return SupportFunction(parse_polyhedron(spec, path))
        if kind == "sum":
            return FiniteSum([parse_function(t, f"{path}.terms[{i}]")
                              for i, t in enumerate(_get(spec, "terms", path))])
        if kind == "separable":
            return SeparableSum([parse_function(t, f"{path}.parts[{i}]")
                                 for i, t in enumerate(_get(spec, "parts", path))])
        if kind == "precompose":
            inner = parse_function(_get(spec, "inner", path), f"{path}.inner")
            return AffinePrecomposition(inner, _get(spec, "matrix", path),
                                        spec.get("offset"))
        if kind == "scale":
            inner = parse_function(_get(spec, "inner", path), f"{path}.inner")
            return inner.scaled(float(_get(spec, "alpha", path)))
    except ProblemFileError:
        raise
    except Exception as exc:
        raise ProblemFileError(str(exc), path)
    raise ProblemFileError(f"unknown function kind '{kind}'", path)


def parse_polyhedron(spec, path: str) -> Polyhedron:
    try:
        if "generators" in spec:
            return Polyhedron.from_cone_generators(spec["generators"])
        return Polyhedron(
            a_ub=spec.get("A"), b_ub=spec.get("b"),
            a_eq=spec.get("A_eq"), b_eq=spec.get("b_eq"),
            cone=spec.get("cone", False),
        )
    except Exception as exc:
        raise ProblemFileError(str(exc), path)


def parse_process(tree: ScenarioTree, dims, spec, path: str) -> StochasticProcess:
    """Stage-major nested lists; scalars broadcast across leaves."""
    if spec is None:
        return StochasticProcess.zeros(tree, dims)
    if not isinstance(spec, list) or len(spec) != tree.stage_count:
        raise ProblemFileError(
            f"expected one entry per stage ({tree.stage_count})", path)
    arrays = []
    for t, entry in enumerate(spec):
        d = dims[t]
        if d == 0:
            arrays.append(np.zeros((tree.n_leaves, 0)))
            continue
        try:
            arr = np.asarray(entry, dtype=float)
        except (TypeError, ValueError):
            raise ProblemFileError(f"stage {t} values must be numbers", f"{path}[{t}]")
        if arr.ndim == 0:
            arr = np.full((tree.n_leaves, d), float(arr))
        elif arr.ndim == 1:
            if arr.size != tree.n_leaves or d != 1:
                raise ProblemFileError(
                    f"stage {t} needs {tree.n_leaves} x {d} values", f"{path}[{t}]")
            arr = arr.reshape(-1, 1)
        if arr.shape != (tree.n_leaves, d):
            raise ProblemFileError(
                f"stage {t} needs shape ({tree.n_leaves}, {d})", f"{path}[{t}]")
        if not np.isfinite(arr).all():
            raise ProblemFileError(f"stage {t} values must be finite", f"{path}[{t}]")
        arrays.append(arr)
    return StochasticProcess(tree, tuple(arrays))


# ---------------------------------------------------------------------------
# problem files
# ---------------------------------------------------------------------------


def _tol(value) -> float:
    """A tolerance: a finite number > 0 (a bool or a string is not one)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool) and 0 < value < INF:
        return float(value)
    raise ValueError(f"tol must be a finite number > 0, not {value!r}")


def parse_problem_file(path: str):
    """Returns (problem, family, parameters-dict, solver-overrides, digest);
    the overrides are converted to the types of ``SolverConfig``."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw.decode("utf-8"))
    except OSError as exc:  # missing, a directory, unreadable
        raise ProblemFileError(f"cannot read the file: {exc.strerror}", path)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProblemFileError(f"invalid JSON: {exc}", path)

    tree_sec = _get(doc, "tree", "$")
    try:
        tree = build_tree(_get(tree_sec, "probabilities", "tree"),
                          _get(tree_sec, "partitions", "tree"))
    except TreeError as exc:
        raise ProblemFileError(str(exc), "tree.probabilities"
                               if "probabilit" in str(exc) else "tree.partitions")

    model = _get(doc, "model", "$")
    family = _get(model, "family", "model")
    try:
        problem = _build_model(tree, family, model)
    except ProblemFileError:
        raise
    except Exception as exc:
        raise ProblemFileError(str(exc), "model")

    params_sec = _object(doc.get("parameters", {}), "parameters")
    u = parse_process(tree, problem.m_dims, params_sec.get("u"), "parameters.u")
    candidate = None
    if "candidate" in params_sec:
        cand = _object(params_sec["candidate"], "parameters.candidate")
        zk = (problem.n_dims[0] // 2,) * tree.stage_count
        dims = {"x": problem.n_dims, "y": problem.m_dims, "v": problem.n_dims, "z": zk, "k": zk}
        candidate = {key: parse_process(tree, d, cand[key], f"parameters.candidate.{key}")
                     for key, d in dims.items() if key in cand}
    solver_sec = {}
    for key, value in _object(doc.get("solver", {}), "solver").items():
        if key != "tol":  # the one SolverConfig field
            raise ProblemFileError("unknown solver setting", f"solver.{key}")
        try:
            solver_sec[key] = _tol(value)
        except (ValueError, OverflowError) as exc:
            raise ProblemFileError(str(exc), f"solver.{key}")
    digest = hashlib.sha256(raw).hexdigest()
    return problem, family, {"u": u, "candidate": candidate}, solver_sec, digest


def _build_model(tree, family, model) -> Problem:
    # equal specs (as sorted JSON) parse to one object, and a Bolza stage
    # wraps each distinct function once: what is derived from a stage (its
    # conjugate, its QP form) is then built once for all nodes carrying it
    functions, polyhedra = {}, {}

    def shared(parsed, parse, spec, path):
        key = json.dumps(spec, sort_keys=True)
        if key not in parsed:
            parsed[key] = parse(spec, path)
        return parsed[key]

    def fn(spec, path):
        return shared(functions, parse_function, spec, path)

    if family == "generic":
        fns = [fn(f, f"model.functions[{i}]")
               for i, f in enumerate(_get(model, "functions", "model"))]
        return build_generic(tree, _get(model, "x_dims", "model"),
                             _get(model, "u_dims", "model"), fns)
    if family == "constrained":
        objs = model.get("objective")
        objs = objs if isinstance(objs, list) else [objs]
        objectives = [fn(o, f"model.objective[{i}]") for i, o in enumerate(objs)]
        raw_cons = _get(model, "constraints", "model")
        if raw_cons and isinstance(raw_cons[0], dict):
            raw_cons = [raw_cons]
        constraints = [
            [fn(c, f"model.constraints[{i}][{j}]") for j, c in enumerate(clist)]
            for i, clist in enumerate(raw_cons)
        ]
        return build_constrained(tree, _get(model, "x_dims", "model"),
                                 objectives, constraints)
    if family == "alm":
        dis = model.get("disutility")
        dis = dis if isinstance(dis, list) else [dis]
        Vs = [fn(v, f"model.disutility[{i}]") for i, v in enumerate(dis)]
        price_spec = _get(model, "price", "model")
        d_s = np.asarray(price_spec[0], dtype=float)
        d_s = 1 if d_s.ndim <= 1 else d_s.shape[1]
        price = parse_process(tree, (d_s,) * tree.stage_count, price_spec,
                              "model.price")
        return build_alm(tree, Vs, price)
    if family == "bolza":
        d = int(_get(model, "state_dim", "model"))
        stages, wrapped = [], {}
        for t, blocks in enumerate(_get(model, "stages", "model")):
            row = []
            for b, spec in enumerate(blocks):
                cost = fn(spec, f"model.stages[{t}][{b}]")
                if id(cost) not in wrapped:
                    wrapped[id(cost)] = BolzaStage(cost, d)
                row.append(wrapped[id(cost)])
            stages.append(row)
        return build_bolza(tree, stages)
    if family == "kabanov":
        sets = [
            [shared(polyhedra, parse_polyhedron, c, f"model.trade_sets[{t}][{b}]")
             for b, c in enumerate(blocks)]
            for t, blocks in enumerate(_get(model, "trade_sets", "model"))
        ]
        dis = [
            [fn(v, f"model.disutilities[{t}][{b}]") for b, v in enumerate(blocks)]
            for t, blocks in enumerate(_get(model, "disutilities", "model"))
        ]
        return build_kabanov(tree, sets, dis)
    raise ProblemFileError(f"unknown family '{family}'", "model.family")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _config(solver_sec, args) -> SolverConfig:
    """Solver settings: the file's "solver" section, then ``--tol``; a bad
    flag value raises ProblemFileError with the flag as its field."""
    cfg = SolverConfig(**solver_sec)
    tol = getattr(args, "tol", None)
    if tol is not None:
        try:
            cfg.tol = _tol(tol)
        except ValueError as exc:
            raise ProblemFileError(str(exc), "--tol")
    return cfg


def _solve_block(res) -> dict:
    return {
        "status": res.status,
        "value": None if not np.isfinite(res.value) else res.value,
        "value_repr": repr(res.value),
        "iterations": res.iterations,
        "residual": res.residual if np.isfinite(res.residual) else None,
        "method": res.method,
    }


def _dual_representation(problem, family, u, dual_res, bound) -> dict:
    out = {}
    y = dual_res.optimizer
    if y is None:
        return out
    dob = dual_res.objective
    out["conjugate_at_y"] = dob.value if np.isfinite(dob.value) else None
    out["conjugate_lower_variant"] = (
        dob.lower_value if dob.lower_value is not None and np.isfinite(dob.lower_value)
        else None
    )
    # a bound whose solve did not end optimal is no bound
    out["annihilator_bound"] = (
        bound.value if bound is not None and bound.status == "optimal" else None
    )
    if family == "alm":
        rep = check_martingale_density(y, problem.integrand.price)
        out["martingale_density"] = {
            "ok": rep.ok, "residual": rep.max_residual, "zero": rep.is_zero,
        }
        out["density_dual_value"] = alm_dual_value(problem, u, y)
        if not np.isfinite(out["density_dual_value"]):
            out["density_dual_value"] = None
    if family == "bolza":
        try:
            val = bolza_dual_value(problem, u, y)
            out["stage_conjugate_dual_value"] = val if np.isfinite(val) else None
        except (ValueError, PivotLimitError):
            out["stage_conjugate_dual_value"] = None
    return out


# the checkers that apply to each family, its default first
_CHECKERS = {"generic": ("saddle",), "constrained": ("kkt", "saddle"), "alm": ("alm", "saddle"),
             "bolza": ("euler-lagrange", "hamiltonian", "saddle"),
             "kabanov": ("cps", "euler-lagrange", "hamiltonian", "saddle")}


def _checker_for(family: str, params) -> str:
    """The family's default checker, or the saddle checker when a dynamic
    problem's u or candidate y is not adapted: the stage conditions need
    adapted processes."""
    given = (params["u"], (params["candidate"] or {}).get("y"))
    if family in ("bolza", "kabanov") and not all(w is None or is_adapted(w) for w in given):
        return "saddle"
    return _CHECKERS[family][0]


def _run_check(problem, params, cfg, checker: str, primal=None, dual=None, bound=None):
    """(certificate, None) for the candidate (x, y, v), filling in what the
    problem file leaves out from the primal, the dual and the dual's
    annihilator bound already solved, or by solving them here; (None, the
    reason) when there is no candidate, a stage checker's processes are
    not adapted, a conjugate the checker needs has no closed form, or an
    LP of the checker does not terminate."""
    u = params["u"]
    cand = params["candidate"] or {}
    x, y, v = (cand.get(key) for key in "xyv")
    if x is None:
        if primal is None:
            primal = solve_primal(problem, u)
        if primal.status != "optimal":
            return None, primal.status
        x = primal.optimizer
    if y is None:
        if dual is None:
            dual = solve_dual(problem, u, cfg, primal)
        y = dual.optimizer
        if y is None:
            return None, dual.status
    if v is None and checker in ("saddle", "kkt"):
        if bound is None or y is not dual.optimizer:
            bound = dual_via_orthocomplement(
                problem, y, cfg,
                dual.objective if dual is not None and y is dual.optimizer else None)
        v = bound.v
        if v is None:
            v = StochasticProcess.zeros(problem.tree, problem.n_dims)
    try:
        return _certificate(problem, checker, x, u, y, v, cand, cfg.gap_tol), None
    except NotAdaptedError as exc:
        # the stage conditions are stated for adapted processes only
        return None, str(exc)
    except NoClosedFormError:
        return None, "no-closed-form"
    except PivotLimitError:
        # an LP of the checker (a support function) did not terminate
        return None, "max-iter"


def _certificate(problem, checker, x, u, y, v, cand, tol):
    if checker == "saddle":
        return check_saddle(problem, x, u, y, v, tol)
    if checker == "kkt":
        return check_kkt(problem, x, u, y, v, tol)
    if checker == "alm":
        return check_alm(problem, x, u, y, tol)
    if checker == "euler-lagrange":
        return check_euler_lagrange(problem, x, u, y, tol)
    if checker == "hamiltonian":
        return check_hamiltonian_system(problem, x, u, y, tol)
    if checker == "cps":
        z, k, d = cand.get("z"), cand.get("k"), problem.n_dims[0] // 2
        if z is None or k is None:
            z, k = x.components(0, d), x.components(d, 2 * d)
        if y.dims[0] == 2 * d:
            y = y.components(0, d)
        return check_consistent_price_system(problem, z, k, u.components(0, d), y, tol)


def _certificate_block(cert) -> dict:
    return {
        "verdict": cert.verdict,
        "tolerance": cert.tol,
        "max_residual": cert.max_residual if np.isfinite(cert.max_residual) else None,
        "reason": cert.reason,
        "rows": [
            {k: (v if not isinstance(v, float) or np.isfinite(v) else None)
             for k, v in row.items()}
            for row in cert.rows
        ],
    }


def _argument_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochdual",
        description="scenario-tree convex duality: solve, dualize, certify",
    )
    parser.add_argument("command",
                        choices=["solve", "dualize", "gap", "check", "report"])
    parser.add_argument("problem_file")
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--checker", default=None,
                        choices=["saddle", "kkt", "alm", "euler-lagrange",
                                 "hamiltonian", "cps"])
    parser.add_argument("--json", action="store_true")
    return parser


# built once: parse_args keeps no state between calls
_PARSER = _argument_parser()


def run(argv) -> tuple[int, dict]:
    """Execute one command; returns (exit_code, report)."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit:
        return EXIT_USAGE, {"error": "usage"}

    try:
        problem, family, params, solver_sec, digest = parse_problem_file(args.problem_file)
    except ProblemFileError as exc:
        return EXIT_USAGE, {"error": str(exc), "field": exc.field_path}
    if args.checker not in (None, *_CHECKERS[family]):
        return EXIT_USAGE, {"error": f"checker '{args.checker}' does not apply to "
                                     f"family '{family}'", "field": "--checker"}
    checker = args.checker or _checker_for(family, params)
    try:
        cfg = _config(solver_sec, args)
    except ProblemFileError as exc:
        return EXIT_USAGE, {"error": str(exc), "field": exc.field_path}
    report = {
        "command": args.command,
        "input_digest": digest,
        "family": family,
        "tree": {"leaves": problem.tree.n_leaves,
                 "stages": problem.tree.stage_count},
    }
    code = EXIT_OK
    u = params["u"]

    def covers(name):
        return args.command in (name, "report")

    # each object of the verdict is solved once and shared by the sections
    primal = dual = bound = None
    if args.command != "check":
        primal = solve_primal(problem, u)
        report["primal"] = _solve_block(primal)
        if primal.status in ("max-iter", "no-closed-form"):
            code = max(code, EXIT_NO_CONVERGENCE)
    if covers("dualize") or covers("gap"):
        gap_rep = duality_gap(problem, u, cfg, primal)
        dual = gap_rep.dual
        report["dual"] = _solve_block(dual)
        report["gap"] = gap_rep.gap if np.isfinite(gap_rep.gap) else None
        if args.command in ("dualize", "report"):
            if dual.optimizer is not None:
                bound = dual_via_orthocomplement(problem, dual.optimizer, cfg, dual.objective)
            report["dual_representation"] = _dual_representation(
                problem, family, u, dual, bound)
        # strong duality holds on a finite tree: a finite primal value with
        # a dual short of optimal (missing, unconverged or with its gap
        # open) means the dual solve failed
        if np.isfinite(primal.value) and dual.status != "optimal":
            code = max(code, EXIT_NO_CONVERGENCE)
    if covers("check"):
        cert, failure = _run_check(problem, params, cfg, checker, primal, dual, bound)
        if cert is None:
            report["certificate"] = {"verdict": "unavailable", "reason": failure}
            code = max(code, EXIT_NO_CONVERGENCE)
        else:
            report["checker"] = checker
            report["certificate"] = _certificate_block(cert)
            if cert.verdict == "fail":
                code = EXIT_CHECK_FAIL
            elif cert.verdict == "degenerate":
                code = max(code, EXIT_DEGENERATE)

    report["exit_code"] = code
    return code, report


def render_text(report: dict) -> str:
    lines = []

    def line(key, value):
        # keys are left-aligned in 22 columns; a longer key keeps one space
        lines.append(f"{key + ':':<21} {value}")

    for key in ("command", "family", "input_digest"):
        if key in report:
            line(key, report[key])
    if "tree" in report:
        t = report["tree"]
        line("tree", f"{t['leaves']} leaves, {t['stages']} stages")
    for block in ("primal", "dual"):
        if block in report:
            b = report[block]
            val = b["value_repr"] if b["value"] is None else f"{b['value']:.12g}"
            line(f"{block} value",
                 f"{val}  [{b['status']}, {b['iterations']} iterations, {b['method']}]")
    if "gap" in report:
        gap = report["gap"]
        line("duality gap", "inf" if gap is None else f"{gap:.3e}")
    if "dual_representation" in report:
        for k, v in sorted(report["dual_representation"].items()):
            line(k, v)
    if "certificate" in report:
        cert = report["certificate"]
        line("verdict", cert["verdict"])
        if cert.get("reason"):
            line("reason", cert["reason"])
        rows = cert.get("rows", [])
        if rows:
            lines.append("residuals:")
            for row in rows:
                where = ", ".join(
                    f"{k}={row[k]}" for k in ("leaf", "stage", "block", "constraint")
                    if k in row
                )
                res = row["residual"]
                res_s = "inf" if res is None else f"{res:.3e}"
                mark = "ok" if row["ok"] else "FAIL"
                lines.append(f"  {row['condition']:<28}{res_s:>12}  {mark:<4}  {where}")
    line("exit code", report.get("exit_code", 0))
    return "\n".join(lines)


def main() -> int:
    argv = sys.argv[1:]
    code, report = run(argv)
    as_json = "--json" in argv
    if "error" in report:
        print(f"error: {report['error']}", file=sys.stderr)
        return code
    if as_json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(render_text(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
