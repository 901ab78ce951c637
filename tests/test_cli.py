"""Problem files, command dispatch, exit codes and report determinism."""

import dataclasses
import functools
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from stochdual import cli, qp, solver
from stochdual.cli import (
    ProblemFileError,
    fixture_path,
    parse_problem_file,
    render_text,
    run,
)
from stochdual.solver import AdaptedLayout, solve_dual, solve_primal

from helpers import (
    HALF_SQUARE,
    NEITHER_DOC,
    SUM_STAGE_DOC,
    TWO_LEAVES,
    bolza_doc,
    bound_solves,
    hedging_file,
    kabanov_doc,
    no_model_docs,
    same_bits,
    write_doc,
)

FIXTURES = [
    "quadratic-tracking.json",
    "binomial-alm.json",
    "bolza-quadratic.json",
    "bolza-quadratic-binary.json",
    "bolza-pwl.json",
    "kabanov-conical.json",
    "kkt-single.json",
    "pwl-hedging.json",
    "bolza-kinked-velocity.json",
    "bolza-nonadapted.json",
]
# the checkers that apply to each family, as `--checker` accepts them
CHECKERS = {
    "generic": {"saddle"},
    "constrained": {"kkt", "saddle"},
    "alm": {"alm", "saddle"},
    "bolza": {"euler-lagrange", "hamiltonian", "saddle"},
    "kabanov": {"cps", "euler-lagrange", "hamiltonian", "saddle"},
}

# the field a parse error names -> the edit of a valid document that breaks it
MALFORMED = {
    "$": lambda doc: 5,
    "tree": lambda doc: {**doc, "tree": 5},
    "model": lambda doc: {**doc, "model": 7},
    "tree.partitions": lambda doc: {**doc, "tree": {**doc["tree"], "partitions": 3}},
    "tree.probabilities": lambda doc: {**doc, "tree": {**doc["tree"], "probabilities": ["a/b"]}},
    "parameters": lambda doc: {**doc, "parameters": 3},
    "parameters.candidate": lambda doc: {**doc, "parameters": {"candidate": 5}},
    "parameters.u[0]": lambda doc: {**doc, "parameters": {"u": [["a"]]}},
    "solver": lambda doc: {**doc, "solver": [1]},
}


class TestParsing:
    def test_bundled_alm_fixture(self):
        problem, family, params, solver, digest = parse_problem_file(
            fixture_path("binomial-alm.json")
        )
        assert family == "alm"
        assert AdaptedLayout(problem.tree, problem.n_dims).width == 1
        assert len(digest) == 64

    def test_probability_sum_error_names_field(self, tmp_path):
        doc = {
            "tree": {"probabilities": [0.7, 0.4],
                     "partitions": [[[0, 1]], [[0], [1]]]},
            "model": {"family": "alm",
                      "disutility": {"kind": "quadratic", "weights": [0.5]},
                      "price": [[[1.0], [1.0]], [[2.0], [0.5]]]},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemFileError) as err:
            parse_problem_file(str(path))
        assert "tree.probabilities" in str(err.value)
        assert "sum to 1.1" in str(err.value)

    def test_candidate_section_parsed(self):
        problem, family, params, _, _ = parse_problem_file(
            fixture_path("kkt-single.json")
        )
        cand = params["candidate"]
        assert cand is not None
        assert cand["x"].stage(0)[0, 0] == 1.0
        assert cand["y"].stage(0)[0, 0] == 2.0

    @pytest.mark.parametrize("key, value", [("method", "auto"), ("step_constant", 0.5),
                                            ("max_iters", 10), ("tol", "tight"),
                                            ("max_iter", [10]), ("max_iter", True),
                                            ("max_iter", 2.9), ("max_iter", "7"),
                                            ("max_iter", 0), ("max_iter", 100),
                                            ("tol", "1e-3"), ("tol", -1),
                                            ("tol", 0), ("tol", float("inf")), ("tol", float("nan"))])
    def test_bad_solver_setting_is_a_usage_error(self, tmp_path, key, value):
        # a setting the solver does not read is refused, not ignored, and so
        # is a value of the wrong type or out of range: tol is a finite
        # number > 0.  No engine reads max_iter, so every value of it, valid
        # or not in older files, is refused
        with open(fixture_path("binomial-alm.json")) as fh:
            doc = json.load(fh)
        doc["solver"] = {"tol": 1e-8, key: value}
        path = write_doc(tmp_path, "unknown-setting", doc)
        with pytest.raises(ProblemFileError) as err:
            parse_problem_file(path)
        assert err.value.field_path == f"solver.{key}"
        code, report = run(["solve", path])
        assert (code, report["field"]) == (cli.EXIT_USAGE, f"solver.{key}")

    @pytest.mark.parametrize("flag, value", [("--tol", "inf"), ("--tol", "nan"), ("--tol", "-1"),
                                             ("--tol", "0")])
    def test_bad_solver_flag_is_a_usage_error(self, flag, value):
        # the flags take the file's ranges; a bad one is named as --checker is
        code, report = run(["report", fixture_path("binomial-alm.json"), flag, value])
        assert (code, report["field"]) == (cli.EXIT_USAGE, flag)

    @pytest.mark.parametrize("field", sorted(MALFORMED))
    def test_malformed_section_is_a_parse_error(self, tmp_path, field):
        # a section of the wrong JSON type is named, not raised as a
        # TypeError or AttributeError
        with open(fixture_path("kkt-single.json")) as fh:
            path = write_doc(tmp_path, "malformed", MALFORMED[field](json.load(fh)))
        with pytest.raises(ProblemFileError) as err:
            parse_problem_file(path)
        assert err.value.field_path == field
        code, report = run(["report", path])
        assert (code, report["field"]) == (cli.EXIT_USAGE, field)

    @pytest.mark.parametrize("fixture, field, edit", [
        ("binomial-alm.json", "parameters.u[1]",
         lambda doc: doc["parameters"].update(u=[0, float("nan")])),
        ("binomial-alm.json", "model.price[1]",
         lambda doc: doc["model"]["price"][1][0].__setitem__(0, float("inf"))),
        ("kkt-single.json", "parameters.candidate.y[0]",
         lambda doc: doc["parameters"]["candidate"]["y"][0][0].__setitem__(0, float("-inf")))])
    def test_non_finite_process_entry_is_a_parse_error(self, tmp_path, fixture, field, edit):
        # JSON as Python reads it admits NaN and Infinity; a process entry
        # that is not finite is refused where it enters, not solved to nan
        with open(fixture_path(fixture)) as fh:
            doc = json.load(fh)
        edit(doc)
        path = write_doc(tmp_path, "non-finite", doc)
        with pytest.raises(ProblemFileError, match="must be finite") as err:
            parse_problem_file(path)
        assert err.value.field_path == field
        code, report = run(["report", path])
        assert (code, report["field"]) == (cli.EXIT_USAGE, field)

    @pytest.mark.parametrize("partitions", [[[[0, 1.9]], [[0], [1]]],
                                            [[[0, 1]], [[False], [True]]]])
    def test_non_integral_leaf_index_is_a_parse_error(self, tmp_path, partitions):
        # a leaf index 1.9 is not read as 1, nor a bool as 0 or 1
        with open(fixture_path("binomial-alm.json")) as fh:
            doc = json.load(fh)
        doc["tree"]["partitions"] = partitions
        code, report = run(["report", write_doc(tmp_path, "leaf-index", doc)])
        assert (code, report["field"]) == (cli.EXIT_USAGE, "tree.partitions")
        assert "is not an integer" in report["error"]

    @pytest.mark.parametrize("case, message", [
        ("latin-1", "invalid JSON: 'utf-8' codec can't decode"),
        ("directory", "cannot read the file: Is a directory"),
        ("missing", "cannot read the file: No such file or directory")])
    def test_unreadable_file_is_a_parse_error(self, tmp_path, case, message):
        path = tmp_path / f"{case}.json"
        if case == "latin-1":
            path.write_bytes('{"tree": "é"}'.encode("latin-1"))
        elif case == "directory":
            path.mkdir()
        code, report = run(["report", str(path)])
        assert (code, report["field"]) == (cli.EXIT_USAGE, str(path))
        assert message in report["error"]

    def test_malformed_file_exits_1_without_a_traceback(self, tmp_path):
        path = tmp_path / "number.json"
        path.write_text("5")
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "stochdual.cli", "report", str(path)],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (cli.EXIT_USAGE, "")
        assert proc.stderr == "error: $: expected a JSON object\n"

    @pytest.mark.parametrize("parts, error", [
        ([], "disutility has no coordinates (dimension 0)"),
        ([HALF_SQUARE, HALF_SQUARE], "the hedging disutility is scalar, not of dimension 2"),
    ])
    def test_a_hedging_disutility_that_is_not_scalar_is_named(self, tmp_path, parts, error):
        # dimension 0 is refused before the monotonicity grid, which has no
        # axis there
        with open(fixture_path("binomial-alm.json")) as fh:
            doc = json.load(fh)
        doc["model"]["disutility"] = {"kind": "separable", "parts": parts}
        code, report = run(["report", write_doc(tmp_path, "alm-dim", doc)])
        assert (code, report) == (cli.EXIT_USAGE, {"error": f"model: {error}", "field": "model"})

    def test_unknown_kind_reports_path(self, tmp_path):
        doc = {
            "tree": {"probabilities": [1.0], "partitions": [[[0]]]},
            "model": {"family": "generic", "x_dims": [1], "u_dims": [1],
                      "functions": [{"kind": "mystery"}]},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemFileError, match="model.functions"):
            parse_problem_file(str(path))


class TestCommands:
    def test_gap_on_alm_fixture(self):
        code, report = run(["gap", fixture_path("binomial-alm.json")])
        assert code == 0
        assert abs(report["gap"]) <= 1e-5
        assert report["primal"]["value"] == pytest.approx(0.45, abs=1e-8)

    def test_solve_values_across_fixtures(self):
        expected = {
            "quadratic-tracking.json": 0.5,
            "binomial-alm.json": 0.45,
            "bolza-quadratic.json": 0.3,
            "kabanov-conical.json": 0.4,
            "kkt-single.json": 1.0,
        }
        for name, val in expected.items():
            code, report = run(["solve", fixture_path(name)])
            assert code == 0, name
            assert report["primal"]["value"] == pytest.approx(val, abs=1e-7), name

    def test_check_kkt_fixture_passes(self):
        code, report = run(["check", fixture_path("kkt-single.json"),
                            "--checker", "kkt"])
        assert code == 0
        assert report["certificate"]["verdict"] == "pass"

    def test_check_with_perturbed_candidate_fails(self, tmp_path):
        with open(fixture_path("kkt-single.json")) as fh:
            doc = json.load(fh)
        doc["parameters"]["candidate"]["y"] = [[[2.5]]]
        path = tmp_path / "perturbed.json"
        path.write_text(json.dumps(doc))
        code, report = run(["check", str(path)])
        assert code == 2
        assert report["certificate"]["verdict"] == "fail"

    def test_degenerate_alm_check_exits_three(self, tmp_path):
        with open(fixture_path("binomial-alm.json")) as fh:
            doc = json.load(fh)
        doc["parameters"]["u"] = [0, 0.0]
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        code, report = run(["check", str(path)])
        assert code == 3
        assert report["certificate"]["verdict"] == "degenerate"

    def test_check_passes_on_every_fixture(self):
        for name in FIXTURES:
            code, report = run(["check", fixture_path(name)])
            assert code == 0, (name, report.get("certificate"))

    def test_gap_small_on_every_fixture(self):
        for name in FIXTURES:
            code, report = run(["gap", fixture_path(name)])
            assert code == 0, name
            assert abs(report["gap"]) <= 1e-5, name

    def test_dualize_reports_representation(self):
        code, report = run(["dualize", fixture_path("binomial-alm.json")])
        assert code == 0
        rep = report["dual_representation"]
        assert rep["martingale_density"]["ok"] is True
        assert rep["density_dual_value"] == pytest.approx(0.45, abs=1e-6)

    def test_hamiltonian_checker_override(self):
        code, report = run(["check", fixture_path("bolza-quadratic.json"),
                            "--checker", "hamiltonian"])
        assert code == 0
        assert report["checker"] == "hamiltonian"

    @pytest.mark.parametrize("flags", [["--method", "auto"], ["--method", "subgradient"],
                                       ["--step-constant", "0.5"], ["--max-iter", "100"]])
    def test_engine_flags_are_usage_errors(self, flags):
        # the objective picks the engine: there is no flag to choose or to
        # tune it
        assert run(["solve", fixture_path("binomial-alm.json"), *flags]) == \
            (cli.EXIT_USAGE, {"error": "usage"})

    def test_module_entry_point_runs_without_a_warning(self):
        # python -m stochdual.cli, RuntimeWarnings as errors: importing the
        # package leaves the command line for runpy to run once
        env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "stochdual.cli", "report",
             fixture_path("kkt-single.json"), "--json"], capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["exit_code"] == 0

    @pytest.mark.parametrize("name", FIXTURES)
    @pytest.mark.parametrize("checker", sorted(set().union(*CHECKERS.values())))
    def test_checker_outside_the_family_is_a_usage_error(self, name, checker):
        with open(fixture_path(name)) as fh:
            family = json.load(fh)["model"]["family"]
        code, report = run(["check", fixture_path(name), "--checker", checker])
        if checker in CHECKERS[family]:
            assert report["exit_code"] == code
            assert "error" not in report
        else:
            assert code == cli.EXIT_USAGE
            assert report == {"error": f"checker '{checker}' does not apply to family "
                                       f"'{family}'", "field": "--checker"}

    def test_text_report_separates_long_keys(self):
        # a key longer than the label column keeps one space before its value
        _, report = run(["report", fixture_path("bolza-pwl.json")])
        lines = render_text(report).splitlines()
        assert max(map(len, report["dual_representation"])) >= 22
        for key, value in report["dual_representation"].items():
            line = next(line for line in lines if line.startswith(key + ":"))
            assert line[len(key) + 1] == " " and line[len(key) + 1:].strip() == str(value)
            assert line.index(str(value)) == max(22, len(key) + 2)

    def test_recovered_dual_reports_its_own_iterations(self):
        # the recovered dual counts its inner Lagrangian solve, not the primal's
        problem, _, params, _, _ = parse_problem_file(fixture_path("bolza-pwl.json"))
        primal = solve_primal(problem, params["u"])
        dual = solve_dual(problem, params["u"], primal=primal)
        assert dual.method == "recovered"
        inner = solver._minimize(solver._lagrangian_objective(problem, dual.optimizer)[1])
        assert dual.iterations == dual.objective.inner.iterations == inner.iterations
        assert (dual.iterations, primal.iterations) == (1, 3)
        _, report = run(["report", fixture_path("bolza-pwl.json")])
        assert (report["primal"]["iterations"], report["dual"]["iterations"]) == (3, 1)

    def test_usage_error(self):
        code, _ = run(["frobnicate", fixture_path("binomial-alm.json")])
        assert code == 1

    def test_parser_is_built_once(self, monkeypatch):
        # the module's parser serves every call, usage errors included
        monkeypatch.setattr(cli.argparse, "ArgumentParser",
                            lambda *a, **k: pytest.fail("parser built per call"))
        assert run(["--tol"]) == (1, {"error": "usage"})
        assert run(["solve", fixture_path("binomial-alm.json")])[0] == 0
        assert run(["check", fixture_path("kkt-single.json"), "--checker", "nope"]) == \
            (1, {"error": "usage"})

    def test_missing_file(self):
        code, report = run(["solve", "no-such-file.json"])
        assert code == 1
        assert "error" in report


class TestDeterminism:
    def test_reports_are_byte_identical(self):
        for name in ("binomial-alm.json", "kabanov-conical.json"):
            _, rep1 = run(["report", fixture_path(name)])
            _, rep2 = run(["report", fixture_path(name)])
            s1 = json.dumps(rep1, sort_keys=True)
            s2 = json.dumps(rep2, sort_keys=True)
            assert s1 == s2, name

    def test_text_rendering_covers_certificate(self):
        code, report = run(["report", fixture_path("kkt-single.json")])
        text = render_text(report)
        assert "verdict:" in text
        assert "stationarity" in text
        assert "exit code:" in text

    def test_text_rendering_keeps_the_sign_of_infinity(self, tmp_path):
        # f(x, u) = x: the primal is unbounded below
        doc = {
            "tree": {"probabilities": [1.0], "partitions": [[[0]]]},
            "model": {"family": "generic", "x_dims": [1], "u_dims": [1],
                      "functions": [{"kind": "affine", "a": [1.0, 0.0]}]},
        }
        path = tmp_path / "unbounded.json"
        path.write_text(json.dumps(doc))
        _, report = run(["gap", str(path)])
        assert report["primal"]["status"] == "unbounded"
        assert report["primal"]["value"] is None
        lines = render_text(report).splitlines()
        assert any(line.split()[:3] == ["primal", "value:", "-inf"] for line in lines)
        assert any(line.split()[:3] == ["duality", "gap:", "inf"] for line in lines)

    def test_report_has_no_threads_field(self):
        _, report = run(["report", fixture_path("binomial-alm.json")])
        assert "threads" not in report


class TestAnnihilatorBound:
    def test_32_leaf_hedging_bound_is_present(self, tmp_path):
        # 129 variables under 192 equality rows: found by least squares
        liability = np.random.default_rng(7).uniform(2.5, 3.5, 32)
        code, report = run(["report", hedging_file(tmp_path, 5, liability)])
        assert code == 0
        rep = report["dual_representation"]
        assert rep["annihilator_bound"] is not None
        assert rep["annihilator_bound"] == pytest.approx(rep["conjugate_at_y"], abs=1e-9)
        assert report["certificate"]["verdict"] == "pass"


def count_calls(monkeypatch, module, name, calls, modules=()):
    """Replace module.name (and its alias in each of modules) by a wrapper
    that counts calls under calls[name]."""
    original = getattr(module, name)
    calls[name] = 0

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    for mod in (module, *modules):
        monkeypatch.setattr(mod, name, counted)


class TestSolveOnce:
    """A command solves each object of its verdict once."""

    @pytest.mark.parametrize("name", FIXTURES)
    def test_report_solves_primal_once(self, monkeypatch, name):
        calls = {}
        count_calls(monkeypatch, solver, "solve_primal", calls, [cli])
        count_calls(monkeypatch, solver, "dual_objective", calls)
        count_calls(monkeypatch, solver, "dual_via_orthocomplement", calls, [cli])
        code, report = run(["report", fixture_path(name)])
        assert code == 0
        assert calls["solve_primal"] == 1
        if report["dual"]["method"] == "recovered":
            assert calls["dual_objective"] == 1
        assert calls["dual_via_orthocomplement"] <= 1

    @pytest.mark.parametrize("name", FIXTURES)
    def test_report_builds_one_layout(self, monkeypatch, name):
        built = []
        init = AdaptedLayout.__init__

        def counted(self, tree, dims):
            built.append(tree)
            init(self, tree, dims)

        monkeypatch.setattr(AdaptedLayout, "__init__", counted)
        code, _ = run(["report", fixture_path(name)])
        assert code == 0
        assert len(built) == 1

    def test_check_solves_primal_once(self, monkeypatch):
        calls = {}
        count_calls(monkeypatch, solver, "solve_primal", calls, [cli])
        code, _ = run(["check", fixture_path("binomial-alm.json")])
        assert code == 0
        assert calls["solve_primal"] == 1

    def test_constraint_prices_come_from_the_primal_multipliers(self, monkeypatch):
        # the recovery reads the primal QP's solution: no QP solve of its own
        inside = {"recover": False, "qp_calls": 0}
        recover, solve_qp = solver._recover_dual_candidate, solver.solve_qp

        def traced_recover(*args):
            inside["recover"] = True
            try:
                return recover(*args)
            finally:
                inside["recover"] = False

        def traced_qp(*args, **kwargs):
            inside["qp_calls"] += inside["recover"]
            return solve_qp(*args, **kwargs)

        monkeypatch.setattr(solver, "_recover_dual_candidate", traced_recover)
        monkeypatch.setattr(solver, "solve_qp", traced_qp)
        code, report = run(["report", fixture_path("kkt-single.json")])
        assert code == 0
        assert report["dual"]["method"] == "recovered"
        assert report["dual"]["value"] == pytest.approx(1.0, abs=1e-9)
        assert inside["qp_calls"] == 0

    def test_kinked_constraint_prices(self, tmp_path):
        # min |x| s.t. 1 - x <= 0: the lowered QP mixes epigraph rows of |x|
        # with the constraint row; the price is 1
        doc = {
            "tree": {"probabilities": [1.0], "partitions": [[[0]]]},
            "model": {"family": "constrained", "x_dims": [1],
                      "objective": {"kind": "abs"},
                      "constraints": [{"kind": "affine", "a": [-1.0], "b": 1.0}]},
        }
        path = tmp_path / "kinked-kkt.json"
        path.write_text(json.dumps(doc))
        code, report = run(["report", str(path)])
        assert code == 0
        assert report["dual"]["method"] == "recovered"
        assert report["dual"]["value"] == pytest.approx(1.0, abs=1e-9)
        assert report["certificate"]["verdict"] == "pass"

    @pytest.mark.parametrize("name", FIXTURES)
    def test_solve_dual_with_and_without_primal(self, name):
        problem, _, params, solver_sec, _ = parse_problem_file(fixture_path(name))
        cfg = cli._config(solver_sec, None)
        u = params["u"]
        alone = solve_dual(problem, u, cfg)
        shared = solve_dual(problem, u, cfg, solve_primal(problem, u))
        assert (alone.status, alone.method, alone.value, alone.iterations) == \
               (shared.status, shared.method, shared.value, shared.iterations)
        np.testing.assert_array_equal(alone.optimizer.rows,
                                      shared.optimizer.rows)
        assert alone.objective.value == shared.objective.value


# |z| as the support function of [-1, 1]
SUPPORT_ABS = {"kind": "support", "A": [[1.0], [-1.0]], "b": [1.0, 1.0]}


def moved_optimum(doc, tmp_path):
    """``doc`` with its solved x as the candidate, leaf 1's stage-0 entry
    moved by 5: not adapted, while each block's first leaf keeps the
    optimum."""
    problem, _, params, _, _ = parse_problem_file(write_doc(tmp_path, "optimum", doc))
    x = solve_primal(problem, params["u"]).optimizer
    stages = [x.stage(t).tolist() for t in range(problem.tree.stage_count)]
    stages[0][1] = [v + 5.0 for v in stages[0][1]]
    return {**doc, "parameters": {**doc["parameters"], "candidate": {"x": stages}}}


def bolza_binary_moved(tmp_path):
    return moved_optimum(json.loads(pathlib.Path(
        fixture_path("bolza-quadratic-binary.json")).read_text()), tmp_path)


# checker -> a document (written to tmp_path) whose candidate x is not adapted
NON_ADAPTED = {
    # x^2 under 1 - x + u <= 0: x_0 = 1 at u = 0 and 1/2 at u = -1/2, each
    # with the multiplier that prices its leaf
    "kkt": lambda tmp_path: {
        "tree": TWO_LEAVES,
        "model": {"family": "constrained", "x_dims": [1, 0],
                  "objective": {"kind": "quadratic", "weights": [1.0]},
                  "constraints": [{"kind": "affine", "a": [-1.0], "b": 1.0}]},
        "parameters": {"u": [0, [0.0, -0.5]],
                       "candidate": {"x": [[1.0, 0.5], 0], "y": [0, [2.0, 1.0]], "v": [0, 0]}}},
    # z^2/2 hedging, price 1 -> 1.2 / 0.9: y_l = V'(w_l) on each leaf's
    # own position, and y has zero-mean gains
    "alm": lambda tmp_path: {
        "tree": TWO_LEAVES,
        "model": {"family": "alm", "disutility": {"kind": "quadratic", "weights": [0.5]},
                  "price": [[[1.0], [1.0]], [[1.2], [0.9]]]},
        "parameters": {"u": [0, 0.0],
                       "candidate": {"x": [[1.0, -4.0], 0], "y": [0, [-0.2, -0.4]]}}},
    "euler-lagrange": bolza_binary_moved,
    "hamiltonian": bolza_binary_moved,
    "cps": lambda tmp_path: moved_optimum(kabanov_doc(2, np.random.default_rng(2)), tmp_path),
}


class TestHonestExitCodes:
    def test_kinked_velocity_dual_closes_the_gap(self):
        # 1/2 x^2 + |w| on two leaves: the dual is the velocity subgradient
        # the primal QP selects, not the midpoint of the kink
        code, report = run(["report", fixture_path("bolza-kinked-velocity.json")])
        assert (code, report["dual"]["method"]) == (0, "recovered")
        assert abs(report["gap"]) <= 1e-12
        assert report["certificate"]["verdict"] == "pass"

    def test_dual_without_a_closed_form_is_a_status(self, tmp_path):
        # V = pwl + z^2/4 has no closed-form conjugate, which the dual needs:
        # the dual reports it, the finite primal's gap is infinite, and the
        # certificate is unavailable
        with open(fixture_path("pwl-hedging.json")) as fh:
            doc = json.load(fh)
        doc["model"]["disutility"] = {"kind": "sum", "terms": [
            doc["model"]["disutility"], {"kind": "quadratic", "weights": [0.25]}]}
        path = tmp_path / "sum-hedging.json"
        path.write_text(json.dumps(doc))
        code, report = run(["solve", str(path)])
        assert (code, report["primal"]["status"]) == (0, "optimal")
        for command in ("gap", "dualize", "check", "report"):
            code, report = run([command, str(path)])
            assert code == cli.EXIT_NO_CONVERGENCE, command
            if command != "check":
                assert report["dual"]["status"] == "no-closed-form"
                assert report["gap"] is None
            if command in ("check", "report"):
                assert report["certificate"] == {"verdict": "unavailable",
                                                 "reason": "no-closed-form"}

    def test_stage_conjugate_without_a_closed_form_is_a_status(self, tmp_path):
        # K(x, w) = |x| + w^2/2 written as a general sum of two
        # precompositions: K* has no closed form, but H_t(., y) = |x| - y^2/2
        # has an x-conjugate, and K_t*(., y) = H_t(., y)* is read through
        # it, so the report, every checker and the annihilator bound have
        # their values
        path = write_doc(tmp_path, "sum-stage", SUM_STAGE_DOC)
        code, report = run(["report", path])
        assert (code, report["certificate"]["verdict"]) == (0, "pass")
        assert (report["primal"]["status"], report["dual"]["status"]) == ("optimal", "optimal")
        assert report["gap"] == 0.0
        dual = report["dual_representation"]
        assert dual["annihilator_bound"] == dual["conjugate_at_y"] == 0.8125
        assert dual["stage_conjugate_dual_value"] == report["primal"]["value"] == \
            report["dual"]["value"] == 1.0625
        for checker in sorted(CHECKERS["bolza"]):
            code, report = run(["check", path, "--checker", checker])
            assert (code, report["certificate"]["verdict"]) == (0, "pass"), checker
        problem, _, params, _, _ = cli.parse_problem_file(path)
        dual = solve_dual(problem, params["u"])
        bound = solver.dual_via_orthocomplement(problem, dual.optimizer)
        assert (bound.status, bound.value) == ("optimal", 0.8125)

    def test_stage_conjugate_with_neither_closed_form_is_a_status(self, tmp_path):
        # K(x, w) = |x| + pwl(x) + w^2/2 as a general sum: neither K* nor
        # H_t(., y)'s x-conjugate has a closed form, so every checker that
        # reads K_t* ends as a status, the Hamiltonian checker too, and the
        # report keeps its primal and dual values
        path = write_doc(tmp_path, "neither", NEITHER_DOC)
        for checker in sorted(CHECKERS["bolza"]):
            code, report = run(["check", path, "--checker", checker])
            assert (code, report["certificate"]) == (cli.EXIT_NO_CONVERGENCE, {
                "verdict": "unavailable", "reason": "no-closed-form"}), checker
        code, report = run(["report", path])
        assert (code, report["dual"]["status"]) == (cli.EXIT_NO_CONVERGENCE, "optimal")
        assert abs(report["gap"]) <= 1e-12
        dual = report["dual_representation"]
        assert dual["annihilator_bound"] is dual["stage_conjugate_dual_value"] is None

    @pytest.mark.parametrize("case", ["not-adapted", "no-closed-form", "max-iter"])
    def test_missing_stage_conjugate_dual_value_keeps_the_exit_code(
            self, tmp_path, monkeypatch, case):
        # the dynamic dual value is null for each outcome it stands for: u
        # not adapted, a K_t* with no closed form, and a support LP of K_t*
        # (the velocity cost an interval written as a polyhedron) stopped at
        # the iteration cap; the exit code is the report's own
        if case == "not-adapted":
            path, want = fixture_path("bolza-nonadapted.json"), 0
        elif case == "no-closed-form":
            path, want = write_doc(tmp_path, case, NEITHER_DOC), cli.EXIT_NO_CONVERGENCE
        else:
            path, want = write_doc(tmp_path, case, bolza_doc(
                2, HALF_SQUARE, np.random.default_rng(0),
                velocity_cost={"kind": "polyhedron", "A": [[1], [-1]], "b": [2, 2]})), 0
            code, report = run(["report", path])
            assert (code, report["dual_representation"]["stage_conjugate_dual_value"]) == (0, 0.0)
            monkeypatch.setattr(cli, "bolza_dual_value",
                                starved(monkeypatch, cli.bolza_dual_value))
        code, report = run(["report", path])
        assert (code, report["dual_representation"]["stage_conjugate_dual_value"]) == (want, None)

    def test_other_stage_conjugate_dual_value_errors_are_not_swallowed(self, monkeypatch):
        # only the three outcomes above read as null; any other error of
        # the dynamic dual value is a fault, and it surfaces
        def broken(*args):
            raise ValueError("not one of the three outcomes")

        monkeypatch.setattr(cli, "bolza_dual_value", broken)
        with pytest.raises(ValueError, match="not one of the three outcomes"):
            run(["report", fixture_path("bolza-quadratic.json")])

    def test_saddle_rows_are_judged_at_the_scale_of_their_terms(self, tmp_path):
        # liabilities near 3e6: f, f*, x.v and u.y are near 1e12, and the
        # joint residual's rounding (~1e-3) passes at that scale
        liability = 1e6 * np.random.default_rng(0).uniform(2.5, 3.5, 16)
        path = hedging_file(tmp_path, 4, liability)
        code, report = run(["check", path, "--checker", "saddle"])
        rows = report["certificate"]["rows"]
        assert (code, report["certificate"]["verdict"]) == (0, "pass")
        assert all(r["ok"] for r in rows)
        assert max(r["residual"] for r in rows) > 1e-6  # above the absolute tolerance

    def test_rowless_inner_solve_is_judged_at_the_scale_of_its_summands(self, tmp_path):
        # liabilities near 3e8: at the recovered y the Lagrangian's inner
        # program has no rows, P = 0, and a q that is the rounding (~1e-8)
        # of summands w_k q_k near 1e7; judged at their size, not at its
        # own, the inner solve is optimal and the gap closes
        liability = 1e8 * np.random.default_rng(0).uniform(2.5, 3.5, 8)
        path = hedging_file(tmp_path, 3, liability)
        code, report = run(["report", path])
        assert (code, report["primal"]["status"], report["dual"]["status"]) == (0, "optimal", "optimal")
        assert report["certificate"]["verdict"] == "pass"
        assert report["dual_representation"]["annihilator_bound"] is not None
        problem, _, params, _, _ = cli.parse_problem_file(path)
        lagrangian = solve_dual(problem, params["u"]).objective.lagrangian
        q = lagrangian.qp_data()[1]
        assert np.max(np.abs(q)) > 1e-8 and lagrangian.q_scale > 1e6
        # the martingale test's block means are rounding of products y ds
        # near 1e7, judged at that size: y is a density, and it has a value
        dual = report["dual_representation"]
        assert dual["martingale_density"]["ok"]
        assert dual["density_dual_value"] is not None

    def test_martingale_rows_are_judged_at_the_scale_of_y_ds(self, tmp_path):
        # 64 leaves, liabilities near 3e9: y ds reaches about 1e9, and its
        # block means are rounding near 1.6e-6, above the absolute
        # tolerance 1e-6; judged at the size of y ds, the martingale and
        # annihilator rows of check_alm pass, and so does the report
        liability = 1e9 * np.random.default_rng(0).uniform(2.5, 3.5, 64)
        code, report = run(["report", hedging_file(tmp_path, 6, liability)])
        assert (code, report["dual"]["status"], report["certificate"]["verdict"]) == (0, "optimal", "pass")
        dual = report["dual_representation"]
        assert dual["martingale_density"]["ok"] and dual["density_dual_value"] is not None
        rows = [r for r in report["certificate"]["rows"]
                if r["condition"] in ("martingale-density", "annihilator")]
        assert len(rows) == 2 and all(r["ok"] for r in rows)
        assert dual["martingale_density"]["residual"] > report["certificate"]["tolerance"]

    @pytest.mark.parametrize("fn", [
        SUPPORT_ABS, {"kind": "sum", "terms": [SUPPORT_ABS, {"kind": "quadratic", "weights": [0.5]}]}],
        ids=["support", "sum"])
    def test_term_without_a_model_is_a_status(self, tmp_path, fn):
        # |x_0 - u| as a support function on two leaves: Newton's method
        # needs a quadratic model of each term, and a support term has none
        doc = {"tree": {"probabilities": [0.5, 0.5], "partitions": [[[0, 1]], [[0], [1]]]},
               "model": {"family": "generic", "x_dims": [1, 0], "u_dims": [0, 1],
                         "functions": [{"kind": "precompose", "inner": fn,
                                        "matrix": [[1.0, -1.0]]}]},
               "parameters": {"u": [0, [1.0, -0.5]]}}
        code, report = run(["report", write_doc(tmp_path, "support", doc)])
        assert code == cli.EXIT_NO_CONVERGENCE
        assert (report["primal"]["status"], report["primal"]["value"]) == ("no-closed-form", None)
        assert report["dual"]["status"] == "not-run"
        assert report["certificate"] == {"verdict": "unavailable", "reason": "no-closed-form"}

    @pytest.mark.parametrize("command", ["solve", "dualize", "gap", "check", "report"])
    @pytest.mark.parametrize("name", sorted(no_model_docs()))
    def test_document_without_a_model_is_a_status(self, tmp_path, name, command):
        # a support term has no QP form, and a constraint that is not an
        # Affine instance no joint form: each command reports the primal's
        # status, on the compile as on the solve, and raises nothing
        code, report = run([command, write_doc(tmp_path, name, no_model_docs()[name])])
        assert code == cli.EXIT_NO_CONVERGENCE
        if command == "check":
            assert report["certificate"] == {"verdict": "unavailable",
                                             "reason": "no-closed-form"}
        else:
            # no engine ran, so the primal names no method, as a dual
            # that was not run names none
            assert (report["primal"]["status"], report["primal"]["method"]) == ("no-closed-form", "")
        if "dual" in report:
            assert (report["dual"]["status"], report["dual"]["method"]) == ("not-run", "")

    @pytest.mark.parametrize("fn, method", [({"kind": "quadratic", "weights": [1]}, "polyhedral"),
                                            ({"kind": "exponential"}, "newton")],
                             ids=["quadratic", "exponential"])
    def test_problem_without_decisions_is_solved(self, tmp_path, fn, method):
        # no decisions (x_dims [0, 0]): the primal is E g(u), solved like any
        # other problem on its engine's path, and y is read off that solve
        doc = {"tree": {"probabilities": [0.5, 0.5], "partitions": [[[0, 1]], [[0], [1]]]},
               "model": {"family": "generic", "x_dims": [0, 0], "u_dims": [0, 1],
                         "functions": [fn]},
               "parameters": {"u": [0, [1.0, -0.5]]}}
        code, report = run(["report", write_doc(tmp_path, "no-decisions", doc)])
        assert (report["primal"]["status"], report["dual"]["status"]) == ("optimal", "optimal")
        assert report["primal"]["method"] == method
        assert report["gap"] == 0.0
        assert (report["certificate"]["verdict"], code) == ("pass", 0)

    def test_infinite_gap_with_finite_primal_exits_non_zero(self, monkeypatch):
        # a recovery that hands back 100 times the optimal y: phi*(y) = +inf
        # there, so the dual is missing, and the gap is infinite although
        # the primal is not
        recover = solver._recover_dual_candidate

        def scaled(*args):
            y = recover(*args)
            return type(y)(y.tree, tuple(100.0 * a for a in y.values))

        monkeypatch.setattr(solver, "_recover_dual_candidate", scaled)
        for command in ("gap", "dualize", "report"):
            code, report = run([command, fixture_path("pwl-hedging.json")])
            assert report["primal"]["value"] == pytest.approx(-0.025, abs=1e-12)
            assert report["dual"]["status"] == "not-recovered"
            assert report["gap"] is None
            assert code == cli.EXIT_NO_CONVERGENCE, command

    def test_large_finite_gap_exits_non_zero(self, monkeypatch):
        # a recovery that hands back half the optimal y: the inner solve
        # prices it honestly, and the gap it leaves is finite but large
        recover = solver._recover_dual_candidate

        def halved(*args):
            y = recover(*args)
            return type(y)(y.tree, tuple(0.5 * a for a in y.values))

        monkeypatch.setattr(solver, "_recover_dual_candidate", halved)
        for command in ("gap", "dualize", "report"):
            code, report = run([command, fixture_path("binomial-alm.json")])
            assert report["dual"]["method"] == "recovered"
            assert report["gap"] == pytest.approx(0.1125, abs=1e-12)
            if command == "report":
                # the certificate rejects the halved y, and its failure
                # code takes precedence
                assert (code, report["certificate"]["verdict"]) == (cli.EXIT_CHECK_FAIL, "fail")
            else:
                assert code == cli.EXIT_NO_CONVERGENCE, command

    def test_gap_within_the_checker_tolerance_exits_zero(self):
        # the tolerance scales with max(1, |primal|); the fixtures close
        # their gaps to roundoff
        for name in FIXTURES:
            code, report = run(["gap", fixture_path(name)])
            assert code == 0, name
            assert abs(report["gap"]) <= 1e-6 * max(1.0, abs(report["primal"]["value"]))

    def test_bound_engine_failure_is_a_status(self, monkeypatch, tmp_path):
        # the dual's phi*(y) handed to the annihilator bound is shifted, so
        # the v read off its inner solve fails the certificate and no bound
        # is reported; a bound that prices y by its own inner solve, stopped
        # at the active-set loop's iteration cap, reports that status
        path, doc = abs_generic_file(tmp_path)
        bound = solver.dual_via_orthocomplement
        statuses = []

        def starved(problem, y, cfg, objective):
            if objective is not None:
                objective = dataclasses.replace(objective, value=objective.value + 1.0)
            with monkeypatch.context() as m:
                m.setattr(solver, "solve_qp", functools.partial(qp.solve_qp, max_iter=0))
                res = bound(problem, y, cfg, objective)
            statuses.append(res.status)
            return res

        monkeypatch.setattr(cli, "dual_via_orthocomplement", starved)
        code, report = run(["report", path])
        assert statuses == ["gap-open"]
        assert report["dual_representation"]["annihilator_bound"] is None
        # the saddle check takes v = 0 in place of the missing v, which is
        # this problem's v
        assert (code, report["certificate"]["verdict"]) == (0, "pass")
        statuses.clear()
        doc["parameters"]["candidate"] = {"y": [0, [1.0, -1.0]]}
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code, report = run(["check", path])
        assert statuses == ["max-iter"]
        assert report["certificate"]["verdict"] in ("pass", "fail")

    def test_rejected_bound_is_a_status(self, monkeypatch):
        # as above on a dynamic problem: the rejected read-off leaves no
        # bound, and nothing is solved in its place
        path = fixture_path("bolza-pwl.json")
        bound = solver.dual_via_orthocomplement
        statuses = []

        def shifted(problem, y, cfg, objective):
            objective = dataclasses.replace(objective, value=objective.value + 1.0)
            res = bound(problem, y, cfg, objective)
            statuses.append(res.status)
            return res

        monkeypatch.setattr(cli, "dual_via_orthocomplement", shifted)
        solves = bound_solves(monkeypatch)
        code, report = run(["report", path])
        assert (statuses, solves) == (["gap-open"], [])
        assert report["dual_representation"]["annihilator_bound"] is None
        # the Euler-Lagrange checker needs no v
        assert (code, report["certificate"]["verdict"]) == (0, "pass")
        statuses.clear()
        # the saddle check falls back to v = 0
        code, report = run(["check", path, "--checker", "saddle"])
        assert (statuses, solves) == (["gap-open"], [])
        assert report["certificate"]["verdict"] in ("pass", "fail")

    def test_engine_failure_in_every_lp_is_a_status(self, monkeypatch):
        # every LP of the run, and every phase 1, gives up.  On
        # bolza-pwl.json the primal, the dual, the lower variant and the
        # bound need none: the lower variant is the uncapped report's
        path = fixture_path("bolza-pwl.json")
        uncapped = run(["report", path])[1]["dual_representation"]["conjugate_lower_variant"]
        monkeypatch.setattr(qp, "solve_qp", functools.partial(qp.solve_qp, max_iter=0))
        code, report = run(["report", path])
        rep = report["dual_representation"]
        assert report["dual"]["status"] == "optimal"
        assert rep["conjugate_lower_variant"] is not None
        assert same_bits(rep["conjugate_lower_variant"], uncapped)
        assert rep["annihilator_bound"] == pytest.approx(rep["conjugate_at_y"], abs=1e-12)
        assert (code, report["certificate"]["verdict"]) == (0, "pass")
        code, report = run(["check", path])
        assert (code, report["certificate"]["verdict"]) == (0, "pass")
        # a Kabanov primal's phase 1 runs the elastic LP: no primal, no dual
        code, report = run(["report", fixture_path("kabanov-conical.json")])
        assert (report["primal"]["status"], report["dual"]["status"]) == ("max-iter", "not-run")
        assert (code, report["certificate"]) == (
            cli.EXIT_NO_CONVERGENCE, {"verdict": "unavailable", "reason": "max-iter"})

    def test_bound_conjugate_lp_failure_is_a_status(self, monkeypatch):
        # every LP gives up inside the annihilator bound only: on
        # kabanov-conical.json each stage conjugate's support function is
        # an LP, so the bound ends max-iter before it has a value
        statuses = []
        bound = starved(monkeypatch, solver.dual_via_orthocomplement)

        def recorded(*args):
            res = bound(*args)
            statuses.append(res.status)
            return res

        monkeypatch.setattr(cli, "dual_via_orthocomplement", recorded)
        path = fixture_path("kabanov-conical.json")
        code, report = run(["report", path])
        assert statuses == ["max-iter"]
        assert report["dual"]["status"] == "optimal"
        assert report["dual_representation"]["annihilator_bound"] is None
        # the consistent-price-system checker needs no v
        assert (code, report["checker"], report["certificate"]["verdict"]) == (0, "cps", "pass")
        statuses.clear()
        # the saddle check falls back to v = 0
        code, report = run(["check", path, "--checker", "saddle"])
        assert statuses == ["max-iter"]
        assert report["certificate"]["verdict"] in ("pass", "fail")

    def test_dual_and_checker_lp_failures_are_statuses(self, monkeypatch):
        # on kabanov-conical.json the Hamiltonians' support functions are
        # LPs: starved there, the dual's pricing ends max-iter
        path = fixture_path("kabanov-conical.json")
        with monkeypatch.context() as m:
            m.setattr(solver, "_lagrangian_objective",
                      starved(monkeypatch, solver._lagrangian_objective))
            code, report = run(["report", path])
        assert (report["primal"]["status"], report["dual"]["status"]) == ("optimal", "max-iter")
        assert code == cli.EXIT_NO_CONVERGENCE
        # starved inside every checker, the certificate is unavailable
        monkeypatch.setattr(cli, "_certificate", starved(monkeypatch, cli._certificate))
        for checker in sorted(CHECKERS["kabanov"]):
            code, report = run(["check", path, "--checker", checker])
            assert (code, report["certificate"]) == (
                cli.EXIT_NO_CONVERGENCE, {"verdict": "unavailable", "reason": "max-iter"})

    @pytest.mark.parametrize("command", ["check", "report"])
    def test_non_adapted_parameter_defaults_to_the_saddle_checker(self, command):
        # |x| + w^2/2 on the horizon-3 binary tree, u with N(0, 0.3^2) noise
        # on every leaf: the recovered y closes the gap, and the saddle
        # checker certifies it where the stage conditions do not apply
        path = fixture_path("bolza-nonadapted.json")
        code, report = run([command, path])
        assert (code, report["checker"], report["certificate"]["verdict"]) == \
            (0, "saddle", "pass")
        if command == "report":
            assert report["dual"]["status"] == "optimal"
            assert abs(report["gap"]) <= 1e-13
            assert report["dual_representation"]["stage_conjugate_dual_value"] is None
        # the stage conditions need adapted processes: asked for, the
        # certificate says why it is missing instead of raising
        code, report = run([command, path, "--checker", "euler-lagrange"])
        assert code == 4
        assert report["certificate"] == {
            "verdict": "unavailable", "reason": "the dual candidate must be adapted"}

    def test_stage_checkers_refuse_a_non_adapted_parameter(self, tmp_path):
        # bolza-quadratic-binary.json at its optimal x and y, with 100 added
        # to u at stage 1 on leaves 1 and 3: the stage conditions read u at
        # each block's first leaf, so both stage checkers refuse it
        path = fixture_path("bolza-quadratic-binary.json")
        problem, _, params, _, _ = parse_problem_file(path)
        primal = solve_primal(problem, params["u"])
        y = solve_dual(problem, params["u"], primal=primal).optimizer
        doc = json.loads(pathlib.Path(path).read_text())
        doc["parameters"]["u"][1] = [[0.5], [100.5], [-0.5], [99.5]]
        doc["parameters"]["candidate"] = {
            key: [proc.stage(t).tolist() for t in range(problem.tree.stage_count)]
            for key, proc in (("x", primal.optimizer), ("y", y))}
        bad = write_doc(tmp_path, "nonadapted-u", doc)
        for checker in ("euler-lagrange", "hamiltonian"):
            code, report = run(["check", bad, "--checker", checker])
            assert (code, report["certificate"]) == (cli.EXIT_NO_CONVERGENCE, {
                "verdict": "unavailable",
                "reason": "the parameter must be adapted for the stage conditions"})

    def test_non_adapted_candidate_defaults_to_the_saddle_checker(self, tmp_path):
        # adapted u, and a candidate y that is not: the saddle checker runs
        # on the candidate, which is not the optimal dual
        doc = bolza_doc(2, {"kind": "abs"}, np.random.default_rng(0))
        doc["parameters"]["candidate"] = {"y": [[[0.5]] * 4, [[0.1], [0.2], [0.3], [0.4]],
                                                [[0.5]] * 4]}
        code, report = run(["check", write_doc(tmp_path, "bolza-candidate", doc)])
        assert report["checker"] == "saddle"
        assert (code, report["certificate"]["verdict"]) == (cli.EXIT_CHECK_FAIL, "fail")

    @pytest.mark.parametrize("checker", sorted(NON_ADAPTED))
    def test_every_checker_fails_a_non_adapted_decision(self, tmp_path, checker):
        # each candidate x is optimal leaf by leaf, or at each block's first
        # leaf, where the stage checkers read it; the saddle checker and the
        # family's own checker both refuse it as not adapted
        path = write_doc(tmp_path, checker, NON_ADAPTED[checker](tmp_path))
        for name in (checker, "saddle"):
            code, report = run(["check", path, "--checker", name])
            assert (code, report["certificate"]["verdict"], report["certificate"]["reason"]) \
                == (cli.EXIT_CHECK_FAIL, "fail", "candidate decision is not adapted")

    def test_dual_engine_failure_is_a_status(self, monkeypatch, tmp_path):
        problem, _, params, _, _ = parse_problem_file(abs_generic_file(tmp_path)[0])
        primal = solve_primal(problem, params["u"])
        # the inner solve pricing y stops at the active-set loop's iteration cap
        monkeypatch.setattr(solver, "solve_qp", functools.partial(qp.solve_qp, max_iter=0))
        dual = solve_dual(problem, params["u"], primal=primal)
        assert (dual.status, dual.optimizer) == ("max-iter", None)


def starved(monkeypatch, fn):
    """``fn`` with every LP and every phase 1 it runs made to give up: the
    engine they look up, ``qp.solve_qp``, stops at once."""
    def call(*args):
        with monkeypatch.context() as m:
            m.setattr(qp, "solve_qp", functools.partial(qp.solve_qp, max_iter=0))
            return fn(*args)
    return call


def abs_generic_file(tmp_path):
    """|x_0| + |u| on two leaves, whose dual objective and annihilator
    bound are QPs with epigraph rows.  Returns the path and the document."""
    doc = {
        "tree": {"probabilities": [0.5, 0.5], "partitions": [[[0, 1]], [[0], [1]]]},
        "model": {"family": "generic", "x_dims": [1, 0], "u_dims": [0, 1],
                  "functions": [{"kind": "separable",
                                 "parts": [{"kind": "abs"}, {"kind": "abs"}]}]},
        "parameters": {"u": [0, [1.0, -0.5]]},
    }
    path = tmp_path / "abs-generic.json"
    path.write_text(json.dumps(doc))
    return str(path), doc
