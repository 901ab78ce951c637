"""Problem files, command dispatch, exit codes and report determinism."""

import dataclasses
import functools
import json

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
from stochdual.solver import AdaptedLayout, SolverConfig, solve_dual, solve_primal

from helpers import bolza_doc, hedging_file, write_doc

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
                                            ("max_iter", 0), ("tol", "1e-3"), ("tol", -1),
                                            ("tol", 0), ("tol", float("inf")), ("tol", float("nan"))])
    def test_bad_solver_setting_is_a_usage_error(self, tmp_path, key, value):
        # a setting the solver does not read is refused, not ignored, and so
        # is a value of the wrong type or out of range: max_iter is an int
        # >= 1, tol a finite number > 0
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
                                             ("--tol", "0"), ("--max-iter", "-3"),
                                             ("--max-iter", "0")])
    def test_bad_solver_flag_is_a_usage_error(self, flag, value):
        # the flags take the file's ranges; a bad one is named as --checker is
        code, report = run(["report", fixture_path("binomial-alm.json"), flag, value])
        assert (code, report["field"]) == (cli.EXIT_USAGE, flag)

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
                                       ["--step-constant", "0.5"]])
    def test_engine_flags_are_usage_errors(self, flags):
        # the objective picks the engine: there is no flag to choose it
        assert run(["solve", fixture_path("binomial-alm.json"), *flags]) == \
            (cli.EXIT_USAGE, {"error": "usage"})

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
        inner = solver._minimize(solver._lagrangian_objective(problem, dual.optimizer)[1],
                                 SolverConfig())
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
        shared = solve_dual(problem, u, cfg, solve_primal(problem, u, cfg))
        assert (alone.status, alone.method, alone.value, alone.iterations) == \
               (shared.status, shared.method, shared.value, shared.iterations)
        np.testing.assert_array_equal(alone.optimizer.to_vector(),
                                      shared.optimizer.to_vector())
        assert alone.objective.value == shared.objective.value


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

    def test_infinite_gap_with_finite_primal_exits_non_zero(self, monkeypatch):
        # no y is read off the primal: the dual is missing, and the gap is
        # infinite although the primal is not
        monkeypatch.setattr(solver, "_recover_dual_candidate", lambda *a: None)
        for command in ("gap", "dualize"):
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
        # the v read off its inner solve fails the certificate, and the
        # fallback's solve stops at the active-set loop's iteration cap,
        # inside the bound only
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
        assert statuses and set(statuses) == {"max-iter"}
        assert report["dual_representation"]["annihilator_bound"] is None
        # the saddle check takes the fallback's last point, v = 0, which is
        # this problem's v
        assert (code, report["certificate"]["verdict"]) == (0, "pass")
        statuses.clear()
        doc["parameters"]["candidate"] = {"y": [0, [1.0, -1.0]]}
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code, report = run(["check", path])
        assert statuses == ["max-iter"]
        assert report["certificate"]["verdict"] in ("pass", "fail")

    def test_bound_phase_one_failure_is_a_status(self, monkeypatch):
        # as above, with the fallback's phase 1 made to give up: its rows
        # include the domain rows of the pwl cost's stage conjugates, which
        # hold no epigraph column and which v = 0 violates, so its phase 1
        # runs the elastic LP
        path = fixture_path("bolza-pwl.json")
        bound = solver.dual_via_orthocomplement
        statuses = []

        def starved(problem, y, cfg, objective):
            objective = dataclasses.replace(objective, value=objective.value + 1.0)
            with monkeypatch.context() as m:
                m.setattr(qp, "solve_qp", functools.partial(qp.solve_qp, max_iter=0))
                res = bound(problem, y, cfg, objective)
            statuses.append(res.status)
            return res

        monkeypatch.setattr(cli, "dual_via_orthocomplement", starved)
        code, report = run(["report", path])
        assert statuses == ["max-iter"]
        assert report["dual_representation"]["annihilator_bound"] is None
        # the Euler-Lagrange checker needs no v
        assert (code, report["certificate"]["verdict"]) == (0, "pass")
        statuses.clear()
        # the saddle check falls back to v = 0
        code, report = run(["check", path, "--checker", "saddle"])
        assert statuses == ["max-iter"]
        assert report["certificate"]["verdict"] in ("pass", "fail")

    def test_engine_failure_in_every_lp_is_a_status(self, monkeypatch):
        # every LP of the run, and every phase 1, gives up.  On
        # bolza-pwl.json the primal, the dual and the bound need none, but
        # whether a stage's slices are all empty is an LP over dom K*: the
        # lower variant is null
        monkeypatch.setattr(qp, "solve_qp", functools.partial(qp.solve_qp, max_iter=0))
        path = fixture_path("bolza-pwl.json")
        code, report = run(["report", path])
        rep = report["dual_representation"]
        assert report["dual"]["status"] == "optimal"
        assert rep["conjugate_lower_variant"] is None
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

    def test_non_adapted_candidate_defaults_to_the_saddle_checker(self, tmp_path):
        # adapted u, and a candidate y that is not: the saddle checker runs
        # on the candidate, which is not the optimal dual
        doc = bolza_doc(2, {"kind": "abs"}, np.random.default_rng(0))
        doc["parameters"]["candidate"] = {"y": [[[0.5]] * 4, [[0.1], [0.2], [0.3], [0.4]],
                                                [[0.5]] * 4]}
        code, report = run(["check", write_doc(tmp_path, "bolza-candidate", doc)])
        assert report["checker"] == "saddle"
        assert (code, report["certificate"]["verdict"]) == (cli.EXIT_CHECK_FAIL, "fail")

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
