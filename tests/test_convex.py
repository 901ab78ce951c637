"""Convex catalog: evaluation, conjugation, residuals, support functions."""

import numpy as np
import pytest

from stochdual.convex import (
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
    argmax_support,
    domain_polyhedron,
    fenchel_residual,
    grid_conjugate_oracle,
    indicator_interval,
    indicator_nonneg,
    indicator_nonpos,
    indicator_point,
    infeasible,
    support_attains,
    support_function,
)
from stochdual.solver import CompiledObjective, _minimize, _newton_step, _Term

from helpers import (
    CATALOG_SAMPLES,
    random_composite_function,
    random_scalar_function,
    reference_value,
    same_bits,
    subgradient,
)

INF = float("inf")

# the four-generator solvency cone used throughout: cone{(1,-2),(-1,1/2),(-1,0),(0,-1)}
CONE_GENERATORS = np.array([[1.0, -2.0], [-1.0, 0.5], [-1.0, 0.0], [0.0, -1.0]])


def cone_support_oracle(generators, y):
    """Support of a finitely generated cone: 0 if y.g <= 0 for every
    generator, +inf otherwise."""
    return 0.0 if np.all(generators @ np.asarray(y) <= 1e-12) else INF


class TestEvaluate:
    def test_absolute_value(self):
        assert absolute_value().value([3.0]) == 3.0

    def test_indicator_infeasible_point(self):
        g = PolyhedralIndicator(Polyhedron(a_ub=[[1.0]], b_ub=[0.0]))
        assert g.value([1.0]) == INF
        assert g.value([-0.5]) == 0.0

    def test_half_square(self):
        assert Quadratic([0.5]).value([2.0]) == pytest.approx(2.0)

    @pytest.mark.parametrize("fn", [Entropy(1.3, 0.2, 0.1), Exponential(0.7, 1.3, -0.2),
                                    Quadratic([0.5], [0.3], -1.0),
                                    Quadratic([0.5, 2.0, 0.0], [0.3, 0.0, -1.0], 0.2),
                                    AffinePrecomposition(
                                        Quadratic([0.5, 2.0, 1.0], [0.3, 0.0, -1.0]),
                                        [[1.0, -2.0, 0.5], [0.3, 1.1, -0.7], [2.0, 0.1, 0.4]],
                                        [0.2, -0.1, 0.05]),
                                    Affine([0.3, -1.7, 2.9], 0.4),
                                    PiecewiseLinear([-1.0, 2.0], [-2.0, 0.5, 3.0], lo=-3.0,
                                                    anchor=(0.5, 1.0)),
                                    PolyhedralIndicator(Polyhedron(
                                        a_ub=[[1.0, 2.0]], b_ub=[1.0], a_eq=[[1.0, -1.0]],
                                        b_eq=[0.5])),
                                    SeparableSum([Entropy(), absolute_value(), Quadratic([0.5])]),
                                    FiniteSum([indicator_nonneg(), Exponential(),
                                               Affine([0.0], 0.3)]),
                                    AffinePrecomposition(
                                        SeparableSum([indicator_interval(-1.0, 1.0),
                                                      Quadratic([1.0])]),
                                        [[1.0, 2.0], [0.5, -1.0]], [0.1, 0.0]),
                                    Affine(np.zeros(0), 0.4), infeasible(0),
                                    SeparableSum([Quadratic([0.5]), absolute_value()]).fix(
                                        [0, 1], [1.5, -2.0])],
                             ids=["entropy", "exponential", "quadratic", "quadratic-3d",
                                  "precomposition", "affine", "pwl", "polyhedral",
                                  "separable", "finite-sum", "precomposed-separable",
                                  "affine-0d", "infeasible-0d", "fixed-0d"])
    def test_value_many_is_value_bit_for_bit(self, fn):
        # value_many against the scalar rule of each kind (the reference),
        # in one call of any number of rows, row by row and through
        # ``value``: points inside and off the domain, on its ends and in
        # its tolerance band, NaN, and +-inf, which may make inf - inf
        rng = np.random.default_rng(0)
        special = [0.0, -0.0, 1e-10, -5e-10, -2e-9, 1.000000001, 1000.0, np.nan]

        def points(values):
            d = fn.dim
            if d == 0:
                return np.zeros((3, 0))
            return np.vstack([np.repeat(np.array(values)[:, None], d, axis=1),
                              rng.choice(values, size=(20, d))])

        for X, invalid in ((np.vstack([rng.normal(size=(60, fn.dim)) * 3, points(special)]),
                            "raise"),
                           (points([np.inf, -np.inf, 1.0, np.nan]), "ignore")):
            with np.errstate(invalid="ignore"):
                want = [reference_value(fn, x) for x in X]
            with np.errstate(invalid=invalid):
                assert same_bits(fn.value_many(X), want)
                assert same_bits([fn.value_many(x[None])[0] for x in X], want)
                assert same_bits([fn.value(x) for x in X], want)

    def test_exponential_overflow_reads_inf(self):
        # without a RuntimeWarning, which the suite turns into an error
        assert same_bits(Exponential().value_many([[1000.0], [0.0]]), [INF, 1.0])
        assert Exponential().value([1000.0]) == INF

    def test_polyhedral_indicator_reads_each_row_within_the_tolerance(self):
        # a.x <= b + FEAS_TOL row by row: x = 1.000000001 lies in {x <= 1},
        # though its residual x - 1 = 1.00000008e-09 exceeds FEAS_TOL; a NaN
        # point lies outside
        g = PolyhedralIndicator(Polyhedron(a_ub=[[1.0]], b_ub=[1.0]))
        assert g.polyhedron.residual([1.000000001]) > 1e-9
        assert same_bits(g.value_many([[1.000000001], [1.000000002], [np.nan]]), [0.0, INF, INF])
        assert g.value([1.000000001]) == 0.0
        point = PolyhedralIndicator(Polyhedron(a_eq=[[1.0, -1.0]], b_eq=[0.5]))
        assert same_bits(point.value_many([[1.5, 1.0], [1.5, 1.0 - 1e-8], [np.nan, 1.0]]),
                         [0.0, INF, INF])

    def test_dimension_mismatch(self):
        with pytest.raises(Exception):
            Quadratic([0.5, 0.5]).value([1.0])


class TestConjugatePairs:
    def test_half_square_self_conjugate(self):
        g = Quadratic([0.5])
        gs = g.conjugate()
        for y in np.linspace(-4, 4, 17):
            assert gs.value([y]) == pytest.approx(0.5 * y * y, abs=1e-12)

    def test_nonpos_indicator_to_nonneg(self):
        gs = indicator_nonpos().conjugate()
        assert gs.value([2.0]) == 0.0
        assert gs.value([-1.0]) == INF

    def test_abs_to_unit_interval_indicator(self):
        gs = absolute_value().conjugate()
        assert gs.value([0.5]) == 0.0
        assert gs.value([1.0]) == 0.0
        assert gs.value([1.5]) == INF

    def test_entropy_exponential_pair(self):
        ent = Entropy()
        exp = ent.conjugate()
        for y in np.linspace(-2, 2, 9):
            assert exp.value([y]) == pytest.approx(np.exp(y), rel=1e-12)
        back = exp.conjugate()
        for x in [0.0, 0.5, 1.0, 3.0]:
            assert back.value([x]) == pytest.approx(ent.value([x]), abs=1e-10)

    def test_polyhedral_to_support(self):
        P = Polyhedron(a_ub=[[1.0, 0.0], [0.0, 1.0]], b_ub=[1.0, 2.0])
        sigma = PolyhedralIndicator(P).conjugate()
        assert isinstance(sigma, SupportFunction)
        assert sigma.value([1.0, 1.0]) == pytest.approx(3.0)
        assert PolyhedralIndicator(P).value([0.0, 0.0]) == sigma.conjugate().value([0.0, 0.0])


class TestFenchelResidual:
    def test_gradient_point(self):
        assert fenchel_residual(Quadratic([0.5]), [2.0], [2.0]) == pytest.approx(0.0, abs=1e-12)

    def test_non_gradient_point(self):
        assert fenchel_residual(Quadratic([0.5]), [2.0], [0.0]) == pytest.approx(2.0)

    def test_subgradient_at_kink(self):
        assert fenchel_residual(absolute_value(), [0.0], [0.5]) == pytest.approx(0.0)

    def test_infinite_term_dominates(self):
        g = indicator_nonpos()
        assert fenchel_residual(g, [1.0], [0.0]) == INF

    def test_fenchel_young_many_random(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            g = random_scalar_function(rng)
            x = rng.uniform(-4, 4, 1)
            v = rng.uniform(-4, 4, 1)
            assert fenchel_residual(g, x, v) >= -1e-9

    def test_monotone_subdifferential(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            g = random_scalar_function(rng)
            x1, x2 = np.sort(rng.uniform(-2, 2, 2))
            if x2 - x1 < 1e-6 or not np.isfinite(g.value([x1]) + g.value([x2])):
                continue
            v1, v2 = subgradient(g, [x1]), subgradient(g, [x2])
            # only keep residual-certified subgradients
            if fenchel_residual(g, [x1], v1) > 1e-9 or fenchel_residual(g, [x2], v2) > 1e-9:
                continue
            assert v1[0] <= v2[0] + 1e-9


class TestSupportFunctions:
    def test_cone_from_generators_matches_oracle(self):
        C = Polyhedron.from_cone_generators(CONE_GENERATORS)
        rng = np.random.default_rng(33)
        for _ in range(200):
            y = rng.uniform(-2, 2, 2)
            assert support_function(C, y) == pytest.approx(
                cone_support_oracle(CONE_GENERATORS, y), abs=1e-9
            )

    def test_cone_example_values(self):
        C = Polyhedron.from_cone_generators(CONE_GENERATORS)
        assert support_function(C, [1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)
        assert support_function(C, [3.0, 1.0]) == INF

    def test_box_support(self):
        P = Polyhedron(a_ub=np.eye(2), b_ub=[2.0, 3.0])
        y = np.array([1.0, 2.0])
        assert support_function(P, y) == pytest.approx(8.0)

    def test_argmax_on_cone_at_polar_point(self):
        C = Polyhedron.from_cone_generators(CONE_GENERATORS)
        rep = support_attains(C, [1.0, 1.0], [0.0, 0.0])
        assert rep.ok

    def test_argmax_vertex(self):
        P = Polyhedron(a_ub=np.eye(2), b_ub=[1.0, 1.0])
        z = argmax_support(P, [1.0, 2.0])
        np.testing.assert_allclose(z, [1.0, 1.0], atol=1e-8)

    def test_membership_rejects_suboptimal_point(self):
        C = Polyhedron.from_cone_generators(CONE_GENERATORS)
        rep = support_attains(C, [1.0, 1.0], [1.0, -2.0])
        assert not rep.ok
        assert rep.residual == pytest.approx(1.0)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(34)
        P = Polyhedron(a_ub=[[1, 1], [1, -1], [-1, 0]], b_ub=[2, 1, 1])
        for _ in range(50):
            y = rng.normal(size=2)
            lam = rng.uniform(0.1, 5)
            s1 = support_function(P, y)
            s2 = support_function(P, lam * y)
            if np.isfinite(s1):
                assert s2 == pytest.approx(lam * s1, abs=1e-9)
            else:
                assert s2 == INF

    def test_empty_polyhedron_raises(self):
        P = Polyhedron(a_ub=[[1.0], [-1.0]], b_ub=[-1.0, -1.0])
        with pytest.raises(ValueError, match="infeasible"):
            support_function(P, [1.0])

    def test_generators_around_the_origin_span_the_plane(self):
        # no gap between the rays' angles exceeds pi: the cone is R^2, a
        # cone with no rows, whose support function is 0 only at y = 0
        C = Polyhedron.from_cone_generators([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        assert C.cone and (C.a_ub.shape, C.a_eq.shape) == ((0, 2), (0, 2))
        assert support_function(C, [0.0, 0.0]) == 0.0
        assert support_function(C, [1.0, -0.5]) == INF

    def test_generator_cone_d3_rejected(self):
        with pytest.raises(NotImplementedError):
            Polyhedron.from_cone_generators(np.eye(3))


class TestGridOracle:
    def test_half_square(self):
        oracle = grid_conjugate_oracle(Quadratic([0.5]))
        assert oracle.value([1.0]) == pytest.approx(0.5, abs=1e-3)

    def test_abs_interior(self):
        oracle = grid_conjugate_oracle(absolute_value())
        assert oracle.value([0.5]) == pytest.approx(0.0, abs=1e-3)
        assert not oracle.boundary_active([0.5])

    def test_abs_outside_domain_flags_boundary(self):
        oracle = grid_conjugate_oracle(absolute_value())
        assert oracle.value([2.0]) == pytest.approx(10.0, abs=1e-2)
        assert oracle.boundary_active([2.0])


class TestConjugateAgainstOracle:
    @pytest.mark.parametrize("g", CATALOG_SAMPLES, ids=lambda g: repr(g)[:40])
    def test_matches_grid(self, g):
        oracle = grid_conjugate_oracle(g, step=0.005)
        gs = g.conjugate()
        for v in np.linspace(-3, 3, 25):
            if oracle.boundary_active([v]):
                continue
            assert gs.value([v]) == pytest.approx(oracle.value([v]), abs=1e-2)

    @pytest.mark.parametrize("g", CATALOG_SAMPLES, ids=lambda g: repr(g)[:40])
    def test_biconjugation(self, g):
        gss = g.conjugate().conjugate()
        for x in np.linspace(-4, 4, 33):
            a, b = g.value([x]), gss.value([x])
            if a == INF or b == INF:
                assert a == b, f"x={x}"
            else:
                assert b == pytest.approx(a, abs=1e-9), f"x={x}"


class TestPiecewiseLinearFuzz:
    def random_pwl(self, rng):
        lo = -INF if rng.random() < 0.5 else float(rng.uniform(-5, -1))
        hi = INF if rng.random() < 0.5 else float(rng.uniform(1, 5))
        k = int(rng.integers(0, 4))
        inner_lo = lo if lo != -INF else -4.0
        inner_hi = hi if hi != INF else 4.0
        breaks = np.sort(rng.uniform(inner_lo + 0.1, inner_hi - 0.1, k))
        breaks = np.unique(np.round(breaks, 6))
        slopes = np.sort(rng.normal(size=breaks.size + 1) * 2)
        slopes = np.round(slopes, 6)
        anchor_x = float(np.clip(0.0, lo, hi))
        return PiecewiseLinear(breaks, slopes, lo=lo, hi=hi,
                               anchor=(anchor_x, float(rng.normal())))

    def test_random_biconjugation_and_oracle(self):
        rng = np.random.default_rng(37)
        for trial in range(100):
            g = self.random_pwl(rng)
            gss = g.conjugate().conjugate()
            for x in rng.uniform(-6, 6, 8):
                a, b = g.value([x]), gss.value([x])
                if a == INF or b == INF:
                    assert a == b, f"trial {trial}, x={x}"
                else:
                    assert b == pytest.approx(a, abs=1e-9), f"trial {trial}, x={x}"

    def test_value_many_is_value_bit_for_bit(self):
        # breaks on both sides of an off-centre anchor, scaled copies and
        # bounded domains; the points hit the breaks, the anchor, the domain
        # ends and their tolerance band, and lie outside it
        rng = np.random.default_rng(0)
        for trial in range(200):
            g = self.random_pwl(rng)
            lo, hi = max(g.lo, -4.0), min(g.hi, 4.0)
            anchor = float(rng.uniform(lo, hi))
            g = PiecewiseLinear(g.breaks, g.slopes, g.lo, g.hi,
                                anchor=(anchor, float(rng.normal())))
            if trial % 2:
                g = g.scaled(float(rng.uniform(0.1, 3.0)))
            X = np.concatenate([rng.uniform(-6, 6, 40), g.breaks, [anchor, np.nan, INF, -INF],
                                [e + d for e in (g.lo, g.hi) if abs(e) != INF
                                 for d in (-2e-9, -5e-10, 0.0, 5e-10, 2e-9)]])
            with np.errstate(invalid="ignore"):  # a zero slope times an infinite piece
                want = np.array([reference_value(g, [x]) for x in X])
                assert same_bits(g.value_many(X[:, None]), want), f"trial {trial}"
                assert same_bits([g.value([x]) for x in X], want), f"trial {trial}"

    def test_random_conjugates_match_grid(self):
        # the grid under-estimates by up to step * |v - nearest slope|, so
        # the tolerance scales with the slope range; exactness is covered by
        # the 1e-9 biconjugation sweep above
        rng = np.random.default_rng(38)
        for trial in range(25):
            g = self.random_pwl(rng)
            oracle = grid_conjugate_oracle(g, step=0.005)
            gs = g.conjugate()
            for v in rng.uniform(-2.5, 2.5, 6):
                if oracle.boundary_active([v]):
                    continue
                slack = 0.005 * (2.5 + float(np.max(np.abs(g.slopes)))) + 1e-9
                assert gs.value([v]) == pytest.approx(
                    oracle.value([v]), abs=slack), f"trial {trial}"
                assert gs.value([v]) >= oracle.value([v]) - 1e-9, f"trial {trial}"


class TestCombinators:
    def test_separable_sum_conjugate(self):
        g = SeparableSum([Quadratic([0.5]), absolute_value()])
        gs = g.conjugate()
        assert gs.value([1.0, 0.5]) == pytest.approx(0.5)
        assert gs.value([1.0, 2.0]) == INF

    def test_affine_precomposition_invertible(self):
        rng = np.random.default_rng(35)
        M = np.array([[2.0, 1.0], [0.0, 1.0]])
        m = np.array([0.3, -0.2])
        g = AffinePrecomposition(Quadratic([0.5, 1.0]), M, m)
        gs = g.conjugate()
        oracle = grid_conjugate_oracle(g, lo=-8, hi=8, step=0.02)
        for _ in range(20):
            y = rng.uniform(-1.5, 1.5, 2)
            if oracle.boundary_active(y):
                continue
            assert gs.value(y) == pytest.approx(oracle.value(y), abs=5e-2)

    def test_affine_precomposition_fat_matrix(self):
        # f(x, u) = 1/2 (x - u)^2: conjugate finite only on v + y = 0
        g = AffinePrecomposition(Quadratic([0.5]), np.array([[1.0, -1.0]]))
        gs = g.conjugate()
        assert gs.value([1.0, -1.0]) == pytest.approx(0.5)
        assert gs.value([1.0, 1.0]) == INF

    def test_finite_sum_absorbs_affine(self):
        g = FiniteSum([Quadratic([0.5]), Affine([1.0], 2.0)])
        gs = g.conjugate()
        # (x^2/2 + x + 2)* = (y-1)^2/2 - 2
        for y in np.linspace(-3, 3, 13):
            assert gs.value([y]) == pytest.approx(0.5 * (y - 1) ** 2 - 2.0, abs=1e-10)

    def test_finite_sum_merges_quadratics(self):
        g = FiniteSum([Quadratic([0.5]), Quadratic([0.5]), Affine([0.0], 1.0)])
        gs = g.conjugate()
        for y in np.linspace(-3, 3, 13):
            assert gs.value([y]) == pytest.approx(y * y / 4.0 - 1.0, abs=1e-10)

    def test_general_sum_has_no_closed_form(self):
        g = FiniteSum([absolute_value(), Entropy()])
        with pytest.raises(NoClosedFormError):
            g.conjugate()

    def test_composite_biconjugation(self):
        rng = np.random.default_rng(36)
        for _ in range(30):
            g = random_composite_function(rng)
            gss = g.conjugate().conjugate()
            for _ in range(5):
                x = rng.uniform(-2, 2, g.dim)
                a, b = g.value(x), gss.value(x)
                if np.isfinite(a):
                    assert b == pytest.approx(a, abs=1e-8)

    def test_fix_freezes_coordinates(self):
        g = SeparableSum([Quadratic([0.5]), absolute_value(), Affine([2.0], 0.0)])
        h = g.fix([1], [3.0])  # freeze the abs coordinate at 3
        assert h.dim == 2
        assert h.value([2.0, 1.0]) == pytest.approx(0.5 * 4 + 3.0 + 2.0)

    def test_fix_on_precomposition(self):
        g = AffinePrecomposition(Quadratic([0.5]), np.array([[1.0, -1.0]]))
        h = g.fix([1], [2.0])  # u = 2: h(x) = (x-2)^2/2
        assert h.value([5.0]) == pytest.approx(4.5)

    def test_scaled(self):
        g = absolute_value().scaled(2.0)
        assert g.value([-3.0]) == pytest.approx(6.0)
        gs = g.conjugate()
        assert gs.value([1.5]) == 0.0
        assert gs.value([2.5]) == INF


class TestQPForms:
    def test_quadratic_form(self):
        f = Quadratic([0.5, 1.0], [1.0, 0.0], 2.0).qp_form()
        x = np.array([1.0, -2.0])
        val = 0.5 * x @ f.P @ x + f.q @ x + f.c
        assert val == pytest.approx(Quadratic([0.5, 1.0], [1.0, 0.0], 2.0).value(x))

    def test_indicator_rows(self):
        P = Polyhedron(a_ub=[[1.0, 1.0]], b_ub=[1.0], a_eq=[[1.0, -1.0]], b_eq=[0.0])
        f = PolyhedralIndicator(P).qp_form()
        assert f.G.shape == (1, 2)
        assert f.A.shape == (1, 2)

    def test_kinked_pwl_ships_epigraph_atom(self):
        form = absolute_value().qp_form()
        assert form.G.shape[0] == 0
        assert len(form.epi) == 1
        lines = form.epi[0][2].supporting_lines()
        assert sorted(s for s, _ in lines) == [-1.0, 1.0]

    def test_composition(self):
        g = AffinePrecomposition(Quadratic([0.5]), np.array([[1.0, -1.0]]), [0.5])
        f = g.qp_form()
        for _ in range(5):
            x = np.random.default_rng(1).uniform(-2, 2, 2)
            val = 0.5 * x @ f.P @ x + f.q @ x + f.c
            assert val == pytest.approx(g.value(x), abs=1e-12)


def _derivatives(fn, z, h=1e-4):
    """Value, central-difference gradient and Hessian of fn at z."""
    z = np.asarray(z, dtype=float)
    n, e = z.size, np.eye(z.size) * h
    grad = np.array([(fn.value(z + e[i]) - fn.value(z - e[i])) / (2 * h) for i in range(n)])
    hess = np.array([[(fn.value(z + e[i] + e[j]) - fn.value(z + e[i] - e[j])
                       - fn.value(z - e[i] + e[j]) + fn.value(z - e[i] - e[j])) / (4 * h * h)
                      for j in range(n)] for i in range(n)])
    return fn.value(z), grad, hess


class TestQuadraticModel:
    """The model a Newton step takes of a function: each smooth atom's
    Taylor reading, lowered with the rest of the function's form."""

    SMOOTH = {
        "exponential": (Exponential(2.0, 0.5, 1.0), [-1.5, 0.0, 2.0]),
        "entropy": (Entropy(1.5, -0.3, 0.2), [0.05, 1.0, 3.0]),
    }
    COMPOSITE = {
        "separable": (SeparableSum([Exponential(1.0, 2.0), Quadratic([0.5], [1.0])]),
                      [0.3, -1.0]),
        "precomposition": (AffinePrecomposition(Exponential(0.5, 1.0),
                                                np.array([[1.0, -2.0]]), [0.25]),
                           [0.4, 0.1]),
        "sum": (FiniteSum([Exponential(1.0, 1.0), Entropy(2.0, 0.5)]), [0.7]),
    }

    @staticmethod
    def step(fn, z):
        """The compiled objective of fn alone, and the (P, q, c, G, h) of
        its Newton step at z, in the step d."""
        obj = CompiledObjective(fn.dim, [_Term(1.0, fn, np.arange(fn.dim), 0)])
        (P, q, c, G, h, *_), _ = _newton_step(obj, obj.qp_data(), np.asarray(z, dtype=float))
        return obj, P, q, c, G, h

    @pytest.mark.parametrize("kind, i", [(k, i) for k in SMOOTH for i in range(3)])
    def test_smooth_kind_agrees_to_second_order(self, kind, i):
        fn, points = self.SMOOTH[kind]
        z = [points[i]]
        (row, off, atom), = fn.qp_form().epi
        assert atom is fn and same_bits(row, [1.0]) and off == 0.0
        value, slope, curv = fn.taylor(np.array(z))
        vf, gf, hf = _derivatives(fn, z)
        assert value[0] == pytest.approx(vf, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(slope, gf, rtol=1e-6)
        np.testing.assert_allclose(curv, hf[0], rtol=1e-3)

    @pytest.mark.parametrize("kind", sorted(COMPOSITE))
    def test_combinators_pass_the_model_to_their_parts(self, kind):
        fn, z = self.COMPOSITE[kind]
        obj, P, q, c, _, _ = self.step(fn, z)
        assert obj._lowering.smooth
        vf, gf, hf = _derivatives(obj, z)
        n = fn.dim
        assert c == pytest.approx(vf, rel=1e-12)
        np.testing.assert_allclose(q[:n], gf, rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(P[:n, :n], hf, rtol=1e-3, atol=1e-5)

    def test_entropy_model_keeps_the_domain_and_floors_z(self):
        # at z = 0 the curvature c/z is infinite: the model is taken at 1e-8
        # and read at 0; the step keeps x + d >= 0
        fn = Entropy(1.0)
        value, slope, curv = fn.taylor(np.array([0.0, 1e-8]))
        assert curv[0] == curv[1] == pytest.approx(1e8, rel=1e-12)
        assert value[1] == pytest.approx(fn.value([1e-8]), abs=1e-15)
        assert slope[0] == pytest.approx(slope[1] - 1.0, rel=1e-12)
        assert value[0] == pytest.approx(value[1] - 1e-8 * slope[1] + 0.5e-8, abs=1e-15)
        _, P, q, c, G, h = self.step(fn, [0.0])
        assert (P[0, 0], q[0], c) == (curv[0], slope[0], value[0])
        assert same_bits(G, [[-1.0]]) and same_bits(h, [0.0])
        dom = domain_polyhedron(fn)
        assert not dom.contains([-1e-3]) and dom.contains([0.0])

    @pytest.mark.parametrize("fn", [Quadratic([0.5, 2.0], [1.0, -1.0]), absolute_value(),
                                    indicator_interval(-1.0, 2.0), Affine([1.0, -3.0], 0.5),
                                    PolyhedralIndicator(Polyhedron(a_ub=[[1.0, 1.0]],
                                                                   b_ub=[1.0]))],
                             ids=["quadratic", "abs", "interval", "affine", "polyhedral"])
    def test_qp_kind_is_its_own_model(self, fn):
        # no smooth atom: the lowering is solved as it is, and a step would
        # only shift it to d
        z = np.linspace(0.25, -0.5, fn.dim)
        obj, P, q, c, G, h = self.step(fn, z)
        P0, q0, c0, G0, h0, *_ = obj.qp_data()
        n = fn.dim
        assert not obj._lowering.smooth
        assert same_bits(P, P0) and same_bits(G, G0)
        assert same_bits(q[:n], P0[:n, :n] @ z + q0[:n]) and same_bits(q[n:], q0[n:])
        assert c == c0 + q0[:n] @ z + 0.5 * z @ P0[:n, :n] @ z
        assert same_bits(h, h0 - G0[:, :n] @ z)

    def test_support_function_has_no_model(self):
        box = Polyhedron(a_ub=[[1.0], [-1.0]], b_ub=[1.0, 1.0])
        fn = SeparableSum([Exponential(), SupportFunction(box)])
        with pytest.raises(NoClosedFormError, match="no QP form"):
            fn.qp_form()
        assert domain_polyhedron(fn) is None
        obj = CompiledObjective(2, [_Term(1.0, fn, np.arange(2), 0)])
        with pytest.raises(NoClosedFormError, match="no QP form"):
            obj.qp_data()
        with pytest.raises(NoClosedFormError, match="no QP form"):
            _minimize(obj)


class TestDomains:
    """dom f read off the QP form."""

    @staticmethod
    def random_function(rng, dim=2):
        def scalar():
            if rng.random() < 0.7:
                return random_scalar_function(rng)
            return CATALOG_SAMPLES[int(rng.integers(len(CATALOG_SAMPLES)))]

        def precomposed():
            return AffinePrecomposition(scalar(), rng.normal(size=(1, dim)), rng.normal(size=1))

        roll = rng.integers(0, 4)
        if roll == 0:
            return SeparableSum([scalar() for _ in range(dim)])
        if roll == 1:
            return precomposed()
        if roll == 2:
            return FiniteSum([precomposed(), precomposed()])
        return random_composite_function(rng, dim)

    def test_domain_agrees_with_finiteness(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            fn = self.random_function(rng)
            dom = domain_polyhedron(fn)
            assert dom is not None and dom.dim == fn.dim
            X = 3.0 * rng.normal(size=(40, fn.dim))
            assert [dom.contains(x) for x in X] == [fn.value(x) < INF for x in X]

    def test_scalar_domains_at_their_ends(self):
        for fn in CATALOG_SAMPLES:
            dom = domain_polyhedron(fn)
            lo, hi = (fn.lo, fn.hi) if isinstance(fn, PiecewiseLinear) else (-INF, INF)
            if isinstance(fn, Entropy):
                lo = 0.0
            for x in (lo, hi, lo - 1e-3, hi + 1e-3, 0.0):
                if np.isfinite(x):
                    assert dom.contains([x]) == (fn.value([x]) < INF)

    def test_overflowing_model_is_read_for_its_rows_only(self):
        # e^(x + 800) overflows near 0, but its form is one atom with no
        # domain rows: only the indicator's row counts
        fn = FiniteSum([AffinePrecomposition(Exponential(), [[1.0, 0.0]], [800.0]),
                        AffinePrecomposition(indicator_nonpos(), [[0.0, 1.0]], [-1.0])])
        dom = domain_polyhedron(fn)
        assert dom.a_eq.shape[0] == 0 and same_bits(dom.a_ub, [[0.0, 1.0]])
        assert same_bits(dom.b_ub, [1.0])

    @pytest.mark.parametrize("fn", [
        SeparableSum([Quadratic([1.0]), SupportFunction(Polyhedron(a_ub=[[1.0]], b_ub=[1.0]))]),
        FiniteSum([Entropy(), AffinePrecomposition(
            SupportFunction(Polyhedron(a_ub=[[1.0], [-1.0]], b_ub=[1.0, 1.0])), [[2.0]])]),
    ], ids=["separable", "sum"])
    def test_support_function_part_has_no_domain(self, fn):
        assert domain_polyhedron(fn) is None

    def test_rowless_set_is_not_empty_without_an_lp(self, monkeypatch):
        monkeypatch.setattr(Polyhedron, "feasible_point", lambda self: pytest.fail("LP"))
        assert not domain_polyhedron(SeparableSum([Quadratic([1.0]), Exponential()])).is_empty()
        assert not Polyhedron(a_ub=np.zeros((0, 3)), b_ub=np.zeros(0)).is_empty()
