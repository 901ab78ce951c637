"""Lagrangians, pointwise conjugates and Hamiltonians against grid oracles."""

from functools import partial

import numpy as np
import pytest

from stochdual import solver
from stochdual.convex import (
    Affine,
    AffinePrecomposition,
    Entropy,
    Exponential,
    FiniteSum,
    NoClosedFormError,
    PiecewiseLinear,
    Polyhedron,
    Quadratic,
    SeparableSum,
    absolute_value,
    indicator_interval,
    indicator_nonneg,
    support_function,
)
from stochdual.integrand import (
    MINUS_INF,
    AlmIntegrand,
    BolzaIntegrand,
    BolzaStage,
    ConstrainedIntegrand,
    GenericIntegrand,
    KabanovStage,
    _affine_slices,
    partial_infimum,
)
from stochdual.solver import dual_objective
from stochdual.tree import ScenarioTree, StochasticProcess

from helpers import (
    HEDGING_DISUTILITIES,
    binary_hedging,
    binary_prices,
    conjugate_function_of_a,
    hbar_function_of_x,
    joint_function,
    lower_lagrangians,
    per_leaf_conjugate_values,
    precomposition_lagrangian_per_leaf,
    same_bits,
    stage_hamiltonian,
)

INF = float("inf")


def at_one_leaf(rule, *rows):
    """A stacked rule of a one-leaf integrand, read at its one row."""
    return rule(*(np.asarray(r, dtype=float).reshape(1, -1) for r in rows))[0]


def grid_lagrangian_oracle(integrand, x, y, lo=-20.0, hi=20.0, step=0.005):
    """inf over a u-grid of f(x,u) - u.y at a one-leaf integrand
    (one-dimensional parameter only)."""
    us = np.arange(lo, hi + step / 2, step)
    best = INF
    for u in us:
        v = at_one_leaf(integrand.values, x, [u])
        if v < INF:
            best = min(best, v - u * float(np.ravel(y)[0]))
    return best


def single_leaf_alm(delta_s=1.0):
    tree = build_single(2)
    price = StochasticProcess.from_stage_values(tree, [[[1.0]], [[1.0 + delta_s]]])
    return AlmIntegrand(tree, [Quadratic([0.5])], price)


def build_single(stages):
    return ScenarioTree.deterministic(stages)


class TestAlmLagrangian:
    def test_value_matches_display(self):
        f = single_leaf_alm()
        # l(x, y) = -V*(y) - y * x * ds
        assert at_one_leaf(f.lagrangians, [1.0], [1.0]) == pytest.approx(-1.5)

    def test_value_matches_grid(self):
        f = single_leaf_alm()
        oracle = grid_lagrangian_oracle(f, [1.0], [1.0])
        assert at_one_leaf(f.lagrangians, [1.0], [1.0]) == pytest.approx(oracle, abs=1e-4)

    def test_pointwise_conjugate_on_forced_point(self):
        f = single_leaf_alm()
        assert at_one_leaf(f.conjugate_values, [-1.0], [1.0]) == pytest.approx(0.5)

    def test_pointwise_conjugate_off_forced_point(self):
        f = single_leaf_alm()
        assert at_one_leaf(f.conjugate_values, [0.3], [1.0]) == INF

    def test_joint_conjugate_agrees_with_display(self):
        # the generic fat-matrix rule must reproduce the structured form
        f = single_leaf_alm()
        joint = f.joint_function(0).conjugate()
        assert joint.value([-2.0, 2.0]) == pytest.approx(2.0)  # V*(2) = 2
        assert joint.value([-2.0, 1.0]) == INF


class TestConstrainedLagrangian:
    def make(self):
        tree = build_single(1)
        f0 = Quadratic([1.0])          # x^2
        f1 = Affine([-1.0], 1.0)       # 1 - x
        return ConstrainedIntegrand(tree, [1], [f0], [[f1]])

    def test_zero_price_drops_constraints(self):
        f = self.make()
        for x in np.linspace(-2, 2, 9):
            assert at_one_leaf(f.lagrangians, [x], [0.0]) == pytest.approx(x * x)

    def test_negative_price_is_minus_inf(self):
        f = self.make()
        assert at_one_leaf(f.lagrangians, [0.5], [-1.0]) == -INF

    def test_display_for_positive_price(self):
        f = self.make()
        x, y = 0.3, 2.0
        assert at_one_leaf(f.lagrangians, [x], [y]) == pytest.approx(x * x + y * (1 - x))

    def test_matches_grid_oracle(self):
        f = self.make()
        for y in [0.5, 2.0]:
            got = at_one_leaf(f.lagrangians, [0.3], [y])
            oracle = grid_lagrangian_oracle(f, [0.3], [y])
            assert got == pytest.approx(oracle, abs=1e-4)

    def test_pointwise_conjugate_derived_value(self):
        # sup_x { -x^2 - 2(1 - x) } = -1 at x = 1
        f = self.make()
        assert at_one_leaf(f.conjugate_values, [0.0], [2.0]) == pytest.approx(-1.0)

    def test_conjugate_matches_2d_grid(self):
        f = self.make()
        xs = np.arange(-10, 10.001, 0.01)
        for (v, y) in [(0.0, 2.0), (1.0, 0.5), (-0.5, 1.0)]:
            vals = -xs * xs - y * (1 - xs) + v * xs
            assert at_one_leaf(f.conjugate_values, [v], [y]) == pytest.approx(
                vals.max(), abs=1e-3
            )

    def test_value_enforces_feasibility(self):
        f = self.make()
        assert at_one_leaf(f.values, [2.0], [0.0]) == pytest.approx(4.0)
        assert at_one_leaf(f.values, [0.0], [0.0]) == INF  # 1 - 0 + 0 > 0


class TestInfinityPrecedence:
    def test_unslackenable_constraint_beats_negative_price(self):
        # a constraint function with a bounded domain cannot be slackened
        # outside it: the inner infimum is over an empty set, so +inf wins
        from stochdual.convex import indicator_interval

        tree = ScenarioTree.deterministic(1)
        f = ConstrainedIntegrand(tree, [1], [Quadratic([1.0])],
                                 [[indicator_interval(-1.0, 1.0)]])
        assert at_one_leaf(f.lagrangians, [2.0], [-1.0]) == INF
        assert at_one_leaf(f.lagrangians, [0.5], [-1.0]) == -INF

    def test_lower_lagrangian_minus_inf_dominates_across_stages(self):
        # one stage with an empty shifted-conjugate domain empties the whole
        # supremum even when another stage contributes +inf
        stage_quad = BolzaStage(SeparableSum([Quadratic([0.5]), Quadratic([0.5])]), 1)
        # affine velocity cost: dual domain is the single point y = 1
        stage_affine = BolzaStage(
            SeparableSum([Quadratic([0.5]), Affine([1.0], 0.0)]), 1)
        tree = ScenarioTree.deterministic(2)
        f = BolzaIntegrand(tree, [[stage_quad], [stage_affine]])
        x = np.array([0.3, -0.2])
        # y_1 != 1 empties stage 1's conjugate in its first argument slice
        val = at_one_leaf(partial(lower_lagrangians, f), x, np.array([0.0, 0.3]))
        assert val == -INF
        # on the dual domain the two variants coincide
        y_ok = np.array([0.2, 1.0])
        assert at_one_leaf(partial(lower_lagrangians, f), x, y_ok) == pytest.approx(
            at_one_leaf(f.lagrangians, x, y_ok), abs=1e-9)


class TestLowerLagrangian:
    def test_equals_lagrangian_on_closed_instances(self):
        rng = np.random.default_rng(51)
        f = single_leaf_alm()
        for _ in range(100):
            x = rng.uniform(-3, 3, 1)
            y = rng.uniform(-3, 3, 1)
            assert at_one_leaf(partial(lower_lagrangians, f), x, y) == pytest.approx(
                at_one_leaf(f.lagrangians, x, y), abs=1e-8
            )

    def test_alm_value(self):
        f = single_leaf_alm()
        assert at_one_leaf(partial(lower_lagrangians, f), [1.0], [1.0]) == pytest.approx(-1.5)

    def test_empty_dual_domain_gives_minus_inf(self):
        # f(x, u) = x^2 + |u|: conjugate in u is an interval indicator, so
        # any |y| > 1 empties dom f*(., y)
        tree = build_single(1)
        joint = SeparableSum([Quadratic([1.0]), absolute_value()])
        f = GenericIntegrand(tree, [1], [1], [joint])
        assert at_one_leaf(partial(lower_lagrangians, f), [0.5], [2.0]) == -INF
        assert at_one_leaf(f.lagrangians, [0.5], [2.0]) == -INF

    def test_dual_grid_supremum_oracle(self):
        f = single_leaf_alm()
        x, y = np.array([1.0]), np.array([1.0])
        vs = np.arange(-6, 6.0001, 0.004)
        best = -INF
        for v in vs:
            fv = at_one_leaf(f.conjugate_values, [v], y)
            if fv < INF:
                best = max(best, v * x[0] - fv)
        assert at_one_leaf(partial(lower_lagrangians, f), x, y) == pytest.approx(best, abs=1e-3)


class TestConcavityInY:
    def test_midpoint_concavity(self):
        rng = np.random.default_rng(52)
        f = single_leaf_alm()
        for _ in range(200):
            x = rng.uniform(-2, 2, 1)
            y1 = rng.uniform(-2, 2, 1)
            y2 = rng.uniform(-2, 2, 1)
            mid = at_one_leaf(f.lagrangians, x, (y1 + y2) / 2)
            avg = 0.5 * at_one_leaf(f.lagrangians, x, y1) + 0.5 * at_one_leaf(f.lagrangians, x, y2)
            assert mid >= avg - 1e-9


class TestHamiltonian:
    def quad_stage(self):
        return BolzaStage(SeparableSum([Quadratic([0.5]), Quadratic([0.5])]), 1)

    def test_quadratic_value(self):
        st = self.quad_stage()
        # H(x, y) = x^2/2 + min_w (w^2/2 - w y) = x^2/2 - y^2/2
        assert stage_hamiltonian(st, [1.0], [1.0]) == pytest.approx(0.0)

    def test_quadratic_against_grid(self):
        st = self.quad_stage()
        ws = np.arange(-10, 10.001, 0.01)
        for (x, y) in [(1.0, 1.0), (0.3, -0.7), (-2.0, 0.4)]:
            oracle = (0.5 * x * x + 0.5 * ws * ws - ws * y).min()
            assert stage_hamiltonian(st, [x], [y]) == pytest.approx(oracle, abs=1e-4)

    def test_affine_escape_direction(self):
        # K(x, w) = x^2/2 + w (affine in the velocity): any y != 1 escapes
        st = BolzaStage(SeparableSum([Quadratic([0.5]), Affine([1.0], 0.0)]), 1)
        assert stage_hamiltonian(st, [1.0], [0.5]) == -INF
        assert stage_hamiltonian(st, [1.0], [1.0]) == pytest.approx(0.5)

    def test_kabanov_display(self):
        gens = np.array([[1.0, -2.0], [-1.0, 0.5], [-1.0, 0.0], [0.0, -1.0]])
        C = Polyhedron.from_cone_generators(gens)
        V = Quadratic([0.5, 0.5])
        st = KabanovStage(V, C)
        rng = np.random.default_rng(53)
        for _ in range(50):
            z = rng.normal(size=2)
            k = rng.normal(size=2)
            yz = rng.normal(size=2)
            x = np.concatenate([z, k])
            y = np.concatenate([yz, np.zeros(2)])
            sigma = support_function(C, yz)
            expected = -INF if sigma == INF else float(k @ yz) + V.value(-k) - sigma
            assert stage_hamiltonian(st, x, y) == pytest.approx(expected, abs=1e-9) \
                if np.isfinite(expected) else stage_hamiltonian(st, x, y) == expected

    def test_kabanov_nonzero_yk_is_minus_inf(self):
        gens = np.array([[1.0, -2.0], [-1.0, 0.5]])
        st = KabanovStage(Quadratic([0.5, 0.5]), Polyhedron.from_cone_generators(gens))
        y = np.array([0.0, 0.0, 1.0, 0.0])
        assert stage_hamiltonian(st, np.zeros(4), y) == -INF

    def test_kabanov_against_velocity_grid(self):
        gens = np.array([[1.0, -2.0], [-1.0, 0.5], [-1.0, 0.0], [0.0, -1.0]])
        C = Polyhedron.from_cone_generators(gens)
        st = KabanovStage(Quadratic([0.5, 0.5]), C)
        x = np.array([0.1, -0.2, 0.4, 0.3])
        y = np.array([0.5, 0.25, 0.0, 0.0])  # inside the polar cone
        axis = np.arange(-8, 8.001, 0.02)
        A, B = np.meshgrid(axis, axis, indexing="ij")
        W = np.column_stack([A.ravel(), B.ravel()])
        k = x[2:]
        feas = np.all((W + k) @ C.a_ub.T <= 1e-12, axis=1)
        vals = st.V.value(-k) - W[feas] @ y[:2]
        assert stage_hamiltonian(st, x, y) == pytest.approx(vals.min(), abs=1e-2)


HULL_STATE_COSTS = [
    Quadratic([0.3], [0.7], 0.2), absolute_value(),
    PiecewiseLinear([-1.0, 0.5], [-1.0, 0.2, 1.5]), Exponential(1.0, 1.0, -1.0),
    Entropy(), indicator_nonneg(), indicator_interval(-1.0, 2.0), Quadratic([0.0]),
]
HULL_VELOCITY_COSTS = [
    Quadratic([1.7]), absolute_value().scaled(0.7), PiecewiseLinear([0.3], [-0.4, 1.1]),
    Exponential(0.5, 2.0), indicator_interval(-1.0, 1.0), Affine([0.6], 0.1),
]


@pytest.mark.parametrize("w", range(len(HULL_VELOCITY_COSTS)))
@pytest.mark.parametrize("s", range(len(HULL_STATE_COSTS)))
def test_hamiltonian_is_its_own_lsc_hull(s, w):
    # the identity behind the solver's lower variant: every catalog
    # Hamiltonian is closed in x, so it equals the conjugate of its stage
    # conjugate's slice, and is MINUS_INF exactly where that slice is
    # identically +inf; y = 0.6 is the one dual point where the affine
    # velocity cost leaves H finite
    stage = BolzaStage(SeparableSum([HULL_STATE_COSTS[s], HULL_VELOCITY_COSTS[w]]), 1)
    rng = np.random.default_rng(100 * s + w)
    for y in [0.6, *rng.normal(0.0, 1.5, 4)]:
        h, hb = stage.hamiltonian_functions_of_x([[y]])[0], hbar_function_of_x(stage, [y])
        assert (h is MINUS_INF) == (hb is MINUS_INF), y
        if h is MINUS_INF:
            continue
        for x in [-0.5, 1.0, *rng.normal(0.0, 2.0, 3)]:
            got, want = hb.value([x]), h.value([x])
            if not np.isfinite(want):
                assert got == want, (y, x)
            else:
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (y, x)


class TestBolzaAssembly:
    def quad_stage(self):
        return BolzaStage(SeparableSum([Quadratic([0.5]), Quadratic([0.5])]), 1)

    def test_two_summation_forms_agree(self):
        tree = build_single(2)
        f = BolzaIntegrand(tree, [[self.quad_stage()], [self.quad_stage()]])
        x = np.array([1.0, 1.0])
        y = np.array([1.0, 1.0])
        # direct form: sum_t [H_t + dx_t . y_t]
        direct = at_one_leaf(f.lagrangians, x, y)
        # increment form: sum_t [-x_t . dy_{t+1} + H_t], y_{T+1} = 0
        ys = [y[0:1], y[1:2]]
        dys = [ys[1] - ys[0], -ys[1]]
        states = [x[0:1], x[1:2]]
        incr = sum(
            float(-states[t] @ dys[t]) + stage_hamiltonian(f.stage_cost(0, t), states[t], ys[t])
            for t in range(2)
        )
        assert direct == pytest.approx(incr, abs=1e-12)

    def test_two_forms_agree_randomised(self):
        rng = np.random.default_rng(54)
        tree = build_single(2)
        for _ in range(100):
            stages = [
                [BolzaStage(SeparableSum([
                    Quadratic([rng.uniform(0.2, 2)], [rng.normal()]),
                    Quadratic([rng.uniform(0.2, 2)], [rng.normal()]),
                ]), 1)]
                for _ in range(2)
            ]
            f = BolzaIntegrand(tree, stages)
            x = rng.normal(size=2)
            y = rng.normal(size=2)
            direct = at_one_leaf(f.lagrangians, x, y)
            ys = [y[0:1], y[1:2]]
            dys = [ys[1] - ys[0], -ys[1]]
            states = [x[0:1], x[1:2]]
            incr = sum(
                float(-states[t] @ dys[t])
                + stage_hamiltonian(f.stage_cost(0, t), states[t], ys[t])
                for t in range(2)
            )
            assert direct == pytest.approx(incr, abs=1e-10)

    def test_single_stage_identity(self):
        tree = build_single(1)
        f = BolzaIntegrand(tree, [[self.quad_stage()]])
        x0, y0 = 0.7, -0.4
        h = stage_hamiltonian(f.stage_cost(0, 0), [x0], [y0])
        assert at_one_leaf(f.lagrangians, [x0], [y0]) == pytest.approx(h + x0 * y0, abs=1e-12)

    def test_value_assembles_stage_costs(self):
        tree = build_single(2)
        f = BolzaIntegrand(tree, [[self.quad_stage()], [self.quad_stage()]])
        x = np.array([1.0, 3.0])
        u = np.array([0.5, -0.5])
        # stage 0: x=1, w=1+0.5; stage 1: x=3, w=(3-1)-0.5
        expected = 0.5 * 1 + 0.5 * 1.5 ** 2 + 0.5 * 9 + 0.5 * 1.5 ** 2
        assert at_one_leaf(f.values, x, u) == pytest.approx(expected)

    def test_conjugate_value_against_grid(self):
        tree = build_single(1)
        f = BolzaIntegrand(tree, [[self.quad_stage()]])
        # f(x, u) on R^2: K(x, x + u); f*(v, y) by 2-d grid
        xs = np.arange(-10, 10.001, 0.01)
        for (v, y) in [(0.5, 0.5), (-1.0, 0.3)]:
            best = -INF
            for x in np.arange(-6, 6.001, 0.01):
                us = xs
                vals = x * v + us * y - (0.5 * x * x + 0.5 * (x + us) ** 2)
                best = max(best, vals.max())
            assert at_one_leaf(f.conjugate_values, [v], [y]) == pytest.approx(best, abs=1e-3)

    def test_joint_function_matches_value(self):
        rng = np.random.default_rng(55)
        tree = build_single(2)
        f = BolzaIntegrand(tree, [[self.quad_stage()], [self.quad_stage()]])
        joint = joint_function(f, 0)
        for _ in range(20):
            x = rng.normal(size=2)
            u = rng.normal(size=2)
            assert joint.value(np.concatenate([x, u])) == pytest.approx(
                at_one_leaf(f.values, x, u), abs=1e-12
            )


class TestKabanovAsBolza:
    def make(self):
        gens = np.array([[1.0, -2.0], [-1.0, 0.5], [-1.0, 0.0], [0.0, -1.0]])
        C = Polyhedron.from_cone_generators(gens)
        V = Quadratic([0.5, 0.5])
        tree = build_single(1)
        return BolzaIntegrand(tree, [[KabanovStage(V, C, terminal=True)]])

    def test_lagrangian_matches_hamiltonian_display(self):
        rng = np.random.default_rng(56)
        f = self.make()
        st = f.stage_cost(0, 0)
        for _ in range(50):
            x = rng.normal(size=4) * 0.5
            x[:2] = 0.0  # terminal constraint z = 0
            yz = rng.normal(size=2)
            y = np.concatenate([yz, np.zeros(2)])
            direct = at_one_leaf(f.lagrangians, x, y)
            h = stage_hamiltonian(st, x, y)
            expected = h + float(x @ y) if np.isfinite(h) else h
            if direct == -INF or expected == -INF:
                assert direct == expected
            else:
                assert direct == pytest.approx(expected, abs=1e-9)

    def test_terminal_state_enforced(self):
        f = self.make()
        x = np.array([1.0, 0.0, 0.0, 0.0])  # z != 0
        assert at_one_leaf(f.values, x, np.zeros(4)) == INF
        assert at_one_leaf(f.lagrangians, x, np.zeros(4)) == INF

    @pytest.mark.parametrize("terminal", [False, True])
    def test_one_closed_form_for_the_stage_conjugate(self, terminal):
        # H(., b)* = K*(., b): the Hamiltonian's own conjugate (where it
        # has a closed form: before the horizon, with H(., b) finite), K*'s
        # value and K*'s slice are one closed form, V*(b_z - a_k) +
        # sigma_C(b_z) with a_z = 0 before the horizon, bit for bit; b off
        # the polar cone (sigma_C = +inf) or with b_k != 0 gives +inf
        # everywhere
        rng = np.random.default_rng(57)
        gens = np.array([[1.0, -2.0], [-1.0, 0.5], [-1.0, 0.0], [0.0, -1.0]])
        C = Polyhedron.from_cone_generators(gens)
        st = KabanovStage(Quadratic(rng.uniform(0.2, 2.0, 2), rng.normal(size=2)), C, terminal)
        polar = np.abs(rng.normal(size=(8, 2))) @ np.array([[2.0, 1.0], [1.0, 2.0]])  # its rays
        finite = h_conjugates = 0
        for bz in np.vstack([polar, rng.normal(size=(8, 2))]):
            for bk in (np.zeros(2), rng.normal(size=2)):
                b = np.concatenate([bz, bk])
                h = st.hamiltonian_functions_of_x([b])[0]
                fns = [conjugate_function_of_a(st, b)]
                if h is not MINUS_INF and not terminal:
                    fns.append(h.conjugate())
                    h_conjugates += 1
                for _ in range(3):
                    a = rng.normal(size=4)
                    if rng.random() < 0.5:
                        a[:2] = 0.0
                    if np.any(bk) or support_function(C, bz) == INF or (
                            not terminal and np.any(a[:2])):
                        want = INF
                    else:
                        want = st.V.conjugate().value(bz - a[2:]) + support_function(C, bz)
                        finite += 1
                    got = [fn.value(a) for fn in fns] + [st.conjugate_value_many([a], [b])[0]]
                    assert same_bits(got, [want] * len(got))
        assert finite > 0 and (terminal or h_conjugates > 0)



def generic_mix(rng):
    """A generic integrand on the binary tree of horizon 3, n = 2, m = 2:
    two groups of shared-inner precompositions, one member (leaf 3) with a
    zero parameter block, and joints of other kinds, interleaved over the
    leaves.  Returns the integrand and its joints."""
    g = Quadratic([0.5, 2.0], [0.1, -0.3])
    # g* is a precomposition plus an affine term
    h = FiniteSum([AffinePrecomposition(Quadratic([1.0, 0.5]), [[1.0, 0.4], [-0.3, 2.0]]),
                   Affine([0.2, -0.1], 0.3)])

    def square_map():  # (M_x, M_u) with M_u near the identity
        return np.hstack([rng.normal(size=(2, 2)), np.eye(2) + 0.3 * rng.normal(size=(2, 2))])

    joints = [
        AffinePrecomposition(g, square_map(), rng.normal(size=2)),
        Quadratic([0.5, 0.5, 1.0, 1.0]),
        AffinePrecomposition(g, square_map(), rng.normal(size=2)),
        AffinePrecomposition(g, np.hstack([rng.normal(size=(2, 2)), np.zeros((2, 2))])),
        AffinePrecomposition(g, square_map()),
        SeparableSum([Quadratic([1.0, 1.0]), Quadratic([0.5]), absolute_value()]),
        AffinePrecomposition(h, square_map()),  # its own group
        AffinePrecomposition(g, square_map(), rng.normal(size=2)),
    ]
    return GenericIntegrand(ScenarioTree.binary(3), [2, 0, 0, 0], [0, 0, 0, 2], joints), joints


def assert_same_lagrangian(got, want):
    if want is MINUS_INF:
        assert got is MINUS_INF
        return
    assert isinstance(got, Affine) and isinstance(want, Affine)
    assert same_bits(got.a, want.a) and same_bits(got.b, want.b)


class TestGroupedLagrangian:
    """affine_lagrangians prices each group of ``leaf_groups`` in one
    stacked pass and gives each leaf the per-leaf partial infimum of
    lagrangian_functions_of_x (the pass's K = 1 case), bit for bit."""

    @pytest.mark.parametrize("kind", sorted(HEDGING_DISUTILITIES))
    def test_hedging_matches_per_leaf(self, kind):
        p = binary_hedging(4, HEDGING_DISUTILITIES[kind])
        f = p.integrand
        ys = np.random.default_rng(3).uniform(0.05, 1.9, size=(16, 1))
        per_leaf = f.lagrangian_functions_of_x(ys)
        slopes, consts = f.affine_lagrangians(ys)
        for leaf, want in enumerate(per_leaf):
            joint = f.joint_function(leaf)
            got = MINUS_INF if consts[leaf] == -INF else Affine(slopes[leaf], consts[leaf])
            assert_same_lagrangian(got, want)
            assert_same_lagrangian(
                got, precomposition_lagrangian_per_leaf(joint, f.n_total, ys[leaf]))
        if kind in ("abs", "pwl-off-anchor"):  # y beyond the top slope leaves dom V*
            assert any(fn is MINUS_INF for fn in per_leaf)

    def test_leaf_outside_the_conjugate_domain_has_no_objective(self):
        p = binary_hedging(2, absolute_value())
        ys = np.array([[0.5], [1.5], [-0.2], [1.0]])
        fns = p.integrand.lagrangian_functions_of_x(ys)
        assert [fn is MINUS_INF for fn in fns] == [False, True, False, False]
        y = StochasticProcess.from_leaf_rows(p.tree, p.m_dims, ys)
        assert solver._lagrangian_objective(p, y)[1] is None
        assert dual_objective(p, y).inner_status == "unbounded"

    def test_generic_mix_matches_per_leaf(self):
        rng = np.random.default_rng(4)
        f, joints = generic_mix(rng)
        ys = 0.4 * rng.normal(size=(8, 2))
        ys[3] = 0.0  # the zero block keeps its joint only at y = 0
        points = rng.normal(size=(6, 2))
        for leaf, got in enumerate(f.lagrangian_functions_of_x(ys)):
            want = partial_infimum(joints[leaf], 2, ys[leaf])
            if isinstance(want, Affine) or want is MINUS_INF:
                assert_same_lagrangian(got, want)
            else:
                assert type(got) is type(want)
                assert same_bits(got.value_many(points), want.value_many(points))
        # each group of leaf_groups in one stacked pass
        per_leaf = f.lagrangian_functions_of_x(ys)
        for leaves, g, mats, offsets in f.leaf_groups[0]:
            slopes, consts = _affine_slices(g, mats, offsets, 2, ys[leaves])
            for leaf, a, b in zip(leaves.tolist(), slopes, consts):
                assert_same_lagrangian(Affine(a, b), per_leaf[leaf])
        ys[3] = 0.5
        assert f.lagrangian_functions_of_x(ys)[3] is MINUS_INF

    def test_singular_parameter_block_has_no_closed_form(self):
        tree = ScenarioTree.binary(1)
        g = Quadratic([0.5, 0.5])
        joints = [AffinePrecomposition(g, np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])),
                  AffinePrecomposition(g, np.array([[1.0, 1.0, 1.0], [0.0, 2.0, 2.0]]))]
        f = GenericIntegrand(tree, [1, 0], [0, 2], joints)
        ys = np.array([[0.1, 0.2], [0.3, 0.4]])
        with pytest.raises(NoClosedFormError):
            partial_infimum(joints[1], 1, ys[1])
        with pytest.raises(NoClosedFormError):
            f.lagrangian_functions_of_x(ys)


def on_slice(f, ys):
    """Per leaf with a joint g(M (x, u) + m) whose parameter block M_u is
    square, the one v where f*(., y) can be finite: M_x' eta, eta = M_u'^{-1}
    y; NaN rows for the other leaves."""
    n, vs = f.n_total, np.full((len(ys), f.n_total), np.nan)
    for leaf, y in enumerate(ys):
        M = getattr(f.joint_function(leaf), "matrix", None)
        if M is not None and M.shape[0] == M.shape[1] - n and M[:, n:].any():
            vs[leaf] = M[:, :n].T @ np.linalg.solve(M[:, n:].T, y)
    return vs


def assert_same_conjugates(got, want):
    """Equal +inf entries, and finite values within 1e-12 relative."""
    assert np.array_equal(got == INF, want == INF)
    finite = want < INF
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-12, atol=0.0)


class TestGroupedConjugate:
    """conjugate_values prices the leaves that share one inner g in one
    stacked pass, against each leaf's own conjugate function of v: finite
    values to 1e-12 relative, and +inf on the same inputs."""

    def assert_matches_per_leaf(self, p, ys, rng):
        f = p.integrand
        vs = on_slice(f, ys)
        assert not np.isnan(vs).any()
        on = f.conjugate_values(vs, ys)
        assert_same_conjugates(on, per_leaf_conjugate_values(p, ys, vs))
        # v 1e-6 off the slice, in a random direction: +inf on both paths
        off = vs + 1e-6 * rng.choice([-1.0, 1.0], size=vs.shape)
        assert (f.conjugate_values(off, ys) == INF).all()
        assert (per_leaf_conjugate_values(p, ys, off) == INF).all()
        return on

    @pytest.mark.parametrize("kind", sorted(HEDGING_DISUTILITIES))
    def test_shared_disutility(self, kind):
        rng = np.random.default_rng(5)
        p = binary_hedging(4, HEDGING_DISUTILITIES[kind])
        assert p.integrand.leaf_groups[1] == []  # every leaf is stacked
        ys = rng.uniform(0.05, 1.9, size=(16, 1))
        on = self.assert_matches_per_leaf(p, ys, rng)
        if kind in ("abs", "pwl-off-anchor"):  # y beyond the top slope leaves dom V*
            assert (on == INF).any() and (on < INF).any()

    @pytest.mark.parametrize("kind", ["quadratic", "abs"])
    def test_distinct_disutilities(self, kind):
        # one V object per leaf but for leaves 0 and 5, which share one:
        # groups of one leaf, and one of two
        rng = np.random.default_rng(6)
        tree = ScenarioTree.binary(3)

        def draw():
            if kind == "quadratic":
                return Quadratic([rng.uniform(0.2, 2.0)])
            return absolute_value().scaled(rng.uniform(0.5, 2.0))

        Vs = [draw() for _ in range(8)]
        Vs[5] = Vs[0]
        price = StochasticProcess.from_stage_values(tree, binary_prices(3)[:, :, None])
        p = solver.Problem(tree, AlmIntegrand(tree, Vs, price))
        groups, rest = p.integrand.leaf_groups
        assert rest == [] and sorted(len(g[0]) for g in groups) == [1] * 6 + [2]
        # |y| beyond every scale of |z|, at leaf 2
        ys = rng.uniform(-1.5, 1.5, size=(8, 1))
        ys[2] = 2.5
        on = self.assert_matches_per_leaf(p, ys, rng)
        if kind == "abs":
            assert on[2] == INF

    def test_generic_precompositions(self):
        rng = np.random.default_rng(7)
        f, joints = generic_mix(rng)
        p = solver.Problem(f.tree, f)
        groups, rest = f.leaf_groups
        assert rest == [1, 3, 5] and sorted(len(g[0]) for g in groups) == [1, 4]
        ys = 0.4 * rng.normal(size=(8, 2))
        ys[3] = 0.0
        vs = on_slice(f, ys)
        # the other leaves at points where their conjugates are finite:
        # leaf 3's joint only at M_x' eta with M_x' eta = v for some eta,
        # leaf 5's |.| part needs |v_2| <= 1
        vs[[1, 5]] = 0.3 * rng.normal(size=(2, 2))
        vs[3] = joints[3].matrix[:, :2].T @ np.array([0.2, -0.1])
        on = f.conjugate_values(vs, ys)
        assert (on < INF).all()
        assert_same_conjugates(on, per_leaf_conjugate_values(p, ys, vs))
        stacked = [0, 2, 4, 6, 7]
        off = vs.copy()
        off[stacked] += 1e-6 * rng.choice([-1.0, 1.0], size=(5, 2))
        got = f.conjugate_values(off, ys)
        assert_same_conjugates(got, per_leaf_conjugate_values(p, ys, off))
        assert (got[stacked] == INF).all() and (got[[1, 3, 5]] < INF).all()
