"""Scenario-tree convex duality toolkit.

Builds finite multistage stochastic convex programs on scenario trees,
derives their dual problems through exact conjugate calculus, and verifies
optimality certificates (saddle conditions, KKT systems, martingale
densities, Euler-Lagrange / Hamiltonian systems, consistent price systems)
with numerical residuals.
"""

import importlib

from .tree import (
    ScenarioTree,
    StochasticProcess,
    TreeError,
    build_tree,
    conditional_expectation,
    adapted_projection,
    is_adapted,
    pairing,
    in_orthocomplement,
)
from .convex import (
    Affine,
    AffinePrecomposition,
    ConvexFunction,
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
    fenchel_residual,
    grid_conjugate_oracle,
    indicator_interval,
    indicator_nonneg,
    indicator_nonpos,
    indicator_point,
    support_attains,
    support_function,
)
from .integrand import (
    AlmIntegrand,
    BolzaIntegrand,
    BolzaStage,
    ConstrainedIntegrand,
    GenericIntegrand,
    KabanovStage,
    ParametricIntegrand,
)
from .solver import (
    DualObjective,
    GapReport,
    OrthoBound,
    Problem,
    SolveResult,
    SolverConfig,
    dual_objective,
    dual_via_orthocomplement,
    duality_gap,
    solve_dual,
    solve_primal,
)
from .models import (
    build_alm,
    build_bolza,
    build_constrained,
    build_generic,
    build_kabanov,
)
from .duality import (
    alm_dual_value,
    bolza_dual_value,
    check_martingale_density,
)
from .optimality import (
    Certificate,
    check_alm,
    check_consistent_price_system,
    check_euler_lagrange,
    check_hamiltonian_system,
    check_kkt,
    check_saddle,
)

__version__ = "0.1.0"


def __getattr__(name):
    # the command line loads on first use: ``python -m stochdual.cli`` must
    # find it unimported, to run it once, as __main__
    if name not in ("cli", "fixture_path"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    cli = importlib.import_module(".cli", __name__)
    return cli if name == "cli" else cli.fixture_path
