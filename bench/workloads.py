"""Seeded inputs of the four benchmark workloads.

Each builder turns a seed into the fixed batch of one workload: a list of
``Op`` records.  ``report`` ops run ``stochdual report`` on a problem file
written into the run's work directory; ``sweep`` ops are library calls
(``duality_gap`` plus ``check_alm``) on one model parsed during set-up.
The same seed always yields byte-identical problem files.

Why these four (see README.md for the per-layer predictions):

* fixture-corpus   the only workload that covers all five model families;
                   time goes to parsing, model build, closed-form conjugates
                   and the checkers, so engine changes should not move it.
* tree-smooth      quadratic problems on binary trees: compilation and
                   lowering, dual recovery and the annihilator bound, which
                   fails at 32 hedging leaves (LP phase 1 runs out of pivots).
* tree-kinked      polyhedral problems: epigraph lowering, LP feasibility,
                   the recession-ray LP pre-pass and dual supergradient
                   ascent, which ends max-iter on every hedging instance.
* liability-sweep  one 64-leaf model solved for many liabilities, the only
                   workload that solves one structure again and again.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

UP, DOWN = 1.2, 0.9
HALF_SQUARE = {"kind": "quadratic", "weights": [0.5]}  # z -> z^2 / 2
ABS_V = {"kind": "abs"}


@dataclass
class Op:
    """One operation of a batch.

    ``oracle`` is ``None`` or ``(kind, data)`` with kind ``"lstsq"`` (quadratic
    hedging) or ``"highs"`` (absolute-value hedging); see oracles.py.
    """

    name: str
    kind: str  # "report" | "sweep"
    path: str | None = None
    u: object = None  # sweep ops: the liability process
    oracle: tuple | None = None


@dataclass
class Workload:
    ops: list[Op]
    digests: dict[str, str] = field(default_factory=dict)  # file name -> sha256
    problem: object = None  # sweep workloads: the parsed model


# ---------------------------------------------------------------------------
# problem documents
# ---------------------------------------------------------------------------


def binary_tree(horizon: int) -> dict:
    n = 2 ** horizon
    partitions = [
        [list(range(b * (n >> t), (b + 1) * (n >> t))) for b in range(2 ** t)]
        for t in range(horizon + 1)
    ]
    return {"probabilities": [f"1/{n}"] * n, "partitions": partitions}


def price_path(horizon: int) -> np.ndarray:
    """(stage, leaf) prices from 1.0, times UP or DOWN per step."""
    n = 2 ** horizon
    leaves = np.arange(n)
    prices = np.ones((horizon + 1, n))
    for t in range(1, horizon + 1):
        down = (leaves >> (horizon - t)) & 1
        prices[t] = prices[t - 1] * np.where(down, DOWN, UP)
    return prices


def hedging_doc(horizon: int, disutility: dict, liability) -> dict:
    prices = price_path(horizon)
    price = [[[float(s)] for s in stage] for stage in prices]
    u = [0] * horizon + [[[float(x)] for x in liability]]
    return {
        "tree": binary_tree(horizon),
        "model": {"family": "alm", "disutility": disutility, "price": price},
        "parameters": {"u": u},
    }


def bolza_doc(horizon: int, state_cost: dict, rng) -> dict:
    """Stage cost K(x, w) = state_cost(x) + w^2/2 on every block; the
    parameter is adapted, a drift of 1 plus one normal draw (sd 0.1) per
    block.  With unit-variance draws the active-set path, and so the cost,
    of the |x| instances swings by a quarter from seed to seed."""
    n = 2 ** horizon
    stage = {"kind": "separable", "parts": [state_cost, HALF_SQUARE]}
    stages = [[stage] * (2 ** t) for t in range(horizon + 1)]
    u = [[[float(x)] for x in np.repeat(1.0 + rng.normal(0.0, 0.1, 2 ** t), n >> t)]
         for t in range(horizon + 1)]
    return {
        "tree": binary_tree(horizon),
        "model": {"family": "bolza", "state_dim": 1, "stages": stages},
        "parameters": {"u": u},
    }


def liability(rng, n: int) -> np.ndarray:
    """Positive terminal liability with mean 3.  Kept within 3 +- 0.5: wider
    draws change where the |z| dual ascent stalls, and so its cost, from
    seed to seed."""
    return rng.uniform(2.5, 3.5, n)


def _write(workdir: str, name: str, doc: dict, digests: dict) -> str:
    raw = json.dumps(doc, sort_keys=True).encode("utf-8")
    path = os.path.join(workdir, name + ".json")
    with open(path, "wb") as fh:
        fh.write(raw)
    digests[name + ".json"] = hashlib.sha256(raw).hexdigest()
    return path


def _hedging_ops(rng, workdir, digests, tag, disutility, oracle_kind, sizes):
    ops = []
    for horizon, count in sizes:
        for i in range(count):
            doc = hedging_doc(horizon, disutility, liability(rng, 2 ** horizon))
            name = f"hedge-{tag}-H{horizon}-{i}"
            ops.append(Op(name, "report", _write(workdir, name, doc, digests),
                          oracle=(oracle_kind, doc)))
    return ops


def _bolza_ops(rng, workdir, digests, tag, state_cost, sizes):
    ops = []
    for horizon, count in sizes:
        for i in range(count):
            name = f"bolza-{tag}-H{horizon}-{i}"
            doc = bolza_doc(horizon, state_cost, rng)
            ops.append(Op(name, "report", _write(workdir, name, doc, digests)))
    return ops


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


FIXTURES = (
    "binomial-alm.json",
    "bolza-quadratic-binary.json",
    "bolza-quadratic.json",
    "kabanov-conical.json",
    "kkt-single.json",
    "quadratic-tracking.json",
)
FIXTURE_ROUNDS = 40


def fixture_corpus(seed: int, workdir: str) -> Workload:
    """The six bundled fixtures in round robin; the seed shuffles each round."""
    from stochdual.cli import fixture_path

    rng = np.random.default_rng(seed)
    digests = {}
    for name in FIXTURES:
        with open(fixture_path(name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    ops = [Op(FIXTURES[k], "report", fixture_path(FIXTURES[k]))
           for _ in range(FIXTURE_ROUNDS) for k in rng.permutation(len(FIXTURES))]
    return Workload(ops, digests)


def tree_smooth(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    digests = {}
    ops = _bolza_ops(rng, workdir, digests, "quad", HALF_SQUARE,
                     [(3, 2), (4, 2), (5, 2)])
    ops += _hedging_ops(rng, workdir, digests, "quad", HALF_SQUARE, "lstsq",
                        [(2, 4), (3, 4), (4, 4), (5, 1)])
    return Workload(ops, digests)


def tree_kinked(seed: int, workdir: str) -> Workload:
    rng = np.random.default_rng(seed)
    digests = {}
    ops = _hedging_ops(rng, workdir, digests, "abs", ABS_V, "highs",
                       [(3, 3), (4, 3), (5, 1)])
    ops += _bolza_ops(rng, workdir, digests, "abs", ABS_V,
                      [(2, 3), (3, 3), (4, 1)])
    return Workload(ops, digests)


SWEEP_HORIZON = 6
SWEEP_SIZE = 100


def liability_sweep(seed: int, workdir: str) -> Workload:
    """One 64-leaf quadratic hedging model, parsed once; the batch solves it
    for SWEEP_SIZE seeded liabilities."""
    import stochdual
    from stochdual.cli import parse_problem_file

    rng = np.random.default_rng(seed)
    digests = {}
    n = 2 ** SWEEP_HORIZON
    base = hedging_doc(SWEEP_HORIZON, HALF_SQUARE, np.full(n, 3.0))
    problem, _, _, _, _ = parse_problem_file(_write(workdir, "sweep-model", base, digests))
    tree = problem.tree
    ops = []
    for i in range(SWEEP_SIZE):
        values = liability(rng, n)
        u = stochdual.StochasticProcess(
            tree, tuple(np.zeros((n, 0)) for _ in range(SWEEP_HORIZON)) + (values.reshape(-1, 1),))
        oracle_doc = hedging_doc(SWEEP_HORIZON, HALF_SQUARE, values)
        digests[f"liability-{i}"] = hashlib.sha256(values.tobytes()).hexdigest()
        ops.append(Op(f"liability-{i}", "sweep", u=u, oracle=("lstsq", oracle_doc)))
    return Workload(ops, digests, problem)


WORKLOADS = {
    "fixture-corpus": fixture_corpus,
    "tree-smooth": tree_smooth,
    "tree-kinked": tree_kinked,
    "liability-sweep": liability_sweep,
}
