"""stochdual benchmark: certified-verdict wall time, with per-layer tracing.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of fixture-corpus, tree-smooth, tree-kinked, liability-sweep,
or ``all`` to run the four in turn in this one process.  Every workload is
a closed loop with one client: the next op starts when the previous one
returns.  The inputs come from the seed; the benchmark imports the package
from ./src, sets up the workload several times (the median is setup_s),
warms up, then repeats the workload's fixed batch of ops for S seconds.

With ``--trace 0`` the run reports the end-to-end metrics (set-up time and
batch time, both scaled to a reference machine speed, and peak memory) and
prints op latency percentiles.  With ``--trace 1`` it spends half the time
untraced and half with every public stochdual callable wrapped (spans.py),
and reports the per-layer metrics per batch plus the tracing overhead.  Either way every op passes through the correctness gate after
its batch, outside the op latencies (oracles.py), and every report must be
byte-identical across repetitions and between traced and untraced runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Full records
(environment, input digests, per-op failures, spans) go to bench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time

# One client on one thread: the BLAS must not start its own pool, which on a
# small shared machine only adds contention (and never exceeds nproc).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy  # noqa: E402  (after the thread settings, which numpy reads on import)
import oracles  # noqa: E402
import workloads  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 50

WORKLOAD_NAMES = ("fixture-corpus", "tree-smooth", "tree-kinked", "liability-sweep")

# On a small shared machine the speed of the CPU the benchmark gets swings by
# up to 1.6x over stretches of seconds to minutes, as neighbours come and go.
# A fixed kernel, timed between ops, tracks that speed; the bounded times are
# scaled to the speed at which the kernel takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.0015
CALIBRATION_EVERY_S = 0.25


def load_program():
    """Import stochdual from the checkout's ./src, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "stochdual", "__init__.py")):
        sys.exit(f"bench: no stochdual package under {src}")
    sys.path.insert(0, src)
    import stochdual

    if os.path.dirname(os.path.dirname(os.path.abspath(stochdual.__file__))) != src:
        sys.exit(f"bench: stochdual was imported from {stochdual.__file__}, not {src}")
    return stochdual


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


class Outcome:
    __slots__ = ("code", "report", "error")

    def __init__(self, code=None, report=None, error=None):
        self.code, self.report, self.error = code, report, error


def execute(op, stochdual, problem) -> Outcome:
    """Run one op.  Package names are looked up at call time, so a traced run
    goes through the wrappers.  An exception escaping the program is an
    outcome (a failed op), never a crash of the benchmark."""
    try:
        if op.kind == "report":
            code, report = stochdual.cli.run(["report", op.path])
            return Outcome(code, report)
        gap = stochdual.duality_gap(problem, op.u)
        cert = stochdual.check_alm(problem, gap.primal.optimizer, op.u, gap.dual.optimizer)
        return Outcome(0, {
            "primal_status": gap.primal.status,
            "primal_value": gap.primal.value,
            "dual_value": gap.dual.value,
            "dual_method": gap.dual.method,
            "gap": gap.gap,
            "verdict": cert.verdict,
            "max_residual": cert.max_residual,
        })
    except Exception as exc:  # noqa: BLE001 - counted and reported below
        return Outcome(error=type(exc).__name__)


def serialize(outcome: Outcome) -> str:
    """An outcome as bytes to compare: reports as ``stochdual report --json``
    prints them."""
    if outcome.error is not None:
        return f"error:{outcome.error}"
    return json.dumps(outcome.report, sort_keys=True, indent=2)


class Calibration:
    """Times a fixed kernel at most every CALIBRATION_EVERY_S.  Its mix (a
    dense SVD, interpreter loops and dicts, many tiny numpy calls) is the
    program's mix: a kernel of SVDs alone tracked the speed of the
    fixture-corpus ops less well."""

    def __init__(self, every: float = CALIBRATION_EVERY_S):
        self.every = every
        rng = numpy.random.default_rng(0)
        self.square = rng.normal(size=(40, 40))
        self.tall, self.rhs = rng.normal(size=(8, 6)), rng.normal(size=8)
        self.times: list[float] = []
        self.last = -math.inf

    def probe(self):
        start = time.perf_counter()
        if start - self.last < self.every:
            return
        for _ in range(7):
            numpy.linalg.svd(self.square, compute_uv=False)
            sum(j * 0.5 for j in range(300))
            table = {j: j * 0.5 for j in range(150)}
            sum(table.values())
            [str(j) for j in range(50)]
        for _ in range(20):
            x = numpy.linalg.lstsq(self.tall, self.rhs, rcond=None)[0]
            numpy.concatenate([x @ x * x, numpy.zeros(6)])
        self.last = time.perf_counter()
        self.times.append(self.last - start)

    def factor(self) -> float:
        """Measured seconds times this are seconds at the reference speed."""
        return CALIBRATION_REF_S / statistics.median(self.times)


def run_batches(ops, stochdual, problem, budget: float, calibration: Calibration,
                gate: Gate):
    """Repeat the batch while the next one is expected to end within budget;
    at least one batch.  The calibration kernel runs between ops and the
    gate after each batch, both outside the op latencies.  Returns (batch
    walls, per-op latencies)."""
    walls, latencies = [], []
    clock = time.perf_counter
    began = clock()
    while True:
        outcomes = []
        for op in ops:
            calibration.probe()
            t0 = clock()
            outcomes.append(execute(op, stochdual, problem))
            latencies.append(clock() - t0)
        walls.append(sum(latencies[-len(ops):]))
        for op, out in zip(ops, outcomes):
            gate.add(op, out)
        if clock() - began + walls[-1] > budget:
            return walls, latencies


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def setup(name, seed, stochdual):
    """Build the workload's inputs and load them into the program: generate
    and write the problem files, then parse each distinct one once (the
    sweep parses its one model).  Repeated at least SETUP_REPEATS times and
    for SETUP_MIN_SECONDS, with the calibration kernel after each repetition.
    Returns the last build, its work directory (the caller removes it), the
    median time scaled to reference speed, that time as measured, and
    whether every build produced the same inputs."""
    times, digests, same_inputs, workdir = [], None, True, None
    calibration = Calibration(every=0.0)
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_SECONDS
                                         and len(times) < SETUP_MAX_REPEATS):
        if workdir is not None:
            workdir.cleanup()
        workdir = tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="inputs-")
        t0 = time.perf_counter()
        wl = workloads.WORKLOADS[name](seed, workdir.name)
        for path in sorted({op.path for op in wl.ops if op.path}):
            stochdual.cli.parse_problem_file(path)
        times.append(time.perf_counter() - t0)
        calibration.probe()
        digests = digests or wl.digests
        same_inputs = same_inputs and wl.digests == digests
    setup_s = statistics.median(times)
    return wl, workdir, setup_s * calibration.factor(), setup_s, same_inputs


def warm_up(wl, stochdual):
    """Let lazy imports and first-call costs finish before timing: each
    bundled fixture once, then the batch's first op."""
    for name in workloads.FIXTURES:
        stochdual.cli.run(["report", stochdual.cli.fixture_path(name)])
    execute(wl.ops[0], stochdual, wl.problem)


class Gate:
    """Correctness gate and determinism check, fed every outcome after its
    batch.  Keeps only the first output of each op, so memory does not grow
    with the number of batches; the oracles run in ``finish``."""

    def __init__(self):
        self.first_text: dict[str, str] = {}
        self.first_fail: dict[str, list[str]] = {}
        self.values: dict[str, tuple] = {}  # op name -> (oracle, primal value)
        self.reasons: dict[str, int] = {}
        self.attempted = self.failed = 0
        self.wrong: list[str] = []

    def add(self, op, out: Outcome):
        self.attempted += 1
        text = serialize(out)
        if op.name not in self.first_text:
            self.first_text[op.name] = text
            if op.kind == "report":
                fails = oracles.report_failures(out.code, out.report, out.error)
                value = (out.report or {}).get("primal", {}).get("value")
            else:
                fails = oracles.sweep_failures(out.report, out.error)
                value = (out.report or {}).get("primal_value")
            self.first_fail[op.name] = fails
            if op.oracle is not None and out.error is None:
                self.values[op.name] = (op.oracle, value)
        elif text != self.first_text[op.name]:
            self.wrong.append(f"{op.name}: output differs between repetitions")
        fails = self.first_fail[op.name]
        if fails:
            self.failed += 1
            self.reasons[fails[0]] = self.reasons.get(fails[0], 0) + 1

    def finish(self):
        for name, (oracle, value) in self.values.items():
            mismatch = oracles.oracle_mismatch(oracle, value)
            if mismatch:
                self.wrong.append(f"{name}: {mismatch}")


def batch_time(ops, latencies) -> float:
    """Time to finish the batch, as the sum over its ops of each op's median
    latency in the run (ops on one input file pooled).  Unlike the median of
    whole-batch walls, one slow stretch of a shared machine moves it little."""
    by_name: dict[str, list[float]] = {}
    for i, x in enumerate(latencies):
        by_name.setdefault(ops[i % len(ops)].name, []).append(x)
    medians = {name: statistics.median(xs) for name, xs in by_name.items()}
    return sum(medians[op.name] for op in ops)


def percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_workload(name, seed, seconds, trace, stochdual):
    wl, workdir, setup_s, measured_setup_s, same_inputs = setup(name, seed, stochdual)
    try:
        warm_up(wl, stochdual)
        budget = seconds / 2 if trace else seconds
        calibration, gate = Calibration(), Gate()
        walls, lat = run_batches(wl.ops, stochdual, wl.problem, budget, calibration, gate)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced_walls, tracer = [], None
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced_walls, tlat = run_batches(wl.ops, stochdual, wl.problem,
                                                 seconds - sum(walls), Calibration(), gate)
            finally:
                tracer.uninstall()
    finally:
        workdir.cleanup()

    gate.finish()
    if not same_inputs:
        gate.wrong.append("set-up produced different inputs for one seed")
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "ops_per_batch": len(wl.ops), "batches": len(walls),
        "traced_batches": len(traced_walls),
        "input_digests": wl.digests,
        "failures_by_reason": gate.reasons,
        "failed_ops": {k: v for k, v in gate.first_fail.items() if v},
        "incorrect": gate.wrong,
    }
    if trace:
        totals = tracer.totals()
        per_batch = len(traced_walls)
        metrics = {
            metric: {"value": sum(totals.get(k, 0) for k in keys) / per_batch, "unit": unit}
            for metric, unit, keys in PER_LAYER
        }
        metrics["trace.overhead_s"] = {
            "value": batch_time(wl.ops, tlat) - batch_time(wl.ops, lat), "unit": "s"}
        metrics["trace.spans"] = {"value": len(tracer.spans) / per_batch, "unit": "count"}
        spans_path = os.path.join(OUT_DIR, f"{name}-seed{seed}-spans.jsonl")
        tracer.dump(spans_path)
        record["spans_file"] = os.path.relpath(spans_path, ROOT)
    else:
        factor = calibration.factor()
        wall_s = batch_time(wl.ops, lat)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s * factor, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
        record["measured"] = {"setup_s": measured_setup_s, "wall_s": wall_s}
        record["calibration"] = {"kernel_median_s": statistics.median(calibration.times),
                                 "samples": len(calibration.times), "factor": factor}
        # Printed, not in the JSON metrics: the batches mix op sizes, so the
        # median sits between clusters of ops and jumps from run to run, and
        # p90 needs ten samples beyond it.
        n_ops = len(wl.ops)
        record["op_latencies_ms"] = [[1000 * x for x in lat[i::n_ops]] for i in range(n_ops)]
        record["batch_walls_s"] = walls
        record["op_latency"] = {
            "samples": len(lat),
            "op_p50_ms": 1000 * statistics.median(lat),
            "op_p90_ms": 1000 * percentile(lat, 0.9) if len(lat) >= 100 else None,
        }
    record["metrics"] = metrics
    return record, gate.attempted, gate.failed, not gate.wrong


def describe(record, attempted, failed):
    """Human-readable summary lines of one workload."""
    lines = [f"== {record['workload']}  seed={record['seed']}  trace={record['trace']}  "
             f"batches={record['batches']}+{record['traced_batches']} traced  "
             f"ops/batch={record['ops_per_batch']}"]
    for metric, m in record["metrics"].items():
        lines.append(f"  {metric:<44} {m['value']:.6g} {m['unit']}")
    if not record["trace"]:
        cal, raw = record["calibration"], record["measured"]
        lines.append(f"  {'(measured) setup_s, wall_s':<44} {raw['setup_s']:.6g} s, "
                     f"{raw['wall_s']:.6g} s; wall_s scaled by {cal['factor']:.4g} "
                     f"(kernel {1000 * cal['kernel_median_s']:.4g} ms, n={cal['samples']})")
        lat = record["op_latency"]
        n = lat["samples"]
        lines.append(f"  {'op_p50_ms':<44} {lat['op_p50_ms']:.6g} ms (n={n})")
        lines.append(f"  {'op_p90_ms':<44} " + (f"{lat['op_p90_ms']:.6g} ms (n={n})"
                                                 if lat["op_p90_ms"] is not None
                                                 else f"not reported (n={n} < 100)"))
    lines.append(f"  {'failed_frac':<44} {failed / attempted:.4g} ({failed}/{attempted})")
    for reason, count in sorted(record["failures_by_reason"].items()):
        lines.append(f"    failed: {reason} x{count}")
    for problem in record["incorrect"][:10]:
        lines.append(f"  INCORRECT: {problem}")
    if len(record["incorrect"]) > 10:
        lines.append(f"  INCORRECT: ... {len(record['incorrect']) - 10} more in the record file")
    return "\n".join(lines)


def environment():
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    stochdual = load_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    env = environment()
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    records, attempted, failed, correct = [], 0, 0, True
    for name in names:
        record, n, f, ok = run_workload(name, args.seed, args.seconds, args.trace, stochdual)
        record["environment"] = env
        records.append(record)
        attempted, failed, correct = attempted + n, failed + f, correct and ok
        print(describe(record, n, f), flush=True)
        with open(os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}.json"),
                  "w") as fh:
            json.dump(record, fh, indent=2, sort_keys=True)
    print("environment: " + json.dumps(env, sort_keys=True))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
